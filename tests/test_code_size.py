"""The size of `src/sonsim` in code lines, held to a ceiling.

A code line is a source line that holds a token other than a comment;
docstrings (the first statement of a module, class or function when it is a
string) and blank lines do not count. A change that needs more lines than
the ceiling raises it and says why in CHANGES.md.

Run as a script to print the count per module:

    python tests/test_code_size.py
"""

import ast
import io
import tokenize
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "sonsim"
CEILING = 1381

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def module_lines() -> dict[str, int]:
    return {path.name: code_lines(path.read_text(encoding="utf-8"))
            for path in sorted(SOURCE.glob("*.py"))}


def test_counter_skips_docstrings_comments_and_blanks():
    source = ('"""Module."""\n\n# note\nclass A:\n    """Doc\n    more."""\n\n'
              '    def f(self):\n        """Doc."""\n        return (1,\n                2)  # two\n'
              'X = """not a docstring"""\n')
    assert code_lines(source) == 5


def test_source_stays_within_its_ceiling():
    total = sum(module_lines().values())
    assert total <= CEILING, f"src/sonsim has {total} code lines, ceiling {CEILING}"


if __name__ == "__main__":
    counts = module_lines()
    for name, count in counts.items():
        print(f"{name:14} {count:5}")
    print(f"{'total':14} {sum(counts.values()):5}")
