"""Runtime dependencies stay stdlib-only: every module `src/sonsim` imports
is in the standard library or is `sonsim` itself."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sonsim"


def _imported_roots(path: Path) -> set[str]:
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_every_import_is_stdlib_or_sonsim():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    foreign = {f"{path.name}: {root}" for path in sources for root in _imported_roots(path)
               if root != "sonsim" and root not in sys.stdlib_module_names}
    assert foreign == set()
