"""Runtime dependencies stay stdlib-only: every module `src/sonsim` imports
is in the standard library or is `sonsim` itself. No module, and no test
module, imports a name it does not use. One constructor turns the
communities a route searched into its result. One function, `cli._write`,
opens every output file. The modules are the package's API:
`sonsim/__init__.py` re-exports nothing, and every module defines only what
the package's own code uses."""

import ast
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "sonsim"


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


def _annotation_names(tree: ast.AST) -> set[str]:
    """Names referenced inside string annotations, such as "DecisionTree" in
    `dict[str, "DecisionTree"]`."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations.extend(arg.annotation for arg in (
                *args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg)
                if arg is not None)
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names = set()
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parsed = ast.parse(node.value, mode="eval")
                names.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return names


def _unused_imports(path: Path) -> set[str]:
    """Names `path` imports and never references, except `__future__`
    features and imports on a line marked `# noqa: F401`."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text, filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _annotation_names(tree)
    return {f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used}


def test_every_imported_name_is_used():
    sources = [*sorted(SRC.glob("*.py")), *sorted(TESTS.glob("*.py"))]
    assert SRC / "ksp.py" in sources and TESTS / "test_ksp.py" in sources
    assert set().union(*map(_unused_imports, sources)) == set()


class _ScopeVisitor(ast.NodeVisitor):
    """Records, per `module:Class.function` scope, each construction of a
    `RoutingResult` (a call of that name, or of `cls` inside its class) and
    each read of a relevant set's entries (a subscript of a name that
    contains `relevant`), the per-community read that turns a searched
    community into its answers."""

    def __init__(self, module: str):
        self.module = module
        self.scope: list[str] = []
        self.constructs: set[str] = set()
        self.reads: set[str] = set()

    def _nested(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _nested

    def _where(self) -> str:
        return f"{self.module}:{'.'.join(self.scope)}"

    def visit_Call(self, node):
        if isinstance(node.func, ast.Name) and (
                node.func.id == "RoutingResult"
                or (node.func.id == "cls" and "RoutingResult" in self.scope)):
            self.constructs.add(self._where())
        self.generic_visit(node)

    def visit_Subscript(self, node):
        if isinstance(node.value, ast.Name) and "relevant" in node.value.id:
            self.reads.add(self._where())
        self.generic_visit(node)


def test_one_function_turns_searched_communities_into_a_result():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    constructs, reads = set(), set()
    for path in sources:
        visitor = _ScopeVisitor(path.name)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        constructs |= visitor.constructs
        reads |= visitor.reads
    assert constructs == {"baseline.py:RoutingResult.searched"}
    assert reads == constructs


# Names the package keeps although no code under src/sonsim reads them.
UNREFERENCED_ALLOWED = {
    # The plain exhaustive scan that every fast relevance path is tested against.
    "oracle_relevant_peers",
    # tests/test_acceptance.py checks the weather fixture's gains through it.
    "information_gain",
    # benchmark/worker.py reads relevant peers through it.
    "relevant_peers_indexed",
}


def test_the_package_namespace_is_empty():
    """Code imports the modules; `sonsim/__init__.py` holds only its docstring."""
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    assert not [node for node in ast.walk(tree) if isinstance(
        node, (ast.Import, ast.ImportFrom, ast.Assign, ast.AnnAssign, ast.AugAssign))]


def _surface() -> tuple[set[str], set[str]]:
    """(the module-level functions and classes under `src/sonsim`, the names
    referenced by `src/sonsim` code outside the definition of the same name).
    An import is no reference."""
    declared, referenced = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for statement in tree.body:
            own = None
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = statement.name
                declared.add(own)
            names = {node.id for node in ast.walk(statement) if isinstance(node, ast.Name)}
            names |= _annotation_names(statement)
            referenced |= names - {own}
    return declared, referenced


def test_every_exported_or_defined_name_is_used_by_the_package():
    declared, referenced = _surface()
    assert "build_tree" in declared and "Config" in declared
    assert declared - referenced == UNREFERENCED_ALLOWED


def _opens_to_write(call: ast.Call) -> bool:
    """Whether `call` opens a file to write: `open(path, mode)` or
    `path.open(mode)` with a mode that writes (or one not spelled out as a
    literal), or `path.write_text` / `path.write_bytes`."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes"):
        return True
    if isinstance(func, ast.Name) and func.id == "open":
        position = 1
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        position = 0
    else:
        return False
    modes = [keyword.value for keyword in call.keywords if keyword.arg == "mode"]
    mode = call.args[position] if len(call.args) > position else (modes or [None])[0]
    if mode is None:
        return False  # the default mode reads
    return not isinstance(mode, ast.Constant) or bool(set(mode.value) & set("wax+"))


def _file_writers(path: Path) -> set[str]:
    """The `module.scope` names in `path` that open a file to write."""
    writers = set()

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = (*scope, child.name)
            elif isinstance(child, ast.Call) and _opens_to_write(child):
                writers.add(".".join((path.stem, *scope)))
            visit(child, inner)

    visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), ())
    return writers


def test_only_cli_write_opens_an_output_file():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    assert set().union(*map(_file_writers, sources)) == {"cli._write"}
