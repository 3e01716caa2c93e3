"""The code's layout: a test helper is defined in one module only (shared
ones in ``shared.py``), no test module imports another, every
``pytest.raises`` checks more than the exception type, and no source
module reaches a private scipy module or name."""

import ast
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def top_level_names(tree):
    """The names a module binds at top level by def, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def test_each_helper_is_defined_once_and_no_test_module_imports_another():
    defined, test_imports = defaultdict(list), []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), path.name)
        for name in top_level_names(tree):
            if not name.startswith("test_"):
                defined[name].append(path.name)
        test_imports += [(path.name, m) for m in imported_modules(tree) if m.startswith("test_")]
    assert {name: files for name, files in defined.items() if len(files) > 1} == {}
    assert test_imports == []


def test_every_pytest_raises_checks_more_than_the_type():
    # A raise checked by its type alone passes on any error of that type; BAD_CALLS holds the full messages.
    found = []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), path.name)
        bound = {id(item.context_expr) for node in ast.walk(tree) if isinstance(node, ast.With)
                 for item in node.items if item.optional_vars is not None}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and ast.unparse(node.func) == "pytest.raises"
                    and not any(k.arg == "match" for k in node.keywords) and id(node) not in bound):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def dotted_names(tree):
    """The dotted names a module imports, and those it reads as attribute
    chains from an imported name, with each import alias resolved."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
                bound = alias.asname or alias.name.split(".")[0]  # import a.b binds a
                aliases[bound] = alias.name if alias.asname else bound
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                yield f"{node.module}.{alias.name}"
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id in aliases:
            yield ".".join([aliases[node.id], *reversed(parts)])


def test_no_source_module_reaches_a_private_scipy_name():
    # scipy.sparse._sparsetools and the like may change in any scipy release.
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for name in dotted_names(ast.parse(path.read_text(), path.name)):
            head, *rest = name.split(".")
            if head == "scipy" and any(part.startswith("_") for part in rest):
                found.append((path.name, name))
    assert found == []
