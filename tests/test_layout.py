"""The test code's layout: a helper is defined in one module only (shared
ones in ``shared.py``), and no test module imports another."""

import ast
from collections import defaultdict
from pathlib import Path


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
