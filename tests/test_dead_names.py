"""No dead names in the package: every module uses what it imports, and every
module-level private name is referenced somewhere in the package.

``__init__.py`` is exempt from the import check, since its imports are the
exports. Dunder names are skipped.
"""

import ast
import pathlib

import treated

TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
         for path in sorted(pathlib.Path(treated.__file__).parent.glob("*.py"))}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _loaded_names(tree):
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _imported_names(tree):
    """Module-level names bound by import statements."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]


def _defined_privates(tree):
    """Module-level ``_private`` names bound by def, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            names = []
        yield from (name for name in names if name.startswith("_") and not _is_dunder(name))


def test_every_import_is_used():
    unused = []
    for module, tree in TREES.items():
        if module != "__init__.py":
            loaded = _loaded_names(tree)
            unused += [f"{module}: {name}" for name in _imported_names(tree)
                       if not _is_dunder(name) and name not in loaded]
    assert unused == []


def test_every_private_name_is_referenced_in_the_package():
    referenced = set()
    for tree in TREES.values():
        referenced |= _loaded_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    dead = [f"{module}: {name}" for module, tree in TREES.items()
            for name in _defined_privates(tree) if name not in referenced]
    assert dead == []
