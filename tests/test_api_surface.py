"""The public surface of the package: every public top-level function and
class and every module-level constant in src/bnlab is used by the package
itself, and every name that an __all__ lists exists."""

import ast
import importlib
from pathlib import Path

import bnlab

SRC = Path(bnlab.__file__).resolve().parent


def _references(node):
    """Names used by node, as Name ids and Attribute attributes."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_every_public_definition_is_used_in_src():
    defined = []  # (module, name)
    users = {}  # name -> {(module, top-level definition or None)}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            owner = None
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                owner = node.name
                if not node.name.startswith("_"):
                    defined.append((path.stem, node.name))
            for name in _references(node):
                users.setdefault(name, set()).add((path.stem, owner))
    unused = sorted(name for module, name in defined
                    if not users.get(name, set()) - {(module, name)})
    assert unused == []


def test_every_module_constant_is_read_in_src():
    """Every module-level assignment, private ones included, is read
    somewhere in src/bnlab: a constant outlives none of its readers."""
    assigned = []  # (module, name)
    read = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            assigned += [(path.stem, sub.id) for t in targets
                         for sub in ast.walk(t) if isinstance(sub, ast.Name)
                         and not sub.id.startswith("__")]
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                read.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                read.add(sub.attr)
    unread = sorted(f"{module}.{name}" for module, name in assigned
                    if name not in read)
    assert unread == []


def test_all_names_resolve():
    modules = [bnlab] + [
        importlib.import_module(f"bnlab.{path.stem}")
        for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"
    ]
    for mod in modules:
        missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
        assert missing == [], mod.__name__
