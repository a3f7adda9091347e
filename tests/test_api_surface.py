"""The public surface of the package: every public top-level function and
class in src/bnlab is used by the package itself, and every name that an
__all__ lists exists."""

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


def test_all_names_resolve():
    modules = [bnlab] + [
        importlib.import_module(f"bnlab.{path.stem}")
        for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"
    ]
    for mod in modules:
        missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
        assert missing == [], mod.__name__
