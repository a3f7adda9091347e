"""The surface of the package: every top-level function and class, private
ones included, and every module-level constant in src/bnlab is used by the
package itself, every name that an __all__ lists exists, and the package's
__all__ is that of the modules it re-exports, each name listed once."""

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


def test_function_level_imports_defer_only_scipy_special():
    """The package imports every module once, at the top of a module,
    except scipy.special, which only the ell >= 2 Dirichlet bound reads."""
    found = []  # (module, function, imported module)

    def visit(node, module, function):
        for sub in ast.iter_child_nodes(node):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(sub, module, sub.name)
                continue
            if function is not None and isinstance(sub, ast.Import):
                found.extend((module, function, a.name) for a in sub.names)
            elif function is not None and isinstance(sub, ast.ImportFrom):
                found.append((module, function,
                              "." * sub.level + (sub.module or "")))
            visit(sub, module, function)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, None)
    assert found == [("linearization", "_bessel_zero", "scipy.special")]


def test_all_names_resolve():
    modules = [bnlab] + [
        importlib.import_module(f"bnlab.{path.stem}")
        for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"
    ]
    for mod in modules:
        missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
        assert missing == [], mod.__name__


def _reexported():
    """The modules that bnlab/__init__.py star-imports, in its order."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    return [importlib.import_module(f"bnlab.{node.module}")
            for node in tree.body if isinstance(node, ast.ImportFrom)
            and [a.name for a in node.names] == ["*"]]


def test_no_name_is_public_in_two_reexported_modules():
    """A star import lets the later module's name win without a word."""
    owners = {}
    for mod in _reexported():
        for name in mod.__all__:
            owners.setdefault(name, []).append(mod.__name__)
    assert {n: m for n, m in owners.items() if len(m) > 1} == {}


def test_package_all_is_the_concatenation_of_the_reexported():
    modules = _reexported()
    assert len(modules) == 6
    assert bnlab.__all__ == [n for mod in modules for n in mod.__all__]


def test_no_module_reads_a_private_name_of_another():
    """No module of src/bnlab imports an underscore-prefixed name from
    another bnlab module, nor reads one from a bnlab module it imports."""
    found = []  # (module, bnlab module, name)
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = set()  # local names of the bnlab modules imported whole
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or node.level != 1:
                continue
            for alias in node.names:
                if node.module is None:
                    modules.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    found.append((path.stem, node.module, alias.name))
        found += [(path.stem, node.value.id, node.attr)
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in modules and node.attr.startswith("_")]
    assert found == []
