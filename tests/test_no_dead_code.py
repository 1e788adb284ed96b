"""No definition in ``src/repro`` that nothing uses.

An ``ast`` scan of every top-level function and class of the package,
and of the methods of its top-level classes, fails on a name that no
code references outside its own definition.  References are counted
from ``src/``, ``tests/``, ``benchmarks/``, ``perfbench/`` and
``examples/``: every identifier, attribute, imported name and
identifier-shaped string constant (``getattr``/``monkeypatch.setattr``
targets).  A package ``__init__``'s re-exports (its imports,
``__all__`` and lazy-export tables) are not uses.  Names are matched
bare, so any ``.run`` anywhere keeps every method called ``run``: the
scan finds names used nowhere at all, not every unused method.

Decorated definitions (properties, class methods, dataclasses, cached
functions) and dunder methods count as referenced.  What is kept on
purpose without a caller is in :data:`ALLOWED`, each with its reason.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
REFERENCE_DIRS = ("src", "tests", "benchmarks", "perfbench", "examples")

#: Definitions kept although nothing in the repository calls them, as
#: ``name: reason`` (say, a method that a framework calls by name).
ALLOWED: dict[str, str] = {}


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree: ast.Module):
    """(name, node) for the undecorated, non-dunder top-level functions
    and classes and the methods of every top-level class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs) or _dunder(node.name):
            continue
        if not node.decorator_list:
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if (isinstance(member, defs[:2])
                        and not member.decorator_list
                        and not _dunder(member.name)):
                    yield member.name, member


def _references(path: Path, tree: ast.Module, own: dict) -> list[str]:
    """The names *path* uses, less those inside the definition of the
    same name (a recursive call is not a caller) and, in a package
    ``__init__``, its re-exports: imports and top-level assignments
    (``__all__`` and the lazy-export tables)."""
    if path.name == "__init__.py":
        body = [node for node in tree.body
                if not isinstance(node, (ast.Import, ast.ImportFrom,
                                         ast.Assign))]
        tree = ast.Module(body=body, type_ignores=[])
    inside = {id(node): name for name, node in own.get(path, [])}
    names: list[str] = []

    def visit(node: ast.AST, skip: str | None) -> None:
        skip = inside.get(id(node), skip)
        for child in ast.iter_child_nodes(node):
            for name in _names_here(child):
                if name != skip:
                    names.append(name)
            visit(child, skip)

    visit(tree, None)
    return names


def _names_here(node: ast.AST):
    """The names *node* itself uses (not its children's)."""
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.alias):
        yield node.name.rsplit(".", 1)[-1]
        if node.asname:
            yield node.asname
    elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
            and node.value.isidentifier():
        yield node.value


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def unreferenced() -> list[str]:
    """``module:name`` of every definition nothing references."""
    trees = {path: _parse(path) for path in sorted(PACKAGE.rglob("*.py"))}
    own = {path: list(_definitions(tree)) for path, tree in trees.items()}
    this = Path(__file__).resolve()
    used: set[str] = set()
    for directory in REFERENCE_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            if path.resolve() == this:
                continue
            tree = trees.get(path) or _parse(path)
            used.update(_references(path, tree, own))
    return sorted(f"{path.relative_to(PACKAGE.parent)}:{name}"
                  for path, defs in own.items()
                  for name, _ in defs
                  if name not in used and name not in ALLOWED)


def test_every_definition_is_referenced():
    assert unreferenced() == []


def test_every_allowlisted_name_is_defined():
    defined = {name for path in PACKAGE.rglob("*.py")
               for name, _ in _definitions(_parse(path))}
    assert sorted(set(ALLOWED) - defined) == []
