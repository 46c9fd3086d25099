"""Every public name and every dataclass field of the package has a
reader outside the tests.

A name in a module's ``__all__`` must be read somewhere in ``src/``
other than its own definition and its ``__all__`` entry, or be named in
``demos/`` or in ``perfbench/`` outside its tests (the bench tracer
wraps functions by name).  A field of a dataclass in ``src/`` must be
read as an attribute in ``src/`` (directly or by ``getattr`` with a
constant name), or as ``.field`` in ``demos/`` or in ``perfbench/``
outside its tests; setting it, or passing it to the constructor, is not
a read.  The fields of a ``NamedTuple`` class count as dataclass
fields.  Code and data that only tests reach belong under ``tests/``.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "jumpstop"


def _public(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and \
                [getattr(t, "id", None) for t in node.targets] == ["__all__"]:
            return [elt.value for elt in node.value.elts]
    return []


def _read(tree):
    """Names a module reads: loaded names, attributes and imports (no
    string constants, definitions or assignment targets)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def _loaded(tree):
    """Attribute names a module reads (not the ones it sets), directly or
    through ``getattr`` with a constant name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and \
                isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.Call) and \
                getattr(node.func, "id", None) == "getattr" and \
                isinstance(node.args[1], ast.Constant):
            yield node.args[1].value


def _is_dataclass(decorator):
    target = decorator.func if isinstance(decorator, ast.Call) \
        else decorator
    return getattr(target, "id", None) == "dataclass"


def _is_record(node):
    """A dataclass or a ``NamedTuple`` class."""
    return any(map(_is_dataclass, node.decorator_list)) or \
        any(getattr(base, "id", None) == "NamedTuple" for base in node.bases)


def _fields(tree):
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and _is_record(node):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and \
                        isinstance(stmt.target, ast.Name):
                    yield f"{node.name}.{stmt.target.id}"


_TREES = {path.stem: ast.parse(path.read_text())
          for path in sorted(PACKAGE.glob("*.py"))}
_READ = {name for tree in _TREES.values() for name in _read(tree)}
_OUTSIDE = "\n".join(path.read_text() for folder in ("demos", "perfbench")
                     for path in sorted((ROOT / folder).glob("*.py"))
                     if not path.name.startswith("test_"))
_LOADED = {name for tree in _TREES.values() for name in _loaded(tree)}
_FIELDS = [(module, name) for module, tree in _TREES.items()
           for name in _fields(tree)]
# read by tests only, and kept: the paper's singularity bound M,
# rho(y) <= M / |y|^(1+alpha) near 0, which test_levy checks per family
_FIELD_EXEMPT = {"levy.LevyModel.sing_const"}
_PUBLIC = [(module, name) for module, tree in _TREES.items()
           if module != "__init__" for name in _public(tree)]


def test_public_names_are_found():
    assert len(_PUBLIC) > 50


@pytest.mark.parametrize("module,name", _PUBLIC,
                         ids=[f"{m}.{n}" for m, n in _PUBLIC])
def test_public_name_has_a_caller_outside_the_tests(module, name):
    assert name in _READ or re.search(rf"\b{name}\b", _OUTSIDE), \
        f"{module}.{name} is reached only by tests: move it under tests/"


def test_dataclass_fields_are_found():
    assert len(_FIELDS) > 50


@pytest.mark.parametrize("module,name", _FIELDS,
                         ids=[f"{m}.{n}" for m, n in _FIELDS])
def test_dataclass_field_is_read_outside_the_tests(module, name):
    attr = name.split(".")[1]
    assert attr in _LOADED or re.search(rf"\.{attr}\b", _OUTSIDE) \
        or f"{module}.{name}" in _FIELD_EXEMPT, \
        f"{module}.{name} is read only by tests: delete it or move it " \
        f"under tests/"
