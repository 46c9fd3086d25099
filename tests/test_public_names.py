"""Every public name of the package has a caller outside the tests.

A name in a module's ``__all__`` must be read somewhere in ``src/``
other than its own definition and its ``__all__`` entry, or be named in
``demos/`` or in ``perfbench/`` outside its tests (the bench tracer
wraps functions by name).  Code that only tests reach belongs under
``tests/``.
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


_TREES = {path.stem: ast.parse(path.read_text())
          for path in sorted(PACKAGE.glob("*.py"))}
_READ = {name for tree in _TREES.values() for name in _read(tree)}
_OUTSIDE = "\n".join(path.read_text() for folder in ("demos", "perfbench")
                     for path in sorted((ROOT / folder).glob("*.py"))
                     if not path.name.startswith("test_"))
_PUBLIC = [(module, name) for module, tree in _TREES.items()
           if module != "__init__" for name in _public(tree)]


def test_public_names_are_found():
    assert len(_PUBLIC) > 50


@pytest.mark.parametrize("module,name", _PUBLIC,
                         ids=[f"{m}.{n}" for m, n in _PUBLIC])
def test_public_name_has_a_caller_outside_the_tests(module, name):
    assert name in _READ or re.search(rf"\b{name}\b", _OUTSIDE), \
        f"{module}.{name} is reached only by tests: move it under tests/"
