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
fields.  A load of a name that two or more of these classes declare
shows no one class is read, so each such field names its reader outside
the tests in ``_SHARED_FIELDS``.  Code and data that only tests reach
belong under ``tests/``.
"""

import ast
import re
from collections import Counter
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
_DECLARED = Counter(name.split(".")[1] for _, name in _FIELDS)
# a field whose name another dataclass also declares: a file outside the
# tests and a piece of code in it that reads the field of this class
_SHARED_FIELDS = {
    "solver.SolveConfig.anchor": ("src/jumpstop/solver.py", "cfg.anchor"),
    "solver.SolveReport.anchor": ("src/jumpstop/diagnostics.py",
                                  "report.anchor"),
    "mc._JumpTable.base": ("src/jumpstop/mc.py", "self.base.take"),
    "payoff.MollifiedPayoff.base": ("src/jumpstop/payoff.py",
                                    "self.base.kinks"),
    "diagnostics.CheckResult.bound": ("src/jumpstop/harness.py",
                                      "checks[name].bound"),
    "payoff.PayoffSpec.bound": ("src/jumpstop/payoff.py", "self.base.bound"),
    "payoff.MollifiedPayoff.eps": ("src/jumpstop/payoff.py",
                                   "arr, self.eps"),
    "penalty.PenaltySpec.eps": ("src/jumpstop/penalty.py",
                                "y < 0.5 * self.eps"),
    "harness.NumericsBlock.eps_schedule": ("src/jumpstop/harness.py",
                                           "n.eps_schedule"),
    "solver.SolveConfig.eps_schedule": ("src/jumpstop/solver.py",
                                        "cfg.eps_schedule"),
    "harness.ProblemBlock.family": ("src/jumpstop/harness.py", "p.family"),
    "levy.LevyModel.family": ("src/jumpstop/levy.py", "model.family"),
    "grids.GridFunction.grid": ("src/jumpstop/generator.py", "gf.grid"),
    "solver.SolveConfig.grid": ("src/jumpstop/harness.py", "cfg.grid"),
    "harness.NumericsBlock.mode": ("src/jumpstop/harness.py", "n.mode"),
    "solver.SolveConfig.mode": ("src/jumpstop/harness.py", "cfg.mode"),
    "generator.NonlocalOperator.model": ("src/jumpstop/generator.py",
                                         "op.model"),
    "solver.SolveConfig.model": ("src/jumpstop/harness.py", "cfg.model"),
    "grids.SpaceTimeGrid.nt": ("src/jumpstop/harness.py", "cfg.grid.nt"),
    "harness.NumericsBlock.nt": ("src/jumpstop/harness.py", "n.nt"),
    "grids.SpaceTimeGrid.nx": ("src/jumpstop/harness.py", "cfg.grid.nx"),
    "harness.NumericsBlock.nx": ("src/jumpstop/harness.py", "n.nx"),
    "grids.SpaceTimeGrid.pad": ("src/jumpstop/harness.py", "cfg.grid.pad"),
    "harness.NumericsBlock.pad": ("src/jumpstop/harness.py", "n.pad"),
    "levy.LevyModel.params": ("src/jumpstop/levy.py", "model.params"),
    "payoff.PayoffSpec.params": ("src/jumpstop/payoff.py", "spec.params"),
    "grids.GridFunction.payoff": ("src/jumpstop/grids.py",
                                  "PayoffGhosts(self.grid, self.payoff)"),
    "harness.ProblemBlock.payoff": ("src/jumpstop/harness.py", "p.payoff"),
    "solver.SolveConfig.payoff": ("src/jumpstop/harness.py", "cfg.payoff"),
    "harness.ProblemBlock.rate": ("src/jumpstop/harness.py", "p.rate"),
    "mc._JumpScheme.rate": ("src/jumpstop/mc.py", "scheme.rate"),
    "levy.TailIntegrals.small_var": ("src/jumpstop/penalty.py",
                                     "t.small_var"),
    "mc._JumpScheme.small_var": ("src/jumpstop/mc.py", "scheme.small_var"),
    "mc._JumpScheme.table": ("src/jumpstop/mc.py", "scheme.table"),
    "payoff.PayoffSpec.table": ("src/jumpstop/payoff.py", "spec.table"),
    "grids.SpaceTimeGrid.x_hi": ("src/jumpstop/grids.py", "self.x_hi"),
    "harness.NumericsBlock.x_hi": ("src/jumpstop/harness.py", "n.x_hi"),
    "grids.SpaceTimeGrid.x_lo": ("src/jumpstop/grids.py", "self.x_lo"),
    "harness.NumericsBlock.x_lo": ("src/jumpstop/harness.py", "n.x_lo"),
}
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
    field, attr = f"{module}.{name}", name.split(".")[1]
    if field in _FIELD_EXEMPT:
        return
    if _DECLARED[attr] == 1:
        assert attr in _LOADED or re.search(rf"\.{attr}\b", _OUTSIDE), \
            f"{field} is read only by tests: delete it or move it under " \
            f"tests/"
        return
    assert field in _SHARED_FIELDS, \
        f"another dataclass declares {attr!r} too: name the reader of " \
        f"{field} outside the tests in _SHARED_FIELDS, or delete it"
    path, reader = _SHARED_FIELDS[field]
    assert not path.startswith("tests/")
    assert re.search(rf"\.{attr}\b", reader), reader
    assert re.search(rf"(?<![\w.]){re.escape(reader)}(?!\w)",
                     (ROOT / path).read_text()), \
        f"{field}: {path} no longer reads it as {reader!r}"


def test_shared_field_table_names_shared_fields_only():
    fields = {f"{module}.{name}" for module, name in _FIELDS}
    shared = {field for field in fields
              if _DECLARED[field.rsplit(".", 1)[1]] > 1} - _FIELD_EXEMPT
    assert set(_SHARED_FIELDS) == shared
