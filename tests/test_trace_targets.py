"""Every function the bench tracer wraps still exists in the package.

``perfbench/tracing.py`` looks each target up by name when a traced
sample starts, so a renamed or deleted function breaks ``--trace 1``
only at bench time.  Its counters read arguments by position
(``_arg(args, kwargs, pos, name)``) and fields of the operator or the
path batch by name, so a shifted parameter or a deleted field breaks it
the same way.  This reads its ``TARGETS`` table and the counters'
source without running a sample.
"""

import ast
import dataclasses
import functools
import importlib
import importlib.util
import inspect
import typing
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
_SPEC = importlib.util.spec_from_file_location("_bench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


@pytest.mark.parametrize("module,attr", [t[:2] for t in tracing.TARGETS],
                         ids=[f"{m}.{a}" for m, a, *_ in tracing.TARGETS])
def test_trace_target_resolves(module, attr):
    mod = importlib.import_module(f"jumpstop.{module}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(mod, cls_name))
    else:
        assert callable(getattr(mod, attr))


def _counter_reads(count):
    """``{variable: (pos, name)}`` for each ``var = _arg(...)``, plus
    ``(pos, name)`` of every ``_arg`` call, and the ``(variable,
    attribute)`` pairs the counter reads."""
    tree = ast.parse(inspect.getsource(count))
    bound, args, attrs = {}, [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", "") == \
                "_arg":
            args.append((node.args[2].value, node.args[3].value))
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call) \
                and getattr(node.value.func, "id", "") == "_arg":
            call = node.value
            bound[node.targets[0].id] = (call.args[2].value,
                                         call.args[3].value)
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name):
            attrs.append((node.value.id, node.attr))
    return bound, args, attrs


_COUNTED = [t for t in tracing.TARGETS if t[3] is not None]


@pytest.mark.parametrize("module,attr,count",
                         [(m, a, c) for m, a, _, c in _COUNTED],
                         ids=[f"{m}.{a}" for m, a, *_ in _COUNTED])
def test_trace_counters_read_real_arguments_and_fields(module, attr, count):
    fn = functools.reduce(getattr, attr.split("."),
                          importlib.import_module(f"jumpstop.{module}"))
    params = list(inspect.signature(fn).parameters)
    hints = typing.get_type_hints(fn)
    bound, args, attrs = _counter_reads(count)
    for pos, name in args:
        assert pos < len(params) and params[pos] == name, \
            f"{count.__name__} reads {name!r} at position {pos}: {params}"
    kinds = {var: hints[name] for var, (_, name) in bound.items()}
    kinds["out"] = hints.get("return")
    read = [(var, field) for var, field in attrs if var in kinds]
    assert args or read, f"{count.__name__} reads nothing it can check"
    for var, field in read:
        cls = kinds[var]
        assert cls is not None and inspect.isclass(cls), (var, cls)
        names = set(dir(cls))
        if dataclasses.is_dataclass(cls):
            names |= {f.name for f in dataclasses.fields(cls)}
        assert field in names, \
            f"{count.__name__} reads {var}.{field}, not on {cls.__name__}"
