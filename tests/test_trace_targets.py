"""Every function the bench tracer wraps still exists in the package.

``perfbench/tracing.py`` looks each target up by name when a traced
sample starts, so a renamed or deleted function breaks ``--trace 1``
only at bench time.  This reads its ``TARGETS`` table without running a
sample.
"""

import importlib
import importlib.util
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
