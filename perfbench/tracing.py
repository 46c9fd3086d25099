"""Outside-in tracing of one sample: spans around each module's functions.

:func:`install` replaces every traced function wherever the package
holds it -- the module that defines it and every module or class that
imported it by name -- so callers reach the wrapper however they look the
function up.  Each call records a span ``[name, start, end, parent]``;
some targets also add to counters read from their arguments or result.
Nothing inside ``src/`` changes, and the wrappers pass arguments and
results through untouched, so traced artifacts stay byte-identical.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


class Tracer:
    """In-memory span and counter store for one sample."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index]
        self._stack = [-1]
        self.counts: dict[str, float] = defaultdict(float)

    def open(self, name: str, start: float | None = None) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter() if start is None
                           else start, 0.0, self._stack[-1]])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")
        self.spans[idx][2] = time.perf_counter()

    def wrap(self, name: str, fn, count=None):
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
                if count is not None:
                    count(self, args, kwargs, out)
                return out
            finally:
                self.close(idx)
        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its child spans cover."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def check_nesting(self) -> list[str]:
        """Problems with the span tree: unclosed, or outside the parent."""
        bad = []
        for i, (name, start, end, parent) in enumerate(self.spans):
            if end < start:
                bad.append(f"span {i} ({name}) never closed")
            elif parent >= 0:
                _, p_start, p_end, _ = self.spans[parent]
                if start < p_start or end > p_end:
                    bad.append(f"span {i} ({name}) leaves its parent")
        return bad


# -- counters ----------------------------------------------------------------


def _arg(args, kwargs, pos, key, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(key, default)


def _count_points(tr, args, kwargs, out):
    # numpy stays unimported here, so the cli.import span pays for it
    tr.counts["payoff.kernel_average_points"] += getattr(
        _arg(args, kwargs, 1, "x"), "size", 1)


def _count_ghosts(tr, args, kwargs, out):
    tr.counts["grids.ghost_nodes"] += (_arg(args, kwargs, 4, "n_left")
                                       + _arg(args, kwargs, 5, "n_right"))


def _count_macs(tr, args, kwargs, out):
    # computed, not measured: both correlation kernels over every node
    op = _arg(args, kwargs, 0, "op")
    profile = _arg(args, kwargs, 2, "profile", "accurate")
    d2 = op.corr_kernel.size if profile == "accurate" else op.core_stencil.size
    tr.counts["generator.macs"] += (op.far_kernel.size + d2) * op.n_base


def _count_operator(tr, args, kwargs, out):
    tr.counts["generator.kernel_len"] = max(
        tr.counts["generator.kernel_len"], out.far_kernel.size)
    tr.counts["generator.cells"] = max(tr.counts["generator.cells"],
                                       out.cell_mass.size)


def _count_paths(tr, args, kwargs, out):
    tr.counts["mc.paths"] += out.n_paths
    tr.counts["mc.path_steps"] += out.n_paths * out.n_steps
    tr.counts["mc.jumps"] += int(out.jump_counts.sum())


#: (module, attribute or Class.method, span name, counter)
TARGETS = [
    ("harness", "run", "harness.run", None),
    ("harness", "RunConfig.from_path", "harness.parse", None),
    ("harness", "RunConfig.build_solve_config", "harness.build", None),
    ("solver", "plan_steps", "solver.plan", None),
    ("solver", "solve_vi", "solver.solve", None),
    ("solver", "solve_european", "solver.solve", None),
    ("solver", "_march", "solver.march", None),
    ("solver", "_one_step", "solver.step", None),
    ("solver", "solve_banded", "solver.banded", None),
    ("solver", "residual_vi", "solver.residual", None),
    ("generator", "build_operator", "generator.build", _count_operator),
    ("generator", "apply_nonlocal_ext", "generator.apply", _count_macs),
    ("generator", "apply_local", "generator.local", None),
    ("grids", "extend_slice", "grids.extend", _count_ghosts),
    ("payoff", "kernel_average", "payoff.kernel_average", _count_points),
    ("penalty", "PenaltySpec.value", "penalty.value", None),
    ("penalty", "anchor", "penalty.anchor", None),
    ("levy", "integrate_density", "levy.quad", None),
    ("levy", "exp_compensator", "levy.compensator", None),
    ("levy", "tails", "levy.tails", None),
    ("levy", "truncation_radius", "levy.radius", None),
    ("mc", "simulate", "mc.simulate", _count_paths),
    ("mc", "stopping_lower_bound", "mc.policy", None),
    ("mc", "european_estimate", "mc.estimate", None),
    ("diagnostics", "crossings", "diagnostics.crossings", None),
    ("diagnostics", "partition", "diagnostics", None),
    ("diagnostics", "smooth_fit_gap", "diagnostics", None),
    ("diagnostics", "lemma_suite", "diagnostics", None),
    ("oracles", "bs_put", "oracles", None),
    ("oracles", "merton_put", "oracles", None),
    ("oracles", "binomial_put", "oracles", None),
]


def install(tracer: Tracer) -> None:
    """Wrap every target wherever a loaded ``jumpstop`` module holds it."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "jumpstop"
                                     or name.startswith("jumpstop."))]
    for mod_name, attr, span, count in TARGETS:
        module = sys.modules[f"jumpstop.{mod_name}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, staticmethod):
                setattr(cls, meth, staticmethod(
                    tracer.wrap(span, raw.__func__, count)))
            else:
                setattr(cls, meth, tracer.wrap(span, raw, count))
            continue
        original = getattr(module, attr)
        wrapper = tracer.wrap(span, original, count)
        for holder in modules:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapper)
