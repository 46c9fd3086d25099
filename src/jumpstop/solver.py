"""IMEX time stepping for the penalized obstacle problem and its limits.

The equation is marched in the time to expiry ``s`` from initial data at
``s = 0``: column ``n`` of every surface is level ``s = n dt``, and
calendar time ``t`` is level ``(T - t) / dt``.  One step treats the local
convection-diffusion-discount part (drift upwinded wherever the grid
Peclet number demands it) and the small-jump core of the jump operator
by backward Euler, as one 7-band matrix ``I - dt (L_local + L_core)``
factored once per stencil with LAPACK ``dgbtrf``; the core's reads of
the ghost nodes at the new level enter the right-hand side.  The far
jumps, their ghost term, the compensator and the penalty are explicit at
the old level.  ``dgbtrf`` and ``dgbtrs`` come from the compiled
``scipy.linalg._flapack`` loaded on its own (:mod:`jumpstop._scipy_ext`),
so a solve never imports the ``scipy.linalg`` package.

A march advances an ``(nx+1, m)`` block, one column per penalty width
with its own obstacle and far field, through one time loop: the columns
share the width-free band and its factor, and one ``dgbtrs`` call solves
them all, each to the bits it would get alone.  Only the last column's
surface is stored.

Three modes:

* ``penalized``  -- explicit penalty ``-p(v - g_eps)`` pushes the iterate
  above the mollified obstacle; driven along a decreasing separation
  schedule by :func:`solve_vi`, every width a column of one march.
* ``projected``  -- no penalty; after each implicit step the iterate is
  clamped to ``max(v, g)``.  Direct complementarity solve, used as the
  sharp cross-check of the penalized limit.
* ``european``   -- no obstacle at all (plain Cauchy problem, optional
  source term); used for closed-form comparisons and heat-kernel tests.

Stability of the explicit part is enforced at configuration time: the
step size must satisfy ``dt * (far jump mass + penalty slope) <= 0.9`` so
the explicit update keeps nonnegative diagonal weight.  :func:`plan_steps`
also caps the step at ``h / 4`` for accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import generator, levy, penalty as penalty_mod
from ._scipy_ext import _load
from .errors import ConfigError, NumericalError, ParameterError
from .generator import NonlocalOperator
from .grids import (CoefficientField, GridFunction, PayoffGhosts,
                    SpaceTimeGrid, extend_slice, validate_coefficients)
from .levy import LevyModel
from .payoff import PayoffSpec, mollify
from .penalty import PenaltySpec

_flapack = _load("scipy.linalg._flapack")
dgbtrf, dgbtrs = _flapack.dgbtrf, _flapack.dgbtrs


def __getattr__(name):
    # perfbench/tracing.py still wraps solver.solve_banded by name, so that
    # one name resolves here, loading scipy.linalg only when it is asked
    # for; ROADMAP item 1 retargets the tracer and then deletes this shim
    if name == "solve_banded":
        from scipy.linalg import solve_banded
        return solve_banded
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "SolveConfig",
    "SolveReport",
    "solve_vi",
    "solve_european",
    "residual_vi",
    "plan_steps",
    "stability_fraction",
    "explicit_rate",
    "contact_tol",
]

MODES = ("penalized", "projected", "european")
DEFAULT_EPS_SCHEDULE = (0.2, 0.1, 0.05, 0.025, 0.0125)
_BUDGET = 0.9
# largest step per grid step that plan_steps allows: the far-mass budget
# alone leaves the time error above the space error on coarse grids
_DT_PER_H = 0.25
# fraction of the stability budget that plan_steps fills
_PLAN_SAFETY = 0.75
# half-bandwidth of the implicit matrix: the core stencil reads v[i-3..i+3]
_KL = 3
# residual levels per pass: small temporaries, and each grid block of the
# jump operator stays in cache across the pass
_LEVEL_BLOCK = 64


@dataclass
class SolveConfig:
    """Validated problem + numerics bundle; owns the assembled operator.

    ``source(x, s)`` and ``initial(x)`` apply to european mode only.
    Construction validates coefficients, schedule, and the explicit
    stability budget, raising :class:`ConfigError` on violation.
    """

    grid: SpaceTimeGrid
    model: LevyModel
    coeffs: CoefficientField
    payoff: PayoffSpec
    eps_schedule: tuple = DEFAULT_EPS_SCHEDULE
    mode: str = "penalized"
    source: Callable | None = None
    initial: Callable | None = None
    op: NonlocalOperator = field(init=False, repr=False)
    anchor: float = field(init=False)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; pick from {MODES}")
        validate_coefficients(self.coeffs, self.grid)
        self.eps_schedule = tuple(float(e) for e in self.eps_schedule)
        if self.mode == "penalized":
            es = self.eps_schedule
            if len(es) == 0:
                raise ConfigError("penalized mode needs an eps schedule")
            if any(not 0.0 < e < 1.0 for e in es):
                raise ConfigError("eps schedule entries must lie in (0, 1)")
            if any(b >= a for a, b in zip(es, es[1:])):
                raise ConfigError("eps schedule must be strictly decreasing")
            if es[-1] < 1e-4:
                raise ConfigError("eps schedule must end at >= 1e-4")
        if (self.source is not None or self.initial is not None) \
                and self.mode != "european":
            raise ConfigError("source/initial overrides are european-only")
        self.op = generator.build_operator(self.model, self.grid)
        self.anchor = penalty_mod.anchor(self.coeffs, self.payoff,
                                         self.model, self.grid)
        frac = stability_fraction(self)
        if frac > 1.0:
            raise ConfigError(
                f"explicit part violates the stability budget "
                f"(dt * rate = {frac * _BUDGET:.3f} > {_BUDGET}); "
                f"need nt >= "
                f"{_budget_steps(self.grid.t_final, explicit_rate(self))} "
                f"time steps")


def _stability_rate(op: NonlocalOperator, anchor: float,
                    eps_schedule: tuple) -> float:
    """Worst decay rate of everything treated explicitly in one step: the
    far jump mass plus the steepest penalty's slope
    (:attr:`PenaltySpec.slope_max`; an empty ``eps_schedule`` for no
    penalty)."""
    pen = penalty_mod.build(min(eps_schedule), anchor).slope_max \
        if eps_schedule else 0.0
    return op.far_mass + pen


def _budget_steps(t_final: float, rate: float, safety: float = 1.0) -> int:
    """Fewest steps over ``t_final`` with ``dt * rate`` inside ``safety``
    times the stability budget."""
    return int(np.ceil(t_final * rate / (_BUDGET * safety)))


def explicit_rate(cfg: SolveConfig) -> float:
    """:func:`_stability_rate` of a built config: the decay rate of its
    explicit part."""
    return _stability_rate(cfg.op, cfg.anchor, cfg.eps_schedule
                           if cfg.mode == "penalized" else ())


def stability_fraction(cfg: SolveConfig) -> float:
    """``dt * explicit rate`` as a fraction of the allowed budget."""
    return cfg.grid.dt * explicit_rate(cfg) / _BUDGET


def plan_steps(grid: SpaceTimeGrid, model: LevyModel,
               coeffs: CoefficientField, payoff: PayoffSpec,
               eps_schedule: tuple = ()) -> int:
    """Step count for a grid, before building a config: the largest of
    ``grid.nt``, the count that fits the stability budget, and
    ``T / (h/4)``.

    The local part and the small-jump core are implicit, so the budget is
    set by the far jump mass and the penalty: it grows like ``h^-alpha``,
    and asks for 122 steps at nx = 400 for an alpha = 1.5 tempered-stable
    model.  The ``dt <= h/4`` cap keeps the first-order time error in
    step with the space error, which the budget alone does not on coarse
    grids (an alpha = 1.5 tempered-stable put at nx = 60 is 2.5e-3 off a
    refined value at the budget's step, 6e-4 at ``h/4``).
    :data:`_PLAN_SAFETY` keeps a margin below the budget; pass the
    intended ``eps_schedule`` when planning a penalized run so the
    penalty slope is counted.
    """
    p0 = (penalty_mod.anchor(coeffs, payoff, model, grid) if eps_schedule
          else 0.0)
    rate = _stability_rate(generator.build_operator(model, grid), p0,
                           eps_schedule)
    return max(grid.nt, _budget_steps(grid.t_final, rate, _PLAN_SAFETY),
               int(np.ceil(grid.t_final / (_DT_PER_H * grid.h))))


# ---------------------------------------------------------------------------
# per-config workspace


class _Workspace:
    """Precomputed arrays shared by all steps of one march, for a block
    of columns: one per penalty width in ``eps`` (``None``: the payoff
    itself).  Column arrays are Fortran-ordered, so each column is
    contiguous and ``dgbtrs`` reads the block in place."""

    def __init__(self, cfg: SolveConfig, eps: tuple):
        grid = cfg.grid
        self.cfg = cfg
        x = grid.nodes
        self.x = x
        self.h = grid.h
        self.dt = grid.dt
        self.eps = eps

        self.bc_fns = [cfg.payoff if e is None else
                       mollify(cfg.payoff, 0.5 * e) for e in eps]
        self.obstacle = np.asfortranarray(np.column_stack(
            [np.asarray(fn(x), dtype=float) for fn in self.bc_fns]))
        # the far field: jump reads past the grid clamp to each column's
        # obstacle, discounted in european mode; the report's surface
        # shares the last column's with residual_vi
        decay = _edge_discount(cfg)
        self.ghosts = [PayoffGhosts(grid, fn, decay) for fn in self.bc_fns]
        self.decaying = decay is not None
        ng, m = generator.NEAR_GHOSTS, len(eps)
        self.near = np.empty((x.size + 2 * ng, m), order="F")
        self._far = None
        self._far_rows = np.empty((m, x.size))
        self._core_cols = np.empty((x.size, m), order="F")

        self.time_dependent = cfg.coeffs.time_dependent
        self._factor_cache: dict[float, tuple] = {}
        # only european configs override the initial data
        self.initial = self.obstacle if cfg.initial is None else \
            np.asarray(cfg.initial(x), dtype=float).reshape(-1, 1)

    def column(self, k: int) -> str:
        """Names column ``k`` in a failure message ("" for no penalty)."""
        eps = self.eps[k]
        return "" if eps is None else f" in the eps = {eps:g} column"

    def far_field(self, n: int):
        """The far field of the step from level ``n``: fills the ghost
        rows of :attr:`near` at ``s_n``; returns the ghosts' explicit jump
        term at ``s_n`` (a row per column), ``dt`` times the implicit
        core's at ``s_{n+1}`` (a column per column) and the Dirichlet edge
        rows at ``s_{n+1}``.  Once per march unless the far field decays."""
        if self._far is None or self.decaying:
            op, dt, ng = self.cfg.op, self.dt, generator.NEAR_GHOSTS
            s_now, s_new = n * dt, (n + 1) * dt
            far, core = self._far_rows, self._core_cols
            for k, ghosts in enumerate(self.ghosts):
                # the jump term reads the widest reach (op.n_ext >= ng
                # ghosts a side) first, so the payoff is evaluated once
                far[k] = generator.ghost_term(op, ghosts, "monotone", s_now)
                left, right = ghosts.take(ng, ng)
                dl, dr = ghosts.discount(s_now)
                np.multiply(left, dl, out=self.near[:ng, k])
                np.multiply(right, dr, out=self.near[-ng:, k])
                np.multiply(dt,
                            generator.ghost_term(op, ghosts, "core", s_new),
                            out=core[:, k])
            dl, dr = self.ghosts[0].discount(s_new)
            self._far = far, core, (self.obstacle[0] * dl,
                                    self.obstacle[-1] * dr)
        return self._far

    def local_stencil(self, t: float):
        """Rows (l, d, u) of ``L_D - r`` with upwinded drift."""
        key = t if self.time_dependent else 0.0
        cfg = self.cfg
        x, h = self.x, self.h
        a = np.asarray(cfg.coeffs.a(x, key), dtype=float)
        b = np.asarray(cfg.coeffs.b(x, key), dtype=float)
        r = np.asarray(cfg.coeffs.r(x, key), dtype=float)
        lo = a / (h * h) - b / (2.0 * h)
        up = a / (h * h) + b / (2.0 * h)
        central_ok = (lo >= 0.0) & (up >= 0.0)
        # upwind the drift wherever the centered form loses sign control
        uw_up = np.where(b >= 0.0, a / (h * h) + b / h, a / (h * h))
        uw_lo = np.where(b >= 0.0, a / (h * h), a / (h * h) - b / h)
        lo = np.where(central_ok, lo, uw_lo)
        up = np.where(central_ok, up, uw_up)
        dg = -(lo + up) - r
        return lo, dg, up

    def band(self, t: float) -> np.ndarray:
        """``I - dt*(L_local + L_core)`` with Dirichlet edge rows, as
        diagonals: ``rows[d + 3, i]`` is the entry of row ``i``, column
        ``i + d``.  Core reads past the grid are left out; they enter the
        right-hand side as the ``"core"`` :func:`generator.ghost_term
        <jumpstop.generator.ghost_term>`."""
        n = self.x.size
        lo, dg, up = self.local_stencil(t)
        coef = np.repeat(generator.core_band(self.cfg.op)[:, None], n, axis=1)
        coef[_KL - 1] += lo
        coef[_KL] += dg
        coef[_KL + 1] += up
        rows = -self.dt * coef
        rows[_KL] += 1.0
        for d in range(1, _KL + 1):
            rows[_KL - d, :d] = 0.0
            rows[_KL + d, n - d:] = 0.0
        rows[:, [0, -1]] = 0.0
        rows[_KL, [0, -1]] = 1.0
        return rows

    def factor(self, t: float):
        """LU factors of :meth:`band` (LAPACK ``dgbtrf``), once per stencil
        of :meth:`local_stencil`; only the latest level's are kept."""
        key = t if self.time_dependent else 0.0
        if key not in self._factor_cache:
            rows = self.band(t)
            n = rows.shape[1]
            # dgbtrf storage: row 2*KL - d holds diagonal d, shifted by d,
            # and rows 0 .. KL-1 are fill-in room for the pivoting
            ab = np.zeros((3 * _KL + 1, n))
            for d in range(-_KL, _KL + 1):
                i0, i1 = max(0, -d), n - max(0, d)
                ab[2 * _KL - d, i0 + d: i1 + d] = rows[_KL + d, i0:i1]
            lu, piv, info = dgbtrf(ab, _KL, _KL, overwrite_ab=True)
            if info != 0:
                what = (f"zero pivot U[{info - 1}, {info - 1}]" if info > 0
                        else f"illegal argument {-info}")
                raise NumericalError(
                    f"solver.factor: the implicit band matrix at t = "
                    f"{key:g} has no LU factors (dgbtrf: {what})")
            self._factor_cache = {key: (lu, piv)}
        return self._factor_cache[key]


def _edge_discount(cfg: SolveConfig) -> Callable | None:
    """The european far field's decay ``s -> (left, right)``: the
    discount ``exp(-integral_0^s r)`` at each edge, ``exp(-r s)`` when the
    coefficients do not depend on time.  ``None`` (no decay) in the
    other modes."""
    if cfg.mode != "european":
        return None
    grid, r_fn = cfg.grid, cfg.coeffs.r
    x = grid.nodes[[0, -1]]
    if not cfg.coeffs.time_dependent:
        r_edge = r_fn(x, 0.0)
        r_left, r_right = float(r_edge[0]), float(r_edge[-1])
        return lambda s: (np.exp(-r_left * s), np.exp(-r_right * s))
    # integral of r along the march at each edge, by the trapezoid rule on
    # the time levels (exact for a rate linear in time)
    times = grid.times
    r = np.array([r_fn(x, float(t)) for t in times], dtype=float)
    cum = np.concatenate([np.zeros((1, 2)),
                          np.cumsum(0.5 * grid.dt * (r[1:] + r[:-1]), axis=0)])
    return lambda s: (np.exp(-np.interp(s, times, cum[:, 0])),
                      np.exp(-np.interp(s, times, cum[:, 1])))


def _implicit_solve(ws: _Workspace, rhs: np.ndarray, t: float,
                    bc: tuple) -> np.ndarray:
    """Band solve at time to expiry ``t`` for a right-hand side (a column
    or a block of them) with Dirichlet edge values ``bc``."""
    rhs = np.array(rhs, order="F")
    rhs[0], rhs[-1] = bc
    lu, piv = ws.factor(t)
    out, info = dgbtrs(lu, _KL, _KL, rhs, piv, overwrite_b=True)
    if info != 0 or not np.isfinite(out).all():
        bad = ~np.isfinite(out.reshape(out.shape[0], -1))
        k = int(np.argmax(bad.any(axis=0)))
        nodes = np.flatnonzero(bad[:, k])
        raise NumericalError(
            f"solver.banded: band solve at step {round(t / ws.dt)}/"
            f"{ws.cfg.grid.nt}, t = {t:g} gave {int(bad.sum())} non-finite "
            f"values, first at nodes {nodes[:3].tolist()}{ws.column(k)} "
            f"(dgbtrs info {info})")
    return out


def _one_step(ws: _Workspace, v_now: np.ndarray, n: int,
              pspec: PenaltySpec | None) -> np.ndarray:
    """Advance every column of the block from level ``n`` to
    ``n + 1``; ``pspec`` holds one penalty width per column."""
    cfg, dt = ws.cfg, ws.dt
    far, core, edges = ws.far_field(n)
    ng = generator.NEAR_GHOSTS
    ws.near[ng:-ng] = v_now
    rhs = v_now + dt * generator.apply_nonlocal_grid(
        cfg.op, ws.near, "monotone", far, core=False)
    if pspec is not None:
        rhs -= dt * pspec.value(v_now - ws.obstacle)
    if cfg.source is not None:
        rhs += dt * np.asarray(cfg.source(ws.x, n * dt),
                               dtype=float)[:, None]
    rhs += core
    # Dirichlet edge values: the obstacle's ends under the far field's
    # discount
    v_new = _implicit_solve(ws, rhs, (n + 1) * dt, edges)
    if cfg.mode == "projected":
        v_new = np.maximum(v_new, ws.obstacle)
    return v_new


# ---------------------------------------------------------------------------
# full marches


def _march(cfg: SolveConfig, eps: tuple
           ) -> tuple[np.ndarray, _Workspace, list, list]:
    """March one column per entry of ``eps`` (``(None,)``: no penalty).

    Returns the last column's surface, the workspace, and per earlier
    column its sup-norm delta to the next and its :func:`_grad_max`:
    maxima over the levels, folded in at every step, so the same bits
    as over stored surfaces."""
    grid = cfg.grid
    pspec = None
    if eps[0] is not None:
        pspec = penalty_mod.build(np.array(eps), cfg.anchor)
        # the penalty's ramp table, built once per process: its
        # quadrature temporaries are gone before the march allocates
        penalty_mod._ramp_table()
    ws = _Workspace(cfg, eps)
    surface = np.empty((grid.nx + 1, grid.nt + 1))
    surface[:, 0] = ws.initial[:, -1]
    limit = cfg.payoff.bound + 2.0 + (
        0.0 if cfg.initial is None else float(np.max(np.abs(ws.initial)))
    ) + 10.0
    v = ws.initial.copy(order="F")
    delta = np.zeros(len(eps) - 1)
    grad = np.zeros(len(eps) - 1)

    def fold(v):
        if delta.size:
            d = v[:, :-1] - v[:, 1:]
            np.maximum(delta, np.abs(d, out=d).max(axis=0), out=delta)
            d = v[2:, :-1] - v[:-2, :-1]
            np.maximum(grad, np.abs(d, out=d).max(axis=0), out=grad)

    fold(v)
    for n in range(grid.nt):
        v = _one_step(ws, v, n, pspec)
        # NaN fails the comparison, so one max catches it too
        ok = np.abs(v).max(axis=0) <= limit
        if not ok.all():
            k = int(np.argmin(ok))
            peak = np.abs(v[:, k]).max()
            raise NumericalError(
                f"solver._march: stability violation at step "
                f"{n + 1}/{grid.nt}{ws.column(k)}: max |v| = {peak:.3e}, "
                f"budget fraction = {stability_fraction(cfg):.3f}")
        fold(v)
        surface[:, n + 1] = v[:, -1]
    return surface, ws, delta.tolist(), \
        [float(g) / (2.0 * grid.h) for g in grad]


def _grad_max(surface: np.ndarray, h: float) -> float:
    """Largest centered space difference ``|v[i+1] - v[i-1]| / 2h`` over
    the surface; dividing the max, not each entry, gives the same bits."""
    diff = surface[2:] - surface[:-2]
    return float(np.abs(diff, out=diff).max()) / (2.0 * h)


def _build_report(cfg: SolveConfig, surface: np.ndarray, ws: _Workspace,
                  eps: float | None,
                  pspec: PenaltySpec | None) -> "SolveReport":
    grid = cfg.grid
    residuals = {
        "v_min": float(surface.min()),
        "v_max": float(surface.max()),
        "grad_max": _grad_max(surface, grid.h),
    }
    if pspec is not None:
        gap = surface - ws.obstacle[:, -1:]
        # a nondecreasing penalty takes its extrema at the gap's extrema
        lo, hi = float(gap.min()), float(gap.max())
        residuals["penalty_min"] = float(pspec.value(lo))
        residuals["penalty_max"] = float(pspec.value(hi))
        residuals["obstacle_gap"] = lo
    trunc = levy.jump_moment(cfg.model, 0, cfg.op.radius, np.inf)
    gf = GridFunction(grid, surface, extension="clamp_payoff",
                      payoff=ws.bc_fns[-1], ghosts=ws.ghosts[-1])
    report = SolveReport(
        value=gf, eps_final=eps, anchor=cfg.anchor,
        residuals=residuals, eps_trace=[],
        truncation_mass=float(trunc), warnings=[], grad_max_per_eps=[],
    )
    for key, val in report.residuals.items():
        if not np.isfinite(val):
            raise NumericalError(f"non-finite residual {key!r} in report")
    return report


@dataclass
class SolveReport:
    """March output: the value surface, column ``n`` at time to expiry
    ``n dt``, plus scalar diagnostics."""

    value: GridFunction
    eps_final: float | None
    anchor: float | None
    residuals: dict
    eps_trace: list
    truncation_mass: float
    warnings: list
    grad_max_per_eps: list


def solve_european(cfg: SolveConfig) -> SolveReport:
    """Plain Cauchy march (no obstacle, optional source/initial)."""
    if cfg.mode != "european":
        raise ConfigError("solve_european requires european mode")
    surface, ws, _, _ = _march(cfg, (None,))
    return _build_report(cfg, surface, ws, None, None)


def solve_vi(cfg: SolveConfig) -> SolveReport:
    """Obstacle-problem solve: penalized continuation or direct projection.

    Penalized mode marches the whole schedule as one block, a column per
    width (the operator and the band factor are shared), and stores only
    the last column's surface, from which it builds the one report.  Each
    earlier column gives only its gradient max and its sup-norm delta to
    the next, the ``eps_trace``, folded in step by step; a non-decreasing
    tail of the trace adds a non-convergence warning.  Projected mode is
    the one-column march.
    """
    if cfg.mode == "projected":
        surface, ws, _, _ = _march(cfg, (None,))
        report = _build_report(cfg, surface, ws, None, None)
    elif cfg.mode == "penalized":
        schedule = cfg.eps_schedule
        surface, ws, trace, grad_per_eps = _march(cfg, schedule)
        eps = schedule[-1]
        report = _build_report(cfg, surface, ws, eps,
                               penalty_mod.build(eps, cfg.anchor))
        report.eps_trace = trace
        report.grad_max_per_eps = grad_per_eps + \
            [report.residuals["grad_max"]]
        if len(trace) >= 2 and trace[-1] >= trace[-2]:
            report.warnings.append(
                "eps continuation: last sup-norm delta did not decrease")
    else:
        raise ConfigError("solve_vi requires penalized or projected mode")
    return report


def contact_tol(cfg: SolveConfig, eps_final: float | None) -> float:
    """Resolution at which ``u - g <= tol`` marks the contact set in
    :func:`jumpstop.diagnostics.partition`.

    The value-error tolerance ``c*(h^2 + dt)`` that gates the invariant
    checks is far coarser than the contact set itself: projection makes
    ``u == g`` exact there, and the penalty confines ``u - g`` to its
    band ``[0, eps]``.  With no penalty (``eps_final`` None) the
    tolerance is rounding-level; the contact collars of
    :func:`residual_vi`, a stencil-validity mask rather than the stopping
    region, use it in every mode.
    """
    if eps_final is not None:
        return float(eps_final)
    return 1e-10 * max(1.0, cfg.payoff.bound)


def residual_vi(value: GridFunction, cfg: SolveConfig) -> GridFunction:
    """Complementarity residual ``min(equation part, obstacle part)``.

    ``value`` is the surface of :func:`solve_vi`, by time to expiry.  The
    equation part uses an independent stencil: centered time difference
    and the accurate-profile jump operator.  Entries are NaN outside the
    region where the stencil is meaningful: at the two time ends, off the
    interior window, within a 2-node collar of each contact-set edge
    (the second space derivative jumps across the free boundary), and in
    the first :attr:`~jumpstop.grids.SpaceTimeGrid.expiry_levels` after
    the terminal condition -- there the payoff kink makes the time
    derivative blow up (square-root-in-time transient), which the
    solution's Sobolev-level regularity permits, so no fixed-order
    stencil resolves it.
    """
    grid = cfg.grid
    if value.values.shape != (grid.nx + 1, grid.nt + 1):
        raise ParameterError("value surface does not match the config grid")
    g = np.asarray(cfg.payoff(grid.nodes), dtype=float)
    out = np.full_like(value.values, np.nan)
    for n0 in range(grid.expiry_levels, grid.nt, _LEVEL_BLOCK):
        n1 = min(n0 + _LEVEL_BLOCK, grid.nt)
        out[:, n0:n1] = _residual_levels(value, cfg, n0, n1, g)
    out[~grid.interior, :] = np.nan
    return GridFunction(grid, out, extension="zero")


def _residual_levels(value: GridFunction, cfg: SolveConfig, n0: int,
                     n1: int, g: np.ndarray) -> np.ndarray:
    """:func:`residual_vi` at levels ``n0 .. n1-1``, NaN in the contact
    collars and on the two end nodes."""
    grid, coeffs = cfg.grid, cfg.coeffs
    x, h, dt = grid.nodes, grid.h, grid.dt
    vals = value.values
    v = vals[:, n0:n1]
    times = dt * np.arange(n0, n1)
    ng, ghosts = generator.NEAR_GHOSTS, value.ghosts
    # the far field at every level of the block
    discount = ghost = None
    if ghosts is not None:
        discount = ghosts.discount(times)
        ghost = generator.ghost_term(cfg.op, ghosts, "accurate", times)
    near = extend_slice(grid, v, value.extension, ghosts, ng, ng, discount)

    def per_level(field):
        if not coeffs.time_dependent:
            return np.asarray(field(x, float(times[0])), dtype=float)[:, None]
        return np.stack([np.asarray(field(x, float(t)), dtype=float)
                         for t in times], axis=1)

    dv_ds = (vals[:, n0 + 1: n1 + 1] - vals[:, n0 - 1: n1 - 1]) / (2.0 * dt)
    lv = generator.local_form(per_level(coeffs.a), per_level(coeffs.b),
                              near[ng - 1: near.shape[0] - ng + 1], h)
    lv += generator.apply_nonlocal_grid(cfg.op, near, "accurate", ghost)
    pde_part = dv_ds - lv + per_level(coeffs.r) * v
    obs_part = v - g[:, None]
    res = np.minimum(pde_part, obs_part)
    # 2-node collar around each contact-set edge (between nodes i and
    # i+1: nodes i-1 .. i+3): the second-derivative jump across the free
    # boundary makes the stencil inconsistent there
    contact = obs_part <= contact_tol(cfg, None)
    edge = contact[:-1] != contact[1:]
    collar = np.zeros_like(contact)
    n_edge = edge.shape[0]
    for s in range(-1, 4):
        i0, i1 = max(0, -s), min(n_edge, n_edge + 1 - s)
        collar[i0 + s: i1 + s] |= edge[i0: i1]
    res[collar] = np.nan
    res[:1] = res[-1:] = np.nan
    return res
