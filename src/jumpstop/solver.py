"""IMEX time stepping for the penalized obstacle problem and its limits.

The equation is marched in the forward variable ``s`` with initial data
at ``s = 0``; the optimal-stopping value in natural (backward) time is
``u(x, t) = v(x, T - t)``.  One step treats the local
convection-diffusion-discount part (drift upwinded wherever the grid
Peclet number demands it) and the small-jump core of the jump operator
by backward Euler, as one 7-band matrix ``I - dt (L_local + L_core)``
factored once per stencil with LAPACK ``dgbtrf``; the core's reads of
the ghost nodes at the new level enter the right-hand side.  The far
jumps, their ghost term, the compensator and the penalty are explicit at
the old level.  ``dgbtrf`` and ``dgbtrs`` come from the compiled
``scipy.linalg._flapack`` loaded on its own (:mod:`jumpstop._scipy_ext`),
so a solve never imports the ``scipy.linalg`` package.

Three modes:

* ``penalized``  -- explicit penalty ``-p(v - g_eps)`` pushes the iterate
  above the mollified obstacle; driven along a decreasing separation
  schedule by :func:`solve_vi`.
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
    "backward_value",
    "required_nt",
    "plan_steps",
    "stability_fraction",
    "explicit_rate",
    "monotone_step_check",
    "contact_tol",
]

MODES = ("penalized", "projected", "european")
DEFAULT_EPS_SCHEDULE = (0.2, 0.1, 0.05, 0.025, 0.0125)
_BUDGET = 0.9
# largest step per grid step that plan_steps allows: the far-mass budget
# alone leaves the time error above the space error on coarse grids
_DT_PER_H = 0.25
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
    radius_tol: float = 1e-12
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
        if not 0.0 < self.radius_tol <= 1e-3:
            raise ConfigError("radius_tol must lie in (0, 1e-3]")
        forced = tuple(sorted({0.25, 0.5, *self.eps_schedule}))
        self.op = generator.build_operator(self.model, self.grid,
                                           forced_edges=forced,
                                           radius_tol=self.radius_tol)
        self.anchor = penalty_mod.anchor(self.coeffs, self.payoff,
                                         self.model, self.grid)
        frac = stability_fraction(self)
        if frac > 1.0:
            raise ConfigError(
                f"explicit part violates the stability budget "
                f"(dt * rate = {frac * _BUDGET:.3f} > {_BUDGET}); "
                f"need nt >= {required_nt(self)} time steps")


def _stability_rate(op: NonlocalOperator, anchor: float,
                    eps_schedule: tuple) -> float:
    """Worst decay rate of everything treated explicitly in one step: the
    far jump mass plus the penalty slope ``2 |p0| / eps_min`` (an empty
    ``eps_schedule`` for no penalty)."""
    pen = 2.0 * abs(anchor) / min(eps_schedule) if eps_schedule else 0.0
    return op.far_mass + pen


def explicit_rate(cfg: SolveConfig) -> float:
    """:func:`_stability_rate` of a built config: the decay rate of its
    explicit part."""
    return _stability_rate(cfg.op, cfg.anchor, cfg.eps_schedule
                           if cfg.mode == "penalized" else ())


def stability_fraction(cfg: SolveConfig) -> float:
    """``dt * explicit rate`` as a fraction of the allowed budget."""
    return cfg.grid.dt * explicit_rate(cfg) / _BUDGET


def monotone_step_check(cfg: SolveConfig) -> bool:
    """Verify the step preserves ordering: the assembled 7-band implicit
    matrix is an M-matrix (off-diagonals <= 0, strictly diagonally
    dominant) and the explicit update keeps nonnegative diagonal weight
    under the budget."""
    ws = _Workspace(cfg, min(cfg.eps_schedule) if cfg.mode == "penalized"
                    else None)
    for t in ([0.0] if not cfg.coeffs.time_dependent else
              [float(s) for s in cfg.grid.times]):
        rows = ws.band(t)
        off = np.delete(rows, _KL, axis=0)
        if np.any(off > 1e-15):
            return False
        if np.any(rows[_KL] - np.abs(off).sum(axis=0) < 1e-15):
            return False
    return stability_fraction(cfg) <= 1.0


def required_nt(cfg: SolveConfig) -> int:
    """Smallest step count satisfying the explicit stability budget."""
    rate = explicit_rate(cfg)
    return max(cfg.grid.nt,
               int(np.ceil(cfg.grid.t_final * rate / _BUDGET)))


def plan_steps(grid: SpaceTimeGrid, model: LevyModel,
               coeffs: CoefficientField, payoff: PayoffSpec,
               eps_schedule: tuple = (), safety: float = 0.75) -> int:
    """Step count for a grid, before building a config: the largest of
    ``grid.nt``, the count that fits the stability budget, and
    ``T / (h/4)``.

    The local part and the small-jump core are implicit, so the budget is
    set by the far jump mass and the penalty: it grows like ``h^-alpha``,
    and asks for 122 steps at nx = 400 for an alpha = 1.5 tempered-stable
    model.  The ``dt <= h/4`` cap keeps the first-order time error in
    step with the space error, which the budget alone does not on coarse
    grids (an alpha = 1.5 tempered-stable put at nx = 60 is 2.5e-3 off a
    refined value at the budget's step, 6e-4 at ``h/4``).  ``safety``
    keeps a margin below the budget; pass the intended ``eps_schedule``
    when planning a penalized run so the penalty slope is counted.
    """
    p0 = (penalty_mod.anchor(coeffs, payoff, model, grid) if eps_schedule
          else 0.0)
    rate = _stability_rate(generator.build_operator(model, grid), p0,
                           eps_schedule)
    return max(grid.nt,
               int(np.ceil(grid.t_final * rate / (_BUDGET * safety))),
               int(np.ceil(grid.t_final / (_DT_PER_H * grid.h))))


# ---------------------------------------------------------------------------
# per-config workspace


class _Workspace:
    """Precomputed arrays shared by all steps of one march."""

    def __init__(self, cfg: SolveConfig, eps: float | None):
        grid = cfg.grid
        self.cfg = cfg
        x = grid.nodes
        self.x = x
        self.h = grid.h
        self.dt = grid.dt

        self.bc_fn = cfg.payoff if eps is None else \
            mollify(cfg.payoff, 0.5 * eps)
        self.obstacle = np.asarray(self.bc_fn(x), dtype=float)
        # jump reads past the grid clamp to the obstacle; the report's
        # surface shares them with residual_vi
        self.ghosts = PayoffGhosts(grid, self.bc_fn)

        self.time_dependent = cfg.coeffs.time_dependent
        self._factor_cache: dict[float, tuple] = {}
        r_edge = cfg.coeffs.r(x[[0, -1]], 0.0)
        self.r_left = float(r_edge[0])
        self.r_right = float(r_edge[-1])
        if cfg.mode == "european" and self.time_dependent:
            # integral of r along the march at each edge, by the trapezoid
            # rule on the time levels (exact for a rate linear in time)
            r = np.array([cfg.coeffs.r(x[[0, -1]], float(t))
                          for t in grid.times], dtype=float)
            self.edge_rate_integral = np.concatenate(
                [np.zeros((1, 2)),
                 np.cumsum(0.5 * grid.dt * (r[1:] + r[:-1]), axis=0)])
        if cfg.mode == "european":
            self.initial = np.asarray(
                cfg.initial(x) if cfg.initial is not None else self.obstacle,
                dtype=float)
        else:
            self.initial = self.obstacle.copy()

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
        right-hand side through :meth:`core_ghost`."""
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

    def core_ghost(self, s: float) -> np.ndarray:
        """The core stencil's reads of the ghost values at forward time
        ``s``: one precomputed vector per side, scaled by its edge
        discount."""
        left, right = generator.core_ghost_terms(self.cfg.op, self.ghosts)
        dl, dr = self.edge_discount(s)
        return dl * left + dr * right

    def ghost_term(self, s: float) -> np.ndarray:
        """Jump term of the ghost values at forward time ``s``."""
        left, right = generator.ghost_terms(self.cfg.op, self.ghosts,
                                            "monotone")
        dl, dr = self.edge_discount(s)
        return dl * left + dr * right

    def edge_discount(self, s: float) -> tuple[float, float]:
        """Decay of the edge data: in european mode the discount
        ``exp(-integral_0^s r)`` at each edge, ``exp(-r s)`` when the
        coefficients do not depend on time."""
        if self.cfg.mode != "european":
            return 1.0, 1.0
        if self.time_dependent:
            times, cum = self.cfg.grid.times, self.edge_rate_integral
            return (np.exp(-np.interp(s, times, cum[:, 0])),
                    np.exp(-np.interp(s, times, cum[:, 1])))
        return np.exp(-self.r_left * s), np.exp(-self.r_right * s)

    def boundary_values(self, s: float) -> tuple[float, float]:
        """Dirichlet edge values at forward time ``s``."""
        dl, dr = self.edge_discount(s)
        return float(self.obstacle[0]) * dl, float(self.obstacle[-1]) * dr


def _implicit_solve(ws: _Workspace, rhs: np.ndarray, t: float,
                    bc: tuple[float, float]) -> np.ndarray:
    rhs = rhs.copy()
    rhs[0], rhs[-1] = bc
    lu, piv = ws.factor(t)
    out, info = dgbtrs(lu, _KL, _KL, rhs, piv, overwrite_b=True)
    if info != 0 or not np.all(np.isfinite(out)):
        bad = np.flatnonzero(~np.isfinite(out))
        raise NumericalError(
            f"solver.banded: band solve at t = {t:g} gave {bad.size} "
            f"non-finite values, first at nodes {bad[:3].tolist()} "
            f"(dgbtrs info {info})")
    return out


def _one_step(ws: _Workspace, v_now: np.ndarray, n: int,
              pspec: PenaltySpec | None) -> np.ndarray:
    """Advance from forward level ``n`` to ``n + 1``."""
    cfg = ws.cfg
    dt = ws.dt
    s_now = n * dt
    s_new = (n + 1) * dt
    ng = generator.NEAR_GHOSTS
    near = extend_slice(cfg.grid, v_now, "clamp_payoff", ws.ghosts, ng, ng,
                        ws.edge_discount(s_now))
    rhs = v_now + dt * generator.apply_nonlocal_grid(
        cfg.op, near, "monotone", ws.ghost_term(s_now), core=False)
    if pspec is not None:
        rhs -= dt * pspec.value(v_now - ws.obstacle)
    if cfg.source is not None:
        rhs += dt * np.asarray(cfg.source(ws.x, s_now), dtype=float)
    rhs += dt * ws.core_ghost(s_new)
    v_new = _implicit_solve(ws, rhs, s_new, ws.boundary_values(s_new))
    if cfg.mode == "projected":
        v_new = np.maximum(v_new, ws.obstacle)
    return v_new


# ---------------------------------------------------------------------------
# full marches


def _march(cfg: SolveConfig, eps: float | None,
           pspec: PenaltySpec | None) -> tuple[np.ndarray, _Workspace]:
    grid = cfg.grid
    ws = _Workspace(cfg, eps)
    surface = np.empty((grid.nx + 1, grid.nt + 1))
    surface[:, 0] = ws.initial
    guard = cfg.payoff.bound + 2.0 + (0.0 if cfg.initial is None else
                                      float(np.max(np.abs(ws.initial))))
    v = surface[:, 0].copy()
    for n in range(grid.nt):
        v = _one_step(ws, v, n, pspec)
        if not np.all(np.isfinite(v)) or np.max(np.abs(v)) > guard + 10.0:
            raise NumericalError(
                f"stability violation at step {n + 1}/{grid.nt}: "
                f"max |v| = {np.max(np.abs(v)):.3e}, "
                f"budget fraction = {stability_fraction(cfg):.3f}")
        surface[:, n + 1] = v
    return surface, ws


def _build_report(cfg: SolveConfig, surface: np.ndarray, ws: _Workspace,
                  eps: float | None, pspec: PenaltySpec | None,
                  steps: int) -> "SolveReport":
    grid = cfg.grid
    h = grid.h
    grad = np.abs(surface[2:, :] - surface[:-2, :]) / (2.0 * h)
    residuals = {
        "v_min": float(surface.min()),
        "v_max": float(surface.max()),
        "grad_max": float(grad.max()),
        "initial_gap": float(np.max(np.abs(surface[:, 0] - ws.initial))),
    }
    if pspec is not None:
        pen = pspec.value(surface - ws.obstacle[:, None])
        residuals["penalty_min"] = float(pen.min())
        residuals["penalty_max"] = float(pen.max())
        residuals["obstacle_gap"] = float(
            np.min(surface - ws.obstacle[:, None]))
    trunc = levy.jump_moment(cfg.model, 0, cfg.op.radius, np.inf)
    gf = GridFunction(grid, surface, extension="clamp_payoff",
                      payoff=ws.bc_fn, ghosts=ws.ghosts)
    report = SolveReport(
        value=gf, mode=cfg.mode, eps_final=eps, anchor=cfg.anchor,
        residuals=residuals, eps_trace=[],
        truncation_mass=float(trunc), steps=steps, warnings=[],
        grad_max_per_eps=[],
    )
    for key, val in report.residuals.items():
        if not np.isfinite(val):
            raise NumericalError(f"non-finite residual {key!r} in report")
    return report


@dataclass
class SolveReport:
    """March output: forward-time surface plus scalar diagnostics."""

    value: GridFunction
    mode: str
    eps_final: float | None
    anchor: float | None
    residuals: dict
    eps_trace: list
    truncation_mass: float
    steps: int
    warnings: list
    grad_max_per_eps: list


def solve_european(cfg: SolveConfig) -> SolveReport:
    """Plain Cauchy march (no obstacle, optional source/initial)."""
    if cfg.mode != "european":
        raise ConfigError("solve_european requires european mode")
    surface, ws = _march(cfg, None, None)
    return _build_report(cfg, surface, ws, None, None, cfg.grid.nt)


def solve_vi(cfg: SolveConfig) -> SolveReport:
    """Obstacle-problem solve: penalized continuation or direct projection.

    Penalized mode marches once per schedule entry (operator and
    mollified payoffs are assembled once and shared), records the
    sup-norm delta between consecutive solutions, and returns the last
    report with the trace; a non-decreasing tail of the trace adds a
    non-convergence warning.  Projected mode is a single march.
    """
    if cfg.mode == "projected":
        surface, ws = _march(cfg, None, None)
        report = _build_report(cfg, surface, ws, None, None, cfg.grid.nt)
    elif cfg.mode == "penalized":
        prev = None
        trace = []
        grad_per_eps = []
        report = None
        total_steps = 0
        for eps in cfg.eps_schedule:
            pspec = penalty_mod.build(eps, cfg.anchor)
            surface, ws = _march(cfg, eps, pspec)
            total_steps += cfg.grid.nt
            if prev is not None:
                trace.append(float(np.max(np.abs(surface - prev))))
            prev = surface
            report = _build_report(cfg, surface, ws, eps, pspec, total_steps)
            grad_per_eps.append(report.residuals["grad_max"])
        report.eps_trace = trace
        report.grad_max_per_eps = grad_per_eps
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
    band ``[0, eps]``.  The contact collars of :func:`residual_vi` are a
    stencil-validity mask, not the stopping region, and keep their own
    rounding-level tolerance.
    """
    if cfg.mode == "penalized":
        return float(eps_final)
    return 1e-10 * max(1.0, cfg.payoff.bound)


def backward_value(report: SolveReport) -> GridFunction:
    """Value in natural time: ``u(x, t) = v(x, T - t)`` (flipped columns)."""
    gf = report.value
    return GridFunction(gf.grid, gf.values[:, ::-1].copy(),
                        extension=gf.extension, payoff=gf.payoff,
                        ghosts=gf.ghosts)


def residual_vi(value: GridFunction, cfg: SolveConfig,
                expiry_layer: float = 0.02) -> GridFunction:
    """Complementarity residual ``min(equation part, obstacle part)``.

    ``value`` is the forward-time surface from :func:`solve_vi`.  The
    equation part uses an independent stencil: centered time difference
    and the accurate-profile jump operator.  Entries are NaN outside the
    region where the stencil is meaningful: at the two time ends, off the
    interior window, within a 2-node collar of each contact-set edge
    (the second space derivative jumps across the free boundary), and in
    the first ``expiry_layer`` fraction of the horizon after the terminal
    condition -- there the payoff kink makes the time derivative blow up
    (square-root-in-time transient), which the solution's Sobolev-level
    regularity permits, so no fixed-order stencil resolves it.
    """
    grid = cfg.grid
    if value.values.shape != (grid.nx + 1, grid.nt + 1):
        raise ParameterError("value surface does not match the config grid")
    g = np.asarray(cfg.payoff(grid.nodes), dtype=float)
    n_skip = max(1, int(np.ceil(expiry_layer * grid.nt)))
    ghost = None
    if value.ghosts is not None:
        left, right = generator.ghost_terms(cfg.op, value.ghosts, "accurate")
        ghost = left + right
    out = np.full_like(value.values, np.nan)
    for n0 in range(n_skip, grid.nt, _LEVEL_BLOCK):
        n1 = min(n0 + _LEVEL_BLOCK, grid.nt)
        out[:, n0:n1] = _residual_levels(value, cfg, n0, n1, g, ghost)
    out[~grid.interior, :] = np.nan
    return GridFunction(grid, out, extension="zero")


def _residual_levels(value: GridFunction, cfg: SolveConfig, n0: int,
                     n1: int, g: np.ndarray,
                     ghost: np.ndarray | None) -> np.ndarray:
    """:func:`residual_vi` at levels ``n0 .. n1-1``, NaN in the contact
    collars and on the two end nodes."""
    grid, coeffs = cfg.grid, cfg.coeffs
    x, h, dt = grid.nodes, grid.h, grid.dt
    vals = value.values
    v = vals[:, n0:n1]
    times = dt * np.arange(n0, n1)
    ng = generator.NEAR_GHOSTS
    near = extend_slice(grid, v, value.extension, value.ghosts, ng, ng)

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
    contact = obs_part <= 1e-10 * max(1.0, cfg.payoff.bound)
    edge = contact[:-1] != contact[1:]
    collar = np.zeros_like(contact)
    n_edge = edge.shape[0]
    for s in range(-1, 4):
        i0, i1 = max(0, -s), min(n_edge, n_edge + 1 - s)
        collar[i0 + s: i1 + s] |= edge[i0: i1]
    res[collar] = np.nan
    res[:1] = res[-1:] = np.nan
    return res
