"""Path-sampling cross-checks for the lattice solver.

The state follows an Euler scheme: drift and diffusion from the
coefficient field, plus jumps.  Jump sizes above a split radius arrive
as a compound Poisson whose sizes are drawn by inverse CDF on a
tabulated normalized density (family-agnostic, no rejection tuning);
sizes at or below the radius are replaced by a Brownian term matching
their variance.  The truncation-at-one compensation used by the
integro-differential operator is carried as an extra drift, so the
simulated process and the lattice operator describe the same dynamics.
Finite-activity families skip the split and sample every jump.

Estimates: ``european_estimate`` averages the discounted terminal
reward; ``stopping_lower_bound`` builds a regression exercise policy on
half of the paths and values it on the other half, so the reported
number is a genuine lower bound for the optimal stopping value (up to
sampling error) rather than an in-sample artifact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy.integrate import cumulative_trapezoid

from . import levy
from .errors import NumericalError, ParameterError
from .grids import CoefficientField
from .levy import LevyModel

EXACT_FAMILIES = ("none", "merton", "kou")
DEFAULT_SPLIT = 0.01
DEFAULT_INTENSITY_CAP = 1e6
_TABLE_PANELS = 4096
_TAIL_TOL = 1e-10
_MIN_POLICY_PATHS = 10_000


class MCEstimate(NamedTuple):
    """Point estimate with its standard error and an advisory flag."""

    price: float
    stderr: float
    flag: str = ""


# ---------------------------------------------------------------------------
# jump sampling scheme


@dataclass(frozen=True)
class _JumpScheme:
    """Frozen sampling plan for one model: rates and inverse-CDF tables."""

    eps_mc: float      # split radius; 0 means every jump is sampled
    small_var: float   # variance rate of the substituted Brownian term
    comp_drift: float  # drift carried for truncation-at-one compensation
    rate: float        # compound-Poisson arrival rate (mass of the tables)
    mass_plus: float
    mass_minus: float
    cdf_plus: np.ndarray
    mag_plus: np.ndarray
    cdf_minus: np.ndarray
    mag_minus: np.ndarray


_EMPTY = np.zeros(1)
_TRIVIAL_SCHEME = _JumpScheme(0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                              _EMPTY, _EMPTY, _EMPTY, _EMPTY)


def _side_table(model: LevyModel, lo: float, hi: float,
                sign: float) -> tuple[float, np.ndarray, np.ndarray]:
    """Cumulative mass of the density over one side, on a graded grid."""
    if lo > 0.0:
        t = np.geomspace(lo, hi, _TABLE_PANELS + 1)
    else:
        t = np.linspace(0.0, hi, _TABLE_PANELS + 1)
    # finite-activity densities are bounded at 0, but the density helper
    # rejects y = 0 outright; nudge that single node
    t_eval = np.where(t > 0.0, t, hi * 1e-12)
    dens = np.asarray(levy.density(model, sign * t_eval), dtype=float)
    mass = cumulative_trapezoid(dens, t, initial=0.0)
    return float(mass[-1]), mass, t


def _suggest_split(model: LevyModel, eps: float, cap: float) -> float:
    """Smallest power-of-two multiple of ``eps`` whose arrival rate fits."""
    e = max(eps, 1e-8)
    for _ in range(60):
        if levy.jump_moment(model, 0, e, math.inf) <= cap:
            return e
        e *= 2.0
    return e


def _build_scheme(model: LevyModel, eps_mc: float | None,
                  cap: float) -> _JumpScheme:
    if model.is_trivial:
        return _TRIVIAL_SCHEME
    if eps_mc is None:
        eps_mc = 0.0 if model.family in EXACT_FAMILIES else DEFAULT_SPLIT
    eps_mc = float(eps_mc)
    hi = levy.truncation_radius(model, _TAIL_TOL)
    if eps_mc == 0.0:
        if model.family not in EXACT_FAMILIES:
            raise ParameterError(
                f"family {model.family!r} has infinite jump activity; "
                f"a positive eps_mc split radius is required")
        ti = levy.tails(model, 1.0)
        comp = ti.fv_drift
        small_var = 0.0
        lo = 0.0
    else:
        if not 0.0 < eps_mc <= 1.0:
            raise ParameterError(f"eps_mc {eps_mc} outside (0, 1]")
        ti = levy.tails(model, eps_mc)
        comp = ti.comp_drift
        small_var = ti.small_var
        lo = eps_mc
    mass_p, cdf_p, mag_p = _side_table(model, lo, hi, +1.0)
    mass_m, cdf_m, mag_m = _side_table(model, lo, hi, -1.0)
    rate = mass_p + mass_m
    if rate > cap:
        hint = _suggest_split(model, eps_mc, cap)
        raise ParameterError(
            f"jump arrival rate {rate:.4g} above the split radius exceeds "
            f"the cap {cap:.4g}; try eps_mc >= {hint:.4g}")
    return _JumpScheme(eps_mc, small_var, comp, rate, mass_p, mass_m,
                       cdf_p, mag_p, cdf_m, mag_m)


def _draw_jump_sizes(scheme: _JumpScheme, rng: np.random.Generator,
                     count: int) -> np.ndarray:
    """Signed jump sizes by inverse CDF on the tabulated mass."""
    p_plus = scheme.mass_plus / scheme.rate
    plus = rng.random(count) < p_plus
    u = rng.random(count)
    out = np.empty(count)
    if plus.any():
        out[plus] = np.interp(u[plus] * scheme.mass_plus,
                              scheme.cdf_plus, scheme.mag_plus)
    if (~plus).any():
        out[~plus] = -np.interp(u[~plus] * scheme.mass_minus,
                                scheme.cdf_minus, scheme.mag_minus)
    return out


# ---------------------------------------------------------------------------
# simulation


@dataclass(frozen=True)
class PathBatch:
    """Simulated state paths, row per path and column per time level.

    ``jump_counts`` records the number of sampled (above-split) jumps per
    path; ``small_var`` is the variance rate substituted for the
    below-split sizes (zero when every jump is sampled).
    """

    states: np.ndarray
    times: np.ndarray
    seed: int
    eps_mc: float
    small_var: float
    jump_counts: np.ndarray

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]

    @property
    def n_steps(self) -> int:
        return self.states.shape[1] - 1

    @property
    def x0(self) -> float:
        return float(self.states[0, 0])


def simulate(model: LevyModel, coeffs: CoefficientField, x0: float,
             T: float, n_paths: int, n_steps: int, seed: int,
             eps_mc: float | None = None,
             intensity_cap: float = DEFAULT_INTENSITY_CAP) -> PathBatch:
    """Euler paths of the state started at ``x0`` over horizon ``T``.

    The counter-based generator (Philox) makes the batch reproducible
    bit-for-bit from ``seed``; draws are consumed in a fixed step-major
    order.  Diffusion uses ``sqrt(2 a)`` so the paths match the operator
    convention ``a u'' + b u'``; the substituted small-jump variance is
    folded into the same normal draw (the sum of independent centered
    normals is normal).
    """
    if n_paths < 1 or n_steps < 1:
        raise ParameterError("need n_paths >= 1 and n_steps >= 1")
    if not T > 0.0:
        raise ParameterError("horizon T must be positive")
    scheme = _build_scheme(model, eps_mc, intensity_cap)
    rng = np.random.Generator(np.random.Philox(seed))
    dt = T / n_steps
    times = np.linspace(0.0, T, n_steps + 1)
    states = np.empty((n_paths, n_steps + 1))
    states[:, 0] = float(x0)
    jump_counts = np.zeros(n_paths, dtype=np.int64)
    sq_dt = math.sqrt(dt)
    for n in range(n_steps):
        x = states[:, n]
        t = times[n]
        a = np.broadcast_to(np.asarray(coeffs.a(x, t), dtype=float), x.shape)
        b = np.broadcast_to(np.asarray(coeffs.b(x, t), dtype=float), x.shape)
        vol = np.sqrt(2.0 * a + scheme.small_var)
        dx = (b - scheme.comp_drift) * dt \
            + vol * sq_dt * rng.standard_normal(n_paths)
        if scheme.rate > 0.0:
            counts = rng.poisson(scheme.rate * dt, n_paths)
            total = int(counts.sum())
            if total:
                sizes = _draw_jump_sizes(scheme, rng, total)
                owner = np.repeat(np.arange(n_paths), counts)
                dx += np.bincount(owner, weights=sizes, minlength=n_paths)
                jump_counts += counts
        states[:, n + 1] = x + dx
    if not np.all(np.isfinite(states)):
        raise NumericalError("simulation produced non-finite states")
    return PathBatch(states, times, int(seed), scheme.eps_mc,
                     scheme.small_var, jump_counts)


# ---------------------------------------------------------------------------
# estimators


def _rate_increments(batch: PathBatch, r) -> np.ndarray:
    """Per-step ``r * dt`` along each path: (n_paths, n_steps) or (n_steps,).

    A callable rate is integrated along the path with the left-endpoint
    rule, consistent with the Euler stepping of the state itself.
    """
    dts = np.diff(batch.times)
    if callable(r):
        inc = np.empty((batch.n_paths, batch.n_steps))
        for n in range(batch.n_steps):
            rn = np.asarray(r(batch.states[:, n], batch.times[n]),
                            dtype=float)
            inc[:, n] = np.broadcast_to(rn, (batch.n_paths,)) * dts[n]
        return inc
    return float(r) * dts


def european_estimate(batch: PathBatch, g: Callable, r) -> MCEstimate:
    """Discounted terminal-reward mean with its standard error."""
    inc = _rate_increments(batch, r)
    total = inc.sum(axis=-1)
    vals = np.exp(-total) * np.asarray(g(batch.states[:, -1]), dtype=float)
    price = float(vals.mean())
    stderr = (float(vals.std(ddof=1)) / math.sqrt(batch.n_paths)
              if batch.n_paths > 1 else 0.0)
    return MCEstimate(price, stderr)


def _fit_policy(xa: np.ndarray, inc_a: np.ndarray, g: Callable,
                degree: int) -> tuple[list, float, int]:
    """Backward regression pass: per-step continuation-value fits.

    Returns the fitted polynomial per decision step (None where too few
    paths are in the money or the fit is rank-deficient), the estimated
    continuation value at the start, and the count of rank-deficient
    steps.
    """
    n_paths, width = xa.shape
    n_steps = width - 1
    disc = np.exp(-inc_a) if inc_a.ndim == 2 else \
        np.broadcast_to(np.exp(-inc_a), (n_paths, n_steps))
    cash = np.asarray(g(xa[:, -1]), dtype=float).copy()
    polys: list = [None] * width
    singular = 0
    for n in range(n_steps - 1, 0, -1):
        cash = cash * disc[:, n]
        gn = np.asarray(g(xa[:, n]), dtype=float)
        itm = gn > 0.0
        if int(itm.sum()) < degree + 2:
            continue
        x_itm = xa[itm, n]
        lo, hi = float(x_itm.min()), float(x_itm.max())
        if hi - lo < 1e-12:
            singular += 1
            continue
        xs = (2.0 * x_itm - (lo + hi)) / (hi - lo)
        design = np.polynomial.polynomial.polyvander(xs, degree)
        coef, _, rank, _ = np.linalg.lstsq(design, cash[itm], rcond=None)
        if rank < degree + 1:
            singular += 1
            continue
        cont = design @ coef
        take = gn[itm] >= cont
        cash[itm] = np.where(take, gn[itm], cash[itm])
        polys[n] = (coef, lo, hi)
    start = float((cash * disc[:, 0]).mean())
    return polys, start, singular


def _run_policy(xb: np.ndarray, inc_b: np.ndarray, g: Callable,
                polys: list, degree: int) -> np.ndarray:
    """Discounted reward of each path under the fitted exercise rule."""
    n_paths, width = xb.shape
    n_steps = width - 1
    inc2 = inc_b if inc_b.ndim == 2 else \
        np.broadcast_to(inc_b, (n_paths, n_steps))
    alive = np.ones(n_paths, dtype=bool)
    vals = np.zeros(n_paths)
    cum = np.zeros(n_paths)
    for n in range(1, n_steps):
        cum = cum + inc2[:, n - 1]
        rule = polys[n]
        if rule is None:
            continue
        coef, lo, hi = rule
        gn = np.asarray(g(xb[:, n]), dtype=float)
        itm = alive & (gn > 0.0)
        if not itm.any():
            continue
        xs = (2.0 * xb[itm, n] - (lo + hi)) / (hi - lo)
        cont = np.polynomial.polynomial.polyvander(xs, degree) @ coef
        stop = np.zeros(n_paths, dtype=bool)
        stop[itm] = gn[itm] >= cont
        vals[stop] = np.exp(-cum[stop]) * gn[stop]
        alive &= ~stop
    cum = cum + inc2[:, -1]
    vals[alive] = np.exp(-cum[alive]) * \
        np.asarray(g(xb[alive, -1]), dtype=float)
    return vals


def stopping_lower_bound(batch: PathBatch, g: Callable, r,
                         basis_degree: int = 4) -> MCEstimate:
    """Value of a regression exercise policy: a lower bound on the
    optimal stopping value up to sampling error.

    The policy is fitted on the even-index paths and valued on the
    odd-index paths, which removes the in-sample upward bias of
    regression stopping.  The start-time decision compares the immediate
    reward with the fitted continuation value; rank-deficient fits fall
    back to never stopping early at that step (with every step
    degenerate, the policy reduces to terminal exercise) and are
    flagged.
    """
    if batch.n_paths < _MIN_POLICY_PATHS:
        raise ParameterError(
            f"policy estimate needs >= {_MIN_POLICY_PATHS} paths, "
            f"got {batch.n_paths}")
    if not 1 <= basis_degree <= 10:
        raise ParameterError("basis_degree must lie in [1, 10]")
    inc = _rate_increments(batch, r)
    xa, xb = batch.states[::2], batch.states[1::2]
    if inc.ndim == 2:
        inc_a, inc_b = inc[::2], inc[1::2]
    else:
        inc_a = inc_b = inc
    polys, start, singular = _fit_policy(xa, inc_a, g, basis_degree)
    flag = ""
    if singular:
        flag = (f"rank-deficient regression at {singular} step(s); "
                f"no early exercise there")
    g0 = float(np.asarray(g(np.array([batch.x0])), dtype=float)[0])
    if g0 > 0.0 and g0 >= start:
        return MCEstimate(g0, 0.0, flag)
    vals = _run_policy(xb, inc_b, g, polys, basis_degree)
    price = float(vals.mean())
    stderr = (float(vals.std(ddof=1)) / math.sqrt(xb.shape[0])
              if xb.shape[0] > 1 else 0.0)
    return MCEstimate(price, stderr, flag)
