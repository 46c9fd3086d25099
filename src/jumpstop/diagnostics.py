"""Post-solve analysis: regions, free boundary, smooth fit, bound checks.

:func:`partition` is the one definition of the stopping region and free
boundary.  Everything here consumes plain arrays or
:class:`~jumpstop.grids.GridFunction` surfaces (plus duck-typed solve
reports) and never imports the solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvariantViolation
from .grids import GridFunction, SpaceTimeGrid

__all__ = [
    "RegionPartition",
    "partition",
    "check_no_dip",
    "check_tolerance",
    "crossings",
    "SmoothFitReport",
    "smooth_fit_gap",
    "CheckResult",
    "lemma_suite",
]


def check_tolerance(grid: SpaceTimeGrid, c: float) -> float:
    """Value-error tolerance of the invariant checks."""
    return c * (grid.h ** 2 + grid.dt) + 1e-9


def crossings(u_slice: np.ndarray, g_slice: np.ndarray,
              x: np.ndarray, tol: float) -> np.ndarray:
    """Locations where ``u - g`` crosses the contact tolerance.

    Linear interpolation between adjacent nodes of ``d = u - g - tol``;
    returns an increasing array of x-positions (possibly empty).
    """
    d = np.asarray(u_slice, dtype=float) - np.asarray(g_slice, dtype=float) \
        - tol
    sign_change = d[:-1] * d[1:] < 0.0
    idx = np.nonzero(sign_change)[0]
    frac = d[idx] / (d[idx] - d[idx + 1])
    locs = x[idx] + frac * (x[idx + 1] - x[idx])
    exact = np.nonzero(d == 0.0)[0]
    if exact.size:
        locs = np.concatenate([locs, x[exact]])
    return np.sort(locs)


@dataclass(frozen=True)
class RegionPartition:
    """Node labels (1 = continuation, 0 = contact) and per-time boundary."""

    labels: np.ndarray
    boundary: list
    tol: float


def check_no_dip(u: GridFunction, payoff, tol: float) -> np.ndarray:
    """Raise :class:`InvariantViolation` where the surface dips below the
    obstacle by more than ``tol`` -- that is never a rounding artifact.

    Returns the gap ``u - g`` (one column per time level).
    """
    x = u.grid.nodes
    g = np.asarray(payoff(x), dtype=float)
    vals = u.values if u.values.ndim == 2 else u.values[:, None]
    gap = vals - g[:, None]
    worst = float(gap.min())
    if worst < -tol:
        i, n = np.unravel_index(np.argmin(gap), gap.shape)
        raise InvariantViolation(
            f"surface falls {-worst:.3e} below the obstacle at "
            f"x = {x[i]:.4f} (time level {n}); tolerance {tol:.3e} "
            f"(layer diagnostics.check_no_dip, quantity min(u - g))")
    return gap


def partition(u: GridFunction, payoff, tol: float) -> RegionPartition:
    """Split the (backward-time) surface into contact and continuation sets.

    Contact is ``u - g <= tol`` where stopping pays (``g > 0``): far out
    of the money the value decays below any tolerance without the region
    being a stopping region.  ``labels[i, m]`` is 0 on contact at natural
    time level ``m``, and ``boundary[m]`` holds the crossings of ``u - g``
    over ``tol`` at which ``g > 0``.  The surface is not checked against
    the obstacle here; :func:`check_no_dip` is the guard.
    """
    x = u.grid.nodes
    g = np.asarray(payoff(x), dtype=float)
    vals = u.values if u.values.ndim == 2 else u.values[:, None]
    gap = vals - g[:, None]
    contact = (gap <= tol) & (g[:, None] > 0.0)
    boundary = []
    for col in gap.T:
        locs = crossings(col, 0.0, x, tol)
        if locs.size:
            locs = locs[np.asarray(payoff(locs), dtype=float) > 0.0]
        boundary.append(locs)
    return RegionPartition(labels=(~contact).astype(np.int8),
                           boundary=boundary, tol=tol)


@dataclass(frozen=True)
class SmoothFitReport:
    """One-sided derivative mismatch across the free boundary.

    ``max_gap`` is the worst boundary point; ``median_gap`` the median
    over all detected boundary points -- a steadier refinement-study
    statistic, since the worst point carries the full boundary-location
    quantization jitter of one cell.
    """

    max_gap: float
    median_gap: float
    gaps: tuple          # (time_index, x_boundary, gap) triples
    grad_max: float
    unreliable: bool     # boundary within 3 nodes of the domain edge


def smooth_fit_gap(u: GridFunction,
                   regions: RegionPartition) -> SmoothFitReport:
    """Measure the jump of the space derivative across the free boundary.

    ``u`` is the backward-time surface; boundary points are the edges of
    the contact set of its :func:`partition` ``regions``.  Meaningful for
    a projected solve only: a penalized iterate meets the obstacle only
    to within its penalty width.  One-sided slopes use second-order
    three-point quotients from nodes strictly on each side of the edge,
    so the stopping-side slope is the payoff's and the gap is the
    physical matching defect.  The last
    :attr:`~jumpstop.grids.SpaceTimeGrid.expiry_levels` columns, next to
    the terminal time, are skipped: the payoff kink's start-up transient
    is below grid resolution there at any step size.
    """
    x = u.grid.nodes
    h = u.grid.h
    interior = u.grid.interior
    vals = u.values if u.values.ndim == 2 else u.values[:, None]
    n_time = vals.shape[1]
    last = n_time - u.grid.expiry_levels if n_time > 1 else n_time
    gaps = []
    unreliable = False
    grad_max = 0.0
    for n in range(last):
        col = vals[:, n]
        grad_max = max(grad_max, float(
            np.max(np.abs(col[2:] - col[:-2])) / (2.0 * h)))
        contact = regions.labels[:, n] == 0
        for i in np.nonzero(contact[:-1] != contact[1:])[0]:
            # nodes <= i on one side of the edge, >= i+1 on the other;
            # edges in the padding (e.g. where a tail decays through the
            # tolerance) are not free-boundary points
            if not (interior[i] or interior[i + 1]):
                continue
            if i < 2 or i + 4 >= x.size:
                unreliable = True
                continue
            xb = 0.5 * (x[i] + x[i + 1])
            left = (3.0 * col[i] - 4.0 * col[i - 1] + col[i - 2]) \
                / (2.0 * h)
            right = (-3.0 * col[i + 1] + 4.0 * col[i + 2] - col[i + 3]) \
                / (2.0 * h)
            gaps.append((n, float(xb), float(abs(left - right))))
    all_gaps = sorted(gp for _, _, gp in gaps)
    # np.median's value bit for bit, without the numpy.ma import it makes
    # on its first call: the middle gap, or the mean of the middle two
    mid = len(all_gaps) // 2
    if not all_gaps:
        median_gap = 0.0
    elif len(all_gaps) % 2:
        median_gap = all_gaps[mid]
    else:
        median_gap = (all_gaps[mid - 1] + all_gaps[mid]) / 2
    return SmoothFitReport(max_gap=max(all_gaps, default=0.0),
                           median_gap=median_gap,
                           gaps=tuple(gaps), grad_max=grad_max,
                           unreliable=unreliable)


class CheckResult(NamedTuple):
    passed: bool
    observed: float
    bound: float


def lemma_suite(report, payoff, grid, c: float = 10.0) -> dict:
    """A-priori bound checks on a penalized solve report.

    ``report`` is duck-typed: needs ``residuals`` (with ``v_min``,
    ``v_max``, ``obstacle_gap``, ``penalty_min``, ``penalty_max``),
    ``anchor``, and optionally ``grad_max_per_eps``.  Tolerance is
    :func:`check_tolerance`.
    """
    tol = check_tolerance(grid, c)
    res = report.residuals
    bound_hi = payoff.bound + 1.0
    checks = {
        "lower_bound": CheckResult(res["v_min"] >= -tol,
                                   res["v_min"], -tol),
        "upper_bound": CheckResult(res["v_max"] <= bound_hi + tol,
                                   res["v_max"], bound_hi + tol),
    }
    if "obstacle_gap" in res:
        checks["obstacle"] = CheckResult(res["obstacle_gap"] >= -tol,
                                         res["obstacle_gap"], -tol)
    if "penalty_min" in res:
        checks["penalty_lower"] = CheckResult(
            res["penalty_min"] >= report.anchor - tol,
            res["penalty_min"], report.anchor - tol)
        checks["penalty_upper"] = CheckResult(
            res["penalty_max"] <= tol, res["penalty_max"], tol)
    grads = list(getattr(report, "grad_max_per_eps", []) or [])
    if len(grads) >= 2:
        spread = (max(grads) - min(grads)) / max(max(grads), 1e-300)
        checks["gradient_spread"] = CheckResult(spread < 0.20, spread, 0.20)
    return checks
