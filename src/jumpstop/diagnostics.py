"""Post-solve analysis: regions, free boundary, smooth fit, bound checks.

:func:`partition` is the one definition of the stopping region and free
boundary.  Everything here consumes plain arrays or
:class:`~jumpstop.grids.GridFunction` surfaces (plus duck-typed solve
reports) and never imports the solver.  A surface is the solver's:
column ``n`` is the level at time to expiry ``n dt``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvariantViolation, NumericalError
from .grids import GridFunction, SpaceTimeGrid

__all__ = [
    "RegionPartition",
    "partition",
    "stopping_rule",
    "check_no_dip",
    "check_tolerance",
    "crossings",
    "SmoothFitReport",
    "smooth_fit_gap",
    "CheckResult",
    "lemma_suite",
]


#: ``c`` in the value-error tolerance ``c * (h^2 + dt) + 1e-9``
_CHECK_C = 10.0


def check_tolerance(grid: SpaceTimeGrid) -> float:
    """Value-error tolerance of the invariant checks."""
    return _CHECK_C * (grid.h ** 2 + grid.dt) + 1e-9


def crossings(d_lo: np.ndarray, d_hi: np.ndarray, x_lo: np.ndarray,
              x_hi: np.ndarray) -> np.ndarray:
    """Where a function with values ``d_lo`` at ``x_lo`` and ``d_hi`` at
    ``x_hi`` (of opposite signs, or 0 at one end) crosses 0, by linear
    interpolation: ``x_lo + d_lo / (d_lo - d_hi) * (x_hi - x_lo)``."""
    return x_lo + d_lo / (d_lo - d_hi) * (x_hi - x_lo)


@dataclass(frozen=True)
class RegionPartition:
    """Node labels (1 = continuation, 0 = contact), the free-boundary
    edges and their positions per level.

    ``edges`` is ``(i, n)``: the free boundary crosses between nodes
    ``i`` and ``i + 1`` of level ``n``, level by level and left to right;
    ``boundary[n]`` holds level ``n``'s positions in increasing order.
    ``gap_min`` is the least ``u - g`` over the surface.
    """

    labels: np.ndarray
    boundary: list
    edges: tuple
    tol: float
    gap_min: float


def check_no_dip(u: GridFunction, g: np.ndarray,
                 tol: float) -> tuple[np.ndarray, float]:
    """Raise :class:`InvariantViolation` where the surface dips below the
    obstacle by more than ``tol`` -- that is never a rounding artifact.

    ``g`` holds the obstacle on the grid's nodes.  Returns the gap
    ``u - g`` (one column per level) and its least value.
    """
    vals = u.values if u.values.ndim == 2 else u.values[:, None]
    gap = vals - g[:, None]
    worst = float(gap.min())
    if worst < -tol:
        i, n = np.unravel_index(np.argmin(gap), gap.shape)
        raise InvariantViolation(
            f"surface falls {-worst:.3e} below the obstacle at "
            f"x = {u.grid.nodes[i]:.4f} (time level {n}); tolerance "
            f"{tol:.3e} (layer diagnostics.check_no_dip, quantity "
            f"min(u - g))")
    return gap, worst


def _contact(gap, g, tol: float):
    """The contact set: ``u - g <= tol`` where stopping pays (``g > 0``)."""
    return (gap <= tol) & (g > 0.0)


def partition(u: GridFunction, payoff, tol: float) -> RegionPartition:
    """Split the surface into contact and continuation sets.

    Contact is ``u - g <= tol`` where stopping pays (``g > 0``): far out
    of the money the value decays below any tolerance without the region
    being a stopping region.  ``labels[i, n]`` is 0 on contact at level
    ``n``.  A free-boundary edge is an edge of the contact set
    across which ``d = u - g - tol`` changes sign (``<= 0`` on one side,
    ``> 0`` on the other) and whose :func:`crossings` position has
    ``g > 0``; an edge where only the payoff's support ends is not one.
    The gap comes from :func:`check_no_dip` at :func:`check_tolerance`,
    so a surface that dips below the obstacle raises here.
    """
    x = u.grid.nodes
    g = np.asarray(payoff(x), dtype=float)
    gap, gap_min = check_no_dip(u, g, check_tolerance(u.grid))
    contact = _contact(gap, g[:, None], tol)
    # level-major, so each level's edges come left to right
    n, i = np.nonzero(contact.T[:, :-1] != contact.T[:, 1:])
    d_lo, d_hi = gap[i, n] - tol, gap[i + 1, n] - tol
    turn = (d_lo <= 0.0) != (d_hi <= 0.0)
    i, n = i[turn], n[turn]
    locs = crossings(d_lo[turn], d_hi[turn], x[i], x[i + 1])
    pays = np.asarray(payoff(locs), dtype=float) > 0.0
    i, n, locs = i[pays], n[pays], locs[pays]
    levels = np.searchsorted(n, np.arange(1, gap.shape[1]))
    return RegionPartition(labels=(~contact).astype(np.int8),
                           boundary=np.split(locs, levels), edges=(i, n),
                           tol=tol, gap_min=gap_min)


def stopping_rule(value: GridFunction, payoff, tol: float):
    """The contact set of the surface ``value`` as a stopping rule
    ``rule(x, s) -> bool mask``.

    A state ``x`` at time to expiry ``s`` stops where the node nearest to
    it, on the level nearest to ``s``, is in :func:`partition`'s contact
    set at the same ``tol``; states past the grid read its end node.
    Each call forms the contact set of the one level it reads.  A
    non-finite state reads no node: it is a :class:`NumericalError`.
    """
    grid = value.grid
    x = grid.nodes
    g = np.asarray(payoff(x), dtype=float)
    x0, h, dt = x[0], grid.h, grid.dt

    def rule(y, s):
        if not np.isfinite(y).all():
            raise NumericalError(
                f"diagnostics.stopping_rule: non-finite state "
                f"{y[~np.isfinite(y)][0]} at time to expiry {s:.6g}")
        n = min(max(round(s / dt), 0), grid.nt)
        contact = _contact(value.values[:, n] - g, g, tol)
        i = np.clip(np.rint((y - x0) / h), 0, grid.nx)
        return contact[i.astype(np.intp)]
    return rule


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
    grad_max: float
    unreliable: bool     # boundary within 3 nodes of the domain edge


def smooth_fit_gap(u: GridFunction,
                   regions: RegionPartition) -> SmoothFitReport:
    """Measure the jump of the space derivative across the free boundary.

    Boundary points are the free-boundary ``edges`` of the surface
    ``u``'s :func:`partition` ``regions``.
    Meaningful for a projected solve only: a penalized iterate meets the
    obstacle only to within its penalty width.  One-sided slopes use
    second-order three-point quotients from nodes strictly on each side
    of the edge, so the stopping-side slope is the payoff's and the gap
    is the physical matching defect.  Edges in the padding (e.g. where a
    tail decays through the tolerance) are not measured.  Levels
    ``n < grid.expiry_levels``, next to expiry, are skipped as in
    :func:`~jumpstop.solver.residual_vi`: the payoff kink's start-up
    transient is below grid resolution there at any step size.
    """
    h = u.grid.h
    interior = u.grid.interior
    vals = u.values if u.values.ndim == 2 else u.values[:, None]
    first = u.grid.expiry_levels if vals.shape[1] > 1 else 0
    grad_max = float(np.max(np.abs(vals[2:, first:] - vals[:-2, first:]))) \
        / (2.0 * h) if first < vals.shape[1] else 0.0
    # nodes <= i on one side of the edge, >= i+1 on the other
    i, n = regions.edges
    on = (n >= first) & (interior[i] | interior[i + 1])
    i, n = i[on], n[on]
    near = (i < 2) | (i + 4 >= vals.shape[0])
    i, n = i[~near], n[~near]
    left = (3.0 * vals[i, n] - 4.0 * vals[i - 1, n] + vals[i - 2, n]) \
        / (2.0 * h)
    right = (-3.0 * vals[i + 1, n] + 4.0 * vals[i + 2, n]
             - vals[i + 3, n]) / (2.0 * h)
    all_gaps = sorted(np.abs(left - right).tolist())
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
                           median_gap=median_gap, grad_max=grad_max,
                           unreliable=bool(near.any()))


class CheckResult(NamedTuple):
    passed: bool
    observed: float
    bound: float


def lemma_suite(report, payoff, grid) -> dict:
    """A-priori bound checks on a penalized solve report.

    ``report`` is duck-typed: needs ``residuals`` (with ``v_min``,
    ``v_max``, ``obstacle_gap``, ``penalty_min``, ``penalty_max``),
    ``anchor``, and optionally ``grad_max_per_eps``.  Tolerance is
    :func:`check_tolerance`.
    """
    tol = check_tolerance(grid)
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
