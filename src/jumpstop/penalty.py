"""Penalty family driving the obstacle constraint in the Cauchy problem.

The penalty at separation ``eps`` is the smooth mollification of the
piecewise-linear template ``min(-(2*p0/eps)*y + p0, 0)``: it vanishes for
``y >= eps/2 + width``, passes exactly through ``(0, p0)``, and falls off
linearly with slope ``-2*p0/eps`` for negative ``y``.  The anchor depth
``p0`` is chosen from the problem data so that subtracting the penalty
can dominate every term of the generator applied to the obstacle.

Mollification uses the bump kernel of :mod:`jumpstop.payoff` at width
``w = eps/8``; the template is linear within ``eps/2`` of 0 and
identically zero beyond ``eps/2``, so a width below ``eps/2`` keeps both
the anchor value and the vanishing region exact.  Inside the band
``|y - eps/2| < w`` the mollified template is ``slope_max*w*F(z)`` with
``z = (y - eps/2)/w``, ``F(z) = integral min(z - u, 0) k(u) du`` and
``F'(z) = 1 - K(z)``, fixed functions of the kernel ``k``.  Both are
tabulated once, on first use, by the payoff module's Gauss-Legendre
rule on 4,097 nodes of ``[-1, 1]``, and read back by cubic Hermite
interpolation (``F'' = -k`` is exact); the value matches the direct
quadrature to about ``1e-15 * |p0|``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from . import levy
from .errors import ParameterError
from .grids import CoefficientField, SpaceTimeGrid
from .levy import LevyModel
from .payoff import PayoffSpec, bump_kernel, kernel_averages

__all__ = ["PenaltySpec", "anchor", "build"]

#: nodes of the ramp table on ``z`` in [-1, 1]
_RAMP_NODES = 4097


@cache
def _ramp_table() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``F``, ``F' = 1 - K`` and ``F'' = -k`` on the table nodes."""
    z = np.linspace(-1.0, 1.0, _RAMP_NODES)
    f, fp = kernel_averages((lambda t: np.minimum(t, 0.0),
                             lambda t: np.where(t < 0.0, 1.0, 0.0)),
                            z, 1.0, (0.0,))
    table = (f, fp, -bump_kernel(z))
    for col in table:  # shared by every caller
        col.flags.writeable = False
    return table


def _hermite(z: np.ndarray, vals: np.ndarray, ders: np.ndarray) -> np.ndarray:
    """Cubic Hermite interpolant of a ramp-table column at ``z`` in (-1, 1)."""
    dz = 2.0 / (_RAMP_NODES - 1)
    t = (z + 1.0) / dz
    i = np.minimum(t.astype(int), _RAMP_NODES - 2)
    s = t - i
    r = 1.0 - s
    return (s * s * (3.0 - 2.0 * s) * vals[i + 1]
            + r * r * (1.0 + 2.0 * s) * vals[i]
            + dz * s * r * (r * ders[i] - s * ders[i + 1]))


@dataclass(frozen=True)
class PenaltySpec:
    """Smooth penalty evaluator; immutable, vectorized, pure.

    ``value`` is nonpositive, nondecreasing, concave, equals ``p0`` at 0,
    and vanishes for ``y >= eps/2 + kernel_width``.
    """

    eps: float | np.ndarray
    p0: float
    kernel_width: float | np.ndarray

    @property
    def slope_max(self) -> float | np.ndarray:
        """Largest slope of the template (and hence of the evaluator)."""
        return -2.0 * self.p0 / self.eps

    def _template(self, y: np.ndarray) -> np.ndarray:
        return np.minimum(self.slope_max * y + self.p0, 0.0)

    def value(self, y) -> np.ndarray | float:
        """Penalty at separation ``y = v - g`` (scalar or array)."""
        arr = np.asarray(y, dtype=float)
        out = self._eval(np.atleast_1d(arr))
        return float(out[0]) if arr.ndim == 0 else out

    def slope(self, y) -> np.ndarray | float:
        """Derivative of the penalty (scalar or array)."""
        arr = np.asarray(y, dtype=float)
        out = self._eval_slope(np.atleast_1d(arr))
        return float(out[0]) if arr.ndim == 0 else out

    def _band(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Mask of the mollified band and its points in table units."""
        d = y - 0.5 * self.eps
        band = np.abs(d) < self.kernel_width
        return band, d[band] / self._on(self.kernel_width, band)

    @staticmethod
    def _on(c, band: np.ndarray):
        """A scalar, or a per-column constant read at the band's points."""
        return np.broadcast_to(c, band.shape)[band] if np.ndim(c) else c

    def _eval(self, y: np.ndarray) -> np.ndarray:
        if self.p0 == 0.0:
            return np.zeros(np.broadcast_shapes(y.shape, np.shape(self.eps)))
        out = self._template(y)
        band, z = self._band(y)
        if z.size:
            f, fp, _ = _ramp_table()
            ramp = self._on(self.slope_max * self.kernel_width, band) * \
                _hermite(z, f, fp)
            # interpolation may round just above zero near the band edge
            out[band] = np.minimum(ramp, 0.0)
        return out

    def _eval_slope(self, y: np.ndarray) -> np.ndarray:
        if self.p0 == 0.0:
            return np.zeros(np.broadcast_shapes(y.shape, np.shape(self.eps)))
        out = np.where(y < 0.5 * self.eps, self.slope_max, 0.0)
        band, z = self._band(y)
        if z.size:
            _, fp, fpp = _ramp_table()
            out[band] = self._on(self.slope_max, band) * _hermite(z, fp, fpp)
        return out


def anchor(coeffs: CoefficientField, payoff: PayoffSpec, model: LevyModel,
           grid: SpaceTimeGrid) -> float:
    """Penalty depth from the problem data (a nonpositive number).

    Returns ``-(a0*J + b0*L + r0*K + J*small_var(1) + K*big_mass)`` where
    ``a0, b0, r0`` are the maxima of the diffusion, |drift| and discount
    over the grid's nodes and time levels (:meth:`CoefficientField.maxima`),
    ``K, L, J`` the payoff's bound, Lipschitz and semiconvexity constants,
    and the last two terms the second moment of jumps up to size 1 and
    the mass beyond 1.
    """
    a0, b0, r0 = coeffs.maxima(grid)
    if model.is_trivial:
        small_var = big_mass = 0.0
    else:
        t = levy.tails(model, 1.0)
        small_var, big_mass = t.small_var, t.big_mass
    kk, ll, jj = payoff.bound, payoff.lipschitz, payoff.semiconvexity
    return -(a0 * jj + b0 * ll + r0 * kk + jj * small_var + kk * big_mass)


def build(eps, p0: float) -> PenaltySpec:
    """Penalty evaluator at separation scale ``eps`` with depth ``p0``.

    An array ``eps`` gives one width per column: the evaluator then
    broadcasts it along the last axis of ``y``, and each column gets the
    bits a scalar ``eps`` would give it."""
    e = np.asarray(eps, dtype=float)
    if not np.all((0.0 < e) & (e < 1.0)):
        raise ParameterError("penalty separation must lie in (0, 1)")
    if p0 > 0.0:
        raise ParameterError("penalty depth must be <= 0")
    if e.ndim == 0:
        e = float(e)
    return PenaltySpec(eps=e, p0=float(p0), kernel_width=e / 8.0)
