"""Reward (payoff) functions and their smooth regularizations.

Admissible rewards ``g`` are bounded (``0 <= g <= K``), Lipschitz with
constant ``L``, and semiconvex: the distributional second derivative is
bounded below by ``-J``.  Each :class:`PayoffSpec` carries these three
constants together with the location of slope kinks, which the smoothing
convolution uses to keep spectral accuracy.

Smoothing uses the standard compactly supported bump kernel
``exp(-1/(1-u^2))`` on ``(-1, 1)``, normalized and rescaled to width
``eps``; one kernel implementation is shared by the payoff and penalty
modules.  The convolution is evaluated by fixed 64-point Gauss-Legendre
rules per smooth piece of the integrand, one (panel, node, point) array
expression per block of points, so memory stays flat in the point count.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ParameterError

__all__ = [
    "PayoffSpec",
    "MollifiedPayoff",
    "put",
    "soft_capped_call",
    "tabulated",
    "from_csv",
    "mollify",
    "bump_kernel",
    "kernel_average",
    "kernel_averages",
]

#: integral of exp(-1/(1-u^2)) over (-1, 1)
BUMP_NORM = 0.4439938161680794

_GL_NODES, _GL_WEIGHTS = (a[:, None] for a in
                          np.polynomial.legendre.leggauss(64))
#: terms per kernel_average block: 256 points of a two-panel rule, small
#: enough (256 kB) that the temporaries do not churn fresh pages
_BLOCK_TERMS = 2 * 64 * 256


def bump_kernel(u) -> np.ndarray:
    """Normalized bump ``exp(-1/(1-u^2)) / Z`` on (-1, 1), zero outside."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    out[inside] = np.exp(-1.0 / (1.0 - ui * ui)) / BUMP_NORM
    return out


@dataclass(frozen=True)
class PayoffSpec:
    """Reward function with its boundedness/regularity constants.

    Attributes
    ----------
    kind : str
        ``put``, ``capped_call`` or ``tabulated``.
    bound : float
        ``K`` with ``0 <= g <= K``.
    lipschitz : float
        ``L`` with ``|g(x) - g(x')| <= L |x - x'|``.
    semiconvexity : float
        ``J`` with distributional second derivative ``>= -J``.
    kinks : tuple of float
        Locations where the slope jumps; the smoothing quadrature splits
        its panels there.
    """

    kind: str
    bound: float
    lipschitz: float
    semiconvexity: float
    kinks: tuple = ()
    params: dict = field(default_factory=dict)
    table: tuple | None = None

    def __call__(self, x):
        return values(self, x)


def values(spec: PayoffSpec, x):
    """Evaluate the reward at ``x`` (scalar or array)."""
    arr = np.asarray(x, dtype=float)
    p = spec.params
    if spec.kind == "put":
        out = np.maximum(p["strike"] - np.exp(arr), 0.0)
    elif spec.kind == "capped_call":
        k, cap = p["strike"], p["cap"]
        out = cap * (-np.expm1(-np.maximum(np.exp(arr) - k, 0.0) / cap))
    elif spec.kind == "tabulated":
        xs, gs = spec.table
        out = np.interp(arr, xs, gs)
    else:
        raise ParameterError(f"unknown payoff kind {spec.kind!r}")
    return float(out) if arr.ndim == 0 else out


def put(strike: float) -> PayoffSpec:
    """Vanilla put reward ``g(x) = max(strike - e^x, 0)`` in log coordinates.

    Constants: bound = Lipschitz = semiconvexity = strike (the smooth branch
    has ``g'' = -e^x >= -strike`` on its support, and the kink is convex).
    """
    if strike <= 0.0:
        raise ParameterError("put: strike must be > 0")
    return PayoffSpec(
        "put", bound=float(strike), lipschitz=float(strike),
        semiconvexity=float(strike), kinks=(math.log(strike),),
        params={"strike": float(strike)},
    )


def soft_capped_call(strike: float, cap: float) -> PayoffSpec:
    """Capped call with an exponential soft cap.

    ``g(x) = cap * (1 - exp(-(e^x - strike)_+ / cap))`` rises like a call
    near the strike and saturates smoothly at ``cap``.  A hard cap would
    place a negative atom in the second derivative and violate
    semiconvexity; the soft cap keeps all three constants finite.
    """
    if strike <= 0.0 or cap <= 0.0:
        raise ParameterError("soft_capped_call: strike and cap must be > 0")
    # dg/dx = s e^{-(s-strike)/cap} on s = e^x >= strike, maximized at
    # s = max(strike, cap)
    if cap >= strike:
        lips = cap * math.exp(strike / cap - 1.0)
    else:
        lips = strike
    # d2g/dx2 = s(1 - s/cap) e^{-(s-strike)/cap}; with u = s/cap the
    # negative part is cap*e^{strike/cap} * u(1-u)e^{-u}, whose minimum over
    # u >= strike/cap is bounded by the global minimum -0.3090047859876757
    u0 = strike / cap
    u_star = max((3.0 + math.sqrt(5.0)) / 2.0, u0)
    psi = u_star * (1.0 - u_star) * math.exp(-u_star)
    semi = max(0.0, -cap * math.exp(u0) * psi)
    return PayoffSpec(
        "capped_call", bound=float(cap), lipschitz=float(lips),
        semiconvexity=float(semi), kinks=(math.log(strike),),
        params={"strike": float(strike), "cap": float(cap)},
    )


def tabulated(xs: Sequence[float], gs: Sequence[float]) -> PayoffSpec:
    """Piecewise-linear reward from a table, constants estimated from it.

    The bound is the table maximum, the Lipschitz constant the largest
    slope magnitude, and the semiconvexity constant the most negative slope
    change smeared over the local spacing (concave kinks are formally
    outside the admissible class; the estimate treats them at table
    resolution).
    """
    xs = np.asarray(xs, dtype=float)
    gs = np.asarray(gs, dtype=float)
    if xs.ndim != 1 or xs.size < 2 or xs.shape != gs.shape:
        raise ParameterError("tabulated: need two equal-length columns, >= 2 rows")
    if np.any(np.diff(xs) <= 0.0):
        raise ParameterError("tabulated: x column must be strictly increasing")
    if np.any(gs < 0.0):
        raise ParameterError("tabulated: reward values must be >= 0")
    slopes = np.diff(gs) / np.diff(xs)
    bound = float(np.max(gs))
    lips = float(np.max(np.abs(slopes))) if slopes.size else 0.0
    if slopes.size >= 2:
        dslope = np.diff(slopes)
        half_span = 0.5 * (xs[2:] - xs[:-2])
        semi = float(max(0.0, -np.min(dslope / half_span)))
        kinks = tuple(xs[1:-1][np.abs(dslope) > 1e-12 * max(1.0, lips)])
    else:
        semi = 0.0
        kinks = ()
    return PayoffSpec(
        "tabulated", bound=bound, lipschitz=lips, semiconvexity=semi,
        kinks=kinks, table=(tuple(xs), tuple(gs)),
    )


def from_csv(path) -> PayoffSpec:
    """Load a tabulated reward from a two-column CSV file (x, g)."""
    xs, gs = [], []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].strip().startswith("#"):
                continue
            try:
                x, g = float(row[0]), float(row[1])
            except (ValueError, IndexError):
                # tolerate a single header line
                if not xs:
                    continue
                raise ParameterError(f"from_csv: bad row {row!r}")
            xs.append(x)
            gs.append(g)
    return tabulated(xs, gs)


# ---------------------------------------------------------------------------
# smoothing
# ---------------------------------------------------------------------------

def kernel_average(f, x: np.ndarray, eps: float, breakpoints: Sequence[float]) -> np.ndarray:
    """Convolve ``f`` with the width-``eps`` bump kernel at points ``x``.

    ``(f * kernel_eps)(x) = integral_{-1}^{1} f(x - eps*u) kernel(u) du``
    evaluated with 64-point Gauss-Legendre per smooth piece: the panel
    bounds are the kernel support edges plus the images of ``breakpoints``
    (clipped into the support, so points outside degrade to empty panels).
    ``f`` must take arrays of any shape; terms add in panel-then-node order,
    so no point's value depends on the block it falls in.
    """
    return kernel_averages((f,), x, eps, breakpoints)[0]


def kernel_averages(fs, x: np.ndarray, eps: float,
                    breakpoints: Sequence[float]) -> list[np.ndarray]:
    """:func:`kernel_average` of each integrand in ``fs``, bit for bit:
    each block's weights ``weight * half-width * kernel(u)`` and
    arguments ``x - eps*u`` are formed once for all of them."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    bps = sorted(breakpoints, reverse=True)  # (x - b)/eps ascending in b desc
    cuts = np.full((len(bps) + 2, x.size), 0.0)
    cuts[0] = -1.0
    cuts[-1] = 1.0
    for j, b in enumerate(bps):
        cuts[j + 1] = np.clip((x - b) / eps, -1.0, 1.0)
    cuts[1:-1] = np.sort(cuts[1:-1], axis=0)
    half = 0.5 * (cuts[1:] - cuts[:-1])[:, None, :]
    mid = 0.5 * (cuts[1:] + cuts[:-1])[:, None, :]
    outs = [np.empty_like(x) for _ in fs]
    step = max(1, _BLOCK_TERMS // (half.shape[0] * _GL_NODES.size))
    for lo in range(0, x.size, step):
        blk = slice(lo, lo + step)
        hb = half[..., blk]
        u = mid[..., blk] + hb * _GL_NODES
        weight = _GL_WEIGHTS * hb * bump_kernel(u)
        arg = x[blk] - eps * u
        for f, out in zip(fs, outs):
            rows = (weight * f(arg)).reshape(-1, arg.shape[-1])
            # numpy sums a leading axis row by row when rows hold >= 2
            # points; for one point, the last running sum keeps that order
            out[blk] = rows.sum(axis=0) if rows.shape[1] > 1 else \
                rows.cumsum()[-1]
    return outs


@dataclass(frozen=True)
class MollifiedPayoff:
    """Smoothed reward ``g_eps = g * kernel_eps``.

    Shares the constants of the base reward (``|g_eps - g| <= L * eps`` and
    the bound/Lipschitz/semiconvexity constants are preserved by averaging
    against a probability kernel).
    """

    base: PayoffSpec
    eps: float

    @property
    def bound(self) -> float:
        return self.base.bound

    @property
    def lipschitz(self) -> float:
        return self.base.lipschitz

    @property
    def semiconvexity(self) -> float:
        return self.base.semiconvexity

    def __call__(self, x):
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        out = kernel_average(lambda t: values(self.base, t), arr, self.eps,
                             self.base.kinks)
        return float(out[0]) if np.ndim(x) == 0 else out


def mollify(spec: PayoffSpec, eps: float) -> MollifiedPayoff:
    """Smooth a reward by convolution with the width-``eps`` bump kernel."""
    if eps <= 0.0:
        raise ParameterError("mollify: width must be > 0")
    return MollifiedPayoff(spec, float(eps))
