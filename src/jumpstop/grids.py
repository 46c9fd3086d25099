"""Space-time grids, grid functions with far-field extension, coefficients.

The spatial grid covers an interior window ``[x_lo, x_hi]`` plus symmetric
padding so nonlocal operators can shift reads by the jump truncation
radius; reads beyond even the padded range are supplied by an extension
rule (``clamp_payoff`` reads are evaluated once, see :class:`PayoffGhosts`).
Time is the time to expiry, from 0 (initial data) to ``t_final``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, ParameterError

__all__ = [
    "SpaceTimeGrid",
    "GridFunction",
    "PayoffGhosts",
    "CoefficientField",
    "EXTENSION_RULES",
]

EXTENSION_RULES = ("clamp_payoff", "zero")


@dataclass(frozen=True)
class SpaceTimeGrid:
    """Uniform padded space grid crossed with a uniform time grid.

    ``nx`` counts spatial intervals across the padded range, so there are
    ``nx + 1`` nodes with spacing ``h = (x_hi - x_lo + 2*pad) / nx``;
    likewise ``nt`` time intervals of length ``dt = t_final / nt``.

    Parameters
    ----------
    x_lo, x_hi : float
        Interior window of interest (reported values live here).
    pad : float
        Padding width on each side, >= 1.
    nx : int
        Number of spatial intervals (>= 8).
    t_final : float
        Horizon, > 0.
    nt : int
        Number of time steps (>= 1).
    """

    x_lo: float
    x_hi: float
    pad: float
    nx: int
    t_final: float
    nt: int

    def __post_init__(self):
        if self.x_hi <= self.x_lo:
            raise ParameterError("grid: need x_hi > x_lo")
        if self.pad < 1.0:
            raise ParameterError("grid: padding must be >= 1")
        if self.nx < 8:
            raise ParameterError("grid: need at least 8 spatial intervals")
        if self.t_final <= 0.0:
            raise ParameterError("grid: horizon must be > 0")
        if self.nt < 1:
            raise ParameterError("grid: need at least 1 time step")

    @property
    def h(self) -> float:
        return (self.x_hi - self.x_lo + 2.0 * self.pad) / self.nx

    @property
    def dt(self) -> float:
        return self.t_final / self.nt

    @property
    def nodes(self) -> np.ndarray:
        return self.x_lo - self.pad + self.h * np.arange(self.nx + 1)

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.nt + 1)

    @property
    def expiry_levels(self) -> int:
        """Levels next to expiry skipped by the residual and the smooth-fit
        gap, where the payoff kink's square-root-in-time transient defeats
        every fixed-order stencil: 2% of the horizon, at least one."""
        return max(1, int(np.ceil(0.02 * self.nt)))

    @property
    def interior(self) -> np.ndarray:
        """Boolean mask of nodes inside [x_lo, x_hi]."""
        x = self.nodes
        return (x >= self.x_lo - 1e-12) & (x <= self.x_hi + 1e-12)

    def refined(self, k: int = 1) -> "SpaceTimeGrid":
        """Grid with space and time steps halved ``k`` times."""
        f = 2 ** k
        return SpaceTimeGrid(self.x_lo, self.x_hi, self.pad,
                             self.nx * f, self.t_final, self.nt * f)


class PayoffGhosts:
    """The far field: the payoff on the ghost nodes past each end of the
    padded grid (the same for every slice, so evaluated once, at the
    widest reach asked for) times a per-side :meth:`discount` at time to
    expiry ``s``: ``(1, 1)``, or ``decay(s)`` when given (the european
    march's ``exp(-integral_0^s r)`` at each edge).

    ``terms`` caches the jump operator's reach into the undiscounted
    ghosts per operator and part (:func:`jumpstop.generator.ghost_terms`).
    """

    def __init__(self, grid: SpaceTimeGrid, payoff: Callable,
                 decay: Callable | None = None):
        self.grid, self.payoff, self.decay = grid, payoff, decay
        self.left = self.right = np.empty(0)
        self.terms: dict = {}

    def discount(self, s):
        """Factor of the left and of the right ghosts at time to expiry
        ``s`` (a float, or an array of levels)."""
        return (1.0, 1.0) if self.decay is None else self.decay(s)

    def take(self, n_left: int, n_right: int) -> tuple[np.ndarray, np.ndarray]:
        """The ``n_left`` ghosts nearest the left end and ``n_right`` right."""
        n = max(n_left, n_right)
        if n > self.right.size:
            x, h, k = self.grid.nodes, self.grid.h, np.arange(1, n + 1)
            vals = np.asarray(self.payoff(np.concatenate(
                [x[0] - h * k[::-1], x[-1] + h * k])), dtype=float)
            self.left, self.right = vals[:n], vals[n:]
        return self.left[self.left.size - n_left:], self.right[:n_right]


@dataclass
class GridFunction:
    """Values on the padded spatial nodes plus a far-field extension rule.

    ``values`` has the space axis first: shape ``(nx+1,)`` for a single
    slice or ``(nx+1, nt+1)`` for a full surface.  Reads beyond the padded
    range use ``extension``:

    * ``clamp_payoff`` -- the far field ``ghosts``: ``payoff`` at the
      outside point, times its discount at slice ``n``'s time to expiry
      ``grid.times[n]``
    * ``zero``         -- zero outside
    """

    grid: SpaceTimeGrid
    values: np.ndarray
    extension: str = "clamp_payoff"
    payoff: Callable[[np.ndarray], np.ndarray] | None = None
    ghosts: PayoffGhosts | None = field(default=None, repr=False,
                                        compare=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape[0] != self.grid.nx + 1:
            raise ParameterError(
                f"grid function: leading axis {self.values.shape[0]} != "
                f"node count {self.grid.nx + 1}")
        if self.extension not in EXTENSION_RULES:
            raise ParameterError(f"unknown extension rule {self.extension!r}")
        if self.extension == "clamp_payoff":
            if self.payoff is None:
                raise ParameterError("clamp_payoff extension needs a payoff")
            if self.ghosts is None:
                self.ghosts = PayoffGhosts(self.grid, self.payoff)

    def extended(self, n_left: int, n_right: int, n: int = 0) -> np.ndarray:
        """Values on ``n_left`` extra nodes left + grid + ``n_right`` right."""
        vals = self.values if self.values.ndim == 1 else self.values[:, n]
        discount = None if self.ghosts is None else \
            self.ghosts.discount(n * self.grid.dt)
        return extend_slice(self.grid, vals, self.extension, self.ghosts,
                            n_left, n_right, discount)


def extend_slice(grid: SpaceTimeGrid, vals: np.ndarray, extension: str,
                 ghosts: PayoffGhosts | None, n_left: int, n_right: int,
                 discount: tuple[float, float] | None = None) -> np.ndarray:
    """Materialize a slice (or a surface, space axis first) with its
    extension rule applied on both sides; ``clamp_payoff`` ghosts are
    scaled by ``discount`` (left, right): floats, or for a surface one
    factor per level (:meth:`PayoffGhosts.discount`)."""
    if extension == "zero":
        left = np.zeros(n_left)
        right = np.zeros(n_right)
    elif extension == "clamp_payoff":
        left, right = ghosts.take(n_left, n_right)
        if discount is not None:
            left = np.multiply.outer(left, discount[0])
            right = np.multiply.outer(right, discount[1])
    else:
        raise ParameterError(f"unknown extension rule {extension!r}")
    if vals.ndim == 2 and left.ndim == 1:
        left = np.repeat(left[:, None], vals.shape[1], axis=1)
        right = np.repeat(right[:, None], vals.shape[1], axis=1)
    return np.concatenate([left, vals, right])


@dataclass(frozen=True)
class CoefficientField:
    """Diffusion ``a``, drift ``b`` and discount ``r`` fields on space-time.

    Fields are callables ``(x_array, t) -> array``; use
    :meth:`CoefficientField.constants` for the constant case.  ``t`` is
    the time to expiry ``s``: the march, the residual and the edge
    discount read the fields at ``s``, and a Monte Carlo path at time
    ``tau`` since its start over horizon ``T`` reads them at ``T - tau``.
    ``a`` must stay above the ellipticity floor and ``r`` nonnegative
    (checked on the grid by :func:`validate_coefficients`).

    ``constant`` is set by :meth:`constants` alone: ``a``, ``b`` and ``r``
    then depend on neither ``x`` nor ``t``, so the state's increment over
    any horizon has the law of one Euler step over it.
    """

    a: Callable[[np.ndarray, float], np.ndarray]
    b: Callable[[np.ndarray, float], np.ndarray]
    r: Callable[[np.ndarray, float], np.ndarray]
    lambda_floor: float = 1e-8
    time_dependent: bool = False
    constant: bool = field(default=False, init=False)

    def __post_init__(self):
        if self.lambda_floor <= 0.0:
            raise ParameterError("ellipticity floor must be > 0")

    @staticmethod
    def constants(a: float, b: float, r: float) -> "CoefficientField":
        if a <= 0.0:
            raise ParameterError("diffusion coefficient must be > 0")
        if r < 0.0:
            raise ParameterError("discount rate must be >= 0")
        av, bv, rv = float(a), float(b), float(r)
        out = CoefficientField(
            a=lambda x, t: np.full_like(np.asarray(x, dtype=float), av),
            b=lambda x, t: np.full_like(np.asarray(x, dtype=float), bv),
            r=lambda x, t: np.full_like(np.asarray(x, dtype=float), rv),
            lambda_floor=0.5 * a,
            time_dependent=False,
        )
        object.__setattr__(out, "constant", True)
        return out

    def maxima(self, grid: SpaceTimeGrid) -> tuple[float, float, float]:
        """(max a, max |b|, max r) over the padded grid and time levels."""
        x = grid.nodes
        ts = grid.times if self.time_dependent else grid.times[:1]
        amax = bmax = rmax = 0.0
        for t in ts:
            amax = max(amax, float(np.max(self.a(x, float(t)))))
            bmax = max(bmax, float(np.max(np.abs(self.b(x, float(t))))))
            rmax = max(rmax, float(np.max(self.r(x, float(t)))))
        return amax, bmax, rmax


def validate_coefficients(coeffs: CoefficientField, grid: SpaceTimeGrid) -> None:
    """Check ellipticity and discount sign on every node/time level."""
    x = grid.nodes
    ts = grid.times if coeffs.time_dependent else grid.times[:1]
    for t in ts:
        a = np.asarray(coeffs.a(x, float(t)), dtype=float)
        r = np.asarray(coeffs.r(x, float(t)), dtype=float)
        if np.any(a < coeffs.lambda_floor - 1e-15):
            raise ConfigError(
                f"diffusion drops below ellipticity floor {coeffs.lambda_floor} "
                f"at t={float(t):g}")
        if np.any(r < 0.0):
            raise ConfigError(f"negative discount rate at t={float(t):g}")
