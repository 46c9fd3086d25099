"""Path-sampling cross-checks for the lattice solver.

The state follows an Euler scheme: drift and diffusion from the
coefficient field, plus jumps.  The model alone fixes the sampling plan
(``_build_scheme``).  A density bounded at 0 (``LevyModel.bounded_density``)
samples every jump.  The others sample the jumps above the split radius
:data:`DEFAULT_SPLIT` and replace the ones below it by a Brownian term
of their variance (Asmussen & Rosinski 2001).  The sampled jumps arrive
as a compound Poisson whose sizes are drawn by inverse CDF on a
tabulated density (family-agnostic, no rejection tuning).  The
truncation-at-one compensation of the integro-differential operator is
carried as an extra drift, so the simulated process and the lattice
operator describe the same dynamics.  An arrival rate above
:data:`INTENSITY_CAP` is a model the sampler rejects.

A batch holds two rows of ``n_paths`` states, the current one and the
next, and each Euler step writes the next row in place; no row outlives
the step after it.  A step draws one normal per path, then the jumps of
all paths together: one pooled Poisson count, a uniform ``int32`` owner
per jump, and one uniform level per jump that picks both the side and
the size.  The number of jump draws thus follows the number of jumps,
not ``n_paths * n_steps``.  The owners come in one call; the levels are
drawn, sized and added to their paths in blocks of ``_JUMP_BLOCK``
jumps, so besides the two rows the jump work holds one block and 4
bytes per jump of the step.
Sizes come from a table of equal-mass level buckets over the tabulated
cumulative mass.  Each bucket names the one panel that holds all its
levels strictly inside, so a size is one O(1) lookup and ``np.interp``'s
own formula on that panel, bit for bit; the few buckets that span
panels send their levels to ``np.interp`` itself.

With constant coefficients the increment over a horizon has the law of
one such step over all of it: the normal, the drift and the pooled
Poisson count all scale with ``dt``, and a sum of independent normals
(or Poisson counts) is again one.  A batch of ``n_steps = 1`` thus draws
the terminal state exactly in law (Cont & Tankov 2004, secs. 6.2-6.3).

Estimates are watchers of :func:`simulate`: it hands each of them
every row as the row is finished, and each values its paths from the
rows alone.  ``european_estimate`` averages the discounted terminal
reward, and needs only the terminal level, so under constant
coefficients a 1-step batch serves it; ``stopping_lower_bound`` values a
given stopping rule on every path, deciding on every row but the last.
A rule that reads no future state gives a genuine lower bound for the
optimal stopping value (up to sampling error), and such a rule needs
only the row in hand; the harness stops on the lattice's own contact
set.  Both discount step by step along the paths, with the rate at the
start of each step.  Several estimates can watch one batch.

A path starts with ``T`` to expiry, so at path time ``tau`` it reads the
coefficient fields at ``T - tau``, the time to expiry at which the
lattice march reads them (:class:`~jumpstop.grids.CoefficientField`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import levy
from .errors import NumericalError, ParameterError
from .grids import CoefficientField
from .levy import LevyModel

DEFAULT_SPLIT = 0.01
#: largest compound-Poisson arrival rate above the split radius
INTENSITY_CAP = 1e6
_TABLE_PANELS = 4096
_BUCKETS = 1 << 17
_BUILD_BLOCK = 1 << 13
#: jumps that mc.simulate draws, sizes and adds to their paths at a time
_JUMP_BLOCK = 1 << 14
_TAIL_TOL = 1e-10


class MCEstimate(NamedTuple):
    """Point estimate with its standard error."""

    price: float
    stderr: float


# ---------------------------------------------------------------------------
# jump sampling scheme


@dataclass(frozen=True)
class _JumpTable:
    """Signed jump sizes as a function of one level ``w`` in ``[0, rate)``.

    ``w < mass_plus`` is a positive jump at level ``w`` of the positive
    side's cumulative mass ``cdf_plus``; the rest are negative jumps at
    level ``w - mass_plus`` of ``cdf_minus``.  With ``w`` uniform, one
    draw thus picks both the side and the inverse-CDF level, each with
    its law.

    The panels of both sides, positive first, carry the level ``shift``
    of their side (0, or ``mass_plus`` on the negative side), their left
    ``cdf`` node ``lo``, and the slope and left magnitude with the side's
    sign folded in; one more panel after them has a NaN slope.  Level
    bucket ``j`` holds the levels with ``int(w * scale) == j`` (the last
    bucket also every level above), and ``panel[j]`` names the panel
    that holds all of them strictly inside, or else the NaN panel: the
    bucket spans two panels or both sides, lies on a panel of infinite
    slope, or is the last.  The index is the smallest unsigned type that
    holds it, so the bucket table is 256 KiB for two sides of 4,096
    panels.
    """

    mass_plus: float
    cdf_plus: np.ndarray
    mag_plus: np.ndarray
    cdf_minus: np.ndarray
    mag_minus: np.ndarray
    panel: np.ndarray
    shift: np.ndarray
    lo: np.ndarray
    slope: np.ndarray
    base: np.ndarray
    scale: float

    @classmethod
    def build(cls, plus: tuple, minus: tuple) -> "_JumpTable":
        (mass_p, cdf_p, mag_p), (mass_m, cdf_m, mag_m) = plus, minus
        n_p = cdf_p.size - 1
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = np.concatenate([np.diff(mag_p) / np.diff(cdf_p),
                                    -(np.diff(mag_m) / np.diff(cdf_m)),
                                    [np.nan]])
        shift = np.concatenate([np.zeros(n_p), np.full(cdf_m.size - 1,
                                                       mass_p), [0.0]])
        lo = np.concatenate([cdf_p[:-1], cdf_m[:-1], [0.0]])
        hi = np.concatenate([cdf_p[1:], cdf_m[1:], [0.0]])
        base = np.concatenate([mag_p[:-1], -mag_m[:-1], [0.0]])
        scale = _BUCKETS / (mass_p + mass_m)
        nan_panel = slope.size - 1
        panel = np.empty(_BUCKETS, dtype=np.min_scalar_type(nan_panel))
        # in blocks of buckets: one pass over the whole table held about
        # 5 MB of temporaries, which could stay in the heap and raise
        # the run's peak memory
        for j0 in range(0, _BUCKETS, _BUILD_BLOCK):
            # w * scale and the edge j / scale each round by half an ulp
            # at most, so two ulps past each edge hold every level of the
            # bucket: v0 <= w <= v1
            edge = np.arange(j0, j0 + _BUILD_BLOCK + 1) / scale
            v0 = np.nextafter(np.nextafter(edge[:-1], -np.inf), -np.inf)
            v1 = np.nextafter(np.nextafter(edge[1:], np.inf), np.inf)
            if j0 + _BUILD_BLOCK == _BUCKETS:
                v1[-1] = np.inf
            # buckets from the s-th on start at mass_plus or above, so on
            # the negative side; one before them that reaches mass_plus
            # is inside no positive panel, as the last one ends there
            s = int(np.searchsorted(v0, mass_p))
            v0[s:] -= mass_p
            v1[s:] -= mass_p
            k = np.concatenate([
                np.searchsorted(cdf_p, v0[:s], side="right") - 1,
                np.searchsorted(cdf_m, v0[s:], side="right") + (n_p - 1)])
            np.maximum(k, 0, out=k)
            # levels map to panel levels monotonically, so the two ends
            # decide, and np.interp's own formula holds strictly inside a
            # panel; a level before the first node or past the last gives
            # panel 0 or the NaN panel, and fails the test there
            inside = (lo[k] < v0) & (v1 < hi[k]) & np.isfinite(slope[k])
            panel[j0:j0 + _BUILD_BLOCK] = np.where(inside, k, nan_panel)
        return cls(mass_p, cdf_p, mag_p, cdf_m, mag_m, panel, shift, lo,
                   slope, base, scale)

    def sizes(self, w: np.ndarray) -> np.ndarray:
        """Signed sizes at levels ``w >= 0``: bit for bit
        ``np.interp(w, cdf_plus, mag_plus)`` where ``w < mass_plus`` and
        ``-np.interp(w - mass_plus, cdf_minus, mag_minus)`` elsewhere.

        The value is ``np.interp``'s own formula on the bucket's panel
        (negating is exact, so the folded sign changes no bit); levels
        whose bucket names the NaN panel go to ``np.interp`` on their
        own side.
        """
        k = (w * self.scale).astype(np.intp)
        np.minimum(k, _BUCKETS - 1, out=k)
        k[...] = self.panel[k]  # bucket -> panel, in place
        out = w - self.shift.take(k)
        out -= self.lo.take(k)
        out *= self.slope.take(k)
        out += self.base.take(k)
        miss = np.flatnonzero(np.isnan(out))
        if miss.size:
            wm = w[miss]
            pos = wm < self.mass_plus
            out[miss[pos]] = np.interp(wm[pos], self.cdf_plus,
                                       self.mag_plus)
            out[miss[~pos]] = -np.interp(wm[~pos] - self.mass_plus,
                                         self.cdf_minus, self.mag_minus)
        return out


@dataclass(frozen=True)
class _JumpScheme:
    """Frozen sampling plan for one model: rates and inverse-CDF tables."""

    small_var: float   # variance rate of the substituted Brownian term
    comp_drift: float  # drift carried for truncation-at-one compensation
    rate: float        # compound-Poisson arrival rate (mass of the tables)
    table: _JumpTable | None


_TRIVIAL_SCHEME = _JumpScheme(0.0, 0.0, 0.0, None)


def _side_table(model: LevyModel, lo: float, hi: float,
                sign: float) -> tuple[float, np.ndarray, np.ndarray]:
    """Cumulative mass of the density over one side, on a graded grid."""
    if lo > 0.0:
        t = np.geomspace(lo, hi, _TABLE_PANELS + 1)
    else:
        t = np.linspace(0.0, hi, _TABLE_PANELS + 1)
    # a density sampled from 0 is bounded there, but the density helper
    # rejects y = 0 outright; nudge that single node
    t_eval = np.where(t > 0.0, t, hi * 1e-12)
    dens = np.asarray(levy.density(model, sign * t_eval), dtype=float)
    # the trapezoid sums of scipy's cumulative_trapezoid, term for term,
    # without importing scipy.integrate
    mass = np.concatenate(
        ([0.0], np.cumsum(np.diff(t) * (dens[1:] + dens[:-1]) / 2.0)))
    return float(mass[-1]), mass, t


def _build_scheme(model: LevyModel) -> _JumpScheme:
    """The model's sampling plan.  A density bounded at 0 samples every
    jump (split 0); the others sample the jumps above
    :data:`DEFAULT_SPLIT` and replace the ones below it by a Brownian
    term of their variance.  A drift compensates the jumps from the split
    to 1, as the lattice operator does."""
    if model.is_trivial:
        return _TRIVIAL_SCHEME
    split = 0.0 if model.bounded_density else DEFAULT_SPLIT
    hi = levy.truncation_radius(model, _TAIL_TOL)
    plus = _side_table(model, split, hi, +1.0)
    minus = _side_table(model, split, hi, -1.0)
    rate = plus[0] + minus[0]
    if rate > INTENSITY_CAP:
        raise ParameterError(
            f"jump arrival rate {rate:.4g} above the split radius "
            f"{split:.4g} exceeds the cap {INTENSITY_CAP:.4g}")
    # a model with no jump mass above the split (zero intensity)
    # simulates as a diffusion
    table = _JumpTable.build(plus, minus) if rate > 0.0 else None
    return _JumpScheme(levy.jump_moment(model, 2, 0.0, split),
                       levy.jump_moment(model, 1, split, 1.0), rate, table)


# ---------------------------------------------------------------------------
# simulation


@dataclass(frozen=True)
class PathBatch:
    """What a batch leaves once its rows are gone: the time levels, the
    states at the last of them, and the number of sampled (above-split)
    jumps per path."""

    times: np.ndarray
    terminal: np.ndarray
    jump_counts: np.ndarray

    @property
    def n_paths(self) -> int:
        return self.terminal.size

    @property
    def n_steps(self) -> int:
        return self.times.size - 1


def simulate(model: LevyModel, coeffs: CoefficientField, x0: float,
             T: float, n_paths: int, n_steps: int, seed: int,
             watchers: Sequence[Callable] = ()) -> PathBatch:
    """Euler paths of the state started at ``x0`` over horizon ``T``.

    The batch holds two rows of ``n_paths`` states, ``x`` and the next
    one, and each step writes the next row in place.  Each watcher is
    called as ``watcher(x, n, times)`` on every row in turn, ``n = 0 ...
    n_steps``, where row ``n`` holds the states at ``times[n]``; the row
    is overwritten once the call returns, so a watcher copies what it
    keeps.  Each row is checked for non-finite states before the
    watchers see it, the last one too.
    The counter-based generator (Philox) makes the batch
    reproducible bit-for-bit from ``seed``.  Each step draws, in this
    order: one standard normal per path; the pooled jump count ``N ~
    Poisson(rate * dt * n_paths)``; ``N`` owners uniform over the paths;
    and one uniform level in ``[0, rate)`` per jump, which picks both the
    side and the size (:class:`_JumpTable`).  By Poisson splitting this
    is the law of independent ``Poisson(rate * dt)`` counts per path with
    independent sizes, so the number of draws grows with the number of
    jumps, not with ``n_paths * n_steps``.  Sizes read the tabulated
    inverse CDF through a bucket table in O(1) per jump and equal
    ``np.interp`` on it bit for bit.  The owners are drawn as ``int32``
    in one call, the same Philox stream and generator state as ``int64``
    owners for ``n_paths <= 2**31``.  The levels are drawn
    ``_JUMP_BLOCK`` at a time (the same stream as one call), sized and
    added to their paths with ``np.add.at`` in draw order: beyond the two
    rows and the counts, the step's jumps hold 4 bytes each and the rest
    is one block.  With constant coefficients the normal's scale and
    shift are two floats computed once; otherwise step ``n`` reads the
    fields at the time to expiry ``T - times[n]``.

    Diffusion uses ``sqrt(2 a)`` so the paths match the operator
    convention ``a u'' + b u'``; the variance of the jumps below the
    model's split radius is folded into the same normal draw (the sum of
    independent centered normals is normal).
    """
    if n_paths < 1 or n_steps < 1:
        raise ParameterError("need n_paths >= 1 and n_steps >= 1")
    if not T > 0.0:
        raise ParameterError("horizon T must be positive")
    scheme = _build_scheme(model)
    rng = np.random.Generator(np.random.Philox(seed))
    dt = T / n_steps
    times = np.linspace(0.0, T, n_steps + 1)
    x = np.full(n_paths, float(x0))
    nxt = np.empty(n_paths)
    jump_counts = np.zeros(n_paths, dtype=np.int64)
    sq_dt = math.sqrt(dt)

    def normal_part(x, t):
        # scale and shift of the normal draw z: dx = vol z + drift
        a = np.asarray(coeffs.a(x, t), dtype=float)
        b = np.asarray(coeffs.b(x, t), dtype=float)
        return (np.sqrt(2.0 * a + scheme.small_var) * sq_dt,
                (b - scheme.comp_drift) * dt)
    def show(x, n):
        # a watcher sees finite states only: a rule reading a NaN state
        # would fail, or stop it, before the batch could be rejected
        if not np.isfinite(x).all():
            raise NumericalError(
                "mc.simulate: the paths have non-finite states")
        for watch in watchers:
            watch(x, n, times)
    if coeffs.constant:
        # one value through the same IEEE operations is every element of
        # the per-step arrays
        vol, drift = (float(v.flat[0]) for v in normal_part(x[:1], T))
    for n in range(n_steps):
        show(x, n)
        if not coeffs.constant:
            vol, drift = normal_part(x, T - times[n])
        # the next row holds dx, then x + dx
        dx = rng.standard_normal(n_paths, out=nxt)
        dx *= vol
        dx += drift
        if scheme.rate > 0.0:
            total = int(rng.poisson(scheme.rate * dt * n_paths))
            owner = rng.integers(n_paths, size=total, dtype=np.int32)
            for j in range(0, total, _JUMP_BLOCK):
                m = min(_JUMP_BLOCK, total - j)
                w = rng.random(m)
                w *= scheme.rate
                # np.add.at converts other index types on every call
                o = owner[j:j + m].astype(np.intp)
                np.add.at(dx, o, scheme.table.sizes(w))
                np.add.at(jump_counts, o, 1)
            del owner  # before the next step draws its own
        dx += x
        x, nxt = dx, x
    del nxt
    show(x, n_steps)
    return PathBatch(times, x, jump_counts)


# ---------------------------------------------------------------------------
# estimators: watchers of simulate that value each path row by row


def _step_discount(r, x: np.ndarray, times: np.ndarray, n: int):
    """``r(x, T - t_n) * (t_{n+1} - t_n)`` for the states ``x`` at step
    ``n``, with ``T = times[-1]``: the left-endpoint rule along the path,
    at the time to expiry, consistent with the Euler stepping of the
    state itself."""
    dt = times[n + 1] - times[n]
    if callable(r):
        return np.asarray(r(x, times[-1] - times[n]), dtype=float) * dt
    return float(r) * dt


class _TerminalValue:
    """Watcher for :func:`european_estimate`: the running discount of
    every path, then the estimate on the last row."""

    def __init__(self, g: Callable, r):
        self.g, self.r = g, r

    def __call__(self, x: np.ndarray, n: int, times: np.ndarray) -> None:
        if n == 0:
            # a float while the rate is one: it discounts every path alike
            self.total = 0.0
        if n < times.size - 1:
            self.total = self.total + _step_discount(self.r, x, times, n)
            return
        vals = np.exp(-np.full(x.size, self.total)) * \
            np.asarray(self.g(x), dtype=float)
        self.result, self.total = _estimate(vals), None


class _StoppedValue:
    """Watcher for :func:`stopping_lower_bound`.  ``live`` indexes the
    paths that have not stopped, and the running discount ``cum`` is kept
    for those paths only, in the same order; each row is read on them
    only."""

    def __init__(self, g: Callable, r, stop: Callable):
        self.g, self.r, self.stop = g, r, stop

    def __call__(self, x: np.ndarray, n: int, times: np.ndarray) -> None:
        if n == 0:
            self.vals = np.zeros(x.size)
            self.live = np.arange(x.size)
            self.cum = np.zeros(x.size)
        vals, live, cum = self.vals, self.live, self.cum
        x = x[live]
        if n == times.size - 1:
            vals[live] = np.exp(-cum) * np.asarray(self.g(x), dtype=float)
            self.result = _estimate(vals)
            self.vals = self.live = self.cum = None
            return
        hit = np.flatnonzero(self.stop(x, times[-1] - times[n]))
        if hit.size:
            vals[live[hit]] = np.exp(-cum[hit]) * \
                np.asarray(self.g(x[hit]), dtype=float)
            keep = np.ones(live.size, dtype=bool)
            keep[hit] = False
            live, cum, x = live[keep], cum[keep], x[keep]
        cum += _step_discount(self.r, x, times, n)
        self.live, self.cum = live, cum


def european_estimate(g: Callable, r) -> _TerminalValue:
    """Discounted terminal-reward mean with its standard error, as a
    watcher to pass to :func:`simulate`; its ``result`` is the
    :class:`MCEstimate` once the batch is drawn.

    Only the last level and the discount along the path enter.  Under
    constant coefficients a 1-step batch gives the exact terminal law and
    the discount ``exp(-r T)``; otherwise the batch's Euler steps carry
    both.
    """
    return _TerminalValue(g, r)


def stopping_lower_bound(g: Callable, r, stop: Callable) -> _StoppedValue:
    """Value of the stopping rule ``stop`` on every path of a batch: a
    lower bound on the optimal stopping value up to sampling error, as a
    watcher to pass to :func:`simulate`; its ``result`` is the
    :class:`MCEstimate` once the batch is drawn.

    ``stop(x, s)`` is the boolean mask of the states ``x`` that stop at
    time to expiry ``s``, as :func:`~jumpstop.diagnostics.stopping_rule`
    gives it.  A path stops at the first step ``n = 0 ... n_steps - 1``
    where its mask is set, and takes ``g`` at expiry otherwise.  Any such
    rule reads no future state, so its value is a lower bound whatever
    its quality (Andersen & Broadie 2004).  The rule, the reward and the
    discount are evaluated only on the paths that have not stopped.
    """
    return _StoppedValue(g, r, stop)


def _estimate(vals: np.ndarray) -> MCEstimate:
    """Mean of the path values with its standard error.  The mean is held
    to the values' range, where it lies exactly: the summation's rounding
    can carry the mean of equal values (every path stopping at the start)
    a few units in the last place past them."""
    price = min(max(float(vals.mean()), float(vals.min())),
                float(vals.max()))
    stderr = (float(vals.std(ddof=1)) / math.sqrt(vals.size)
              if vals.size > 1 else 0.0)
    return MCEstimate(price, stderr)
