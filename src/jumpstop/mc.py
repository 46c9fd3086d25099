"""Path-sampling cross-checks for the lattice solver.

The jumps are additive, so the law of one step's increment is fixed by
the step ``dt``; the nondegenerate diffusion makes it smooth.  With
constant coefficients the increment has the characteristic function
``exp(dt [iu (b + m1) - a u^2 + psi(u)])``, ``psi`` the fully
compensated exponent of the jumps
(:func:`~jumpstop.levy.characteristic_exponent`) and ``m1`` their mean
beyond 1, so a step is one uniform per path mapped through a tabulated
inverse CDF (Chen, Feng & Lin 2012; Feng & Lin 2013).  One inverse FFT
gives the density on a window sized from the step's standard deviation
and the jump measure's ``truncation_radius``; its trapezoid sums give
the CDF (:func:`_step_table`).  The table draws the model's jumps
uncut up to its window, where the measure's tail mass is
``_TAIL_TOL = 1e-10``, while the lattice operator cuts them at
``truncation_radius`` with tail mass 1e-8; that difference is far
below the Monte Carlo's standard error.

The table's error budget: mass beyond the window (the jumps' tail mass
``_TAIL_TOL`` per unit time, then twelve standard deviations more), the
transform's aliasing and cut frequencies (``|phi| < e^-37``), and the
lookup's linear interpolation of the CDF between nodes a
``_CELLS_PER_SD = 64``-th of a standard deviation apart, which adds
about a third of the squared spacing, ``8e-5`` of the step's variance.
On the five families at ``dt`` = 1/64 and 1 the density's mass is
within 4.2e-13 of 1, its mean within 1.7e-10 standard deviations and
its variance within 6.6e-10 relative; the drawn law's variance is at
most 6.7e-5 relative above the step's.

Fields that are not constant (Python API only) split the diffusion at
the floor ``coeffs.lambda_floor``: the table holds the jumps and the
Gaussian of the floor, and a normal draw per path adds the drift and
the diffusion above the floor.  A model without jumps draws one normal
per path and step.

A batch holds two rows of ``n_paths`` states, the current one and the
next, and each step writes the next row in place; no row outlives the
step after it.  The uniforms are drawn into the next row and the
increments written over them.  The lookup reads a table of equal-mass
level buckets over the tabulated cumulative mass.  Each bucket names
the one panel that holds all its levels strictly inside, so an
increment is one O(1) lookup and ``np.interp``'s own formula on that
panel, bit for bit; the few buckets that span panels send their levels
to ``np.interp`` itself.

With constant coefficients the increment over a horizon has the law of
one such step over all of it, so a batch of ``n_steps = 1`` draws the
terminal state exactly in law, up to the table's error (Cont & Tankov
2004, secs. 6.2-6.3).

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

#: the jump measure's tail mass beyond the radius that sizes the window
_TAIL_TOL = 1e-10
#: standard deviations of the step that the table reaches past the radius
_WINDOW_SDS = 12.0
#: table cells per standard deviation of the step, at least
_CELLS_PER_SD = 64
#: ``-log |phi|`` that the Gaussian part reaches at the table's largest
#: frequency; ``phi`` is below ``e^-37 = 8.5e-17`` past it
_DECAY = 37.0
#: most points a step table may have
_MAX_POINTS = 1 << 18
#: largest gap between the tabulated density's mass and 1
_MASS_TOL = 1e-9
#: level buckets that _StepTable.build places at a time
_BUILD_BLOCK = 1 << 13


class MCEstimate(NamedTuple):
    """Point estimate with its standard error."""

    price: float
    stderr: float


# ---------------------------------------------------------------------------
# the step law: density from the characteristic function, inverse CDF


def _step_density(model: LevyModel, dt: float, a: float,
                  drift: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and density of the increment whose characteristic function
    is ``exp(dt [iu drift - a u^2 + psi(u)])`` (``psi``:
    :func:`~jumpstop.levy.characteristic_exponent`), from one inverse
    FFT.

    The window is centred on the mean ``dt drift`` and reaches the
    radius beyond which the jump measure holds mass ``_TAIL_TOL``, plus
    ``_WINDOW_SDS`` standard deviations for the sum of the jumps inside
    it and the Gaussian part (a compound Poisson step of a few jumps
    reaches past the radius of one).  Its spacing is ``1/_CELLS_PER_SD``
    of a standard deviation, and fine enough that the Gaussian part
    alone takes ``|phi|`` below ``e^-_DECAY`` at the largest frequency;
    the point count is the next power of two, at most ``_MAX_POINTS``.
    The frequencies past the one where the Gaussian part alone reaches
    ``e^-_DECAY`` carry ``phi = 0``.
    """
    mean = dt * drift
    sd = math.sqrt(dt * (2.0 * a + levy.jump_moment(model, 2, 0.0,
                                                    math.inf)))
    half = levy.truncation_radius(model, _TAIL_TOL) + _WINDOW_SDS * sd
    dx = min(sd / _CELLS_PER_SD, math.pi * math.sqrt(a * dt / _DECAY))
    n = 1 << math.ceil(math.log2(2.0 * half / dx))
    if n > _MAX_POINTS:
        raise ParameterError(
            f"mc.simulate: a step of dt = {dt:.4g} over the diffusion "
            f"floor {a:.4g} needs {n} table points, above the cap "
            f"{_MAX_POINTS}; raise the floor")
    dx = 2.0 * half / n
    x0 = mean - half
    du = 2.0 * math.pi / (n * dx)
    u = du * np.arange(min(n // 2 + 1,
                           int(math.sqrt(_DECAY / (a * dt)) / du) + 2))
    # phi(u) e^{-iu x0} at u >= 0; the density at x0 + j dx is the
    # inverse transform of its conjugate, scaled by 1 / dx
    expo = dt * (1j * u * drift - a * u * u
                 + levy.characteristic_exponent(model, u)) - 1j * u * x0
    dens = np.fft.irfft(np.exp(expo.conj()), n) / dx
    return x0 + dx * np.arange(n), dens


@dataclass(frozen=True)
class _StepTable:
    """Increments as a function of one uniform level ``w`` in ``[0, 1)``:
    ``np.interp(w, cdf, nodes)`` on the tabulated cumulative mass, which
    runs from 0 to 1.

    Panel ``k`` runs from ``cdf[k]`` and ``nodes[k]`` with the ``slope``
    that ``np.interp`` gives it; the last node is a panel of slope 0.
    Level bucket ``j`` holds the levels with ``int(w * buckets) == j``
    (the last bucket also every level above), and ``panel[j]`` names the
    panel that holds all of them strictly inside, or else the last node:
    the bucket spans two panels, lies on a panel of no mass, or is the
    last.  The bucket count is a power of two, so ``w * buckets`` and
    the bucket edges are exact, and there are at least four per panel:
    with one per panel, 17% of the levels of a 1-step Merton table went
    to ``np.interp``, with four 5%.  The bucket index is ``np.intp``: a
    narrower one costs a conversion on every gather.
    """

    cdf: np.ndarray
    nodes: np.ndarray
    slope: np.ndarray
    panel: np.ndarray

    @classmethod
    def build(cls, cdf: np.ndarray, nodes: np.ndarray) -> "_StepTable":
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = np.diff(nodes) / np.diff(cdf)
        miss = slope.size
        buckets = 4 << (miss - 1).bit_length()
        panel = np.empty(buckets, dtype=np.intp)
        # in blocks of buckets: building ts15's 65,536 buckets at dt =
        # 1/64 in one pass peaked at 2.7 MB, in blocks at 0.9 MB (the
        # 0.5 MB index included)
        for j0 in range(0, buckets, _BUILD_BLOCK):
            edge = np.arange(j0, j0 + min(_BUILD_BLOCK, buckets) + 1) \
                / buckets
            v0, v1 = edge[:-1], edge[1:]
            if j0 + _BUILD_BLOCK >= buckets:
                v1[-1] = np.inf
            k = np.searchsorted(cdf, v0, side="right") - 1
            # levels map to increments monotonically, so the two ends
            # decide, and np.interp's own formula holds strictly inside a
            # panel
            inside = (cdf[k] < v0) & (v1 <= cdf[k + 1]) \
                & np.isfinite(slope[k])
            panel[j0:j0 + v0.size] = np.where(inside, k, miss)
        return cls(cdf, nodes, np.append(slope, 0.0), panel)

    def draw(self, w: np.ndarray) -> np.ndarray:
        """The increments at levels ``w >= 0``, written over ``w``: bit for
        bit ``np.interp(w, cdf, nodes)``.

        The value is ``np.interp``'s own formula on the bucket's panel;
        the levels whose bucket names the last node go to ``np.interp``
        itself.
        """
        k = (w * self.panel.size).astype(np.intp)
        np.minimum(k, self.panel.size - 1, out=k)
        k = self.panel.take(k)
        miss = np.flatnonzero(k == self.slope.size - 1)
        wm = w[miss]
        w -= self.cdf.take(k)
        w *= self.slope.take(k)
        w += self.nodes.take(k)
        if miss.size:
            w[miss] = np.interp(wm, self.cdf, self.nodes)
        return w


def _step_table(model: LevyModel, dt: float, a: float,
                drift: float) -> _StepTable:
    """The inverse CDF of the increment of :func:`_step_density`: the
    density clipped at 0 (the transform's ringing), its cumulative
    trapezoid sums scaled to total mass 1, with the flat ends cut to one
    node each.  A total mass more than ``_MASS_TOL`` from 1 is a law the
    window does not hold."""
    nodes, dens = _step_density(model, dt, a, drift)
    np.maximum(dens, 0.0, out=dens)
    # the trapezoid sums of scipy's cumulative_trapezoid, term for term,
    # without importing scipy.integrate
    cdf = np.concatenate(([0.0], np.cumsum(np.diff(nodes)
                                           * (dens[1:] + dens[:-1]) / 2.0)))
    mass = cdf[-1]
    if not abs(mass - 1.0) <= _MASS_TOL:
        raise NumericalError(
            f"mc.simulate: the step table of dt = {dt:.4g} holds mass "
            f"{mass:.12g}, not 1")
    cdf /= mass
    first = int(np.searchsorted(cdf, 0.0, side="right")) - 1
    last = int(np.searchsorted(cdf, 1.0, side="left")) + 1
    return _StepTable.build(cdf[first:last], nodes[first:last])


# ---------------------------------------------------------------------------
# simulation


@dataclass(frozen=True)
class PathBatch:
    """What a batch leaves once its rows are gone: the time levels and the
    states at the last of them.  ``jump_counts`` is all zeros: a step
    draws its whole increment, not its jumps; the benchmark's tracer
    (``perfbench/tracing.py``) still reads it."""

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
    """Paths of the state started at ``x0`` over horizon ``T``.

    The batch holds two rows of ``n_paths`` states, ``x`` and the next
    one, and each step writes the next row in place.  Each watcher is
    called as ``watcher(x, n, times)`` on every row in turn, ``n = 0 ...
    n_steps``, where row ``n`` holds the states at ``times[n]``; the row
    is overwritten once the call returns, so a watcher copies what it
    keeps.  Each row is checked for non-finite states before the
    watchers see it, the last one too.
    The counter-based generator (Philox) makes the batch
    reproducible bit-for-bit from ``seed``.

    Diffusion uses ``sqrt(2 a)`` so the paths match the operator
    convention ``a u'' + b u'``.  Each step draws, in this order:

    * a model with jumps and constant coefficients: one uniform per
      path, mapped through the step table (:class:`_StepTable`) of the
      whole increment, ``exp(dt [iu (b + m1) - a u^2 + psi(u)])`` with
      ``m1 = jump_moment(model, 1, 1, inf)``;
    * a model with jumps and fields that are not constant: one uniform
      per path through the table of the jumps and the Gaussian of the
      floor ``coeffs.lambda_floor``, ``exp(dt [iu m1 - floor u^2 +
      psi(u)])``, then one standard normal per path for the rest,
      ``b dt + sqrt(2 (a - floor) dt) z``, with the fields read at the
      time to expiry ``T - times[n]``; a state where ``a`` is below the
      floor is a :class:`NumericalError`;
    * a model without jumps (``psi`` = 0): one standard normal per path,
      ``b dt + sqrt(2 a dt) z``.

    The uniforms are drawn into the spare row and the increments written
    over them, so a step holds the two rows and a few index arrays of
    the row's size.
    """
    if n_paths < 1 or n_steps < 1:
        raise ParameterError("need n_paths >= 1 and n_steps >= 1")
    if not T > 0.0:
        raise ParameterError("horizon T must be positive")
    rng = np.random.Generator(np.random.Philox(seed))
    dt = T / n_steps
    times = np.linspace(0.0, T, n_steps + 1)
    x = np.full(n_paths, float(x0))
    nxt = np.empty(n_paths)
    sq_dt = math.sqrt(dt)
    # Re psi(1) = integral (cos y - 1) rho(y) dy is 0 for no jumps only
    jumps = float(levy.characteristic_exponent(model, 1.0).real) != 0.0
    floor = 0.0
    if jumps:
        m1 = levy.jump_moment(model, 1, 1.0, math.inf)
        if coeffs.constant:
            a = float(np.asarray(coeffs.a(x[:1], T), dtype=float).flat[0])
            b = float(np.asarray(coeffs.b(x[:1], T), dtype=float).flat[0])
            table = _step_table(model, dt, a, b + m1)
        else:
            floor = coeffs.lambda_floor
            table = _step_table(model, dt, floor, m1)

    def normal_part(x, t, n):
        # scale and shift of the normal draw z: dx = vol z + drift
        a = np.asarray(coeffs.a(x, t), dtype=float)
        b = np.asarray(coeffs.b(x, t), dtype=float)
        low = np.flatnonzero(a < floor)
        if low.size:
            raise NumericalError(
                f"mc.simulate: step {n} reads diffusion "
                f"{float(np.ravel(a)[low[0]]):.6g} below the floor "
                f"{floor:.6g} at state {float(x[low[0]]):.6g}")
        return np.sqrt(2.0 * (a - floor)) * sq_dt, b * dt
    def show(x, n):
        # a watcher sees finite states only: a rule reading a NaN state
        # would fail, or stop it, before the batch could be rejected
        if not np.isfinite(x).all():
            raise NumericalError(
                "mc.simulate: the paths have non-finite states")
        for watch in watchers:
            watch(x, n, times)
    if coeffs.constant and not jumps:
        # one value through the same IEEE operations is every element of
        # the per-step arrays
        vol, drift = (float(v.flat[0]) for v in normal_part(x[:1], T, 0))
    for n in range(n_steps):
        show(x, n)
        if not coeffs.constant:
            vol, drift = normal_part(x, T - times[n], n)
        # the next row holds dx, then x + dx
        if jumps:
            dx = table.draw(rng.random(n_paths, out=nxt))
            if not coeffs.constant:
                dx += rng.standard_normal(n_paths) * vol
                dx += drift
        else:
            dx = rng.standard_normal(n_paths, out=nxt)
            dx *= vol
            dx += drift
        dx += x
        x, nxt = dx, x
    del nxt
    show(x, n_steps)
    return PathBatch(times, x, np.zeros(n_paths, dtype=np.int64))


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
