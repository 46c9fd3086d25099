"""Jump-size measures (Levy measures) and their tail integrals.

A jump measure is described by a density ``rho(y)`` on the punctured real
line satisfying a power bound ``rho(y) <= M / |y|**(1 + alpha)`` for
``0 < |y| <= 1`` with singularity order ``alpha in [0, 2)``.  Supported
families:

* ``none``             -- no jumps (``rho == 0``)
* ``merton``           -- compound Poisson, normal jump sizes
* ``kou``              -- compound Poisson, double-exponential jump sizes
* ``variance_gamma``   -- infinite activity, finite variation (``alpha = 0``)
* ``nig``              -- normal inverse Gaussian (``alpha = 1``)
* ``tempered_stable``  -- two-sided tempered power law (includes CGMY)

The singularity order ``alpha`` and the bound constant ``M`` are derived
from the family parameters, never user supplied.  For the
subordinated-Brownian families the order equals twice the subordinator
index: 0 for variance gamma, 1 for NIG.

Each side of a Kou, variance-gamma or tempered-stable measure is a
tempered power law ``c |y|**(-1-alpha) exp(-lam |y|)`` (Kou is
``alpha = -1``, variance gamma ``alpha = 0``), so each closed form has
one branch for these tempered sides, one for Merton and one for NIG.

Truncated moments (:func:`jump_moment`, :func:`tails`,
:func:`truncation_radius`), the exponential compensator
(:func:`exp_compensator`) and the characteristic exponent
(:func:`characteristic_exponent`) are closed forms -- incomplete gamma
and the tempered-side Laplace exponent, normal moments, the NIG Laplace
exponent -- for every family except that NIG moments fall back to
:func:`integrate_density`: adaptive Gauss-Kronrod quadrature on panels
refining geometrically toward the singular point.

``scipy`` is loaded inside the functions that use it, so a run loads
only what its family needs: the compiled ufunc module
``scipy.special._special_ufuncs`` (incomplete gamma, ``E1``, ``zeta - 1``,
Bessel ``K1``), without the ``scipy.special`` package, for tempered
sides and NIG (see :mod:`jumpstop._scipy_ext`), and ``scipy.integrate``
(which pulls in ``scipy.optimize``) only in :func:`integrate_density`,
reached by NIG tails.  Merton loads neither.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from ._scipy_ext import _load
from .errors import DomainError, ParameterError, UnsupportedOperation

__all__ = [
    "LevyModel",
    "TailIntegrals",
    "none",
    "merton",
    "kou",
    "variance_gamma",
    "nig",
    "tempered_stable",
    "density",
    "tails",
    "integrate_density",
    "jump_moment",
    "truncation_radius",
    "exp_compensator",
    "characteristic_exponent",
]

#: default relative tolerance for adaptive tail quadrature
QUAD_REL_TOL = 1e-10

#: inner cutoff below which a frozen power-law floor replaces quadrature
_FLOOR = 1e-14

#: the compiled module behind scipy.special's gamma, gammainc, gammaincc,
#: exp1, zetac and k1e
_UFUNCS = "scipy.special._special_ufuncs"

_GL64_NODES, _GL64_WEIGHTS = np.polynomial.legendre.leggauss(64)
_GL16_NODES, _GL16_WEIGHTS = np.polynomial.legendre.leggauss(16)


@dataclass(frozen=True)
class LevyModel:
    """Jump measure with density ``rho``, singularity order and bound.

    Instances come from the family constructors (:func:`merton`,
    :func:`nig`, ...), which validate parameters and derive ``alpha`` and
    ``sing_const``.

    Attributes
    ----------
    family : str
        One of ``none``, ``merton``, ``kou``, ``variance_gamma``, ``nig``,
        ``tempered_stable``.
    params : dict
        Validated family parameters.
    alpha : float
        Order of the small-jump singularity, in ``[0, 2)``.
    sing_const : float
        Constant ``M`` with ``rho(y) <= M / |y|**(1+alpha)`` on
        ``0 < |y| <= 1``.
    """

    family: str
    params: Mapping[str, float] = field(default_factory=dict)
    alpha: float = 0.0
    sing_const: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.alpha < 2.0:
            raise ParameterError(f"singularity order {self.alpha} outside [0, 2)")

    @property
    def finite_variation(self) -> bool:
        """True when the small jumps have a finite first absolute moment."""
        return self.alpha < 1.0

    @property
    def is_trivial(self) -> bool:
        return self.family == "none"


# ---------------------------------------------------------------------------
# family constructors
# ---------------------------------------------------------------------------

def none() -> LevyModel:
    """Model with no jump component (density identically zero)."""
    return LevyModel("none", {}, alpha=0.0, sing_const=1.0)


def merton(intensity: float, jump_mean: float, jump_std: float) -> LevyModel:
    """Compound Poisson with normal jump sizes N(jump_mean, jump_std**2)."""
    if intensity < 0.0:
        raise ParameterError("merton: intensity must be >= 0")
    if jump_std <= 0.0:
        raise ParameterError("merton: jump_std must be > 0")
    # rho <= peak everywhere, so rho * |y|^(1+0) <= peak on |y| <= 1
    peak = intensity / (jump_std * math.sqrt(2.0 * math.pi))
    return LevyModel(
        "merton",
        {"intensity": float(intensity), "jump_mean": float(jump_mean),
         "jump_std": float(jump_std)},
        alpha=0.0,
        sing_const=max(peak, 1e-300),
    )


def kou(intensity: float, p_up: float, eta_up: float, eta_down: float) -> LevyModel:
    """Compound Poisson with double-exponential jump sizes.

    Up-jumps Exp(eta_up) with probability ``p_up``, down-jumps Exp(eta_down)
    with probability ``1 - p_up``.
    """
    if intensity < 0.0:
        raise ParameterError("kou: intensity must be >= 0")
    if not 0.0 <= p_up <= 1.0:
        raise ParameterError("kou: p_up must lie in [0, 1]")
    if eta_up <= 0.0 or eta_down <= 0.0:
        raise ParameterError("kou: jump-size rates must be > 0")
    peak = intensity * max(p_up * eta_up, (1.0 - p_up) * eta_down)
    return LevyModel(
        "kou",
        {"intensity": float(intensity), "p_up": float(p_up),
         "eta_up": float(eta_up), "eta_down": float(eta_down)},
        alpha=0.0,
        sing_const=max(peak, 1e-300),
    )


def variance_gamma(sigma: float, nu: float, theta: float) -> LevyModel:
    """Variance-gamma model (Brownian motion on a gamma clock).

    Density ``(C/|y|) exp(-lam_minus |y|)`` for ``y < 0`` and
    ``(C/y) exp(-lam_plus y)`` for ``y > 0``, with ``C = 1/nu`` and
    tempering rates derived from ``(sigma, nu, theta)``.
    """
    if sigma <= 0.0 or nu <= 0.0:
        raise ParameterError("variance_gamma: sigma and nu must be > 0")
    c = 1.0 / nu
    disc = math.sqrt(theta * theta + 2.0 * sigma * sigma / nu)
    lam_plus = (disc - theta) / (sigma * sigma)
    lam_minus = (disc + theta) / (sigma * sigma)
    return LevyModel(
        "variance_gamma",
        {"sigma": float(sigma), "nu": float(nu), "theta": float(theta),
         "c": c, "lam_minus": lam_minus, "lam_plus": lam_plus},
        alpha=0.0,
        sing_const=c,
    )


def nig(shape: float, skew: float, scale: float) -> LevyModel:
    """Normal inverse Gaussian model.

    ``rho(y) = (scale*shape/pi) * exp(skew*y) * K1(shape*|y|) / |y|`` with
    ``|skew| < shape``.  Singularity order 1.
    """
    if shape <= 0.0 or scale <= 0.0:
        raise ParameterError("nig: shape and scale must be > 0")
    if abs(skew) >= shape:
        raise ParameterError("nig: need |skew| < shape for integrable tails")
    # y^2 rho(y) = (scale/pi) * (shape|y|) K1(shape|y|) * e^{skew y}; since
    # z*K1(z) decreases from 1, M = (scale/pi) * e^{|skew|} works on |y| <= 1.
    m = scale / math.pi * math.exp(abs(skew))
    return LevyModel(
        "nig",
        {"shape": float(shape), "skew": float(skew), "scale": float(scale)},
        alpha=1.0,
        sing_const=m,
    )


def tempered_stable(c_minus: float, c_plus: float, alpha_minus: float,
                    alpha_plus: float, lam_minus: float, lam_plus: float) -> LevyModel:
    """Two-sided tempered power-law density.

    ``rho(y) = c_minus |y|**(-1-alpha_minus) exp(-lam_minus |y|)`` for
    ``y < 0`` and ``c_plus y**(-1-alpha_plus) exp(-lam_plus y)`` for
    ``y > 0``.  Requires ``alpha_pm < 2`` and ``lam_pm > 0``.  A side
    with ``alpha <= -1`` has a density bounded at 0, and ``alpha = -1`` is
    Kou's exponential shape; ``alpha = 0`` is the variance-gamma shape.
    """
    if c_minus < 0.0 or c_plus < 0.0:
        raise ParameterError("tempered_stable: side weights must be >= 0")
    if c_minus == 0.0 and c_plus == 0.0:
        raise ParameterError("tempered_stable: at least one side weight must be > 0")
    if alpha_minus >= 2.0 or alpha_plus >= 2.0:
        raise ParameterError("tempered_stable: stability indices must be < 2")
    if lam_minus <= 0.0 or lam_plus <= 0.0:
        raise ParameterError("tempered_stable: tempering rates must be > 0")
    exps = [0.0]
    if c_minus > 0.0:
        exps.append(alpha_minus)
    if c_plus > 0.0:
        exps.append(alpha_plus)
    alpha = max(exps)
    # rho(y)|y|^{1+alpha} = c_pm |y|^{alpha-alpha_pm} e^{-lam|y|} <= c_pm
    # on |y| <= 1 since alpha >= alpha_pm.
    m = max(c_minus, c_plus)
    return LevyModel(
        "tempered_stable",
        {"c_minus": float(c_minus), "c_plus": float(c_plus),
         "alpha_minus": float(alpha_minus), "alpha_plus": float(alpha_plus),
         "lam_minus": float(lam_minus), "lam_plus": float(lam_plus)},
        alpha=alpha,
        sing_const=m,
    )


def _sides(model: LevyModel):
    """``((c, alpha, lam) for y > 0, (c, alpha, lam) for y < 0)`` of a
    family whose sides are tempered power laws ``c |y|**(-1-alpha)
    exp(-lam |y|)``, else ``None``.  A Kou side ``intensity p eta
    exp(-eta |y|)`` is ``alpha = -1``, ``c = intensity p eta``, ``lam =
    eta``; a variance-gamma side is ``alpha = 0``, ``c = 1/nu`` (Cont &
    Tankov 2004, ch. 4)."""
    p = model.params
    if model.family == "tempered_stable":
        return ((p["c_plus"], p["alpha_plus"], p["lam_plus"]),
                (p["c_minus"], p["alpha_minus"], p["lam_minus"]))
    if model.family == "variance_gamma":
        return ((p["c"], 0.0, p["lam_plus"]), (p["c"], 0.0, p["lam_minus"]))
    if model.family == "kou":
        lam, pu = p["intensity"], p["p_up"]
        return ((lam * pu * p["eta_up"], -1.0, p["eta_up"]),
                (lam * (1.0 - pu) * p["eta_down"], -1.0, p["eta_down"]))
    return None


# ---------------------------------------------------------------------------
# density evaluation
# ---------------------------------------------------------------------------

def _density_array(model: LevyModel, y: np.ndarray) -> np.ndarray:
    """Vectorized density on nonzero ``y`` (no domain checks)."""
    y = np.asarray(y, dtype=float)
    p = model.params
    if model.family == "none":
        return np.zeros_like(y)
    ay = np.abs(y)
    sides = _sides(model)
    if sides is not None:
        up = y > 0.0
        cc, aa, rate = (np.where(up, v_p, v_m) for v_p, v_m in zip(*sides))
        # a side of weight 0 is 0 even where its power overflows
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            rho = cc * ay ** (-1.0 - aa) * np.exp(-rate * ay)
        return np.where(cc == 0.0, 0.0, rho)
    if model.family == "merton":
        z = (y - p["jump_mean"]) / p["jump_std"]
        return p["intensity"] * np.exp(-0.5 * z * z) / (p["jump_std"] * math.sqrt(2.0 * math.pi))
    if model.family == "nig":
        special = _load(_UFUNCS)
        # scaled Bessel keeps exp(skew*y)*K1(shape*|y|) finite for large |y|
        with np.errstate(divide="ignore", over="ignore"):
            return (p["scale"] * p["shape"] / math.pi) \
                * np.exp(p["skew"] * y - p["shape"] * ay) \
                * special.k1e(p["shape"] * ay) / ay
    raise ParameterError(f"unknown family {model.family!r}")


def density(model: LevyModel, y):
    """Evaluate the jump density ``rho`` at ``y`` (scalar or array).

    Raises
    ------
    DomainError
        If any evaluation point is 0 (the singular point of the measure).
    """
    arr = np.asarray(y, dtype=float)
    if np.any(arr == 0.0):
        raise DomainError("jump density is singular at y = 0")
    out = _density_array(model, arr)
    return float(out) if arr.ndim == 0 else out


# ---------------------------------------------------------------------------
# quadrature engine
# ---------------------------------------------------------------------------

def _one_side_panels(lo: float, hi: float) -> list[tuple[float, float]]:
    """Panels of [lo, hi], 0 <= lo < hi <= inf, refining toward 0.

    Geometric subdivision keeps per-panel integrand variation modest so the
    Gauss-Kronrod rule converges fast even near a power singularity.
    """
    panels: list[tuple[float, float]] = []
    a = max(lo, _FLOOR)
    cap = min(hi, 1.0)
    while a < cap:
        b = min(cap, a * 4.0)
        panels.append((a, b))
        a = b
    if hi > 1.0:
        a = max(lo, 1.0)
        stop = hi if math.isfinite(hi) else 64.0 * max(1.0, a)
        while a < stop:
            b = min(stop, a * 2.0)
            panels.append((a, b))
            a = b
        if not math.isfinite(hi):
            panels.append((stop, math.inf))
    return panels


def integrate_density(model: LevyModel, f: Callable[[float], float],
                      lo: float, hi: float, rel_tol: float = QUAD_REL_TOL,
                      side: str = "+") -> float:
    """Adaptive quadrature of ``integral_lo^hi f(t) rho(side*t) dt``.

    Requires ``0 <= lo < hi <= inf``; ``side`` selects which half line of
    the measure is sampled.  When ``lo == 0`` the sliver below the inner
    cutoff is replaced by a power-law floor matched to the local behavior
    of ``f * rho`` (exact to leading order, negligible at the default
    cutoff).
    """
    if lo < 0.0 or hi <= lo:
        raise ParameterError("integrate_density expects 0 <= lo < hi")
    if side not in ("+", "-"):
        raise ParameterError("side must be '+' or '-'")
    if model.is_trivial:
        return 0.0
    from scipy import integrate  # local import; see the module docstring
    sgn = 1.0 if side == "+" else -1.0

    def g(t: float) -> float:
        return float(f(t)) * float(_density_array(model, np.asarray(sgn * t)))

    panels = _one_side_panels(lo, hi)
    # rough midpoint scale so deep-tail panels can use an absolute floor
    # instead of fighting for pure relative accuracy at denormal magnitudes
    roughs = []
    for a, b in panels:
        m = 2.0 * a if not math.isfinite(b) else math.sqrt(a * b)
        w = 2.0 * a if not math.isfinite(b) else (b - a)
        roughs.append(abs(g(m)) * w)
    scale = max(sum(roughs), 1e-300)

    total = 0.0
    with warnings.catch_warnings():
        # panels near a power singularity can exhaust subdivisions; the
        # NIG tails are checked against frozen values and Riemann sums to
        # 1e-8, but other integrands (steep power laws, alpha >= 1.5) can
        # be off by more than ``rel_tol`` with the warning silenced here
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        for (a, b), rough in zip(panels, roughs):
            if rough < 1e-16 * scale:
                total += rough
                continue
            val, _ = integrate.quad(g, a, b, epsabs=1e-14 * scale,
                                    epsrel=rel_tol, limit=200)
            total += val
    if lo == 0.0:
        # local model f*rho ~ c * y^(k-1-alpha) below the cutoff
        t = _FLOOR
        k = _local_power(f)
        if k is not None and k > model.alpha:
            total += g(t) * t / (k - model.alpha)
    return total


def _local_power(f) -> float | None:
    """Estimate k with f(y) ~ c*y^k near 0 by probing two points."""
    y1, y2 = 1e-13, 2e-13
    f1, f2 = float(f(y1)), float(f(y2))
    if f1 == 0.0 or f2 == 0.0:
        return None
    return math.log(abs(f2 / f1)) / math.log(y2 / y1)


# --- closed forms ----------------------------------------------------------

_NEAR_ZERO_S = 0.25   # below this |s| the recurrence loses 1e-16/|s|


def _upper_gamma(s: float, x: float) -> float:
    """Upper incomplete gamma for any real s.

    ``s > 0`` and ``s = 0`` call ``scipy.special``.  Below zero, ``x > 1``
    goes to the continued fraction :func:`_upper_gamma_fraction`;
    ``x <= 1`` goes to the series :func:`_upper_gamma_near_zero` when
    ``-1/4 <= s < 0``, and any lower ``s`` takes the recurrence
    ``Gamma(s, x) = (Gamma(s+1, x) - x^s e^{-x}) / s``, whose two terms
    agree to a relative ``s`` and so cancel as ``s -> 0`` (and, for large
    ``x``, to a relative ``s / x``).
    """
    if x <= 0.0:
        raise ParameterError("upper incomplete gamma needs x > 0")
    special = _load(_UFUNCS)
    if s > 0.0:
        return float(special.gammaincc(s, x) * special.gamma(s))
    if s == 0.0:
        return float(special.exp1(x))
    if x > 1.0:
        return _upper_gamma_fraction(s, x)
    if s >= -_NEAR_ZERO_S:
        return _upper_gamma_near_zero(s, x)
    return (_upper_gamma(s + 1.0, x) - x ** s * math.exp(-x)) / s


def _upper_gamma_fraction(s: float, x: float) -> float:
    """``Gamma(s, x)`` for ``x > 1`` by Legendre's continued fraction
    ``x^s e^{-x} / (x+1-s - 1(1-s) / (x+3-s - 2(2-s) / ...))``, evaluated
    by the modified Lentz method (DLMF 8.9.2).

    Against 40-digit values it is within 1e-14 relative for ``|s| <= 1/4``
    and ``x <= 100``, 6e-14 up to ``x = 700`` (where rounding ``s ln x -
    x`` dominates), and 1.7e-14 for ``s`` in ``{-0.5, -1.5, -2.5}`` and
    ``x`` in ``[1.01, 500]``, in at most 93 terms.
    """
    tiny = 1e-300
    b = x + 1.0 - s
    c, d = 1.0 / tiny, 1.0 / b
    frac = d
    for i in range(1, 1000):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) >= tiny else tiny)
        c = b + an / c
        c = c if abs(c) >= tiny else tiny
        frac *= d * c
        if abs(d * c - 1.0) <= 1e-16:
            break
    return math.exp(s * math.log(x) - x) * frac


def _upper_gamma_near_zero(s: float, x: float) -> float:
    """``Gamma(s, x)`` for ``|s| <= 1/4`` and ``x <= 1``, free of
    cancellation in ``s``.

    The series ``Gamma(s) - x^s sum_{k>=0} (-x)^k / (k! (k+s))`` with its
    ``1/s`` poles taken out together,
    ``x^s [q exprel(s q) - sum_{k>=1} (-x)^k / (k! (k+s))]`` where
    ``q = ln Gamma(1+s) / s - ln x``, and ``ln Gamma(1+s) / s`` sums
    ``-log1p(s)/s + 1 - gamma + sum_{k>=2} (-1)^k (zeta(k)-1) s^(k-1)/k``
    (DLMF 5.7.3).  Against 40-digit values it is within 1e-14 relative;
    at ``s = 0`` it gives ``E1(x)``.
    """
    special = _load(_UFUNCS)
    k = np.arange(2.0, 32.0)   # (zeta(k)-1) |s|^(k-1) < 2^(2-3k): rounding by k = 20
    lgamma_1p = (-math.log1p(s) / s + 1.0 - np.euler_gamma
                 - float(np.sum(special.zetac(k) * (-s) ** (k - 1.0) / k)))
    q = lgamma_1p - math.log(x)
    n = np.arange(1.0, 26.0)   # x^n / n! < 1e-25 by n = 25 where x <= 1
    series = float(np.sum(np.cumprod(-x / n) / (n + s)))
    return x ** s * (q * _exprel(s * q) - series)


def _ts_power_integral(c: float, a: float, lam: float, k: float,
                       lo: float, hi: float) -> float:
    """integral_lo^hi y^k * c y^{-1-a} e^{-lam y} dy with 0 <= lo < hi <= inf;
    from ``lo = 0`` the lower incomplete gamma ``P(s, lam hi) Gamma(s)``,
    as ``Gamma(s) - Gamma(s, lam hi)`` cancels where ``lam hi`` is small."""
    if c == 0.0:
        return 0.0
    s = k - a
    if lo <= 0.0:
        if s <= 0.0:
            raise UnsupportedOperation("divergent small-jump integral")
        special = _load(_UFUNCS)
        part = float(special.gammainc(s, lam * hi) * special.gamma(s))
    else:
        hi_term = 0.0 if not math.isfinite(hi) else _upper_gamma(s, lam * hi)
        part = _upper_gamma(s, lam * lo) - hi_term
    return c * lam ** (a - k) * part


def _merton_trunc_moments(model: LevyModel, lo: float, hi: float):
    """(mass, signed mean, second moment) of the Merton measure on [lo, hi].

    The standardized mass is computed from upper-tail probabilities
    ``Q(z) = P(Z > z)`` so deep tails keep full relative accuracy.  On an
    interval no wider than one jump std those differences cancel (1e-10
    relative at a width of 0.01 std), so a 16-point Gauss-Legendre rule
    on ``[lo, hi]`` takes over there; both are within about 1e-15 of
    40-digit values on either side of the switch.
    """
    p = model.params
    lam, mu, sd = p["intensity"], p["jump_mean"], p["jump_std"]
    if hi - lo <= sd:
        half = 0.5 * (hi - lo)
        y = 0.5 * (hi + lo) + half * _GL16_NODES
        z = (y - mu) / sd
        w = (lam * half / (sd * math.sqrt(2.0 * math.pi))) \
            * _GL16_WEIGHTS * np.exp(-0.5 * z * z)
        wy = w * y
        return float(w.sum()), float(wy.sum()), float(wy @ y)
    a = (lo - mu) / sd
    b = (hi - mu) / sd

    def Q(z):
        if not math.isfinite(z):
            return 0.0 if z > 0 else 1.0
        return 0.5 * math.erfc(z / math.sqrt(2.0))

    def phi(z):
        return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi) if math.isfinite(z) else 0.0

    if a >= 0.0:
        z0 = Q(a) - Q(b)
    elif b <= 0.0:
        z0 = Q(-b) - Q(-a)
    else:
        z0 = 1.0 - Q(-a) - Q(b)
    z1 = phi(a) - phi(b)
    ea = a * phi(a) if math.isfinite(a) else 0.0
    eb = b * phi(b) if math.isfinite(b) else 0.0
    z2 = z0 + ea - eb
    mass = lam * z0
    mean = lam * (mu * z0 + sd * z1)
    second = lam * (mu * mu * z0 + 2.0 * mu * sd * z1 + sd * sd * z2)
    return mass, mean, second


def _side_moment(model: LevyModel, k: int, lo: float, hi: float,
                 side: str) -> float:
    """Signed ``integral y^k rho dy`` over one side; interval in |y| terms.

    ``side='+'`` integrates over [lo, hi], ``side='-'`` over [-hi, -lo].
    """
    if model.is_trivial or hi <= lo:
        return 0.0
    sign = 1.0 if side == "+" else (-1.0) ** k
    sides = _sides(model)
    if sides is not None:
        c, a, lam = sides[0 if side == "+" else 1]
        return sign * _ts_power_integral(c, a, lam, k, lo, hi)
    if model.family == "merton":
        m = (_merton_trunc_moments(model, lo, hi) if side == "+"
             else _merton_trunc_moments(model, -hi, -lo))
        return m[k]  # already signed
    # adaptive fallback (nig)
    return sign * integrate_density(model, lambda t: t ** k, lo, hi,
                                    side=side)


def jump_moment(model: LevyModel, k: int, lo: float, hi: float) -> float:
    """``integral_{lo < |y| <= hi} y^k rho(y) dy`` over both sides, k in {0, 1, 2}.

    Closed form for every family but NIG, which uses
    :func:`integrate_density` at its default tolerance.
    """
    return (_side_moment(model, k, lo, hi, "+")
            + _side_moment(model, k, lo, hi, "-"))


# ---------------------------------------------------------------------------
# tail integrals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailIntegrals:
    """Tail integrals of a jump measure at a fixed split radius ``eps``.

    Attributes
    ----------
    small_var : float
        ``integral_{|y|<=eps} y^2 rho(y) dy``.
    big_mass : float
        ``integral_{|y|>1} rho(y) dy``.
    """

    small_var: float
    big_mass: float


def tails(model: LevyModel, eps: float) -> TailIntegrals:
    """Small-jump variance and big-jump mass at split ``eps``.

    Parameters
    ----------
    model : LevyModel
    eps : float
        Split radius in ``(0, 1]``.
    """
    if not 0.0 < eps <= 1.0:
        raise ParameterError(f"split radius {eps} outside (0, 1]")
    return TailIntegrals(jump_moment(model, 2, 0.0, eps),
                         jump_moment(model, 0, 1.0, math.inf))


def truncation_radius(model: LevyModel, tol: float = 1e-8) -> float:
    """Smallest radius R >= 1 with ``integral_{|y|>R} (1+|y|) rho dy <= tol``;
    a model whose tail is still above ``tol`` past 1e6 is a
    :class:`ParameterError`."""
    if model.is_trivial:
        return 1.0

    def tail(r: float) -> float:
        mass = jump_moment(model, 0, r, math.inf)
        mean_abs = (_side_moment(model, 1, r, math.inf, "+")
                    - _side_moment(model, 1, r, math.inf, "-"))
        return mass + mean_abs

    lo, hi = 1.0, 2.0
    if tail(lo) <= tol:
        return lo
    while tail(hi) > tol:
        lo, hi = hi, hi * 2.0
        if hi > 1e6:
            raise ParameterError(
                f"jump tail does not decay below {tol} by radius {hi}")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if tail(mid) <= tol:
            hi = mid
        else:
            lo = mid
    return hi


def _exprel(z: float) -> float:
    """``(e^z - 1) / z``, equal to 1 at ``z = 0``."""
    return math.expm1(z) / z if z != 0.0 else 1.0


def _ts_exp_side(c: float, a: float, lam: float, s: float) -> float:
    """``c * integral_0^inf (e^{s y} - 1 - s y) y^{-1-a} e^{-lam y} dy``, s = +-1.

    The textbook form ``c Gamma(-a) [(lam-s)^a - lam^a + s a lam^{a-1}]``
    has removable poles at ``a in {0, 1}``.  Dividing the bracket (a
    first-order Taylor remainder of ``t^a`` about ``lam``) by ``a (a-1)``
    gives ``c Gamma(2-a) lam^a I`` with the pole-free
    ``I = integral_1^r tau^{a-2} (r - tau) d tau``, ``r = 1 - s/lam``:
    the binomial series ``sum_{n>=2} x^n (2-a)...(n-1-a) / n!`` in
    ``x = s/lam`` when ``|x| <= 1/4``, else the exact antiderivative
    written with ``exprel`` (cancellation at most a factor 8 there).
    """
    if c == 0.0:
        return 0.0
    x = s / lam
    if abs(x) <= 0.25:
        term = total = 0.5 * x * x
        n = 2
        while abs(term) > 1e-17 * abs(total) and n < 200:
            term *= x * (n - a) / (n + 1)
            total += term
            n += 1
    else:
        log_r = math.log1p(-x)
        total = ((1.0 - x) * log_r * _exprel((a - 1.0) * log_r)
                 - log_r * _exprel(a * log_r))
    return c * math.gamma(2.0 - a) * lam ** a * total


def _nig_small_jump_drift(shape: float, skew: float, scale: float) -> float:
    """``integral_{|y|<=1} y rho(y) dy = (2 d a / pi) integral_0^1 sinh(b x) K1(a x) dx``.

    The integrand is bounded (``-> b/a`` at 0) but carries ``x^2 log x``;
    on ``x = t^3`` that becomes ``t^8 log t``, and a 64-point
    Gauss-Legendre rule in ``t`` is accurate to rounding (checked against
    50-digit values for shapes 1.5 to 80).
    """
    special = _load(_UFUNCS)
    t = 0.5 * (_GL64_NODES + 1.0)
    x = t ** 3
    f = np.sinh(skew * x) * np.exp(-shape * x) * special.k1e(shape * x) \
        * 3.0 * t * t
    # the factor 2 cancels the 1/2 that maps the rule from [-1, 1] to [0, 1]
    return scale * shape / math.pi * float(f @ _GL64_WEIGHTS)


def exp_compensator(model: LevyModel) -> float:
    """``integral (e^y - 1 - y 1_{|y|<=1}) rho(y) dy``, in closed form.

    Used to place a model in martingale (risk-neutral) log-price
    coordinates: the drift is ``r - a - exp_compensator(model)``.
    Requires the positive jump tail to decay faster than ``e^{-y}``.

    Tempered sides (tempered stable, VG and Kou) and Merton: the
    full-line moment ``integral (e^y - 1 - y) rho`` (see
    :func:`_ts_exp_side`; ``lam (e^{mu + s^2/2} - 1 - mu)``) plus the
    big-jump mean ``integral_{|y|>1} y rho``.  NIG, whose
    one-sided truncated means diverge: the Laplace exponent
    ``d (sqrt(a^2 - b^2) - sqrt(a^2 - (b+1)^2))`` minus the small-jump
    drift (Cont & Tankov 2004, ch. 4).
    """
    if model.is_trivial:
        return 0.0
    p = model.params
    fam = model.family
    sides = _sides(model)
    c_up, _, lam_up = sides[0] if sides else (0.0, 0.0, 0.0)
    if c_up > 0.0 and lam_up <= 1.0:
        raise ParameterError(f"exponential moment diverges: the up-jump "
                             f"tempering rate {lam_up:.6g} is not above 1")
    if fam == "nig" and p["shape"] - p["skew"] <= 1.0:
        raise ParameterError("exponential moment diverges: need shape - skew > 1")

    try:
        if fam == "nig":
            a, b, d = p["shape"], p["skew"], p["scale"]
            # d (sqrt(a^2-b^2) - sqrt(a^2-(b+1)^2)), difference of squares
            laplace = d * (2.0 * b + 1.0) / (math.sqrt(a * a - b * b)
                                             + math.sqrt(a * a - (b + 1.0) ** 2))
            return laplace - _nig_small_jump_drift(a, b, d)
        if sides is not None:
            plus, minus = sides
            full = _ts_exp_side(*plus, 1.0) + _ts_exp_side(*minus, -1.0)
        else:  # merton
            mu, sd = p["jump_mean"], p["jump_std"]
            full = p["intensity"] * (math.expm1(mu + 0.5 * sd * sd) - mu)
        return full + jump_moment(model, 1, 1.0, math.inf)
    except OverflowError as exc:
        raise ParameterError(
            f"exponential moment of the {fam} jumps overflows a float") from exc


def _tempered_side_exponent(c: float, a: float, lam: float,
                            z: np.ndarray) -> np.ndarray:
    """``c * integral_0^inf (e^{z y} - 1 - z y) y^{-1-a} e^{-lam y} dy``
    for complex ``z`` with ``Re z < lam``.

    This is ``c Gamma(-a) [(lam - z)^a - lam^a + z a lam^{a-1}]``, whose
    poles at ``a in {0, 1}`` are removable: as in :func:`_ts_exp_side`,
    it is ``c Gamma(2-a) lam^a I`` with the pole-free
    ``I = ((1-x) L exprel((a-1) L) - L exprel(a L))``, ``x = z/lam`` and
    ``L = log(1 - x)``, which gives ``-x - log(1-x)`` at ``a = 0`` and
    ``(1-x) log(1-x) + x`` at ``a = 1``.  Where ``|x| <= 1/4`` the
    binomial series ``sum_{n>=2} x^n (2-a)...(n-1-a) / n!`` takes over;
    its terms fall below ``4^-n`` times a bounded factor, so 40 terms
    reach rounding.  At ``z = +-1`` it agrees with :func:`_ts_exp_side` to
    rounding but not bit for bit (4% of random sides differ in the last
    place), so :func:`exp_compensator`, whose bits the lattice's drift
    reads, keeps its own scalar form.
    """
    x = np.asarray(z, dtype=complex) / lam
    out = np.empty_like(x)
    near = np.abs(x) <= 0.25
    xn = x[near]
    term = 0.5 * xn * xn
    total = term.copy()
    for n in range(2, 42):
        term *= xn * ((n - a) / (n + 1))
        total += term
    out[near] = total
    xf = x[~near]
    log_r = np.log1p(-xf)
    out[~near] = ((1.0 - xf) * log_r * _exprel_array((a - 1.0) * log_r)
                  - log_r * _exprel_array(a * log_r))
    return c * math.gamma(2.0 - a) * lam ** a * out


def _exprel_array(w: np.ndarray) -> np.ndarray:
    """``(e^w - 1) / w`` elementwise, equal to 1 at ``w = 0``."""
    out = np.ones_like(w)
    nz = w != 0.0
    out[nz] = np.expm1(w[nz]) / w[nz]
    return out


def characteristic_exponent(model: LevyModel, u) -> np.ndarray:
    """``psi(u) = integral (e^{iuy} - 1 - iuy) rho(y) dy``, the fully
    compensated characteristic exponent of the jumps, at real or complex
    ``u`` (``Im u`` inside the exponential moments).

    The process with diffusion ``a``, drift ``b`` (truncation at 1) and
    these jumps has ``E e^{iu X_t} = exp(t [iu (b + m1) - a u^2 +
    psi(u)])`` with ``m1 = jump_moment(model, 1, 1, inf)``; at ``u = -i``
    the risk-neutral drift gives ``b + m1 + a + psi(-i) = r``.  Three
    closed forms (Cont & Tankov 2004, ch. 4):

    * a tempered side ``c |y|^{-1-a} e^{-lam |y|}``:
      ``c Gamma(-a) [(lam -+ iu)^a - lam^a +- iu a lam^{a-1}]``, with its
      log forms at ``a in {0, 1}`` (:func:`_tempered_side_exponent`);
      Kou is ``a = -1`` and variance gamma ``a = 0``;
    * Merton: ``lam (e^{iu mu - s^2 u^2 / 2} - 1 - iu mu)``;
    * NIG: ``d (sqrt(al^2 - be^2) - sqrt(al^2 - (be + iu)^2))
      - iu d be / sqrt(al^2 - be^2)``, the difference of square roots
      taken as ``(2 be iu - u^2) / (sum of the roots)``.
    """
    u = np.asarray(u)
    iu = 1j * u.astype(complex)
    p = model.params
    if model.is_trivial:
        return np.zeros_like(iu)
    sides = _sides(model)
    if sides is not None:
        plus, minus = sides
        return (_tempered_side_exponent(*plus, iu)
                + _tempered_side_exponent(*minus, -iu))
    if model.family == "merton":
        mu, sd = p["jump_mean"], p["jump_std"]
        return p["intensity"] * (np.expm1(iu * mu + 0.5 * sd * sd * iu * iu)
                                 - iu * mu)
    if model.family == "nig":
        a, b, d = p["shape"], p["skew"], p["scale"]
        root = math.sqrt(a * a - b * b)
        return d * ((2.0 * b + iu) * iu / (root + np.sqrt(a * a - (b + iu)
                                                          ** 2))
                    - iu * b / root)
    raise ParameterError(f"unknown family {model.family!r}")
