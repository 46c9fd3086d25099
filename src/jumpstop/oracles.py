"""Independent pricing references: closed forms and a binomial tree.

These are deliberately self-contained (no use of the grid solver or the
jump operator) so they can serve as external cross-checks:

* Black-Scholes European put (closed form, diffusion only);
* European put under Gaussian jumps as the classic Poisson mixture of
  Black-Scholes prices (conditioning on the jump count);
* Cox-Ross-Rubinstein binomial tree for the American/European put.

All prices are spot-space; the grid solver works in log-price, so callers
convert with ``s0 = exp(x0)``.  Zero dividend yield throughout.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError

__all__ = [
    "norm_cdf",
    "bs_put",
    "merton_put",
    "binomial_put",
]

#: terms of the Poisson series in :func:`merton_put`
_MERTON_TERMS = 50


def norm_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def bs_put(s0: float, strike: float, r: float, sigma: float,
           t: float) -> float:
    """Black-Scholes European put price."""
    _check_price_args(s0, strike, t)
    if sigma <= 0.0:
        raise ParameterError("volatility must be > 0")
    sq = sigma * math.sqrt(t)
    d1 = (math.log(s0 / strike) + (r + 0.5 * sigma * sigma) * t) / sq
    d2 = d1 - sq
    return strike * math.exp(-r * t) * norm_cdf(-d2) - s0 * norm_cdf(-d1)


def merton_put(s0: float, strike: float, r: float, sigma: float, t: float,
               intensity: float, jump_mean: float, jump_std: float) -> float:
    """European put under Gaussian log-jumps, as a Poisson-weighted series.

    Conditioning on ``n`` jumps leaves a lognormal with variance
    ``sigma^2 t + n jump_std^2`` and a drift correction from the
    compensator; the price is the sum over ``n`` of Poisson weights times
    Black-Scholes prices with adjusted rate and volatility.
    """
    _check_price_args(s0, strike, t)
    if intensity < 0.0 or jump_std <= 0.0:
        raise ParameterError("need intensity >= 0 and jump_std > 0")
    kappa = math.exp(jump_mean + 0.5 * jump_std * jump_std) - 1.0
    lam_prime = intensity * (1.0 + kappa)
    total = 0.0
    log_w = -lam_prime * t          # log of e^{-lam' t} (lam' t)^n / n!
    for n in range(_MERTON_TERMS):
        sig_n = math.sqrt(sigma * sigma + n * jump_std * jump_std / t)
        r_n = r - intensity * kappa + n * math.log1p(kappa) / t
        total += math.exp(log_w) * bs_put(s0, strike, r_n, sig_n, t)
        log_w += math.log(lam_prime * t) - math.log(n + 1) \
            if lam_prime > 0.0 else -math.inf
    return total


def binomial_put(s0: float, strike: float, r: float, sigma: float, t: float,
                 steps: int = 5000, american: bool = True) -> float:
    """Cox-Ross-Rubinstein tree price of a put (American by default)."""
    _check_price_args(s0, strike, t)
    if sigma <= 0.0:
        raise ParameterError("volatility must be > 0")
    if steps < 1:
        raise ParameterError("need at least one tree step")
    dt = t / steps
    u = math.exp(sigma * math.sqrt(dt))
    d = 1.0 / u
    growth = math.exp(r * dt)
    p = (growth - d) / (u - d)
    if not 0.0 < p < 1.0:
        raise ParameterError(
            "tree step too coarse for these rates (risk-neutral "
            "probability outside (0,1)); increase steps")
    disc = math.exp(-r * dt)
    # terminal layer: s0 * u^j * d^(steps-j), j = 0..steps
    j = np.arange(steps + 1)
    s = s0 * np.exp((2.0 * j - steps) * sigma * math.sqrt(dt))
    v = np.maximum(strike - s, 0.0)
    for m in range(steps, 0, -1):
        v = disc * (p * v[1:] + (1.0 - p) * v[:-1])
        if american:
            s = s0 * np.exp((2.0 * np.arange(m) - (m - 1)) *
                            sigma * math.sqrt(dt))
            v = np.maximum(v, strike - s)
    return float(v[0])


def _check_price_args(s0: float, strike: float, t: float) -> None:
    if s0 <= 0.0 or strike <= 0.0:
        raise ParameterError("spot and strike must be > 0")
    if t <= 0.0:
        raise ParameterError("maturity must be > 0")
