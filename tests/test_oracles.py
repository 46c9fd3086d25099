"""Pricing-reference tests.

The three references validate each other: the binomial tree in European
mode must reproduce the closed form, the jump series must collapse to the
closed form as the jump intensity vanishes, and deep-in-the-money prices
must approach discounted intrinsic value.  Spot values are frozen as
regression anchors.
"""

import math

import numpy as np
import pytest

from jumpstop import oracles
from jumpstop.errors import ParameterError
from jumpstop.oracles import binomial_put, bs_put, merton_put, norm_cdf


def test_norm_cdf_reference_points():
    assert norm_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    assert norm_cdf(1.0) == pytest.approx(0.8413447460685429, abs=1e-14)
    assert norm_cdf(-1.959963984540054) == pytest.approx(0.025, abs=1e-12)


def test_bs_put_frozen_values():
    assert bs_put(1.0, 1.0, 0.04, 0.2, 1.0) == pytest.approx(
        0.06003997632506752, rel=1e-12)
    assert bs_put(1.2, 1.0, 0.04, 0.2, 1.0) == pytest.approx(
        0.014353810965419822, rel=1e-12)
    assert bs_put(0.8, 1.0, 0.04, 0.2, 1.0) == pytest.approx(
        0.177845172936141, rel=1e-12)


def test_bs_put_shape_properties():
    # decreasing and convex in spot; deep ITM approaches discounted intrinsic
    spots = np.linspace(0.5, 1.5, 21)
    prices = np.array([bs_put(s, 1.0, 0.04, 0.2, 1.0) for s in spots])
    assert np.all(np.diff(prices) < 0.0)
    assert np.all(prices[2:] - 2.0 * prices[1:-1] + prices[:-2] > -1e-12)
    deep = bs_put(0.4, 1.0, 0.04, 0.2, 1.0)
    assert deep == pytest.approx(math.exp(-0.04) - 0.4, abs=2e-7)
    # parity-derived call is nonnegative and below spot
    call = bs_put(1.1, 0.9, 0.03, 0.25, 2.0) + 1.1 - 0.9 * math.exp(-0.06)
    assert 0.0 < call < 1.1


def test_binomial_european_matches_closed_form():
    got = binomial_put(1.0, 1.0, 0.04, 0.2, 1.0, steps=5000, american=False)
    want = bs_put(1.0, 1.0, 0.04, 0.2, 1.0)
    assert got == pytest.approx(want, rel=2e-4)


def test_binomial_american_frozen_and_ordered():
    amer = binomial_put(1.0, 1.0, 0.04, 0.2, 1.0, steps=5000)
    assert amer == pytest.approx(0.06403947802179197, rel=1e-12)
    euro = binomial_put(1.0, 1.0, 0.04, 0.2, 1.0, steps=5000, american=False)
    assert amer > euro
    assert amer >= 0.0  # above intrinsic (ATM intrinsic is 0)
    coarse = binomial_put(1.0, 1.0, 0.04, 0.2, 1.0, steps=2500)
    assert amer == pytest.approx(coarse, abs=5e-5)


def test_binomial_american_dominates_intrinsic_itm():
    amer = binomial_put(0.8, 1.0, 0.05, 0.2, 1.0, steps=2000)
    assert amer >= 0.2 - 1e-12


def test_binomial_monotone_in_strike():
    prices = [binomial_put(1.0, k, 0.04, 0.2, 1.0, steps=500)
              for k in (0.8, 0.9, 1.0, 1.1, 1.2)]
    assert all(b > a for a, b in zip(prices, prices[1:]))


def test_merton_collapses_to_closed_form():
    got = merton_put(1.0, 1.0, 0.04, 0.2, 1.0, 1e-12, -0.05, 0.25)
    assert got == pytest.approx(bs_put(1.0, 1.0, 0.04, 0.2, 1.0), rel=1e-9)


def test_merton_frozen_value():
    got = merton_put(1.0, 1.0, 0.04, 0.2, 1.0, 1.5, -0.05, 0.25)
    assert got == pytest.approx(0.11765465521320372, rel=1e-12)


def test_merton_jumps_add_value_atm():
    with_jumps = merton_put(1.0, 1.0, 0.04, 0.2, 1.0, 1.5, -0.05, 0.25)
    without = bs_put(1.0, 1.0, 0.04, 0.2, 1.0)
    assert with_jumps > without


def test_merton_series_converged_at_50_terms(monkeypatch):
    assert oracles._MERTON_TERMS == 50
    a = merton_put(1.0, 1.0, 0.04, 0.2, 1.0, 1.5, -0.05, 0.25)
    monkeypatch.setattr(oracles, "_MERTON_TERMS", 80)
    b = merton_put(1.0, 1.0, 0.04, 0.2, 1.0, 1.5, -0.05, 0.25)
    assert a == pytest.approx(b, rel=1e-12)


def test_validation():
    with pytest.raises(ParameterError):
        bs_put(-1.0, 1.0, 0.04, 0.2, 1.0)
    with pytest.raises(ParameterError):
        bs_put(1.0, 1.0, 0.04, -0.2, 1.0)
    with pytest.raises(ParameterError):
        binomial_put(1.0, 1.0, 0.04, 0.2, 1.0, steps=0)
    with pytest.raises(ParameterError):
        merton_put(1.0, 1.0, 0.04, 0.2, 1.0, -1.0, 0.0, 0.1)
    with pytest.raises(ParameterError):
        # sigma*sqrt(dt) too small vs r*dt drives p outside (0,1)
        binomial_put(1.0, 1.0, 0.9, 0.01, 1.0, steps=2)
