"""Reward functions, constants, and bump-kernel smoothing."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jumpstop import payoff as po
from jumpstop.errors import ParameterError


def trapezoid_convolution(spec, x, eps, n=10**5):
    """Independent smoothing oracle: n-node trapezoid over the kernel support."""
    u = np.linspace(-1.0, 1.0, n)
    k = po.bump_kernel(u)
    vals = po.values(spec, x - eps * u)
    return float(np.trapezoid(vals * k, u))


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------

def test_kernel_normalization():
    u = np.linspace(-1.0, 1.0, 200001)
    mass = np.trapezoid(po.bump_kernel(u), u)
    assert mass == pytest.approx(1.0, abs=1e-10)


def test_kernel_support_and_symmetry():
    assert po.bump_kernel(np.array([-1.0, 1.0, 1.5, -2.0])).tolist() == [0, 0, 0, 0]
    u = np.linspace(-0.99, 0.99, 101)
    np.testing.assert_allclose(po.bump_kernel(u), po.bump_kernel(-u), rtol=1e-15)
    assert np.all(po.bump_kernel(u) > 0.0)


# ---------------------------------------------------------------------------
# payoff specs
# ---------------------------------------------------------------------------

def test_put_values_and_constants():
    p = po.put(1.0)
    assert p(0.0) == 0.0                      # at-the-money log price
    assert p(-1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-15)
    assert p(2.0) == 0.0
    assert (p.bound, p.lipschitz, p.semiconvexity) == (1.0, 1.0, 1.0)
    assert p.kinks == (0.0,)
    xs = np.linspace(-6.0, 3.0, 1001)
    vals = p(xs)
    assert np.all((vals >= 0.0) & (vals <= p.bound))
    assert np.max(np.abs(np.diff(vals)) / np.diff(xs)) <= p.lipschitz + 1e-9


def test_soft_capped_call_constants_frozen():
    c = po.soft_capped_call(1.0, 0.8)
    assert c.bound == 0.8
    assert c.lipschitz == pytest.approx(1.0, rel=1e-12)
    assert c.semiconvexity == pytest.approx(0.86282614287527, rel=1e-10)
    xs = np.linspace(-3.0, 5.0, 2001)
    vals = c(xs)
    assert np.all((vals >= 0.0) & (vals <= c.bound + 1e-15))
    # saturates at the cap
    assert c(6.0) == pytest.approx(0.8, abs=1e-8)


@pytest.mark.parametrize("cap", [0.6, 1.0, 1.5, 4.0])
def test_soft_capped_call_lipschitz_is_the_largest_slope(cap):
    # g' = s e^{-(s - strike)/cap} on s = e^x > strike peaks at s =
    # max(strike, cap): the strike when cap < strike, else cap e^{strike/cap
    # - 1}; the chords of a fine grid reach it from below
    c = po.soft_capped_call(1.0, cap)
    xs = np.linspace(-1.0, math.log(cap) + 1.0, 10**6 + 1)
    slopes = np.diff(c(xs)) / np.diff(xs)
    assert slopes.max() <= c.lipschitz + 1e-9
    assert slopes.max() == pytest.approx(c.lipschitz, rel=1e-5)


def test_soft_capped_call_semiconvexity_sampled():
    """Discrete second difference >= -J everywhere (smooth part is exact)."""
    c = po.soft_capped_call(1.0, 0.8)
    h = 1e-4
    xs = np.linspace(-2.0, 4.0, 5001)
    d2 = (c(xs + h) - 2.0 * c(xs) + c(xs - h)) / h**2
    assert np.min(d2) >= -c.semiconvexity - 1e-4


def test_payoff_validation():
    with pytest.raises(ParameterError):
        po.put(0.0)
    with pytest.raises(ParameterError):
        po.soft_capped_call(1.0, -0.5)
    with pytest.raises(ParameterError):
        po.tabulated([0.0, 1.0], [0.5, -0.5])
    with pytest.raises(ParameterError):
        po.tabulated([0.0, 0.0, 1.0], [0.0, 0.1, 0.2])


def test_tabulated_constants_from_table():
    # tent function: slopes +1 then -1, concave kink at the peak
    t = po.tabulated([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0])
    assert t.bound == 1.0
    assert t.lipschitz == 1.0
    assert t.semiconvexity == pytest.approx(2.0)  # slope drop 2 over half-span 1
    assert t.kinks == (0.0,)
    assert t(0.5) == pytest.approx(0.5)
    assert t(7.0) == 0.0  # clamped extension


def test_from_csv_roundtrip(tmp_path):
    f = tmp_path / "g.csv"
    f.write_text("x,g\n-2.0,0.9\n0.0,0.4\n2.0,0.0\n")
    t = po.from_csv(f)
    assert t.bound == 0.9
    assert t(1.0) == pytest.approx(0.2)


# ---------------------------------------------------------------------------
# smoothing
# ---------------------------------------------------------------------------

def test_mollified_put_frozen_vs_trapezoid():
    """Kink-split Gauss-Legendre vs 1e5-node trapezoid oracle, 1e-8."""
    p = po.put(1.0)
    m = po.mollify(p, 0.05)
    assert m(0.0) == pytest.approx(0.00826343244666831, abs=1e-12)
    assert m(-1.0) == pytest.approx(0.6320478453086894, abs=1e-12)
    for x in (0.0, -0.03, 0.2, -1.0):
        assert m(x) == pytest.approx(trapezoid_convolution(p, x, 0.05), abs=1e-8)


def test_mollified_capped_call_vs_trapezoid():
    c = po.soft_capped_call(1.0, 0.8)
    m = po.mollify(c, 0.1)
    assert m(0.1) == pytest.approx(0.09825887989312637, abs=1e-12)
    assert m(0.1) == pytest.approx(trapezoid_convolution(c, 0.1, 0.1), abs=1e-8)


def test_mollify_preserves_bounds_and_gap():
    p = po.put(1.0)
    for eps in (0.2, 0.05, 0.01):
        m = po.mollify(p, eps)
        xs = np.linspace(-3.0, 2.0, 2001)
        vals = m(xs)
        assert np.all((vals >= 0.0) & (vals <= p.bound))
        assert np.max(np.abs(vals - p(xs))) <= p.lipschitz * eps + 1e-12
        assert (m.bound, m.lipschitz, m.semiconvexity) == \
            (p.bound, p.lipschitz, p.semiconvexity)


def test_mollified_put_second_difference_bounded_below():
    p = po.put(2.0)
    m = po.mollify(p, 0.1)
    h = 5e-4
    xs = np.linspace(-2.0, 2.0, 2001)
    d2 = (m(xs + h) - 2.0 * m(xs) + m(xs - h)) / h**2
    assert np.min(d2) >= -p.semiconvexity - 1e-3


def test_mollify_scalar_vs_array_agree():
    m = po.mollify(po.put(1.0), 0.05)
    xs = np.array([-0.5, 0.0, 0.5])
    np.testing.assert_allclose(m(xs), [m(float(x)) for x in xs], rtol=1e-14)


def test_mollify_width_validation():
    with pytest.raises(ParameterError):
        po.mollify(po.put(1.0), 0.0)


@settings(max_examples=20, deadline=None)
@given(strike=st.floats(0.5, 3.0), eps=st.floats(0.01, 0.3),
       x=st.floats(-2.0, 2.0))
def test_mollified_put_within_lipschitz_tube(strike, eps, x):
    p = po.put(strike)
    m = po.mollify(p, eps)
    assert abs(m(x) - p(x)) <= p.lipschitz * eps + 1e-12


def test_mollified_put_monotone_nonincreasing():
    m = po.mollify(po.put(1.0), 0.08)
    xs = np.linspace(-3.0, 1.5, 800)
    vals = m(xs)
    assert np.all(np.diff(vals) <= 1e-12)


BLOCK_SPECS = (po.put(1.0), po.soft_capped_call(1.0, 0.8),
               po.tabulated([-1.0, -0.2, 0.1, 0.5], [0.9, 0.4, 0.3, 0.0]))


@pytest.mark.parametrize("spec", BLOCK_SPECS, ids=lambda s: s.kind)
@pytest.mark.parametrize("n", (1, 1024, 1025, 40_000))
def test_kernel_average_blocked_matches_pointwise(spec, n):
    """Blocks of points give exactly the one-point-at-a-time values."""
    f = lambda t: po.values(spec, t)  # noqa: E731
    x = np.linspace(-1.2, 1.0, n)
    got = po.kernel_average(f, x, 0.1, spec.kinks)
    idx = np.arange(0, n, 1 if n <= 1025 else 37)
    want = [po.kernel_average(f, x[i:i + 1], 0.1, spec.kinks)[0]
            for i in idx]
    np.testing.assert_array_equal(got[idx], want)


def test_kernel_average_memory_is_bounded_by_the_block():
    x = np.linspace(-2.0, 2.0, 40_000)
    tracemalloc.start()
    try:
        po.kernel_average(po.put(1.0), x, 0.05, (0.0,))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
