"""Penalty family tests.

Finite-difference derivatives and dense sampling serve as oracles for the
shape properties: nonpositivity, vanishing beyond the separation scale,
exact anchor at 0, monotonicity, concavity, and the pointwise divergence
as the separation scale shrinks.
"""

import numpy as np
import pytest

from jumpstop import levy, penalty
from jumpstop.errors import ParameterError
from jumpstop.grids import CoefficientField, SpaceTimeGrid
from jumpstop.payoff import PayoffSpec, kernel_average, put
from jumpstop.penalty import anchor, build

EPS_SET = (0.2, 0.1, 0.05, 0.025)
GRID = SpaceTimeGrid(-1.0, 1.0, 1.0, 40, 1.0, 10)
YS = np.linspace(-5.0, 5.0, 10_000)


def _flat_payoff(bound):
    return PayoffSpec(kind="flat", bound=bound, lipschitz=0.0,
                      semiconvexity=0.0, kinks=())


# --- anchor ----------------------------------------------------------------

def test_anchor_degenerate_zero():
    c = CoefficientField.constants(a=1.0, b=0.0, r=0.0)
    assert anchor(c, _flat_payoff(1.0), levy.none(), GRID) == 0.0


def test_anchor_only_diffusion_term():
    c = CoefficientField.constants(a=1.0, b=0.0, r=0.0)
    g = PayoffSpec(kind="flat", bound=1.0, lipschitz=0.0,
                   semiconvexity=1.0, kinks=())
    assert anchor(c, g, levy.none(), GRID) == -1.0


def test_anchor_merton_put():
    c = CoefficientField.constants(a=1.0, b=0.1, r=0.05)
    m = levy.merton(intensity=2.0, jump_mean=0.0, jump_std=0.1)
    got = anchor(c, put(1.0), m, GRID)
    # -(1 + 0.1 + 0.05 + lam*std^2 + negligible tail mass)
    assert got == pytest.approx(-1.17, abs=1e-10)
    t = levy.tails(m, 1.0)
    want = -(1.0 + 0.1 + 0.05 + t.small_var + t.big_mass)
    assert got == pytest.approx(want, rel=1e-14)


def test_anchor_uses_grid_maxima():
    coeffs = CoefficientField(
        a=lambda x, t: 0.5 + 0.25 * np.tanh(x),
        b=lambda x, t: -0.3 * np.cos(x),
        r=lambda x, t: 0.02 + 0.0 * x,
        lambda_floor=0.1)
    grid = SpaceTimeGrid(-2.0, 2.0, 1.0, 100, 1.0, 10)
    g = put(1.0)
    got = anchor(coeffs, g, levy.none(), grid)
    a0, b0, r0 = coeffs.maxima(grid)
    assert got == pytest.approx(-(a0 + b0 + r0), rel=1e-14)


# --- shape properties ------------------------------------------------------

@pytest.fixture(scope="module", params=EPS_SET, ids=lambda e: f"eps={e}")
def spec(request):
    return build(request.param, -1.17)


def test_nonpositive_everywhere(spec):
    support_hi = 0.5 * spec.eps + spec.kernel_width
    edge = np.linspace(support_hi - 1e-3 * spec.kernel_width, support_hi,
                       1001)
    assert np.all(spec.value(np.concatenate([YS, edge])) <= 0.0)


def test_vanishes_beyond_separation(spec):
    support_hi = 0.5 * spec.eps + spec.kernel_width
    ys = np.concatenate([YS[YS >= spec.eps],
                         np.linspace(support_hi, spec.eps, 1001)])
    assert np.all(spec.value(ys) == 0.0)
    assert spec.value(spec.eps) == 0.0
    assert spec.value(support_hi) == 0.0


def test_anchor_exact_at_zero(spec):
    assert spec.value(0.0) == spec.p0


def test_monotone_nondecreasing(spec):
    vals = spec.value(YS)
    assert np.all(np.diff(vals) >= -1e-11)


def test_concave(spec):
    ys = np.linspace(-1.0, 1.0, 4001)
    vals = spec.value(ys)
    second = vals[2:] - 2.0 * vals[1:-1] + vals[:-2]
    assert np.max(second) <= 1e-9 * max(1.0, np.max(np.abs(vals)))


def test_linear_branch_exact(spec):
    ys = np.linspace(-3.0, 0.5 * spec.eps - 1.5 * spec.kernel_width, 500)
    np.testing.assert_array_equal(spec.value(ys), spec.slope_max * ys + spec.p0)


def test_slope_matches_finite_differences(spec):
    ys = np.linspace(-1.0, 1.0, 2001)
    d = 1e-6
    fd = (spec.value(ys + d) - spec.value(ys - d)) / (2.0 * d)
    assert np.max(np.abs(spec.slope(ys) - fd)) <= 1e-4 * spec.slope_max


def test_slope_bounded(spec):
    s = spec.slope(YS)
    assert np.all(s >= -1e-12)
    assert np.all(s <= spec.slope_max * (1.0 + 1e-9))


# --- ramp table against the direct quadrature -----------------------------

def test_ramp_table_matches_direct_quadrature(spec):
    kink, w, s = 0.5 * spec.eps, spec.kernel_width, spec.slope_max
    ys = np.linspace(kink - w, kink + w, 20_001)[1:-1]
    want = kernel_average(spec._template, ys, w, (kink,))
    want_slope = kernel_average(lambda z: np.where(z < kink, s, 0.0), ys, w,
                                (kink,))
    assert np.max(np.abs(spec.value(ys) - want)) <= 1e-14 * abs(spec.p0)
    # the 64-node rule itself is off by up to 2e-13 * s on the slope
    assert np.max(np.abs(spec.slope(ys) - want_slope)) <= 1e-13 * s


# --- pointwise limit as the separation scale shrinks ----------------------

def test_limit_positive_point_hits_zero():
    for eps in (0.29, 0.2, 0.1, 0.05):
        assert build(eps, -1.17).value(0.3) == 0.0


def test_limit_negative_point_diverges_monotonically():
    vals = [build(eps, -1.17).value(-0.3)
            for eps in (0.2, 0.1, 0.05, 0.025, 0.0125)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < -50.0


# --- validation and degenerate depth --------------------------------------

def test_build_validation():
    with pytest.raises(ParameterError):
        build(0.0, -1.0)
    with pytest.raises(ParameterError):
        build(1.0, -1.0)
    with pytest.raises(ParameterError):
        build(0.1, 0.5)


def test_zero_depth_is_identically_zero():
    p = build(0.1, 0.0)
    assert np.all(p.value(YS) == 0.0)
    assert np.all(p.slope(YS) == 0.0)


def test_ramp_table_is_two_kernel_averages_bit_for_bit():
    # one set of kernel weights and arguments serves both integrands
    z = np.linspace(-1.0, 1.0, penalty._RAMP_NODES)
    f, fp, _ = penalty._ramp_table()
    want_f = kernel_average(lambda t: np.minimum(t, 0.0), z, 1.0, (0.0,))
    want_fp = kernel_average(lambda t: np.where(t < 0.0, 1.0, 0.0), z, 1.0,
                             (0.0,))
    assert np.array_equal(f, want_f) and f.tobytes() == want_f.tobytes()
    assert np.array_equal(fp, want_fp) and fp.tobytes() == want_fp.tobytes()


def test_column_widths_give_each_column_its_scalar_bits():
    # one width per column, broadcast along the last axis of y
    widths = (0.2, 0.1, 0.05, 0.025)
    block = build(np.array(widths), -1.17)
    y = np.add.outer(YS, np.linspace(-0.01, 0.01, len(widths)))
    for name in ("value", "slope"):
        got = getattr(block, name)(y)
        assert got.shape == y.shape
        for k, eps in enumerate(widths):
            want = getattr(build(eps, -1.17), name)(y[:, k])
            assert got[:, k].tobytes() == want.tobytes(), (name, eps)
    with pytest.raises(ParameterError):
        build(np.array([0.2, 1.0]), -1.0)
    assert not build(np.array(widths), 0.0).value(y).any()


def test_hermite_in_place_is_the_one_expression_form_bit_for_bit():
    def one_expression(z, vals, ders):
        dz = 2.0 / (penalty._RAMP_NODES - 1)
        t = (z + 1.0) / dz
        i = np.minimum(t.astype(int), penalty._RAMP_NODES - 2)
        s = t - i
        r = 1.0 - s
        return (s * s * (3.0 - 2.0 * s) * vals[i + 1]
                + r * r * (1.0 + 2.0 * s) * vals[i]
                + dz * s * r * (r * ders[i] - s * ders[i + 1]))
    z = np.random.default_rng(3).uniform(-1.0, 1.0, 50_000)
    f, fp, fpp = penalty._ramp_table()
    for vals, ders in ((f, fp), (fp, fpp)):
        got = penalty._hermite(z, vals, ders)
        assert got.tobytes() == one_expression(z, vals, ders).tobytes()
