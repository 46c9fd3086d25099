"""Jump-measure densities and tail integrals vs brute-force quadrature."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jumpstop import levy, mc
from jumpstop.errors import DomainError, ParameterError
from jumpstop.generator import build_operator
from jumpstop.grids import CoefficientField, SpaceTimeGrid


# ---------------------------------------------------------------------------
# brute-force oracle: midpoint Riemann sum on log-spaced nodes
# ---------------------------------------------------------------------------

def riemann(model, f, lo, hi, n=10**6, floor=1e-18, side=1.0):
    lo = max(lo, floor)
    y = np.geomspace(lo, hi, n)
    mid = np.sqrt(y[1:] * y[:-1])
    dy = np.diff(y)
    return float(np.sum(f(side * mid) * levy._density_array(model, side * mid) * dy))


def riemann_both(model, f, lo, hi, n=10**6):
    return (riemann(model, f, lo, hi, n, side=1.0)
            + riemann(model, f, lo, hi, n, side=-1.0))


MODELS = {
    "ts_sym": levy.tempered_stable(0.5, 0.5, 1.2, 1.2, 3.0, 3.0),
    "ts_asym": levy.tempered_stable(0.3, 0.6, 0.4, 1.5, 2.0, 4.0),
    "merton": levy.merton(1.5, -0.05, 0.25),
    "kou": levy.kou(1.0, 0.4, 12.0, 8.0),
    "vg": levy.variance_gamma(0.2, 0.3, -0.1),
    "nig": levy.nig(6.0, -1.0, 0.3),
}


# ---------------------------------------------------------------------------
# density point values and guards
# ---------------------------------------------------------------------------

def test_density_tempered_stable_point():
    # one-sided power law: rho(1) = c_plus * 1^{-1-a} * e^{-lam}
    m = levy.tempered_stable(0.0, 1.0, 0.0, 0.5, 1.0, 1.0)
    assert levy.density(m, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_density_merton_is_scaled_normal():
    m = levy.merton(2.0, 0.0, 0.1)
    want = 2.0 / (0.1 * math.sqrt(2 * math.pi)) * math.exp(-0.5 * (0.05 / 0.1) ** 2)
    assert levy.density(m, 0.05) == pytest.approx(want, rel=1e-12)


def test_density_vg_matches_tempered_form():
    m = MODELS["vg"]
    c, lp, lm = m.params["c"], m.params["lam_plus"], m.params["lam_minus"]
    assert levy.density(m, 0.3) == pytest.approx(c / 0.3 * math.exp(-lp * 0.3), rel=1e-12)
    assert levy.density(m, -0.3) == pytest.approx(c / 0.3 * math.exp(-lm * 0.3), rel=1e-12)


def test_density_singular_point_guard():
    for m in MODELS.values():
        with pytest.raises(DomainError):
            levy.density(m, 0.0)
    with pytest.raises(DomainError):
        levy.density(MODELS["merton"], np.array([0.1, 0.0]))


def test_density_none_family_zero():
    m = levy.none()
    assert levy.density(m, 0.7) == 0.0
    assert np.all(levy.density(m, np.array([-2.0, 1e-8, 5.0])) == 0.0)


def test_parameter_validation():
    with pytest.raises(ParameterError):
        levy.merton(1.0, 0.0, -0.1)
    with pytest.raises(ParameterError):
        levy.merton(-1.0, 0.0, 0.1)
    with pytest.raises(ParameterError):
        levy.kou(1.0, 1.5, 2.0, 2.0)
    with pytest.raises(ParameterError):
        levy.tempered_stable(0.5, 0.5, 2.0, 1.0, 1.0, 1.0)
    with pytest.raises(ParameterError):
        levy.tempered_stable(0.5, 0.5, 1.0, 1.0, 0.0, 1.0)
    with pytest.raises(ParameterError):
        levy.tempered_stable(0.0, 0.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ParameterError):
        levy.nig(2.0, 2.5, 0.3)
    with pytest.raises(ParameterError):
        levy.variance_gamma(0.0, 0.3, 0.0)


def test_singularity_exponent_by_family():
    assert levy.none().alpha == 0.0
    assert MODELS["merton"].alpha == 0.0
    assert MODELS["kou"].alpha == 0.0
    # subordinated-Brownian families: twice the subordinator index
    assert MODELS["vg"].alpha == 0.0
    assert MODELS["nig"].alpha == 1.0
    assert levy.tempered_stable(0.1, 0.1, 1.3, 1.3, 3.0, 5.0).alpha == 1.3
    assert MODELS["ts_asym"].alpha == 1.5


def test_singularity_bound_holds_on_samples():
    """rho(y) * |y|^(1+alpha) <= M * (1 + 1e-9) on log-spaced 0 < |y| <= 1."""
    y = np.geomspace(1e-12, 1.0, 4001)
    for name, m in MODELS.items():
        for side in (1.0, -1.0):
            vals = levy.density(m, side * y) * y ** (1.0 + m.alpha)
            assert np.all(vals >= 0.0), name
            assert np.max(vals) <= m.sing_const * (1 + 1e-9), name


@settings(max_examples=25, deadline=None)
@given(
    c_m=st.floats(0.01, 2.0), c_p=st.floats(0.01, 2.0),
    a_m=st.floats(-0.5, 1.9), a_p=st.floats(-0.5, 1.9),
    l_m=st.floats(0.1, 10.0), l_p=st.floats(0.1, 10.0),
)
def test_singularity_bound_random_tempered_stable(c_m, c_p, a_m, a_p, l_m, l_p):
    m = levy.tempered_stable(c_m, c_p, a_m, a_p, l_m, l_p)
    y = np.geomspace(1e-10, 1.0, 500)
    for side in (1.0, -1.0):
        vals = levy.density(m, side * y) * y ** (1.0 + m.alpha)
        assert np.all(vals >= 0.0)
        assert np.max(vals) <= m.sing_const * (1 + 1e-9)


# ---------------------------------------------------------------------------
# tail integrals: frozen oracle values
# ---------------------------------------------------------------------------

# midpoint Riemann sums on 1e6 log-spaced nodes per side (see riemann()),
# cross-checked against 30-digit mpmath quadrature of the closed forms
FROZEN = {
    "ts_sym": (0.25, dict(small_var=0.30273315553930225, comp_drift=0.0,
                          big_mass=0.010254065620360709)),
    "ts_asym": (0.1, dict(small_var=0.33858228195061973,
                          comp_drift=0.8026702026381621,
                          big_mass=0.014893771761512917)),
    "merton": (0.3, dict(small_var=0.0283617309699016,
                         comp_drift=-0.05245331208743287,
                         big_mass=0.00012854068941153972,
                         fv_drift=-0.07490619651876636)),
    "kou": (0.15, dict(small_var=0.003756166420365753,
                       comp_drift=-0.03404537394968419,
                       big_mass=0.00020373526168283838,
                       fv_drift=-0.04144289188485224)),
    "vg": (0.2, dict(small_var=0.029610340215379158,
                     comp_drift=-0.027877700010472628,
                     big_mass=6.858853005182805e-06,
                     fv_drift=-0.09999261411802834)),
    "nig": (0.25, dict(small_var=0.034460751001319664,
                       comp_drift=-0.016089416431333162,
                       big_mass=0.0003630880002206423)),
}


# the first moments the Monte Carlo sampler reads off jump_moment: the
# compensating drift over eps < |y| <= 1 and, for finite variation, the
# one over |y| <= 1
FIRST_MOMENTS = {
    "comp_drift": lambda m, eps: levy.jump_moment(m, 1, eps, 1.0),
    "fv_drift": lambda m, eps: levy.jump_moment(m, 1, 0.0, 1.0),
}


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_tails_frozen_values(name):
    eps, want = FROZEN[name]
    m = MODELS[name]
    t = levy.tails(m, eps)
    for key, val in want.items():
        got = FIRST_MOMENTS[key](m, eps) if key in FIRST_MOMENTS \
            else getattr(t, key)
        assert got == pytest.approx(val, rel=1e-8, abs=1e-14), key


@pytest.mark.parametrize("name", ["ts_asym", "nig"])
def test_tails_vs_live_riemann(name):
    """Adaptive quadrature vs 1e6-node log-spaced Riemann sum, 1e-8 relative."""
    eps, _ = FROZEN[name]
    m = MODELS[name]
    t = levy.tails(m, eps)
    sv = riemann_both(m, lambda y: y * y, 0.0, eps)
    cd = riemann_both(m, lambda y: y, eps, 1.0)
    bm = riemann_both(m, lambda y: np.ones_like(y), 1.0, 60.0)
    assert t.small_var == pytest.approx(sv, rel=1e-8)
    assert levy.jump_moment(m, 1, eps, 1.0) == \
        pytest.approx(cd, rel=1e-8, abs=1e-12)
    assert t.big_mass == pytest.approx(bm, rel=1e-8)


def test_tails_none_family_all_zero():
    t = levy.tails(levy.none(), 0.5)
    assert (t.small_var, t.big_mass) == (0.0, 0.0)
    assert levy.jump_moment(levy.none(), 1, 0.5, 1.0) == 0.0
    assert levy.jump_moment(levy.none(), 1, 0.0, 1.0) == 0.0


def test_tails_eps_domain():
    with pytest.raises(ParameterError):
        levy.tails(MODELS["merton"], 0.0)
    with pytest.raises(ParameterError):
        levy.tails(MODELS["merton"], 1.5)


def test_small_var_nondecreasing_in_eps():
    for name, m in MODELS.items():
        vals = [levy.tails(m, e).small_var for e in (0.05, 0.1, 0.2, 0.5, 1.0)]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:])), name


def test_small_var_plus_tail_var_additive():
    """small_var(eps) + integral_{eps<|y|<=1} y^2 = small_var(1)."""
    for name, m in MODELS.items():
        t = levy.tails(m, 0.3)
        band = riemann_both(m, lambda y: y * y, 0.3, 1.0, n=10**5)
        full = levy.tails(m, 1.0).small_var
        assert t.small_var + band == pytest.approx(full, rel=1e-4, abs=1e-12), name


def test_quadrature_tolerance_consistency():
    """NIG tail moments at rel tol 1e-10 and 1e-8 agree within 1e-7."""
    m = MODELS["nig"]
    # f on |y|, sign of the negative side, |y| interval
    moments = {
        "small_var": (lambda t: t * t, 1.0, 0.0, 0.25),
        "comp_drift": (lambda t: t, -1.0, 0.25, 1.0),
        "big_mass": (lambda t: 1.0, 1.0, 1.0, math.inf),
        "big_mean_abs": (lambda t: t, 1.0, 1.0, math.inf),
    }
    for key, (f, sign, lo, hi) in moments.items():
        x, y = (levy.integrate_density(m, f, lo, hi, tol, side="+")
                + sign * levy.integrate_density(m, f, lo, hi, tol, side="-")
                for tol in (1e-10, 1e-8))
        assert abs(x - y) <= 1e-7 * max(abs(x), abs(y), 1e-12), key


# Merton moments integral_{lo < |y| <= hi} y^k rho(y) dy of
# merton(1.5, -0.05, 0.25), both sides, at 40 digits, rounded to 20.
# Generated once with mpmath (not a dependency):
#
#   mp.mp.dps = 40
#   lam, mu, sd = mp.mpf(1.5), mp.mpf(-0.05), mp.mpf(0.25)
#   def moment(k, lo, hi):
#       f = lambda y: y**k * lam * mp.npdf(y, mu, sd)
#       lo, hi = mp.mpf(lo), mp.mpf(hi)
#       return mp.quad(f, [lo, hi]) + mp.quad(f, [-hi, -lo])
#
# Intervals narrower than the jump std are the ones where differences of
# normal tail probabilities cancel; (0.05, 0.3) is exactly one std wide
# and (0.05, 0.31) just wider.  The signed means over |y| <= 0.005 and
# [1e-4, 2e-4] are sums of two sides of opposite sign that cancel to
# 1e-2 and 2e-5 of either side, which bounds their relative accuracy.
MERTON_MOMENTS = {
    (0.0, 0.005, 0): 0.023461060120970827904,
    (0.0, 0.005, 1): -1.5639855911323727719e-7,
    (0.0, 0.005, 2): 1.9549882447119764925e-7,
    (1e-4, 2e-4, 0): 0.00046925114868073473269,
    (1e-4, 2e-4, 1): -8.7593545078880524735e-12,
    (1e-4, 2e-4, 2): 1.0949193196926346958e-11,
    (0.01, 0.02, 0): 0.046841119093275523498,
    (0.01, 0.02, 1): -8.7410059197053462332e-6,
    (0.01, 0.02, 2): 0.000010926876623027088453,
    (0.05, 0.3, 0): 0.90774951783667156313,
    (0.05, 0.3, 1): -0.022298306347350156872,
    (0.05, 0.3, 2): 0.02816844667794873263,
    (0.05, 0.31, 0): 0.93071191278655103205,
    (0.05, 0.31, 1): -0.023973758356670790031,
    (0.05, 0.31, 2): 0.030304167596403326705,
    (0.3, 1.0, 0): 0.35898932905843063502,
    (0.3, 1.0, 1): -0.05245331208743287648,
    (0.3, 1.0, 2): 0.06899396131536798208,
    (1.0, math.inf, 0): 0.0001285406894115394724,
    (1.0, math.inf, 1): -0.000093803481233672094964,
    (1.0, math.inf, 2): 0.00014430771473040484057,
}


@pytest.mark.parametrize("key", sorted(MERTON_MOMENTS))
def test_merton_moments_40_digit(key):
    lo, hi, k = key
    got = levy.jump_moment(levy.merton(1.5, -0.05, 0.25), k, lo, hi)
    assert got == pytest.approx(MERTON_MOMENTS[key], rel=1e-13, abs=0.0)


# ---------------------------------------------------------------------------
# truncation radius
# ---------------------------------------------------------------------------

def test_truncation_radius_frozen():
    assert levy.truncation_radius(MODELS["nig"]) == pytest.approx(3.056895896692652, rel=1e-6)
    assert levy.truncation_radius(MODELS["ts_sym"]) == pytest.approx(5.1509183164977115, rel=1e-6)
    assert levy.truncation_radius(MODELS["vg"]) == pytest.approx(1.6630187290749956, rel=1e-6)
    assert levy.truncation_radius(levy.merton(2.0, 0.0, 0.1)) == 1.0
    assert levy.truncation_radius(levy.none()) == 1.0


def test_truncation_radius_tail_below_tol():
    for name in ("nig", "ts_sym", "vg", "merton"):
        m = MODELS[name] if name in MODELS else levy.merton(2.0, 0.0, 0.1)
        r = levy.truncation_radius(m, tol=1e-8)
        tail = riemann_both(m, lambda y: 1.0 + np.abs(y), r, max(8 * r, 80.0), n=10**5)
        assert tail <= 1e-8 * (1 + 1e-3)
        if r > 1.0:
            tail_in = riemann_both(m, lambda y: 1.0 + np.abs(y), 0.95 * r,
                                   max(8 * r, 80.0), n=10**5)
            assert tail_in > 1e-8


# ---------------------------------------------------------------------------
# exponential compensator
# ---------------------------------------------------------------------------

def test_exp_compensator_merton_closed_form():
    m = levy.merton(2.0, 0.0, 0.1)
    # integral (e^y - 1) nu = lam*(e^{mu+sd^2/2}-1); truncated mean is 0 here
    want = 2.0 * (math.exp(0.005) - 1.0)
    assert levy.exp_compensator(m) == pytest.approx(want, rel=1e-9)


def test_exp_compensator_nig_frozen():
    assert levy.exp_compensator(MODELS["nig"]) == pytest.approx(0.02518847967863957, rel=1e-8)


def test_exp_compensator_divergent_guard():
    with pytest.raises(ParameterError):
        levy.exp_compensator(levy.tempered_stable(0.1, 0.1, 0.5, 0.5, 2.0, 0.9))
    with pytest.raises(ParameterError):
        levy.exp_compensator(levy.nig(2.0, 1.5, 0.3))
    assert levy.exp_compensator(levy.none()) == 0.0


# Frozen values of integral (e^y - 1 - y 1{|y|<=1}) rho(dy) at 50 digits,
# rounded to 17-20.  Generated once with mpmath (not a dependency):
#
#   mp.mp.dps = 50
#   def ts_side(c, a, lam, s):   # side s = +-1 of the tempered-stable measure
#       big = s * c * lam ** (a - 1) * mp.gammainc(1 - a, lam)  # |y| > 1 mean
#       if a in (0, 1):          # removable pole: integrate directly
#           f = lambda y: (mp.expm1(s*y) - s*y) * c * y**(-1-a) * mp.exp(-lam*y)
#           return mp.quad(f, [0, 1, mp.inf]) + big
#       return c * mp.gamma(-a) * ((lam - s)**a - lam**a
#                                  + s * a * lam**(a - 1)) + big
#   value = ts_side(c_plus, a, lam_plus, 1) + ts_side(c_minus, a, lam_minus, -1)
#
# The closed forms agree with mp.quad of the defining integral to 1e-9 or
# better (at a = 1.99 with the part below y = 1e-3 as a power series, since
# tanh-sinh cannot resolve y^-0.99 there; mp.quad is the weaker of the two
# for a >= 1.8).  Merton and
# Kou: mp.quad of the defining integral, checked against
# lam (e^{mu + s^2/2} - 1) and lam [p eta_up/(eta_up-1) + (1-p) eta_down /
# (eta_down+1) - 1] minus the mp.quad truncated mean to 1e-40.  VG:
# c [-log(1 - 1/lam_plus) - 1/lam_plus - log(1 + 1/lam_minus) + 1/lam_minus]
# + c (e^{-lam_plus}/lam_plus - e^{-lam_minus}/lam_minus).  NIG:
# d (sqrt(a^2 - b^2) - sqrt(a^2 - (b+1)^2))
# - (2 d a / pi) mp.quad(sinh(b x) K1(a x), [0, 1]), checked against mp.quad
# of the defining integral for nig(6, -1, 0.3).

# CGMY(1, lam_minus, lam_plus, alpha): (alpha, lam_minus, lam_plus) -> value
EXP_COMP_CGMY = {
    (0.0, 5.0, 10.0): 0.021695909457030830082,
    (0.0, 0.5, 1.05): 2.1137419240216221517,
    (0.0, 50.0, 50.0): 0.00040008002133973538202,
    (0.5, 5.0, 10.0): 0.049628706083312951998,
    (0.5, 0.5, 1.05): 1.2411045924088171173,
    (0.5, 50.0, 50.0): 0.0025069416689811285913,
    (0.999, 5.0, 10.0): 0.1441825264115577104,
    (0.999, 0.5, 1.05): 1.1374252705505562237,
    (0.999, 50.0, 50.0): 0.019911762392451059352,
    (1.0, 5.0, 10.0): 0.14454056122094540575,
    (1.0, 0.5, 1.05): 1.1377915295600290615,
    (1.0, 50.0, 50.0): 0.020001333546712392333,
    (1.001, 5.0, 10.0): 0.14489972955640918224,
    (1.001, 0.5, 1.05): 1.138160371129863235,
    (1.001, 50.0, 50.0): 0.020091340678478508355,
    (1.5, 5.0, 10.0): 0.66806498263309470562,
    (1.5, 0.5, 1.05): 1.8627305089669799585,
    (1.5, 50.0, 50.0): 0.25066909476501581721,
    (1.8, 5.0, 10.0): 3.0999696406078992724,
    (1.8, 0.5, 1.05): 4.6928624234648840907,
    (1.8, 50.0, 50.0): 2.0994328190107974309,
    (1.99, 5.0, 10.0): 97.491694524248422297,
    (1.99, 0.5, 1.05): 99.557348292898580871,
    (1.99, 50.0, 50.0): 95.617894612636284508,
}

# within 1e-6 of the removable poles alpha in {0, 1}
EXP_COMP_CGMY_NEAR_POLE = {
    (1e-06, 5.0, 10.0): 0.021695941609158482057,
    (1e-06, 0.5, 1.05): 2.1137388184734897435,
    (1e-06, 50.0, 50.0): 0.00040008141725028725328,
    (0.999999, 5.0, 10.0): 0.14454020262066970277,
    (0.999999, 0.5, 1.05): 1.137791162011735944,
    (0.999999, 50.0, 50.0): 0.020001243758170806061,
    (1.000001, 5.0, 10.0): 0.14454091982235459331,
    (1.000001, 0.5, 1.05): 1.1377918971109046963,
    (1.000001, 50.0, 50.0): 0.020001423335689945037,
}

# Gamma(s, x) at the binary inputs, mp.gammainc at 50 digits
UPPER_GAMMA_NEAR_ZERO = {
    (-0.25, 1e-06): 121.58948176056756463,
    (-0.25, 0.5): 0.57126730309992037938,
    (-0.25, 1.0): 0.1969865104349430181,
    (-0.25, 1.5): 0.082999602323698211163,
    (-0.25, 40.0): 4.0981407719552347253e-20,
    (-0.1, 1e-06): 29.1244344575684916,
    (-0.1, 0.5): 0.5634030016753887588,
    (-0.1, 1.0): 0.2099448741946453876,
    (-0.1, 1.5): 0.092773075748452141043,
    (-0.1, 40.0): 7.1522594341292396626e-20,
    (-1e-06, 1e-06): 13.238390338625884803,
    (-1e-06, 0.5): 0.55977362450652279724,
    (-1e-06, 1.0): 0.21938383655235866049,
    (-1e-06, 1.5): 0.10001950677305185977,
    (-1e-06, 40.0): 1.0367694122021647452e-19,
    (-1e-12, 1e-06): 13.238295893156936414,
    (-1e-12, 0.5): 0.55977359477619054204,
    (-1e-12, 1.0): 0.21938393439542243048,
    (-1e-12, 1.5): 0.10001958240655701829,
    (-1e-12, 40.0): 1.0367732614478077155e-19,
}

# Gamma(s, x) below s = -1/4 with x > 1, mp.gammainc at 40 digits
UPPER_GAMMA_FRACTION = {
    (-0.5, 1.01): 1.745144316588724287e-1,
    (-0.5, 2.0): 3.0098757100186466344e-2,
    (-0.5, 10.0): 1.2609042613241570681e-6,
    (-0.5, 100.0): 3.6656231225114085412e-47,
    (-0.5, 500.0): 6.3533925410341613539e-222,
    (-1.5, 1.01): 1.2287251094292860451e-1,
    (-1.5, 2.0): 1.1832994103345997091e-2,
    (-1.5, 10.0): 1.1651171685802436755e-7,
    (-1.5, 100.0): 3.6301902339618281156e-49,
    (-1.5, 500.0): 1.2681547674480532127e-224,
    (-2.5, 1.01): 9.2959192879567303666e-2,
    (-2.5, 2.0): 4.8364520097026935598e-3,
    (-2.5, 10.0): 1.0822186721237997758e-8,
    (-2.5, 100.0): 3.5954296823603138949e-51,
    (-2.5, 500.0): 2.5312820244492870869e-227,
}

EXP_COMP_MODELS = {
    "ts15": (levy.tempered_stable(0.2, 0.2, 1.5, 1.5, 3.0, 3.0),
             0.20613509692515639293),
    "ts_slow": (levy.tempered_stable(0.2, 0.2, 1.5, 1.5, 3.0, 1.05),
                0.35110657956505084929),
    "merton": (MODELS["merton"], 0.047043228140431966),
    "merton_centered": (levy.merton(2.0, 0.0, 0.1), 0.010025041718802128),
    "kou": (MODELS["kou"], 0.011139861581821944),
    "kou_slow": (levy.kou(1.0, 0.5, 1.05, 3.0), 9.8738907095061144),
    "vg": (MODELS["vg"], 0.020937525393641574),
    "nig": (MODELS["nig"], 0.025188479678639572),
    "nig_slow": (levy.nig(2.0, 0.95, 0.3), 0.27763378608221273),
}


@pytest.mark.parametrize("key", sorted(EXP_COMP_CGMY))
def test_exp_compensator_cgmy_50_digit(key):
    alpha, lam_minus, lam_plus = key
    got = levy.exp_compensator(levy.tempered_stable(
        1.0, 1.0, alpha, alpha, lam_minus, lam_plus))
    assert got == pytest.approx(EXP_COMP_CGMY[key], rel=1e-12, abs=0.0)


@pytest.mark.parametrize("key", sorted(EXP_COMP_CGMY_NEAR_POLE))
def test_exp_compensator_cgmy_near_removable_poles(key):
    alpha, lam_minus, lam_plus = key
    got = levy.exp_compensator(levy.tempered_stable(
        1.0, 1.0, alpha, alpha, lam_minus, lam_plus))
    assert got == pytest.approx(EXP_COMP_CGMY_NEAR_POLE[key], rel=1e-12, abs=0.0)


@pytest.mark.parametrize("s", [-0.25, -0.1, -1e-6, -1e-12])
@pytest.mark.parametrize("x", [1e-6, 0.5, 1.0, 1.5, 40.0])
def test_upper_gamma_near_zero_keeps_full_accuracy(s, x):
    # the recurrence from s+1 cancelled to ~1e-16/|s| here (0.18 relative
    # at s = -1e-12, x = 40)
    assert levy._upper_gamma(s, x) == pytest.approx(
        UPPER_GAMMA_NEAR_ZERO[(s, x)], rel=1e-14, abs=0.0)


@pytest.mark.parametrize("key", sorted(UPPER_GAMMA_FRACTION))
def test_upper_gamma_below_minus_quarter_uses_the_fraction_for_x_above_1(key):
    # the recurrence from s+1 was off by up to 1.8e-9 (s = -1.5, x = 500)
    # and 3.6e-7 (s = -2.5, x = 500)
    assert levy._upper_gamma(*key) == pytest.approx(
        UPPER_GAMMA_FRACTION[key], rel=1e-13, abs=0.0)


def test_ts15_levy_quantities_skip_the_near_zero_branch(monkeypatch):
    # ts15 reaches only s in {-1.5, -0.5, 0.5}: its compensator, tails and
    # radius take the fraction (x > 1) or the recurrence (x <= 1), never
    # the near-zero series
    def forbidden(s, x):
        raise AssertionError(f"near-zero branch reached at s={s}")
    monkeypatch.setattr(levy, "_upper_gamma_near_zero", forbidden)
    model = EXP_COMP_MODELS["ts15"][0]
    levy.exp_compensator(model)
    for eps in (1.0, 0.01):
        levy.tails(model, eps)
    levy.truncation_radius(model, 1e-12)


@pytest.mark.parametrize("name", sorted(EXP_COMP_MODELS))
def test_exp_compensator_families_50_digit(name):
    model, want = EXP_COMP_MODELS[name]
    assert levy.exp_compensator(model) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_exp_compensator_slowly_tempered_models_are_finite():
    # each overflowed math.expm1 on an outer quadrature panel before
    for model in (levy.tempered_stable(0.2, 0.2, 1.5, 1.5, 3.0, 1.05),
                  levy.nig(2.0, 0.95, 0.3), levy.kou(1.0, 0.5, 1.05, 3.0)):
        assert math.isfinite(levy.exp_compensator(model))


def test_exp_compensator_one_sided_models():
    # no up-jumps: no exponential-moment condition on the positive side
    assert math.isfinite(levy.exp_compensator(
        levy.tempered_stable(0.4, 0.0, 1.2, 1.2, 2.0, 0.5)))
    assert math.isfinite(levy.exp_compensator(levy.kou(1.0, 0.0, 0.5, 3.0)))
    with pytest.raises(ParameterError):
        levy.exp_compensator(levy.kou(1.0, 0.5, 1.0, 3.0))
    with pytest.raises(ParameterError):
        levy.exp_compensator(levy.variance_gamma(0.5, 2.0, 0.4))


def test_exp_compensator_overflow_is_a_parameter_error():
    with pytest.raises(ParameterError, match="overflows"):
        levy.exp_compensator(levy.merton(1.0, 800.0, 0.1))


def _expm1_minus_linear(z):
    """e^z - 1 - z, by its Taylor series where cancellation would bite."""
    near = np.clip(z, -0.5, 0.5)
    term = near * near / 2.0
    series = term.copy()
    for n in range(3, 30):
        term = term * near / n
        series += term
    return np.where(np.abs(z) < 0.5, series, np.expm1(z) - z)


def _ts_side_by_rule(c, a, lam, s):
    """integral_0^inf (e^{sy} - 1 - s y 1{y<=1}) c y^{-1-a} e^{-lam y} dy.

    Power series of (e^{sy} - 1 - sy) e^{-lam y} integrated termwise below
    y0, then 24-node Gauss-Legendre on unit panels of v = log y up to where
    the slowest exponential has decayed by e^-80.  Returns the integral
    and the integral of the absolute integrand (its scale).
    """
    y0 = 0.01
    # Taylor coefficients d_k of (e^{sy} - 1 - sy) e^{-lam y}, k = 0..24
    k = np.arange(25)
    fact = np.cumprod(np.concatenate([[1.0], np.arange(1, 25)]))
    e_sy = s ** k / fact
    e_sy[:2] = 0.0
    decay = (-lam) ** k / fact
    d = np.convolve(e_sy, decay)[:25]
    small = c * float(np.sum(d[2:] * y0 ** (k[2:] - a) / (k[2:] - a)))
    top = math.log((80.0 + 2.0 * abs(a)) / min(lam, lam - s))
    edges = np.concatenate([np.arange(math.log(y0), 0.0, 1.0), [0.0],
                            np.arange(1.0, top, 1.0), [top]])
    edges = np.unique(edges)
    nodes, weights = np.polynomial.legendre.leggauss(24)
    lo, hi = edges[:-1, None], edges[1:, None]
    v = 0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes[None, :]
    w = 0.5 * (hi - lo) * weights[None, :]
    y = np.exp(v)
    inner = np.where(y <= 1.0,
                     _expm1_minus_linear(s * np.minimum(y, 1.0))
                     * np.exp(-lam * y),
                     np.exp((s - lam) * y) - np.exp(-lam * y))
    vals = inner * c * y ** (-a)
    return small + float(np.sum(vals * w)), small + float(np.sum(np.abs(vals) * w))


@settings(max_examples=40, deadline=None)
@given(
    c_m=st.floats(0.01, 2.0), c_p=st.floats(0.01, 2.0),
    a_m=st.floats(-0.5, 1.95), a_p=st.floats(-0.5, 1.95),
    l_m=st.floats(0.2, 20.0), l_p=st.floats(1.1, 20.0),
)
def test_exp_compensator_matches_log_variable_rule(c_m, c_p, a_m, a_p, l_m, l_p):
    model = levy.tempered_stable(c_m, c_p, a_m, a_p, l_m, l_p)
    up, up_scale = _ts_side_by_rule(c_p, a_p, l_p, 1.0)
    down, down_scale = _ts_side_by_rule(c_m, a_m, l_m, -1.0)
    got = levy.exp_compensator(model)
    assert abs(got - (up + down)) <= 1e-10 * (up_scale + down_scale)


# ---------------------------------------------------------------------------
# Kou and variance gamma as tempered-stable sides
# ---------------------------------------------------------------------------

SIGNED_Y = np.concatenate([-np.geomspace(1e-9, 5.0, 200),
                           np.geomspace(1e-9, 5.0, 200)])
OPERATOR_FIELDS = ("radius", "cell_mass", "far_kernel", "corr_kernel",
                   "core_stencil", "far_mass", "compensator", "core_var",
                   "fv_core")


def _kou_as_tempered_stable(lam, p, eta_up, eta_down):
    return levy.tempered_stable(lam * (1 - p) * eta_down, lam * p * eta_up,
                                -1.0, -1.0, eta_down, eta_up)


@pytest.mark.parametrize("args", [(1.0, 0.4, 12.0, 8.0), (1.0, 0.5, 1.05, 3.0)],
                         ids=["kou", "kou_slow"])
def test_kou_is_the_tempered_stable_shape_alpha_minus_one(args):
    kou, ts = levy.kou(*args), _kou_as_tempered_stable(*args)
    y = SIGNED_Y
    assert np.array_equal(levy.density(kou, y), levy.density(ts, y))
    assert levy.exp_compensator(kou) == levy.exp_compensator(ts)
    assert levy.truncation_radius(kou) == levy.truncation_radius(ts)
    grid = SpaceTimeGrid(-2.0, 2.0, 1.5, 120, 1.0, 10)
    op_kou, op_ts = build_operator(kou, grid), build_operator(ts, grid)
    for name in OPERATOR_FIELDS:
        assert np.array_equal(getattr(op_kou, name), getattr(op_ts, name)), \
            name
    assert kou.bounded_density and ts.bounded_density
    coeffs = CoefficientField.constants(0.02, 0.0, 0.04)
    batches = [mc.simulate(m, coeffs, 0.0, 1.0, 2000, 8, 7)
               for m in (kou, ts)]
    assert np.array_equal(batches[0].terminal, batches[1].terminal)
    assert np.array_equal(batches[0].jump_counts, batches[1].jump_counts)


def test_variance_gamma_is_the_tempered_stable_shape_alpha_zero():
    vg = MODELS["vg"]
    c = vg.params["c"]
    ts = levy.tempered_stable(c, c, 0.0, 0.0, vg.params["lam_minus"],
                              vg.params["lam_plus"])
    y = SIGNED_Y
    want = c / np.abs(y) * np.exp(-np.where(y > 0.0, vg.params["lam_plus"],
                                            vg.params["lam_minus"]) * np.abs(y))
    for model in (vg, ts):
        assert np.allclose(levy.density(model, y), want, rtol=4e-16, atol=0.0)
    assert levy.exp_compensator(vg) == levy.exp_compensator(ts)


@pytest.mark.parametrize("model, bounded", [
    (levy.none(), True), (MODELS["merton"], True), (MODELS["kou"], True),
    (MODELS["vg"], False), (MODELS["nig"], False), (MODELS["ts_sym"], False),
    (levy.tempered_stable(0.5, 0.0, -1.5, 1.5, 3.0, 3.0), True),
    (levy.tempered_stable(0.5, 0.5, -1.0, -0.5, 3.0, 3.0), False),
])
def test_density_bounded_at_zero_exactly_where_every_active_side_has_alpha_at_most_minus_one(
        model, bounded):
    assert model.bounded_density is bounded
    values = levy.density(model, np.array([-1e-12, 1e-12]))
    assert bool(np.all(values < 1e3)) is bounded


def test_divergent_exponential_moment_names_the_rate():
    for model, rate in ((levy.kou(1.0, 0.5, 0.8, 3.0), "0.8"),
                        (levy.tempered_stable(0.1, 0.1, 1.5, 1.5, 3.0, 0.9),
                         "0.9")):
        with pytest.raises(ParameterError, match=f"rate {rate} is not above 1"):
            levy.exp_compensator(model)


# integral_{|y| <= eps} y^2 rho(y) dy at 40 digits, rounded to 20.
# Generated once with mpmath (not a dependency), summing the tempered
# sides (c, a, lam) of levy._sides(model):
#
#   mp.mp.dps = 40
#   sum(mp.mpf(c) * mp.mpf(lam) ** (mp.mpf(a) - 2)
#       * mp.gammainc(2 - mp.mpf(a), 0, mp.mpf(lam) * mp.mpf(eps))
#       for c, a, lam in levy._sides(model))
SMALL_VAR_FROM_ZERO = {
    ("kou_slow", 0.01): 6.6251152847522588896e-7,
    ("kou_slow", 1e-06): 6.7499873718890779587e-19,
    ("kou_slow", 1e-14): 6.7499999999998737689e-43,
    ("vg", 0.01): 0.00030555029575226529909,
    ("vg", 1e-06): 3.3333041117533084353e-12,
    ("vg", 1e-14): 3.3333333333330412562e-28,
    ("ts15", 1e-06): 0.00079999920000072002579,
    ("ts15", 1e-14): 7.9999999999999204394e-8,
}
SMALL_VAR_MODELS = {"kou_slow": levy.kou(1.0, 0.5, 1.05, 3.0),
                    "vg": MODELS["vg"],
                    "ts15": levy.tempered_stable(0.2, 0.2, 1.5, 1.5, 3.0, 3.0)}


@pytest.mark.parametrize("key", sorted(SMALL_VAR_FROM_ZERO))
def test_small_var_from_zero_is_the_lower_incomplete_gamma(key):
    # Gamma(s) - Gamma(s, lam eps) cancelled: 2.8e-11 off for kou_slow at
    # eps = 0.01, 2e-10 for ts15 and every digit for Kou and VG at 1e-14
    name, eps = key
    got = levy.tails(SMALL_VAR_MODELS[name], eps).small_var
    assert got == pytest.approx(SMALL_VAR_FROM_ZERO[key], rel=1e-14, abs=0.0)
