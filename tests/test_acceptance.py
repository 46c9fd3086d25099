"""End-to-end acceptance suite: one test per shipping criterion.

Run ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion.  Every reference value comes from an oracle that is
independent of the solver stack: closed-form Black-Scholes and
jump-mixture series prices, a 5000-step binomial tree, moment integrals
of the jump density evaluated by adaptive quadrature, and two-batch
regression Monte Carlo lower bounds.  Stated runtime caps are asserted.

Criteria:
 1. discrete jump-operator identities on polynomial slices + split
    invariance, every supported jump family, 1e-6 relative;
 2. penalty-template properties on 10^4 sample points for four widths,
    anchor exact to 1e-12, pointwise limit along shrinking widths;
 3. a-priori solution bounds at the default desk scale (nx=400, nt=200);
 4. European prices vs Black-Scholes (0.2%) and jump-mixture series
    (0.5%) at five probes;
 5. early-exercise prices vs a 5000-step binomial tree (0.2% at the
    money, 0.5% at +-20% moneyness);
 6. continuation deltas along the default penalty schedule strictly
    decrease, final delta below 5e-3 of the strike;
 7. one-sided gradient gap at the exercise boundary shrinks under two
    grid halvings (ratio <= 0.7) down to 1% of the gradient scale, for
    an infinite-variation family and a super-unit activity family;
 8. complementarity residual decreases under refinement and meets the
    20*(h^2+dt)-scale bound at the finest level;
 9. second-derivative integral norms (L2, L4) stay within 2x across
    three refinement levels on a window straddling the exercise
    boundary, while the pointwise max is free to grow; from t0 = 0.05,
    the norms of u_t, u_x and u_xx stay within 1.1x for four jump
    families;
10. solver values dominate regression Monte Carlo lower bounds at five
    probes for two jump families; early exercise dominates European;
11. identical config and seed reproduce byte-identical artifacts.
"""

import json
import math
import time

import numpy as np
import pytest

from jumpstop import diagnostics, harness, levy, mc, oracles, payoff, penalty
from jumpstop.generator import apply_nonlocal, build_operator
from jumpstop.grids import CoefficientField, GridFunction, SpaceTimeGrid
from jumpstop.solver import (SolveConfig, contact_tol, plan_steps,
                             residual_vi, solve_european, solve_vi)
from jump_split import apply_nonlocal_split

SIG, RATE = 0.2, 0.04
DIFF = 0.5 * SIG * SIG
PUT = payoff.put(1.0)
PROBES = (-0.2, -0.1, 0.0, 0.1, 0.2)
NORM_WINDOW = (-0.3, 0.1)  # straddles the exercise boundary at every level

JUMP_FAMILIES = {
    "merton": levy.merton(1.5, -0.05, 0.25),
    "kou": levy.kou(1.0, 0.4, 12.0, 8.0),
    "vg": levy.variance_gamma(0.2, 0.3, -0.1),
    "nig": levy.nig(6.0, -1.0, 0.3),
    "ts_sub": levy.tempered_stable(0.5, 0.5, 1.2, 1.2, 3.0, 3.0),
    "ts_super": levy.tempered_stable(0.2, 0.2, 1.5, 1.5, 3.0, 3.0),
}


def risk_neutral_coeffs(model):
    drift = RATE - DIFF - levy.exp_compensator(model)
    return CoefficientField.constants(DIFF, drift, RATE)


def value_now_at(report, grid, x):
    """Interpolated value at probe ``x`` with the full horizon remaining."""
    return float(np.interp(x, grid.nodes, report.value.values[:, -1]))


def projected_levels(model, coeffs):
    """Projected put solves at three halved resolutions, nx = nt."""
    out = []
    for n in (200, 400, 800):
        grid = SpaceTimeGrid(-0.5, 0.5, 1.5, n, 1.0, n)
        cfg = SolveConfig(grid, model, coeffs, PUT, mode="projected")
        out.append((cfg, solve_vi(cfg)))
    return out


@pytest.fixture(scope="module")
def refinement_levels():
    """Projected diffusion-put solves at three halved resolutions."""
    return projected_levels(
        levy.none(), CoefficientField.constants(DIFF, RATE - DIFF, RATE))


def parabolic_norms(u, p, window, t0=0.0):
    """Measure-weighted L^p norms of first and second differences.

    Restricted to the space window and to (backward) times ``>= t0``;
    weighting by the space-time cell measure makes values comparable
    across refinement levels.  Returns ``{"u_t": ., "u_x": ., "u_xx": .,
    "u_xx_max": .}``.
    """
    grid = u.grid
    vals = u.values
    xm = (grid.nodes >= window[0]) & (grid.nodes <= window[1])
    tm = grid.times >= t0 - 1e-12
    assert vals.ndim == 2 and xm.sum() >= 3 and tm.sum() >= 3
    h, dt = grid.h, grid.dt
    u_t = (vals[:, 2:] - vals[:, :-2]) / (2.0 * dt)
    u_x = (vals[2:, :] - vals[:-2, :]) / (2.0 * h)
    u_xx = (vals[2:, :] - 2.0 * vals[1:-1, :] + vals[:-2, :]) / (h * h)

    def _norm(arr, xmask, tmask):
        sub = np.abs(arr[xmask, :][:, tmask])
        return float((np.sum(sub ** p) * h * dt) ** (1.0 / p))

    return {
        "u_t": _norm(u_t, xm, tm[1:-1]),
        "u_x": _norm(u_x, xm[1:-1], tm),
        "u_xx": _norm(u_xx, xm[1:-1], tm),
        "u_xx_max": float(np.max(np.abs(u_xx[xm[1:-1], :][:, tm]))),
    }


def sobolev_stability(surfaces, p, window, t0=0.0):
    """Compare difference-quotient norms across refinement levels.

    Returns per-level :func:`parabolic_norms` tables plus, for each
    quantity, the ratio of the extreme values across levels; stability
    means the integral norms stay within a factor ~2 while the pointwise
    max is allowed to grow.
    """
    tables = [parabolic_norms(s, p, window, t0) for s in surfaces]
    ratios = {}
    for key in ("u_t", "u_x", "u_xx"):
        vals = [t[key] for t in tables]
        lo, hi = min(vals), max(vals)
        ratios[key] = float(hi / lo) if lo > 0 else np.inf
    return {"levels": tables, "ratios": ratios,
            "max_growth": [t["u_xx_max"] for t in tables]}


def test_01_jump_operator_identities():
    start = time.perf_counter()
    grid = SpaceTimeGrid(-2.0, 2.0, 1.5, 280, 1.0, 10)

    def both_sides(model, f, lo, hi):
        return levy.integrate_density(model, lambda t: f(t), lo, hi,
                                      side="+") + \
            levy.integrate_density(model, lambda t: f(-t), lo, hi, side="-")

    for name, model in JUMP_FAMILIES.items():
        op = build_operator(model, grid)
        reach = op.radius + 2.0
        big_mean = both_sides(model, lambda y: y, 1.0, reach)
        full_var = both_sides(model, lambda y: y * y, 0.0, reach)

        def gf(fn):
            return GridFunction(grid, fn(grid.nodes),
                                extension="clamp_payoff", payoff=fn)

        out_const = apply_nonlocal(op, gf(lambda x: np.ones_like(x)))
        assert np.max(np.abs(out_const)) <= 1e-6, name

        out_lin = apply_nonlocal(op, gf(lambda x: x))
        tol = 1e-6 * max(1.0, abs(big_mean))
        assert np.max(np.abs(out_lin - big_mean)) <= tol, name

        out_sq = apply_nonlocal(op, gf(lambda x: x * x))
        want = full_var + 2.0 * grid.nodes * big_mean
        tol = 1e-6 * max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(out_sq - want)) <= tol, name

        probe = gf(lambda x: np.sin(1.3 * x) + 0.3 * x * x)
        full = apply_nonlocal(op, probe)
        scale = max(1.0, float(np.max(np.abs(full))))
        # cuts on cell edges: half-nodes (k + 1/2) h, and 1
        for cut in (10.5 * grid.h, 20.5 * grid.h, 1.0):
            small, large = apply_nonlocal_split(op, probe, cut)
            assert np.max(np.abs(small + large - full)) <= 1e-6 * scale, \
                (name, cut)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"operator identities took {elapsed:.1f}s (cap 5s)"


def test_02_penalty_template_properties():
    start = time.perf_counter()
    depth = -2.0
    ys = np.linspace(-1.0, 1.0, 10_000)
    for eps in (0.2, 0.1, 0.05, 0.025):
        spec = penalty.build(eps, depth)
        vals = spec.value(ys)
        assert np.all(vals <= 0.0), "nonpositive"
        assert np.all(np.diff(vals) >= -1e-12), "nondecreasing"
        assert abs(spec.value(0.0) - depth) <= 1e-12, "anchor at zero"
        assert np.all(np.diff(vals, 2) <= 1e-9), "concave"
        assert np.all(vals[ys >= eps] == 0.0), "vanishes beyond the band"
        assert 0.5 * spec.eps + spec.kernel_width <= eps

    shrinking = (0.4, 0.2, 0.1, 0.05, 0.025, 0.0125)
    at_plus = [penalty.build(e, depth).value(0.3) for e in shrinking]
    at_minus = [penalty.build(e, depth).value(-0.3) for e in shrinking]
    assert all(v == 0.0 for v in at_plus), "limit is zero above the band"
    assert all(b < a for a, b in zip(at_minus, at_minus[1:])), \
        "limit diverges monotonically below"
    assert at_minus[-1] < 10.0 * depth
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"penalty properties took {elapsed:.2f}s (cap 1s)"


def test_03_solution_bounds_at_default_scale():
    start = time.perf_counter()
    model = JUMP_FAMILIES["merton"]
    grid = SpaceTimeGrid(-0.5, 0.5, 1.5, 400, 1.0, 200)
    cfg = SolveConfig(grid, model, risk_neutral_coeffs(model), PUT,
                      mode="penalized")
    report = solve_vi(cfg)
    checks = diagnostics.lemma_suite(report, PUT, grid)
    assert {"lower_bound", "upper_bound", "obstacle", "penalty_lower",
            "penalty_upper"} <= set(checks)
    failed = [k for k, v in checks.items() if not v.passed]
    assert failed == [], failed
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"default-scale solve took {elapsed:.1f}s (cap 30s)"


def test_04_european_reference_prices():
    start = time.perf_counter()
    grid = SpaceTimeGrid(-0.5, 0.5, 1.5, 400, 1.0, 800)

    cfg = SolveConfig(grid, levy.none(),
                      CoefficientField.constants(DIFF, RATE - DIFF, RATE),
                      PUT, mode="european")
    report = solve_european(cfg)
    for x in PROBES:
        want = oracles.bs_put(math.exp(x), 1.0, RATE, SIG, 1.0)
        got = value_now_at(report, grid, x)
        assert abs(got - want) / want <= 2e-3, f"x={x}"

    model = JUMP_FAMILIES["merton"]
    cfg = SolveConfig(grid, model, risk_neutral_coeffs(model), PUT,
                      mode="european")
    report = solve_european(cfg)
    for x in PROBES:
        want = oracles.merton_put(math.exp(x), 1.0, RATE, SIG, 1.0,
                                  1.5, -0.05, 0.25)
        got = value_now_at(report, grid, x)
        assert abs(got - want) / want <= 5e-3, f"x={x}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"European oracles took {elapsed:.1f}s (cap 30s)"


def test_05_american_tree_reference():
    start = time.perf_counter()
    grid = SpaceTimeGrid(-0.5, 0.5, 1.5, 400, 1.0, 800)
    cfg = SolveConfig(grid, levy.none(),
                      CoefficientField.constants(DIFF, RATE - DIFF, RATE),
                      PUT, mode="projected")
    report = solve_vi(cfg)
    for s0, cap in ((1.0, 2e-3), (0.8, 5e-3), (1.2, 5e-3)):
        want = oracles.binomial_put(s0, 1.0, RATE, SIG, 1.0, steps=5000)
        got = value_now_at(report, grid, math.log(s0))
        assert abs(got - want) / want <= cap, f"s0={s0}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"tree comparison took {elapsed:.1f}s (cap 60s)"


def test_06_continuation_deltas_shrink():
    strike = 2.0
    model = JUMP_FAMILIES["merton"]
    grid = SpaceTimeGrid(0.2, 1.2, 1.5, 300, 0.5, 300)
    cfg = SolveConfig(grid, model, risk_neutral_coeffs(model),
                      payoff.put(strike),
                      eps_schedule=(0.2, 0.1, 0.05, 0.025, 0.0125),
                      mode="penalized")
    report = solve_vi(cfg)
    deltas = report.eps_trace
    assert len(deltas) == 4
    assert all(b < a for a, b in zip(deltas, deltas[1:])), deltas
    assert deltas[-1] <= 5e-3 * strike, deltas[-1]


def test_07_gradient_matching_at_boundary():
    start = time.perf_counter()

    def refinement_study(model, base_nx, base_nt, plan_budget):
        coeffs = risk_neutral_coeffs(model)
        gaps, grad = [], 0.0
        for k in range(3):
            nx = base_nx * 2 ** k
            if plan_budget:
                probe = SpaceTimeGrid(-0.5, 0.5, 1.5, nx, 0.5, base_nt)
                nt = plan_steps(probe, model, coeffs, PUT)
            else:
                nt = base_nt * 2 ** k
            grid = SpaceTimeGrid(-0.5, 0.5, 1.5, nx, 0.5, nt)
            cfg = SolveConfig(grid, model, coeffs, PUT, mode="projected")
            report = solve_vi(cfg)
            u = report.value
            regions = diagnostics.partition(u, PUT, contact_tol(cfg, None))
            fit = diagnostics.smooth_fit_gap(u, regions)
            assert not fit.unreliable
            gaps.append(fit.max_gap)
            grad = report.residuals["grad_max"]
        assert gaps[1] / gaps[0] <= 0.7, gaps
        assert gaps[2] / gaps[1] <= 0.7, gaps
        assert gaps[-1] <= 1e-2 * grad, (gaps[-1], grad)

    # singularity order 1 (infinite variation), and order 1.5 with the step
    # count from plan_steps, where the h/4 cap sets it (nt 100/200/400)
    refinement_study(JUMP_FAMILIES["nig"], 320, 80, plan_budget=False)
    refinement_study(JUMP_FAMILIES["ts_super"], 200, 25, plan_budget=True)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"gradient study took {elapsed:.1f}s (cap 5min)"


def test_08_complementarity_residual_refinement(refinement_levels):
    maxima = []
    for cfg, report in refinement_levels:
        res = residual_vi(report.value, cfg)
        maxima.append(float(np.nanmax(np.abs(res.values))))
    assert maxima[0] > maxima[1] > maxima[2], maxima
    cfg, _ = refinement_levels[-1]
    bound = 20.0 * (cfg.grid.h ** 2 + cfg.grid.dt) * PUT.bound
    assert maxima[-1] <= bound, (maxima[-1], bound)


def test_09_second_derivative_norm_stability(refinement_levels):
    surfaces = [report.value for _, report in refinement_levels]
    for p in (2.0, 4.0):
        full = sobolev_stability(surfaces, p, NORM_WINDOW, t0=0.0)
        assert full["ratios"]["u_xx"] <= 2.0, (p, full["ratios"])
        interior = sobolev_stability(surfaces, p, NORM_WINDOW, t0=0.05)
        assert interior["ratios"]["u_xx"] <= 2.0, (p, interior["ratios"])
    # the pointwise max is free to grow -- and does, at the payoff kink
    growth = sobolev_stability(surfaces, 2.0, NORM_WINDOW,
                               t0=0.0)["max_growth"]
    assert growth[0] < growth[1] < growth[2], growth


NORM_FAMILIES = {
    "merton": JUMP_FAMILIES["merton"],
    "kou": JUMP_FAMILIES["kou"],
    "ts_super": JUMP_FAMILIES["ts_super"],
    "ts_alpha05": levy.tempered_stable(0.5, 0.5, 0.5, 0.5, 3.0, 3.0),
    "vg": JUMP_FAMILIES["vg"],
}


@pytest.mark.parametrize("name", sorted(NORM_FAMILIES))
def test_09_norms_with_jumps_stay_flat_local_in_time(name):
    # the theorem is local in time: from t0 > 0 the L^p norms of u_t, u_x
    # and u_xx stay flat under refinement (every ratio <= 1.031 measured)
    model = NORM_FAMILIES[name]
    levels = projected_levels(model, risk_neutral_coeffs(model))
    surfaces = [report.value for _, report in levels]
    for p in (2.0, 4.0):
        ratios = sobolev_stability(surfaces, p, NORM_WINDOW,
                                   t0=0.05)["ratios"]
        assert max(ratios.values()) <= 1.1, (p, ratios)


def test_10_path_lower_bound_consistency():
    start = time.perf_counter()
    horizon = 1.0
    for name, seed0 in (("merton", 100), ("nig", 200)):
        model = JUMP_FAMILIES[name]
        coeffs = risk_neutral_coeffs(model)
        grid = SpaceTimeGrid(-0.5, 0.5, 1.5, 300, horizon, 300)
        cfg = SolveConfig(grid, model, coeffs, PUT, mode="projected")
        american = solve_vi(cfg)
        european = solve_european(SolveConfig(grid, model, coeffs, PUT,
                                              mode="european"))
        # stop on the projected solve's own contact set
        rule = diagnostics.stopping_rule(american.value, PUT,
                                         contact_tol(cfg, None))
        for k, x in enumerate(PROBES):
            value = mc.stopping_lower_bound(PUT, RATE, rule)
            mc.simulate(model, coeffs, x, horizon, 100_000, 64, seed0 + k,
                        watchers=[value])
            est = value.result
            pde = value_now_at(american, grid, x)
            pde_euro = value_now_at(european, grid, x)
            assert pde >= est.price - 4.0 * est.stderr, \
                (name, x, pde, est.price, est.stderr)
            assert pde >= pde_euro - 1e-12, (name, x)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"path consistency took {elapsed:.1f}s (cap 2min)"


def test_11_artifact_determinism(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({
        "problem": {"family": "merton", "jump_params": [1.5, -0.05, 0.25],
                    "sigma": SIG, "rate": RATE, "horizon": 0.5},
        "numerics": {"nx": 120, "nt": 120,
                     "eps_schedule": [0.2, 0.1, 0.05], "mode": "penalized"},
        "oracle": {"mc_paths": 12000, "mc_steps": 16, "seed": 31,
                   "probes": [0.0]},
        "output": {"out_dir": str(tmp_path / "out")},
    }))
    names = ("surface.csv", "boundary.csv", "diagnostics.json",
             "summary.txt", "effective_config.json")
    import io
    assert harness.run(cfg_path, stream=io.StringIO()) == 0
    first = {n: (tmp_path / "out" / n).read_bytes() for n in names}
    assert harness.run(cfg_path, stream=io.StringIO()) == 0
    for n in names:
        assert (tmp_path / "out" / n).read_bytes() == first[n], n
