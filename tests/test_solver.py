"""Time-stepping solver: exactness cases, oracle comparisons, invariants.

Expected numbers come from independent oracles computed first and frozen:
the closed-form heat kernel decay, the Black-Scholes put formula, a
5000-step binomial tree, and the jump-mixture put series (tests/test_oracles).
"""

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import solve_banded

from jumpstop import diagnostics, generator, levy, payoff, solver
from jumpstop.errors import ConfigError, NumericalError
from jumpstop.grids import (CoefficientField, GridFunction, PayoffGhosts,
                            SpaceTimeGrid, extend_slice)
from jumpstop.solver import (SolveConfig, contact_tol, plan_steps,
                             residual_vi, solve_european, solve_vi,
                             stability_fraction)

SIG = 0.2
R = 0.04
A = 0.5 * SIG * SIG

ZERO_PAYOFF = payoff.tabulated([-50.0, 50.0], [0.0, 0.0])


def diffusion_coeffs():
    return CoefficientField.constants(A, R - A, R)


def merton_setup():
    mod = levy.merton(1.5, -0.05, 0.25)
    b = R - A - levy.exp_compensator(mod)
    return mod, CoefficientField.constants(A, b, R)


@pytest.fixture(scope="module")
def merton_penalized_report():
    mod, coeffs = merton_setup()
    grid = SpaceTimeGrid(-0.5, 0.5, 1.5, 300, 0.5, 300)
    cfg = SolveConfig(grid, mod, coeffs, payoff.put(1.0),
                      eps_schedule=(0.2, 0.1, 0.05), mode="penalized")
    return cfg, solve_vi(cfg)


@pytest.fixture(scope="module")
def diffusion_american():
    grid = SpaceTimeGrid(-0.5, 0.5, 1.0, 400, 1.0, 800)
    cfg = SolveConfig(grid, levy.none(), diffusion_coeffs(), payoff.put(1.0),
                      mode="projected")
    return cfg, solve_vi(cfg)


# ---------------------------------------------------------------------------
# configuration validation


def test_config_rejects_bad_mode():
    grid = SpaceTimeGrid(-1.0, 1.0, 1.0, 16, 1.0, 4)
    coeffs = diffusion_coeffs()
    with pytest.raises(ConfigError):
        SolveConfig(grid, levy.none(), coeffs, payoff.put(1.0), mode="magic")


def test_config_rejects_bad_schedules():
    grid = SpaceTimeGrid(-1.0, 1.0, 1.0, 64, 1.0, 64)
    coeffs = diffusion_coeffs()
    g = payoff.put(1.0)
    with pytest.raises(ConfigError):
        SolveConfig(grid, levy.none(), coeffs, g, eps_schedule=())
    with pytest.raises(ConfigError):
        SolveConfig(grid, levy.none(), coeffs, g, eps_schedule=(0.1, 0.2))
    with pytest.raises(ConfigError):
        SolveConfig(grid, levy.none(), coeffs, g, eps_schedule=(0.5, 1.2))
    with pytest.raises(ConfigError):
        SolveConfig(grid, levy.none(), coeffs, g, eps_schedule=(0.1, 5e-5))


def test_config_rejects_overrides_outside_european():
    grid = SpaceTimeGrid(-1.0, 1.0, 1.0, 16, 1.0, 4)
    with pytest.raises(ConfigError):
        SolveConfig(grid, levy.none(), diffusion_coeffs(), payoff.put(1.0),
                    mode="projected", initial=np.sin)


def test_stability_budget_enforced_and_suggestion_consistent():
    # a stiff penalty slope with one huge time step must be rejected
    grid = SpaceTimeGrid(-0.5, 0.5, 1.0, 100, 1.0, 2)
    mod, coeffs = merton_setup()
    with pytest.raises(ConfigError, match="nt") as err:
        SolveConfig(grid, mod, coeffs, payoff.put(1.0),
                    eps_schedule=(0.05, 0.0125), mode="penalized")
    # the count the message names is accepted, and plan_steps (with its
    # safety margin) asks for at least as many
    named = int(re.search(r"need nt >= (\d+) ", str(err.value)).group(1))
    ok = SolveConfig(
        SpaceTimeGrid(-0.5, 0.5, 1.0, 100, 1.0, named), mod, coeffs,
        payoff.put(1.0), eps_schedule=(0.05, 0.0125), mode="penalized")
    assert stability_fraction(ok) <= 1.0
    nt = plan_steps(grid, mod, coeffs, payoff.put(1.0),
                    eps_schedule=(0.05, 0.0125))
    assert named <= nt
    ok = SolveConfig(
        SpaceTimeGrid(-0.5, 0.5, 1.0, 100, 1.0, nt), mod, coeffs,
        payoff.put(1.0), eps_schedule=(0.05, 0.0125), mode="penalized")
    assert stability_fraction(ok) <= 1.0


def test_plan_steps_counts_frozen():
    # h = 0.015 and T = 0.5: the dt <= h/4 cap asks for 134 steps; the
    # implicit core leaves the far mass and the penalty to the budget,
    # which binds in the last case.  Explicit drift keeps the counts
    # independent of the jump compensator
    coeffs = CoefficientField.constants(0.02, 0.01, 0.04)
    grid = SpaceTimeGrid(-0.5, 0.5, 1.0, 200, 0.5, 10)
    ts = levy.tempered_stable(0.2, 0.2, 1.5, 1.5, 3.0, 3.0)
    mer = levy.merton(1.5, -0.05, 0.25)
    put = payoff.put(1.0)
    assert plan_steps(grid, ts, coeffs, put) == 134
    assert plan_steps(grid, mer, coeffs, put,
                      eps_schedule=(0.05, 0.0125)) == 134
    assert plan_steps(grid, mer, coeffs, put,
                      eps_schedule=(0.05, 0.001)) == 250


def test_plan_steps_fits_the_config_budget():
    # the planner and a built config use one rate: a planned penalized
    # config whose budget binds sits at the safety fraction
    coeffs = CoefficientField.constants(0.02, 0.01, 0.04)
    grid = SpaceTimeGrid(-0.5, 0.5, 1.0, 200, 0.5, 10)
    mer = levy.merton(1.5, -0.05, 0.25)
    safety = solver._PLAN_SAFETY
    nt = plan_steps(grid, mer, coeffs, payoff.put(1.0),
                    eps_schedule=(0.05, 0.001))
    assert nt > grid.t_final / (0.25 * grid.h)
    cfg = SolveConfig(SpaceTimeGrid(-0.5, 0.5, 1.0, 200, 0.5, nt), mer,
                      coeffs, payoff.put(1.0), eps_schedule=(0.05, 0.001),
                      mode="penalized")
    assert safety * (nt - 1) / nt < stability_fraction(cfg) <= safety


def _kernels(op):
    # the cell bounds and means, rebuilt from the operator's model, grid
    # step and radius
    cell_lo, cell_hi, _, cell_mean, _ = generator._build_cells(
        op.model, generator._cell_edges(op.h, op.y_core, op.radius))
    return (op.k_min, op.far_kernel, op.corr_kernel, op.core_stencil,
            cell_lo, cell_hi, op.cell_mass, cell_mean)


def _same_operator(a, b):
    return all(np.array_equal(x, y)
               for x, y in zip(_kernels(a), _kernels(b)))


@pytest.mark.parametrize("mode", ["projected", "european"])
def test_operator_and_surface_do_not_read_the_eps_schedule(mode,
                                                           monkeypatch):
    # h = 1/30 puts 0.1, 0.2 and 0.3 on grid nodes, inside jump cells:
    # the operator is a function of the model and the grid alone, and
    # plan_steps sizes the one the solve marches
    built = []
    real = generator.build_operator

    def spy(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]
    monkeypatch.setattr(solver.generator, "build_operator", spy)
    mod, coeffs = merton_setup()
    grid = SpaceTimeGrid(-0.5, 0.5, 1.5, 120, 0.5, 40)
    solve = solve_vi if mode == "projected" else solve_european
    cfgs = [SolveConfig(grid, mod, coeffs, payoff.put(1.0), mode=mode,
                        eps_schedule=schedule)
            for schedule in ((0.2, 0.1, 0.05), (0.3,))]
    assert _same_operator(cfgs[0].op, cfgs[1].op)
    assert solve(cfgs[0]).value.values.tobytes() == \
        solve(cfgs[1]).value.values.tobytes()
    plan_steps(grid, mod, coeffs, payoff.put(1.0))
    assert len(built) == 3 and _same_operator(built[-1], cfgs[0].op)


@pytest.mark.parametrize("mode", ["projected", "european"])
def test_surface_is_time_homogeneous(mode):
    # the surface is indexed by time to expiry, so with constant
    # coefficients a horizon of 1 in 200 steps read at level m is a
    # horizon of 0.5 in 100 steps read at level m, bit for bit
    mod = levy.tempered_stable(0.2, 0.2, 1.5, 1.5, 3.0, 3.0)
    coeffs = CoefficientField.constants(A, R - A - levy.exp_compensator(mod),
                                        R)
    solve = solve_vi if mode == "projected" else solve_european
    long, short = (solve(SolveConfig(SpaceTimeGrid(-0.5, 0.5, 1.5, 200, t, nt),
                                     mod, coeffs, payoff.put(1.0), mode=mode))
                   for t, nt in ((1.0, 200), (0.5, 100)))
    assert long.value.values[:, :101].tobytes() == short.value.values.tobytes()


def test_plan_steps_caps_the_step_at_a_quarter_grid_step():
    # far mass alone would allow about 122 steps for ts15 at nx = 400
    coeffs = CoefficientField.constants(0.02, 0.01, 0.04)
    ts = levy.tempered_stable(0.2, 0.2, 1.5, 1.5, 3.0, 3.0)
    for nx in (60, 200, 400, 800):
        grid = SpaceTimeGrid(-1.0, 1.0, 1.0, nx, 1.0, 10)
        assert plan_steps(grid, ts, coeffs, payoff.put(1.0)) == nx


def test_mode_mismatch_rejected():
    grid = SpaceTimeGrid(-1.0, 1.0, 1.0, 32, 0.5, 16)
    cfg_p = SolveConfig(grid, levy.none(), diffusion_coeffs(),
                        payoff.put(1.0), mode="projected")
    with pytest.raises(ConfigError):
        solve_european(cfg_p)
    cfg_e = SolveConfig(grid, levy.none(), diffusion_coeffs(),
                        payoff.put(1.0), mode="european")
    with pytest.raises(ConfigError):
        solve_vi(cfg_e)


# ---------------------------------------------------------------------------
# exactness cases


def test_constant_data_is_a_fixed_point():
    # flat reward, zero rates: every step must reproduce the constant
    c = 0.7
    flat = payoff.tabulated([-50.0, 50.0], [c, c])
    grid = SpaceTimeGrid(-1.0, 1.0, 1.0, 40, 1.0, 12)
    coeffs = CoefficientField.constants(1.0, 0.0, 0.0)
    cfg = SolveConfig(grid, levy.none(), coeffs, flat, mode="european")
    rep = solve_european(cfg)
    assert np.max(np.abs(rep.value.values - c)) < 1e-13


def test_zero_obstacle_projected_stays_zero():
    mod, coeffs = merton_setup()
    grid = SpaceTimeGrid(-1.0, 1.0, 1.0, 60, 0.5, 40)
    cfg = SolveConfig(grid, mod, coeffs, ZERO_PAYOFF, mode="projected")
    rep = solve_vi(cfg)
    assert np.all(rep.value.values == 0.0)


def test_terminal_condition_exact(diffusion_american):
    cfg, rep = diffusion_american
    g = payoff.put(1.0)(cfg.grid.nodes)
    assert np.array_equal(rep.value.values[:, 0], g)


def test_penalized_initial_slice_is_mollified_obstacle(merton_penalized_report):
    cfg, rep = merton_penalized_report
    g_eps = payoff.mollify(cfg.payoff, 0.5 * rep.eps_final)(cfg.grid.nodes)
    assert np.array_equal(rep.value.values[:, 0], g_eps)


# ---------------------------------------------------------------------------
# oracle comparisons (expected values frozen from tests/test_oracles.py)


def test_heat_kernel_decay_rate():
    # pure diffusion, initial sin(x) on a span with zero values at the
    # padded edges: exact solution exp(-s) sin(x)
    pi = math.pi
    errs = []
    for nx, nt in [(128, 400), (256, 800)]:
        grid = SpaceTimeGrid(-pi + 1.5, pi - 1.5, 1.5, nx, 0.5, nt)
        cfg = SolveConfig(grid, levy.none(),
                          CoefficientField.constants(1.0, 0.0, 0.0),
                          ZERO_PAYOFF, mode="european", initial=np.sin)
        rep = solve_european(cfg)
        exact = math.exp(-0.5) * np.sin(grid.nodes)
        err = float(np.max(np.abs(rep.value.values[:, -1] - exact)))
        errs.append(err)
        assert err < grid.h ** 2 + grid.dt
    assert errs[1] < 0.6 * errs[0]


def test_european_put_matches_closed_form():
    grid = SpaceTimeGrid(-0.5, 0.5, 1.0, 400, 1.0, 800)
    cfg = SolveConfig(grid, levy.none(), diffusion_coeffs(), payoff.put(1.0),
                      mode="european")
    rep = solve_european(cfg)
    i0 = int(np.argmin(np.abs(grid.nodes)))
    want = 0.06003997632506752  # closed form, frozen
    assert rep.value.values[i0, -1] == pytest.approx(want, rel=2e-3)


def test_american_put_matches_binomial_atm(diffusion_american):
    cfg, rep = diffusion_american
    i0 = int(np.argmin(np.abs(cfg.grid.nodes)))
    want = 0.06403947802179197  # 5000-step binomial tree, frozen
    assert rep.value.values[i0, -1] == pytest.approx(want, rel=2e-3)


def test_american_dominates_european_and_obstacle(diffusion_american):
    cfg, rep = diffusion_american
    grid = cfg.grid
    cfg_e = SolveConfig(grid, levy.none(), diffusion_coeffs(),
                        payoff.put(1.0), mode="european")
    rep_e = solve_european(cfg_e)
    g = payoff.put(1.0)(grid.nodes)
    assert np.all(rep.value.values >= rep_e.value.values - 1e-12)
    assert np.all(rep.value.values >= g[:, None] - 1e-12)


def test_jump_european_put_matches_series():
    mod, coeffs = merton_setup()
    grid = SpaceTimeGrid(-0.5, 0.5, 1.5, 300, 1.0, 400)
    cfg = SolveConfig(grid, mod, coeffs, payoff.put(1.0), mode="european")
    rep = solve_european(cfg)
    i0 = int(np.argmin(np.abs(grid.nodes)))
    want = 0.11765465521320372  # mixture series, frozen
    assert rep.value.values[i0, -1] == pytest.approx(want, rel=5e-3)


# ---------------------------------------------------------------------------
# penalized runs: schedule behavior and bounds


def test_eps_trace_decreasing_no_warnings(merton_penalized_report):
    _, rep = merton_penalized_report
    assert len(rep.eps_trace) == 2
    assert rep.eps_trace[1] < rep.eps_trace[0]
    assert rep.warnings == []
    assert rep.eps_final == 0.05


class _PerEpsWorkspace:
    """One column of the march as a march of its own: the obstacle, far
    field and initial data of one width, with the band factor of the
    block workspace (which no width changes)."""

    def __init__(self, cfg, eps):
        self.cfg, self.x, self.dt = cfg, cfg.grid.nodes, cfg.grid.dt
        self.bc_fn = cfg.payoff if eps is None else \
            payoff.mollify(cfg.payoff, 0.5 * eps)
        self.obstacle = np.asarray(self.bc_fn(self.x), dtype=float)
        self.ghosts = PayoffGhosts(cfg.grid, self.bc_fn,
                                   solver._edge_discount(cfg))
        self.initial = self.obstacle if cfg.initial is None else \
            np.asarray(cfg.initial(self.x), dtype=float)
        self.factor = solver._Workspace(cfg, (eps,)).factor


def _one_step_per_eps(ws, v_now, n, pspec):
    """One step of one column: the far field re-read and extended at
    every step, the penalty of one width, a one-column band solve."""
    cfg, dt, ghosts = ws.cfg, ws.dt, ws.ghosts
    s_now, s_new = n * dt, (n + 1) * dt
    ng = generator.NEAR_GHOSTS
    near = extend_slice(cfg.grid, v_now, "clamp_payoff", ghosts, ng, ng,
                        ghosts.discount(s_now))
    rhs = v_now + dt * generator.apply_nonlocal_grid(
        cfg.op, near, "monotone",
        generator.ghost_term(cfg.op, ghosts, "monotone", s_now), core=False)
    if pspec is not None:
        rhs -= dt * pspec.value(v_now - ws.obstacle)
    if cfg.source is not None:
        rhs += dt * np.asarray(cfg.source(ws.x, s_now), dtype=float)
    rhs += dt * generator.ghost_term(cfg.op, ghosts, "core", s_new)
    dl, dr = ghosts.discount(s_new)
    rhs[0], rhs[-1] = float(ws.obstacle[0]) * dl, float(ws.obstacle[-1]) * dr
    lu, piv = ws.factor(s_new)
    v_new, info = solver.dgbtrs(lu, 3, 3, rhs, piv)
    assert info == 0 and np.all(np.isfinite(v_new))
    if cfg.mode == "projected":
        v_new = np.maximum(v_new, ws.obstacle)
    return v_new


def _march_per_eps(cfg, eps):
    """The full surface of one column, marched alone."""
    ws = _PerEpsWorkspace(cfg, eps)
    pspec = None if eps is None else solver.penalty_mod.build(eps, cfg.anchor)
    surface = np.empty((cfg.grid.nx + 1, cfg.grid.nt + 1))
    surface[:, 0] = ws.initial
    v = ws.initial.copy()
    for n in range(cfg.grid.nt):
        v = _one_step_per_eps(ws, v, n, pspec)
        surface[:, n + 1] = v
    return surface, ws, pspec


def _solve_per_eps(cfg):
    """The continuation one width at a time, every surface stored, with
    its report fields computed here: the reference for the one-block
    march.  Holds two full surfaces at once, as a per-width loop must to
    take the delta."""
    h = cfg.grid.h
    prev, trace, grads = None, [], []
    for eps in (cfg.eps_schedule if cfg.mode == "penalized" else (None,)):
        surface, ws, pspec = _march_per_eps(cfg, eps)
        if prev is not None:
            trace.append(float(np.max(np.abs(surface - prev))))
        grads.append(float(
            (np.abs(surface[2:, :] - surface[:-2, :]) / (2.0 * h)).max()))
        prev = surface
    residuals = {"v_min": float(surface.min()),
                 "v_max": float(surface.max()), "grad_max": grads[-1]}
    if pspec is not None:
        gap = surface - ws.obstacle[:, None]
        pen = pspec.value(gap)
        residuals.update(penalty_min=float(pen.min()),
                         penalty_max=float(pen.max()),
                         obstacle_gap=float(gap.min()))
    warnings = ["eps continuation: last sup-norm delta did not decrease"] \
        if len(trace) >= 2 and trace[-1] >= trace[-2] else []
    return {"value": surface, "residuals": residuals, "eps_trace": trace,
            "grad_max_per_eps": grads if pspec is not None else [],
            "warnings": warnings, "eps_final": eps}


def _assert_report_is_the_report_per_eps(cfg):
    got, want = solve_vi(cfg), _solve_per_eps(cfg)
    for name in ("residuals", "eps_trace", "grad_max_per_eps", "warnings",
                 "eps_final"):
        a, b = getattr(got, name), want[name]
        assert a == b, name
        # equal floats, and equal bits (no -0.0 for 0.0)
        assert repr(a) == repr(b), name
    assert got.value.values.tobytes() == want["value"].tobytes()
    assert got.value.payoff.eps == 0.5 * cfg.eps_schedule[-1]


@pytest.mark.parametrize("schedule", [(0.2, 0.1, 0.05),
                                      (0.05, 0.025, 0.0125, 0.00625),
                                      (0.2, 0.19, 0.1), (0.1,)])
def test_one_report_is_the_report_per_eps_bit_for_bit(schedule):
    # the one-block march against each width marched alone;
    # (0.2, 0.19, 0.1) has a growing trace tail, so a warning is
    # compared too
    mod, coeffs = merton_setup()
    grid = SpaceTimeGrid(-0.5, 0.5, 1.5, 80, 0.5, 120)
    _assert_report_is_the_report_per_eps(SolveConfig(
        grid, mod, coeffs, payoff.put(1.0), eps_schedule=schedule,
        mode="penalized"))


def test_time_dependent_block_march_is_the_march_per_eps_bit_for_bit():
    # time-dependent coefficients: one factor per level, shared by every
    # width
    mod, _ = merton_setup()
    grid = SpaceTimeGrid(-0.5, 0.5, 1.0, 60, 0.5, 200)
    _assert_report_is_the_report_per_eps(SolveConfig(
        grid, mod, _varying_coeffs(), payoff.put(1.0),
        eps_schedule=(0.2, 0.1, 0.05, 0.025), mode="penalized"))


@pytest.mark.parametrize("mode", ["projected", "european"])
@pytest.mark.parametrize("varying", [False, True])
def test_one_column_march_is_the_march_alone_bit_for_bit(mode, varying):
    mod, coeffs = merton_setup()
    if varying:
        coeffs = _varying_coeffs()
    grid = SpaceTimeGrid(-0.5, 0.5, 1.0, 60, 0.5, 80)
    extra = {} if mode == "projected" else {
        "source": lambda x, s: 0.1 * np.sin(x) * s,
        "initial": lambda x: np.maximum(1.0 - np.exp(x), 0.0) + 0.01}
    cfg = SolveConfig(grid, mod, coeffs, payoff.put(1.0), mode=mode,
                      **extra)
    got = (solve_vi if mode == "projected" else solve_european)(cfg)
    want = _solve_per_eps(cfg)
    assert got.residuals == want["residuals"]
    assert got.value.values.tobytes() == want["value"].tobytes()


def test_eps_trace_is_the_sup_norm_of_either_sign(monkeypatch):
    # column k of the block is lifted by k after every step, so each
    # delta peaks where the newer column lies above the older one
    real = solver._one_step
    seen = []

    def lifted(ws, v, n, pspec):
        lift = np.arange(v.shape[1], dtype=float)
        if n == 0:
            seen.append(v.copy())
        out = real(ws, v - lift if n else v, n, pspec) + lift
        seen.append(out.copy())
        return out
    monkeypatch.setattr(solver, "_one_step", lifted)
    mod, coeffs = merton_setup()
    grid = SpaceTimeGrid(-0.5, 0.5, 1.5, 60, 0.5, 30)
    cfg = SolveConfig(grid, mod, coeffs, payoff.put(1.0),
                      eps_schedule=(0.2, 0.1, 0.05), mode="penalized")
    trace = solve_vi(cfg).eps_trace
    levels = np.stack(seen)
    assert levels.shape == (grid.nt + 1, grid.nx + 1, 3)
    assert trace == [float(np.max(np.abs(levels[..., k + 1] -
                                         levels[..., k])))
                     for k in range(2)]
    assert min(trace) > 1.0


def test_penalized_solve_reads_no_full_surface_penalty(monkeypatch):
    # the march evaluates the penalty once per step, on the level of
    # every width at once; the report reads it only at the least and the
    # greatest gap, where a nondecreasing penalty takes its extrema
    shapes = []
    real = solver.penalty_mod.PenaltySpec.value

    def spy(self, y):
        shapes.append(np.shape(y))
        return real(self, y)
    monkeypatch.setattr(solver.penalty_mod.PenaltySpec, "value", spy)
    mod, coeffs = merton_setup()
    grid = SpaceTimeGrid(-0.5, 0.5, 1.5, 60, 0.5, 30)
    cfg = SolveConfig(grid, mod, coeffs, payoff.put(1.0),
                      eps_schedule=(0.2, 0.1, 0.05, 0.025),
                      mode="penalized")
    solve_vi(cfg)
    assert shapes == [(grid.nx + 1, 4)] * grid.nt + [()] * 2


@pytest.mark.parametrize("varying", [False, True])
def test_block_march_steps_nt_times_and_factors_once_per_stencil(
        varying, monkeypatch):
    counts = {"step": 0, "dgbtrf": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper
    monkeypatch.setattr(solver, "_one_step",
                        counted("step", solver._one_step))
    monkeypatch.setattr(solver, "dgbtrf", counted("dgbtrf", solver.dgbtrf))
    mod, coeffs = merton_setup()
    if varying:
        coeffs = _varying_coeffs()
    grid = SpaceTimeGrid(-0.5, 0.5, 1.5, 60, 0.5, 30)
    cfg = SolveConfig(grid, mod, coeffs, payoff.put(1.0),
                      eps_schedule=(0.2, 0.1, 0.05, 0.025),
                      mode="penalized")
    solve_vi(cfg)
    assert counts["step"] == grid.nt
    # one stencil per march, or one per new level when the coefficients
    # depend on time
    assert counts["dgbtrf"] == (grid.nt if varying else 1)


def test_block_march_peaks_no_higher_than_the_march_per_eps():
    mod, coeffs = merton_setup()
    grid = SpaceTimeGrid(-0.5, 0.5, 1.5, 120, 0.5, 80)
    cfg = SolveConfig(grid, mod, coeffs, payoff.put(1.0),
                      eps_schedule=(0.2, 0.1, 0.05, 0.025),
                      mode="penalized")
    peaks = []
    for solve in (solve_vi, _solve_per_eps):
        solve(cfg)              # every cache warm
        tracemalloc.start()
        try:
            solve(cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # the reference holds two full surfaces at once, the block march one
    assert peaks[0] <= peaks[1]


def test_modes_agree_within_penalty_accuracy(merton_penalized_report):
    cfg, rep = merton_penalized_report
    cfg_j = SolveConfig(cfg.grid, cfg.model, cfg.coeffs, cfg.payoff,
                        mode="projected")
    rep_j = solve_vi(cfg_j)
    gap = float(np.max(np.abs(rep.value.values - rep_j.value.values)))
    scale = cfg.payoff.bound
    tol = max(2.0 * rep.eps_final,
              5.0 * (cfg.grid.h ** 2 + cfg.grid.dt) * scale)
    assert gap <= tol


def test_lemma_suite_passes(merton_penalized_report):
    cfg, rep = merton_penalized_report
    checks = diagnostics.lemma_suite(rep, cfg.payoff, cfg.grid)
    failed = {k: v for k, v in checks.items() if not v.passed}
    assert not failed, f"failed checks: {failed}"
    assert set(checks) >= {"lower_bound", "upper_bound", "obstacle",
                           "penalty_lower", "penalty_upper",
                           "gradient_spread"}


def test_report_scalars_finite_and_sane(merton_penalized_report):
    cfg, rep = merton_penalized_report
    for key, val in rep.residuals.items():
        assert np.isfinite(val), key
    assert 0.0 <= rep.truncation_mass < 1e-6
    regions = diagnostics.partition(rep.value, cfg.payoff,
                                    contact_tol(cfg, rep.eps_final))
    assert len(regions.boundary) == cfg.grid.nt + 1


def test_boundary_curve_rises_toward_strike(diffusion_american):
    cfg, rep = diffusion_american
    # level n: boundary at time to expiry n*dt, read from today (the
    # last level) on; the put boundary should approach the strike kink
    # (x = 0) as expiry nears
    regions = diagnostics.partition(rep.value, cfg.payoff,
                                    contact_tol(cfg, rep.eps_final))
    first = [b[0] for b in regions.boundary[::-1] if len(b)]
    assert len(first) > cfg.grid.nt // 2
    early = np.median(first[:20])
    late = np.median(first[-20:])
    assert -0.4 < early < late < 0.05


def _free_boundary_per_level(u, payoff_fn, tol):
    """Free-boundary edges and positions level by level and edge by
    edge: the reference for the one-pass :func:`diagnostics.partition`."""
    x = u.grid.nodes
    g = payoff_fn(x)
    edges, boundary = [], []
    for m in range(u.values.shape[1]):
        gap = u.values[:, m] - g
        contact = (gap <= tol) & (g > 0.0)
        level = []
        for i in np.flatnonzero(contact[:-1] != contact[1:]).tolist():
            lo, hi = gap[i] - tol, gap[i + 1] - tol
            if (lo <= 0.0) == (hi <= 0.0):
                continue
            b = x[i] + lo / (lo - hi) * (x[i + 1] - x[i])
            if payoff_fn(b) > 0.0:
                edges.append((i, m))
                level.append(float(b))
        boundary.append(level)
    return edges, boundary


def _smooth_fit_per_edge(u, edges):
    """``(max_gap, median_gap, grad_max, unreliable)`` of
    :func:`diagnostics.smooth_fit_gap`, one level and one edge at a
    time."""
    vals, h, interior = u.values, u.grid.h, u.grid.interior
    gaps, grad_max, unreliable = [], 0.0, False
    for n in range(u.grid.expiry_levels, vals.shape[1]):
        col = vals[:, n]
        grad_max = max(grad_max,
                       float(np.max(np.abs(col[2:] - col[:-2])) / (2 * h)))
        for i in [i for i, m in edges if m == n]:
            if not (interior[i] or interior[i + 1]):
                continue
            if i < 2 or i + 4 >= col.size:
                unreliable = True
                continue
            left = (3.0 * col[i] - 4.0 * col[i - 1] + col[i - 2]) / (2 * h)
            right = (-3.0 * col[i + 1] + 4.0 * col[i + 2] - col[i + 3]) \
                / (2 * h)
            gaps.append(float(abs(left - right)))
    return max(gaps), float(np.median(gaps)), grad_max, unreliable


@pytest.mark.parametrize("x_lo", [-0.5, -0.1])
def test_partition_and_smooth_fit_are_their_per_level_loops(x_lo):
    # with the window from -0.1 the boundary runs in the pad until close
    # to expiry, where smooth fit does not measure it
    grid = SpaceTimeGrid(x_lo, 0.5, 1.0, 200, 1.0, 200)
    cfg = SolveConfig(grid, levy.none(), diffusion_coeffs(), payoff.put(1.0),
                      mode="projected")
    u = solve_vi(cfg).value
    tol = contact_tol(cfg, None)
    regions = diagnostics.partition(u, cfg.payoff, tol)
    edges, boundary = _free_boundary_per_level(u, cfg.payoff, tol)
    assert list(zip(*(e.tolist() for e in regions.edges))) == edges
    in_pad = [not grid.interior[i] for i, _ in edges]
    assert any(in_pad) == (x_lo == -0.1) and not all(in_pad)
    assert [b.tolist() for b in regions.boundary] == boundary
    fit = diagnostics.smooth_fit_gap(u, regions)
    assert (fit.max_gap, fit.median_gap, fit.grad_max, fit.unreliable) == \
        _smooth_fit_per_edge(u, edges)


def test_smooth_fit_measures_across_the_partition_edges(diffusion_american):
    # smooth_fit_gap reads the partition's free-boundary edges, not its
    # labels: blanking the labels changes nothing, and with no edges
    # there is nothing to measure
    cfg, rep = diffusion_american
    u = rep.value
    regions = diagnostics.partition(u, cfg.payoff, contact_tol(cfg, None))
    fit = diagnostics.smooth_fit_gap(u, regions)
    assert fit.max_gap > fit.median_gap > 0.0
    blank = dataclasses.replace(regions,
                                labels=np.ones_like(regions.labels))
    assert diagnostics.smooth_fit_gap(u, blank) == fit
    i, m = regions.edges
    bare = diagnostics.smooth_fit_gap(
        u, dataclasses.replace(regions, edges=(i[:0], m[:0])))
    assert (bare.max_gap, bare.median_gap, bare.grad_max) == \
        (0.0, 0.0, fit.grad_max)


# Alili & Kyprianou (Ann. Appl. Probab. 15, 2005): the put's value fits
# the payoff smoothly exactly when 0 is regular for (-inf, 0).  Bounded
# variation jumps with a positive drift and no diffusion break that; at
# sigma = 0.005 the diffusion's layer, about a / b, is narrower than
# every cell up to nx 800, so the grid sees the kink.  An
# infinite-variation or negative-drift model pastes smoothly.  The
# median gaps at nx 200/400/800:
#   VG     7.91e-2 6.58e-2 5.03e-2  (ratios 0.83 0.76)
#   Kou    3.27e-1 2.83e-1 2.56e-1  (ratios 0.87 0.91)
#   TS 0.5 4.76e-3 2.66e-3 1.47e-3  (ratios 0.56 0.55)
#   TS 1.5 7.21e-3 2.89e-3 1.02e-3  (ratios 0.40 0.35)
# A kink keeps each ratio at least 0.7 (test_07's bound on the max gap)
# and the finest gap at least 2.5e-2, half the least one seen; a smooth
# fit shrinks by at most 0.65 per halving to at most 3e-3, twice the
# greatest one seen.
@pytest.mark.parametrize("model, kink", [
    (levy.variance_gamma(0.2, 0.3, -0.1), True),
    (levy.kou(1.0, 0.4, 12.0, 8.0), True),
    (levy.tempered_stable(0.5, 0.5, 0.5, 0.5, 3.0, 3.0), False),
    (levy.tempered_stable(0.2, 0.2, 1.5, 1.5, 3.0, 3.0), False),
], ids=["vg-kink", "kou-kink", "ts05-smooth", "ts15-smooth"])
def test_smooth_fit_gap_sees_the_kink_of_a_positive_drift(model, kink):
    a = 0.5 * 0.005 ** 2
    drift = R - a - levy.exp_compensator(model)
    assert (drift > 0.0) == kink
    coeffs = CoefficientField.constants(a, drift, R)
    put = payoff.put(1.0)
    gaps = []
    for nx in (200, 400, 800):
        probe = SpaceTimeGrid(-0.5, 0.5, 1.5, nx, 1.0, 100)
        grid = SpaceTimeGrid(-0.5, 0.5, 1.5, nx, 1.0,
                             plan_steps(probe, model, coeffs, put))
        cfg = SolveConfig(grid, model, coeffs, put, mode="projected")
        u = solve_vi(cfg).value
        fit = diagnostics.smooth_fit_gap(
            u, diagnostics.partition(u, put, contact_tol(cfg, None)))
        assert not fit.unreliable
        gaps.append(fit.median_gap)
    ratios = [fine / coarse for coarse, fine in zip(gaps, gaps[1:])]
    if kink:
        assert min(ratios) >= 0.7 and gaps[-1] >= 2.5e-2, gaps
    else:
        assert max(ratios) <= 0.65 and gaps[-1] <= 3e-3, gaps


# ---------------------------------------------------------------------------
# monotonicity / comparison properties


def monotone_step_check(cfg: SolveConfig) -> bool:
    """Verify the step preserves ordering: the assembled 7-band implicit
    matrix is an M-matrix (off-diagonals <= 0, strictly diagonally
    dominant) and the explicit update keeps nonnegative diagonal weight
    under the budget."""
    ws = solver._Workspace(cfg, (None,))
    for t in ([0.0] if not cfg.coeffs.time_dependent else
              [float(s) for s in cfg.grid.times]):
        rows = ws.band(t)
        off = np.delete(rows, solver._KL, axis=0)
        if np.any(off > 1e-15):
            return False
        if np.any(rows[solver._KL] - np.abs(off).sum(axis=0) < 1e-15):
            return False
    return stability_fraction(cfg) <= 1.0


def test_step_matrix_is_monotone():
    mod, coeffs = merton_setup()
    grid = SpaceTimeGrid(-0.5, 0.5, 1.5, 150, 0.5, 100)
    cfg = SolveConfig(grid, mod, coeffs, payoff.put(1.0),
                      eps_schedule=(0.1,), mode="penalized")
    assert monotone_step_check(cfg)
    # strong drift relative to diffusion: upwinding must keep it monotone
    windy = CoefficientField.constants(0.01, 3.0, 0.1)
    cfg_w = SolveConfig(grid, mod, windy, payoff.put(1.0), mode="projected")
    assert monotone_step_check(cfg_w)


BAND_FAMILIES = {
    "ts15": levy.tempered_stable(0.2, 0.2, 1.5, 1.5, 3.0, 3.0),
    "cgmy18": levy.tempered_stable(1.0, 1.0, 1.8, 1.8, 5.0, 10.0),
    "nig": levy.nig(6.0, -1.0, 0.3),
    "vg": levy.variance_gamma(0.2, 0.3, -0.1),
    "merton": levy.merton(1.5, -0.05, 0.25),
    # slowly tempered upward jumps: drift -9.85, and a negative c_{-1}
    "kou": levy.kou(1.0, 0.5, 1.05, 3.0),
}


def _band_config(name, mode="projected"):
    mod = BAND_FAMILIES[name]
    coeffs = CoefficientField.constants(A, R - A - levy.exp_compensator(mod),
                                        R)
    probe = SpaceTimeGrid(-1.0, 1.0, 1.0, 400, 1.0, 10)
    nt = plan_steps(probe, mod, coeffs, payoff.put(1.0))
    return SolveConfig(SpaceTimeGrid(-1.0, 1.0, 1.0, 400, 1.0, nt), mod,
                       coeffs, payoff.put(1.0), mode=mode)


@pytest.mark.parametrize("name", sorted(BAND_FAMILIES))
def test_band_matrix_is_monotone(name):
    cfg = _band_config(name)
    c = generator.core_band(cfg.op)
    assert abs(c.sum()) <= 1e-12 * np.abs(c).max()
    assert np.all(c[[0, 1, 5, 6]] >= 0.0)
    assert monotone_step_check(cfg)


def test_band_diffusion_absorbs_a_negative_core_neighbour():
    cfg = _band_config("kou")
    c = generator.core_band(cfg.op)
    assert c[2] < 0.0                     # c_{-1}
    lo, _, _ = solver._Workspace(cfg, (None,)).local_stencil(0.0)
    assert np.all(lo + c[2] > 0.0)
    assert monotone_step_check(cfg)


def test_band_check_rejects_a_positive_off_diagonal():
    cfg = _band_config("merton")
    # a negative weight two shifts out gives c_{-3} < 0, so the implicit
    # matrix picks up a positive entry three columns left of the diagonal
    cfg.op.core_stencil = np.array([-1e-4, 0.0, 0.0, 0.0, 0.0])
    assert generator.core_band(cfg.op)[0] < 0.0
    assert not monotone_step_check(cfg)


def test_manufactured_solution_with_varying_coefficients_and_source():
    # u = e^-s (1 + s/2) sin x solves u_s = a u_xx + b u_x - r u + f on
    # [-pi, pi], where it vanishes, with x- and t-dependent a, b, r and
    # the source f made from u.  Halving h and dt together halves the max
    # error (1.68e-3, 7.96e-4, 3.88e-4, 1.91e-4): first order, set by dt
    def a(x, s):
        return 0.3 + 0.1 * np.cos(x) * (1.0 + s)

    def b(x, s):
        return 0.2 * np.sin(x) * (1.0 + s)

    def r(x, s):
        return np.full_like(np.asarray(x, dtype=float), 0.05 * (1.0 + s))

    def phi(s):
        return math.exp(-s) * (1.0 + 0.5 * s)

    def source(x, s):
        phi_s = -0.5 * math.exp(-s) * (1.0 + s)
        return (phi_s + (a(x, s) + r(x, s)) * phi(s)) * np.sin(x) \
            - b(x, s) * phi(s) * np.cos(x)

    coeffs = CoefficientField(a=a, b=b, r=r, time_dependent=True)
    errors, bounds = [], []
    for nx in (64, 128, 256, 512):
        grid = SpaceTimeGrid(-math.pi + 1.5, math.pi - 1.5, 1.5, nx, 1.0,
                             nx // 2)
        cfg = SolveConfig(grid, levy.none(), coeffs, ZERO_PAYOFF,
                          mode="european", source=source, initial=np.sin)
        exact = np.outer(np.sin(grid.nodes),
                         [phi(s) for s in grid.times.tolist()])
        errors.append(float(np.max(np.abs(
            solve_european(cfg).value.values - exact))))
        bounds.append(grid.h ** 2 + grid.dt)
    assert all(e <= bound for e, bound in zip(errors, bounds)), errors
    ratios = [fine / coarse for coarse, fine in zip(errors, errors[1:])]
    assert max(ratios) <= 0.55, ratios


def test_time_error_is_first_order_at_fixed_grid():
    # projected TS alpha = 1.5 put at nx = 200: the x = 0 value moves by
    # 3.3e-5, 1.7e-5, 8.3e-6 as nt doubles from 100 to 800
    mod = BAND_FAMILIES["ts15"]
    coeffs = CoefficientField.constants(A, R - A - levy.exp_compensator(mod),
                                        R)
    vals = []
    for nt in (100, 200, 400, 800):
        grid = SpaceTimeGrid(-1.0, 1.0, 1.0, 200, 1.0, nt)
        rep = solve_vi(SolveConfig(grid, mod, coeffs, payoff.put(1.0),
                                   mode="projected"))
        vals.append(float(np.interp(0.0, grid.nodes,
                                    rep.value.values[:, -1])))
    diffs = np.abs(np.diff(vals))
    assert diffs[0] > 1e-6
    ratios = diffs[:-1] / diffs[1:]
    assert np.all((1.6 <= ratios) & (ratios <= 2.5)), (diffs, ratios)


def test_comparison_principle_random_trials():
    mod, coeffs = merton_setup()
    grid = SpaceTimeGrid(-1.0, 1.0, 1.0, 60, 0.5, 25)
    rng = np.random.default_rng(20260825)
    for _ in range(5):
        x0 = rng.uniform(-0.8, 0.8)
        w = rng.uniform(0.2, 0.5)
        amp = rng.uniform(0.1, 0.6)

        def lower(x, x0=x0, w=w):
            return np.exp(-((x - x0) / w) ** 2)

        def upper(x, x0=x0, w=w, amp=amp):
            return lower(x) + amp * np.exp(-x ** 2)

        rep_lo = solve_european(SolveConfig(
            grid, mod, coeffs, ZERO_PAYOFF, mode="european", initial=lower))
        rep_hi = solve_european(SolveConfig(
            grid, mod, coeffs, ZERO_PAYOFF, mode="european", initial=upper))
        assert np.all(rep_lo.value.values >= -1e-12)  # nonneg data stays nonneg
        assert np.all(rep_hi.value.values - rep_lo.value.values >= -1e-12)


def test_obstacle_monotonicity():
    grid = SpaceTimeGrid(-0.5, 0.5, 1.0, 120, 0.5, 60)
    coeffs = diffusion_coeffs()
    rep_small = solve_vi(SolveConfig(grid, levy.none(), coeffs,
                                     payoff.put(0.9), mode="projected"))
    rep_big = solve_vi(SolveConfig(grid, levy.none(), coeffs,
                                   payoff.put(1.0), mode="projected"))
    assert np.all(rep_big.value.values - rep_small.value.values >= -1e-12)


# ---------------------------------------------------------------------------
# complementarity residual


def test_residual_small_outside_collar_and_layer(diffusion_american):
    cfg, rep = diffusion_american
    res = residual_vi(rep.value, cfg).values
    tol = 20.0 * (cfg.grid.h ** 2 + cfg.grid.dt) * cfg.payoff.bound
    assert np.nanmax(np.abs(res)) <= tol
    # one-sided: the min component may only dip below zero by discretization
    lemma_tol = 10.0 * (cfg.grid.h ** 2 + cfg.grid.dt) + 1e-9
    assert np.nanmin(res) >= -lemma_tol


def test_residual_nan_pattern(diffusion_american):
    cfg, rep = diffusion_american
    res = residual_vi(rep.value, cfg).values
    assert np.all(np.isnan(res[:, 0]))          # terminal-layer level
    assert np.all(np.isnan(res[:, -1]))         # no centered difference
    assert np.all(np.isnan(res[~cfg.grid.interior, :]))
    assert np.isfinite(res).any()


def test_residual_collars_each_contact_edge(diffusion_american):
    """NaN exactly on nodes i-1 .. i+3 around each contact edge between
    nodes i and i+1, at every evaluated level."""
    cfg, rep = diffusion_american
    res = residual_vi(rep.value, cfg).values
    v, g = rep.value.values, payoff.put(1.0)(cfg.grid.nodes)
    tol = 1e-10 * max(1.0, cfg.payoff.bound)
    levels = np.nonzero(np.isfinite(res).any(axis=0))[0]
    edges = 0
    for n in levels:
        want = ~cfg.grid.interior
        want[[0, -1]] = True
        contact = v[:, n] - g <= tol
        for i in np.nonzero(contact[:-1] != contact[1:])[0]:
            want[max(0, i - 1): i + 4] = True
            edges += 1
        np.testing.assert_array_equal(np.isnan(res[:, n]), want)
    assert edges >= levels.size


def test_residual_shape_guard(diffusion_american):
    cfg, rep = diffusion_american
    other = SpaceTimeGrid(-0.5, 0.5, 1.0, 100, 1.0, 50)
    from jumpstop.errors import ParameterError
    wrong = GridFunction(other, np.zeros((101, 51)), extension="zero")
    with pytest.raises(ParameterError):
        residual_vi(wrong, cfg)


# ---------------------------------------------------------------------------
# factored implicit solve


def _solve_banded_step(ws, rhs, t, bc):
    """The implicit step assembled per call as a dense matrix and solved
    by solve_banded: ``I - dt*(L_local + L_core)`` with Dirichlet edge
    rows, the core's columns past the grid dropped."""
    lo, dg, up = ws.local_stencil(t)
    core = generator.core_band(ws.cfg.op)
    n = rhs.size
    dense = np.zeros((n, n))
    for i in range(1, n - 1):
        for j in range(-3, 4):
            if 0 <= i + j < n:
                coef = core[j + 3] + {-1: lo, 0: dg, 1: up}.get(
                    j, np.zeros(n))[i]
                dense[i, i + j] = (1.0 if j == 0 else 0.0) - ws.dt * coef
    dense[0, 0] = dense[-1, -1] = 1.0
    ab = np.zeros((7, n))
    for i, j in zip(*np.nonzero(dense)):
        ab[3 + i - j, j] = dense[i, j]
    rhs = rhs.copy()
    rhs[0], rhs[-1] = bc
    return solve_banded((3, 3), ab, rhs)


def _varying_coeffs():
    """x- and t-dependent diffusion, drift and discount."""
    return CoefficientField(
        a=lambda x, t: A * (1.0 + 0.5 * np.sin(x) ** 2) * (1.0 + 0.4 * t),
        b=lambda x, t: (R - A) * (1.0 + 0.3 * x) - 0.5 * t,
        r=lambda x, t: R * (1.0 + 0.5 * t) + 0.0 * x,
        lambda_floor=0.5 * A, time_dependent=True)


@pytest.mark.parametrize("time_dependent", [False, True])
@pytest.mark.parametrize("mode", ["projected", "european"])
def test_factored_solve_matches_solve_banded(time_dependent, mode,
                                             monkeypatch):
    mod, coeffs = merton_setup()
    if time_dependent:
        coeffs = _varying_coeffs()
    grid = SpaceTimeGrid(-0.5, 0.5, 1.0, 60, 0.5, 40)
    cfg = SolveConfig(grid, mod, coeffs, payoff.put(1.0), mode=mode)
    solve = solve_vi if mode == "projected" else solve_european
    got = solve(cfg).value.values
    monkeypatch.setattr(solver, "_implicit_solve", _solve_banded_step)
    want = solve(cfg).value.values
    assert np.abs(got[:, -1] - got[:, 0]).max() > 1e-3
    np.testing.assert_array_equal(got, want)


def test_residual_reads_time_dependent_coefficients_per_level():
    mod, _ = merton_setup()
    coeffs = _varying_coeffs()
    grid = SpaceTimeGrid(-0.5, 0.5, 1.0, 60, 0.5, 40)
    cfg = SolveConfig(grid, mod, coeffs, payoff.put(1.0), mode="projected")
    rep = solve_vi(cfg)
    got = residual_vi(rep.value, cfg).values
    v, dt, x = rep.value.values, grid.dt, grid.nodes
    g = payoff.put(1.0)(x)
    levels = np.nonzero(np.isfinite(got).any(axis=0))[0]
    assert levels.size > grid.nt // 2
    for n in levels:
        gf = GridFunction(grid, v[:, n], payoff=rep.value.payoff)
        lv = generator.apply_local(coeffs, gf, t=n * dt) + \
            generator.apply_nonlocal(cfg.op, gf, profile="accurate")
        pde = (v[:, n + 1] - v[:, n - 1]) / (2.0 * dt) - lv + \
            coeffs.r(x, n * dt) * v[:, n]
        ok = np.isfinite(got[:, n])
        np.testing.assert_array_equal(got[ok, n],
                                      np.minimum(pde, v[:, n] - g)[ok])


def test_time_dependent_march_refactors_per_level():
    grid = SpaceTimeGrid(-0.5, 0.5, 1.0, 60, 0.5, 40)
    cfg = SolveConfig(grid, levy.none(), _varying_coeffs(), payoff.put(1.0),
                      mode="projected")
    ws = solver._Workspace(cfg, (None,))
    assert ws.factor(0.1) is ws.factor(0.1)
    assert not np.array_equal(ws.factor(0.1)[0], ws.factor(0.4)[0])
    const = solver._Workspace(SolveConfig(grid, levy.none(),
                                          diffusion_coeffs(),
                                          payoff.put(1.0), mode="projected"),
                              (None,))
    assert const.factor(0.1) is const.factor(0.4)


def test_time_dependent_march_keeps_only_the_next_steps_caches(monkeypatch):
    # a step reads the factor at s_new; older levels are dropped, and
    # re-factoring every step changes no bit
    mod, _ = merton_setup()
    grid = SpaceTimeGrid(-0.5, 0.5, 1.0, 60, 0.5, 40)
    cfg = SolveConfig(grid, mod, _varying_coeffs(), payoff.put(1.0),
                      mode="projected")
    got, ws, _, _ = solver._march(cfg, (None,))
    assert len(ws._factor_cache) == 1

    def fresh(self, t, real=solver._Workspace.factor):
        self._factor_cache = {}
        return real(self, t)
    monkeypatch.setattr(solver._Workspace, "factor", fresh)
    want = solver._march(cfg, (None,))[0]
    np.testing.assert_array_equal(got, want)


def test_singular_band_names_the_factor_and_the_pivot():
    grid = SpaceTimeGrid(-0.5, 0.5, 1.0, 60, 0.5, 40)
    cfg = SolveConfig(grid, levy.none(), diffusion_coeffs(), payoff.put(1.0),
                      mode="projected")
    ws = solver._Workspace(cfg, (None,))
    rows = ws.band(0.0)
    rows[:, 5] = 0.0                    # row 5 of the matrix is zero
    ws.band = lambda t: rows
    with pytest.raises(NumericalError, match=r"solver\.factor: .* t = 0 .*"
                       r"zero pivot U\[\d+, \d+\]"):
        ws.factor(0.0)


def test_non_finite_band_solve_names_the_nodes():
    grid = SpaceTimeGrid(-0.5, 0.5, 1.0, 60, 0.5, 40)
    cfg = SolveConfig(grid, levy.none(), diffusion_coeffs(), payoff.put(1.0),
                      mode="projected")
    rhs = np.zeros(grid.nx + 1)
    rhs[30] = np.inf
    with pytest.raises(NumericalError, match=r"solver\.banded: .* t = 0\.25 "
                       r"gave \d+ non-finite values, first at nodes \["):
        solver._implicit_solve(solver._Workspace(cfg, (None,)), rhs, 0.25,
                               (0.0, 0.0))


def test_non_finite_band_solve_names_the_step_and_the_eps_column():
    mod, coeffs = merton_setup()
    grid = SpaceTimeGrid(-0.5, 0.5, 1.0, 60, 0.5, 40)
    cfg = SolveConfig(grid, mod, coeffs, payoff.put(1.0),
                      eps_schedule=(0.2, 0.1, 0.05), mode="penalized")
    rhs = np.zeros((grid.nx + 1, 3))
    rhs[[30, 31], 2] = np.nan
    with pytest.raises(NumericalError, match=r"solver\.banded: band solve "
                       r"at step 20/40, t = 0\.25 gave \d+ non-finite "
                       r"values, first at nodes \[.*\] in the eps = 0\.05 "
                       r"column \(dgbtrs info 0\)"):
        solver._implicit_solve(solver._Workspace(cfg, cfg.eps_schedule), rhs,
                               0.25, (np.zeros(3), np.zeros(3)))


def test_european_edges_discount_by_the_integrated_rate():
    # r(s) = r0 + r1 s: the Dirichlet edges carry g exp(-(r0 s + r1 s^2/2)),
    # which the trapezoid rule on the time levels integrates exactly; the
    # rate at s = 0 alone would leave them off by exp(r1 s^2 / 2)
    r0, r1 = 0.02, 0.3
    coeffs = CoefficientField(
        a=lambda x, t: np.full_like(np.asarray(x, dtype=float), A),
        b=lambda x, t: np.full_like(np.asarray(x, dtype=float), R - A),
        r=lambda x, t: np.full_like(np.asarray(x, dtype=float),
                                    r0 + r1 * t),
        lambda_floor=0.5 * A, time_dependent=True)
    reward = payoff.tabulated([-3.0, 3.0], [1.0, 0.5])
    mod, _ = merton_setup()
    grid = SpaceTimeGrid(-0.5, 0.5, 1.0, 60, 1.0, 40)
    cfg = SolveConfig(grid, mod, coeffs, reward, mode="european")
    v = solve_european(cfg).value.values
    s = grid.times
    want = np.outer(reward(grid.nodes[[0, -1]]),
                    np.exp(-(r0 * s + 0.5 * r1 * s * s)))
    np.testing.assert_allclose(v[[0, -1]], want, rtol=1e-13, atol=0.0)


# ---------------------------------------------------------------------------
# ghost values shared by the march and the residual


@pytest.mark.parametrize("mode", ["penalized", "projected"])
def test_residual_reuses_the_solve_ghosts(mode, monkeypatch):
    """Same residual as fresh per-level grid functions, without
    re-mollifying the ghost nodes."""
    mod, coeffs = merton_setup()
    grid = SpaceTimeGrid(-0.5, 0.5, 1.0, 80, 0.5, 40)
    cfg = SolveConfig(grid, mod, coeffs, payoff.put(1.0),
                      eps_schedule=(0.2, 0.1), mode=mode)
    rep = solve_vi(cfg)
    calls = []
    real = payoff.kernel_average
    monkeypatch.setattr(payoff, "kernel_average",
                        lambda *a: calls.append(1) or real(*a))
    got = residual_vi(rep.value, cfg).values
    assert calls == []
    monkeypatch.undo()

    v, dt, x = rep.value.values, grid.dt, grid.nodes
    g = payoff.put(1.0)(x)
    levels = np.nonzero(np.isfinite(got).any(axis=0))[0]
    assert levels.size > grid.nt // 2
    for n in levels:
        gf = GridFunction(grid, v[:, n], payoff=rep.value.payoff)
        lv = generator.apply_local(coeffs, gf, t=n * dt) + \
            generator.apply_nonlocal(cfg.op, gf, profile="accurate")
        pde = (v[:, n + 1] - v[:, n - 1]) / (2.0 * dt) - lv + \
            coeffs.r(x, n * dt) * v[:, n]
        want = np.minimum(pde, v[:, n] - g)
        ok = np.isfinite(got[:, n])
        np.testing.assert_array_equal(got[ok, n], want[ok])


@pytest.mark.parametrize("varying", [False, True],
                         ids=["constants", "fields"])
def test_european_residual_reads_the_far_field_of_each_level(varying):
    """A residual block and a slice of the european surface read the same
    discounted far field at every level: the same residual as the
    per-level local and jump operators on that slice."""
    mod, coeffs = merton_setup()
    coeffs = _varying_coeffs() if varying else coeffs
    grid = SpaceTimeGrid(-0.5, 0.5, 1.0, 60, 0.5, 40)
    cfg = SolveConfig(grid, mod, coeffs, payoff.put(1.0), mode="european")
    rep = solve_european(cfg)
    assert rep.value.ghosts.discount(0.5)[0] < 0.99
    got = residual_vi(rep.value, cfg).values
    v, dt, x = rep.value.values, grid.dt, grid.nodes
    g = payoff.put(1.0)(x)
    pde_rows = 0
    for n in np.nonzero(np.isfinite(got).any(axis=0))[0]:
        lv = generator.apply_local(coeffs, rep.value, t=n * dt, n=n) + \
            generator.apply_nonlocal(cfg.op, rep.value, "accurate", n)
        pde = (v[:, n + 1] - v[:, n - 1]) / (2.0 * dt) - lv + \
            coeffs.r(x, n * dt) * v[:, n]
        ok = np.isfinite(got[:, n])
        np.testing.assert_array_equal(got[ok, n],
                                      np.minimum(pde, v[:, n] - g)[ok])
        pde_rows += int(np.sum(ok & (pde < v[:, n] - g)))
    assert pde_rows > grid.nt * 10


def test_european_march_discounts_its_ghosts(monkeypatch):
    """Each step's near ghosts and ghost term are the payoff's, scaled by
    the edge discount ``exp(-r s_n)``, and the implicit core's ghost
    term is scaled by ``exp(-r s_{n+1})``."""
    mod, coeffs = merton_setup()
    grid = SpaceTimeGrid(-0.5, 0.5, 1.0, 60, 0.5, 20)
    cfg = SolveConfig(grid, mod, coeffs, payoff.put(1.0), mode="european")
    seen, terms = [], {"monotone": [], "core": []}
    real = generator.apply_nonlocal_grid
    monkeypatch.setattr(
        generator, "apply_nonlocal_grid",
        lambda op, near, profile, ghost, **kw: seen.append(
            (near[:, 0].copy(), ghost[0].copy())) or
        real(op, near, profile, ghost, **kw))
    real_term = generator.ghost_term
    monkeypatch.setattr(
        generator, "ghost_term",
        lambda op, ghosts, part, s: terms[part].append(
            (s, real_term(op, ghosts, part, s))) or terms[part][-1][1])
    solve_european(cfg)
    ng, h, x = generator.NEAR_GHOSTS, grid.h, grid.nodes
    k = np.arange(1, ng + 1)
    ghosts = payoff.put(1.0)(np.concatenate([x[0] - h * k[::-1],
                                             x[-1] + h * k]))
    fresh = GridFunction(grid, x, payoff=payoff.put(1.0)).ghosts
    left, right = generator.ghost_terms(cfg.op, fresh, "monotone")
    assert len(seen) == grid.nt and ghosts[0] > 0.5
    assert np.max(np.abs(left)) > 0.1
    np.testing.assert_array_equal(seen[0][1], left + right)
    for n, (near, ghost) in enumerate(seen):
        scale = math.exp(-R * n * grid.dt)
        np.testing.assert_allclose(
            np.concatenate([near[:ng], near[-ng:]]), ghosts * scale,
            rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(ghost, seen[0][1] * scale, rtol=1e-14,
                                   atol=0.0)
        assert terms["monotone"][n][0] == n * grid.dt
        assert terms["monotone"][n][1].tobytes() == ghost.tobytes()
    c_left, c_right = generator.ghost_terms(cfg.op, fresh, "core")
    assert np.all(c_left[:3] > 0.0) and not c_left[3:].any()
    assert not c_right.any()     # the put vanishes past the right edge
    assert len(terms["core"]) == grid.nt
    for n, (s, core) in enumerate(terms["core"]):
        assert s == (n + 1) * grid.dt
        np.testing.assert_allclose(core, (c_left + c_right) * math.exp(-R * s),
                                   rtol=1e-14, atol=0.0)
