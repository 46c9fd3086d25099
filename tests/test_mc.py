"""Path simulation and policy estimates: moments, oracles, determinism.

Expected values come from independent oracles computed first (closed-form
put prices, a 5000-step binomial tree, Poisson/Gaussian moments); random
comparisons use fixed seeds and 4-standard-error windows.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from jumpstop import diagnostics, levy, mc, payoff
from jumpstop.errors import ParameterError
from jumpstop.grids import CoefficientField, SpaceTimeGrid
from jumpstop.solver import SolveConfig, contact_tol, solve_vi

SIG, R = 0.2, 0.04
A = 0.5 * SIG * SIG
PUT = payoff.put(1.0)

BS_PUT = 0.06003997632506752        # closed form, frozen
BINOMIAL_PUT = 0.06403947802179197  # 5000-step tree, frozen
MERTON_PUT = 0.11765465521320372    # mixture series, frozen


def diffusion_coeffs():
    return CoefficientField.constants(A, R - A, R)


def merton_setup():
    mod = levy.merton(1.5, -0.05, 0.25)
    b = R - A - levy.exp_compensator(mod)
    return mod, CoefficientField.constants(A, b, R)


def ts_setup():
    mod = levy.tempered_stable(0.2, 0.2, 1.5, 1.5, 3.0, 3.0)
    return mod, CoefficientField.constants(
        A, R - A - levy.exp_compensator(mod), R)


def degenerate_coeffs(drift: float, rate: float) -> CoefficientField:
    return CoefficientField(
        a=lambda x, t: np.zeros_like(np.asarray(x, dtype=float)),
        b=lambda x, t: np.full_like(np.asarray(x, dtype=float), drift),
        r=lambda x, t: np.full_like(np.asarray(x, dtype=float), rate))


@pytest.fixture(scope="module")
def diffusion_batch():
    return mc.simulate(levy.none(), diffusion_coeffs(), 0.0, 1.0,
                       100_000, 64, 17)


@pytest.fixture(scope="module")
def merton_batch():
    mod, coeffs = merton_setup()
    return mc.simulate(mod, coeffs, 0.0, 1.0, 100_000, 64, 13)


# ---------------------------------------------------------------------------
# simulation


def test_drift_only_paths_are_exact():
    batch = mc.simulate(levy.none(), degenerate_coeffs(0.3, 0.0),
                        0.1, 1.0, 50, 16, 7)
    assert np.max(np.abs(batch.states[:, -1] - 0.4)) < 1e-12
    assert batch.n_paths == 50 and batch.n_steps == 16
    assert (batch.states[:, 0] == 0.1).all()


def test_gaussian_terminal_moments():
    batch = mc.simulate(levy.none(), diffusion_coeffs(), 0.0, 1.0,
                        100_000, 64, 11)
    xT = batch.states[:, -1]
    n = batch.n_paths
    se_mean = SIG / np.sqrt(n)
    se_var = SIG ** 2 * np.sqrt(2.0 / n)
    assert abs(xT.mean() - (R - A)) <= 4.0 * se_mean
    assert abs(xT.var(ddof=1) - SIG ** 2) <= 4.0 * se_var


def test_jump_count_matches_poisson_rate(merton_batch):
    lam, T = 1.5, 1.0
    se = np.sqrt(lam * T / merton_batch.n_paths)
    assert abs(merton_batch.jump_counts.mean() - lam * T) <= 4.0 * se
    # finite-activity family: every jump sampled, nothing substituted
    mod, _ = merton_setup()
    scheme = mc._build_scheme(mod)
    assert scheme.small_var == 0.0
    assert scheme.comp_drift == levy.jump_moment(mod, 1, 0.0, 1.0)


def test_jump_count_variance_matches_poisson(merton_batch):
    # per-path counts are Poisson(lam T): variance equal to the mean, with
    # Var(s^2) ~ (lam T + 2 (lam T)^2) / n; owners that were not uniform
    # and independent would spread or bunch the counts
    mean = 1.5
    n = merton_batch.n_paths
    counts = merton_batch.jump_counts
    se_var = np.sqrt((mean + 2.0 * mean * mean) / n)
    assert abs(counts.var(ddof=1) - mean) <= 4.0 * se_var
    assert abs(counts.mean() - mean) <= 4.0 * np.sqrt(mean / n)


def test_positive_jump_fraction_matches_side_mass():
    # no diffusion and the compensating drift cancelled exactly, so each
    # step's increment is the sum of its jumps; at rate * dt = 0.01 almost
    # every nonzero increment is a single jump
    mod = levy.kou(4.0, 0.3, 10.0, 5.0)
    scheme = mc._build_scheme(mod)
    batch = mc.simulate(mod, degenerate_coeffs(scheme.comp_drift, 0.0),
                        0.0, 1.0, 2000, 400, 19)
    inc = np.diff(batch.states, axis=1)
    moved = inc != 0.0
    assert moved.sum() >= 0.99 * batch.jump_counts.sum()
    p = scheme.table.mass_plus / scheme.rate
    frac = (inc > 0.0).sum() / moved.sum()
    assert abs(frac - p) <= 4.0 * np.sqrt(p * (1.0 - p) / moved.sum())


table_models = pytest.mark.parametrize("model", [
    levy.merton(1.5, -0.05, 0.25), levy.kou(4.0, 0.3, 10.0, 5.0),
    levy.variance_gamma(0.2, 0.3, -0.1), levy.nig(6.0, -1.0, 0.3),
    levy.tempered_stable(0.2, 0.2, 1.5, 1.5, 3.0, 3.0)],
    ids=["merton", "kou", "vg", "nig", "ts"])


def _interp_sizes(table, w):
    return np.where(w < table.mass_plus,
                    np.interp(w, table.cdf_plus, table.mag_plus),
                    -np.interp(w - table.mass_plus, table.cdf_minus,
                               table.mag_minus))


@table_models
def test_guided_inverse_cdf_is_np_interp_bit_for_bit(model):
    table = mc._build_scheme(model).table
    plus = (table.mass_plus, table.cdf_plus, table.mag_plus)
    minus = (float(table.cdf_minus[-1]), table.cdf_minus, table.mag_minus)
    rng = np.random.default_rng(3)
    # each side in turn first, so its levels are the draws themselves
    for first, second in ((plus, minus), (minus, plus)):
        tab = mc._JumpTable.build(first, second)
        mass, cdf = first[0], first[1]
        rate = first[0] + second[0]
        edges = np.concatenate([
            [0.0, mass, np.nextafter(mass, np.inf), rate,
             np.nextafter(rate, np.inf)],
            cdf, np.nextafter(cdf[1:], 0.0), mass + second[1]])
        for w in (rng.random(1_000_000) * rate, edges):
            assert np.array_equal(tab.sizes(w), _interp_sizes(tab, w))


@st.composite
def side_tables(draw):
    """One side's ``(mass, cdf, mag)``: monotone, with flat panels (equal
    sizes), vertical ones (no mass) or no mass at all."""
    n = draw(st.integers(1, 40))
    steps = st.one_of(st.just(0.0), st.floats(1e-6, 2.0))
    if draw(st.booleans()):
        cdf = np.cumsum([0.0] + draw(st.lists(steps, min_size=n,
                                              max_size=n)))
    else:
        cdf = np.zeros(n + 1)
    mag = draw(st.floats(0.0, 0.5)) + np.cumsum(
        [0.0] + draw(st.lists(steps, min_size=n, max_size=n)))
    return float(cdf[-1]), cdf, mag


@settings(max_examples=60, deadline=None)
@given(plus=side_tables(), minus=side_tables(), seed=st.integers(0, 2**32))
def test_bucket_table_is_np_interp_bit_for_bit(plus, minus, seed):
    rate = plus[0] + minus[0]
    assume(rate > 0.0)
    tab = mc._JumpTable.build(plus, minus)
    # every bucket edge and its neighbours, the side switch and the end
    edge = np.arange(mc._BUCKETS + 1) / tab.scale
    special = np.array([0.0, plus[0], rate])
    levels = np.concatenate([
        edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf),
        special, np.nextafter(special, np.inf),
        np.nextafter(special, -np.inf)[1:],
        np.random.default_rng(seed).random(20_000) * rate])
    assert np.array_equal(tab.sizes(levels), _interp_sizes(tab, levels))


def _reference_simulate(model, coeffs, x0, T, n_paths, n_steps, seed):
    """A plain Euler loop in the documented draw order: per-step
    coefficient arrays, jump sizes from ``np.interp`` on the table."""
    scheme = mc._build_scheme(model)
    rng = np.random.Generator(np.random.Philox(seed))
    dt = T / n_steps
    times = np.linspace(0.0, T, n_steps + 1)
    rows = [np.full(n_paths, float(x0))]
    counts = np.zeros(n_paths, dtype=np.int64)
    for n in range(n_steps):
        x = rows[-1]
        a, b = coeffs.a(x, T - times[n]), coeffs.b(x, T - times[n])
        vol = np.sqrt(2.0 * a + scheme.small_var) * math.sqrt(dt)
        dx = rng.standard_normal(n_paths) * vol \
            + (b - scheme.comp_drift) * dt
        if scheme.rate > 0.0:
            total = int(rng.poisson(scheme.rate * dt * n_paths))
            owner = rng.integers(n_paths, size=total)
            w = rng.random(total) * scheme.rate
            np.add.at(dx, owner, _interp_sizes(scheme.table, w))
            counts += np.bincount(owner, minlength=n_paths)
        rows.append(x + dx)
    return np.stack(rows, axis=1), counts


@pytest.mark.parametrize("model", [
    levy.merton(1.5, -0.05, 0.25), levy.kou(4.0, 0.3, 10.0, 5.0),
    levy.nig(6.0, -1.0, 0.3),
    levy.tempered_stable(0.2, 0.2, 1.5, 1.5, 3.0, 3.0),
    levy.merton(0.0, -0.05, 0.25)],
    ids=["merton", "kou", "nig", "ts", "zero_intensity"])
@pytest.mark.parametrize("constant", [True, False],
                         ids=["constants", "fields"])
def test_simulate_is_the_reference_loop_bit_for_bit(model, constant):
    b = R - A - levy.exp_compensator(model)
    coeffs = CoefficientField.constants(A, b, R) if constant else \
        CoefficientField(
            a=lambda x, t: np.full_like(np.asarray(x, dtype=float), A),
            b=lambda x, t: np.full_like(np.asarray(x, dtype=float), b),
            r=lambda x, t: np.full_like(np.asarray(x, dtype=float), R))
    assert coeffs.constant is constant
    batch = mc.simulate(model, coeffs, 0.1, 1.0, 2000, 16, 29)
    states, counts = _reference_simulate(model, coeffs, 0.1, 1.0, 2000,
                                         16, 29)
    assert np.array_equal(batch.states, states)
    assert np.array_equal(batch.jump_counts, counts)


@pytest.mark.parametrize("block", [1, 7, 1000])
@pytest.mark.parametrize("setup", [ts_setup, merton_setup],
                         ids=["ts", "merton"])
def test_jump_blocks_are_the_reference_loop_bit_for_bit(setup, block,
                                                        monkeypatch):
    # steps of about 3,100 (ts) and 19 (merton) jumps: blocks of one
    # jump, several blocks with a partial last one, and one partial block
    monkeypatch.setattr(mc, "_JUMP_BLOCK", block)
    model, coeffs = setup()
    batch = mc.simulate(model, coeffs, 0.1, 1.0, 50, 4, 31)
    states, counts = _reference_simulate(model, coeffs, 0.1, 1.0, 50, 4,
                                         31)
    assert np.array_equal(batch.states, states)
    assert np.array_equal(batch.jump_counts, counts)


def test_one_step_of_150k_jumps_is_the_reference_loop_bit_for_bit():
    # the shape of a European Merton check: every jump in one step
    model, coeffs = merton_setup()
    batch = mc.simulate(model, coeffs, 0.0, 1.0, 100_000, 1, 37)
    states, counts = _reference_simulate(model, coeffs, 0.0, 1.0, 100_000,
                                         1, 37)
    assert counts.sum() > 140_000
    assert np.array_equal(batch.states, states)
    assert np.array_equal(batch.jump_counts, counts)


def _largest_step(rate, T, n_paths, n_steps, seed):
    """Jumps of the largest step of a batch, replaying its draws."""
    rng = np.random.Generator(np.random.Philox(seed))
    largest = 0
    for _ in range(n_steps):
        rng.standard_normal(n_paths)
        total = int(rng.poisson(rate * (T / n_steps) * n_paths))
        rng.integers(n_paths, size=total, dtype=np.int32)
        rng.random(total)
        largest = max(largest, total)
    return largest


@pytest.mark.parametrize("n_paths", [20_000, 80_000])
def test_jump_kernel_working_set_is_fixed(n_paths):
    # beyond its result and the step's int32 owners, simulate holds the
    # table (640 KiB) and one block of jumps (640 KiB), whatever the
    # batch size; sizing a whole step at once held about 37 bytes per jump
    model, coeffs = ts_setup()
    rate = mc._build_scheme(model).rate
    # a first batch fills the caches that live past it
    mc.simulate(model, coeffs, 0.0, 1.0, 10, 1, 41)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        batch = mc.simulate(model, coeffs, 0.0, 1.0, n_paths, 16, 41)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    largest = _largest_step(rate, 1.0, n_paths, 16, 41)
    assert largest > 15 * n_paths
    excess = peak - batch.states.nbytes - batch.jump_counts.nbytes \
        - 4 * largest
    assert excess < 2 * 2**20


@table_models
@pytest.mark.parametrize("lo", [0.0, mc.DEFAULT_SPLIT],
                         ids=["linspace", "geomspace"])
def test_side_table_is_cumulative_trapezoid_bit_for_bit(model, lo):
    from scipy.integrate import cumulative_trapezoid
    hi = levy.truncation_radius(model, mc._TAIL_TOL)
    for sign in (1.0, -1.0):
        total, mass, t = mc._side_table(model, lo, hi, sign)
        assert t[0] == lo and t[-1] == hi
        dens = levy.density(model, sign * np.where(t > 0.0, t, hi * 1e-12))
        ref = cumulative_trapezoid(dens, t, initial=0.0)
        assert mass.view(np.int64).tolist() == ref.view(np.int64).tolist()
        assert total == ref[-1]


def test_states_are_a_time_major_view(merton_batch):
    assert merton_batch.states.shape == (100_000, 65)
    assert merton_batch.n_paths == 100_000 and merton_batch.n_steps == 64
    for n in (0, 31, 64):
        assert merton_batch.states[:, n].flags.c_contiguous


def test_split_scheme_for_infinite_activity():
    mod = levy.nig(6.0, -1.0, 0.3)
    b = R - A - levy.exp_compensator(mod)
    coeffs = CoefficientField.constants(A, b, R)
    batch = mc.simulate(mod, coeffs, 0.0, 0.5, 20_000, 32, 23)
    scheme = mc._build_scheme(mod)
    assert mc.DEFAULT_SPLIT == 0.01
    assert scheme.small_var == pytest.approx(levy.tails(mod, 0.01).small_var)
    assert np.all(np.isfinite(batch.states))
    assert batch.jump_counts.mean() > 1.0  # activity above the split is high


def test_zero_intensity_simulates_as_a_diffusion():
    # no jump mass above the split: no jump table, no jump draws, and the
    # same random stream as the jump-free model
    batch = mc.simulate(levy.merton(0.0, -0.05, 0.25), diffusion_coeffs(),
                        0.0, 1.0, 1000, 16, 5)
    plain = mc.simulate(levy.none(), diffusion_coeffs(), 0.0, 1.0,
                        1000, 16, 5)
    assert not batch.jump_counts.any()
    assert np.array_equal(batch.states, plain.states)


def test_seed_determinism_and_sensitivity():
    mod, coeffs = merton_setup()
    b1 = mc.simulate(mod, coeffs, 0.0, 1.0, 1000, 16, 99)
    b2 = mc.simulate(mod, coeffs, 0.0, 1.0, 1000, 16, 99)
    b3 = mc.simulate(mod, coeffs, 0.0, 1.0, 1000, 16, 98)
    assert np.array_equal(b1.states, b2.states)
    assert np.array_equal(b1.jump_counts, b2.jump_counts)
    assert not np.array_equal(b1.states, b3.states)


def test_simulate_argument_validation():
    with pytest.raises(ParameterError):
        mc.simulate(levy.none(), diffusion_coeffs(), 0.0, 1.0, 0, 8, 1)
    with pytest.raises(ParameterError):
        mc.simulate(levy.none(), diffusion_coeffs(), 0.0, 0.0, 10, 8, 1)


def test_intensity_cap_error_suggests_larger_split(monkeypatch):
    # the cap message names the split radius that was too small
    mod = levy.tempered_stable(0.2, 0.2, 1.5, 1.5, 3.0, 3.0)
    monkeypatch.setattr(mc, "DEFAULT_SPLIT", 1e-6)
    with pytest.raises(ParameterError,
                       match=r"above the split radius 1e-06 exceeds the "
                             r"cap 1e\+06"):
        mc.simulate(mod, diffusion_coeffs(), 0.0, 1.0, 10, 8, 1)


# ---------------------------------------------------------------------------
# one exact step over the horizon under constant coefficients


def _mean_var_gaps(u: np.ndarray, v: np.ndarray) -> tuple[float, float]:
    """Gaps in mean and in variance between two independent samples, each
    in standard errors of the difference."""
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    n, m = u.size, v.size
    se_mean = np.sqrt(u.var(ddof=1) / n + v.var(ddof=1) / m)
    se_var = np.sqrt(((u - u.mean()) ** 2).var(ddof=1) / n
                     + ((v - v.mean()) ** 2).var(ddof=1) / m)
    return (abs(u.mean() - v.mean()) / se_mean,
            abs(u.var(ddof=1) - v.var(ddof=1)) / se_var)


@pytest.mark.parametrize("model, n_paths", [
    (levy.merton(1.5, -0.05, 0.25), 100_000),
    (levy.kou(4.0, 0.3, 10.0, 5.0), 100_000),
    (levy.tempered_stable(0.2, 0.2, 1.5, 1.5, 3.0, 3.0), 20_000)],
    ids=["merton", "kou", "ts15"])
def test_one_step_terminal_law_matches_many_steps(model, n_paths):
    # constant coefficients: the increment over T has the law of one Euler
    # step over T (Gaussian part, compensating drift and a Poisson(rate T)
    # count of table jumps), so terminal states and per-path jump counts of
    # a 1-step batch match a 64-step one; T != 1 keeps dt and sqrt(dt)
    # apart
    coeffs = CoefficientField.constants(
        A, R - A - levy.exp_compensator(model), R)
    T = 0.5
    one = mc.simulate(model, coeffs, 0.0, T, n_paths, 1, 101)
    many = mc.simulate(model, coeffs, 0.0, T, n_paths, 64, 102)
    assert one.n_steps == 1
    if model.family == "tempered_stable":
        assert mc._build_scheme(model).small_var > 0.0
    for u, v in ((one.states[:, -1], many.states[:, -1]),
                 (one.jump_counts, many.jump_counts)):
        mean_gap, var_gap = _mean_var_gaps(u, v)
        assert mean_gap <= 4.0 and var_gap <= 4.0


# ---------------------------------------------------------------------------
# european estimates


def _clock_coeffs():
    """No diffusion, and drift and rate equal to the time argument."""
    return CoefficientField(
        a=lambda x, t: np.zeros_like(np.asarray(x, dtype=float)),
        b=lambda x, t: np.full_like(np.asarray(x, dtype=float), t),
        r=lambda x, t: np.full_like(np.asarray(x, dtype=float), t),
        time_dependent=True)


def test_paths_read_the_fields_at_the_time_to_expiry():
    """Step n of a 4-step path over [0, 1] moves by b(T - tau_n) dt, so
    the drift b(x, t) = t carries it to (1 + 3/4 + 1/2 + 1/4) / 4."""
    batch = mc.simulate(levy.none(), _clock_coeffs(), 0.0, 1.0, 3, 4, 7)
    np.testing.assert_array_equal(batch.states[:, -1], 0.625)


def test_discount_reads_the_rate_at_the_time_to_expiry():
    """A constant reward under r(x, t) = t is priced at
    exp(-sum_n r(T - tau_n) dt)."""
    batch = mc.simulate(levy.none(), _clock_coeffs(), 0.0, 1.0, 3, 4, 7)
    flat = payoff.tabulated([-50.0, 50.0], [2.5, 2.5])
    est = mc.european_estimate(batch, flat, _clock_coeffs().r)
    tau = batch.times[:-1]
    want = 2.5 * math.exp(-float(np.sum((1.0 - tau) * 0.25)))
    assert est.price == pytest.approx(want, rel=1e-15)
    assert est.price == pytest.approx(2.5 * math.exp(-0.625), rel=1e-15)


def test_constant_reward_zero_rate_is_exact():
    batch = mc.simulate(levy.none(), degenerate_coeffs(0.3, 0.0),
                        0.1, 1.0, 50, 16, 7)
    flat = payoff.tabulated([-50.0, 50.0], [2.5, 2.5])
    est = mc.european_estimate(batch, flat, 0.0)
    assert est.price == 2.5 and est.stderr == 0.0


def test_european_put_within_4se(diffusion_batch):
    est = mc.european_estimate(diffusion_batch, PUT, R)
    assert est.stderr < 1e-3
    assert abs(est.price - BS_PUT) <= 4.0 * est.stderr


def test_jump_european_put_within_4se(merton_batch):
    est = mc.european_estimate(merton_batch, PUT, R)
    assert abs(est.price - MERTON_PUT) <= 4.0 * est.stderr


def test_callable_rate_matches_scalar(merton_batch):
    sub = mc.PathBatch(merton_batch.states[:2000], merton_batch.times,
                       merton_batch.jump_counts[:2000])
    a = mc.european_estimate(sub, PUT, R)
    b = mc.european_estimate(
        sub, PUT, lambda x, t: np.full_like(np.asarray(x, float), R))
    assert a.price == pytest.approx(b.price, abs=1e-14)
    assert a.stderr == pytest.approx(b.stderr, abs=1e-14)


# ---------------------------------------------------------------------------
# stopping lower bound


def lattice_rule(model, coeffs):
    """The contact set of a projected solve of the same model, horizon 1,
    as a rule ``rule(x, s)`` at time to expiry ``s``."""
    grid = SpaceTimeGrid(-0.5, 0.5, 1.5, 200, 1.0, 200)
    cfg = SolveConfig(grid, model, coeffs, PUT, mode="projected")
    return diagnostics.stopping_rule(solve_vi(cfg).value, PUT,
                                     contact_tol(cfg, None))


def stop_on(rule, batch, shift=0.0):
    """``stop(x, n)`` on ``batch``: ``rule`` at each step's time to expiry,
    read at ``x + shift``."""
    T = batch.times[-1]
    return lambda x, n: rule(x + shift, T - batch.times[n])


@pytest.fixture(scope="module")
def diffusion_rule():
    return lattice_rule(levy.none(), diffusion_coeffs())


@pytest.fixture(scope="module")
def merton_rule():
    return lattice_rule(*merton_setup())


@pytest.fixture(scope="module")
def ts_rule():
    return lattice_rule(*ts_setup())


def test_lower_bound_brackets_binomial(diffusion_batch, diffusion_rule):
    lb = mc.stopping_lower_bound(diffusion_batch, PUT, R,
                                 stop_on(diffusion_rule, diffusion_batch))
    assert lb.stderr < 1e-3
    # honest lower bound: never significantly above the tree price ...
    assert lb.price <= BINOMIAL_PUT + 4.0 * lb.stderr
    # ... and the policy is near-optimal (within 1% plus noise)
    assert lb.price >= 0.99 * BINOMIAL_PUT - 4.0 * lb.stderr


def test_stopping_dominates_european(diffusion_batch, merton_batch,
                                     diffusion_rule, merton_rule):
    for batch, rule in ((diffusion_batch, diffusion_rule),
                        (merton_batch, merton_rule)):
        eu = mc.european_estimate(batch, PUT, R)
        lb = mc.stopping_lower_bound(batch, PUT, R, stop_on(rule, batch))
        assert lb.price >= eu.price - 4.0 * (eu.stderr + lb.stderr)


def test_immediate_exercise_dominance_deep_in_the_money(merton_rule):
    mod, coeffs = merton_setup()
    batch = mc.simulate(mod, coeffs, -0.3, 1.0, 20_000, 32, 41)
    lb = mc.stopping_lower_bound(batch, PUT, R, stop_on(merton_rule, batch))
    g0 = float(PUT(np.array([-0.3]))[0])
    assert lb.price >= g0 - 4.0 * lb.stderr


def test_zero_reward_gives_exact_zero(diffusion_batch, diffusion_rule):
    zero = payoff.tabulated([-50.0, 50.0], [0.0, 0.0])
    lb = mc.stopping_lower_bound(diffusion_batch, zero, R,
                                 stop_on(diffusion_rule, diffusion_batch))
    assert lb.price == 0.0 and lb.stderr == 0.0


def test_drift_only_paths_stopped_at_one_step_are_exact():
    # every path is x0 + 0.3 t, so a rule that stops at step k values
    # exp(-r t_k) g(x_k) on each; k = 16 never stops early and takes g at
    # expiry
    batch = mc.simulate(levy.none(), degenerate_coeffs(0.3, R),
                        -0.5, 1.0, 1000, 16, 5)
    for k in (0, 7, 16):
        lb = mc.stopping_lower_bound(
            batch, PUT, R, lambda x, n: np.full(x.shape, n == k))
        t_k = batch.times[k]
        want = math.exp(-R * t_k) * float(PUT(np.array([-0.5 + 0.3 * t_k]))[0])
        assert lb.price == pytest.approx(want, rel=1e-12), k
        # identical values: the stderr is 0 up to the rounding of the mean
        assert lb.stderr <= 1e-15, k


def _mask_lower_bound(batch, g, r, stop):
    """Reference for ``mc.stopping_lower_bound``: the rule, the reward and
    the discount on every path at every step, stopped paths masked out."""
    xs, times = batch.states, batch.times
    alive = np.ones(batch.n_paths, dtype=bool)
    vals = np.zeros(batch.n_paths)
    cum = np.zeros(batch.n_paths)
    for n in range(batch.n_steps):
        hit = alive & stop(xs[:, n], n)
        vals[hit] = np.exp(-cum[hit]) * np.asarray(g(xs[hit, n]), dtype=float)
        alive &= ~hit
        cum += mc._step_discount(r, xs[:, n], times, n)
    vals[alive] = np.exp(-cum[alive]) * \
        np.asarray(g(xs[alive, -1]), dtype=float)
    # the mean lies in the values' range, whatever the summation's rounding
    mean = min(max(float(vals.mean()), float(vals.min())), float(vals.max()))
    return mc.MCEstimate(mean, float(vals.std(ddof=1)) / math.sqrt(vals.size))


@pytest.mark.parametrize("kind", ["terminal", "lower_bound"])
def test_equal_path_values_give_that_value(kind):
    # numpy's summation carries the mean of 20,000 copies of v three units
    # in the last place above v; the estimate stays at v, so a rule that
    # stops every path at once prices the reward there exactly
    v = 0.4578974018625146
    assert float(np.full(20_000, v).mean()) > v
    batch = mc.simulate(levy.none(), CoefficientField.constants(0.02, 0.0,
                                                                0.0),
                        0.0, 1.0, 20_000, 4, 5)

    def reward(y):
        return np.full(np.shape(y), v)
    est = mc.european_estimate(batch, reward, 0.0) if kind == "terminal" \
        else mc.stopping_lower_bound(batch, reward, 0.0,
                                     lambda y, n: np.ones(y.shape, bool))
    assert est.price == v


def _ts_batch():
    mod, coeffs = ts_setup()
    return mc.simulate(mod, coeffs, 0.0, 1.0, 20_000, 16, 37), coeffs


@pytest.mark.parametrize("shift", [0.0, -0.1])
def test_policy_matches_the_boolean_mask_policy(ts_rule, shift):
    batch, coeffs = _ts_batch()

    def reward(y):
        return PUT(y + shift)
    stop = stop_on(ts_rule, batch, shift)
    got = mc.stopping_lower_bound(batch, reward, coeffs.r, stop)
    assert got == _mask_lower_bound(batch, reward, coeffs.r, stop)
    assert got.stderr > 0.0


def test_policy_matches_the_boolean_mask_policy_on_degenerate_paths(
        diffusion_rule):
    # every path sits at x0 until the contact set reaches it near expiry
    batch = mc.simulate(levy.none(), degenerate_coeffs(0.0, R),
                        -0.1, 1.0, 12_000, 16, 5)
    stop = stop_on(diffusion_rule, batch)
    got = mc.stopping_lower_bound(batch, PUT, R, stop)
    assert got == _mask_lower_bound(batch, PUT, R, stop)
    k = next(n for n in range(batch.n_steps) if stop(batch.states[:1, n], n))
    assert 0 < k < batch.n_steps
    assert got.price == pytest.approx(
        math.exp(-R * batch.times[k]) * float(PUT(np.array([-0.1]))[0]),
        rel=1e-12)


def test_policy_matches_the_boolean_mask_policy_with_a_state_rate(ts_rule):
    # a rate that varies with the state: the discount read on live paths
    # only must add up to the one read on every path
    batch, _ = _ts_batch()

    def rate(x, t):
        return R + 0.02 * np.tanh(np.asarray(x, dtype=float) + t)
    stop = stop_on(ts_rule, batch)
    got = mc.stopping_lower_bound(batch, PUT, rate, stop)
    assert got == _mask_lower_bound(batch, PUT, rate, stop)
    assert got.stderr > 0.0


def test_halving_the_split_keeps_the_tempered_stable_lower_bound(
        ts_rule, monkeypatch):
    # the Gaussian stand-in for jumps below the split radius is the
    # split's only approximation (Asmussen & Rosinski 2001); halving the
    # split must move the ts15 lower bound by less than 3 combined
    # standard errors
    mod, coeffs = ts_setup()
    batches = []
    for eps in (0.01, 0.005):
        monkeypatch.setattr(mc, "DEFAULT_SPLIT", eps)
        batches.append(mc.simulate(mod, coeffs, 0.0, 1.0, 20_000, 16, 7))
    coarse, fine = (mc.stopping_lower_bound(b, PUT, R, stop_on(ts_rule, b))
                    for b in batches)
    assert abs(fine.price - coarse.price) <= \
        3.0 * np.hypot(coarse.stderr, fine.stderr)


# ---------------------------------------------------------------------------
# one batch for every start: shifted rewards


@pytest.mark.parametrize("model", [
    levy.merton(1.5, -0.05, 0.25),
    levy.tempered_stable(0.2, 0.2, 1.5, 1.5, 3.0, 3.0)], ids=["merton", "ts"])
def test_shifted_reward_matches_a_batch_started_at_the_shift(model):
    # with constant coefficients the increments do not depend on the
    # state, so the paths from x0 + d are those from x0 moved by d: on the
    # same seed they differ only by the rounding of the running sums
    coeffs = CoefficientField.constants(
        A, R - A - levy.exp_compensator(model), R)
    rule = lattice_rule(model, coeffs)
    d = -0.1
    moved = mc.simulate(model, coeffs, 0.0, 1.0, 20_000, 16, 23)
    direct = mc.simulate(model, coeffs, d, 1.0, 20_000, 16, 23)

    def shifted(y):
        return PUT(y + d)
    eu_moved = mc.european_estimate(moved, shifted, R)
    eu_direct = mc.european_estimate(direct, PUT, R)
    assert eu_moved.price == pytest.approx(eu_direct.price, rel=1e-12)
    assert eu_moved.stderr == pytest.approx(eu_direct.stderr, rel=1e-12)
    lb_moved = mc.stopping_lower_bound(moved, shifted, R,
                                       stop_on(rule, moved, d))
    lb_direct = mc.stopping_lower_bound(direct, PUT, R, stop_on(rule, direct))
    assert abs(lb_moved.price - lb_direct.price) <= 0.1 * lb_direct.stderr


# ---------------------------------------------------------------------------
# value-function regularity seen through paths


def test_lipschitz_modulus_common_random_numbers():
    # same seed at two starts: with constant coefficients the paths shift
    # rigidly, so the estimated modulus is bounded by the reward's constant
    mod, coeffs = merton_setup()
    d = 0.01
    pa = mc.european_estimate(
        mc.simulate(mod, coeffs, 0.0, 1.0, 20_000, 32, 31), PUT, R)
    pb = mc.european_estimate(
        mc.simulate(mod, coeffs, d, 1.0, 20_000, 32, 31), PUT, R)
    modulus = abs(pb.price - pa.price) / d
    assert modulus <= PUT.lipschitz * 1.1
