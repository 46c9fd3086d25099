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
from jumpstop.errors import NumericalError, ParameterError
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


#: ``mc.simulate`` arguments of the two 100,000-path batches
DIFFUSION = (levy.none(), diffusion_coeffs(), 0.0, 1.0, 100_000, 64, 17)
MERTON = (*merton_setup(), 0.0, 1.0, 100_000, 64, 13)


@pytest.fixture(scope="module")
def merton_batch():
    return mc.simulate(*MERTON)


class RowRecorder:
    """Watcher that keeps a copy of every row ``mc.simulate`` hands out;
    ``states`` has a row per path and a column per time level."""

    def __init__(self):
        self.rows = []

    def __call__(self, x, n, times):
        assert n == len(self.rows)
        self.rows.append(x.copy())

    @property
    def states(self):
        return np.stack(self.rows, axis=1)


def simulate_states(*args, watchers=()):
    """``mc.simulate(*args)`` with its every row recorded: the batch and
    its states, a row per path and a column per time level."""
    rec = RowRecorder()
    batch = mc.simulate(*args, watchers=[rec, *watchers])
    return batch, rec.states


def estimates(args, *values):
    """The estimates of ``values`` watching one ``mc.simulate(*args)``."""
    mc.simulate(*args, watchers=values)
    return [value.result for value in values]


# ---------------------------------------------------------------------------
# simulation


def test_drift_only_paths_are_exact():
    batch, states = simulate_states(levy.none(), degenerate_coeffs(0.3, 0.0),
                                    0.1, 1.0, 50, 16, 7)
    assert np.max(np.abs(batch.terminal - 0.4)) < 1e-12
    assert np.array_equal(batch.terminal, states[:, -1])
    assert batch.n_paths == 50 and batch.n_steps == 16
    assert (states[:, 0] == 0.1).all()


def test_gaussian_terminal_moments():
    batch = mc.simulate(levy.none(), diffusion_coeffs(), 0.0, 1.0,
                        100_000, 64, 11)
    xT = batch.terminal
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
    batch, states = simulate_states(
        mod, degenerate_coeffs(scheme.comp_drift, 0.0), 0.0, 1.0, 2000, 400,
        19)
    inc = np.diff(states, axis=1)
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
    batch, got = simulate_states(model, coeffs, 0.1, 1.0, 2000, 16, 29)
    states, counts = _reference_simulate(model, coeffs, 0.1, 1.0, 2000,
                                         16, 29)
    assert np.array_equal(got, states)
    assert np.array_equal(batch.terminal, states[:, -1])
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
    batch, got = simulate_states(model, coeffs, 0.1, 1.0, 50, 4, 31)
    states, counts = _reference_simulate(model, coeffs, 0.1, 1.0, 50, 4,
                                         31)
    assert np.array_equal(got, states)
    assert np.array_equal(batch.jump_counts, counts)


def test_one_step_of_150k_jumps_is_the_reference_loop_bit_for_bit():
    # the shape of a European Merton check: every jump in one step
    model, coeffs = merton_setup()
    batch, got = simulate_states(model, coeffs, 0.0, 1.0, 100_000, 1, 37)
    states, counts = _reference_simulate(model, coeffs, 0.0, 1.0, 100_000,
                                         1, 37)
    assert counts.sum() > 140_000
    assert np.array_equal(got, states)
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
    # beyond two rows of states, the jump counts and the step's int32
    # owners, simulate holds the table (640 KiB) and one block of jumps
    # (640 KiB), whatever the batch size or the number of steps; sizing a
    # whole step at once held about 37 bytes per jump, and keeping every
    # row held 8 bytes per path and step
    model, coeffs = ts_setup()
    rate = mc._build_scheme(model).rate
    # a first batch fills the caches that live past it
    mc.simulate(model, coeffs, 0.0, 1.0, 10, 1, 41)
    rest = {}
    for n_steps in (16, 64):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            batch = mc.simulate(model, coeffs, 0.0, 1.0, n_paths, n_steps,
                                41)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        largest = _largest_step(rate, 1.0, n_paths, n_steps, 41)
        assert largest > 15 * n_paths * 16 / n_steps
        rest[n_steps] = peak - 4 * largest
        excess = rest[n_steps] - 2 * batch.terminal.nbytes \
            - batch.jump_counts.nbytes
        assert excess < 2 * 2**20, n_steps
        del batch
    assert abs(rest[64] - rest[16]) < 256 * 2**10


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


def test_watchers_see_every_row_in_two_reused_buffers():
    # rows 0 ... n_steps in order, each a contiguous row of the states at
    # times[n]; two buffers take turns, and the last is the terminal row
    seen = []

    def watch(x, n, times):
        assert x.shape == (1000,) and x.flags.c_contiguous
        seen.append((n, x.ctypes.data, times))
    batch = mc.simulate(*merton_setup(), 0.0, 1.0, 1000, 16, 13,
                        watchers=[watch])
    assert [n for n, _, _ in seen] == list(range(17))
    assert all(times is batch.times for _, _, times in seen)
    buffers = [data for _, data, _ in seen]
    assert buffers[0::2] == [buffers[0]] * 9
    assert buffers[1::2] == [buffers[1]] * 8
    assert buffers[1] != buffers[0]
    assert batch.terminal.ctypes.data == buffers[-1]
    assert batch.n_paths == 1000 and batch.n_steps == 16


def test_split_scheme_for_infinite_activity():
    mod = levy.nig(6.0, -1.0, 0.3)
    b = R - A - levy.exp_compensator(mod)
    coeffs = CoefficientField.constants(A, b, R)
    batch = mc.simulate(mod, coeffs, 0.0, 0.5, 20_000, 32, 23)
    scheme = mc._build_scheme(mod)
    assert mc.DEFAULT_SPLIT == 0.01
    assert scheme.small_var == pytest.approx(levy.tails(mod, 0.01).small_var)
    assert np.all(np.isfinite(batch.terminal))
    assert batch.jump_counts.mean() > 1.0  # activity above the split is high


def test_zero_intensity_simulates_as_a_diffusion():
    # no jump mass above the split: no jump table, no jump draws, and the
    # same random stream as the jump-free model
    batch, states = simulate_states(levy.merton(0.0, -0.05, 0.25),
                                    diffusion_coeffs(), 0.0, 1.0, 1000, 16, 5)
    _, plain = simulate_states(levy.none(), diffusion_coeffs(), 0.0, 1.0,
                               1000, 16, 5)
    assert not batch.jump_counts.any()
    assert np.array_equal(states, plain)


def test_seed_determinism_and_sensitivity():
    mod, coeffs = merton_setup()
    b1, s1 = simulate_states(mod, coeffs, 0.0, 1.0, 1000, 16, 99)
    b2, s2 = simulate_states(mod, coeffs, 0.0, 1.0, 1000, 16, 99)
    _, s3 = simulate_states(mod, coeffs, 0.0, 1.0, 1000, 16, 98)
    assert np.array_equal(s1, s2)
    assert np.array_equal(b1.jump_counts, b2.jump_counts)
    assert not np.array_equal(s1, s3)


def test_non_finite_states_stop_the_batch_before_a_watcher_sees_them():
    # a diffusion field that turns NaN past half the horizon (time to
    # expiry below 0.5) poisons the rows from there on
    nan_late = CoefficientField(
        a=lambda x, t: np.full(np.shape(x), np.nan if t < 0.5 else A),
        b=lambda x, t: np.zeros(np.shape(x)),
        r=lambda x, t: np.full(np.shape(x), R), time_dependent=True)
    rec = RowRecorder()
    with pytest.raises(NumericalError, match="non-finite states"):
        mc.simulate(levy.none(), nan_late, 0.0, 1.0, 100, 8, 1,
                    watchers=[rec])
    assert len(rec.rows) == 6
    assert all(np.isfinite(row).all() for row in rec.rows)


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
    for u, v in ((one.terminal, many.terminal),
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
    np.testing.assert_array_equal(batch.terminal, 0.625)


def test_discount_reads_the_rate_at_the_time_to_expiry():
    """A constant reward under r(x, t) = t is priced at
    exp(-sum_n r(T - tau_n) dt)."""
    flat = payoff.tabulated([-50.0, 50.0], [2.5, 2.5])
    value = mc.european_estimate(flat, _clock_coeffs().r)
    batch = mc.simulate(levy.none(), _clock_coeffs(), 0.0, 1.0, 3, 4, 7,
                        watchers=[value])
    est = value.result
    tau = batch.times[:-1]
    want = 2.5 * math.exp(-float(np.sum((1.0 - tau) * 0.25)))
    assert est.price == pytest.approx(want, rel=1e-15)
    assert est.price == pytest.approx(2.5 * math.exp(-0.625), rel=1e-15)


def test_constant_reward_zero_rate_is_exact():
    flat = payoff.tabulated([-50.0, 50.0], [2.5, 2.5])
    est, = estimates((levy.none(), degenerate_coeffs(0.3, 0.0), 0.1, 1.0,
                      50, 16, 7), mc.european_estimate(flat, 0.0))
    assert est.price == 2.5 and est.stderr == 0.0


def test_european_put_within_4se():
    est, = estimates(DIFFUSION, mc.european_estimate(PUT, R))
    assert est.stderr < 1e-3
    assert abs(est.price - BS_PUT) <= 4.0 * est.stderr


def test_jump_european_put_within_4se():
    est, = estimates(MERTON, mc.european_estimate(PUT, R))
    assert abs(est.price - MERTON_PUT) <= 4.0 * est.stderr


def test_callable_rate_matches_scalar():
    a, b = estimates(
        (*MERTON[:4], 2000, *MERTON[5:]), mc.european_estimate(PUT, R),
        mc.european_estimate(
            PUT, lambda x, t: np.full_like(np.asarray(x, float), R)))
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


def shifted(rule, shift):
    """``rule`` read at ``x + shift``."""
    return lambda x, s: rule(x + shift, s)


@pytest.fixture(scope="module")
def diffusion_rule():
    return lattice_rule(levy.none(), diffusion_coeffs())


@pytest.fixture(scope="module")
def merton_rule():
    return lattice_rule(*merton_setup())


@pytest.fixture(scope="module")
def ts_rule():
    return lattice_rule(*ts_setup())


def test_lower_bound_brackets_binomial(diffusion_rule):
    lb, = estimates(DIFFUSION, mc.stopping_lower_bound(PUT, R,
                                                       diffusion_rule))
    assert lb.stderr < 1e-3
    # honest lower bound: never significantly above the tree price ...
    assert lb.price <= BINOMIAL_PUT + 4.0 * lb.stderr
    # ... and the policy is near-optimal (within 1% plus noise)
    assert lb.price >= 0.99 * BINOMIAL_PUT - 4.0 * lb.stderr


def test_stopping_dominates_european(diffusion_rule, merton_rule):
    for args, rule in ((DIFFUSION, diffusion_rule), (MERTON, merton_rule)):
        eu, lb = estimates(args, mc.european_estimate(PUT, R),
                           mc.stopping_lower_bound(PUT, R, rule))
        assert lb.price >= eu.price - 4.0 * (eu.stderr + lb.stderr)


def test_immediate_exercise_dominance_deep_in_the_money(merton_rule):
    mod, coeffs = merton_setup()
    lb, = estimates((mod, coeffs, -0.3, 1.0, 20_000, 32, 41),
                    mc.stopping_lower_bound(PUT, R, merton_rule))
    g0 = float(PUT(np.array([-0.3]))[0])
    assert lb.price >= g0 - 4.0 * lb.stderr


def test_zero_reward_gives_exact_zero(diffusion_rule):
    zero = payoff.tabulated([-50.0, 50.0], [0.0, 0.0])
    lb, = estimates(DIFFUSION, mc.stopping_lower_bound(zero, R,
                                                       diffusion_rule))
    assert lb.price == 0.0 and lb.stderr == 0.0


def test_drift_only_paths_stopped_at_one_step_are_exact():
    # every path is x0 + 0.3 t, so a rule that stops at step k values
    # exp(-r t_k) g(x_k) on each; k = 16 never stops early and takes g at
    # expiry; the three rules watch one batch
    times = np.linspace(0.0, 1.0, 17)
    ks = (0, 7, 16)
    found = estimates(
        (levy.none(), degenerate_coeffs(0.3, R), -0.5, 1.0, 1000, 16, 5),
        *(mc.stopping_lower_bound(
            PUT, R, lambda x, s, k=k: np.full(x.shape, s == 1.0 - times[k]))
          for k in ks))
    for k, lb in zip(ks, found):
        t_k = times[k]
        want = math.exp(-R * t_k) * float(PUT(np.array([-0.5 + 0.3 * t_k]))[0])
        assert lb.price == pytest.approx(want, rel=1e-12), k
        # identical values: the stderr is 0 up to the rounding of the mean
        assert lb.stderr <= 1e-15, k


def _reference_lower_bound(states, times, g, r, stop):
    """The buffered loop ``mc.stopping_lower_bound`` ran before it
    streamed: the whole batch's ``states`` (a row per path, a column per
    time level) read level by level, on the paths that have not
    stopped."""
    rows = states.T  # time-major: row n holds the states at times[n]
    n_paths, n_steps = states.shape[0], states.shape[1] - 1
    vals = np.zeros(n_paths)
    live = np.arange(n_paths)
    cum = np.zeros(n_paths)
    x = rows[0]
    for n in range(n_steps):
        hit = np.flatnonzero(stop(x, times[-1] - times[n]))
        if hit.size:
            vals[live[hit]] = np.exp(-cum[hit]) * \
                np.asarray(g(x[hit]), dtype=float)
            keep = np.ones(live.size, dtype=bool)
            keep[hit] = False
            live, cum, x = live[keep], cum[keep], x[keep]
        cum += mc._step_discount(r, x, times, n)
        x = rows[n + 1][live]
    vals[live] = np.exp(-cum) * np.asarray(g(x), dtype=float)
    return mc._estimate(vals)


def _mask_lower_bound(states, times, g, r, stop):
    """Reference for ``mc.stopping_lower_bound``: the rule, the reward and
    the discount on every path at every step, stopped paths masked out."""
    n_paths, n_steps = states.shape[0], states.shape[1] - 1
    alive = np.ones(n_paths, dtype=bool)
    vals = np.zeros(n_paths)
    cum = np.zeros(n_paths)
    for n in range(n_steps):
        xs = states[:, n]
        hit = alive & stop(xs, times[-1] - times[n])
        vals[hit] = np.exp(-cum[hit]) * np.asarray(g(xs[hit]), dtype=float)
        alive &= ~hit
        cum += mc._step_discount(r, xs, times, n)
    vals[alive] = np.exp(-cum[alive]) * \
        np.asarray(g(states[alive, -1]), dtype=float)
    # the mean lies in the values' range, whatever the summation's rounding
    mean = min(max(float(vals.mean()), float(vals.min())), float(vals.max()))
    return mc.MCEstimate(mean, float(vals.std(ddof=1)) / math.sqrt(vals.size))


def _fields_setup():
    """The ts15 model on fields that vary with the state and the time,
    with a rate that varies too (the rate is not a constant float)."""
    model, _ = ts_setup()
    b = R - A - levy.exp_compensator(model)

    def full(v):
        return lambda x, t: v * (1.0 + 0.1 * np.tanh(np.asarray(x, float))
                                 + 0.05 * t)
    coeffs = CoefficientField(a=full(A), b=full(b), r=full(R),
                              time_dependent=True)
    assert not coeffs.constant
    return model, coeffs


@pytest.mark.parametrize("case", ["shared_batch", "fields", "stop_at_once",
                                  "never_stop"])
def test_streamed_lower_bound_is_the_buffered_loop_bit_for_bit(case,
                                                               ts_rule):
    model, coeffs = _fields_setup() if case == "fields" else ts_setup()
    rate = coeffs.r if case == "fields" else R
    if case == "shared_batch":
        # two probes watch one batch, each reading it at its own shift
        cases = [(lambda y, d=d: PUT(y + d), shifted(ts_rule, d))
                 for d in (0.0, -0.1)]
    else:
        stop = {"fields": ts_rule,
                "stop_at_once": lambda x, s: np.ones(x.shape, bool),
                "never_stop": lambda x, s: np.zeros(x.shape, bool)}[case]
        cases = [(PUT, stop)]
    values = [mc.stopping_lower_bound(g, rate, stop) for g, stop in cases]
    batch, states = simulate_states(model, coeffs, -0.05, 1.0, 5000, 16, 43,
                                    watchers=values)
    for (g, stop), value in zip(cases, values):
        got = value.result
        want = _reference_lower_bound(states, batch.times, g, rate, stop)
        assert got == want
        if case == "stop_at_once":
            assert got == (float(PUT(np.array([-0.05]))[0]), 0.0)
        else:
            assert got.stderr > 0.0


@pytest.mark.parametrize("kind", ["terminal", "lower_bound"])
def test_equal_path_values_give_that_value(kind):
    # numpy's summation carries the mean of 20,000 copies of v three units
    # in the last place above v; the estimate stays at v, so a rule that
    # stops every path at once prices the reward there exactly
    v = 0.4578974018625146
    assert float(np.full(20_000, v).mean()) > v

    def reward(y):
        return np.full(np.shape(y), v)
    value = mc.european_estimate(reward, 0.0) if kind == "terminal" \
        else mc.stopping_lower_bound(reward, 0.0,
                                     lambda y, s: np.ones(y.shape, bool))
    est, = estimates((levy.none(), CoefficientField.constants(0.02, 0.0,
                                                              0.0),
                      0.0, 1.0, 20_000, 4, 5), value)
    assert est.price == v


TS_BATCH = (*ts_setup(), 0.0, 1.0, 20_000, 16, 37)


@pytest.mark.parametrize("shift", [0.0, -0.1])
def test_policy_matches_the_boolean_mask_policy(ts_rule, shift):
    def reward(y):
        return PUT(y + shift)
    stop = shifted(ts_rule, shift)
    value = mc.stopping_lower_bound(reward, TS_BATCH[1].r, stop)
    batch, states = simulate_states(*TS_BATCH, watchers=[value])
    got = value.result
    assert got == _mask_lower_bound(states, batch.times, reward,
                                    TS_BATCH[1].r, stop)
    assert got.stderr > 0.0


def test_policy_matches_the_boolean_mask_policy_on_degenerate_paths(
        diffusion_rule):
    # every path sits at x0 until the contact set reaches it near expiry
    value = mc.stopping_lower_bound(PUT, R, diffusion_rule)
    batch, states = simulate_states(levy.none(), degenerate_coeffs(0.0, R),
                                    -0.1, 1.0, 12_000, 16, 5,
                                    watchers=[value])
    got = value.result
    times = batch.times
    assert got == _mask_lower_bound(states, times, PUT, R, diffusion_rule)
    k = next(n for n in range(batch.n_steps)
             if diffusion_rule(states[:1, n], times[-1] - times[n]))
    assert 0 < k < batch.n_steps
    assert got.price == pytest.approx(
        math.exp(-R * times[k]) * float(PUT(np.array([-0.1]))[0]),
        rel=1e-12)


def test_policy_matches_the_boolean_mask_policy_with_a_state_rate(ts_rule):
    # a rate that varies with the state: the discount read on live paths
    # only must add up to the one read on every path
    def rate(x, t):
        return R + 0.02 * np.tanh(np.asarray(x, dtype=float) + t)
    value = mc.stopping_lower_bound(PUT, rate, ts_rule)
    batch, states = simulate_states(*TS_BATCH, watchers=[value])
    got = value.result
    assert got == _mask_lower_bound(states, batch.times, PUT, rate, ts_rule)
    assert got.stderr > 0.0


def test_halving_the_split_keeps_the_tempered_stable_lower_bound(
        ts_rule, monkeypatch):
    # the Gaussian stand-in for jumps below the split radius is the
    # split's only approximation (Asmussen & Rosinski 2001); halving the
    # split must move the ts15 lower bound by less than 3 combined
    # standard errors
    mod, coeffs = ts_setup()
    found = []
    for eps in (0.01, 0.005):
        monkeypatch.setattr(mc, "DEFAULT_SPLIT", eps)
        found += estimates((mod, coeffs, 0.0, 1.0, 20_000, 16, 7),
                           mc.stopping_lower_bound(PUT, R, ts_rule))
    coarse, fine = found
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

    def moved(y):
        return PUT(y + d)
    eu_moved, lb_moved = estimates(
        (model, coeffs, 0.0, 1.0, 20_000, 16, 23),
        mc.european_estimate(moved, R),
        mc.stopping_lower_bound(moved, R, shifted(rule, d)))
    eu_direct, lb_direct = estimates(
        (model, coeffs, d, 1.0, 20_000, 16, 23),
        mc.european_estimate(PUT, R), mc.stopping_lower_bound(PUT, R, rule))
    assert eu_moved.price == pytest.approx(eu_direct.price, rel=1e-12)
    assert eu_moved.stderr == pytest.approx(eu_direct.stderr, rel=1e-12)
    assert abs(lb_moved.price - lb_direct.price) <= 0.1 * lb_direct.stderr


# ---------------------------------------------------------------------------
# value-function regularity seen through paths


def test_lipschitz_modulus_common_random_numbers():
    # same seed at two starts: with constant coefficients the paths shift
    # rigidly, so the estimated modulus is bounded by the reward's constant
    mod, coeffs = merton_setup()
    d = 0.01
    pa, = estimates((mod, coeffs, 0.0, 1.0, 20_000, 32, 31),
                    mc.european_estimate(PUT, R))
    pb, = estimates((mod, coeffs, d, 1.0, 20_000, 32, 31),
                    mc.european_estimate(PUT, R))
    modulus = abs(pb.price - pa.price) / d
    assert modulus <= PUT.lipschitz * 1.1
