"""Discrete generator tests.

The jump-operator identities are checked against moment integrals of the
jump density computed with the adaptive quadrature engine (itself
validated against a brute-force Riemann oracle in test_levy.py):

* constants are annihilated;
* the identity map picks up exactly the signed mean of jumps beyond 1;
* squares pick up the full second moment plus the cross term;
* the small/large split recombines to the full operator to rounding for
  every admissible cut, and the small half carries exactly the second
  moment below the cut.

A cut must be a cell edge: a half-node ``(k + 1/2) h`` or 1.  The split
tests name a nominal cut (0.25, 0.5, 1.0) and cut at :func:`_edge` of it.
"""

import numpy as np
import pytest

from jumpstop import levy, payoff
from jumpstop.errors import ParameterError
from jumpstop.generator import (NEAR_GHOSTS, apply_local, apply_nonlocal,
                                apply_nonlocal_ext, apply_nonlocal_grid,
                                build_operator, core_band, ghost_term,
                                ghost_terms, operator_summary)
from jumpstop.grids import (CoefficientField, GridFunction, PayoffGhosts,
                            SpaceTimeGrid, extend_slice)
from jumpstop.solver import SolveConfig, solve_vi
from jump_split import _cells, apply_nonlocal_split

GRID = SpaceTimeGrid(x_lo=-2.0, x_hi=2.0, pad=1.5, nx=280,
                     t_final=1.0, nt=10)

MODELS = {
    "merton": levy.merton(intensity=1.5, jump_mean=-0.05, jump_std=0.25),
    "kou": levy.kou(intensity=1.0, p_up=0.4, eta_up=12.0, eta_down=8.0),
    "vg": levy.variance_gamma(sigma=0.2, nu=0.3, theta=-0.1),
    "nig": levy.nig(shape=6.0, skew=-1.0, scale=0.3),
    "ts_sym": levy.tempered_stable(0.5, 0.5, 1.2, 1.2, 3.0, 3.0),
    "ts_asym": levy.tempered_stable(0.3, 0.6, 0.4, 1.5, 2.0, 4.0),
}


@pytest.fixture(scope="module")
def ops():
    return {name: build_operator(m, GRID) for name, m in MODELS.items()}


def _gf(fn):
    return GridFunction(GRID, fn(GRID.nodes), extension="clamp_payoff",
                        payoff=fn)


def _both_sides(model, f, lo, hi):
    """Integrate ``f`` (taking the signed jump size) against the density."""
    return levy.integrate_density(model, lambda t: f(t), lo, hi, side="+") + \
        levy.integrate_density(model, lambda t: f(-t), lo, hi, side="-")


def _big_mean_signed(model, op):
    return _both_sides(model, lambda y: y, 1.0, op.radius + 2.0)


def _full_var(model, op):
    return _both_sides(model, lambda y: y * y, 0.0, op.radius + 2.0)


def _explicit_jump_rate(op, profile="monotone"):
    """Far mass plus twice the second-difference stencil sum / h^2: the
    jumps' decay rate with the core stepped explicitly, a scale for
    rounding tolerances."""
    k2 = op.core_stencil if profile == "monotone" else op.d2_kernel_accurate
    return op.far_mass + 2.0 * float(np.abs(k2).sum()) / (op.h * op.h)


# --- identities on polynomial slices --------------------------------------

@pytest.mark.parametrize("name", sorted(MODELS))
def test_annihilates_constants(ops, name):
    out = apply_nonlocal(ops[name], _gf(lambda x: np.ones_like(x)))
    assert np.max(np.abs(out)) <= 1e-10 * max(1.0, ops[name].far_mass)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_identity_map_picks_up_tail_mean(ops, name):
    op = ops[name]
    out = apply_nonlocal(op, _gf(lambda x: x))
    want = _big_mean_signed(MODELS[name], op)
    tol = 1e-6 * max(1.0, abs(want))
    assert np.max(np.abs(out - want)) <= tol


@pytest.mark.parametrize("name", sorted(MODELS))
def test_square_picks_up_second_moment(ops, name):
    op = ops[name]
    out = apply_nonlocal(op, _gf(lambda x: x * x))
    model = MODELS[name]
    want = _full_var(model, op) + 2.0 * GRID.nodes * \
        _big_mean_signed(model, op)
    tol = 1e-6 * max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(out - want)) <= tol


# --- split invariance and per-half identities ------------------------------

def _edge(eps):
    """The cell edge for the nominal cut ``eps``: 1, or the half-node
    above the grid node nearest ``eps`` (0.25 -> 10.5 h, 0.5 -> 20.5 h on
    ``GRID``)."""
    return 1.0 if eps == 1.0 else (round(eps / GRID.h) + 0.5) * GRID.h


@pytest.mark.parametrize("name", ["merton", "nig", "ts_asym"])
@pytest.mark.parametrize("eps", [0.25, 0.5, 1.0])
def test_split_recombines_exactly(ops, name, eps):
    op = ops[name]
    gf = _gf(lambda x: np.sin(1.3 * x) + 0.3 * x * x)
    full = apply_nonlocal(op, gf)
    small, large = apply_nonlocal_split(op, gf, _edge(eps))
    scale = max(1.0, float(np.max(np.abs(full))))
    assert np.max(np.abs(small + large - full)) <= 1e-11 * scale


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("eps", [0.25, 1.0])
def test_small_half_carries_small_second_moment(ops, name, eps):
    op = ops[name]
    small, _ = apply_nonlocal_split(op, _gf(lambda x: x * x), _edge(eps))
    want = levy.tails(MODELS[name], _edge(eps)).small_var
    assert np.max(np.abs(small - want)) <= 1e-6 * max(1.0, want)


@pytest.mark.parametrize("eps", [0.25, 1.0])
def test_small_half_kills_linear_slices(ops, eps):
    small, large = apply_nonlocal_split(ops["nig"], _gf(lambda x: x),
                                        _edge(eps))
    assert np.max(np.abs(small)) <= 1e-12
    want = _big_mean_signed(MODELS["nig"], ops["nig"])
    assert np.max(np.abs(large - want)) <= 1e-6 * max(1.0, abs(want))


def test_split_rejects_cell_interior_cut(ops):
    op = ops["kou"]
    cell_lo, cell_hi = _cells(op)[:2]
    mids = 0.5 * (cell_lo + cell_hi)
    wide = mids[(cell_hi - cell_lo) > 0.4 * op.h]
    gf = _gf(lambda x: x * x)
    with pytest.raises(ParameterError):
        apply_nonlocal_split(op, gf, float(wide[0]))
    # 0.25 = 10 h is a grid node, not a cell edge
    with pytest.raises(ParameterError, match="bisects a jump cell"):
        apply_nonlocal_split(op, gf, 0.25)
    with pytest.raises(ParameterError):
        apply_nonlocal_split(op, gf, 1.5)
    with pytest.raises(ParameterError):
        apply_nonlocal_split(op, gf, 0.25 * op.y_core)


# --- agreement with direct quadrature on a generic smooth slice ------------

@pytest.mark.parametrize("name", ["kou", "nig"])
def test_matches_quadrature_on_smooth_function(ops, name):
    op = ops[name]
    model = MODELS[name]
    out = apply_nonlocal(op, _gf(np.sin))
    for x0 in (-0.7, 0.0, 1.1):
        i0 = int(round((x0 - GRID.nodes[0]) / GRID.h))
        x0 = GRID.nodes[i0]

        def small_part(y, x0=x0):
            # cancellation-free sin(x0+y) - sin(x0) - y cos(x0): the naive
            # form is rounding noise near y ~ 0, amplified by the density
            return np.sin(x0) * (-2.0 * np.sin(0.5 * y) ** 2) + \
                np.cos(x0) * (np.sin(y) - y)

        def large_part(y, x0=x0):
            return np.sin(x0 + y) - np.sin(x0)

        want = _both_sides(model, small_part, 0.0, 1.0) + \
            _both_sides(model, large_part, 1.0, op.radius + 2.0)
        assert abs(out[i0] - want) <= 1e-4


# --- structural facts ------------------------------------------------------

@pytest.mark.parametrize("name", sorted(MODELS))
def test_moment_bookkeeping(ops, name):
    op = ops[name]
    model = MODELS[name]
    mass = _both_sides(model, lambda y: np.ones_like(y), op.y_core,
                       op.radius + 2.0)
    assert op.far_mass == pytest.approx(mass, rel=1e-8)
    comp = _both_sides(model, lambda y: y, op.y_core, 1.0)
    assert op.compensator == pytest.approx(comp, rel=1e-8, abs=1e-12)
    small = levy.tails(model, op.y_core).small_var
    assert op.core_var == pytest.approx(small, rel=1e-7)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_monotone_profile_is_nonnegative(ops, name):
    op = ops[name]
    assert np.all(op.far_kernel >= 0.0)
    assert np.all(op.core_stencil >= 0.0)
    assert _explicit_jump_rate(op, "monotone") > 0.0
    assert _explicit_jump_rate(op, "accurate") > 0.0


def test_monotone_apply_respects_minimum(ops):
    op = ops["nig"]
    rng = np.random.default_rng(7)
    for _ in range(20):
        vals = rng.uniform(0.5, 2.0, GRID.nx + 1)
        i0 = rng.integers(GRID.nx // 4, 3 * GRID.nx // 4)
        vals[i0] = 0.0
        ne = op.n_ext
        ext = np.concatenate([np.full(ne, 0.75), vals, np.full(ne, 0.75)])
        # the compensator's centered slope is not monotone: add it back
        nb = op.n_base
        d1 = (ext[ne + 1: ne + nb + 1] - ext[ne - 1: ne + nb - 1]) / \
            (2.0 * op.h)
        out = apply_nonlocal_ext(op, ext, profile="monotone") + \
            op.compensator * d1
        assert out[i0] >= -1e-12


def test_linearity(ops):
    op = ops["merton"]
    rng = np.random.default_rng(11)
    u = GridFunction(GRID, rng.standard_normal(GRID.nx + 1), extension="zero")
    w = GridFunction(GRID, rng.standard_normal(GRID.nx + 1), extension="zero")
    both = GridFunction(GRID, 2.0 * u.values - 3.0 * w.values,
                        extension="zero")
    lhs = apply_nonlocal(op, both)
    rhs = 2.0 * apply_nonlocal(op, u) - 3.0 * apply_nonlocal(op, w)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(1.0,
                                                    np.max(np.abs(rhs)))


# --- grid block plus ghost term against the full extension ----------------

@pytest.mark.parametrize("discount", [(1.0, 1.0), (0.7, 0.9)])
@pytest.mark.parametrize("profile", ["monotone", "accurate"])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_grid_path_matches_the_full_extension(ops, name, profile, discount):
    """Kernels narrower and wider than the grid (merton, vg correlate the
    zero-padded grid values; the others use dense blocks)."""
    op = ops[name]
    rng = np.random.default_rng(5)
    gf = GridFunction(GRID, rng.standard_normal(GRID.nx + 1),
                      payoff=lambda x: 1.0 + np.sin(3.0 * x) + 0.2 * x)
    left, right = ghost_terms(op, gf.ghosts, profile)
    near = extend_slice(GRID, gf.values, "clamp_payoff", gf.ghosts,
                        NEAR_GHOSTS, NEAR_GHOSTS, discount)
    got = apply_nonlocal_grid(op, near, profile,
                              discount[0] * left + discount[1] * right)
    ext = extend_slice(GRID, gf.values, "clamp_payoff", gf.ghosts,
                       op.n_ext, op.n_ext, discount)
    want = apply_nonlocal_ext(op, ext, profile)
    tol = 1e-13 * _explicit_jump_rate(op, profile) * np.max(np.abs(ext))
    assert np.max(np.abs(got - want)) <= tol


def test_grid_path_on_a_surface_is_the_path_on_each_slice(ops):
    op = ops["ts_asym"]
    rng = np.random.default_rng(6)
    near = rng.standard_normal((GRID.nx + 1 + 2 * NEAR_GHOSTS, 7))
    ghost = rng.standard_normal(GRID.nx + 1)
    for profile in ("monotone", "accurate"):
        both = apply_nonlocal_grid(op, near, profile, ghost)
        for k in range(near.shape[1]):
            np.testing.assert_array_equal(
                both[:, k], apply_nonlocal_grid(op, near[:, k].copy(),
                                                profile, ghost))


@pytest.mark.parametrize("name", sorted(MODELS))
def test_core_band_and_its_ghosts_are_the_core_stencil(ops, name):
    """The 7-point core on the grid values plus its discounted ghost reads
    is what the monotone profile adds for the core."""
    op = ops[name]
    rng = np.random.default_rng(8)
    gf = GridFunction(GRID, rng.standard_normal(GRID.nx + 1),
                      payoff=lambda x: 1.0 + np.sin(3.0 * x) + 0.2 * x)
    discount = (0.7, 0.9)
    near = extend_slice(GRID, gf.values, "clamp_payoff", gf.ghosts,
                        NEAR_GHOSTS, NEAR_GHOSTS, discount)
    left, right = ghost_terms(op, gf.ghosts, "core")
    c = core_band(op)
    grid_part = np.correlate(np.pad(gf.values, 3), c, mode="valid")
    want = grid_part + discount[0] * left + discount[1] * right
    full = apply_nonlocal_grid(op, near, "monotone")
    far = apply_nonlocal_grid(op, near, "monotone", core=False)
    tol = 1e-13 * _explicit_jump_rate(op) * np.max(np.abs(near))
    assert np.max(np.abs(full - far - want)) <= tol
    assert ghost_terms(op, gf.ghosts, "core")[0] is left


def test_ghost_terms_are_computed_once(ops):
    gf = _gf(lambda x: np.cos(x))
    first = ghost_terms(ops["nig"], gf.ghosts, "accurate")
    assert ghost_terms(ops["nig"], gf.ghosts, "accurate") is first
    assert ghost_terms(ops["nig"], gf.ghosts, "monotone") is not first
    assert ghost_terms(ops["nig"], gf.ghosts, "core") is not first
    with pytest.raises(ParameterError):
        ghost_terms(ops["nig"], gf.ghosts, "fast")


@pytest.mark.parametrize("part", ["accurate", "monotone", "core"])
def test_ghost_term_scales_each_side_by_the_far_field_discount(ops, part):
    """Without a decay the sides add as they are; with one, each side is
    scaled by its factor at ``s``, and an array of levels gives a row
    per level."""
    op = ops["ts_asym"]
    payoff = lambda x: 1.0 + np.sin(3.0 * x) + 0.2 * x  # noqa: E731
    plain = PayoffGhosts(GRID, payoff)
    left, right = ghost_terms(op, plain, part)
    assert plain.discount(0.3) == (1.0, 1.0)
    np.testing.assert_array_equal(ghost_term(op, plain, part, 0.3),
                                  left + right)
    decay = lambda s: (np.exp(-0.1 * s), np.exp(-0.5 * s))  # noqa: E731
    far = PayoffGhosts(GRID, payoff, decay)
    np.testing.assert_array_equal(
        ghost_term(op, far, part, 0.3),
        np.exp(-0.1 * 0.3) * left + np.exp(-0.5 * 0.3) * right)
    levels = np.array([0.0, 0.3, 0.7])
    rows = ghost_term(op, far, part, levels)
    assert rows.shape == (3, GRID.nx + 1)
    for k, s in enumerate(levels):
        np.testing.assert_array_equal(rows[k], ghost_term(op, far, part, s))


# --- first moment of the unit band -----------------------------------------

@pytest.mark.parametrize("name", sorted(MODELS) + ["ts_fv"])
def test_compensator_reproduces_unit_band_mean(ops, name):
    """The band compensator plus the exact core mean is the first moment
    of the jumps in ``|y| <= 1``; the core mean exists only under finite
    variation."""
    if name == "ts_fv":
        model = levy.tempered_stable(0.3, 0.6, 0.4, 0.9, 2.0, 4.0)
        op = build_operator(model, GRID)
    else:
        model, op = MODELS[name], ops[name]
    if not model.finite_variation:
        assert op.fv_core is None
        return
    assert op.compensator + op.fv_core == pytest.approx(
        levy.jump_moment(model, 1, 0.0, 1.0), rel=1e-12)


@pytest.mark.parametrize("nx", [280, 400])
def test_symmetric_measure_has_an_exactly_zero_compensator(nx):
    # summed exactly, the cell means of the two sides cancel, so no
    # rounding-level first difference enters the operator
    grid = SpaceTimeGrid(-0.5, 0.5, 1.5, nx, 1.0, 10)
    for model in (MODELS["ts_sym"], levy.variance_gamma(0.2, 0.3, 0.0),
                  levy.tempered_stable(0.2, 0.2, 1.5, 1.5, 3.0, 3.0)):
        assert build_operator(model, grid).compensator == 0.0


# --- local part and trivial model ------------------------------------------

def test_local_part_exact_on_quadratics():
    coeffs = CoefficientField.constants(a=0.07, b=-0.3, r=0.02)
    out = apply_local(coeffs, _gf(lambda x: x * x))
    want = 0.07 * 2.0 + (-0.3) * 2.0 * GRID.nodes
    assert np.max(np.abs(out - want)) <= 1e-11


def test_trivial_model_gives_zero_operator():
    op = build_operator(levy.none(), GRID)
    gf = _gf(lambda x: np.sin(x))
    assert np.max(np.abs(apply_nonlocal(op, gf))) == 0.0
    assert _explicit_jump_rate(op) == 0.0
    assert op.compensator == op.fv_core == 0.0
    summary = operator_summary(op)
    assert summary["cells"] == 0 and summary["far_mass"] == 0.0


@pytest.mark.parametrize("model", [levy.merton(0.0, -0.05, 0.25),
                                   levy.kou(0.0, 0.4, 12.0, 8.0)],
                         ids=["merton", "kou"])
def test_zero_mass_model_gives_the_empty_operator(model):
    # a jump family with zero intensity is not trivial, yet no cell holds
    # mass: its operator and a projected solve are those of no jumps
    grid = SpaceTimeGrid(-0.5, 0.5, 1.5, 100, 0.5, 50)
    op = build_operator(model, grid)
    assert not model.is_trivial and op.cell_mass.size == 0
    for kernel in (op.far_kernel, op.corr_kernel, op.core_stencil):
        assert not np.any(kernel)
    assert op.far_mass == op.compensator == op.core_var == 0.0
    coeffs = CoefficientField.constants(0.02, 0.01, 0.04)

    def surface(m):
        return solve_vi(SolveConfig(grid, m, coeffs, payoff.put(1.0),
                                    mode="projected")).value.values
    assert surface(model).tobytes() == surface(levy.none()).tobytes()


def test_summary_fields(ops):
    s = operator_summary(ops["nig"])
    assert s["family"] == "nig"
    assert s["cells"] > 100
    assert set(s) == {"family", "y_core", "radius", "cells", "far_mass",
                      "compensator", "core_var", "fv_core"}
    assert s["fv_core"] is None
