"""The obstacle-dip guard and the one definition of the contact set."""

import io
import json

import numpy as np
import pytest

from jumpstop import diagnostics, harness, payoff
from jumpstop.errors import InvariantViolation, NumericalError
from jumpstop.grids import GridFunction, SpaceTimeGrid

GRID = SpaceTimeGrid(-1.0, 1.0, 1.0, 40, 1.0, 4)
PUT = payoff.put(1.0)


def _surface(dip):
    g = PUT(GRID.nodes)
    vals = np.repeat(g[:, None], GRID.nt + 1, axis=1) + 0.01
    vals[12, 3] = g[12] - dip
    return GridFunction(GRID, vals, payoff=PUT)


def test_dip_guard_names_the_worst_point():
    want = (f"surface falls {0.25:.3e} below the obstacle at "
            f"x = {GRID.nodes[12]:.4f} (time level 3); tolerance "
            f"{1e-3:.3e} (layer diagnostics.check_no_dip, quantity "
            f"min(u - g))")
    with pytest.raises(InvariantViolation) as exc:
        diagnostics.check_no_dip(_surface(0.25), PUT(GRID.nodes), 1e-3)
    assert str(exc.value) == want


def test_dip_within_tolerance_passes():
    u = _surface(5e-4)
    gap, gap_min = diagnostics.check_no_dip(u, PUT(GRID.nodes), 1e-3)
    np.testing.assert_array_equal(gap, u.values - PUT(GRID.nodes)[:, None])
    assert gap_min == gap.min() < 0.0
    part = diagnostics.partition(u, PUT, 1e-3)
    assert part.labels[12, 3] == 0 and part.labels[12, 2] == 1


def _contact_surface():
    x = GRID.nodes
    g = PUT(x)
    vals = np.repeat(g[:, None], GRID.nt + 1, axis=1) + 0.01
    vals[:5, 0] = g[:5]                  # left edge: stopping
    vals[g == 0.0, 1] = 0.0              # out of the money: u <= tol, g = 0
    vals[g == 0.0, 2] = 0.02             # a crossing inside g = 0 ...
    vals[np.flatnonzero(g == 0.0)[3], 2] = 0.0
    return GridFunction(GRID, vals, payoff=PUT)


def test_partition_is_the_contact_definition():
    # contact is u - g <= tol where g > 0; boundary points need g > 0
    tol = 1e-3
    x = GRID.nodes
    g = PUT(x)
    u = _contact_surface()
    vals = u.values
    part = diagnostics.partition(u, PUT, tol)
    gap = vals - g[:, None]
    np.testing.assert_array_equal(
        part.labels == 0, (gap <= tol) & (g[:, None] > 0.0))
    assert part.labels.dtype == np.int8 and part.tol == tol
    assert (part.labels[g == 0.0, 1] == 1).all()
    assert part.boundary[2].size == 0    # ... is not a free boundary
    np.testing.assert_allclose(part.boundary[0],
                               [x[4] + (x[5] - x[4]) * 0.1])
    assert all((PUT(b) > 0.0).all() for b in part.boundary)
    assert part.boundary[3].size == 0


def test_boundary_points_lie_on_contact_edges(monkeypatch):
    # every boundary point lies between a contact node and a continuation
    # node of its level: level 1, where u - g crosses tol at the strike
    # but no node is contact, has none
    calls = []
    real = diagnostics.crossings
    monkeypatch.setattr(diagnostics, "crossings",
                        lambda *a: calls.append(1) or real(*a))
    x = GRID.nodes
    part = diagnostics.partition(_contact_surface(), PUT, 1e-3)
    assert len(calls) == 1               # one call for all levels
    assert len(part.boundary) == GRID.nt + 1
    assert part.boundary[1].size == 0
    i, m = part.edges
    assert i.size == sum(b.size for b in part.boundary) > 0
    for level, points in enumerate(part.boundary):
        stop = part.labels[:, level] == 0
        assert (np.diff(points) >= 0.0).all()
        np.testing.assert_array_equal(points >= x[i[m == level]], True)
        np.testing.assert_array_equal(points <= x[i[m == level] + 1], True)
        for b in points:
            k = np.flatnonzero((x[:-1] <= b) & (b <= x[1:]))
            assert (stop[k] != stop[k + 1]).any(), (level, b)


def test_a_contact_edge_crossing_where_g_is_0_is_not_a_boundary_point():
    # the strike halfway between nodes k and k + 1: node k is contact,
    # node k + 1 (g = 0) is not, and u - g - tol crosses 0 two thirds of
    # the way across, past the strike
    x = GRID.nodes
    k = int(np.flatnonzero(x >= 0.0)[0])
    put = payoff.put(float(np.exp(0.5 * (x[k] + x[k + 1]))))
    g = put(x)
    col = g + 0.01
    col[k], col[k + 1] = g[k], 1.5e-3
    vals = np.repeat(col[:, None], GRID.nt + 1, axis=1)
    part = diagnostics.partition(GridFunction(GRID, vals, payoff=put), put,
                                 1e-3)
    assert (part.labels[k - 1: k + 2, 0] == [1, 0, 1]).all()
    for points in part.boundary:     # only the edge left of node k
        np.testing.assert_allclose(points, [x[k - 1] + 0.9 * GRID.h])


def test_stopping_rule_reads_the_partition_labels():
    # time to expiry s reads the surface's level round(s / dt), clipped
    # to the grid's levels; a state reads its nearest node, clipped to
    # the grid
    tol = 1e-3
    u = _contact_surface()
    rule = diagnostics.stopping_rule(u, PUT, tol)
    stop = diagnostics.partition(u, PUT, tol).labels == 0
    x, h, dt = GRID.nodes, GRID.h, GRID.dt
    for n in range(GRID.nt + 1):
        level = stop[:, n]
        for s in (n * dt, n * dt + 0.4 * dt, max(n * dt - 0.4 * dt, 0.0)):
            np.testing.assert_array_equal(rule(x, s), level)
            np.testing.assert_array_equal(rule(x + 0.4 * h, s), level)
            np.testing.assert_array_equal(rule(x - 0.4 * h, s), level)
        assert rule(np.array([x[0] - 5.0]), n * dt)[0] == level[0]
        assert rule(np.array([x[-1] + 5.0]), n * dt)[0] == level[-1]
    np.testing.assert_array_equal(rule(x, 1.0 + 3.0 * dt), stop[:, -1])
    np.testing.assert_array_equal(rule(x, -dt), stop[:, 0])


@pytest.mark.parametrize("state", [np.nan, np.inf, -np.inf])
def test_stopping_rule_rejects_a_non_finite_state(state):
    # a NaN state once became node index -2**63 and an IndexError
    rule = diagnostics.stopping_rule(_contact_surface(), PUT, 1e-3)
    y = np.array([0.0, state, 0.1])
    with pytest.raises(NumericalError,
                       match=rf"diagnostics.stopping_rule: non-finite state "
                             rf"-?(nan|inf) at time to expiry 0.5"):
        rule(y, 0.5)


def test_run_exits_3_on_an_obstacle_dip(tmp_path, monkeypatch):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "problem": {"family": "none", "payoff": "put", "strike": 1.0,
                    "sigma": 0.2, "rate": 0.04, "horizon": 1.0},
        "numerics": {"nx": 60, "nt": 40, "mode": "projected"},
        "oracle": {"probes": [0.0], "which": ["none"]}}))
    assert harness.run(path, out_dir=tmp_path / "ok",
                       stream=io.StringIO()) == 0
    real = harness._solve

    def dipped(cfg):
        report = real(cfg)
        report.value.values[30, 5] -= 0.5
        return report
    monkeypatch.setattr(harness, "_solve", dipped)
    buf = io.StringIO()
    assert harness.run(path, out_dir=tmp_path / "dip", stream=buf) == 3
    assert buf.getvalue().startswith("invariant violation: surface falls ")
