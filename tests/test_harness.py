"""Run configuration, orchestration, artifacts, and the CLI.

Reference prices in the comparison tests come from the closed-form and
tree pricers in ``jumpstop.oracles``, which were written and checked
against textbook values before the solver existed.
"""

import dataclasses
import io
import json
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from jumpstop import (cli, diagnostics, generator, harness, levy, mc, payoff,
                      penalty, solver)
from jumpstop.errors import ConfigError, ParameterError
from jumpstop.grids import CoefficientField, GridFunction

BASE = {
    "problem": {"family": "none", "payoff": "put", "strike": 1.0,
                "sigma": 0.2, "rate": 0.04, "horizon": 1.0},
    "numerics": {"nx": 100, "nt": 100, "mode": "projected"},
    "oracle": {"probes": [0.0]},
}


def make_config(tmp_path, name="cfg.json", **overrides):
    data = json.loads(json.dumps(BASE))
    for block, body in overrides.items():
        data.setdefault(block, {}).update(body)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


# ---------------------------------------------------------------------------
# parsing


def test_line_and_json_formats_agree():
    line_text = """
    # comment line
    problem.family = merton
    problem.jump_params = [1.5, -0.05, 0.25]
    problem.strike = 2.0
    numerics.nx = 150          # trailing comment
    numerics.mode = penalized
    oracle.probes = [0.1, [0.0, 0.5]]
    output.out_dir = results
    """
    json_text = json.dumps({
        "problem": {"family": "merton", "jump_params": [1.5, -0.05, 0.25],
                    "strike": 2.0},
        "numerics": {"nx": 150, "mode": "penalized"},
        "oracle": {"probes": [0.1, [0.0, 0.5]]},
        "output": {"out_dir": "results"},
    })
    assert harness.RunConfig.from_text(line_text) == \
        harness.RunConfig.from_text(json_text)


def test_unknown_block_rejected():
    with pytest.raises(ConfigError, match="solver"):
        harness.RunConfig.from_dict({"solver": {"nx": 10}})


def test_unknown_key_names_block_and_key():
    with pytest.raises(ConfigError, match="numerics"):
        harness.RunConfig.from_dict({"numerics": {"typo_key": 3}})
    with pytest.raises(ConfigError, match="typo_key"):
        harness.RunConfig.from_dict({"numerics": {"typo_key": 3}})


def test_wrong_value_types_rejected():
    with pytest.raises(ConfigError, match="problem.sigma"):
        harness.RunConfig.from_dict({"problem": {"sigma": "wide"}})
    with pytest.raises(ConfigError, match="numerics.nx"):
        harness.RunConfig.from_dict({"numerics": {"nx": 10.5}})
    with pytest.raises(ConfigError, match="eps_schedule"):
        harness.RunConfig.from_dict({"numerics": {"eps_schedule": 0.1}})
    with pytest.raises(ConfigError, match="probes"):
        harness.RunConfig.from_dict({"oracle": {"probes": [[0.0, 1.0, 2.0]]}})


@pytest.mark.parametrize("block,key,value", [
    ("problem", "family", "gamma"),
    ("problem", "payoff", "butterfly"),
    ("numerics", "mode", "implicit"),
    ("oracle", "seed", -1),
    ("oracle", "which", ["fft"]),
    ("output", "formats", ["parquet"]),
])
def test_enum_values_validated(block, key, value):
    with pytest.raises(ConfigError):
        harness.RunConfig.from_dict({block: {key: value}})


def test_roundtrip_through_dict_and_json():
    rc = harness.RunConfig.from_dict({
        "problem": {"family": "nig", "jump_params": [6.0, -1.0, 0.3],
                    "drift": -0.02, "horizon": 0.5},
        "numerics": {"eps_schedule": [0.2, 0.1], "pad": 1.25},
        "oracle": {"probes": [[0.1, 0.25], -0.1], "mc_paths": 20000},
    })
    assert harness.RunConfig.from_dict(rc.to_dict()) == rc
    assert harness.RunConfig.from_text(rc.to_json()) == rc


def test_invalid_json_reported():
    with pytest.raises(ConfigError, match="JSON"):
        harness.RunConfig.from_text('{"problem": {bad json')


def test_line_format_requires_block_dot_key():
    with pytest.raises(ConfigError, match="line 1"):
        harness.RunConfig.from_text("nx = 10")
    with pytest.raises(ConfigError, match="block.key"):
        harness.RunConfig.from_text("numerics = 10")


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        harness.RunConfig.from_path(tmp_path / "absent.json")


# ---------------------------------------------------------------------------
# builders


def test_jump_param_arity_checked():
    rc = harness.RunConfig.from_dict(
        {"problem": {"family": "merton", "jump_params": [1.5]}})
    with pytest.raises(ConfigError, match="jump_params"):
        rc.build_model()


def test_capped_call_requires_cap_and_table_requires_path():
    rc = harness.RunConfig.from_dict({"problem": {"payoff": "capped_call"}})
    with pytest.raises(ConfigError, match="cap"):
        rc.build_payoff()
    rc = harness.RunConfig.from_dict({"problem": {"payoff": "table"}})
    with pytest.raises(ConfigError, match="table_path"):
        rc.build_payoff()


@pytest.mark.parametrize("payoff", ["capped_call", "table"])
def test_run_solves_the_capped_call_and_the_table_payoff(tmp_path, payoff):
    if payoff == "capped_call":
        problem = {"payoff": "capped_call", "cap": 0.8}
    else:
        table = tmp_path / "reward.csv"
        table.write_text("x,g\n-0.5,0.4\n0.0,0.1\n0.5,0.0\n")
        problem = {"payoff": "table", "table_path": str(table)}
    cfg_path = make_config(
        tmp_path, problem={**MERTON_JUMPS, **problem},
        numerics={"nx": 60, "nt": 60, "mode": "projected"},
        oracle={"mc_paths": 500})
    out = tmp_path / "out"
    assert harness.run(cfg_path, out_dir=out, stream=io.StringIO()) == 0
    spec = harness.RunConfig.from_path(cfg_path).build_payoff()
    header, *lines = (out / "surface.csv").read_text().splitlines()
    assert header == "x,t,u,g,region"
    rows = [line.split(",") for line in lines]
    # the g column is the spec's value at each written x, as its repr
    xs = sorted({row[0] for row in rows}, key=float)
    g = np.asarray(spec(np.array([float(x) for x in xs])), dtype=float)
    want = dict(zip(xs, map(repr, g.tolist())))
    assert all(row[3] == want[row[0]] for row in rows)
    u, g_rows = (np.array([float(row[k]) for row in rows]) for k in (2, 3))
    assert np.all(u >= g_rows)
    assert np.all(u <= spec.bound)


def test_default_drift_compensates_jumps_under_discounting():
    rc = harness.RunConfig.from_dict({
        "problem": {"family": "merton", "jump_params": [1.5, -0.05, 0.25],
                    "sigma": 0.2, "rate": 0.04}})
    model = rc.build_model()
    coeffs = rc.build_coeffs(model)
    x0 = np.zeros(1)
    expected = 0.04 - 0.5 * 0.2 ** 2 - levy.exp_compensator(model)
    assert coeffs.b(x0, 0.0)[0] == pytest.approx(expected, abs=1e-15)
    rc.problem.drift = 0.123
    assert rc.build_coeffs(model).b(x0, 0.0)[0] == 0.123


def test_refine_halves_both_steps():
    rc = harness.RunConfig.from_dict(BASE)
    cfg = rc.build_solve_config(refine=1)
    assert cfg.grid.nx == 200 and cfg.grid.nt == 200
    coarse = rc.build_solve_config().grid
    assert abs(cfg.grid.h - 0.5 * coarse.h) < 1e-15
    assert abs(cfg.grid.dt - 0.5 * coarse.dt) < 1e-15
    with pytest.raises(ConfigError, match="refine"):
        rc.build_solve_config(refine=-1)


def test_bad_scalars_rejected():
    rc = harness.RunConfig.from_dict({"problem": {"sigma": -0.1}})
    with pytest.raises(ConfigError, match="sigma"):
        rc.build_coeffs(rc.build_model())
    with pytest.raises(ConfigError, match="counts"):
        harness.RunConfig.from_dict({"oracle": {"mc_steps": 0}})


# ---------------------------------------------------------------------------
# run(): artifacts and exit codes


def test_run_writes_full_artifact_set(tmp_path):
    cfg_path = make_config(tmp_path)
    out = tmp_path / "out"
    buf = io.StringIO()
    assert harness.run(cfg_path, out_dir=out, stream=buf) == 0
    assert "checks passed" in buf.getvalue()

    surface = (out / "surface.csv").read_text().splitlines()
    assert surface[0] == "x,t,u,g,region"
    # the window [-0.5, 0.5] holds 25 of the 101 nodes, -0.48 to 0.48
    # (h = 0.04); the pad is solved but not written
    assert len(surface) == 1 + 25 * 101
    labels = {line.rsplit(",", 1)[1] for line in surface[1:]}
    assert labels == {"C", "S"}
    # at expiry u == g, so every node where stopping pays is contact
    expiry = [line.split(",") for line in surface[-25:]]
    assert {t for _, t, _, _, _ in expiry} == {"1.0"}
    assert all(region == "S" for _, _, _, g, region in expiry
               if float(g) > 0.0)

    boundary = (out / "boundary.csv").read_text().splitlines()
    assert boundary[0] == "t,b"
    assert len(boundary) > 100  # at least one crossing per time level
    bs = [float(line.split(",")[1]) for line in boundary[1:]]
    assert max(bs) < 0.0  # put boundary sits strictly below the strike
    assert bs[0] == pytest.approx(-0.24, abs=0.04)  # deep-horizon level
    assert bs[-1] > -0.12  # approaches the strike near expiry

    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["failed_checks"] == []
    assert diag["mode"] == "projected"
    assert set(diag["checks"]) >= {"lower_bound", "upper_bound", "obstacle",
                                   "residual_bound", "oracle_binomial"}
    assert diag["smooth_fit"]["max_gap"] >= 0.0
    assert (out / "summary.txt").read_text().startswith("mode=projected")


@pytest.mark.parametrize("mode", ["projected", "penalized", "european"])
def test_run_artifacts_byte_identical_on_rerun(tmp_path, mode):
    # the default penalized schedule fails its binomial gate (exit 3), so
    # the exit codes are compared along with the bytes
    cfg_path = make_config(tmp_path, numerics={"mode": mode},
                           oracle={"mc_paths": 12000, "mc_steps": 16,
                                   "seed": 5})
    out = tmp_path / "out"
    names = ["surface.csv", "boundary.csv", "diagnostics.json",
             "summary.txt", "effective_config.json"]
    penalty._ramp_table()
    code = harness.run(cfg_path, out_dir=out, stream=io.StringIO())
    assert code in (0, 3)
    first = {n: (out / n).read_bytes() for n in names}
    # a freshly built ramp table against the cached one
    penalty._ramp_table.cache_clear()
    assert harness.run(cfg_path, out_dir=out, stream=io.StringIO()) == code
    for n in names:
        assert (out / n).read_bytes() == first[n], n


def test_run_effective_config_records_overrides(tmp_path):
    cfg_path = make_config(tmp_path)
    out = tmp_path / "out"
    assert harness.run(cfg_path, out_dir=out, seed=99,
                       stream=io.StringIO()) == 0
    text = (out / "effective_config.json").read_text()
    rc = harness.RunConfig.from_text(text)
    assert rc.oracle.seed == 99
    assert rc.output.out_dir == str(out)
    expected = harness.RunConfig.from_path(cfg_path)
    expected.oracle.seed = 99
    expected.output.out_dir = str(out)
    assert rc == expected


def test_run_unknown_key_exits_2(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("numerics.typo_key = 3\n")
    buf = io.StringIO()
    assert harness.run(path, stream=buf) == 2
    assert "typo_key" in buf.getvalue()


@pytest.mark.parametrize("block, key, value", [
    # the march has one operator form, the compensated one
    ("numerics", "operator_form", "compensated"),
    # and one time scheme, backward Euler
    ("numerics", "theta", "0.5"),
    # now the constants diagnostics._CHECK_C = 10,
    # generator._RADIUS_TOL = 1e-12 and harness._BINOMIAL_STEPS = 2000
    ("numerics", "lemma_constant", "10.0"),
    ("numerics", "radius_tol", "1e-12"),
    ("oracle", "binomial_steps", "2000"),
], ids=["operator_form", "theta", "lemma_constant", "radius_tol",
        "binomial_steps"])
def test_run_operator_form_is_an_unknown_key(tmp_path, block, key, value):
    path = tmp_path / "bad.txt"
    path.write_text(f"{block}.{key} = {value}\n")
    buf = io.StringIO()
    assert harness.run(path, stream=buf) == 2
    assert f"unknown key(s) in block '{block}': {key}" in buf.getvalue()


def test_run_failed_check_exits_3_and_names_it(tmp_path):
    # a deliberately under-resolved grid cannot meet the price gate
    cfg_path = make_config(tmp_path, numerics={"nx": 24, "nt": 12})
    buf = io.StringIO()
    assert harness.run(cfg_path, out_dir=tmp_path / "out", stream=buf) == 3
    assert "oracle_binomial" in buf.getvalue()


@pytest.mark.parametrize("which", [["auto"], ["binomial"]])
def test_explicit_drift_skips_the_risk_neutral_tree(tmp_path, which):
    # the binomial tree prices under r - sigma^2/2; a drift of 0.10 is
    # outside its assumptions, so it is not compared, even when named
    cfg_path = make_config(tmp_path, problem={"drift": 0.10},
                           numerics={"nx": 200, "nt": 100},
                           oracle={"which": which})
    out = tmp_path / "out"
    assert harness.run(cfg_path, out_dir=out, stream=io.StringIO()) == 0
    diag = json.loads((out / "diagnostics.json").read_text())
    assert "oracle_binomial" not in diag["checks"]
    rc = harness.RunConfig.from_text(cfg_path.read_text())
    assert [row.get("oracle") for row in harness.compare(rc)] == [None]


def test_explicit_drift_with_diverging_exponential_moment_solves(tmp_path):
    # lam_plus = 0.9 < 1: the exponential moment diverges, so there is no
    # risk-neutral drift, but a run with the drift written out still solves
    model = levy.tempered_stable(0.2, 0.2, 1.5, 1.5, 3.0, 0.9)
    with pytest.raises(ParameterError):
        levy.exp_compensator(model)
    cfg_path = make_config(
        tmp_path,
        problem={"family": "tempered_stable", "drift": 0.0,
                 "jump_params": [0.2, 0.2, 1.5, 1.5, 3.0, 0.9]},
        numerics={"nx": 60, "nt": 100})
    assert harness.run(cfg_path, out_dir=tmp_path / "out",
                       stream=io.StringIO()) == 0


def test_risk_neutral_drift_keeps_the_tree(tmp_path):
    # default drift, and the same drift written out, both keep the tree
    neutral = 0.04 - 0.5 * 0.2 ** 2
    for drift in (None, neutral):
        cfg_path = make_config(tmp_path, problem={"drift": drift},
                               numerics={"nx": 200, "nt": 100})
        out = tmp_path / f"out_{drift}"
        assert harness.run(cfg_path, out_dir=out, stream=io.StringIO()) == 0
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["checks"]["oracle_binomial"]["passed"]


def test_surface_writer_writes_one_repr_per_cell(tmp_path):
    # every cell is its own repr, whether or not u equals g there; -0.0
    # equals 0.0 as a float but must still be written as "-0.0"
    rc = harness.RunConfig.from_dict(
        {**BASE, "numerics": {"nx": 40, "nt": 6, "mode": "projected"}})
    cfg = rc.build_solve_config()
    x = cfg.grid.nodes
    window = np.flatnonzero(cfg.grid.interior)  # 11 of 41 nodes
    g = np.asarray(cfg.payoff(x), dtype=float)
    rng = np.random.default_rng(4)
    u = g[:, None] + rng.random((x.size, cfg.grid.nt + 1))
    u[:window[5], 1:4] = g[:window[5], None]   # 5 of 11 window cells match
    u[g == 0.0, 2] = -0.0
    u[window[0], 5] = g[window[0]]              # 1 of 11 matches
    labels = (u > g[:, None]).astype(np.int8)
    report = SimpleNamespace(value=GridFunction(cfg.grid, u,
                                                payoff=cfg.payoff))
    bundle = {"report": report,
              "regions": diagnostics.RegionPartition(
                  labels, [], edges=(), tol=0.0, gap_min=0.0)}
    harness._write_surface(tmp_path / "surface.csv", rc, cfg, bundle)
    xs, gs, us = x.tolist(), g.tolist(), u.tolist()
    # the row at time t is level n = nt - m of the surface
    nt = cfg.grid.nt
    expected = ["x,t,u,g,region"] + [
        f"{xs[i]!r},{t!r},{us[i][nt - m]!r},{gs[i]!r},"
        f"{'SC'[labels[i, nt - m]]}"
        for m, t in enumerate(cfg.grid.times.tolist())
        for i in window]
    text = (tmp_path / "surface.csv").read_text()
    assert text.splitlines() == expected
    assert ",-0.0,0.0," in text


def test_surface_rows_are_the_window_nodes_of_the_full_surface(tmp_path):
    # h = 3.5 / 300 puts the window edges between nodes: grid.interior
    # alone picks the rows, and each is the row the full grid would give
    cfg_path = make_config(tmp_path, problem={"family": "merton",
                                              "jump_params": [1.5, -0.05,
                                                              0.25]},
                           numerics={"nx": 300, "nt": 20})
    out = tmp_path / "out"
    assert harness.run(cfg_path, out_dir=out, stream=io.StringIO()) == 0
    rc = harness.RunConfig.from_path(cfg_path)
    cfg = rc.build_solve_config()
    bundle = harness._execute(rc, cfg)
    grid = cfg.grid
    x, times = grid.nodes, grid.times.tolist()
    assert not np.isin([-0.5, 0.5], x).any()
    xs = x.tolist()
    g = np.asarray(cfg.payoff(x), dtype=float).tolist()
    u = bundle["report"].value.values.tolist()
    labels = bundle["regions"].labels
    nt = grid.nt
    full = {(repr(xs[i]), repr(t)):
            f"{xs[i]!r},{t!r},{u[i][nt - m]!r},{g[i]!r},"
            f"{'SC'[labels[i, nt - m]]}"
            for m, t in enumerate(times) for i in range(x.size)}
    rows = (out / "surface.csv").read_text().splitlines()[1:]
    assert {row.split(",", 1)[0] for row in rows} == \
        {repr(v) for v in x[grid.interior].tolist()}
    assert len(rows) == grid.interior.sum() * len(times)
    for row in rows:
        xr, tr, _ = row.split(",", 2)
        assert row == full[xr, tr]


def test_smooth_fit_is_reported_for_projected_runs_only(tmp_path):
    # a penalized iterate has no sharp contact set, so no smooth-fit gap
    fits = {}
    for mode in ("penalized", "projected"):
        cfg_path = make_config(tmp_path, name=f"{mode}.json",
                               numerics={"mode": mode},
                               oracle={"which": ["none"]})
        out = tmp_path / mode
        assert harness.run(cfg_path, out_dir=out, stream=io.StringIO()) == 0
        diag = json.loads((out / "diagnostics.json").read_text())
        fits[mode] = diag["smooth_fit"]
        assert diag["boundary_points"] > 0
    assert fits["penalized"] is None
    assert fits["projected"]["max_gap"] > 0.0


def test_run_european_artifacts(tmp_path):
    cfg_path = make_config(tmp_path, problem={"horizon": 0.5},
                           numerics={"nx": 100, "nt": 60,
                                     "mode": "european"})
    out = tmp_path / "out"
    assert harness.run(cfg_path, out_dir=out, stream=io.StringIO()) == 0
    surface = (out / "surface.csv").read_text().splitlines()
    labels = {line.rsplit(",", 1)[1] for line in surface[1:]}
    assert labels == {"-"}
    assert (out / "boundary.csv").read_text().splitlines() == ["t,b"]
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["regions"] is None and diag["smooth_fit"] is None
    assert "oracle_binomial" in diag["checks"]


DIAGNOSTICS_KEYS = {
    "mode", "family", "grid", "seed", "tolerance", "checks", "failed_checks",
    "residuals", "eps_trace", "eps_final", "anchor", "truncation_mass",
    "warnings", "smooth_fit", "residual_vi", "regions", "boundary_points",
    "probes", "stability",
}
CONFIG_KEYS = {
    "problem": {"sigma", "rate", "drift", "family", "jump_params", "payoff",
                "strike", "cap", "table_path", "horizon"},
    "numerics": {"x_lo", "x_hi", "pad", "nx", "nt", "eps_schedule", "mode"},
    "oracle": {"mc_paths", "mc_steps", "seed", "which", "probes"},
    "output": {"out_dir", "formats"},
}


def test_readme_config_table_names_every_key():
    # the README's key table is the config reference: each block's rows
    # must name exactly the keys that block parses
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = readme.read_text().splitlines()
    start = lines.index("| block | key | default | meaning |") + 2
    table, block = {}, None
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        cells = line.split("|")
        block = cells[1].strip() or block
        table.setdefault(block, set()).update(
            re.findall(r"`(\w+)`", cells[2]))
    assert table == {
        f.name: {k.name for k in dataclasses.fields(f.default_factory)}
        for f in dataclasses.fields(harness.RunConfig)}


@pytest.mark.parametrize("mode", ["penalized", "projected", "european"])
def test_artifact_key_sets_are_pinned(tmp_path, mode):
    # readers of the artifacts (the bench sampler among them) look keys up
    # by name, so a renamed or dropped key must fail here first
    cfg_path = make_config(tmp_path, problem={"family": "merton",
                                              "jump_params": [1.5, -0.05,
                                                              0.25]},
                           numerics={"nx": 40, "nt": 20, "mode": mode})
    out = tmp_path / "out"
    harness.run(cfg_path, out_dir=out, stream=io.StringIO())
    diag = json.loads((out / "diagnostics.json").read_text())
    assert set(diag) == DIAGNOSTICS_KEYS
    config = json.loads((out / "effective_config.json").read_text())
    assert {block: set(body) for block, body in config.items()} == \
        CONFIG_KEYS


@pytest.mark.parametrize("mode", ["penalized", "projected"])
def test_diagnostics_report_the_stability_budget(tmp_path, mode):
    cfg_path = make_config(
        tmp_path, problem={"family": "tempered_stable",
                           "jump_params": [0.2, 0.2, 1.5, 1.5, 3.0, 3.0]},
        numerics={"nx": 60, "nt": 60, "mode": mode,
                  "eps_schedule": [0.2, 0.1]},
        oracle={"which": ["none"]})
    out = tmp_path / "out"
    harness.run(cfg_path, out_dir=out, stream=io.StringIO())
    stab = json.loads((out / "diagnostics.json").read_text())["stability"]
    cfg = harness.RunConfig.from_path(cfg_path).build_solve_config()
    assert stab["fraction"] == solver.stability_fraction(cfg)
    assert stab["explicit_rate"] == solver.explicit_rate(cfg)
    assert stab["fraction"] == pytest.approx(
        cfg.grid.dt * stab["explicit_rate"] / 0.9, rel=1e-15)
    summary = stab["operator"]
    assert summary == generator.operator_summary(cfg.op)
    # the core is implicit, so the jumps add only the far mass
    assert summary["far_mass"] == cfg.op.far_mass
    pen = stab["explicit_rate"] - summary["far_mass"]
    assert (pen > 0.0) == (mode == "penalized")


# ---------------------------------------------------------------------------
# compare


def test_compare_against_binomial_tree():
    rc = harness.RunConfig.from_dict(BASE)
    rc.numerics.nx = rc.numerics.nt = 200
    rc.oracle.probes = [0.0, [0.0, 0.5]]
    rows = harness.compare(rc)
    assert len(rows) == 2
    for row in rows:
        assert row["oracle"] == "binomial"
        assert row["rel_gap"] < 1e-2
    # value at a mid-horizon probe equals the shorter-dated problem
    assert rows[1]["pde"] < rows[0]["pde"]


def test_compare_merton_series_european():
    rc = harness.RunConfig.from_dict({
        "problem": {"family": "merton", "jump_params": [1.5, -0.05, 0.25],
                    "sigma": 0.2, "rate": 0.04, "horizon": 0.5},
        "numerics": {"nx": 200, "nt": 160, "mode": "european"},
        "oracle": {"probes": [-0.1, 0.0, 0.1]},
    })
    rows = harness.compare(rc)
    assert [row["oracle"] for row in rows] == ["series"] * 3
    assert max(row["rel_gap"] for row in rows) < 5e-3


def test_compare_includes_path_lower_bound():
    rc = harness.RunConfig.from_dict(BASE)
    rc.oracle.mc_paths = 12000
    rc.oracle.mc_steps = 16
    rows = harness.compare(rc)
    row = rows[0]
    assert row["mc_kind"] == "lower_bound"
    assert row["pde"] >= row["mc_value"] - 4.0 * row["mc_stderr"]


MERTON_JUMPS = {"family": "merton", "jump_params": [1.5, -0.05, 0.25]}


def _spy_steps(monkeypatch) -> list:
    """Steps per path of every batch ``mc.simulate`` returns from now on."""
    seen, simulate = [], mc.simulate

    def spy(*args, **kwargs):
        batch = simulate(*args, **kwargs)
        seen.append(batch.n_steps)
        return batch
    monkeypatch.setattr(mc, "simulate", spy)
    return seen


def test_european_run_draws_the_terminal_state_in_one_step(tmp_path,
                                                           monkeypatch):
    seen = _spy_steps(monkeypatch)
    cfg_path = make_config(tmp_path, problem=MERTON_JUMPS,
                           numerics={"nx": 60, "nt": 40, "mode": "european"},
                           oracle={"probes": [-0.1, 0.0],
                                   "mc_paths": 2000, "mc_steps": 8})
    out = tmp_path / "out"
    assert harness.run(cfg_path, out_dir=out, stream=io.StringIO()) == 0
    rows = json.loads((out / "diagnostics.json").read_text())["probes"]
    assert seen == [1]  # two probes at t = 0 share one batch
    assert [(row["mc_kind"], row["mc_steps"]) for row in rows] == \
        [("terminal", 1)] * 2


def test_projected_run_keeps_mc_steps(monkeypatch):
    # the exercise policy decides on every one of the mc_steps dates
    seen = _spy_steps(monkeypatch)
    rc = harness.RunConfig.from_dict(BASE)
    rc.numerics.nx, rc.numerics.nt = 60, 40
    rc.oracle.mc_paths, rc.oracle.mc_steps = 10000, 8
    rows = harness.compare(rc)
    assert seen == [8]
    assert (rows[0]["mc_kind"], rows[0]["mc_steps"]) == ("lower_bound", 8)


# a projected Merton put whose first two probes, between grid nodes, lie
# in the stopping region; the third, at the strike, shares their batch
_STOPPING_PROBES = {
    "problem": {**BASE["problem"], **MERTON_JUMPS},
    "numerics": {"nx": 100, "nt": 100, "mode": "projected"},
    "oracle": {"probes": [-0.5, -0.6123, 0.0], "mc_paths": 20000,
               "mc_steps": 16}}


def test_projected_probe_between_contact_nodes_reads_the_payoff(tmp_path):
    # the chord between two contact nodes falls about h^2 e^x / 8 below
    # the concave put; the probe value is projected onto the payoff as
    # the march projects each level, so the path bound, stopping at once
    # there, does not rise above it
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_STOPPING_PROBES))
    out = tmp_path / "out"
    assert harness.run(path, out_dir=out, stream=io.StringIO()) == 0
    rows = json.loads((out / "diagnostics.json").read_text())["probes"]
    put = payoff.put(1.0)
    assert [row["pde"] for row in rows[:2]] == [put(-0.5), put(-0.6123)]
    assert rows[2]["pde"] > put(0.0) == 0.0


def test_mc_dominance_fails_below_the_path_bound(tmp_path, monkeypatch):
    # continuation values lowered halfway toward the payoff put the value
    # at the strike below the contact-set rule's path lower bound
    real = harness._solve

    def lowered(cfg):
        report = real(cfg)
        g = cfg.payoff(cfg.grid.nodes)[:, None]
        report.value.values[:] = g + 0.5 * (report.value.values - g)
        return report
    monkeypatch.setattr(harness, "_solve", lowered)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_STOPPING_PROBES))
    out = tmp_path / "out"
    assert harness.run(path, out_dir=out, stream=io.StringIO()) == 3
    diag = json.loads((out / "diagnostics.json").read_text())
    assert "mc_dominance" in diag["failed_checks"]


def _vary_coefficients(monkeypatch) -> None:
    """Runs build their coefficients as a field that may vary along the
    path, not through ``CoefficientField.constants``."""
    build = harness.RunConfig.build_coeffs

    def varying(self, model):
        c = build(self, model)
        return CoefficientField(c.a, c.b, c.r, c.lambda_floor,
                                time_dependent=True)
    monkeypatch.setattr(harness.RunConfig, "build_coeffs", varying)


def test_european_run_with_varying_coefficients_keeps_mc_steps(monkeypatch):
    # a field not built by CoefficientField.constants may vary along the
    # path, so its terminal law needs the Euler steps
    _vary_coefficients(monkeypatch)
    seen = _spy_steps(monkeypatch)
    rc = harness.RunConfig.from_dict({
        "problem": MERTON_JUMPS, "numerics": {"nx": 60, "nt": 40,
                                              "mode": "european"},
        "oracle": {"probes": [0.0], "mc_paths": 2000, "mc_steps": 8}})
    rows = harness.compare(rc)
    assert seen == [8]
    assert (rows[0]["mc_kind"], rows[0]["mc_steps"]) == ("terminal", 8)


def _spy_batches(monkeypatch) -> list:
    """``(x0, horizon, seed)`` of every ``mc.simulate`` call from now on."""
    calls, simulate = [], mc.simulate

    def spy(model, coeffs, x0, T, n_paths, n_steps, seed, **kwargs):
        calls.append((x0, T, seed))
        return simulate(model, coeffs, x0, T, n_paths, n_steps, seed,
                        **kwargs)
    monkeypatch.setattr(mc, "simulate", spy)
    return calls


def _path_config(probes) -> harness.RunConfig:
    rc = harness.RunConfig.from_dict(
        {**BASE, "problem": {**BASE["problem"], **MERTON_JUMPS}})
    rc.numerics.nx, rc.numerics.nt = 60, 40
    rc.oracle.mc_paths, rc.oracle.mc_steps, rc.oracle.seed = 10000, 8, 5
    rc.oracle.probes = probes
    return rc


@pytest.mark.parametrize("constant", [True, False],
                         ids=["constant", "varying"])
def test_probes_at_one_time_share_a_batch(constant, monkeypatch):
    # constant coefficients: one batch per probe time, drawn from the first
    # probe there with its seed + k; otherwise one batch per probe
    if not constant:
        _vary_coefficients(monkeypatch)
    calls = _spy_batches(monkeypatch)
    rows = harness.compare(_path_config([0.0, [-0.1, 0.5], -0.1]))
    if constant:
        assert calls == [(0.0, 1.0, 5), (-0.1, 0.5, 6)]
        assert [row["mc_shift"] for row in rows] == [0.0, 0.0, -0.1]
    else:
        assert calls == [(0.0, 1.0, 5), (-0.1, 0.5, 6), (-0.1, 1.0, 7)]
        assert [row["mc_shift"] for row in rows] == [0.0] * 3
    assert [row["mc_kind"] for row in rows] == ["lower_bound"] * 3


def test_first_probe_at_each_time_values_its_own_batch():
    rc = _path_config([-0.1, [0.0, 0.5], 0.0, [0.1, 0.5]])
    rows = harness.compare(rc)
    cfg = rc.build_solve_config()
    # the contact set of a projected solve of the same model
    rule = diagnostics.stopping_rule(solver.solve_vi(cfg).value, cfg.payoff,
                                     solver.contact_tol(cfg, None))

    def direct(row, seed):
        horizon = cfg.grid.t_final - row["t"]
        value = mc.stopping_lower_bound(cfg.payoff, cfg.coeffs.r, rule)
        mc.simulate(cfg.model, cfg.coeffs, row["x"], horizon, 10000, 8, seed,
                    watchers=[value])
        return value.result
    # the probe that drew the batch: bit for bit its own seed + k
    for k in (0, 1):
        est = direct(rows[k], 5 + k)
        assert (rows[k]["mc_value"], rows[k]["mc_stderr"]) == \
            (est.price, est.stderr)
    # a later probe: the same seed started at its own x, up to rounding
    for k, first in ((2, 0), (3, 1)):
        est = direct(rows[k], 5 + first)
        assert abs(rows[k]["mc_value"] - est.price) <= 0.1 * est.stderr
    assert [row["mc_shift"] for row in rows] == [0.0, 0.0, 0.1, 0.1]


def test_compare_which_none_disables_oracles():
    rc = harness.RunConfig.from_dict(BASE)
    rc.oracle.mc_paths = 12000
    rows = harness.compare(rc, which=["none"])
    assert set(rows[0]) == {"x", "t", "pde"}


def test_probe_times_interpolate_between_time_levels():
    rc = harness.RunConfig.from_dict(BASE)  # nt = 100 over horizon 1
    cfg = rc.build_solve_config()
    report = solver.solve_vi(cfg)
    nodes, u = cfg.grid.nodes, report.value.values

    def level(col):  # column col holds time to expiry col * dt
        return float(np.interp(0.03, nodes, u[:, col]))

    # on a time level: that level alone, bit for bit
    assert harness._value_at(report, cfg, 0.03, 0.0) == level(100)
    assert harness._value_at(report, cfg, 0.03, 0.5) == level(50)
    # between levels: linear in time (t = 0.5025 is 49.75 steps from expiry)
    got = harness._value_at(report, cfg, 0.03, 0.5025)
    assert got == pytest.approx(0.25 * level(49) + 0.75 * level(50),
                                rel=1e-14)
    assert level(49) < got < level(50)


def test_compare_probe_outside_grid_rejected():
    rc = harness.RunConfig.from_dict(BASE)
    rc.oracle.probes = [99.0]
    with pytest.raises(ConfigError, match="probe"):
        harness.compare(rc)


@pytest.mark.parametrize("probe, message", [
    (5.0, "probe location 5.0 outside the padded grid"),
    ([0.0, 2.0], r"probe time 2.0 outside \[0, 1.0\]")],
    ids=["location", "time"])
@pytest.mark.parametrize("entry", ["run", "compare_cli"])
def test_bad_probe_is_a_config_error_before_the_solve(tmp_path, monkeypatch,
                                                      probe, message, entry):
    def no_solve(cfg):
        raise AssertionError("solved before the probes were checked")
    monkeypatch.setattr(harness, "_solve", no_solve)
    cfg_path = make_config(tmp_path, oracle={"probes": [probe]})
    buf = io.StringIO()
    code = getattr(harness, entry)(cfg_path, out_dir=tmp_path / "out",
                                   stream=buf)
    assert code == 2
    assert re.search(f"config error: {message}", buf.getvalue())


# ---------------------------------------------------------------------------
# selftest and CLI


def test_selftest_passes():
    buf = io.StringIO()
    assert harness.selftest(stream=buf) == 0
    assert buf.getvalue().splitlines() == [
        "PASS operator-kills-constants", "PASS constant-fixed-point",
        "PASS mc-constant-reward", "selftest passed (3 cases)"]


def test_cli_selftest():
    assert cli.main(["selftest"]) == 0


def test_selftest_names_a_failing_case_and_exits_3(monkeypatch, capsys):
    def broken():
        raise AssertionError("constants must be annihilated")
    monkeypatch.setattr(harness, "_selftest_cases",
                        lambda: [("fine", lambda: None), ("broken", broken)])
    assert cli.main(["selftest"]) == 3
    assert capsys.readouterr().out.splitlines() == [
        "PASS fine", "FAIL broken: constants must be annihilated",
        "selftest failed: broken"]


def test_compare_seed_overrides_the_config(tmp_path):
    cfg_path = make_config(tmp_path, oracle={"mc_paths": 2000, "mc_steps": 8})
    out = tmp_path / "out"
    assert cli.main(["compare", "--config", str(cfg_path), "--seed", "7",
                     "--out", str(out)]) == 0
    header, line = (out / "compare.csv").read_text().splitlines()
    got = float(line.split(",")[header.split(",").index("mc_value")])
    rc = harness.RunConfig.from_path(cfg_path)
    default = harness.compare(rc)[0]["mc_value"]
    rc.oracle.seed = 7
    assert got == harness.compare(rc)[0]["mc_value"] != default


def test_cli_solve_and_compare(tmp_path, capsys):
    cfg_path = make_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
    assert (out / "diagnostics.json").exists()
    assert cli.main(["compare", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "pde" in captured
    assert (out / "compare.csv").read_text().startswith("x,t,pde")


def test_cli_solve_slowly_tempered_kou_exits_0(tmp_path):
    # eta_up = 1.05: the exponential moment is finite but large (the
    # compensator is about 9.87); its quadrature used to overflow
    cfg_path = make_config(
        tmp_path,
        problem={"family": "kou", "jump_params": [1.0, 0.5, 1.05, 3.0]},
        numerics={"mode": "european"})
    assert cli.main(["solve", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 0


def test_cli_solve_slowly_tempered_kou_projected_names_the_failure(
        tmp_path, capsys):
    # the same model in projected mode: no traceback (exit 1); the run ends
    # on the named residual gate, whose excluded window after expiry is
    # shorter than this drift's payoff-kink transient
    cfg_path = make_config(
        tmp_path,
        problem={"family": "kou", "jump_params": [1.0, 0.5, 1.05, 3.0]})
    assert cli.main(["solve", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 3
    out = capsys.readouterr().out
    assert "invariant violation: residual_" in out
    assert "Traceback" not in out


def test_cli_solve_non_decaying_jump_tail_is_a_config_error(tmp_path,
                                                           capsys):
    # lambda = 1e-6 leaves the tempered-stable tail above the truncation
    # tolerance past any finite radius: a named config error, not a
    # traceback (exit 1)
    cfg_path = make_config(
        tmp_path,
        problem={"family": "tempered_stable",
                 "jump_params": [0.2, 0.2, 0.5, 0.5, 1e-6, 1e-6],
                 "drift": 0.0},
        numerics={"nx": 60, "nt": 20})
    assert cli.main(["solve", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 2
    out = capsys.readouterr().out
    assert out.startswith("config error: jump tail does not decay")
    assert "Traceback" not in out


@pytest.mark.parametrize("command", ["solve", "compare"])
def test_cli_numerical_failure_in_the_march_exits_3(tmp_path, capsys,
                                                     monkeypatch, command):
    # a NumericalError from the solve is an invariant violation that
    # names its layer, not a traceback
    monkeypatch.setattr(solver, "_one_step",
                        lambda ws, v, n, pspec: np.full_like(v, np.nan))
    cfg_path = make_config(tmp_path)
    assert cli.main([command, "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 3
    out = capsys.readouterr().out
    assert out.startswith("invariant violation: solver._march: stability "
                          "violation at step 1/100")
    assert "Traceback" not in out
    assert not (tmp_path / "out").exists()


def test_march_failure_names_the_eps_column(tmp_path, capsys, monkeypatch):
    # one column of the penalized block turns NaN: the failure names its
    # width as well as the layer, the step and the quantity
    real = solver._one_step

    def one_bad_column(ws, v, n, pspec):
        out = real(ws, v, n, pspec)
        out[:, 1] = np.nan
        return out
    monkeypatch.setattr(solver, "_one_step", one_bad_column)
    cfg_path = make_config(tmp_path, numerics={
        "mode": "penalized", "eps_schedule": [0.2, 0.1, 0.05]})
    assert cli.main(["solve", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 3
    out = capsys.readouterr().out
    assert out.startswith(
        "invariant violation: solver._march: stability violation at step "
        "1/100 in the eps = 0.1 column: max |v| = nan, budget fraction = ")
    assert "Traceback" not in out


def test_failed_check_line_gives_observed_value_and_bound(tmp_path):
    # the default penalized schedule misses the binomial gate (1e-3)
    cfg_path = make_config(tmp_path, numerics={"mode": "penalized"})
    log = io.StringIO()
    assert harness.run(cfg_path, out_dir=tmp_path / "out", stream=log) == 3
    line = log.getvalue().strip().splitlines()[-1]
    checks = json.loads(
        (tmp_path / "out" / "diagnostics.json").read_text())["checks"]
    failed = {name: c for name, c in checks.items() if not c["passed"]}
    assert "oracle_binomial" in failed
    assert line.startswith("invariant violation: ")
    parts = line.removeprefix("invariant violation: ").split("; ")
    assert sorted(parts) == sorted(
        f"{name}: observed {c['observed']:.6g} vs bound {c['bound']:.6g} "
        f"(layer {harness._CHECK_LAYERS[name]})"
        for name, c in failed.items())
    assert harness._CHECK_LAYERS["oracle_binomial"] == "oracles.binomial_put"
    assert checks["oracle_binomial"]["observed"] > \
        checks["oracle_binomial"]["bound"] == pytest.approx(1e-3)


@pytest.mark.parametrize("order", [1, -1], ids=["passing_first",
                                                 "failing_first"])
def test_a_check_fails_when_any_row_fails_its_own_gate(order):
    # gap 0.004 under its gate 0.005 (1% of 0.5), and gap 0.002 over its
    # gate 0.001 (the floor 1e-3 of the reward bound): the smaller gap
    # fails, in either order, and the check reports it
    rc = harness.RunConfig.from_dict({
        "problem": MERTON_JUMPS,
        "numerics": {"nx": 60, "nt": 40, "mode": "european"}})
    cfg = rc.build_solve_config()
    report = harness._solve(cfg)
    rows = [{"oracle": "merton", "oracle_value": value, "abs_gap": gap,
             "rel_gap": gap / value}
            for value, gap in ((0.5, 0.004), (0.05, 0.002))][::order]
    check = harness._hard_checks(cfg, report, None, rows, None)[
        "oracle_merton"]
    assert (check.passed, check.observed, check.bound) == (False, 0.002,
                                                           1e-3)
    # the same two rows both under their gates: the larger gap stays
    rows[1 if order == 1 else 0]["abs_gap"] = 0.0005
    check = harness._hard_checks(cfg, report, None, rows, None)[
        "oracle_merton"]
    assert check.passed and check.observed == 0.004


def test_every_check_has_a_layer():
    # a failed-check line names the layer from harness._CHECK_LAYERS
    seen = set()
    for mode, family, jumps in [("penalized", "none", []),
                                ("projected", "none", []),
                                ("european", "merton", [1.5, -0.05, 0.25])]:
        rc = harness.RunConfig.from_dict({
            **BASE, "problem": {**BASE["problem"], "family": family,
                                "jump_params": jumps},
            "numerics": {"nx": 40, "nt": 20, "mode": mode},
            "oracle": {"probes": [0.0], "mc_paths": 10000, "mc_steps": 4}})
        seen |= set(harness._execute(rc, rc.build_solve_config())["checks"])
    assert {"eps_deltas_decreasing", "penalty_lower", "residual_bound",
            "oracle_binomial", "oracle_series", "mc_dominance"} <= seen
    assert seen <= set(harness._CHECK_LAYERS)


@pytest.mark.parametrize("out", ["afile", "afile/sub"])
@pytest.mark.parametrize("command", ["solve", "compare"])
def test_cli_unwritable_out_dir_is_a_config_error(tmp_path, capsys,
                                                  monkeypatch, command, out):
    # an existing file where the output directory should go: a named
    # config error before any solve, not a traceback (exit 1) after it
    (tmp_path / "afile").write_text("keep")
    monkeypatch.setattr(harness, "_solve", lambda cfg: pytest.fail("solved"))
    cfg_path = make_config(tmp_path)
    assert cli.main([command, "--config", str(cfg_path),
                     "--out", str(tmp_path / out)]) == 2
    printed = capsys.readouterr().out
    assert printed.startswith(
        f"config error: cannot write artifacts to {tmp_path / out}: ")
    assert "Traceback" not in printed
    assert (tmp_path / "afile").read_text() == "keep"


def test_cli_missing_config_exits_2(tmp_path):
    assert cli.main(["solve", "--config", str(tmp_path / "nope.json")]) == 2
