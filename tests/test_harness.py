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

import numpy as np
import pytest

from jumpstop import cli, diagnostics, generator, harness, levy, mc, solver
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
        "numerics": {"eps_schedule": [0.2, 0.1], "radius_tol": 1e-10},
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
    assert len(surface) == 1 + 101 * 101
    labels = {line.rsplit(",", 1)[1] for line in surface[1:]}
    assert labels == {"C", "S"}
    # at expiry u == g, so every node where stopping pays is contact
    expiry = [line.split(",") for line in surface[-101:]]
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


def test_run_artifacts_byte_identical_on_rerun(tmp_path):
    cfg_path = make_config(tmp_path, oracle={"mc_paths": 12000,
                                             "mc_steps": 16, "seed": 5})
    out = tmp_path / "out"
    names = ["surface.csv", "boundary.csv", "diagnostics.json",
             "summary.txt", "effective_config.json"]
    assert harness.run(cfg_path, out_dir=out, stream=io.StringIO()) == 0
    first = {n: (out / n).read_bytes() for n in names}
    assert harness.run(cfg_path, out_dir=out, stream=io.StringIO()) == 0
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


@pytest.mark.parametrize("key, value", [
    # the march has one operator form, the compensated one
    ("operator_form", "compensated"),
    # and one time scheme, backward Euler
    ("theta", "0.5"),
], ids=["operator_form", "theta"])
def test_run_operator_form_is_an_unknown_key(tmp_path, key, value):
    path = tmp_path / "bad.txt"
    path.write_text(f"numerics.{key} = {value}\n")
    buf = io.StringIO()
    assert harness.run(path, stream=buf) == 2
    assert f"unknown key(s) in block 'numerics': {key}" in buf.getvalue()


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


def test_surface_writer_reuses_payoff_strings_bit_for_bit(tmp_path):
    # levels where u equals g on many cells take the reuse path; -0.0
    # equals 0.0 as a float but must still be written as "-0.0"
    rc = harness.RunConfig.from_dict(
        {**BASE, "numerics": {"nx": 40, "nt": 6, "mode": "projected"}})
    cfg = rc.build_solve_config()
    x = cfg.grid.nodes
    g = np.asarray(cfg.payoff(x), dtype=float)
    rng = np.random.default_rng(4)
    u = g[:, None] + rng.random((x.size, cfg.grid.nt + 1))
    u[:20, 1:4] = g[:20, None]          # 20 of 41 cells match
    u[g == 0.0, 2] = -0.0
    u[:3, 5] = g[:3]                     # too few to reuse
    labels = (u > g[:, None]).astype(np.int8)
    bundle = {"u": GridFunction(cfg.grid, u, payoff=cfg.payoff),
              "regions": diagnostics.RegionPartition(labels, [], 0.0)}
    harness._write_surface(tmp_path / "surface.csv", rc, cfg, bundle)
    xs, gs, us = x.tolist(), g.tolist(), u.tolist()
    expected = ["x,t,u,g,region"] + [
        f"{xs[i]!r},{t!r},{us[i][m]!r},{gs[i]!r},{'SC'[labels[i, m]]}"
        for m, t in enumerate(cfg.grid.times.tolist())
        for i in range(x.size)]
    text = (tmp_path / "surface.csv").read_text()
    assert text.splitlines() == expected
    assert ",-0.0,0.0," in text


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
    "numerics": {"x_lo", "x_hi", "pad", "nx", "nt", "eps_schedule", "mode",
                 "radius_tol", "lemma_constant"},
    "oracle": {"mc_paths", "mc_steps", "seed", "binomial_steps", "which",
               "probes"},
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
    assert summary["rate_far"] == cfg.op.far_mass
    assert summary["rate_monotone"] > 10.0 * summary["rate_far"]
    pen = stab["explicit_rate"] - summary["rate_far"]
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

    def direct(row, seed):
        batch = mc.simulate(cfg.model, cfg.coeffs, row["x"],
                            cfg.grid.t_final - row["t"], 10000, 8, seed)
        return mc.stopping_lower_bound(batch, cfg.payoff, cfg.coeffs.r)
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
        f"{name}: observed {c['observed']:.6g} vs bound {c['bound']:.6g}"
        for name, c in failed.items())
    assert checks["oracle_binomial"]["observed"] > \
        checks["oracle_binomial"]["bound"] == pytest.approx(1e-3)


def test_cli_missing_config_exits_2(tmp_path):
    assert cli.main(["solve", "--config", str(tmp_path / "nope.json")]) == 2


def test_cli_thread_pinning(monkeypatch):
    for var in cli._THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("JUMPSTOP_THREADS", "3")
    cli._pin_threads()
    import os
    assert os.environ["OMP_NUM_THREADS"] == "3"
    monkeypatch.setenv("OMP_NUM_THREADS", "8")
    cli._pin_threads()  # existing settings are not clobbered
    assert os.environ["OMP_NUM_THREADS"] == "8"
    monkeypatch.setenv("JUMPSTOP_THREADS", "zero")
    monkeypatch.delenv("NUMEXPR_NUM_THREADS", raising=False)
    cli._pin_threads()  # junk values are ignored
    assert "NUMEXPR_NUM_THREADS" not in os.environ
