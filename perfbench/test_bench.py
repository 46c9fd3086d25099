"""The benchmark's own tests: ``python3 -m pytest perfbench``.

They run every workload at smoke sizes (about 20 s), so they are kept out
of the package's test suite.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_declared_metrics_match_what_the_bench_reports():
    bench = _bench()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    for m in bench["end_to_end"]:
        assert run.END_TO_END_UNITS[m["name"]] == m["unit"]
    mapped = {s for m in run._layers().values() for s in m.get("self", ())}
    spans = {span for _, _, span, _ in tracing.TARGETS}
    assert spans | {"bench.sample", "cli.import"} == mapped


def test_self_times_partition_the_root():
    tr = tracing.Tracer()
    root = tr.open("root")
    leaf = tr.wrap("leaf", lambda: sum(range(1000)))
    tr.wrap("mid", lambda: [leaf() for _ in range(3)])()
    tr.close(root)
    assert [s[0] for s in tr.spans] == ["root", "mid", "leaf", "leaf", "leaf"]
    assert [s[3] for s in tr.spans] == [-1, 0, 1, 1, 1]
    assert tr.check_nesting() == []
    own = tr.self_times()
    assert min(own) >= 0.0
    assert sum(own) == pytest.approx(tr.spans[0][2] - tr.spans[0][1],
                                     abs=1e-12)


def test_traced_sample_fails_when_an_absent_layer_shows_up():
    layers = {name: 0 for name, m in run._layers().items()
              if {"self", "calls", "count"} & set(m)}
    result = {"ok": True, "traced": True, "exit_code": 0,
              "probes": [[0.0, 0.1]], "nesting": [], "unmapped_spans": [],
              "self_sum_s": 1.0, "root_s": 1.0, "residual_max": 0.0,
              "layers": layers}
    refs = {"probes": [0.0], "values": [0.1]}
    assert run._sample_failures("merton_european_mc", result, refs, 1e-3,
                                None) == []
    layers["mc.policy_s"] = 0.5
    assert run._sample_failures("merton_european_mc", result, refs, 1e-3,
                                None) == [
        "mc.policy_s = 0.5, expected absent on merton_european_mc"]
    assert run._sample_failures("ts15_projected", result, refs, 1e-3,
                                None) == []


def test_smoke_run_is_correct_and_confirms_the_layer_map():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2 * len(workloads.WORKLOADS)
    metrics = result["metrics"]
    for name in workloads.WORKLOADS:
        rows = {k.split(".", 1)[1]: v["value"] for k, v in metrics.items()
                if k.startswith(name + ".")}
        assert run.largest_changed(
            name, {k: {"value": v} for k, v in rows.items()}) == []
        assert rows["solver.steps"] == rows["solver.nt"] * \
            rows["solver.marches"]
    assert metrics["ts15_projected.mc.policy_s"]["value"] > 0.0
    assert "mapping differs" not in proc.stdout


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "merton_penalized", "--seed", "1", "--seconds",
                           "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
