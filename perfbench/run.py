"""Benchmark of ``jumpstop solve``: the scenario matrix, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seconds S]   # every workload
    python3 perfbench/run.py --smoke                         # tiny sizes

Run it from the repository root; it builds nothing and imports the
package from ``src/``.  Workloads are defined in ``workloads.py``.

Closed loop with one client: samples run one after another, each in a
fresh child process (``sample.py``) with BLAS/OpenMP pinned to one
thread, and each child sets up and calls ``harness.run`` -- the entry
point of ``jumpstop solve`` -- once.  One untimed child first imports
the package to warm the file cache.  Samples continue while the next one
is expected to finish within ``--seconds`` (at least three untraced
samples, or one untraced and one traced).

``--trace 0`` reports the end-to-end metrics over the samples:
``run_s.p50`` and ``run_s.tail`` (median and maximum wall time of the
``harness.run`` call; a run has too few samples for a percentile with
ten samples beyond it, so the tail is the maximum), ``setup_s`` (child
start to a built ``SolveConfig``, median), ``peak_rss_mb`` (median) and
``price_err`` (largest probe gap to ``references.json``), and
``fail_frac`` (failed samples over attempted ones).  The table shows them
all; the JSON result carries the ones ``BENCHMARK.json`` declares.  It
leaves out ``run_s.p50``: on a shared 2-vCPU host, where other tenants
move run time by up to 2x for tens of seconds, its spread over ten seeds
reached 0.26, above the largest bound a metric may have.

``--trace 1`` alternates untraced and traced samples and reports the
per-layer metrics of ``layers.json`` (medians over traced samples),
checks that span self times sum to the root span, writes the spans to
``.bench_out/``, reports ``trace.overhead_s`` (traced minus untraced
``run_s`` median), and checks the layer-to-workload mapping: a traced
sample fails if a layer that ``layers.json`` marks absent on its workload
shows up.  Where a layer is no longer the largest self time it was when
the benchmark was defined, the table says so; that is a finding, not a
failure, since an optimisation is meant to change it.

Every sample is checked: ``harness.run`` returns 0, each probe lies
within the workload's tolerance of its frozen reference, and the five
artifacts are byte-identical across the samples of a run.  The seed is
passed to the program as ``oracle.seed``; claims should also be checked
on ``VALIDATION_SEED``.  Each run appends a record with the environment
to ``.bench_out/results.jsonl``.  The last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

VALIDATION_SEED = 104729
MIN_UNTRACED = 3
HARD_LIMIT_S = 165.0          # the whole invocation, so it ends within 180 s
THREAD_ENV = {var: "1" for var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "JUMPSTOP_THREADS")}
END_TO_END_UNITS = {"run_s.p50": "s", "run_s.tail": "s", "setup_s": "s",
                    "peak_rss_mb": "MB", "price_err": "abs", "fail_frac": "1"}


# -- environment ---------------------------------------------------------------


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the package sources, to identify the code measured."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "jumpstop").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(versions: dict) -> dict:
    return {
        **versions,
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": THREAD_ENV,
        "platform": platform.platform(),
        "commit": _git_commit(),
        "source_sha256": source_digest(),
    }


# -- samples -------------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "") \
        if env.get("PYTHONPATH") else src
    env["TMPDIR"] = str(OUT / "tmp")
    return env


def _warm_up(env: dict) -> None:
    subprocess.run([sys.executable, "-c", "import jumpstop.harness"],
                   env=env, cwd=ROOT, check=True, capture_output=True,
                   timeout=60)


def _run_sample(spec_path: Path, traced: bool, env: dict,
                timeout: float) -> tuple[dict, float]:
    """Start one child, wait for it, return its result and wall time."""
    cmd = [sys.executable, str(HERE / "sample.py"), str(spec_path)]
    t0 = time.monotonic()
    cmd.append(repr(t0))
    if traced:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"timed out after {timeout:.0f} s",
                "traced": traced}, time.monotonic() - t0
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"ok": False, "traced": traced,
                  "error": f"no result (exit {proc.returncode}): "
                           f"{proc.stderr.strip()[-2000:]}"}
    if proc.returncode != 0 and result.get("ok"):
        result["ok"] = False
        result["error"] = f"child exit {proc.returncode}"
    return result, wall


def _bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _layers() -> dict:
    return json.loads((HERE / "layers.json").read_text())["metrics"]


def _sample_failures(workload: str, result: dict, refs: dict,
                     tolerance: float, digests: dict | None) -> list[str]:
    """Every reason this sample is wrong; empty when it is correct."""
    if not result.get("ok"):
        return [result.get("error", "sample failed")]
    bad = []
    if result["exit_code"] != 0:
        bad.append(f"harness.run exit {result['exit_code']}: "
                   f"{result['log_tail']}")
    got = result["probes"]
    if [x for x, _ in got] != refs["probes"]:
        bad.append(f"probes {[x for x, _ in got]} != {refs['probes']}")
    else:
        for (x, value), ref in zip(got, refs["values"]):
            if not abs(value - ref) <= tolerance:
                bad.append(f"probe x={x}: {value!r} vs reference {ref!r} "
                           f"(tolerance {tolerance})")
    if digests is not None and result["digests"] != digests:
        changed = [k for k in digests if result["digests"][k] != digests[k]]
        bad.append(f"artifacts differ from the first sample: {changed}")
    if result.get("traced"):
        if result["nesting"]:
            bad.append(f"span tree: {result['nesting'][:3]}")
        if result["unmapped_spans"]:
            bad.append(f"spans without a layer: {result['unmapped_spans']}")
        gap = abs(result["self_sum_s"] - result["root_s"])
        if gap > 1e-6 * max(1.0, result["root_s"]):
            bad.append(f"self times sum to {result['self_sum_s']!r}, root "
                       f"span is {result['root_s']!r}")
        for name, m in _layers().items():
            value = result["layers"][name] if name in result["layers"] \
                else result.get(m.get("value"), 0)
            if workload in m.get("absent", ()) and value != 0:
                bad.append(f"{name} = {value:g}, expected absent on "
                           f"{workload}")
    return bad


def _next_kind(samples: list, trace: bool, seconds: float,
               elapsed: float) -> bool | None:
    """Traced flag of the next sample, or None when the run is done."""
    kind = trace and len(samples) % 2 == 1
    same = [s["wall"] for s in samples if s["traced"] == kind]
    if len(same) < (1 if trace else MIN_UNTRACED):
        return kind
    if elapsed + statistics.median(same) <= seconds:
        return kind
    return None


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 deadline: float, smoke: bool = False) -> dict:
    """All samples of one workload, none past ``deadline`` (monotonic)."""
    spec_w = workloads.WORKLOADS[name]
    refs = json.loads((HERE / "references.json").read_text())
    refs = refs["workloads"][name]
    tolerance = spec_w["tolerance"]
    run_dir = OUT / "runs" / f"{name}-seed{seed}{'-smoke' if smoke else ''}"
    art_dir = run_dir / "artifacts"
    run_dir.mkdir(parents=True, exist_ok=True)
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    base = run_dir / "base.json"
    base.write_text(json.dumps(
        workloads.run_config(name, seed, str(art_dir), smoke), indent=2))
    env = _child_env()

    started = time.monotonic()
    samples: list[dict] = []
    digests = None
    while True:
        elapsed = time.monotonic() - started
        kind = _next_kind(samples, trace, seconds, elapsed)
        remaining = deadline - time.monotonic()
        if kind is None or remaining < 5.0:
            break
        k = len(samples)
        spec = {"base_config": str(base), "run_config": str(run_dir / "run.json"),
                "out_dir": str(art_dir), "plan_nt": spec_w["plan_nt"],
                "layers": str(HERE / "layers.json"),
                "spans": str(run_dir / f"spans-{k}.csv"),
                "sample_id": f"{name}-{seed}-{k}"}
        spec_path = run_dir / "spec.json"
        spec_path.write_text(json.dumps(spec))
        for stale in art_dir.glob("*"):
            stale.unlink()
        result, wall = _run_sample(spec_path, kind, env, remaining)
        failures = _sample_failures(name, result, refs, tolerance, digests)
        if digests is None and result.get("ok"):
            digests = result["digests"]
        samples.append({"traced": kind, "wall": wall, "result": result,
                        "failures": failures})
    versions = next((s["result"]["versions"] for s in samples
                     if s["result"].get("ok")), {})
    record = {"workload": name, "seed": seed, "validation_seed":
              VALIDATION_SEED, "seconds": seconds, "trace": trace,
              "smoke": smoke, "env": environment(versions),
              "samples": samples, "refs": refs, "tolerance": tolerance}
    record["metrics"] = (_layer_metrics(record) if trace
                         else _end_to_end_metrics(record))
    record["attempted"] = len(samples)
    record["failed"] = sum(1 for s in samples if s["failures"])
    with (OUT / "results.jsonl").open("a") as fh:
        fh.write(json.dumps(record) + "\n")
    return record


# -- metrics -------------------------------------------------------------------


def _timed(record: dict, traced: bool) -> list[dict]:
    return [s["result"] for s in record["samples"]
            if s["traced"] == traced and "run_s" in s["result"]]


def _price_err(record: dict) -> float | None:
    gaps = [abs(value - ref)
            for s in record["samples"] if s["result"].get("ok")
            for (_, value), ref in zip(s["result"]["probes"],
                                       record["refs"]["values"])]
    return max(gaps) if gaps else None


def _end_to_end_metrics(record: dict) -> dict:
    timed = _timed(record, False)
    if not timed:
        return {}
    run_s = [r["run_s"] for r in timed]
    values = {
        "run_s.p50": statistics.median(run_s),
        "run_s.tail": max(run_s),
        "setup_s": statistics.median(r["setup_s"] for r in timed),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
        "price_err": _price_err(record),
        "fail_frac": sum(1 for s in record["samples"] if s["failures"])
        / len(record["samples"]),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]}
            for k, v in values.items() if v is not None}


def _layer_metrics(record: dict) -> dict:
    traced = [r for r in _timed(record, True) if r.get("ok")]
    plain = _timed(record, False)
    if not traced or not plain:
        return {}
    layers = _layers()
    out = {}
    for declared in _bench()["per_layer"]:
        name = declared["name"]
        m = layers[name]
        if name == "trace.overhead_s":
            value = (statistics.median(r["run_s"] for r in traced)
                     - statistics.median(r["run_s"] for r in plain))
        elif "value" in m:
            value = statistics.median(r[m["value"]] for r in traced)
        else:
            value = statistics.median(r["layers"][name] for r in traced)
        out[name] = {"value": value, "unit": declared["unit"]}
    return out


def largest_changed(name: str, metrics: dict) -> list[str]:
    """Layers no longer the largest self time ``layers.json`` records."""
    layers = _layers()
    times = {k: metrics[k]["value"]
             for k, m in layers.items() if "self" in m and k in metrics}
    top = max(times, key=times.get) if times else None
    return [f"{k} is not the largest self time ({top} is)"
            for k, m in layers.items()
            if name in m.get("largest_on", ()) and k in times and top != k]


# -- reporting -----------------------------------------------------------------


def _print_table(record: dict) -> None:
    print(f"== {record['workload']}  seed={record['seed']}  "
          f"samples={record['attempted']}  failed={record['failed']}")
    for key, metric in record["metrics"].items():
        print(f"  {key:34s} {metric['value']:>16.6g} {metric['unit']}")
    for i, s in enumerate(record["samples"]):
        for reason in s["failures"]:
            print(f"  sample {i} FAILED: {reason}")
    if record["trace"]:
        for line in largest_changed(record["workload"], record["metrics"]):
            print(f"  mapping differs: {line}")
        for s in record["samples"]:
            r = s["result"]
            if r.get("traced") and r.get("ok"):
                print(f"  self times sum {r['self_sum_s']:.6f} s, root span "
                      f"{r['root_s']:.6f} s, {r['spans']} spans")


def _declared_metrics() -> set:
    """Metric names ``BENCHMARK.json`` declares; the result reports those."""
    bench = _bench()
    return {m["name"] for m in bench["end_to_end"] + bench["per_layer"]}


def _has_package() -> bool:
    return (ROOT / "src" / "jumpstop" / "harness.py").is_file()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at tiny sizes, traced and not")
    args = parser.parse_args(argv)
    if not _has_package():
        print(f"no jumpstop package under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    deadline = time.monotonic() + HARD_LIMIT_S
    OUT.mkdir(exist_ok=True)
    try:
        _warm_up(_child_env())
    except (subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as exc:
        print(f"cannot import jumpstop: {exc}", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.smoke or args.workload == "all" \
        else [args.workload]
    trace = bool(args.trace) or args.smoke
    seconds = 0.0 if args.smoke else args.seconds
    records = [run_workload(n, args.seed, seconds, trace, deadline,
                            args.smoke) for n in names]
    for record in records:
        _print_table(record)
    if any(not r["metrics"] for r in records):
        print("no sample produced timings", file=sys.stderr)
        return 1
    declared = _declared_metrics()
    metrics = {f"{r['workload']}.{k}" if len(records) > 1 else k: v
               for r in records for k, v in r["metrics"].items()
               if k in declared}
    summary = {
        "correct": all(r["failed"] == 0 for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] or not args.smoke else 1


if __name__ == "__main__":
    sys.exit(main())
