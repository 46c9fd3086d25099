"""One benchmark sample, run as a fresh process by ``run.py``.

    python3 perfbench/sample.py SPEC_JSON T0 [--trace]

``SPEC_JSON`` names the base run config, where to write the run config
and artifacts, whether set-up plans the step count, and (traced) where
to write spans.  ``T0`` is ``time.monotonic()`` in the parent just
before it started this process, so ``setup_s`` counts interpreter
start-up and imports the way a command-line user pays them.  The last
stdout line is a JSON object with the timings, probe values, artifact
digests and, when traced, the per-layer figures.
"""

import time

_START = time.perf_counter()

import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

ARTIFACTS = ("surface.csv", "boundary.csv", "diagnostics.json",
             "effective_config.json", "summary.txt")


def _setup(spec: dict, harness):
    """Config parse, step planning and solve-config build, as a user would."""
    rc = harness.RunConfig.from_path(spec["base_config"])
    if spec["plan_nt"]:
        rc.numerics.nt = workloads.plan_nt(rc)
    cfg = rc.build_solve_config()
    return rc, cfg


def _artifact_facts(out_dir: Path) -> dict:
    digests, size = {}, 0
    for name in ARTIFACTS:
        data = (out_dir / name).read_bytes()
        digests[name] = hashlib.sha256(data).hexdigest()
        size += len(data)
        if name == "surface.csv":
            rows = data.count(b"\n") - 1
    diag = json.loads((out_dir / "diagnostics.json").read_text())
    res = diag.get("residual_vi") or {}
    return {
        "digests": digests,
        "artifact_bytes": size,
        "surface_rows": rows,
        "probes": [[row["x"], row["pde"]] for row in diag["probes"]],
        "residual_max": res.get("max_abs") or 0.0,
    }


def _layer_figures(tracer, layers: dict) -> dict:
    names = [s[0] for s in tracer.spans]
    own = tracer.self_times()
    self_by_name: dict = {}
    calls: dict = {}
    for name, t in zip(names, own):
        self_by_name[name] = self_by_name.get(name, 0.0) + t
        calls[name] = calls.get(name, 0) + 1
    out = {}
    for name, m in layers.items():
        if "self" in m:
            out[name] = sum(self_by_name.get(s, 0.0) for s in m["self"])
        elif "calls" in m:
            out[name] = calls.get(m["calls"], 0)
        elif "count" in m:
            out[name] = tracer.counts.get(m["count"], 0)
    unmapped = set(self_by_name) - {s for m in layers.values()
                                    for s in m.get("self", ())}
    root = tracer.spans[0][2] - tracer.spans[0][1]
    timed = sum(out[name] for name, m in layers.items() if "self" in m)
    return {"layers": out, "unmapped_spans": sorted(unmapped),
            "root_s": root, "self_sum_s": timed,
            "nesting": tracer.check_nesting()}


def _write_spans(path: Path, tracer, sample_id: str) -> None:
    with path.open("w") as fh:
        fh.write("sample,id,parent,name,start,end\n")
        t0 = tracer.spans[0][1]
        for i, (name, start, end, parent) in enumerate(tracer.spans):
            fh.write(f"{sample_id},{i},{parent},{name},"
                     f"{start - t0:.9f},{end - t0:.9f}\n")


def main(argv) -> int:
    spec = json.loads(Path(argv[1]).read_text())
    t0 = float(argv[2])
    traced = "--trace" in argv[3:]
    result: dict = {"ok": False, "traced": traced}
    tracer = None
    try:
        if traced:
            from tracing import Tracer, install
            tracer = Tracer()
            root = tracer.open("bench.sample", start=_START)
            imp = tracer.open("cli.import")
        t_imp = time.perf_counter()
        from jumpstop import cli, harness, solver  # noqa: F401
        result["import_s"] = time.perf_counter() - t_imp
        if traced:
            tracer.close(imp)
            install(tracer)
        rc, cfg = _setup(spec, harness)
        result["setup_s"] = time.monotonic() - t0
        result["nt"] = rc.numerics.nt
        Path(spec["run_config"]).write_text(rc.to_json())

        log = io.StringIO()
        t_run = time.perf_counter()
        code = harness.run(spec["run_config"], stream=log)
        result["run_s"] = time.perf_counter() - t_run
        if traced:
            tracer.close(root)
        result["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["exit_code"] = code
        result["log_tail"] = log.getvalue().strip().splitlines()[-1:]
        result.update(_artifact_facts(Path(spec["out_dir"])))
        result["stability_fraction"] = solver.stability_fraction(cfg)
        if traced:
            layers = json.loads(Path(spec["layers"]).read_text())["metrics"]
            result.update(_layer_figures(tracer, layers))
            result["spans"] = len(tracer.spans)
            _write_spans(Path(spec["spans"]), tracer, spec["sample_id"])
        import numpy
        import scipy
        result["versions"] = {"python": sys.version.split()[0],
                              "numpy": numpy.__version__,
                              "scipy": scipy.__version__}
        result["ok"] = True
    except Exception:  # reported to the parent, which counts the failure
        result["error"] = traceback.format_exc(limit=5)
    print(json.dumps(result))
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
