"""Regenerate ``references.json``, the frozen probe references.

    python3 perfbench/make_references.py

``RECIPE`` says how each value is made; ``git diff`` shows whether a
regenerated file differs from the committed one.
"""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

OUT = HERE / "references.json"
COMMAND = "python3 perfbench/make_references.py"
RECIPE = (
    "The two obstacle workloads are compared against a projected solve "
    "refined once: nx doubled and nt from solver.plan_steps on the refined "
    "grid, starting from twice the workload's step count (for a planned "
    "workload, twice the planned count). Projection has no penalty bias, "
    "so the reference carries only the refined grid's error. The European "
    "workload is compared against the jump-mixture series "
    "(oracles.merton_put) at each probe.")


def _obstacle_reference(name: str) -> dict:
    from jumpstop import harness
    spec = workloads.WORKLOADS[name]
    raw = workloads.run_config(name, 0, "unused")
    rc = harness.RunConfig.from_dict(raw)
    if spec["plan_nt"]:
        rc.numerics.nt = workloads.plan_nt(rc)
    base_nx, base_nt = rc.numerics.nx, rc.numerics.nt
    rc.numerics.mode = "projected"
    rc.numerics.nx = 2 * base_nx
    rc.numerics.nt = 2 * base_nt
    rc.numerics.nt = workloads.plan_nt(rc)
    rows = harness.compare(rc, which=["none"])
    return {
        "kind": "projected, refined once",
        "nx": rc.numerics.nx, "nt": rc.numerics.nt,
        "probes": [row["x"] for row in rows],
        "values": [row["pde"] for row in rows],
    }


def _series_reference(name: str) -> dict:
    from jumpstop import oracles
    p = workloads.WORKLOADS[name]["config"]["problem"]
    probes = workloads.WORKLOADS[name]["config"]["oracle"]["probes"]
    lam, mu, sd = p["jump_params"]
    values = [oracles.merton_put(math.exp(x), p["strike"], p["rate"],
                                 p["sigma"], p["horizon"], lam, mu, sd)
              for x in probes]
    return {"kind": "jump-mixture series (oracles.merton_put)",
            "probes": list(probes), "values": values}


def build() -> dict:
    refs = {
        "merton_penalized": _obstacle_reference("merton_penalized"),
        "ts15_projected": _obstacle_reference("ts15_projected"),
        "merton_european_mc": _series_reference("merton_european_mc"),
    }
    return {"command": COMMAND, "recipe": RECIPE, "workloads": refs}


def main() -> int:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    OUT.write_text(json.dumps(build(), indent=2) + "\n")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
