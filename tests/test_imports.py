"""Which scipy modules a run loads.

Import and set-up time is paid on every ``jumpstop solve``, so the
package imports ``scipy.special`` and ``scipy.integrate`` (which pulls in
``scipy.optimize``) only on the code paths that need them.  Each check
reads ``sys.modules`` of one fresh interpreter, stage by stage: modules
only accumulate, so a module missing after a stage was loaded by no
earlier stage either.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import jumpstop
from jumpstop import levy

SRC = Path(jumpstop.__file__).resolve().parents[1]
NIG = (6.0, -1.0, 0.3)

_SCRIPT = r"""
import io, json, sys
WATCH = ("scipy.special", "scipy.integrate", "scipy.optimize")
stages = {}

def mark(name, **extra):
    stages[name] = {"loaded": [m for m in WATCH if m in sys.modules], **extra}

import jumpstop.cli, jumpstop.harness
mark("import")
from jumpstop import harness, levy

def run(name, problem, numerics):
    cfg = {"problem": {"payoff": "put", "strike": 1.0, "sigma": 0.2,
                       "rate": 0.04, "horizon": 1.0, **problem},
           "numerics": {"nx": 60, **numerics},
           "oracle": {"probes": [0.0], "mc_paths": 10000, "mc_steps": 8,
                      "seed": 5},
           "output": {"out_dir": f"{sys.argv[1]}/{name}"}}
    path = f"{sys.argv[1]}/{name}.json"
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    log = io.StringIO()
    mark(name, code=harness.run(path, stream=log), log=log.getvalue())

merton = {"family": "merton", "jump_params": [1.5, -0.05, 0.25]}
run("merton_penalized", merton,
    {"nt": 40, "mode": "penalized", "eps_schedule": [0.2, 0.1]})
run("merton_european", merton, {"nt": 40, "mode": "european"})
run("tempered_stable", {"family": "tempered_stable",
                        "jump_params": [0.2, 0.2, 1.5, 1.5, 3.0, 3.0]},
    {"nt": 100, "mode": "projected"})
value = levy.integrate_density(levy.nig(*json.loads(sys.argv[2])),
                               lambda t: t * t, 0.0, 1.0)
mark("nig_quadrature", value=value)
print(json.dumps(stages))
"""


@pytest.fixture(scope="module")
def stages(tmp_path_factory):
    out = tmp_path_factory.mktemp("imports")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(out), json.dumps(NIG)],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_cli_and_harness_import_no_special_integrate_or_optimize(stages):
    assert stages["import"]["loaded"] == []


@pytest.mark.parametrize("stage", ["merton_penalized", "merton_european"])
def test_merton_run_with_monte_carlo_loads_none(stages, stage):
    assert stages[stage]["code"] == 0, stages[stage]["log"]
    assert stages[stage]["loaded"] == []


def test_tempered_stable_run_loads_special_only(stages):
    assert stages["tempered_stable"]["code"] == 0, \
        stages["tempered_stable"]["log"]
    assert stages["tempered_stable"]["loaded"] == ["scipy.special"]


def test_nig_quadrature_imports_integrate_on_use(stages):
    stage = stages["nig_quadrature"]
    assert "scipy.integrate" in stage["loaded"]
    expected = levy.integrate_density(levy.nig(*NIG), lambda t: t * t,
                                      0.0, 1.0)
    assert stage["value"] == expected > 0.0
