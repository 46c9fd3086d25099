"""Which scipy modules a run loads.

Import and set-up time is paid on every ``jumpstop solve``.  The march
takes ``dgbtrf``/``dgbtrs`` from the compiled ``scipy.linalg._flapack``,
and the closed forms of tempered sides (tempered stable, VG, Kou) and
NIG take their ufuncs from the compiled
``scipy.special._special_ufuncs``; both are loaded on their own
(``jumpstop._scipy_ext``), without the ``scipy.linalg`` or
``scipy.special`` packages, whose Python layers pull in
``scipy._lib._array_api``, ``numpy.testing`` and ``numpy.f2py``.
``scipy.integrate`` (which pulls in ``scipy.optimize``) loads only for
NIG quadrature.  ``numpy.ma``, which ``np.median`` imports on its first
call, loads at no stage.  Each check reads ``sys.modules`` of one fresh
interpreter, stage by stage: modules only accumulate, so a module missing
after a stage was loaded by no earlier stage either.  A second
interpreter makes the direct load fail and checks that the public
fallback gives the same artifacts.
"""

import importlib
import importlib.abc
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import jumpstop
from jumpstop import _scipy_ext, levy

SRC = Path(jumpstop.__file__).resolve().parents[1]
NIG = (6.0, -1.0, 0.3)
FLAPACK = "scipy.linalg._flapack"
UFUNCS = "scipy.special._special_ufuncs"
RUNS = ("merton_penalized", "merton_european", "kou", "tempered_stable")
ARTIFACTS = ("surface.csv", "boundary.csv", "diagnostics.json",
             "effective_config.json", "summary.txt")

_SCRIPT = r"""
import io, json, sys
WATCH = ("scipy.linalg", "scipy.linalg._flapack", "scipy.special",
         "scipy.special._special_ufuncs", "scipy._lib._array_api",
         "scipy.integrate", "scipy.optimize", "numpy.testing", "numpy.f2py",
         "numpy.ma")
stages = {}

def mark(name, **extra):
    stages[name] = {"loaded": [m for m in WATCH if m in sys.modules], **extra}

if sys.argv[2] == "fallback":
    from jumpstop import _scipy_ext
    _scipy_ext._find = lambda name: None
import jumpstop.cli, jumpstop.harness
mark("import")
from jumpstop import harness, levy, solver

def run(name, problem, numerics):
    cfg = {"problem": {"payoff": "put", "strike": 1.0, "sigma": 0.2,
                       "rate": 0.04, "horizon": 1.0, **problem},
           "numerics": {"nx": 60, **numerics},
           "oracle": {"probes": [0.0], "mc_paths": 10000, "mc_steps": 8,
                      "seed": 5},
           "output": {"out_dir": name}}
    path = f"{name}.json"
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    log = io.StringIO()
    mark(name, code=harness.run(path, stream=log), log=log.getvalue())

merton = {"family": "merton", "jump_params": [1.5, -0.05, 0.25]}
run("merton_penalized", merton,
    {"nt": 40, "mode": "penalized", "eps_schedule": [0.2, 0.1]})
run("merton_european", merton, {"nt": 40, "mode": "european"})
run("kou", {"family": "kou", "jump_params": [1.0, 0.4, 12.0, 8.0]},
    {"nt": 40, "mode": "european"})
run("tempered_stable", {"family": "tempered_stable",
                        "jump_params": [0.2, 0.2, 1.5, 1.5, 3.0, 3.0]},
    {"nt": 100, "mode": "projected"})
value = levy.integrate_density(levy.nig(*json.loads(sys.argv[1])),
                               lambda t: t * t, 0.0, 1.0)
mark("nig_quadrature", value=value)

import scipy.linalg.lapack, scipy.special
ufuncs = levy._load(levy._UFUNCS)
same = {f"solver.{n}": getattr(solver, n) is getattr(scipy.linalg.lapack, n)
        for n in ("dgbtrf", "dgbtrs")}
same["sys.modules"] = (
    sys.modules["scipy.linalg._flapack"].dgbtrf is scipy.linalg.lapack.dgbtrf
    and ufuncs is sys.modules["scipy.special._special_ufuncs"])
same.update({f"levy.{n}": getattr(ufuncs, n) is getattr(scipy.special, n)
             for n in ("gamma", "gammainc", "gammaincc", "exp1", "zetac",
                       "k1e")})
mark("identity", same=same)
print(json.dumps(stages))
"""


def _run_script(out: Path, mode: str) -> dict:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, json.dumps(NIG), mode],
        capture_output=True, text=True, env=env, cwd=out, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    out = {mode: tmp_path_factory.mktemp(mode)
           for mode in ("direct", "fallback")}
    return {mode: (_run_script(path, mode), path)
            for mode, path in out.items()}


@pytest.fixture(scope="module")
def stages(runs):
    return runs["direct"][0]


def test_cli_and_harness_import_no_special_integrate_or_optimize(stages):
    assert stages["import"]["loaded"] == [FLAPACK]


@pytest.mark.parametrize("stage", ["merton_penalized", "merton_european"])
def test_merton_run_with_monte_carlo_loads_none(stages, stage):
    assert stages[stage]["code"] == 0, stages[stage]["log"]
    assert stages[stage]["loaded"] == [FLAPACK]


def test_kou_run_with_monte_carlo_loads_the_ufuncs_only(stages):
    # the first run that needs them, so the load is the Kou run's own
    assert stages["kou"]["code"] == 0, stages["kou"]["log"]
    assert stages["kou"]["loaded"] == [FLAPACK, UFUNCS]


def test_tempered_stable_run_loads_special_only(stages):
    assert stages["tempered_stable"]["code"] == 0, \
        stages["tempered_stable"]["log"]
    assert stages["tempered_stable"]["loaded"] == [FLAPACK, UFUNCS]


def test_nig_quadrature_imports_integrate_on_use(stages):
    stage = stages["nig_quadrature"]
    assert "scipy.integrate" in stage["loaded"]
    expected = levy.integrate_density(levy.nig(*NIG), lambda t: t * t,
                                      0.0, 1.0)
    assert stage["value"] == expected > 0.0


@pytest.mark.parametrize("mode", ["direct", "fallback"])
def test_loaded_routines_are_the_public_scipy_objects(runs, mode):
    same = runs[mode][0]["identity"]["same"]
    assert same and all(same.values()), same


def test_fallback_imports_the_public_packages(runs):
    stages = runs["fallback"][0]
    assert {"scipy.linalg", FLAPACK} <= set(stages["import"]["loaded"])
    assert {"scipy.special", UFUNCS} <= set(
        stages["tempered_stable"]["loaded"])


@pytest.mark.parametrize("name", RUNS)
def test_fallback_artifacts_match_the_direct_load(runs, name):
    (direct, direct_dir), (fallback, fallback_dir) = \
        runs["direct"], runs["fallback"]
    assert fallback[name]["code"] == direct[name]["code"] == 0, \
        fallback[name]["log"]
    for artifact in ARTIFACTS:
        assert (fallback_dir / name / artifact).read_bytes() == \
            (direct_dir / name / artifact).read_bytes(), artifact


def test_failed_direct_load_leaves_no_half_loaded_module(monkeypatch):
    lapack = importlib.import_module("scipy.linalg.lapack")
    monkeypatch.delitem(sys.modules, FLAPACK)
    registered = []

    class Broken(importlib.abc.Loader):
        def create_module(self, spec):
            return None

        def exec_module(self, module):
            registered.append(sys.modules.get(FLAPACK) is module)
            raise ImportError("initialisation failed")

    monkeypatch.setattr(_scipy_ext, "_find", lambda name:
                        importlib.util.spec_from_loader(name, Broken()))
    assert _scipy_ext._load(FLAPACK) is lapack
    assert registered == [True]
    assert FLAPACK not in sys.modules
