"""The benchmark's scenario matrix: fixed solver inputs, one dict each.

Every workload prices a put with strike 1, sigma 0.2, rate 0.04 and
horizon 1 on the default window and pad, and writes the default ``csv`` +
``json`` artifacts.  The Monte Carlo seed is not part of a workload: the
bench passes its ``--seed`` argument as ``oracle.seed``.

``plan_nt`` marks a workload whose step count comes from
``solver.plan_steps`` on the workload grid (:func:`plan_nt`), computed
during set-up.
``tolerance`` is the largest accepted gap between a probe value and its
reference (``references.json``); the smoke sizes meet it too.  ``smoke``
overrides shrink the problem for the bench's own tests.
"""

from __future__ import annotations

import copy

_PUT = {"sigma": 0.2, "rate": 0.04, "payoff": "put", "strike": 1.0,
        "horizon": 1.0}
_MERTON = {"family": "merton", "jump_params": [1.5, -0.05, 0.25]}
_TS15 = {"family": "tempered_stable",
         "jump_params": [0.2, 0.2, 1.5, 1.5, 3.0, 3.0]}

WORKLOADS = {
    # Desk-scale penalized solve: the mollified obstacle and penalty
    # dominate (payoff.kernel_average via penalty.value every step and
    # via mollified ghost values in residual_vi).  No Monte Carlo.
    "merton_penalized": {
        "config": {
            "problem": {**_PUT, **_MERTON},
            "numerics": {"nx": 300, "nt": 200, "mode": "penalized",
                         "eps_schedule": [0.2, 0.1, 0.05, 0.025]},
            "oracle": {"probes": [0.0, -0.1, 0.1], "mc_paths": 0},
        },
        "plan_nt": False,
        "tolerance": 2e-2,
        "smoke": {"numerics": {"nx": 60, "nt": 40}},
    },
    # Projected solve with infinite-activity alpha=1.5 jumps: the step
    # count from plan_steps grows like h^-alpha, so this is the workload
    # for the stability budget, the jump correlation and the banded
    # solve.  It also carries Levy quadrature in set-up, infinite-activity
    # path draws with the regression policy, and the largest surface.csv.
    "ts15_projected": {
        "config": {
            "problem": {**_PUT, **_TS15},
            "numerics": {"nx": 400, "nt": 100, "mode": "projected"},
            "oracle": {"probes": [0.0, -0.1], "mc_paths": 20000,
                       "mc_steps": 64},
        },
        "plan_nt": True,
        "tolerance": 1e-3,
        "smoke": {"numerics": {"nx": 60, "nt": 10},
                  "oracle": {"mc_paths": 10000, "mc_steps": 8}},
    },
    # No-obstacle march checked against the jump-mixture series, with
    # compound-Poisson terminal Monte Carlo and no regression policy.
    "merton_european_mc": {
        "config": {
            "problem": {**_PUT, **_MERTON},
            "numerics": {"nx": 400, "nt": 800, "mode": "european"},
            "oracle": {"probes": [0.0, -0.1, 0.1], "mc_paths": 100000,
                       "mc_steps": 64},
        },
        "plan_nt": False,
        "tolerance": 2e-3,
        "smoke": {"numerics": {"nx": 60, "nt": 40},
                  "oracle": {"mc_paths": 2000, "mc_steps": 8}},
    },
}


def run_config(name: str, seed: int, out_dir: str, smoke: bool = False) -> dict:
    """The ``RunConfig`` mapping for one workload, seed and output dir."""
    spec = WORKLOADS[name]
    cfg = copy.deepcopy(spec["config"])
    if smoke:
        for block, body in spec["smoke"].items():
            cfg[block].update(body)
    cfg["oracle"]["seed"] = int(seed)
    cfg["output"] = {"out_dir": out_dir, "formats": ["csv", "json"]}
    return cfg


def plan_nt(rc) -> int:
    """``solver.plan_steps`` on the grid, model and payoff of ``rc``."""
    from jumpstop import solver
    from jumpstop.grids import SpaceTimeGrid
    n = rc.numerics
    model = rc.build_model()
    grid = SpaceTimeGrid(n.x_lo, n.x_hi, n.pad, n.nx, rc.problem.horizon,
                         n.nt)
    return solver.plan_steps(grid, model, rc.build_coeffs(model),
                             rc.build_payoff())
