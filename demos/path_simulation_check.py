"""Cross-checking the lattice solver against simulated paths.

Two independent checks on a jump-diffusion put:

1. European: averaging the discounted terminal payoff over simulated
   paths must reproduce the lattice price to within a few standard
   errors.

2. Early exercise: stopping where the lattice's own contact set says
   reads no future state, so valued on simulated paths it gives a
   genuine lower bound on the optimal-stopping value, whatever the
   lattice's errors.  The lattice price must sit above it (minus Monte
   Carlo noise).

The path sampler draws the jump part exactly for compound-Poisson
families, so any disagreement here points at the lattice, not at the
sampler.  With constant coefficients one step over the horizon already
has the exact terminal law, so the European column prices a 1-step
batch; the exercise rule needs its decision dates and keeps them all.
"""

import numpy as np

from jumpstop import diagnostics, levy, mc, payoff
from jumpstop.grids import CoefficientField, SpaceTimeGrid
from jumpstop.solver import (SolveConfig, contact_tol, solve_european,
                             solve_vi)

SIGMA, RATE, HORIZON = 0.2, 0.04, 1.0
DIFF = 0.5 * SIGMA * SIGMA
PUT = payoff.put(1.0)
MODEL = levy.kou(1.0, 0.4, 12.0, 8.0)
PATHS, STEPS, SEED = 100_000, 64, 7


def lattice_values():
    drift = RATE - DIFF - levy.exp_compensator(MODEL)
    coeffs = CoefficientField.constants(DIFF, drift, RATE)
    grid = SpaceTimeGrid(-0.5, 0.5, 1.5, 300, HORIZON, 300)
    euro = solve_european(
        SolveConfig(grid, MODEL, coeffs, PUT, mode="european")).value
    cfg = SolveConfig(grid, MODEL, coeffs, PUT, mode="projected")
    report = solve_vi(cfg)
    # the contact set of the surface, as a stopping rule
    rule = diagnostics.stopping_rule(report.value, PUT,
                                     contact_tol(cfg, None))
    return grid, coeffs, euro, report.value, rule


def main():
    grid, coeffs, euro, amer, rule = lattice_values()
    print(f"kou put, sigma={SIGMA}, r={RATE}, T={HORIZON}, {PATHS} paths: "
          f"european 1 step, early exercise {STEPS} steps")
    print(f"{'x':>6} {'euro pde':>10} {'euro mc':>10} {'z':>6}   "
          f"{'amer pde':>10} {'mc bound':>10} {'margin':>8}")
    for k, x in enumerate((-0.2, -0.1, 0.0, 0.1, 0.2)):
        euro_mc = mc.european_estimate(PUT, RATE)
        amer_mc = mc.stopping_lower_bound(PUT, RATE, rule)
        mc.simulate(MODEL, coeffs, x, HORIZON, PATHS, 1, seed=SEED + k,
                    watchers=[euro_mc])
        mc.simulate(MODEL, coeffs, x, HORIZON, PATHS, STEPS, seed=SEED + k,
                    watchers=[amer_mc])
        est_e, est_a = euro_mc.result, amer_mc.result
        # column n is time to expiry n*dt: the last is today
        pe = float(np.interp(x, grid.nodes, euro.values[:, -1]))
        pa = float(np.interp(x, grid.nodes, amer.values[:, -1]))
        z = (pe - est_e.price) / est_e.stderr
        margin = (pa - est_a.price) / est_a.stderr
        print(f"{x:>6.2f} {pe:>10.5f} {est_e.price:>10.5f} {z:>6.2f}   "
              f"{pa:>10.5f} {est_a.price:>10.5f} {margin:>+7.1f}se")
    print()
    print("euro |z| should stay below ~3.  the early-exercise margin is a")
    print("one-sided check: the lattice's rule decides on 64 dates only and")
    print("reads the nearest node, so the lattice price may sit above the")
    print("bound, and may only dip below it by Monte Carlo noise (a few")
    print("standard errors), never more.")


if __name__ == "__main__":
    main()
