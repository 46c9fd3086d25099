"""Price an American put under jump risk and map its exercise region.

Solves the early-exercise problem twice -- once with the smooth penalty
continuation, once with direct projection -- and prints a value table,
the gap between the two routes, and an ASCII map of where immediate
exercise is optimal.  The free boundary rises toward the strike as
expiry approaches.
"""

import numpy as np

from jumpstop import diagnostics, levy, payoff
from jumpstop.grids import CoefficientField, SpaceTimeGrid
from jumpstop.solver import SolveConfig, contact_tol, solve_vi

SIGMA, RATE, HORIZON = 0.2, 0.04, 1.0
DIFF = 0.5 * SIGMA * SIGMA


def main():
    model = levy.merton(intensity=1.5, jump_mean=-0.05, jump_std=0.25)
    drift = RATE - DIFF - levy.exp_compensator(model)
    coeffs = CoefficientField.constants(DIFF, drift, RATE)
    put = payoff.put(1.0)
    grid = SpaceTimeGrid(-0.5, 0.5, 1.5, 240, HORIZON, 240)

    penalized = solve_vi(SolveConfig(grid, model, coeffs, put,
                                     eps_schedule=(0.2, 0.1, 0.05, 0.025),
                                     mode="penalized"))
    cfg = SolveConfig(grid, model, coeffs, put, mode="projected")
    projected = solve_vi(cfg)

    print("value of the one-year American put (strike 1):")
    print(f"{'spot':>8} {'penalized':>11} {'projected':>11} {'intrinsic':>11}")
    # column n of a surface is time to expiry n*dt: the last is today
    u_pen, u_pro = penalized.value, projected.value
    for s0 in (0.75, 0.85, 0.95, 1.00, 1.05, 1.20):
        x = np.log(s0)
        vp = np.interp(x, grid.nodes, u_pen.values[:, -1])
        vq = np.interp(x, grid.nodes, u_pro.values[:, -1])
        print(f"{s0:>8.2f} {vp:>11.5f} {vq:>11.5f} {max(1 - s0, 0):>11.5f}")

    gap = float(np.max(np.abs(u_pen.values - u_pro.values)))
    print(f"\nsup gap between the two routes: {gap:.2e} "
          f"(final separation width 0.025)")
    deltas = ", ".join(f"{d:.4f}" for d in penalized.eps_trace)
    print(f"continuation deltas along the width schedule: {deltas}")

    # the package's stopping region, read at the nearest node and level
    labels = diagnostics.partition(u_pro, put, contact_tol(cfg, None)).labels
    print("\nexercise map (rows: spot, columns: time to expiry; "
          "# = exercise, . = hold):")
    spots = np.linspace(0.70, 1.05, 15)
    levels = np.rint(np.linspace(HORIZON, 0.02, 36) / grid.dt).astype(int)
    for s0 in spots[::-1]:
        i = int(np.argmin(np.abs(grid.nodes - np.log(s0))))
        row = "".join("#."[labels[i, n]] for n in levels)
        print(f"  s={s0:.3f} {row}")
    print("  " + " " * 8 + "t->expiry " + "-" * 24 + ">")


if __name__ == "__main__":
    main()
