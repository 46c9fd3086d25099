"""Command-line front end.

Subcommands::

    jumpstop solve    --config FILE [--out DIR] [--seed N] [--refine K]
    jumpstop compare  --config FILE [--out DIR] [--seed N] [--refine K]
    jumpstop selftest

``solve`` runs the configured problem and writes the artifact set; exit
status 0 means every invariant check passed, 2 a configuration error,
3 an invariant violation (each failing check is printed with its
observed value and bound, a numerical failure with its layer).  ``compare`` prints the probe table of
solver values against the available reference prices.  ``selftest``
runs the quick built-in suite.

Set ``JUMPSTOP_THREADS`` to pin the BLAS/OpenMP thread count; it is
applied before the numerical stack loads.
"""

from __future__ import annotations

import argparse
import os
import sys

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _pin_threads() -> None:
    """Honor JUMPSTOP_THREADS before numpy/scipy initialize their pools."""
    want = os.environ.get("JUMPSTOP_THREADS")
    if not want:
        return
    if not want.isdigit() or int(want) < 1:
        print(f"ignoring JUMPSTOP_THREADS={want!r} (need a positive "
              f"integer)", file=sys.stderr)
        return
    for var in _THREAD_VARS:
        os.environ.setdefault(var, want)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jumpstop",
        description="Finite-horizon optimal stopping for jump diffusions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, need_config=True):
        if need_config:
            p.add_argument("--config", required=True,
                           help="run configuration (JSON or key=value lines)")
        p.add_argument("--out", default=None,
                       help="output directory (overrides the config)")
        p.add_argument("--seed", type=int, default=None,
                       help="oracle seed (overrides the config)")
        p.add_argument("--refine", type=int, default=0, metavar="K",
                       help="halve the space and time steps K times")

    solve = sub.add_parser("solve", help="solve and write artifacts")
    add_common(solve)
    comp = sub.add_parser("compare", help="probe table vs reference prices")
    add_common(comp)
    sub.add_parser("selftest", help="run the built-in invariant suite")
    return parser


def main(argv=None) -> int:
    _pin_threads()
    args = _build_parser().parse_args(argv)
    from . import harness  # deferred so the env pinning above takes effect
    if args.command == "solve":
        return harness.run(args.config, out_dir=args.out, seed=args.seed,
                           refine=args.refine)
    if args.command == "compare":
        return harness.compare_cli(args.config, seed=args.seed,
                                   out_dir=args.out, refine=args.refine)
    return harness.selftest()


if __name__ == "__main__":
    sys.exit(main())
