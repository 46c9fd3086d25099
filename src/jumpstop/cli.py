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
"""

from __future__ import annotations

import argparse
import sys


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
    args = _build_parser().parse_args(argv)
    from . import harness  # deferred: a bad argument loads no numpy
    if args.command == "solve":
        return harness.run(args.config, out_dir=args.out, seed=args.seed,
                           refine=args.refine)
    if args.command == "compare":
        return harness.compare_cli(args.config, seed=args.seed,
                                   out_dir=args.out, refine=args.refine)
    return harness.selftest()


if __name__ == "__main__":
    sys.exit(main())
