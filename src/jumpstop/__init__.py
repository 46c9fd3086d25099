"""Finite-horizon optimal stopping for jump diffusions.

A finite-difference solver for the variational inequality satisfied by
the value function of an optimal stopping problem whose state carries
both a diffusion and a (possibly infinite-variation) jump component.
The obstacle is handled by a smooth penalty term with a continuation
schedule, or by direct projection; independent cross-checks come from
closed forms, a binomial tree, and contact-set Monte Carlo paths.

Submodules
----------
grids
    Space-time grids, grid functions, coefficient fields.
levy
    Jump-measure families, tail integrals, quadrature.
payoff
    Reward specifications and mollification.
penalty
    Penalty-term construction and its anchor constant.
generator
    Discrete local and nonlocal operator assembly.
solver
    Time-stepping solves and the complementarity residual.
diagnostics
    Region partition, smooth fit, invariant checks.
mc
    Path simulation and policy-based value estimates.
oracles
    Closed-form and tree pricing references.
harness
    Run configuration, orchestration, artifacts.

This module stays import-light on purpose: submodules load lazily, so
the command-line wrapper parses its arguments before any numerical
library loads.
"""

from importlib import import_module

__version__ = "0.1.0"

_SUBMODULES = (
    "diagnostics", "errors", "generator", "grids", "harness", "levy",
    "mc", "oracles", "payoff", "penalty", "solver",
)

__all__ = list(_SUBMODULES) + ["__version__"]


def __getattr__(name):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(__all__)
