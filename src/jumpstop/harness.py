"""Run configuration, orchestration, and artifact output.

A :class:`RunConfig` groups the inputs in four blocks -- ``problem``
(dynamics, reward, horizon), ``numerics`` (grid, schedule, mode),
``oracle`` (cross-check selection, probes, seeds), ``output`` (directory,
formats).  Configs parse from JSON or from a line format of
``block.key = value`` pairs; unknown blocks or keys are rejected, and the
emitted effective config re-parses to an equal value.

:func:`run` solves the configured problem, evaluates the invariant
checks and any applicable oracles, and writes the artifacts: the value
surface and free boundary as CSV, machine-checkable diagnostics as JSON,
the effective config, and a short text summary.  Nothing time- or
host-dependent goes into the files, so identical config and seed give
byte-identical artifacts.  Exit status: 0 all checks passed, 2 config
error, 3 invariant violation: a failing check, named with its observed
value, bound and layer, or a numerical failure in the solve or the Monte
Carlo, named by its layer.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path
from typing import Sequence

import numpy as np

from . import diagnostics, generator, levy, mc, oracles
from . import payoff as payoff_mod
from .diagnostics import CheckResult, RegionPartition
from .errors import (ConfigError, InvariantViolation, NumericalError,
                     ParameterError)
from .grids import CoefficientField, GridFunction, SpaceTimeGrid
from .levy import LevyModel
from .payoff import PayoffSpec
from .solver import (MODES, SolveConfig, SolveReport, contact_tol,
                     explicit_rate, residual_vi, solve_european, solve_vi,
                     stability_fraction)

__all__ = [
    "RunConfig", "ProblemBlock", "NumericsBlock", "OracleBlock",
    "OutputBlock", "run", "compare", "compare_cli", "selftest",
]

_FAMILIES = {
    "none": (levy.none, 0),
    "merton": (levy.merton, 3),
    "kou": (levy.kou, 4),
    "variance_gamma": (levy.variance_gamma, 3),
    "nig": (levy.nig, 3),
    "tempered_stable": (levy.tempered_stable, 6),
}

_PAYOFFS = ("put", "capped_call", "table")
_ORACLE_NAMES = ("auto", "binomial", "series", "mc", "none")
_FORMATS = ("csv", "json")

# In-run oracle gate: generous enough to hold at any sane resolution;
# the tight, resolution-matched tolerances live in the acceptance tests.
_ORACLE_REL_GATE = 0.01
_RESIDUAL_SCALE = 20.0
# tree depth of the lattice reference
_BINOMIAL_STEPS = 2000


# ---------------------------------------------------------------------------
# configuration blocks


@dataclass
class ProblemBlock:
    """Dynamics and reward: x is log-price-like, times are in years."""

    sigma: float = 0.2          # diffusion volatility; a = sigma^2 / 2
    rate: float = 0.04          # flat discount rate
    drift: float | None = None  # None -> rate - a - jump exponential comp.
    family: str = "none"
    jump_params: list[float] = field(default_factory=list)
    payoff: str = "put"
    strike: float = 1.0
    cap: float | None = None        # capped_call only
    table_path: str | None = None   # table payoff only
    horizon: float = 1.0


@dataclass
class NumericsBlock:
    x_lo: float = -0.5
    x_hi: float = 0.5
    pad: float = 1.5
    nx: int = 200
    nt: int = 100
    eps_schedule: list[float] = field(
        default_factory=lambda: [0.2, 0.1, 0.05])
    mode: str = "penalized"


@dataclass
class OracleBlock:
    mc_paths: int = 0               # 0 disables the path estimate
    mc_steps: int = 64
    seed: int = 20260825
    which: list[str] = field(default_factory=lambda: ["auto"])
    probes: list[float | list[float]] = field(  # x or [x, t]
        default_factory=lambda: [0.0])


@dataclass
class OutputBlock:
    out_dir: str = "out"
    formats: list[str] = field(default_factory=lambda: ["csv", "json"])


_BLOCK_TYPES = {
    "problem": ProblemBlock, "numerics": NumericsBlock,
    "oracle": OracleBlock, "output": OutputBlock,
}


def _coerce(where: str, value, kind: str):
    """``value`` checked and converted to the field annotation ``kind``."""
    def fail(expected: str):
        raise ConfigError(f"{where}: expected {expected}, got {value!r}")

    if kind.endswith(" | None"):
        return None if value is None else \
            _coerce(where, value, kind.removesuffix(" | None"))
    if kind.startswith("list["):
        if not isinstance(value, (list, tuple)):
            fail(kind)
        item = kind.removeprefix("list[").removesuffix("]")
        return [_coerce(where, v, item) for v in value]
    if kind == "float | list[float]":       # a probe: x or [x, t]
        if not isinstance(value, (list, tuple)):
            return _coerce(where, value, "float")
        if len(value) != 2:
            fail("a probe x or [x, t]")
        return _coerce(where, value, "list[float]")
    if kind == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            fail("a number")
        return float(value)
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            fail("an integer")
        return int(value)
    if kind == "str":
        if not isinstance(value, str):
            fail("a string")
        return value
    raise AssertionError(f"unknown kind {kind}")


@dataclass
class RunConfig:
    """Validated run description; see the block classes for the fields."""

    problem: ProblemBlock = field(default_factory=ProblemBlock)
    numerics: NumericsBlock = field(default_factory=NumericsBlock)
    oracle: OracleBlock = field(default_factory=OracleBlock)
    output: OutputBlock = field(default_factory=OutputBlock)

    # -- parsing ------------------------------------------------------------

    @staticmethod
    def from_dict(raw) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a mapping of blocks")
        unknown = set(raw) - set(_BLOCK_TYPES)
        if unknown:
            raise ConfigError(
                f"unknown config block(s): {', '.join(sorted(unknown))}; "
                f"valid blocks: {', '.join(sorted(_BLOCK_TYPES))}")
        blocks = {}
        for name, cls in _BLOCK_TYPES.items():
            body = raw.get(name, {})
            if not isinstance(body, dict):
                raise ConfigError(f"block {name!r} must be a mapping")
            kinds = {f.name: f.type for f in dataclasses.fields(cls)}
            bad = set(body) - set(kinds)
            if bad:
                raise ConfigError(
                    f"unknown key(s) in block {name!r}: "
                    f"{', '.join(sorted(bad))}")
            kwargs = {k: _coerce(f"{name}.{k}", v, kinds[k])
                      for k, v in body.items()}
            blocks[name] = cls(**kwargs)
        rc = RunConfig(**blocks)
        rc._validate_enums()
        return rc

    @staticmethod
    def from_text(text: str) -> "RunConfig":
        stripped = text.lstrip()
        if stripped.startswith("{"):
            try:
                raw = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"invalid JSON config: {exc}") from exc
            return RunConfig.from_dict(raw)
        raw: dict = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ConfigError(
                    f"line {lineno}: expected 'block.key = value'")
            key, _, val = body.partition("=")
            key = key.strip()
            if key.count(".") != 1:
                raise ConfigError(
                    f"line {lineno}: key must be 'block.key', got {key!r}")
            block, name = key.split(".")
            try:
                parsed = json.loads(val.strip())
            except json.JSONDecodeError:
                parsed = val.strip()
            raw.setdefault(block, {})[name] = parsed
        return RunConfig.from_dict(raw)

    @staticmethod
    def from_path(path) -> "RunConfig":
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return RunConfig.from_text(text)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def _validate_enums(self) -> None:
        p, n, o, out = self.problem, self.numerics, self.oracle, self.output
        if p.family not in _FAMILIES:
            raise ConfigError(
                f"problem.family {p.family!r} not one of "
                f"{', '.join(sorted(_FAMILIES))}")
        if p.payoff not in _PAYOFFS:
            raise ConfigError(
                f"problem.payoff {p.payoff!r} not one of {_PAYOFFS}")
        if n.mode not in MODES:
            raise ConfigError(f"numerics.mode {n.mode!r} not one of {MODES}")
        for name in o.which:
            if name not in _ORACLE_NAMES:
                raise ConfigError(
                    f"oracle.which entry {name!r} not one of {_ORACLE_NAMES}")
        for fmt in out.formats:
            if fmt not in _FORMATS:
                raise ConfigError(
                    f"output.formats entry {fmt!r} not one of {_FORMATS}")
        if o.mc_paths < 0 or o.mc_steps < 1:
            raise ConfigError("oracle counts must be positive")
        if o.seed < 0:
            raise ConfigError("oracle.seed must be >= 0")

    # -- builders -----------------------------------------------------------

    def build_model(self) -> LevyModel:
        p = self.problem
        builder, arity = _FAMILIES[p.family]
        if len(p.jump_params) != arity:
            raise ConfigError(
                f"problem.family {p.family!r} takes {arity} jump_params, "
                f"got {len(p.jump_params)}")
        return builder(*p.jump_params)

    def build_payoff(self) -> PayoffSpec:
        p = self.problem
        if p.payoff == "put":
            return payoff_mod.put(p.strike)
        if p.payoff == "capped_call":
            if p.cap is None:
                raise ConfigError("problem.cap is required for capped_call")
            return payoff_mod.soft_capped_call(p.strike, p.cap)
        if p.table_path is None:
            raise ConfigError("problem.table_path is required for table")
        return payoff_mod.from_csv(p.table_path)

    def build_coeffs(self, model: LevyModel) -> CoefficientField:
        p = self.problem
        if p.sigma <= 0.0:
            raise ConfigError("problem.sigma must be > 0")
        if p.rate < 0.0:
            raise ConfigError("problem.rate must be >= 0")
        a = 0.5 * p.sigma * p.sigma
        if p.drift is not None:
            b = p.drift
        else:
            b = p.rate - a - levy.exp_compensator(model)
        return CoefficientField.constants(a, b, p.rate)

    def build_solve_config(self, refine: int = 0) -> SolveConfig:
        n = self.numerics
        model = self.build_model()
        g = self.build_payoff()
        coeffs = self.build_coeffs(model)
        grid = SpaceTimeGrid(n.x_lo, n.x_hi, n.pad, n.nx,
                             self.problem.horizon, n.nt)
        if refine:
            if refine < 0:
                raise ConfigError("refine count must be >= 0")
            grid = grid.refined(refine)
        # a bad probe is a config error before the solve, not after it
        for x, t in _normalized_probes(self):
            if not 0.0 <= grid.t_final - t <= grid.t_final + 1e-12:
                raise ConfigError(
                    f"probe time {t} outside [0, {grid.t_final}]")
            if not grid.nodes[0] <= x <= grid.nodes[-1]:
                raise ConfigError(
                    f"probe location {x} outside the padded grid")
        return SolveConfig(grid, model, coeffs, g,
                           eps_schedule=tuple(n.eps_schedule),
                           mode=n.mode)


# ---------------------------------------------------------------------------
# orchestration


def _normalized_probes(rc: RunConfig) -> list[tuple[float, float]]:
    out = []
    for p in rc.oracle.probes:
        if isinstance(p, (list, tuple)):
            out.append((float(p[0]), float(p[1])))
        else:
            out.append((float(p), 0.0))
    return out


def _value_at(report: SolveReport, cfg: SolveConfig,
              x: float, t: float) -> float:
    """Value at ``(x, t)``, linear in ``x`` and in time.

    A probe on a time level (to 1e-9 of a step) reads that level alone;
    any other reads the two levels around it.  A projected solve's value
    is then projected onto the obstacle, as the march projects each
    level: between two contact nodes the chord of a concave payoff lies
    below it.  :meth:`RunConfig.build_solve_config` has checked that the
    probe lies on the grid.
    """
    grid = cfg.grid
    s = grid.t_final - t
    values = report.value.values
    pos = min(s / grid.dt, grid.nt)
    col = round(pos)
    if abs(pos - col) <= 1e-9:
        value = float(np.interp(x, grid.nodes, values[:, col]))
    else:
        lo = int(pos)
        w = pos - lo
        value = float((1.0 - w) * np.interp(x, grid.nodes, values[:, lo])
                      + w * np.interp(x, grid.nodes, values[:, lo + 1]))
    return max(value, cfg.payoff(x)) if cfg.mode == "projected" else value


def _risk_neutral(p: ProblemBlock, model: LevyModel) -> bool:
    """True when the drift is ``rate - sigma^2/2 - exp_compensator``.

    A model with no finite exponential moment has no risk-neutral drift,
    so an explicit drift under it is not risk-neutral.
    """
    if p.drift is None:
        return True
    try:
        comp = levy.exp_compensator(model)
    except ParameterError:
        return False
    neutral = p.rate - 0.5 * p.sigma * p.sigma - comp
    return math.isclose(p.drift, neutral, rel_tol=0.0, abs_tol=1e-12)


def _oracle_selection(rc: RunConfig, cfg: SolveConfig) -> set:
    which = set(rc.oracle.which)
    if "none" in which:
        return set()
    names = which - {"auto"}
    if "auto" in which:
        if cfg.model.is_trivial and cfg.payoff.kind == "put":
            names.add("binomial")
        if cfg.model.family == "merton" and cfg.payoff.kind == "put" \
                and cfg.mode == "european":
            names.add("series")
        if rc.oracle.mc_paths > 0:
            names.add("mc")
    if names & {"binomial", "series"} \
            and not _risk_neutral(rc.problem, cfg.model):
        # the tree and the series price under the risk-neutral drift only
        names -= {"binomial", "series"}
    return names


def _reference_price(rc: RunConfig, cfg: SolveConfig, names: set,
                     x: float, horizon: float) -> tuple[str, float] | None:
    """Closed-form/tree reference at probe ``x`` over ``horizon``, if any."""
    p = rc.problem
    if cfg.payoff.kind != "put" or horizon <= 0.0:
        return None
    s0 = math.exp(x)
    if "binomial" in names and cfg.model.is_trivial:
        price = oracles.binomial_put(
            s0, p.strike, p.rate, p.sigma, horizon,
            steps=_BINOMIAL_STEPS,
            american=cfg.mode != "european")
        return "binomial", price
    if "series" in names and cfg.model.family == "merton" \
            and cfg.mode == "european":
        lam, mu, sd = (p.jump_params + [0.0] * 3)[:3]
        return "series", oracles.merton_put(
            s0, p.strike, p.rate, p.sigma, horizon, lam, mu, sd)
    return None


def _probe_rows(rc: RunConfig, cfg: SolveConfig,
                report: SolveReport) -> list[dict]:
    """Per-probe comparison table: PDE vs oracle vs path lower bound."""
    names = _oracle_selection(rc, cfg)
    european = cfg.mode == "european"
    # the terminal estimate reads the last level only, and with constant
    # coefficients one step over the horizon has the exact law of many
    mc_steps = 1 if european and cfg.coeffs.constant \
        else rc.oracle.mc_steps
    rows = []
    for x, t in _normalized_probes(rc):
        horizon = cfg.grid.t_final - t
        row: dict = {"x": x, "t": t, "pde": _value_at(report, cfg, x, t)}
        ref = _reference_price(rc, cfg, names, x, horizon)
        if ref is not None:
            row["oracle"], row["oracle_value"] = ref
            row["abs_gap"] = abs(row["pde"] - row["oracle_value"])
            scale = abs(row["oracle_value"])
            row["rel_gap"] = row["abs_gap"] / scale if scale > 0 else None
        rows.append(row)
    mc_on = "mc" in names and rc.oracle.mc_paths > 0
    kind = "terminal" if european else "lower_bound"
    if mc_on and not european:
        # the lattice's own contact set
        rule = diagnostics.stopping_rule(
            report.value, cfg.payoff, contact_tol(cfg, report.eps_final))
    # a constant rate is one float, not a rate array per step and path
    rate = float(cfg.coeffs.r(0.0, 0.0)) if cfg.coeffs.constant \
        else cfg.coeffs.r
    for k, first in enumerate(rows):
        horizon = cfg.grid.t_final - first["t"]
        if not mc_on or horizon <= 0.0 or "mc_kind" in first:
            continue
        # with constant coefficients the increments do not depend on the
        # state: the paths from a later probe at this time are the first
        # probe's moved by its x - x_0 in law (Cont & Tankov 2004, secs.
        # 6.2-6.3), so they all watch one batch
        sharing = [row for row in rows[k:] if row["t"] == first["t"]] \
            if cfg.coeffs.constant else [first]
        shifts = [row["x"] - first["x"] for row in sharing]
        values = []
        for shift in shifts:

            def reward(y, shift=shift):
                return cfg.payoff(y + shift)

            def stop(y, s, shift=shift):
                return rule(y + shift, s)
            values.append(mc.european_estimate(reward, rate) if european
                          else mc.stopping_lower_bound(reward, rate, stop))
        batch = mc.simulate(
            cfg.model, cfg.coeffs, first["x"], horizon, rc.oracle.mc_paths,
            mc_steps, rc.oracle.seed + k, watchers=values)
        for row, shift, value in zip(sharing, shifts, values):
            est = value.result
            row.update(mc_kind=kind, mc_value=est.price, mc_stderr=est.stderr,
                       mc_steps=batch.n_steps, mc_shift=shift)
    return rows


def _hard_checks(cfg: SolveConfig, report: SolveReport,
                 res_stats: dict | None, rows: list[dict],
                 regions: RegionPartition | None) -> dict:
    """Invariant gates deciding the exit status (``res_stats``: the
    residual's ``min`` and ``max_abs``)."""
    grid = cfg.grid
    tol = diagnostics.check_tolerance(grid)
    checks = dict(diagnostics.lemma_suite(report, cfg.payoff, grid))
    if cfg.mode == "projected":
        checks["obstacle"] = CheckResult(regions.gap_min >= -tol,
                                         regions.gap_min, -tol)
    if cfg.mode == "penalized" and len(report.eps_trace) >= 2:
        deltas = report.eps_trace
        worst = max(b - a for a, b in zip(deltas, deltas[1:]))
        checks["eps_deltas_decreasing"] = CheckResult(worst < 0.0, worst, 0.0)
    if res_stats is not None:
        res_min, res_max = res_stats["min"], res_stats["max_abs"]
        bound = _RESIDUAL_SCALE * (grid.h ** 2 + grid.dt) \
            * max(cfg.payoff.bound, 1.0)
        checks["residual_lower"] = CheckResult(res_min >= -tol,
                                               res_min, -tol)
        checks["residual_bound"] = CheckResult(res_max <= bound,
                                               res_max, bound)
    for row in rows:
        if "oracle_value" in row and row.get("rel_gap") is not None:
            name = f"oracle_{row['oracle']}"
            gate = max(_ORACLE_REL_GATE * abs(row["oracle_value"]),
                       1e-3 * cfg.payoff.bound)
            ok = row["abs_gap"] <= gate
            prev = checks.get(name)
            if prev is None or row["abs_gap"] > prev.observed:
                checks[name] = CheckResult(ok and (prev is None
                                                   or prev.passed),
                                           row["abs_gap"], gate)
        if row.get("mc_kind") == "lower_bound":
            margin = row["pde"] - (row["mc_value"]
                                   - 4.0 * row["mc_stderr"])
            prev = checks.get("mc_dominance")
            ok = margin >= 0.0
            if prev is None or margin < prev.observed:
                checks["mc_dominance"] = CheckResult(
                    ok and (prev is None or prev.passed), margin, 0.0)
    return checks


def _solve(cfg: SolveConfig) -> SolveReport:
    return solve_european(cfg) if cfg.mode == "european" else solve_vi(cfg)


def _residual_stats(cfg: SolveConfig, report: SolveReport) -> dict | None:
    """``max_abs``, ``min`` and count of the finite values of
    :func:`residual_vi` (``None`` if there are none)."""
    vals = residual_vi(report.value, cfg).values
    evaluated = int(np.isfinite(vals).sum())
    if not evaluated:
        return None
    return {"max_abs": float(np.nanmax(np.abs(vals))),
            "min": float(np.nanmin(vals)), "evaluated": evaluated}


def _execute(rc: RunConfig, cfg: SolveConfig) -> dict:
    """Solve, diagnose, and assemble everything the artifacts need.  The
    residual surface and the probe rows' Monte Carlo, the largest
    transients of a run, come and go before the partition's gap and
    labels exist.  The residual goes first: since the Monte Carlo holds
    two rows of paths, not all of them, that order peaks lower."""
    report = _solve(cfg)
    res_stats = None if cfg.mode == "european" else \
        _residual_stats(cfg, report)
    rows = _probe_rows(rc, cfg, report)
    tol = diagnostics.check_tolerance(cfg.grid)

    regions = smooth = None
    if cfg.mode != "european":
        regions = diagnostics.partition(
            report.value, cfg.payoff, contact_tol(cfg, report.eps_final))
        if cfg.mode == "projected":
            smooth = diagnostics.smooth_fit_gap(report.value, regions)
    checks = _hard_checks(cfg, report, res_stats, rows, regions)
    failed = sorted(k for k, v in checks.items() if not v.passed)

    return {
        "report": report,
        "regions": regions,
        "smooth": smooth,
        "res_stats": res_stats,
        "rows": rows,
        "checks": checks,
        "failed": failed,
        "tol": tol,
    }


# ---------------------------------------------------------------------------
# artifacts


def _jsonable(obj):
    """JSON-safe deep copy: numpy scalars to python, non-finite to None."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, (np.integer, int)) or isinstance(obj, (str, bool)) \
            or obj is None:
        return int(obj) if isinstance(obj, np.integer) else obj
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def _write_surface(path: Path, rc: RunConfig, cfg: SolveConfig,
                   bundle: dict) -> None:
    """One row per window node (``grid.interior``) and time ``t``, read
    from level ``(T - t) / dt``, each value written as its ``repr`` (so
    ``-0.0`` stays ``-0.0``); the ``x`` and ``g`` columns are formatted
    once and zipped with each level's ``u`` and region marks."""
    grid = cfg.grid
    window = grid.interior
    u = bundle["report"].value.values[window]
    g = np.asarray(cfg.payoff(grid.nodes), dtype=float)[window]
    xs = [repr(x) for x in grid.nodes[window].tolist()]
    gs = [repr(v) for v in g.tolist()]
    regions = bundle["regions"]
    marks = None if regions is None else \
        np.where(regions.labels[window] == 1, "C", "S")
    with path.open("w") as fh:
        fh.write("x,t,u,g,region\n")
        for n, t in zip(range(grid.nt, -1, -1), grid.times.tolist()):
            us = map(repr, u[:, n].tolist())
            rs = repeat("-") if marks is None else marks[:, n].tolist()
            rows = zip(xs, repeat(repr(t)), us, gs, rs)
            fh.write("\n".join(map(",".join, rows)) + "\n")


def _write_boundary(path: Path, cfg: SolveConfig, bundle: dict) -> None:
    lines = ["t,b"]
    if bundle["regions"] is not None:
        times = cfg.grid.times.tolist()
        for t, curve in zip(times, bundle["regions"].boundary[::-1]):
            for b in curve:
                lines.append(f"{t!r},{float(b)!r}")
    path.write_text("\n".join(lines) + "\n")


def _diagnostics_payload(rc: RunConfig, cfg: SolveConfig,
                         bundle: dict) -> dict:
    report = bundle["report"]
    checks = {name: {"passed": bool(res.passed),
                     "observed": res.observed, "bound": res.bound}
              for name, res in bundle["checks"].items()}
    smooth = bundle["smooth"]
    regions = bundle["regions"]
    payload = {
        "mode": cfg.mode,
        "family": cfg.model.family,
        "grid": {"nx": cfg.grid.nx, "nt": cfg.grid.nt,
                 "h": cfg.grid.h, "dt": cfg.grid.dt,
                 "pad": cfg.grid.pad, "t_final": cfg.grid.t_final},
        "seed": rc.oracle.seed,
        "tolerance": bundle["tol"],
        "checks": checks,
        "failed_checks": bundle["failed"],
        "residuals": dict(report.residuals),
        "eps_trace": list(report.eps_trace),
        "eps_final": report.eps_final,
        "anchor": report.anchor,
        "truncation_mass": report.truncation_mass,
        "stability": {
            "fraction": stability_fraction(cfg),
            "explicit_rate": explicit_rate(cfg),
            "operator": generator.operator_summary(cfg.op),
        },
        "warnings": list(report.warnings),
        "smooth_fit": None if smooth is None else {
            "max_gap": smooth.max_gap, "median_gap": smooth.median_gap,
            "grad_max": smooth.grad_max, "unreliable": smooth.unreliable,
        },
        "residual_vi": bundle["res_stats"],
        "regions": None if regions is None else {
            "continuation": int((regions.labels == 1).sum()),
            "stopping": int((regions.labels == 0).sum()),
            "contact_tol": regions.tol,
        },
        "boundary_points": 0 if regions is None else
        sum(len(c) for c in regions.boundary),
        "probes": bundle["rows"],
    }
    return _jsonable(payload)


def _write_summary(path: Path, rc: RunConfig, cfg: SolveConfig,
                   bundle: dict) -> None:
    report = bundle["report"]
    p = rc.problem
    lines = [
        f"mode={cfg.mode} family={cfg.model.family} payoff={p.payoff} "
        f"strike={p.strike} horizon={p.horizon}",
        f"grid: nx={cfg.grid.nx} nt={cfg.grid.nt} h={cfg.grid.h:.6g} "
        f"dt={cfg.grid.dt:.6g} pad={cfg.grid.pad}",
    ]
    for row in bundle["rows"]:
        bits = [f"probe x={row['x']:+.4f} t={row['t']:.4f}: "
                f"value={row['pde']:.6f}"]
        if "oracle_value" in row:
            bits.append(f"{row['oracle']}={row['oracle_value']:.6f} "
                        f"(gap {row['abs_gap']:.2e})")
        if "mc_value" in row:
            bits.append(f"mc[{row['mc_kind']}]={row['mc_value']:.6f}"
                        f"+-{row['mc_stderr']:.1e}")
        lines.append("  ".join(bits))
    if report.eps_trace:
        trace = ", ".join(f"{d:.3e}" for d in report.eps_trace)
        lines.append(f"eps deltas: {trace} (final eps={report.eps_final})")
    n_pass = sum(1 for v in bundle["checks"].values() if v.passed)
    lines.append(f"checks: {n_pass}/{len(bundle['checks'])} passed")
    lines += [f"FAILED {failure}" for failure in _failures(bundle)]
    path.write_text("\n".join(lines) + "\n")


# the layer behind each check's observed value; a projected "obstacle"
# is the dip guard's in diagnostics.partition, which raises before it
# could fail here
_CHECK_LAYERS = {
    **dict.fromkeys(["lower_bound", "upper_bound", "obstacle",
                     "penalty_lower", "penalty_upper", "gradient_spread"],
                    "diagnostics.lemma_suite"),
    "residual_lower": "solver.residual_vi",
    "residual_bound": "solver.residual_vi",
    "eps_deltas_decreasing": "solver.solve_vi",
    "oracle_binomial": "oracles.binomial_put",
    "oracle_series": "oracles.merton_put",
    "mc_dominance": "mc.stopping_lower_bound",
}


def _failures(bundle: dict) -> list[str]:
    """``name: observed ... vs bound ... (layer ...)`` per failed check."""
    checks = bundle["checks"]
    return [f"{name}: observed {checks[name].observed:.6g} "
            f"vs bound {checks[name].bound:.6g} "
            f"(layer {_CHECK_LAYERS[name]})" for name in bundle["failed"]]


def _check_out_dir(path) -> None:
    """Config error unless artifacts can go to ``path``: its nearest
    existing ancestor (itself, if it exists) must be a writable
    directory.  Checked before the solve; the directory is made when the
    artifacts are written."""
    out = Path(path)
    near = next(p for p in (out, *out.parents) if p.exists())
    if not (near.is_dir() and os.access(near, os.W_OK | os.X_OK)):
        raise ConfigError(f"cannot write artifacts to {out}: {near} is not "
                          f"a writable directory")


def _write_artifacts(rc: RunConfig, cfg: SolveConfig, bundle: dict) -> Path:
    out = Path(rc.output.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    formats = rc.output.formats
    if "csv" in formats:
        _write_surface(out / "surface.csv", rc, cfg, bundle)
        _write_boundary(out / "boundary.csv", cfg, bundle)
    if "json" in formats:
        payload = _diagnostics_payload(rc, cfg, bundle)
        (out / "diagnostics.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n")
        (out / "effective_config.json").write_text(rc.to_json())
    _write_summary(out / "summary.txt", rc, cfg, bundle)
    return out


# ---------------------------------------------------------------------------
# entry points


def run(config_path, out_dir=None, seed=None, refine: int = 0,
        stream=None) -> int:
    """Solve a configured problem, write artifacts, gate on invariants."""
    stream = sys.stdout if stream is None else stream
    try:
        rc = RunConfig.from_path(config_path)
        if out_dir is not None:
            rc.output.out_dir = str(out_dir)
        if seed is not None:
            rc.oracle.seed = int(seed)
        _check_out_dir(rc.output.out_dir)
        cfg = rc.build_solve_config(refine)
        bundle = _execute(rc, cfg)
    except (ConfigError, ParameterError) as exc:
        print(f"config error: {exc}", file=stream)
        return 2
    except (InvariantViolation, NumericalError) as exc:
        print(f"invariant violation: {exc}", file=stream)
        return 3
    where = _write_artifacts(rc, cfg, bundle)
    print(f"artifacts written to {where}", file=stream)
    if bundle["failed"]:
        print(f"invariant violation: {'; '.join(_failures(bundle))}",
              file=stream)
        return 3
    print(f"all {len(bundle['checks'])} checks passed", file=stream)
    return 0


def compare(rc: RunConfig, which: Sequence[str] | None = None,
            refine: int = 0) -> list[dict]:
    """Probe table: PDE value vs oracles vs path estimates.

    Returns one dict per probe with keys among ``x, t, pde, oracle,
    oracle_value, abs_gap, rel_gap, mc_kind, mc_value, mc_stderr,
    mc_steps`` (``mc_steps``: the steps per path the estimate simulated).
    """
    if which is not None:
        rc = dataclasses.replace(
            rc, oracle=dataclasses.replace(rc.oracle, which=list(which)))
    cfg = rc.build_solve_config(refine)
    return _probe_rows(rc, cfg, _solve(cfg))


def compare_cli(config_path, seed=None, out_dir=None, refine: int = 0,
                stream=None) -> int:
    stream = sys.stdout if stream is None else stream
    try:
        rc = RunConfig.from_path(config_path)
        if seed is not None:
            rc.oracle.seed = int(seed)
        if out_dir is not None:
            _check_out_dir(out_dir)
        rows = compare(rc, refine=refine)
    except (ConfigError, ParameterError) as exc:
        print(f"config error: {exc}", file=stream)
        return 2
    except NumericalError as exc:
        print(f"invariant violation: {exc}", file=stream)
        return 3
    header = f"{'x':>9} {'t':>7} {'pde':>12} {'oracle':>12} " \
             f"{'mc':>12} {'stderr':>9} {'abs gap':>10} {'rel gap':>10}"
    print(header, file=stream)
    for row in rows:
        oracle_s = f"{row['oracle_value']:.6f}" if "oracle_value" in row \
            else "-"
        mc_s = f"{row['mc_value']:.6f}" if "mc_value" in row else "-"
        se_s = f"{row['mc_stderr']:.1e}" if "mc_stderr" in row else "-"
        ag = f"{row['abs_gap']:.2e}" if "abs_gap" in row else "-"
        rg = f"{row['rel_gap']:.2e}" if row.get("rel_gap") is not None \
            else "-"
        print(f"{row['x']:>9.4f} {row['t']:>7.3f} {row['pde']:>12.6f} "
              f"{oracle_s:>12} {mc_s:>12} {se_s:>9} {ag:>10} {rg:>10}",
              file=stream)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        cols = ["x", "t", "pde", "oracle", "oracle_value", "abs_gap",
                "rel_gap", "mc_kind", "mc_value", "mc_stderr"]
        lines = [",".join(cols)]
        for row in rows:
            lines.append(",".join(
                "" if row.get(c) is None else
                (row[c] if isinstance(row.get(c), str) else repr(row[c]))
                for c in cols))
        (out / "compare.csv").write_text("\n".join(lines) + "\n")
        print(f"table written to {out / 'compare.csv'}", file=stream)
    return 0


# ---------------------------------------------------------------------------
# self test


def _selftest_cases() -> list[tuple[str, callable]]:
    """One smoke case per layer: operator, march, Monte Carlo."""
    def case_operator_kills_constants():
        model = levy.merton(1.5, -0.05, 0.25)
        grid = SpaceTimeGrid(-0.5, 0.5, 1.5, 60, 0.5, 10)
        op = generator.build_operator(model, grid)
        flat = payoff_mod.tabulated([-50.0, 50.0], [1.0, 1.0])
        gf = GridFunction(grid, np.ones(grid.nx + 1), payoff=flat)
        out = generator.apply_nonlocal(op, gf)
        assert np.max(np.abs(out)) < 1e-10, "constants must be annihilated"

    def case_constant_fixed_point():
        flat = payoff_mod.tabulated([-50.0, 50.0], [0.7, 0.7])
        grid = SpaceTimeGrid(-1.0, 1.0, 1.0, 24, 0.5, 6)
        coeffs = CoefficientField.constants(1.0, 0.0, 0.0)
        cfg = SolveConfig(grid, levy.none(), coeffs, flat, mode="european")
        rep = solve_european(cfg)
        assert np.max(np.abs(rep.value.values - 0.7)) < 1e-12

    def case_mc_constant_reward():
        coeffs = CoefficientField.constants(0.02, 0.0, 0.0)
        flat = payoff_mod.tabulated([-50.0, 50.0], [2.5, 2.5])
        value = mc.european_estimate(flat, 0.0)
        mc.simulate(levy.none(), coeffs, 0.0, 1.0, 50, 8, 4, watchers=[value])
        est = value.result
        assert est.price == 2.5 and est.stderr == 0.0

    return [
        ("operator-kills-constants", case_operator_kills_constants),
        ("constant-fixed-point", case_constant_fixed_point),
        ("mc-constant-reward", case_mc_constant_reward),
    ]


def selftest(stream=None) -> int:
    """Run the quick invariant suite; 0 if every case passes, else 3."""
    stream = sys.stdout if stream is None else stream
    cases = _selftest_cases()
    failed = []
    for name, fn in cases:
        try:
            fn()
        except Exception as exc:  # report and continue
            failed.append(name)
            print(f"FAIL {name}: {exc}", file=stream)
        else:
            print(f"PASS {name}", file=stream)
    if failed:
        print(f"selftest failed: {', '.join(failed)}", file=stream)
        return 3
    print(f"selftest passed ({len(cases)} cases)", file=stream)
    return 0
