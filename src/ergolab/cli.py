"""Batch experiment runner.

Scenario files (INI-style, parsed by the model layer with line/column
diagnostics) declare the model; run parameters resolve as
defaults < scenario [run] section < command-line flags, and the resolved
set is written to OUT/manifest together with every output file name, so
a run can be reproduced byte-for-byte from its manifest alone.

Exit codes: 0 all checks passed, 1 usage or scenario errors, 2 a check
failed, 3 numeric blow-up inside a solver.

Reports are flat key=value text, data files flat CSV, floats %.17g in
both; only the manifest's wall_seconds is fixed-width %016.6f. Every data
file goes through ``_write_csv``, the only CSV writer in the package, and
each subcommand builds its columns next to the file name. Threads
only ever parallelize a list of independent experiments (each with its
own derived seed), so results do not depend on the thread count.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import numpy as np

from ergolab.bsde import (BasisDegeneracyError, solve_finite_bsde,
                          z_from_gradient)
from ergolab.control import (AdmissibilityError, ControlConfigurationError,
                             ControlPolicy, evaluate_cost_ergodic,
                             evaluate_cost_finite, girsanov_reweighted_cost,
                             ocp_longtime)
from ergolab.coupling import (EllipticityError, LyapunovConstants,
                              build_lyapunov, simulate_reflection_coupling)
from ergolab.ebsde import (HorizonBudgetError, extract_ergodic,
                           extract_ergodic_vanishing, lambda_by_time_average)
from ergolab.ltb import ltb1_experiment, ltb2_experiment, ltb3_experiment
from ergolab.measure import (EmpiricalMeasure, MeasureFlow, invariant_measure,
                             moment)
from ergolab.model import (RUN_DEFAULTS, Scenario, ScenarioError, audit,
                           load_scenario, _parse_value)
from ergolab.sde import (BlowUpError, contraction_rate, derive_seed,
                         interacting_flow, iter_mv, _interacting_start,
                         _steps_for)

__all__ = ["RunManifest", "run", "main", "rerun_from_manifest",
           "SUBCOMMANDS", "OUT_ENV_VAR"]

SUBCOMMANDS = ("audit", "simulate", "invariant", "coupling", "bsde", "ebsde",
               "ltb1", "ltb2", "ltb3", "control", "report")
# these read the drift at t = 0, so they refuse a drift that reads t
_TIME_HOMOGENEOUS = ("ebsde", "ltb1", "ltb2", "ltb3", "control")
OUT_ENV_VAR = "ERGOLAB_OUT"
DEFAULT_SEED = 42

_BLOWUP_ERRORS = (FloatingPointError, OverflowError, ZeroDivisionError,
                  BasisDegeneracyError, BlowUpError, EllipticityError,
                  HorizonBudgetError)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the contract reserves 2 for failed
    checks, so remap through an exception."""

    def error(self, message):
        raise _UsageError(message)


def _version() -> str:
    try:
        return metadata.version("ergolab")
    except metadata.PackageNotFoundError:
        return "0.0.0+untracked"


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return "%.17g" % value
    if isinstance(value, (list, tuple, np.ndarray)):
        return " ".join(_fmt(v) for v in value)
    return str(value)


def _write_kv(path: Path, entries: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, value in entries.items():
            fh.write(f"{key}={_fmt(value)}\n")


def _write_csv(path: Path, columns: dict, comment: str | None = None) -> None:
    """One header line of column names, then one row per entry; an
    optional ``# comment`` line comes first."""
    names = list(columns)
    arrays = [np.atleast_1d(np.asarray(columns[c])) for c in names]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        fh.write(",".join(names) + "\n")
        for row in zip(*arrays):
            fh.write(",".join(_fmt(v) for v in row) + "\n")


@dataclass
class RunManifest:
    """Everything needed to reproduce one run: scenario, subcommand,
    resolved parameters, seed, and the files the run produced."""

    subcommand: str
    scenario: str
    seed: int
    outdir: str
    version: str = field(default_factory=_version)
    params: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)
    rng_streams: dict = field(default_factory=dict)
    wall_seconds: float = 0.0

    def write(self, path: Path) -> None:
        entries = {"subcommand": self.subcommand, "scenario": self.scenario,
                   "seed": self.seed, "out": self.outdir,
                   "version": self.version,
                   # fixed width, so the manifest's size does not vary
                   # with the run's timing
                   "wall_seconds": "%016.6f" % self.wall_seconds}
        for key in sorted(self.params):
            entries[f"param.{key}"] = self.params[key]
        for name in sorted(self.rng_streams):
            entries[f"rng.{name}"] = self.rng_streams[name]
        for i, name in enumerate(self.outputs):
            entries[f"output.{i}"] = name
        _write_kv(path, entries)

    @classmethod
    def read(cls, path) -> "RunManifest":
        manifest = cls(subcommand="", scenario="", seed=DEFAULT_SEED,
                       outdir="", version="")
        with open(path, "r", encoding="utf-8") as fh:
            for raw in fh:
                raw = raw.strip()
                if not raw or raw.startswith("#"):
                    continue
                key, _, value = raw.partition("=")
                if key == "subcommand":
                    manifest.subcommand = value
                elif key == "scenario":
                    manifest.scenario = value
                elif key == "seed":
                    manifest.seed = int(value)
                elif key == "out":
                    manifest.outdir = value
                elif key == "version":
                    manifest.version = value
                elif key == "wall_seconds":
                    manifest.wall_seconds = float(value)
                elif key.startswith("param."):
                    manifest.params[key[6:]] = value
                elif key.startswith("rng."):
                    manifest.rng_streams[key[4:]] = value
                elif key.startswith("output."):
                    manifest.outputs.append(value)
        return manifest


def _as_floats(value) -> tuple:
    if isinstance(value, str):
        value = value.split()
    if np.isscalar(value):
        value = [value]
    return tuple(float(v) for v in value)


# the type a run key takes where RUN_DEFAULTS does not show it: seed and
# threads have no entry there, and the rest default to None somewhere
_KEY_TYPES = {"degree": int, "seed": int, "threads": int, "r_max": float,
              "x0_prime": float, "t_burn": float, "delta": float,
              "lam": float, "t_long": float}


def _coerce(key: str, value, default):
    """A [run] or --set value as the int or float its key takes; a key
    that takes neither (a list, a path) keeps its value. A value that is
    not a number, or not a whole one for an int, raises ValueError naming
    the key."""
    kind = _KEY_TYPES.get(key, type(default))
    if kind not in (int, float):
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or (kind is int and isinstance(value, float)
                and not value.is_integer()):
        raise ValueError(f"run key {key!r} needs "
                         f"{'an integer' if kind is int else 'a number'}, "
                         f"got {value!r}")
    return kind(value)


def _resolve(scenario: Scenario | None, args, defaults: dict) -> dict:
    """defaults < scenario [run] < --flag/--set overrides. A --particles,
    --dt or --horizon flag that the subcommand does not take is a usage
    error. A scenario [run] key that it does not take is left out with a
    note on stderr, since one scenario file may serve several subcommands."""
    params = dict(defaults)
    if scenario is not None:
        for key, value in scenario.run.items():
            if key not in params and key not in ("seed", "threads"):
                print(f"ergolab: note: [run] key {key!r} does not apply to "
                      f"{args.subcommand}; ignored", file=sys.stderr)
                continue
            try:
                params[key] = _coerce(key, value, defaults.get(key))
            except ValueError as exc:
                raise ScenarioError(str(exc), scenario.source,
                                    *scenario.run_meta[key]) from None
    for key in ("dt", "horizon", "particles", "seed", "threads"):
        value = getattr(args, key, None)
        if value is None:
            continue
        if key not in params and key not in ("seed", "threads"):
            raise _UsageError(
                f"--{key} does not apply to {args.subcommand}")
        params[key] = value
    for item in args.set or []:
        key, eq, value = item.partition("=")
        if not eq:
            raise _UsageError(f"--set needs key=value, got {item!r}")
        key = key.strip().lower()
        if key not in params and key not in ("seed", "threads"):
            raise _UsageError(f"unknown parameter {key!r} for this subcommand")
        params[key] = _coerce(key, _parse_value(value.strip()),
                              defaults.get(key))
    params.setdefault("seed", DEFAULT_SEED)
    params["threads"] = max(params.get("threads", 1), 1)
    return params


def _require_finite(label: str, *values) -> None:
    for v in values:
        arr = np.asarray(v, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise FloatingPointError(f"{label} produced non-finite values")


# ---------------------------------------------------------------------------
# subcommand pipelines: each returns (ok, params, outputs, rng_streams)

def _cmd_audit(scenario, params, outdir):
    spec = scenario.spec
    rep = audit(spec, n_samples=int(params["particles"]),
                seed=params["seed"])
    names = sorted(rep.checks)
    _write_csv(outdir / "audit_checks.csv", {
        "check": names,
        "verdict": [rep.checks[n].verdict for n in names],
        "worst": [rep.checks[n].worst if rep.checks[n].worst is not None
                  else math.nan for n in names],
    })
    report = {"regime": rep.regime, "passed": rep.passed, "lambda": rep.lam,
              "n_samples": rep.n_samples}
    outputs = ["audit_checks.csv", "audit.report"]
    if spec.regime == "weak":
        constants = LyapunovConstants.from_spec(spec)
        r_max = params["r_max"]
        if r_max is None:
            r_max = max(4.0 * constants.r_ball, 8.0)
        table = build_lyapunov(constants, r_max=float(r_max),
                               grid=int(params["grid_nodes"]))
        c = table.constants
        # the table is extended precision and _fmt prints a longdouble
        # through str(), so write its float64 rounding as %.17g
        _write_csv(outdir / "audit_lyapunov.csv",
                   {name: np.asarray(getattr(table, name), dtype=float)
                    for name in ("r", "phi", "dphi", "d2phi")},
                   comment=f"eta={c.eta:.17g} m_b={c.m_b:.17g} "
                           f"k_b_x={c.k_b_x:.17g} r_ball={c.r_ball:.17g} "
                           f"k_s_x={c.k_s_x:.17g} sigma0={c.sigma0:.17g}")
        report["lyapunov_margin"] = table.identity_margin()
        outputs.insert(1, "audit_lyapunov.csv")
    _write_kv(outdir / "audit.report", report)
    return rep.passed, outputs, {}


def _cmd_simulate(scenario, params, outdir):
    spec = scenario.spec
    seed = params["seed"]
    theta = EmpiricalMeasure.dirac(params["x0"], dim=spec.dim)
    n = int(params["particles"])
    dt, T = params["dt"], params["horizon"]
    n_steps = _steps_for(T, dt)
    every = max(int(params["flow_every"]), 1)
    rows, terminal = [], []

    def tap(k, t, x):
        # the moments of every flow_every-th node and the terminal, as the
        # run goes; only the terminal cloud is kept
        if k % every == 0 or k == n_steps:
            r2 = (x ** 2).sum(axis=1)
            rows.append([t, *(x[:, j].mean() for j in range(spec.dim)),
                         r2.mean(), (r2 ** 2).mean()])
        if k == n_steps:
            terminal.append(EmpiricalMeasure(x.copy()))

    fit = None
    if params["x0_prime"] is None:
        x0 = _interacting_start(spec, theta, n, seed)
        for k, t, x, _, _ in iter_mv(spec, x0, dt, n_steps, seed):
            tap(k, t, x)
    else:
        # the coupled run steps theta's system once and feeds it to the tap
        theta_p = EmpiricalMeasure.dirac(params["x0_prime"], dim=spec.dim)
        fit = contraction_rate(spec, theta, theta_p, dt=dt, T=T, n=n,
                               seed=seed, p=int(params["p"]), tap=tap)
    cols = dict(zip(["t", *(f"m1.{j}" for j in range(spec.dim)), "m2", "m4"],
                    np.array(rows).T))
    _write_csv(outdir / "simulate_moments.csv", cols)
    final = terminal[0]
    report = {"t_final": cols["t"][-1], "m1": final.m1(), "m2": final.m2(),
              "m4": moment(final, 4.0)}
    outputs = ["simulate_moments.csv", "simulate.report"]
    ok = True
    if fit is not None:
        _write_csv(outdir / "simulate_w2.csv",
                   {"t": fit.times, "w": fit.w_values})
        report["contraction_rate"] = fit.rate
        report["contraction_note"] = fit.note or "-"
        outputs.insert(1, "simulate_w2.csv")
        ok = math.isfinite(fit.rate) and fit.rate > 0.0
    _write_kv(outdir / "simulate.report", report)
    return ok, outputs, {"paths": seed}


def _cmd_invariant(scenario, params, outdir):
    spec = scenario.spec
    inv = invariant_measure(spec, n_particles=int(params["particles"]),
                            dt=params["dt"], t_burn=params["t_burn"],
                            seed=params["seed"])
    _require_finite("invariant", inv.measure.points)
    cols = {f"x.{j}": inv.measure.points[:, j] for j in range(spec.dim)}
    _write_csv(outdir / "invariant_atoms.csv", cols)
    _write_kv(outdir / "invariant.report", {
        "t_burn": inv.t_burn, "diagnostic_w2": inv.diagnostic_w2,
        "tolerance": inv.tolerance, "stationary": inv.stationary,
        "m1": inv.measure.m1(), "m2": inv.measure.m2()})
    return True, ["invariant_atoms.csv", "invariant.report"], {}


def _cmd_coupling(scenario, params, outdir):
    spec = scenario.spec
    seed = params["seed"]
    x0 = np.full(spec.dim, float(params["x0"]))
    x0p = x0 + float(params["gap"])
    T = params["horizon"]
    flow, flow_p = (interacting_flow(
        spec, EmpiricalMeasure.dirac(start), dt=params["dt"], T=T,
        n_particles=int(params["particles"]), seed=derive_seed(seed, tag))
        for start, tag in ((x0, 7), (x0p, 8)))
    run_ = simulate_reflection_coupling(
        spec, flow, flow_p, x0, x0p, dt=params["dt"], T=T,
        n_paths=int(params["paths"]), seed=derive_seed(seed, 9),
        delta=params["delta"])
    _require_finite("coupling", run_.mean_radius, run_.se_radius)
    _write_csv(outdir / "coupling_radius.csv",
               {"t": run_.times, "mean_r": run_.mean_radius,
                "se_r": run_.se_radius})
    ok = math.isfinite(run_.rate) and run_.rate > 0.0
    _write_kv(outdir / "coupling.report", {
        "rate": run_.rate, "window_start": run_.rate_window_start,
        "delta": run_.delta, "paths": int(params["paths"]),
        "note": run_.note or "-", "passed": ok})
    return ok, ["coupling_radius.csv", "coupling.report"], {
        "flow": derive_seed(seed, 7), "flow_prime": derive_seed(seed, 8),
        "paths": derive_seed(seed, 9)}


def _cmd_bsde(scenario, params, outdir):
    spec = scenario.spec
    seed = params["seed"]
    T = params["horizon"]
    # the decoupled background: the point-start interacting flow
    flow = interacting_flow(spec,
                            EmpiricalMeasure.dirac(params["x0"], dim=spec.dim),
                            dt=params["dt"], T=T,
                            n_particles=int(params["particles"]),
                            seed=derive_seed(seed, 7))
    x0 = np.full(spec.dim, float(params["x0"]))
    sol = solve_finite_bsde(spec, flow, x0, T=T, dt=params["dt"],
                            n_particles=int(params["particles"]),
                            degree=params["degree"],
                            seed=derive_seed(seed, 3))
    _require_finite("bsde", sol.y0, sol.z0)
    zg = z_from_gradient(sol, spec, flow, 0.0, x0)
    u = sol.u
    m, n_basis, out_dim = u.coeffs.shape
    surface = {"node": np.arange(m), "time": u.times}
    surface.update({f"c{i}_{j}": u.coeffs[:, i, j]
                    for i in range(n_basis) for j in range(out_dim)})
    for name, per_dim in (("center", u.center), ("scale", u.scale)):
        surface.update({f"{name}{j}": np.full(m, v)
                        for j, v in enumerate(per_dim)})
    _write_csv(outdir / "bsde_surface.csv", surface,
               comment=f"degree={u.degree} dim={u.dim} out_dim={out_dim} "
                       f"offset={u.offset:.17g}")
    _write_csv(outdir / "bsde_residuals.csv",
               {"t": u.times, "residual": sol.residuals})
    # the regressed z0 and the gradient representation read the same
    # surface two ways; they must agree to 5 % relative. Each node's
    # projection residual is error the sweep adds, so their sum bounds
    # what the basis costs y0; it must stay under half of 1 + |y0|
    residual_sum = float(sol.residuals.sum())
    ok = bool(np.linalg.norm(sol.z0 - zg[0])
              <= 0.05 * (1.0 + np.linalg.norm(sol.z0))
              and residual_sum <= 0.5 * (1.0 + abs(sol.y0)))
    rep = sol.report()
    rep["z0_gradient"] = zg[0]
    rep["residual_sum"] = residual_sum
    rep["passed"] = ok
    _write_kv(outdir / "bsde.report", rep)
    return ok, \
        ["bsde_surface.csv", "bsde_residuals.csv", "bsde.report"], \
        {"flow": derive_seed(seed, 7), "solve": derive_seed(seed, 3)}


def _cmd_ebsde(scenario, params, outdir):
    spec = scenario.spec
    seed = params["seed"]
    erg = extract_ergodic_vanishing(
        spec, n_particles=int(params["particles"]), dt=params["dt"],
        degree=params["degree"], alphas=_as_floats(params["alphas"]),
        seed=seed, t_burn=params["t_burn"])
    _require_finite("ebsde", erg.lambda_)
    trace = erg.trace
    _write_csv(outdir / "ebsde_trace.csv", {
        "alpha": [a.alpha for a in trace],
        "t_alpha": [a.t_alpha for a in trace],
        "lambda_candidate": [a.lambda_candidate for a in trace],
        "anchor_value": [a.anchor_value for a in trace],
        "truncation_bound": [a.truncation_bound for a in trace],
        "growth_estimate": [a.growth_estimate for a in trace],
    })
    report = erg.report()
    ok = erg.stable
    if params["t_long"] is not None:
        avg = lambda_by_time_average(spec, t_long=float(params["t_long"]),
                                     dt=params["dt"],
                                     n_particles=int(params["particles"]),
                                     seed=derive_seed(seed, 21),
                                     zeta=erg.zeta_bar)
        report["time_average"] = avg.value
        report["time_average_se"] = avg.se
        agreement = abs(avg.value - erg.lambda_)
        report["agreement"] = agreement
        ok = ok and agreement <= 0.05
    report["passed"] = ok
    _write_kv(outdir / "ebsde.report", report)
    return ok, ["ebsde_trace.csv", "ebsde.report"], {"extract": seed}


def _fit_files(fit, outdir, stem):
    _write_csv(outdir / f"{stem}_residuals.csv",
               {"T": fit.t_grid, "observed": fit.observed,
                "fitted": fit.predicted()})
    rep = fit.report()
    rep["passed"] = fit.passes()
    _write_kv(outdir / f"{stem}.report", rep)
    return [f"{stem}_residuals.csv", f"{stem}.report"]


def _ergodic(spec, params):
    """The ergodic triple that ltb1, ltb2, ltb3 and control read lambda
    from: the fixed point at the run's dt, particles and degree, on child
    seed 33."""
    return extract_ergodic(spec, n_particles=int(params["particles"]),
                           dt=params["dt"], degree=params["degree"],
                           seed=derive_seed(params["seed"], 33))


def _cmd_ltb1(scenario, params, outdir):
    spec = scenario.spec
    seed = params["seed"]
    lam = params["lam"]
    if lam is None:
        lam = _ergodic(spec, params).lambda_
    fit = ltb1_experiment(spec, lam=float(lam),
                          t_grid=_as_floats(params["t_grid"]),
                          x0=float(params["x0"]), dt=params["dt"],
                          n_particles=int(params["particles"]),
                          degree=params["degree"], seed=seed)
    _require_finite("ltb1", fit.observed)
    outputs = _fit_files(fit, outdir, "ltb1")
    return fit.passes(), outputs, {"ergodic": derive_seed(seed, 33),
                                   "solves": derive_seed(seed, 3)}


def _cmd_ltb2(scenario, params, outdir):
    spec = scenario.spec
    erg = _ergodic(spec, params)
    fit = ltb2_experiment(spec, erg, lam=params["lam"],
                          t_grid=_as_floats(params["t_grid"]),
                          x0=float(params["x0"]), dt=params["dt"],
                          n_particles=int(params["particles"]),
                          degree=params["degree"], seed=params["seed"])
    _require_finite("ltb2", fit.observed)
    outputs = _fit_files(fit, outdir, "ltb2")
    return fit.passes(), outputs, {"ergodic": derive_seed(params["seed"], 33)}


def _cmd_ltb3(scenario, params, outdir):
    spec = scenario.spec
    erg = _ergodic(spec, params)
    fit = ltb3_experiment(spec, erg, t_grid=_as_floats(params["t_grid"]),
                          x0=float(params["x0"]), dt=params["dt"],
                          n_particles=int(params["particles"]),
                          degree=params["degree"], seed=params["seed"])
    _require_finite("ltb3", fit.observed)
    outputs = _fit_files(fit, outdir, "ltb3")
    return fit.passes(), outputs, {"ergodic": derive_seed(params["seed"], 33)}


def _cmd_control(scenario, params, outdir):
    spec = scenario.spec
    if spec.control is None:
        raise _UsageError(
            f"scenario model {spec.name!r} declares no control set")
    seed = params["seed"]
    dt = params["dt"]
    n = int(params["particles"])
    T = float(params["horizon"])
    x0 = np.full(spec.dim, float(params["x0"]))

    erg = _ergodic(spec, params)
    flow = MeasureFlow.constant(erg.mu_star, 0.0, max(T, 1.0))
    sol = solve_finite_bsde(spec, flow, x0, T=T, dt=dt, n_particles=n,
                            degree=params["degree"],
                            seed=derive_seed(seed, 3))

    jobs = [("optimal", ControlPolicy.from_finite(spec.control, sol))]
    jobs.append(("zero", ControlPolicy.zero(spec.control)))
    rng = np.random.default_rng(derive_seed(seed, 77))
    for i in range(int(params["n_controls"])):
        a = rng.uniform(spec.control.lo, spec.control.hi)
        jobs.append((f"const{i}", ControlPolicy.constant_action(
            spec.control, a)))

    def evaluate(item):
        idx, (name, policy) = item
        return evaluate_cost_finite(spec, policy, x0, flow, T, dt, n,
                                    seed=derive_seed(seed, 100 + idx),
                                    benchmark=sol)

    with ThreadPoolExecutor(max_workers=params["threads"]) as pool:
        reports = list(pool.map(evaluate, enumerate(jobs)))

    ok = reports[0].verdict == "consistent"
    for rep in reports[1:]:
        ok = ok and rep.gap >= -3.0 * (rep.se + rep.benchmark_se)

    pol_bar = ControlPolicy.from_ergodic(spec.control, erg)
    rep_erg = evaluate_cost_ergodic(spec, pol_bar, x0, erg.mu_star,
                                    t_long=float(params["t_long"]), dt=dt,
                                    n_particles=n,
                                    seed=derive_seed(seed, 55),
                                    lam=erg.lambda_)
    ok = ok and abs(rep_erg.gap) <= 0.05

    small = ControlPolicy.constant_action(
        spec.control, 0.25 * (spec.control.lo + spec.control.hi)
        + 0.1 * (spec.control.hi - spec.control.lo))
    t_short = min(T, 1.0)
    # only j and se of this run are used, as the Girsanov benchmark, so it
    # needs no BSDE solve of its own at t_short
    direct = evaluate_cost_finite(spec, small, x0, flow, t_short, dt, n,
                                  seed=derive_seed(seed, 60), benchmark=sol.y0
                                  if t_short == T else math.nan)
    weighted = girsanov_reweighted_cost(spec, small, x0, flow, t_short, dt,
                                        n, seed=derive_seed(seed, 61),
                                        benchmark=direct.j,
                                        benchmark_se=direct.se)
    ok = ok and weighted.verdict == "consistent"

    names = [name for name, _ in jobs] + ["ergodic", "girsanov"]
    rows = reports + [rep_erg, weighted]
    _write_csv(outdir / "control_costs.csv", {
        "policy": names,
        "z_source": [r.z_source for r in rows],
        "j": [r.j for r in rows],
        "se": [r.se for r in rows],
        "benchmark": [r.benchmark for r in rows],
        "gap": [r.gap for r in rows],
        "verdict": [r.verdict for r in rows],
    })
    outputs = ["control_costs.csv", "control.report"]
    report = {"lambda": erg.lambda_, "y0": sol.y0,
              "j_optimal": reports[0].j, "gap_optimal": reports[0].gap,
              "j_ergodic": rep_erg.j, "gap_ergodic": rep_erg.gap,
              "girsanov_gap": weighted.gap}

    if params["t_grid"] is not None:
        ocp = ocp_longtime(spec, erg, ell_hat=float(params["ell"]),
                           x0=x0, t_grid=_as_floats(params["t_grid"]),
                           dt=dt, n_particles=n, degree=params["degree"],
                           seed=derive_seed(seed, 88))
        _write_csv(outdir / "control_ocp.csv", ocp.table)
        report.update({f"ocp_{k}": v for k, v in ocp.report().items()})
        outputs.insert(1, "control_ocp.csv")
        ok = ok and bool(np.all(ocp.table["a_gap"]
                                <= 0.5 * ocp.table["z_gap"] + 1e-12))
    report["passed"] = ok
    _write_kv(outdir / "control.report", report)
    return ok, outputs, {"ergodic": derive_seed(seed, 33),
                         "solve": derive_seed(seed, 3)}


def _cmd_report(scenario, params, outdir):
    """Aggregate a finished run directory: collect every key=value report
    under it and verify the manifest's output list is complete."""
    target = Path(params["run_dir"]) if params["run_dir"] else outdir
    manifest_path = target / "manifest"
    ok = True
    rows = {"file": [], "key": [], "value": []}
    if manifest_path.exists():
        manifest = RunManifest.read(manifest_path)
        for name in manifest.outputs:
            if not (target / name).exists():
                ok = False
                rows["file"].append("manifest")
                rows["key"].append("missing_output")
                rows["value"].append(name)
    for rep in sorted(target.glob("*.report")):
        with open(rep, "r", encoding="utf-8") as fh:
            for line in fh:
                key, eq, value = line.strip().partition("=")
                if eq:
                    rows["file"].append(rep.name)
                    rows["key"].append(key)
                    rows["value"].append(value)
                    if key == "passed" and value == "0":
                        ok = False
    _write_csv(outdir / "summary.csv", rows)
    _write_kv(outdir / "report.report",
              {"run_dir": str(target), "n_entries": len(rows["key"]),
               "passed": ok})
    return ok, ["summary.csv", "report.report"], {}


_DISPATCH = {
    "audit": _cmd_audit, "simulate": _cmd_simulate,
    "invariant": _cmd_invariant, "coupling": _cmd_coupling,
    "bsde": _cmd_bsde, "ebsde": _cmd_ebsde, "ltb1": _cmd_ltb1,
    "ltb2": _cmd_ltb2, "ltb3": _cmd_ltb3, "control": _cmd_control,
    "report": _cmd_report,
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="ergolab",
                     description="batch experiment runner")
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    for name in SUBCOMMANDS:
        p = sub.add_parser(name, add_help=True)
        p.add_argument("--scenario", type=str,
                       required=(name != "report"))
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--particles", type=int, default=None)
        p.add_argument("--dt", type=float, default=None)
        p.add_argument("--horizon", type=float, default=None)
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override any run parameter")
        if name == "report":
            p.add_argument("--run-dir", type=str, default=None)
    return parser


def run(argv=None) -> int:
    """Execute one subcommand; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"ergolab: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    if not getattr(args, "subcommand", None):
        print("ergolab: missing subcommand", file=sys.stderr)
        return 1

    started = time.monotonic()
    try:
        scenario = None
        if getattr(args, "scenario", None):
            scenario = load_scenario(args.scenario)
            if scenario.spec.reads_t and args.subcommand in _TIME_HOMOGENEOUS:
                raise ScenarioError(
                    f"drift reads t, but {args.subcommand} needs a "
                    "time-homogeneous drift", scenario.source,
                    *scenario.model_meta["drift"])
        defaults = dict(RUN_DEFAULTS[args.subcommand])
        if args.subcommand == "report" and getattr(args, "run_dir", None):
            defaults["run_dir"] = args.run_dir
        params = _resolve(scenario, args, defaults)

        outdir = Path(args.out or os.environ.get(OUT_ENV_VAR)
                      or Path("ergolab-out") / args.subcommand)
        outdir.mkdir(parents=True, exist_ok=True)

        ok, outputs, streams = _DISPATCH[args.subcommand](
            scenario, params, outdir)
    except _BLOWUP_ERRORS as exc:
        print(f"ergolab: numeric blow-up: {exc}", file=sys.stderr)
        return 3
    except (_UsageError, ScenarioError, ControlConfigurationError,
            AdmissibilityError, ValueError) as exc:
        print(f"ergolab: {exc}", file=sys.stderr)
        return 1

    manifest = RunManifest(
        subcommand=args.subcommand,
        scenario=getattr(args, "scenario", None) or "-",
        seed=params["seed"], outdir=str(outdir),
        params={k: v for k, v in params.items() if v is not None},
        outputs=outputs + ["manifest"], rng_streams=streams,
        wall_seconds=time.monotonic() - started)
    manifest.write(outdir / "manifest")
    return 0 if ok else 2


def rerun_from_manifest(manifest_path, out) -> int:
    """Replay a run with the manifest's resolved parameters; with the
    same package version the CSV outputs are byte-identical."""
    manifest = RunManifest.read(manifest_path)
    argv = [manifest.subcommand, "--out", str(out),
            "--seed", str(manifest.seed)]
    if manifest.scenario != "-":
        argv += ["--scenario", manifest.scenario]
    for key, value in manifest.params.items():
        if key in ("seed", "threads"):
            continue
        argv += ["--set", f"{key}={value}"]
    return run(argv)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
