"""Partial control pipeline: Hamiltonian minimization, feedback policies,
controlled-path cost evaluation, and the long-horizon cost comparison.

Only the tagged particle is controlled; the measure flow is always the
uncontrolled one. Controlled dynamics run with the shifted drift
b + sigma R a (equal in law to the change-of-measure formulation, without
its exponentially growing weight variance); the reweighting estimator is
kept as a small-horizon cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ergolab.bsde import BsdeSolution, RegressionFunction, solve_finite_bsde
from ergolab.ebsde import ErgodicSolution, _tail_average
from ergolab.ltb import (DecayFit, _fit_exponential, _horizon_run,
                         _noise_floor)
from ergolab.measure import EmpiricalMeasure, MeasureFlow
from ergolab.model import ControlSpec
from ergolab.sde import (DriftShift, derive_seed, interacting_flow, iter_mv,
                         _steps_for)

__all__ = [
    "ControlConfigurationError",
    "AdmissibilityError",
    "Z_SOURCES",
    "ControlPolicy",
    "CostReport",
    "OcpResult",
    "hamiltonian",
    "evaluate_cost_finite",
    "evaluate_cost_ergodic",
    "girsanov_reweighted_cost",
    "ocp_longtime",
]

Z_SOURCES = ("finite", "ergodic", "constant", "zero")


class ControlConfigurationError(ValueError):
    """The model declares no control set, or the policy is incomplete."""


class AdmissibilityError(RuntimeError):
    """A policy emitted an action outside the control box."""


def _coordinate_golden(objective, lo: np.ndarray, hi: np.ndarray,
                       a: np.ndarray, coord: int) -> np.ndarray:
    """Golden-section minimization of one action coordinate to a bracket
    of 1e-10, vectorized over samples, restarted on three subintervals of
    the box edge."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    tol = 1e-10
    n = a.shape[0]
    best_val = None
    best_a = a[:, coord].copy()
    edges = np.linspace(lo[coord], hi[coord], 4)
    for j in range(3):
        left = np.full(n, edges[j])
        right = np.full(n, edges[j + 1])
        span = float(right[0] - left[0])
        iters = max(int(math.ceil(math.log(tol / max(span, tol))
                                  / math.log(inv_phi))), 1)
        for _ in range(iters):
            x1 = right - inv_phi * (right - left)
            x2 = left + inv_phi * (right - left)
            a[:, coord] = x1
            f1 = objective(a)
            a[:, coord] = x2
            f2 = objective(a)
            go_left = f1 < f2
            right = np.where(go_left, x2, right)
            left = np.where(go_left, left, x1)
        mid = 0.5 * (left + right)
        a[:, coord] = mid
        val = objective(a)
        if best_val is None:
            best_val, best_a = val.copy(), mid.copy()
        else:
            better = val < best_val
            best_val = np.where(better, val, best_val)
            best_a = np.where(better, mid, best_a)
    a[:, coord] = best_a
    return a


def _argmin_actions(control: ControlSpec, x: np.ndarray,
                    mu: EmpiricalMeasure, z: np.ndarray) -> np.ndarray:
    """Minimizer of a -> L(x, mu, a) + (zR) . a over the box."""
    zr = z @ control.r_matrix
    if control.quadratic_action:
        return np.clip(-0.5 * zr, control.lo, control.hi)

    def objective(a):
        return (np.asarray(control.running_cost(x, mu, a), dtype=float)
                + np.sum(zr * a, axis=-1))

    a = np.broadcast_to(0.5 * (control.lo + control.hi),
                        (x.shape[0], control.n_actions)).copy()
    for _ in range(2):
        for i in range(control.n_actions):
            a = _coordinate_golden(objective, control.lo, control.hi, a, i)
    return a


def _control_of(spec) -> ControlSpec:
    if spec.control is None:
        raise ControlConfigurationError(
            f"model {spec.name!r} declares no control set")
    return spec.control


def hamiltonian(spec, x, mu: EmpiricalMeasure, z) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise minimum of L(x, mu, a) + (zR) . a over the control box,
    with its minimizer. Closed form when the action cost is |a|^2,
    golden-section coordinate descent otherwise."""
    control = _control_of(spec)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    z = np.atleast_2d(np.asarray(z, dtype=float))
    if x.shape[0] != z.shape[0]:
        n = max(x.shape[0], z.shape[0])
        x = np.broadcast_to(x, (n, x.shape[1]))
        z = np.broadcast_to(z, (n, z.shape[1]))
    astar = _argmin_actions(control, x, mu, z)
    zr = z @ control.r_matrix
    value = (np.asarray(control.running_cost(x, mu, astar), dtype=float)
             + np.sum(zr * astar, axis=-1))
    return value, astar


@dataclass(frozen=True, eq=False)
class ControlPolicy:
    """Feedback map: z-source -> Hamiltonian minimizer (or a pinned
    constant action). Every emitted action lies in the box."""

    control: ControlSpec
    z_source: str
    zeta: RegressionFunction | None = None
    a_const: np.ndarray | None = None

    def __post_init__(self):
        if self.z_source not in Z_SOURCES:
            raise ControlConfigurationError(
                f"z_source must be one of {Z_SOURCES}, got {self.z_source!r}")
        if self.z_source in ("finite", "ergodic") and self.zeta is None:
            raise ControlConfigurationError(
                f"z_source {self.z_source!r} needs a zeta field")
        if self.a_const is not None:
            a = np.asarray(self.a_const, dtype=float).reshape(-1)
            if np.any(a < self.control.lo) or np.any(a > self.control.hi):
                raise AdmissibilityError(
                    f"constant action {a} is outside the control box")
            object.__setattr__(self, "a_const", a)

    @classmethod
    def from_finite(cls, control: ControlSpec,
                    sol: BsdeSolution) -> "ControlPolicy":
        return cls(control=control, z_source="finite", zeta=sol.zeta)

    @classmethod
    def from_ergodic(cls, control: ControlSpec,
                     erg: ErgodicSolution) -> "ControlPolicy":
        return cls(control=control, z_source="ergodic", zeta=erg.zeta_bar)

    @classmethod
    def constant_action(cls, control: ControlSpec, a) -> "ControlPolicy":
        return cls(control=control, z_source="constant", a_const=a)

    @classmethod
    def zero(cls, control: ControlSpec) -> "ControlPolicy":
        return cls(control=control, z_source="zero")

    def z_values(self, t: float, x: np.ndarray, dim: int) -> np.ndarray:
        if self.z_source in ("zero", "constant"):
            return np.zeros((x.shape[0], dim))
        return np.asarray(self.zeta(t, x)).reshape(x.shape[0], -1)

    def actions(self, t: float, x: np.ndarray,
                mu: EmpiricalMeasure) -> np.ndarray:
        x = np.atleast_2d(x)
        if self.a_const is not None:
            a = np.broadcast_to(self.a_const,
                                (x.shape[0], self.control.n_actions))
        else:
            z = self.z_values(t, x, x.shape[1])
            a = _argmin_actions(self.control, x, mu, z)
        if np.any(a < self.control.lo - 1e-12) or \
                np.any(a > self.control.hi + 1e-12):
            raise AdmissibilityError(
                "policy emitted an action outside the control box")
        return np.clip(a, self.control.lo, self.control.hi)


@dataclass(frozen=True, eq=False)
class CostReport:
    """Monte Carlo cost of one policy against its benchmark."""

    kind: str  # finite | ergodic
    j: float
    se: float
    benchmark: float
    benchmark_se: float
    gap: float
    verdict: str  # consistent | above | below
    horizon: float
    n_particles: int
    seed: int
    z_source: str

    def report(self) -> dict:
        return {"kind": self.kind, "j": self.j, "se": self.se,
                "benchmark": self.benchmark,
                "benchmark_se": self.benchmark_se, "gap": self.gap,
                "verdict": self.verdict, "horizon": self.horizon,
                "n_particles": self.n_particles, "seed": self.seed,
                "z_source": self.z_source}


def _verdict(gap: float, tol: float) -> str:
    if abs(gap) <= tol:
        return "consistent"
    return "above" if gap > 0 else "below"


def _resolve_flow(spec, theta, t_max: float, dt: float, n_particles: int,
                  seed: int) -> MeasureFlow:
    if isinstance(theta, MeasureFlow):
        return theta
    if theta is None:
        theta = EmpiricalMeasure.dirac(np.zeros(spec.dim))
    return interacting_flow(spec, theta, dt=dt, T=t_max,
                            n_particles=n_particles, seed=seed)


def _policy_shift(spec, policy: ControlPolicy) -> DriftShift:
    r = spec.control.r_matrix

    def beta(t, x, mu):
        return policy.actions(t, x, mu) @ r.T

    return DriftShift(beta, bound=spec.control.action_sup_norm())


def evaluate_cost_finite(spec, policy: ControlPolicy, x0, theta, T: float,
                         dt: float, n_particles: int, seed: int = 0,
                         benchmark=None,
                         benchmark_se: float = 0.0) -> CostReport:
    """Monte Carlo J^T = E[int L dt + g] under the policy's feedback,
    from a point start, against the uncontrolled flow.

    ``benchmark`` is the matching finite-horizon value: a BsdeSolution,
    a float, or None to solve one here (Hamiltonian driver assumed on
    the spec, as in the control presets).
    """
    _control_of(spec)
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    n_steps = _steps_for(T, dt)
    flow = _resolve_flow(spec, theta, T, dt, n_particles,
                         derive_seed(seed, 7))
    if benchmark is None:
        benchmark = solve_finite_bsde(spec, flow, x0, T=T, dt=dt,
                                      n_particles=n_particles,
                                      seed=derive_seed(seed, 3))
    bench_y0 = benchmark.y0 if isinstance(benchmark, BsdeSolution) \
        else float(benchmark)

    shift = _policy_shift(spec, policy)
    states = np.tile(x0, (n_particles, 1))
    costs = np.zeros(n_particles)
    for k, t, x, mu, _ in iter_mv(spec, states, dt, n_steps, seed, flow=flow,
                                  shift=shift):
        if k < n_steps:
            a = policy.actions(t, x, mu)
            costs += dt * np.asarray(
                spec.control.running_cost(x, mu, a), dtype=float)
        else:
            costs += np.asarray(spec.terminal(x, mu), dtype=float)
    j = float(costs.mean())
    se = float(costs.std(ddof=1) / math.sqrt(n_particles))
    gap = j - bench_y0
    return CostReport(kind="finite", j=j, se=se, benchmark=bench_y0,
                      benchmark_se=benchmark_se, gap=gap,
                      verdict=_verdict(gap, 3.0 * (se + benchmark_se)),
                      horizon=T, n_particles=n_particles, seed=seed,
                      z_source=policy.z_source)


def girsanov_reweighted_cost(spec, policy: ControlPolicy, x0, theta,
                             T: float, dt: float, n_particles: int,
                             seed: int = 0, benchmark: float = math.nan,
                             benchmark_se: float = 0.0) -> CostReport:
    """J^T by reweighting the uncontrolled simulation with the exact
    change-of-measure density exp(-1/2 int |Ra|^2 + int (Ra)' dW), the
    actions read along the uncontrolled path. Small horizons only: the
    weight variance grows exponentially in T."""
    _control_of(spec)
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    n_steps = _steps_for(T, dt)
    flow = _resolve_flow(spec, theta, T, dt, n_particles,
                         derive_seed(seed, 7))
    r = spec.control.r_matrix
    states = np.tile(x0, (n_particles, 1))
    costs = np.zeros(n_particles)
    log_rho = np.zeros(n_particles)
    ra = None
    for k, t, x, mu, dw in iter_mv(spec, states, dt, n_steps, seed, flow=flow):
        # dw is step k - 1's increment: close that step's density term
        if ra is not None:
            log_rho += np.sum(ra * dw, axis=1) \
                - 0.5 * dt * np.sum(ra * ra, axis=1)
        if k < n_steps:
            a = policy.actions(t, x, mu)
            ra = a @ r.T
            costs += dt * np.asarray(
                spec.control.running_cost(x, mu, a), dtype=float)
        else:
            costs += np.asarray(spec.terminal(x, mu), dtype=float)
    weighted = np.exp(log_rho) * costs
    j = float(weighted.mean())
    se = float(weighted.std(ddof=1) / math.sqrt(n_particles))
    gap = j - benchmark if math.isfinite(benchmark) else math.nan
    verdict = _verdict(gap, 3.0 * (se + benchmark_se)) \
        if math.isfinite(benchmark) else "consistent"
    return CostReport(kind="finite", j=j, se=se, benchmark=benchmark,
                      benchmark_se=benchmark_se, gap=gap, verdict=verdict,
                      horizon=T, n_particles=n_particles, seed=seed,
                      z_source=policy.z_source)


def evaluate_cost_ergodic(spec, policy: ControlPolicy, x0, mu_star,
                          t_long: float, dt: float, n_particles: int,
                          seed: int = 0, lam: float = math.nan,
                          lam_se: float = 0.0,
                          theta=None) -> CostReport:
    """Long-run average running cost (1/T) E[int L dt] under the policy,
    tail-window averaged, against the extracted long-run value."""
    _control_of(spec)
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if theta is not None or mu_star is None:
        flow = _resolve_flow(spec, theta, t_long, dt, n_particles,
                             derive_seed(seed, 7))
    else:
        flow = MeasureFlow.constant(mu_star, 0.0, t_long)

    def cost(t, x, mu):
        return float(np.mean(spec.control.running_cost(
            x, mu, policy.actions(t, x, mu))))

    shift = _policy_shift(spec, policy)
    states = np.tile(x0, (n_particles, 1))
    j, se, _ = _tail_average(
        lambda n_steps: iter_mv(spec, states, dt, n_steps, seed, flow=flow,
                                shift=shift),
        t_long, dt, spec.contraction_rate_bound(), cost)
    gap = j - lam if math.isfinite(lam) else math.nan
    verdict = _verdict(gap, 3.0 * (se + lam_se)) if math.isfinite(lam) \
        else "consistent"
    return CostReport(kind="ergodic", j=j, se=se, benchmark=lam,
                      benchmark_se=lam_se, gap=gap, verdict=verdict,
                      horizon=t_long, n_particles=n_particles, seed=seed,
                      z_source=policy.z_source)


@dataclass(frozen=True, eq=False)
class OcpResult:
    """Long-horizon comparison: cost residual decay and feedback gap
    decay, with the per-horizon table."""

    cost_fit: DecayFit
    feedback_fit: DecayFit
    table: dict[str, np.ndarray]
    lam: float
    ell_hat: float

    def report(self) -> dict:
        out = {"lambda": self.lam, "ell_hat": self.ell_hat,
               "cost_rate": self.cost_fit.rate,
               "cost_indeterminate": int(self.cost_fit.indeterminate),
               "feedback_rate": self.feedback_fit.rate,
               "feedback_indeterminate":
                   int(self.feedback_fit.indeterminate)}
        return out


def ocp_longtime(spec, erg: ErgodicSolution, ell_hat: float,
                 lam: float | None = None, x0=1.0,
                 t_grid=(2.0, 4.0, 6.0, 8.0), dt: float = 0.01,
                 n_particles: int = 10_000, degree: int | None = None,
                 seed: int = 0) -> OcpResult:
    """Cost of the horizon-T optimal feedback against the long-run
    expansion lam T + u_bar(x0) + ell, and the feedback gap at time zero
    against the stationary feedback, each fit to an exponential."""
    _control_of(spec)
    if lam is None:
        lam = erg.lambda_
    t_grid = np.asarray(sorted(t_grid), dtype=float)
    x0v = np.asarray(x0, dtype=float).reshape(-1)
    flow, sols = _horizon_run(spec, None, erg.mu_star, x0v, t_grid, dt,
                              n_particles, degree, seed)
    mu0 = flow.at_time(0.0)
    ubar_x0 = float(erg.u_bar(0.0, x0v)[0])

    pol_bar = ControlPolicy.from_ergodic(spec.control, erg)
    a_bar = pol_bar.actions(0.0, x0v[None, :], mu0)[0]
    z_bar = np.asarray(erg.zeta_bar.eval_node(0, x0v)).reshape(-1)

    def a_readout(s, s_flow):
        return float(np.linalg.norm(ControlPolicy.from_finite(
            spec.control, s).actions(0.0, x0v[None, :],
                                     s_flow.at_time(0.0))[0] - a_bar))

    costs = [evaluate_cost_finite(
        spec, ControlPolicy.from_finite(spec.control, sol), x0v, flow,
        float(T), dt, n_particles, seed=derive_seed(seed, 5), benchmark=sol)
        for T, sol in zip(t_grid, sols)]
    a_gap = [a_readout(sol, flow) for sol in sols]
    z_gap = [float(np.linalg.norm(sol.z0 - z_bar)) for sol in sols]

    j = np.array([c.j for c in costs])
    resid = j - lam * t_grid - ubar_x0 - ell_hat
    floor_a = _noise_floor(spec, None, erg.mu_star, x0v, float(t_grid[-1]),
                           dt, n_particles, degree, seed, readout=a_readout)
    # a cost run's particles are i.i.d. on the constant law, so its
    # standard error is the spread of j over re-runs
    cost_fit = _fit_exponential(t_grid, resid, costs[-1].se, ell=0.0)
    feedback_fit = _fit_exponential(t_grid, np.array(a_gap), floor_a,
                                    ell=0.0)
    table = {"T": t_grid, "j": j, "residual": resid,
             "a_gap": np.array(a_gap), "z_gap": np.array(z_gap),
             "y0": np.array([s.y0 for s in sols])}
    return OcpResult(cost_fit=cost_fit, feedback_fit=feedback_fit,
                     table=table, lam=lam, ell_hat=ell_hat)
