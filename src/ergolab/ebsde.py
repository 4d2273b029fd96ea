"""Ergodic BSDE solvers: the triple (lambda, u_bar, zeta_bar) against the
frozen stationary law mu*, which both routes simulate the same way.

``extract_ergodic`` solves the stationary equation as one fixed point
("regression later") of the finite-horizon sweep's exact one-step
operator, ``bsde._Operator`` built on mu*'s atoms with mu* held fixed:
there the Euler step's moments are two fixed matrices, built once, and
one ridge projection, factored once, maps the next node's coefficients
to the current node's; the gradient z-field is projected by the same
regression. Iterating that undiscounted, zero-terminal map and
recentring at the anchor after each step (relative value iteration)
converges to u_bar; the anchor's increment per step is lambda dt. That
lambda is the Euler chain's own long-run average, which differs from the
continuous-time one by O(dt). Coefficients are read at t = 0, so the
model must be time-homogeneous: a drift declared as reading t
(``ProblemSpec.reads_t``) raises ValueError before the burn-in runs, as
a basis degree below q + 1 does after it (the default is
max(q + 1, 3)).

``extract_ergodic_vanishing`` is the paper's construction. A family of
discounted infinite-horizon problems is truncated to finite horizons
long enough that the tail contributes less than a fixed tolerance,
solved by the same one-step operator with the implicit discount factor
(1 + alpha dt)^-1 per step, and extrapolated to discount zero. The limit
yields the long-run average value, a centered stationary value function
pinned to zero at the anchor, and its z-field.

``lambda_by_time_average`` checks lambda independently, along the
interacting particle system.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from ergolab.bsde import RegressionFunction, _design, _Operator
from ergolab.measure import EmpiricalMeasure, invariant_measure
from ergolab.sde import derive_seed, iter_mv, _steps_for

__all__ = [
    "HorizonBudgetError",
    "AlphaSolution",
    "ErgodicSolution",
    "TimeAverageEstimate",
    "driver_growth_constant",
    "discount_horizon",
    "extract_ergodic",
    "extract_ergodic_vanishing",
    "lambda_by_time_average",
]

_TRUNCATION_TOL = 1e-3
_MAX_STEPS = 1e7
# the fixed point stops once no coefficient moves by more than this in a
# step, and gives up after the horizon the ladder sizes for this discount
_FIXED_POINT_TOL = 1e-10
_CAP_DISCOUNT = 0.05


class HorizonBudgetError(RuntimeError):
    """The truncation horizon needs more steps than the budget allows."""

    def __init__(self, alpha: float, dt: float, steps: float):
        super().__init__(
            f"discount {alpha} at dt={dt} needs {steps:.3g} steps "
            f"(budget {_MAX_STEPS:.0e}); increase the discount or the step")


@dataclass(frozen=True, eq=False)
class AlphaSolution:
    """One discounted solve: the single-node value surface, its readouts
    at the anchor, the truncation bookkeeping, and the last step's RMS
    projection residual over mu*'s atoms."""

    alpha: float
    t_alpha: float
    u: RegressionFunction
    anchor_value: float
    lambda_candidate: float
    truncation_bound: float
    c_hat: float
    growth_estimate: float
    fit_rmse: float


@dataclass(frozen=True, eq=False)
class ErgodicSolution:
    """The ergodic triple: long-run average value, centered stationary
    value function (zero at the anchor by construction), its z-field, the
    stationary law, and the per-discount trace (empty for the fixed
    point)."""

    lambda_: float
    u_bar: RegressionFunction
    zeta_bar: RegressionFunction
    mu_star: EmpiricalMeasure
    trace: tuple[AlphaSolution, ...]
    fit_rmse: float
    stable: bool
    mu_star_w2: float      # half-time vs terminal W2 of mu*'s burn-in
    mu_star_w2_tol: float  # the noise tolerance it is held to

    def report(self) -> dict:
        out = {"lambda": self.lambda_, "fit_rmse": self.fit_rmse,
               "stable": int(self.stable),
               "mu_star_atoms": self.mu_star.n_atoms,
               "mu_star_w2": self.mu_star_w2,
               "mu_star_w2_tol": self.mu_star_w2_tol}
        for a in self.trace:
            tag = f"{a.alpha:g}".replace(".", "p")
            out[f"candidate_a{tag}"] = a.lambda_candidate
            out[f"t_alpha_a{tag}"] = a.t_alpha
            out[f"fit_rmse_a{tag}"] = a.fit_rmse
        return out


@dataclass(frozen=True, eq=False)
class TimeAverageEstimate:
    """Long-run driver average along the interacting system."""

    value: float
    se: float
    t_long: float
    t_burn: float

    def report(self) -> dict:
        return {"lambda_time_avg": self.value, "se": self.se,
                "t_long": self.t_long, "t_burn": self.t_burn}


def driver_growth_constant(spec, mu_star: EmpiricalMeasure) -> float:
    """Scale of the driver along the stationary law at z = 0, used to
    size truncation horizons. Mean plus two standard deviations over the
    atoms, floored away from zero."""
    x = mu_star.points
    z = np.zeros((x.shape[0], spec.dim))
    f = np.abs(np.asarray(spec.driver(x, mu_star, z), dtype=float))
    return float(max(f.mean() + 2.0 * f.std(), 0.1))


def discount_horizon(alpha: float, c_hat: float, dt: float) -> float:
    """Smallest whole-step horizon with discounted tail below
    _TRUNCATION_TOL."""
    if alpha <= 0.0:
        raise ValueError(f"discount must be positive, got {alpha}")
    t = math.log(c_hat / (alpha * _TRUNCATION_TOL)) / alpha
    steps = math.ceil(max(t, dt) / dt - 1e-9)
    if steps > _MAX_STEPS:
        raise HorizonBudgetError(alpha, dt, steps)
    return steps * dt


def _discounted_solves(spec, mu_star: EmpiricalMeasure,
                       alphas: Sequence[float], dt: float,
                       operator: _Operator,
                       anchor) -> tuple[AlphaSolution, ...]:
    """Solve the discounted equation for every alpha against the frozen
    law on ``operator``, built on mu*'s atoms with mu* held fixed.

    Each discount iterates c <- P(A c + dt f(x, mu*, Z c)) / (1 + alpha dt)
    from zero for the steps of its own truncation horizon; with a
    constant flow that is the zero-terminal backward solve read at
    time 0.
    """
    anchor = _anchor_point(spec, anchor)
    c_hat = driver_growth_constant(spec, mu_star)
    x = mu_star.points
    out = []
    for alpha in alphas:
        t_alpha = discount_horizon(alpha, c_hat, dt)
        coeffs = np.zeros(operator.reg.exponents.shape[0])
        for _ in range(_steps_for(t_alpha, dt)):
            target, fitted = operator.step(coeffs)
            coeffs = fitted / (1.0 + alpha * dt)
        u = operator.surface(coeffs)
        anchor_value = float(u.eval_node(0, anchor)[0])
        growth = alpha * float(np.max(np.abs(u.eval_node(0, x))))
        out.append(AlphaSolution(
            alpha=alpha, t_alpha=t_alpha, u=u, anchor_value=anchor_value,
            lambda_candidate=alpha * anchor_value,
            truncation_bound=(c_hat / alpha) * math.exp(-alpha * t_alpha),
            c_hat=c_hat, growth_estimate=growth,
            fit_rmse=operator.rmse(fitted, target)))
    return tuple(out)


def _gradient_z(spec, u: RegressionFunction,
                operator: _Operator) -> RegressionFunction:
    """The z-field grad u(x) sigma(x, mu*) of u's first node, projected by
    the operator's regression on mu*'s atoms. With a constant diffusion
    grad u lies in the basis, so the projection reproduces it up to the
    ridge."""
    x, mu_star = operator.cloud, operator.law
    z = np.einsum("nj,njk->nk", u.gradient(u.times[0], x),
                  spec.diffusion_at(x, mu_star))
    return operator.surface(operator.reg.fit(z))


def _stationary_law(spec, n_particles: int, dt: float, seed: int,
                    t_burn: float | None):
    """mu* from the interacting system on child seed 1, after a burn-in of
    ``t_burn`` (``invariant_measure``'s 12 / rate by default). Both routes
    hold it fixed and read the drift at t = 0, so a drift that reads t is
    refused first."""
    if spec.reads_t:
        raise ValueError("a law held fixed reads the drift at t = 0, but "
                         "the drift reads t")
    return invariant_measure(spec, n_particles=n_particles, dt=dt,
                             t_burn=t_burn, seed=derive_seed(seed, 1))


def _anchor_point(spec, anchor) -> np.ndarray:
    return (np.zeros(spec.dim) if anchor is None
            else np.asarray(anchor, dtype=float).reshape(-1))


def extract_ergodic(spec, n_particles: int, dt: float,
                    degree: int | None = None, seed: int = 0,
                    t_burn: float | None = None,
                    anchor=None) -> ErgodicSolution:
    """The ergodic triple as one recentred fixed point.

    The stationary law is simulated as in ``extract_ergodic_vanishing``
    (bit for bit), and one ``bsde._Operator`` is built on its atoms with
    mu* held fixed. With its expectation matrices A and Z and its
    projection P, the coefficients iterate
    c <- P (A c + dt f(x, mu*, Z c)), recentred after each step so the
    surface is zero at the anchor (origin by default); lambda is the
    anchor's increment over the last step divided by dt. The iteration
    stops once no coefficient moves by more than 1e-10 in a step. It is
    capped at the ladder's longest horizon, discount_horizon(0.05, c_hat,
    dt); reaching the cap gives ``stable=False`` and a RuntimeWarning.

    u_bar is zero at the anchor exactly (through its offset), zeta_bar is
    its gradient representation grad u sigma, the trace is empty, and
    ``fit_rmse`` is the last step's RMS projection residual over the atoms.
    lambda is the Euler chain's own average: on ou-attract at dt = 0.02 it
    is 1 / (2 - dt) = 0.50505 rather than the continuous-time 0.5.
    """
    inv = _stationary_law(spec, n_particles, dt, seed, t_burn)
    mu_star = inv.measure
    anchor = _anchor_point(spec, anchor)
    operator = _Operator(spec, mu_star.points, dt, degree, law=mu_star)
    reg = operator.reg
    at_anchor = _design(((anchor - reg.center) / reg.scale)[None],
                        reg.exponents)[0]
    max_steps = _steps_for(discount_horizon(
        _CAP_DISCOUNT, driver_growth_constant(spec, mu_star), dt), dt)

    coeffs = np.zeros(reg.exponents.shape[0])
    for _ in range(max_steps):
        target, fitted = operator.step(coeffs)
        level = float(at_anchor @ fitted)
        rise = level - float(at_anchor @ coeffs)
        recentred = fitted.copy()
        recentred[0] -= level  # the constant monomial comes first
        change = float(np.max(np.abs(recentred - coeffs)))
        coeffs = recentred
        if change <= _FIXED_POINT_TOL:
            break
    stable = change <= _FIXED_POINT_TOL
    if not stable:
        warnings.warn(
            f"relative value iteration did not settle in {max_steps} steps; "
            f"last coefficient change {change:.3g}", RuntimeWarning,
            stacklevel=2)

    u = operator.surface(coeffs)
    u_bar = dataclasses.replace(u, offset=float(u.eval_node(0, anchor)[0]))
    return ErgodicSolution(lambda_=rise / dt, u_bar=u_bar,
                           zeta_bar=_gradient_z(spec, u_bar, operator),
                           mu_star=mu_star, trace=(),
                           fit_rmse=operator.rmse(fitted, target),
                           stable=stable, mu_star_w2=inv.diagnostic_w2,
                           mu_star_w2_tol=inv.tolerance)


def extract_ergodic_vanishing(spec, n_particles: int, dt: float,
                              degree: int | None = None,
                              alphas: tuple[float, ...] = (0.4, 0.2, 0.1,
                                                           0.05),
                              seed: int = 0, t_burn: float | None = None,
                              anchor=None) -> ErgodicSolution:
    """Vanishing-discount extraction of the ergodic triple.

    The stationary law is simulated once, as in ``extract_ergodic``
    (bit for bit), and the fixed point's one-step operator is built once
    on its atoms. Each discount alpha iterates
    c <- P(A c + dt f(x, mu*, Z c)) / (1 + alpha dt) from zero over its
    own truncation horizon, discount_horizon(alpha, c_hat, dt). The
    average value is the zero-discount intercept of a weighted linear fit
    (the two smallest discounts carry double weight); the centered value
    function comes from the smallest discount, shifted so the anchor value
    is exactly zero, and its z-field is that surface's gradient
    representation grad u sigma. Each candidate alpha u_alpha(anchor) is
    the discounted Euler chain's: on ou-attract it is 1 / (2 + alpha - dt)
    at the origin.
    """
    if len(alphas) < 2:
        raise ValueError("need at least two discount values to extrapolate")
    alphas = tuple(sorted(alphas, reverse=True))
    inv = _stationary_law(spec, n_particles, dt, seed, t_burn)
    mu_star = inv.measure
    operator = _Operator(spec, mu_star.points, dt, degree, law=mu_star)
    trace = _discounted_solves(spec, mu_star, alphas, dt, operator, anchor)

    cand = np.array([t.lambda_candidate for t in trace])
    avec = np.array([t.alpha for t in trace])
    w = np.ones_like(avec)
    w[np.argsort(avec)[:2]] = 2.0
    design = np.column_stack([avec, np.ones_like(avec)]) * np.sqrt(w)[:, None]
    coef, *_ = np.linalg.lstsq(design, cand * np.sqrt(w), rcond=None)
    lam = float(coef[1])
    resid = cand - (coef[0] * avec + coef[1])
    rmse = float(np.sqrt(np.mean(resid ** 2)))

    # candidates should approach the limit from one side; sign flips
    # beyond the fit noise mean the extrapolation is not settling
    diffs = np.diff(cand)
    tol = max(0.02, 3.0 * rmse)
    big = diffs[np.abs(diffs) > tol]
    stable = not (big.size and (np.any(big > 0) and np.any(big < 0)))
    if not stable:
        warnings.warn(
            "discounted-value candidates are not monotone beyond noise; "
            f"trace: {np.array2string(cand, precision=5)}",
            RuntimeWarning, stacklevel=2)

    best = trace[-1]
    u_bar = dataclasses.replace(best.u, offset=best.anchor_value)
    zeta_bar = _gradient_z(spec, best.u, operator)
    return ErgodicSolution(lambda_=lam, u_bar=u_bar, zeta_bar=zeta_bar,
                           mu_star=mu_star, trace=trace,
                           fit_rmse=rmse, stable=stable,
                           mu_star_w2=inv.diagnostic_w2,
                           mu_star_w2_tol=inv.tolerance)


def _tail_average(steps: Callable[[int], Iterator], t_long: float,
                  dt: float, rate: float, sample: Callable,
                  t_burn: float | None = None) -> tuple[float, float, float]:
    """Average ``sample(t, x, mu)`` along the Euler run ``steps(n_steps)``
    on [0, t_long], over the steps after a burn-in, where mu is the measure
    the run yields with x.

    The burn-in is ``t_burn``, by default min(10 / rate, t_long / 3)
    (t_long / 3 without a positive rate), and always leaves one step. The
    standard error comes from 20 batch means. Returns (mean, standard
    error, burn-in time on the step grid).
    """
    n_steps = _steps_for(t_long, dt)
    if t_burn is None:
        t_burn = min(10.0 / rate, t_long / 3.0) if rate > 0 else t_long / 3.0
    burn = min(int(round(t_burn / dt)), n_steps - 1)
    samples = np.array([sample(t, x, mu) for k, t, x, mu, _ in steps(n_steps)
                        if burn <= k < n_steps])
    value = float(samples.mean())
    n_batches = min(20, samples.size)
    batches = np.array_split(samples, n_batches)
    means = np.array([b.mean() for b in batches])
    se = float(means.std(ddof=1) / math.sqrt(n_batches)) \
        if n_batches > 1 else math.nan
    return value, se, burn * dt


def lambda_by_time_average(spec, t_long: float, dt: float, n_particles: int,
                           seed: int = 0,
                           zeta: RegressionFunction | None = None,
                           t_burn: float | None = None) -> TimeAverageEstimate:
    """Long-run average of the driver along the interacting system.

    Streams the particle system (no path storage), discards a burn-in
    window, and averages f(X, empirical law, zeta(X)) over remaining
    steps. Drivers that ignore z need no zeta. The horizon must dominate
    the mixing time; the standard error comes from batch means.
    """
    rate = spec.contraction_rate_bound()
    if rate > 0.0 and t_long < 30.0 / rate - 1e-9:
        raise ValueError(
            f"horizon {t_long} is below 30 / rate = {30.0 / rate:.3g}; "
            "the average would still carry transient bias")
    states = np.zeros((n_particles, spec.dim))
    # one read-only zero z-block serves every sample of a run without zeta
    zero = np.zeros_like(states)
    zero.flags.writeable = False

    def z_rows(x):
        if zeta is None:
            return zero
        return np.asarray(zeta.eval_node(0, x)).reshape(x.shape[0], -1)

    value, se, t_burn = _tail_average(
        lambda n_steps: iter_mv(spec, states, dt, n_steps, seed),
        t_long, dt, rate,
        lambda t, x, mu: float(np.asarray(
            spec.driver(x, mu, z_rows(x)), dtype=float).mean()),
        t_burn)
    return TimeAverageEstimate(value=value, se=se, t_long=t_long,
                               t_burn=t_burn)
