"""Long-horizon convergence experiments.

Three studies of how the finite-horizon value approaches the ergodic
triple as the horizon grows: the value slope against the long-run
average (inverse-time residual), the centered value against the
stationary value function (exponential residual with an offset), and the
z-readout against the stationary z-field (exponential decay to zero).

An experiment draws two things: the forward law, an interacting-particle
run from theta on child seed 7 (none when the stationary law is held
constant), and the regression clouds, on child seed 3, each a draw from
the forward law at its horizon (``ergolab.bsde``). On the constant law
one sweep at the largest horizon serves the whole grid. A forward law
from theta is one run to the largest horizon, held as an
``sde.interacting_flow``: the law statistics the coefficients read at
every node, and the cloud only at each horizon. It gives each horizon
its own cloud and sweep, all reading it once, last node first. All Monte
Carlo noise enters through these draws and is common across the grid, so
orderings between horizons are far more stable than under independent
runs.

The reference lambda, u_bar and z-field come from one fixed point,
``ebsde.extract_ergodic`` at the experiment's step size, so its Euler
bias cancels in the residuals: ``ltb2`` and ``ltb3`` take the solve,
``ltb1`` its lambda.

Each exponential fit carries a noise floor, and ``_noise_floor`` is the
one estimator of it for a solve's readout (``control.ocp_longtime``'s
feedback gap uses it too): the spread of the largest horizon's readout
over three re-runs of everything the experiment draws,
at fresh seeds. The sweep is exact where the basis holds the value
surface, so on OU that floor sits at round-off (1e-14 to 1e-12). Where
it does not, the truncation error depends on the cloud the projection is
weighted by, and re-drawing the cloud carries it into the floor: on
sine-weak at degree 3 the ``ltb2`` floor reads 0.07 to 0.20 and the
``ltb3`` floor 0.02 to 0.04 (seeds 7 and 42, 5000 particles). Residuals
below twice the floor are not trusted by the log-linear pass; when too
few points clear it, or the pass fits poorly, the offset is freed and
the raw series is refit nonlinearly, with the decay then pinned by the
points that do carry signal. A fit with no signal anywhere reports the
rate as indeterminate instead of fitting noise.

The fits' 95% intervals take their Student-t quantile from ``_t975``,
which needs only ``math``, so importing this module loads no scipy.
``scipy.optimize`` is imported by the free-offset refit the first time
a fit takes it (``ltb2``, ``ltb3`` and ``control.ocp_longtime`` can);
that import maps scipy's OpenBLAS, with one more thread.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ergolab.bsde import BsdeSolution, _solve_horizons, z_from_gradient
from ergolab.ebsde import ErgodicSolution
from ergolab.measure import EmpiricalMeasure, MeasureFlow
from ergolab.sde import derive_seed, interacting_flow

__all__ = [
    "DecayFit",
    "ltb1_experiment",
    "ltb2_experiment",
    "ltb3_experiment",
]


@dataclass(frozen=True, eq=False)
class DecayFit:
    """Fitted residual model over a horizon grid.

    model "inverse-time": residual = c / T (rate and ell unused); a pass
    needs a positive r_squared, c / T explaining the log residuals better
    than their mean.
    model "exponential": residual = ell + c exp(-rate T); a pass needs a
    positive rate. Confidence intervals are 95% from the fit's own
    spread; ``indeterminate`` means the series carries no signal above
    twice the noise floor and the rate is not meaningful.
    """

    model: str
    t_grid: np.ndarray
    observed: np.ndarray
    c: float
    ell: float
    rate: float
    c_ci: tuple[float, float]
    rate_ci: tuple[float, float]
    r_squared: float
    noise_floor: float
    n_usable: int
    indeterminate: bool
    note: str = ""

    def predicted(self) -> np.ndarray:
        if self.model == "inverse-time":
            return self.c / self.t_grid
        return self.ell + self.c * np.exp(-self.rate * self.t_grid)

    def passes(self) -> bool:
        if self.indeterminate:
            return False
        if self.model == "inverse-time":
            return self.r_squared > 0.0
        return self.rate > 0.0

    def report(self) -> dict:
        return {"model": self.model, "c": self.c, "ell": self.ell,
                "rate": self.rate, "c_ci_lo": self.c_ci[0],
                "c_ci_hi": self.c_ci[1], "rate_ci_lo": self.rate_ci[0],
                "rate_ci_hi": self.rate_ci[1],
                "r_squared": self.r_squared,
                "noise_floor": self.noise_floor, "n_usable": self.n_usable,
                "indeterminate": int(self.indeterminate), "note": self.note}


# Hill's series for the 0.975 t quantile in powers of 1/dof about the
# normal quantile z (G. W. Hill, "Algorithm 396: Student's t-quantiles",
# CACM 13, 1970); within 1.2e-14 of the root from dof 500 on
_Z = 1.959963984540054
_HILL = (_Z, _Z * (_Z**2 + 1) / 4,
         _Z * ((5 * _Z**2 + 16) * _Z**2 + 3) / 96,
         _Z * (((3 * _Z**2 + 19) * _Z**2 + 17) * _Z**2 - 15) / 384,
         _Z * ((((79 * _Z**2 + 776) * _Z**2 + 1482) * _Z**2 - 1920)
               * _Z**2 - 945) / 92160)


def _beta_cf(a: float, u: float) -> float:
    """Lentz's continued fraction h in I_x(a, ½) = x^a (1 − x)^½ h /
    (a B(a, ½)) at x = 1/(1 + u), fast while x < (a + 1)/(a + 2.5)."""
    x = 1 / (1 + u)
    # 1/(1 − (a + ½) x / (a + 1)), written without the cancellation at x ~ 1
    d = (a + 1) * (1 + u) / (0.5 + (a + 1) * u)
    c, h = 1.0, d
    for m in range(1, 1000):
        for e in (m * (0.5 - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                  -(a + m) * (a + m + 0.5) * x
                  / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1 / (1 + e * d)
            c = 1 + e / c
            h *= d * c
        if abs(d * c - 1) < 4e-16:
            break
    return h


def _t975(dof: int) -> float:
    """0.975 quantile of Student's t with integer ``dof`` degrees of freedom:
    Hill's series from dof 500 on; below, Newton's method from it on the
    tail 1 − F(t) = ½ I_x(ν/2, ½) = f(t) t h / ν, x = ν/(ν + t²), with
    f the density and h from ``_beta_cf`` (fast here, as t² > 3)."""
    nu = float(dof)
    t = sum(g / nu**k for k, g in enumerate(_HILL))
    if nu >= 500:
        return t
    # Γ(a + ½)/Γ(a), a = ν/2, by Γ's recurrence up from a = ½ or 1
    a, b = nu / 2, 0.5 if dof % 2 else 1.0
    r = math.sqrt(math.pi) / 2 if b == 1 else 1 / math.sqrt(math.pi)
    while b < a:
        r *= (b + 0.5) / b
        b += 1
    f0 = r / math.sqrt(nu * math.pi)
    for _ in range(50):
        u = t * t / nu
        f = f0 * math.exp(-(a + 0.5) * math.log1p(u))
        step = t * _beta_cf(a, u) / nu - 0.025 / f
        t += step
        if abs(step) < 1e-10 * t:  # convergence is quadratic
            break
    return t


def _ci_from_se(value: float, se: float, dof: int) -> tuple[float, float]:
    if dof < 1 or not np.isfinite(se):
        return (-math.inf, math.inf)
    q = _t975(dof)
    return (value - q * se, value + q * se)


def _fit_inverse_time(t: np.ndarray, resid: np.ndarray) -> DecayFit:
    """Single-parameter c/T law, fitted in log space."""
    safe = np.maximum(resid, 1e-300)
    logs = np.log(safe) + np.log(t)
    log_c = float(logs.mean())
    dof = len(t) - 1
    se = float(logs.std(ddof=1) / math.sqrt(len(t))) if dof >= 1 else math.inf
    lo, hi = _ci_from_se(log_c, se, dof)
    pred = np.exp(log_c) / t
    ss_res = float(np.sum((np.log(safe) - np.log(pred)) ** 2))
    ss_tot = float(np.sum((np.log(safe) - np.log(safe).mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return DecayFit(model="inverse-time", t_grid=t, observed=resid,
                    c=math.exp(log_c), ell=0.0, rate=math.nan,
                    c_ci=(math.exp(lo), math.exp(hi)),
                    rate_ci=(math.nan, math.nan), r_squared=r2,
                    noise_floor=0.0, n_usable=len(t), indeterminate=False)


def _refit_free_offset(t: np.ndarray, values: np.ndarray, floor: float,
                       p0: tuple[float, float, float],
                       note: str) -> DecayFit | None:
    """Nonlinear ell + c exp(-rate T) fit on the raw series. Returns None
    on fewer than three points (three parameters), when the optimizer
    fails, when it cannot estimate the covariance, or when the fitted
    decay never clears the floor (a rate fitted to pure noise is
    worthless)."""
    if len(t) < 3:
        return None
    from scipy import optimize

    def law(tt, ell_f, c_f, rate_f):
        return ell_f + c_f * np.exp(-rate_f * tt)

    # curve_fit only warns when it cannot estimate the covariance (as on
    # three points for three parameters); such a fit has no error bars
    with warnings.catch_warnings():
        warnings.simplefilter("error", optimize.OptimizeWarning)
        try:
            popt, pcov = optimize.curve_fit(law, t, values, p0=p0,
                                            maxfev=20_000)
        except (RuntimeError, optimize.OptimizeWarning):
            return None
    ell, c, rate = (float(popt[0]), float(popt[1]), float(popt[2]))
    # a noise fit can split a flat level between ell and c with rate ~ 0;
    # demand that the fitted decay itself falls through the noise band
    decay = c * np.exp(-rate * t)
    drop = float(np.max(np.abs(decay)) - np.min(np.abs(decay)))
    if not (np.isfinite(drop) and drop > 2.0 * floor):
        return None
    above = np.abs(decay) > 2.0 * floor
    sd = np.sqrt(np.maximum(np.diag(pcov), 0.0))
    dof = len(t) - 3
    fitted = law(t, *popt)
    ss_res = float(np.sum((values - fitted) ** 2))
    ss_tot = float(np.sum((values - values.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return DecayFit(model="exponential", t_grid=t, observed=values, c=c,
                    ell=ell, rate=rate,
                    c_ci=_ci_from_se(c, float(sd[1]), dof),
                    rate_ci=_ci_from_se(rate, float(sd[2]), dof),
                    r_squared=r2, noise_floor=floor,
                    n_usable=int(above.sum()), indeterminate=False,
                    note=note)


def _fit_exponential(t: np.ndarray, values: np.ndarray, floor: float,
                     ell: float, anchored: np.ndarray | None = None,
                     anchored_t: np.ndarray | None = None) -> DecayFit:
    """Exponential fit of ``values`` (the full residual series over t).

    The first pass is log-linear on |anchored| (deviations from the
    fixed offset ``ell``, by default the series itself minus ell) using
    only points above twice the noise floor; a noisy or poorly fitting
    pass falls back to the free-offset nonlinear refit on the raw series.
    """
    if anchored is None:
        anchored = values - ell
        anchored_t = t
    mag = np.abs(anchored)
    usable = mag > max(2.0 * floor, 1e-300)
    n_usable = int(usable.sum())
    need = max(2, (len(anchored) + 1) // 2)

    if n_usable < need:
        refit = _refit_free_offset(
            t, values, floor,
            p0=(float(values[-1]),
                float(values[0] - values[-1]) * math.exp(float(t[0])), 1.0),
            note="offset refit (too few points above the noise floor "
                 "for a log-linear pass)")
        if refit is not None:
            return refit
        return DecayFit(model="exponential", t_grid=t, observed=values,
                        c=math.nan, ell=ell, rate=math.nan,
                        c_ci=(math.nan, math.nan),
                        rate_ci=(math.nan, math.nan), r_squared=math.nan,
                        noise_floor=floor, n_usable=n_usable,
                        indeterminate=True,
                        note="residuals sit below twice the noise floor; "
                             "rate not identifiable at this budget")

    ts, ys = anchored_t[usable], np.log(mag[usable])
    slope, intercept = np.polyfit(ts, ys, 1)
    rate, c = -float(slope), math.exp(float(intercept))
    pred = intercept + slope * ts
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    dof = n_usable - 2
    if dof >= 1:
        s2 = ss_res / dof
        sxx = float(np.sum((ts - ts.mean()) ** 2))
        se_slope = math.sqrt(s2 / sxx)
        se_int = math.sqrt(s2 * (1.0 / n_usable + ts.mean() ** 2 / sxx))
    else:
        se_slope = se_int = math.inf
    lo, hi = _ci_from_se(float(intercept), se_int, dof)

    if r2 < 0.9:
        refit = _refit_free_offset(
            t, values, floor,
            p0=(ell, c if math.isfinite(c) else 1.0,
                rate if math.isfinite(rate) and rate > 0 else 1.0),
            note="offset refit (log-linear pass fit poorly)")
        if refit is not None:
            return refit

    return DecayFit(model="exponential", t_grid=t, observed=values, c=c,
                    ell=ell, rate=rate, c_ci=(math.exp(lo), math.exp(hi)),
                    rate_ci=_ci_from_se(rate, se_slope, dof),
                    r_squared=r2, noise_floor=floor, n_usable=n_usable,
                    indeterminate=False)


def _horizon_run(spec, theta: EmpiricalMeasure | None,
                 mu_star: EmpiricalMeasure | None, x0, t_grid, dt,
                 n_particles, degree,
                 seed) -> tuple[MeasureFlow, list[BsdeSolution]]:
    """Everything an experiment draws at ``seed``: the forward law on
    [0, t_grid[-1]] and every horizon's solve, on the cloud of child seed
    3. The law is the interacting-particle flow from theta on child seed
    7, with its clouds kept at the horizons, or the stationary law held
    constant when theta is None (one sweep then serves the grid)."""
    t_max = float(t_grid[-1])
    if theta is not None:
        flow = interacting_flow(spec, theta, dt=dt, T=t_max,
                                n_particles=n_particles,
                                seed=derive_seed(seed, 7), keep=t_grid)
    elif mu_star is not None:
        flow = MeasureFlow.constant(mu_star, 0.0, t_max)
    else:
        raise ValueError("need either theta or a stationary law")
    return flow, _solve_horizons(spec, flow, x0, t_grid, dt, n_particles,
                                 degree, derive_seed(seed, 3))


def _noise_floor(spec, theta, mu_star, x0, t_max, dt, n_particles, degree,
                 seed, readout) -> float:
    """Spread of the largest-horizon readout(solution, flow) over three
    re-runs of ``_horizon_run`` at fresh seeds: a fresh cloud, and a
    fresh flow when it starts from theta. It holds the cloud's share of
    the truncation error as well as the sampling noise."""
    vals = []
    for j in range(3):
        flow, (sol,) = _horizon_run(spec, theta, mu_star, x0, [t_max], dt,
                                    n_particles, degree,
                                    derive_seed(seed, 900 + j))
        vals.append(readout(sol, flow))
    return float(np.std(vals, ddof=1))


def ltb1_experiment(spec, lam: float, t_grid=(5.0, 10.0, 20.0), x0=0.0,
                    theta: EmpiricalMeasure | None = None, dt: float = 0.01,
                    n_particles: int = 10_000, degree: int | None = None,
                    seed: int = 0) -> DecayFit:
    """Value slope vs the long-run average: fit |Y0/T - lam| to c/T.

    ``lam`` should come from an estimate at the same step size, so the
    discretization bias cancels in the residual; ``ergolab ltb1`` takes
    the lambda of ``ebsde.extract_ergodic`` at the run's dt. The fit has
    no noise floor. theta=None starts the forward law from a point mass
    at the origin.
    """
    t_grid = np.asarray(sorted(t_grid), dtype=float)
    if theta is None:
        theta = EmpiricalMeasure.dirac(np.zeros(spec.dim))
    _, sols = _horizon_run(spec, theta, None, x0, t_grid, dt, n_particles,
                           degree, seed)
    y0 = np.array([s.y0 for s in sols])
    resid = np.abs(y0 / t_grid - lam)
    return _fit_inverse_time(t_grid, resid)


def ltb2_experiment(spec, erg: ErgodicSolution, lam: float | None = None,
                    t_grid=(2.0, 4.0, 6.0, 8.0), x0=0.0,
                    theta: EmpiricalMeasure | None = None, dt: float = 0.01,
                    n_particles: int = 10_000, degree: int | None = None,
                    seed: int = 0) -> DecayFit:
    """Centered value offset: v_T = Y0 - lam T - u_bar(x0) over the grid.

    The log-linear pass anchors the offset at the largest horizon's value
    and fits the remaining deviations; when those sit in the noise, the
    offset is freed instead. theta=None freezes the forward law at the
    stationary one.
    """
    if lam is None:
        lam = erg.lambda_
    t_grid = np.asarray(sorted(t_grid), dtype=float)
    x0v = np.asarray(x0, dtype=float).reshape(-1)
    _, sols = _horizon_run(spec, theta, erg.mu_star, x0v, t_grid, dt,
                           n_particles, degree, seed)
    ubar_x0 = float(erg.u_bar(0.0, x0v)[0])
    y0 = np.array([s.y0 for s in sols])
    v = y0 - lam * t_grid - ubar_x0
    floor = _noise_floor(spec, theta, erg.mu_star, x0v, float(t_grid[-1]),
                         dt, n_particles, degree, seed,
                         readout=lambda s, _flow: s.y0)
    return _fit_exponential(t_grid, v, floor, ell=float(v[-1]),
                            anchored=v[:-1] - v[-1], anchored_t=t_grid[:-1])


def ltb3_experiment(spec, erg: ErgodicSolution, t_grid=(1.0, 2.0, 3.0, 4.0),
                    x0=1.0, theta: EmpiricalMeasure | None = None,
                    dt: float = 0.01, n_particles: int = 10_000,
                    degree: int | None = None, seed: int = 0) -> DecayFit:
    """Z-readout convergence: the finite-horizon z at (0, x0) against the
    stationary z-field, both through the gradient representation, fit to
    c exp(-rate T)."""
    t_grid = np.asarray(sorted(t_grid), dtype=float)
    x0v = np.asarray(x0, dtype=float).reshape(-1)
    flow, sols = _horizon_run(spec, theta, erg.mu_star, x0v, t_grid, dt,
                              n_particles, degree, seed)

    mu0 = flow.at_time(0.0)
    sig = spec.diffusion_at(x0v[None, :], mu0)
    grad_bar = erg.u_bar.gradient(0.0, x0v)
    z_bar = np.einsum("nj,njk->nk", grad_bar, sig)[0]

    def z_readout(s, s_flow):
        return float(np.linalg.norm(
            z_from_gradient(s, spec, s_flow, 0.0, x0v)[0] - z_bar))

    gap = np.array([z_readout(s, flow) for s in sols])
    floor = _noise_floor(spec, theta, erg.mu_star, x0v, float(t_grid[-1]),
                         dt, n_particles, degree, seed, readout=z_readout)
    return _fit_exponential(t_grid, gap, floor, ell=0.0)
