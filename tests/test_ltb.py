"""Long-horizon experiments: value slope, centered offset, gradient gap."""

import math

import numpy as np
import pytest

import oracle_reference as oracle
from ergolab import cli, ebsde, ltb
from ergolab.ltb import (DecayFit, _fit_exponential, _fit_inverse_time,
                         ltb1_experiment, ltb2_experiment, ltb3_experiment)
from ergolab.measure import EmpiricalMeasure

# Matched-step reference for the quadratic driver: the solver integrates the
# Euler chain, so its long-run average is the chain's stationary second
# moment, not the continuous-time 0.5. Using it cancels the step bias in
# every residual below.
LAM_DT = oracle.euler_stationary_variance(0.02)


from conftest import record_sweeps, trace_surface_gap as _surface_gap


@pytest.fixture(scope="module")
def slope_fit(ou_spec):
    return ltb1_experiment(ou_spec, lam=LAM_DT, t_grid=(2.5, 5.0, 10.0, 20.0),
                           x0=0.0, dt=0.02, n_particles=10_000, seed=11)


@pytest.fixture(scope="module")
def offset_fits(ou_spec, erg_ou):
    return {x0: ltb2_experiment(ou_spec, erg_ou, lam=LAM_DT,
                                t_grid=(0.5, 1.0, 1.5, 2.0, 3.0), x0=x0,
                                dt=0.02, n_particles=10_000, seed=21)
            for x0 in (0.0, 1.0, 2.0)}


@pytest.fixture(scope="module")
def offset_fits_ladder(ou_spec, erg_ou_ladder):
    # the ladder's surfaces, whose trace sizes the surface-error term
    return {x0: ltb2_experiment(ou_spec, erg_ou_ladder, lam=LAM_DT,
                                t_grid=(0.5, 1.0, 1.5, 2.0, 3.0), x0=x0,
                                dt=0.02, n_particles=10_000, seed=21)
            for x0 in (0.0, 1.0)}


@pytest.fixture(scope="module")
def ubar_terminal_spec(ou_spec, erg_ou_ladder):
    # terminal = the fitted stationary value itself; the finite-horizon
    # solution then reduces to that surface plus a linear-in-time ramp
    return ou_spec.replace(
        terminal=lambda x, mu: np.asarray(
            erg_ou_ladder.u_bar.eval_node(0, x)),
        name="ou-stationary-terminal")


# ---------------------------------------------------------------------------
# Fitting layer, no simulations
# ---------------------------------------------------------------------------

def test_inverse_time_fit_recovers_constant():
    t = np.array([2.0, 4.0, 8.0, 16.0])
    fit = _fit_inverse_time(t, 0.3 / t)
    assert fit.model == "inverse-time"
    assert fit.c == pytest.approx(0.3, rel=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.passes()
    assert np.allclose(fit.predicted(), 0.3 / t)


def test_inverse_time_fit_fails_on_rising_residuals():
    # the control-lq ltb1 residuals at seed 42 against a z = 0 lambda:
    # they grow with T, so c / T explains them worse than their mean
    t = np.array([5.0, 10.0, 20.0])
    fit = _fit_inverse_time(t, np.array([0.048, 0.067, 0.077]))
    assert fit.r_squared < 0.0
    assert not fit.passes()


def test_exponential_fit_recovers_rate():
    t = np.array([0.5, 1.0, 2.0, 3.0, 4.0])
    values = 0.25 + 0.8 * np.exp(-1.3 * t)
    fit = _fit_exponential(t, values, floor=1e-9, ell=0.25)
    assert fit.model == "exponential"
    assert fit.rate == pytest.approx(1.3, rel=1e-9)
    assert fit.c == pytest.approx(0.8, rel=1e-9)
    assert fit.n_usable == len(t)
    assert fit.rate_ci[0] <= 1.3 <= fit.rate_ci[1]
    assert fit.passes()


def test_fit_indeterminate_below_floor():
    # everything inside the noise band: no rate claim, reported not raised
    t = np.array([1.0, 2.0, 3.0, 4.0])
    v = np.array([0.001, -0.0005, 0.0008, -0.0002])
    fit = _fit_exponential(t, v, floor=0.01, ell=float(v[-1]),
                           anchored=v[:-1] - v[-1], anchored_t=t[:-1])
    assert fit.indeterminate
    assert not fit.passes()
    assert math.isnan(fit.rate)
    assert "noise" in fit.note


def test_free_offset_refit_rescues_sparse_signal():
    # two clean early points, the rest in the noise: the log-linear pass
    # is starved, but the nonlinear refit still pins the decay
    t = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    v = np.array([0.8, 0.3, 0.002, 0.001, -0.002, 0.001])
    fit = _fit_exponential(t, v, floor=0.01, ell=float(v[-1]),
                           anchored=v[:-1] - v[-1], anchored_t=t[:-1])
    assert not fit.indeterminate
    assert "refit" in fit.note
    assert fit.rate > 0.0
    assert fit.passes()


def test_negative_rate_fails_verdict():
    t = np.array([1.0, 2.0])
    fit = DecayFit(model="exponential", t_grid=t, observed=np.ones(2), c=1.0,
                   ell=0.0, rate=-0.5, c_ci=(0.0, 2.0), rate_ci=(-1.0, 0.0),
                   r_squared=1.0, noise_floor=0.0, n_usable=2,
                   indeterminate=False)
    assert not fit.passes()


def test_decay_fit_csv_and_report(tmp_path):
    t = np.array([2.0, 4.0, 8.0])
    fit = _fit_inverse_time(t, 0.5 / t)
    assert cli._fit_files(fit, tmp_path, "fit") == ["fit_residuals.csv",
                                                   "fit.report"]
    out = tmp_path / "fit_residuals.csv"
    lines = out.read_text().splitlines()
    assert lines[0] == "T,observed,fitted"
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    np.testing.assert_array_equal(data[:, 0], t)
    np.testing.assert_array_equal(data[:, 1], 0.5 / t)
    np.testing.assert_array_equal(data[:, 2], fit.predicted())
    rep = fit.report()
    assert {"model", "c", "ell", "rate", "r_squared", "noise_floor",
            "n_usable", "indeterminate"} <= set(rep)
    keys = {line.partition("=")[0]
            for line in (tmp_path / "fit.report").read_text().splitlines()}
    assert keys == set(rep) | {"passed"}


def test_t_quantile_matches_scipy_stats():
    # scipy's own quantile is off the true root by up to 19 ulp (dof 6),
    # so the in-house one is held to a stated tolerance, not to its bits
    from scipy import stats
    for dof in [*range(1, 201), 10**4, 10**6]:
        lo, hi = ltb._ci_from_se(0.0, 1.0, dof)
        assert lo == -hi
        assert hi == pytest.approx(stats.t.ppf(0.975, dof), rel=1e-13)
    p = 0.975
    assert ltb._ci_from_se(0.0, 1.0, 1)[1] == pytest.approx(
        math.tan(math.pi * (p - 0.5)), rel=1e-14)
    assert ltb._ci_from_se(0.0, 1.0, 2)[1] == pytest.approx(
        (2 * p - 1) / math.sqrt(2 * p * (1 - p)), rel=1e-14)
    for dof, se in ((0, 1.0), (-1, 1.0), (5, math.inf), (5, math.nan)):
        assert ltb._ci_from_se(0.3, se, dof) == (-math.inf, math.inf)


def test_refit_without_covariance_returns_none():
    # three points for three parameters: curve_fit solves the fit exactly
    # but cannot estimate its covariance, so the rate has no error bars;
    # on two points it cannot fit three parameters at all
    for n_points in (3, 2):
        t = np.arange(1.0, n_points + 1.0)
        values = 0.1 + 2.0 * np.exp(-t)
        assert ltb._refit_free_offset(t, values, 0.0, p0=(0.0, 1.0, 1.0),
                                      note="") is None


# ---------------------------------------------------------------------------
# Value slope vs the long-run average
# ---------------------------------------------------------------------------

def test_slope_residual_decays_inverse_time(slope_fit):
    resid = dict(zip(slope_fit.t_grid, slope_fit.observed))
    assert resid[10.0] <= 0.1
    assert resid[20.0] <= 0.05
    # doubling the horizon halves the residual, within 30%
    for t in (2.5, 5.0, 10.0):
        assert 0.35 <= resid[2 * t] / resid[t] <= 0.65
    # closed form puts the constant at 0.25 for a centered start
    assert 0.15 <= slope_fit.c <= 0.4
    assert slope_fit.r_squared > 0.9
    assert slope_fit.model == "inverse-time"
    assert slope_fit.passes()


def test_slope_residual_constant_driver_is_exact(ou_spec):
    spec = ou_spec.replace(
        driver=lambda x, mu, z: np.full(np.shape(x)[0], 0.7),
        terminal=lambda x, mu: np.zeros(np.shape(x)[0]), name="flat")
    fit = ltb1_experiment(spec, lam=0.7, t_grid=(4.0, 1.0, 2.0), x0=0.0,
                          dt=0.05, n_particles=300, seed=3)
    assert np.all(np.diff(fit.t_grid) > 0)  # grid comes back sorted
    assert np.all(fit.observed <= 1e-9)
    assert fit.c <= 1e-8


def test_slope_residual_envelope_across_starts(ou_spec):
    # fitted constants must grow no faster than 1 + |x0|^(q+1), times 3
    q = ou_spec.constants.q
    cs = {}
    for x0 in (0.0, 1.0, 2.0):
        fit = ltb1_experiment(ou_spec, lam=LAM_DT, t_grid=(2.5, 5.0, 10.0),
                              x0=x0, dt=0.02, n_particles=3000, seed=11)
        cs[x0] = fit.c
    for x0, c in cs.items():
        assert c <= 3.0 * cs[0.0] * (1.0 + abs(x0) ** (q + 1))


@pytest.fixture(scope="module")
def erg_sine(sine_spec):
    return ebsde.extract_ergodic(sine_spec, n_particles=2000, dt=0.02,
                                 seed=42)


# On sine-weak the default cubic basis cannot hold the value surface, so
# the law the regression cloud is drawn from sets the sweep's growth in T.
# A cloud drawn from the forward law keeps it at the fixed point's lambda
# on the same law; a Gaussian spread around x0 grew at 1.65 against 2.13,
# putting |Y0/T - lam| at 0.33-0.48 and v_T on a linear drift of 7.6-9.7
# over T = 2..8 (seeds 1, 2). With the law's cloud, seeds 1-8 gave
# |Y0/T - lam| <= 0.098 and a v_T range of 0.07-0.33.
def test_sine_weak_value_slope_tracks_lambda(sine_spec, erg_sine):
    fit = ltb1_experiment(sine_spec, lam=erg_sine.lambda_,
                          t_grid=(5.0, 10.0, 20.0), dt=0.02,
                          n_particles=2000, seed=7)
    assert np.max(fit.observed) <= 0.15


# ``ergolab ltb1`` on control-lq at its defaults (dt = 0.01, 5000
# particles) reads lambda from the ergodic fixed point, whose zeta_bar the
# Hamiltonian driver reads. Over seeds 1-10 and 42 c reads 0.18812 on
# average with a standard deviation of 0.00028 between seeds, against the
# Euler chain's 0.18929: the cubic basis sets Y0^T about 0.001 low at
# every T (degree 4 takes seed 42's gap from 0.0017 to 0.0004). The
# tolerance is that mean offset plus four seed standard deviations. A
# z = 0 time average put c at 0.63 and failed the fit.
LTB1_LQ_TOL = 0.0012 + 4 * 0.0003


@pytest.fixture(scope="module")
def ltb1_c_lq():
    return oracle.ltb1_c_euler("control-lq", dt=0.01)


@pytest.mark.parametrize("seed", [42, 7])
def test_ltb1_cli_on_control_lq_matches_the_grid_oracle(seed, ltb1_c_lq,
                                                        tmp_path):
    scn = tmp_path / "lq.scn"
    scn.write_text("[model]\npreset = control-lq\n")
    out = tmp_path / "o"
    assert cli.run(["ltb1", "--scenario", str(scn), "--out", str(out),
                    "--seed", str(seed)]) == 0
    report = dict(line.split("=", 1)
                  for line in (out / "ltb1.report").read_text().splitlines())
    assert abs(float(report["c"]) - ltb1_c_lq) <= LTB1_LQ_TOL
    assert "param.t_long" not in (out / "manifest").read_text()


@pytest.mark.parametrize("experiment,t_max", [(ltb2_experiment, 8.0),
                                              (ltb3_experiment, 4.0)])
def test_constant_flow_grid_runs_one_sweep(ou_spec, erg_ou, monkeypatch,
                                           experiment, t_max):
    # the default grid's horizons share one sweep at the largest; the
    # noise floor re-runs that horizon at three fresh seeds
    swept, _ = record_sweeps(monkeypatch)
    experiment(ou_spec, erg_ou, dt=0.02, n_particles=500, seed=3)
    assert swept == [(t_max,)] * (1 + 3)


def test_sine_weak_centred_value_does_not_drift(sine_spec, erg_sine):
    fit = ltb2_experiment(sine_spec, erg_sine, t_grid=(2.0, 4.0, 6.0, 8.0),
                          x0=3.0, dt=0.02, n_particles=2000, seed=7)
    assert np.ptp(fit.observed) <= 1.0


# ---------------------------------------------------------------------------
# Centered offset v_T = Y0 - lam T - u_bar(x0)
# ---------------------------------------------------------------------------

def test_offset_tracks_gaussian_closed_form(offset_fits):
    fit = offset_fits[0.0]
    want = np.array([oracle.ltb2_v(t, 0.0) for t in fit.t_grid])
    assert np.max(np.abs(fit.observed - want)) <= 0.03
    assert abs(fit.ell - oracle.LTB2_ELL) <= 0.02
    assert fit.model == "exponential"
    assert fit.passes()


def test_offset_rate_matches_relaxation(offset_fits):
    # mixing at unit drift puts the true decay rate at 2
    fit = offset_fits[2.0]
    assert fit.passes()
    assert 0.7 <= fit.rate <= 2.6
    assert fit.n_usable >= 3


def test_offset_limit_start_independent(offset_fits_ladder, erg_ou_ladder):
    a, b = offset_fits_ladder[0.0], offset_fits_ladder[1.0]
    surface = _surface_gap(erg_ou_ladder, np.array([[0.0], [1.0]]), "value")
    combined = a.noise_floor + b.noise_floor + surface
    assert abs(a.ell - b.ell) <= 2.0 * combined


def test_offset_limit_initial_law_independent(ou_spec, erg_ou):
    kwargs = dict(lam=LAM_DT, t_grid=(0.5, 1.0, 1.5, 2.0, 3.0), x0=2.0,
                  dt=0.02, n_particles=10_000, seed=22)
    from_stationary = ltb2_experiment(ou_spec, erg_ou,
                                      theta=erg_ou.mu_star, **kwargs)
    from_point = ltb2_experiment(ou_spec, erg_ou,
                                 theta=EmpiricalMeasure.dirac(np.zeros(1)),
                                 **kwargs)
    combined = from_stationary.noise_floor + from_point.noise_floor
    assert abs(from_stationary.ell - from_point.ell) <= 2.0 * combined


def test_offset_vanishes_for_stationary_terminal(ubar_terminal_spec,
                                                 erg_ou_ladder):
    # with the stationary surface as terminal, Y_t = u_bar(X_t) + lam (T-t)
    # solves the system exactly; the offset can only show solver noise plus
    # the surface's own fit error
    fit = ltb2_experiment(ubar_terminal_spec, erg_ou_ladder,
                          t_grid=(0.5, 1.0, 2.0, 3.0), x0=1.0, dt=0.02,
                          n_particles=10_000, seed=0)
    surface = _surface_gap(erg_ou_ladder, np.array([[1.0]]), "value")
    assert np.max(np.abs(fit.observed)) <= 2.0 * (fit.noise_floor + surface)
    if fit.indeterminate:
        assert not fit.passes()
        assert "noise" in fit.note


# ---------------------------------------------------------------------------
# Gradient readout convergence
# ---------------------------------------------------------------------------

def test_gradient_gap_vanishes_for_stationary_terminal(ubar_terminal_spec,
                                                       erg_ou_ladder):
    fit = ltb3_experiment(ubar_terminal_spec, erg_ou_ladder,
                          t_grid=(0.5, 1.0, 2.0, 3.0), x0=1.0, dt=0.02,
                          n_particles=10_000, seed=0)
    surface = _surface_gap(erg_ou_ladder, np.array([[1.0]]), "gradient")
    assert np.max(fit.observed) <= 2.0 * (fit.noise_floor + surface)


def test_symmetric_start_gradients_vanish(ou_spec, erg_ou):
    # even driver and terminal, odd drift: both gradients at the origin
    # are zero, so the gap is pure fit noise
    zbar0 = float(erg_ou.zeta_bar.eval_node(0, np.zeros((1, 1)))[0])
    assert abs(zbar0) <= 0.05
    fit = ltb3_experiment(ou_spec, erg_ou, t_grid=(0.5, 1.0, 1.5, 2.0),
                          x0=0.0, dt=0.02, n_particles=10_000, seed=0)
    assert np.max(fit.observed) <= 2.0 * (fit.noise_floor + abs(zbar0))
    # the finite-horizon readouts themselves sit near zero
    assert np.max(fit.observed) + abs(zbar0) <= 0.08


def test_control_gradient_gap_decays(lq_spec, erg_lq):
    fit = ltb3_experiment(lq_spec, erg_lq, t_grid=(1.0, 2.0, 3.0, 4.0),
                          x0=1.0, dt=0.02, n_particles=10_000, seed=0)
    assert np.all(fit.observed >= 0.0)
    assert fit.observed[0] > fit.observed[-1]
    assert fit.model == "exponential"
    assert fit.rate > 0.0
