"""Discounted solves, the vanishing-discount ladder, and the recentred
fixed point for the ergodic triple."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest

import oracle_reference as oracle
from conftest import TIME_DRIFT_SCN
from ergolab import bsde, ebsde, ltb, model, sde
from ergolab.ebsde import (HorizonBudgetError, discount_horizon,
                           extract_ergodic, extract_ergodic_vanishing,
                           lambda_by_time_average)
from ergolab.measure import EmpiricalMeasure
from ergolab.sde import derive_seed

# a small three-discount ladder: horizons of 195, 424 and 917 steps
LADDER = dict(n_particles=400, dt=0.05, alphas=(0.8, 0.4, 0.2), seed=11)


@pytest.mark.parametrize("alpha", [0.4, 0.1])
def test_constant_driver_discounted_value(ou_spec, erg_ou, alpha):
    c = 0.8
    spec = ou_spec.replace(driver=lambda x, mu, z: np.full(x.shape[0], c))
    operator = bsde._Operator(spec, erg_ou.mu_star.points, 0.02,
                              law=erg_ou.mu_star)
    sol, = ebsde._discounted_solves(spec, erg_ou.mu_star, (alpha,), dt=0.02,
                                    operator=operator, anchor=None)
    want = (c / alpha) * (1.0 - math.exp(-alpha * sol.t_alpha))
    assert sol.anchor_value == pytest.approx(want, abs=1e-3 * c / alpha)
    assert sol.lambda_candidate == pytest.approx(c, abs=2e-3 * c)
    assert sol.truncation_bound <= 1e-3 * (sol.c_hat / alpha) * 1.01


def test_candidate_sequence_squeezes_toward_limit(erg_ou_ladder):
    cand = {a.alpha: a.lambda_candidate for a in erg_ou_ladder.trace}
    assert cand[0.1] == pytest.approx(oracle.LAMBDA_QUADRATIC, abs=0.05)
    # successive candidates sit closer to each other than to the limit
    for hi, lo in ((0.4, 0.2), (0.2, 0.1)):
        assert abs(cand[hi] - cand[lo]) < \
            abs(cand[hi] - oracle.LAMBDA_QUADRATIC)


# Measured over seeds 1-30 at N = 3000, dt = 0.02: every candidate lies
# within 1.13e-4 of the discounted Euler chain's 1 / (2 + alpha - dt); the
# bound is three times that.
@pytest.mark.parametrize("seed", [42, 7])
def test_ladder_candidates_match_the_discounted_euler_chain(ou_spec, seed):
    dt = 0.02
    erg = extract_ergodic_vanishing(ou_spec, n_particles=3000, dt=dt,
                                    seed=seed)
    for a in erg.trace:
        assert a.lambda_candidate == pytest.approx(
            oracle.alpha_candidate_quadratic_euler(a.alpha, dt), abs=3.4e-4)


@pytest.mark.parametrize("method", ["erg_ou", "erg_ou_ladder"])
def test_extraction_on_quadratic_example(request, method):
    erg_ou = request.getfixturevalue(method)
    assert erg_ou.stable
    assert erg_ou.lambda_ == pytest.approx(oracle.LAMBDA_QUADRATIC, abs=0.05)
    assert float(erg_ou.u_bar.eval_node(0, np.array([0.0]))[0]) == 0.0
    for x in (1.0, 2.0, -1.5):
        assert float(erg_ou.u_bar.eval_node(0, np.array([x]))[0]) == \
            pytest.approx(oracle.u_bar_quadratic(x), abs=0.1 * (1 + x * x))
        assert float(erg_ou.zeta_bar.eval_node(0, np.array([x]))[0]) == \
            pytest.approx(oracle.zeta_bar_quadratic(x), abs=0.15 * (1 + abs(x)))
    assert erg_ou.mu_star.m2() == pytest.approx(0.5, abs=0.05)


def test_stationary_driver_average_self_consistent(ou_spec, erg_ou, lq_spec,
                                                   erg_lq):
    # integrating the stationary equation over one step forces lambda to
    # equal the driver's mean under mu* at the stationary z-field
    for spec, erg in ((ou_spec, erg_ou), (lq_spec, erg_lq)):
        atoms = erg.mu_star.points
        z = np.asarray(erg.zeta_bar.eval_node(0, atoms)).reshape(len(atoms), -1)
        mean_f = float(np.mean(spec.driver(atoms, erg.mu_star, z)))
        assert mean_f == pytest.approx(erg.lambda_, abs=0.05)


@pytest.mark.parametrize("method", ["erg_lq", "erg_lq_ladder"])
def test_extraction_on_lq_example(request, method):
    erg_lq = request.getfixturevalue(method)
    assert erg_lq.stable
    assert erg_lq.lambda_ == pytest.approx(oracle.LAMBDA_LQ, abs=0.05)
    for x in (1.0, 2.0):
        assert float(erg_lq.u_bar.eval_node(0, np.array([x]))[0]) == \
            pytest.approx(oracle.u_bar_lq(x), abs=0.1 * (1 + x * x))
        assert float(erg_lq.zeta_bar.eval_node(0, np.array([x]))[0]) == \
            pytest.approx(oracle.zeta_bar_lq(x), abs=0.15 * (1 + abs(x)))


def test_growth_constant_stable_across_discounts(ou_spec, erg_ou_ladder):
    # fitted C in |u^alpha| <= (C/alpha)(1 + |x|^(q+1) + ||theta||^(q+1))
    q = ou_spec.constants.q
    atoms = erg_ou_ladder.mu_star.points
    theta_term = float(np.mean(np.abs(atoms) ** (2 * q + 2))) \
        ** ((q + 1) / (2 * q + 2))
    envelope = 1.0 + np.abs(atoms[:, 0]) ** (q + 1) + theta_term
    c_hat = {}
    for a in erg_ou_ladder.trace:
        vals = np.abs(np.asarray(a.u.eval_node(0, atoms)))
        c_hat[a.alpha] = a.alpha * float(np.max(vals / envelope))
    picked = [c_hat[a] for a in (0.4, 0.2, 0.1)]
    assert max(picked) <= 2.0 * min(picked)


def test_centered_surfaces_equicontinuous(erg_ou_ladder):
    grid = np.linspace(-2.0, 2.0, 41)
    centered = []
    for a in erg_ou_ladder.trace:  # alphas sorted descending
        vals = a.u.eval_node(0, grid) - a.anchor_value
        centered.append(np.asarray(vals))
    gaps = [float(np.max(np.abs(u - v)))
            for u, v in zip(centered, centered[1:])]
    assert gaps[-1] < gaps[0]


def test_lambda_agrees_across_anchors(ou_spec):
    # uniqueness proxy: the extracted average must not depend on where the
    # value function is pinned to zero
    kwargs = dict(n_particles=2000, dt=0.02, seed=6, alphas=(0.4, 0.1))
    at_zero = extract_ergodic_vanishing(ou_spec, anchor=np.array([0.0]),
                                        **kwargs)
    at_one = extract_ergodic_vanishing(ou_spec, anchor=np.array([1.0]),
                                       **kwargs)
    assert abs(at_zero.lambda_ - at_one.lambda_) <= 0.05
    # each surface is zero at its own anchor
    assert float(at_zero.u_bar.eval_node(0, np.array([0.0]))[0]) == 0.0
    assert float(at_one.u_bar.eval_node(0, np.array([1.0]))[0]) == 0.0


def test_time_average_quadratic(ou_spec):
    est = lambda_by_time_average(ou_spec, t_long=60.0, dt=0.02,
                                 n_particles=4000, seed=3)
    assert est.value == pytest.approx(oracle.LAMBDA_QUADRATIC, abs=0.02)
    assert est.se > 0.0
    assert est.t_burn < est.t_long


def test_time_average_constant_driver_is_exact(ou_spec):
    spec = ou_spec.replace(driver=lambda x, mu, z: np.full(x.shape[0], 0.37))
    est = lambda_by_time_average(spec, t_long=40.0, dt=0.02,
                                 n_particles=200, seed=0)
    assert est.value == pytest.approx(0.37, abs=1e-12)


def test_time_average_agrees_with_extraction_on_lq(lq_spec, erg_lq):
    est = lambda_by_time_average(lq_spec, t_long=40.0, dt=0.02,
                                 n_particles=3000, seed=8,
                                 zeta=erg_lq.zeta_bar)
    assert abs(est.value - erg_lq.lambda_) <= 0.05


def test_horizon_guards(ou_spec):
    with pytest.raises(ValueError, match="transient bias"):
        lambda_by_time_average(ou_spec, t_long=5.0, dt=0.02,
                               n_particles=100, seed=0)
    with pytest.raises(HorizonBudgetError, match="budget"):
        discount_horizon(alpha=1e-6, c_hat=1.0, dt=0.01)
    with pytest.raises(ValueError, match="positive"):
        discount_horizon(alpha=0.0, c_hat=1.0, dt=0.01)


def test_report_carries_the_ladder_diagnostics(erg_ou_ladder):
    rep = erg_ou_ladder.report()
    for a in erg_ou_ladder.trace:
        tag = f"{a.alpha:g}".replace(".", "p")
        assert rep[f"fit_rmse_a{tag}"] == a.fit_rmse
    assert rep["mu_star_w2"] == erg_ou_ladder.mu_star_w2 >= 0.0
    assert rep["mu_star_w2_tol"] > 0.0


# ---------------------------------------------------------------------------
# The recentred fixed point
# ---------------------------------------------------------------------------

def test_both_methods_share_mu_star(erg_ou, erg_ou_ladder, erg_lq,
                                    erg_lq_ladder):
    for fixed, ladder in ((erg_ou, erg_ou_ladder), (erg_lq, erg_lq_ladder)):
        np.testing.assert_array_equal(fixed.mu_star.points,
                                      ladder.mu_star.points)
        assert fixed.mu_star_w2 == ladder.mu_star_w2
        assert fixed.trace == () and len(ladder.trace) == 4


# Measured over seeds 1-30 at N = 3000, dt = 0.02: |lambda - lambda_dt| is
# at most 1e-4 (sd 3e-5); u_bar - u_dt is linear in x with slope at most
# 0.0098 (sd 0.0052) and zeta_bar - zeta_dt at most 0.0098 (sd 0.0052),
# both from the shift that mu*'s sample mean gives the drift. Each bound is
# three times the worst seed.
@pytest.mark.parametrize("seed", [42, 7])
def test_fixed_point_matches_the_euler_chain(ou_spec, seed):
    dt = 0.02
    erg = extract_ergodic(ou_spec, n_particles=3000, dt=dt, seed=seed)
    assert erg.stable
    assert erg.lambda_ == pytest.approx(oracle.lambda_quadratic_euler(dt),
                                        abs=3e-4)
    for x in (1.0, 2.0, -1.5):
        pt = np.array([x])
        assert float(erg.u_bar.eval_node(0, pt)[0]) == pytest.approx(
            oracle.u_bar_quadratic_euler(x, dt), abs=0.03 * abs(x))
        assert float(erg.zeta_bar.eval_node(0, pt)[0]) == pytest.approx(
            oracle.zeta_bar_quadratic_euler(x, dt), abs=0.03)
    # the chain's quadratic relative value lies in the cubic basis
    assert erg.fit_rmse < 1e-10


def test_fixed_point_lambda_does_not_depend_on_the_anchor(ou_spec):
    # recentring elsewhere shifts every iterate by a constant, so both runs
    # settle on one increment and one surface up to that constant
    kwargs = dict(n_particles=2000, dt=0.02, seed=6)
    at_zero = extract_ergodic(ou_spec, anchor=np.array([0.0]), **kwargs)
    at_one = extract_ergodic(ou_spec, anchor=np.array([1.0]), **kwargs)
    assert at_one.lambda_ == pytest.approx(at_zero.lambda_, abs=1e-7)
    grid = np.linspace(-2.0, 2.0, 9)
    shift = at_one.u_bar.eval_node(0, grid) - at_zero.u_bar.eval_node(0, grid)
    assert np.ptp(shift) < 1e-7
    assert float(at_zero.u_bar.eval_node(0, np.array([0.0]))[0]) == 0.0
    assert float(at_one.u_bar.eval_node(0, np.array([1.0]))[0]) == 0.0


@pytest.mark.parametrize("extract, kwargs", [
    (extract_ergodic, {}),
    (extract_ergodic_vanishing, {"alphas": LADDER["alphas"]})],
    ids=["extract_ergodic", "extract_ergodic_vanishing"])
def test_fixed_point_factors_once_and_draws_only_mu_star(ou_spec, monkeypatch,
                                                         extract, kwargs):
    factored = []
    drawn = Counter()
    draw = sde.gaussian_increments

    class CountedRegressor(bsde._NodeRegressor):
        def __init__(self, states, exponents, node):
            factored.append(node)
            super().__init__(states, exponents, node)

    def counted(seed, step, *args, **kwargs):
        drawn[seed, step] += 1
        return draw(seed, step, *args, **kwargs)

    monkeypatch.setattr(bsde, "_NodeRegressor", CountedRegressor)
    monkeypatch.setattr(bsde, "gaussian_increments", counted)
    monkeypatch.setattr(sde, "gaussian_increments", counted)
    extract(ou_spec, n_particles=400, dt=0.05, seed=11, **kwargs)
    # one regression for the one-step operator and the gradient z-field
    assert factored == [0]
    # the invariant-measure run is the only noise
    burn = derive_seed(11, 1)
    n_burn = round(12.0 / ou_spec.contraction_rate_bound() / 0.05)
    assert drawn == Counter({(burn, g): 1 for g in range(n_burn)})


@pytest.mark.parametrize("extract", [extract_ergodic,
                                     extract_ergodic_vanishing])
def test_degree_below_growth_is_refused(ou_spec, extract):
    # a linear basis cannot hold ou-attract's quadratic value surface: a
    # fixed point on it settles, stable, on lambda = 0.5489, not 0.50505
    with pytest.raises(ValueError, match="basis degree 1"):
        extract(ou_spec, n_particles=200, dt=0.05, degree=1, seed=1)


def test_law_held_fixed_refuses_a_drift_that_reads_t(ou_spec, monkeypatch):
    # both routes read the coefficients at t = 0 only, so they refuse a
    # drift declared as reading t, by the compiler or by a Python caller,
    # before they step its burn-in
    steps = []
    monkeypatch.setattr(sde, "iter_mv",
                        lambda *args, **kwargs: steps.append(args))
    specs = (model.parse_scenario(TIME_DRIFT_SCN).spec,
             ou_spec.replace(drift=lambda t, x, mu: -x + 2.0 * np.sin(3 * t),
                             reads_t=True))
    for spec, route in itertools.product(
            specs, (extract_ergodic, extract_ergodic_vanishing)):
        with pytest.raises(ValueError, match="reads t"):
            route(spec, n_particles=200, dt=0.05, seed=1)
    assert steps == []


def test_undeclared_law_read_is_refused_at_the_first_step(ou_spec):
    # the drift reads m2 but the spec declares the mean alone: every run
    # refuses it at its first Euler step, before any result is formed
    spec = ou_spec.replace(
        drift=lambda t, x, mu: -x - 0.5 * mu.mean() - 0.01 * mu.m2())
    refused = r"^m2\(\) at t = 0: "
    with pytest.raises(ValueError, match=refused):
        extract_ergodic(spec, n_particles=200, dt=0.05, seed=1)
    with pytest.raises(ValueError, match=refused):
        lambda_by_time_average(spec, t_long=30.0, dt=0.05, n_particles=200)
    with pytest.raises(ValueError, match=refused):
        ltb.ltb1_experiment(spec, 0.5, t_grid=(1.0, 2.0), dt=0.05,
                            n_particles=200)


def test_fixed_point_that_does_not_settle_is_flagged(ou_spec):
    # without mean reversion the relative values grow without bound, so
    # the iteration runs into its cap
    spec = ou_spec.replace(drift=lambda t, x, mu: np.zeros_like(x))
    with pytest.warns(RuntimeWarning, match="did not settle"):
        erg = extract_ergodic(spec, n_particles=200, dt=0.05, seed=0,
                              t_burn=10.0)
    assert not erg.stable


def _gaussian_polynomial(mean, chol, exponents):
    """prod_j (mean_j + (chol xi)_j)^e_j expanded in xi, as {powers: coeff}."""
    d = len(mean)
    poly = {(0,) * d: 1.0}
    for j, power in enumerate(exponents):
        for _ in range(power):
            out = Counter()
            for key, coef in poly.items():
                out[key] += coef * mean[j]
                for k in range(d):
                    bumped = list(key)
                    bumped[k] += 1
                    out[tuple(bumped)] += coef * chol[j, k]
            poly = out
    return poly


def _normal_expectation(poly, times_xi=None):
    """E[poly(xi)] (times xi_k if given) for xi ~ N(0, I), from
    E[xi^p] = (p - 1)!! for even p and 0 for odd p."""
    total = 0.0
    for key, coef in poly.items():
        powers = list(key)
        if times_xi is not None:
            powers[times_xi] += 1
        total += coef * math.prod(
            0 if p % 2 else math.prod(range(p - 1, 0, -2)) for p in powers)
    return total


@pytest.mark.parametrize("dim,sigma_reads_x", [(1, False), (2, False),
                                               (1, True)],
                         ids=["1", "2", "1-sigma-of-x"])
def test_expectation_matrices_match_gaussian_moments(ou_spec, dim,
                                                     sigma_reads_x):
    dt = 0.1
    if dim == 1:
        spec, sigma = ou_spec, lambda x: np.ones((len(x), 1, 1))  # noqa: E731
        drift = lambda x: -x - 0.5 * x.mean(axis=0)  # noqa: E731
        if sigma_reads_x:
            # one diffusion per particle: (N, 1, 1)
            sigma = lambda x: (1.0 + 0.2 * np.tanh(x))[:, :, None]  # noqa: E731
            spec = spec.replace(diffusion=lambda x, mu: sigma(x))
    else:
        # a full diffusion and a drift that mixes the coordinates
        full = np.array([[1.0, 0.0], [0.6, 0.8]])
        sigma = lambda x: np.broadcast_to(full, (len(x), 2, 2))  # noqa: E731
        mix = np.array([[1.0, 0.3], [-0.2, 0.7]])
        drift = lambda x: -x @ mix.T  # noqa: E731
        spec = ou_spec.replace(dim=2, drift=lambda t, x, mu: drift(x),
                               diffusion=lambda x, mu: full, name="mixed-2d")
    # with a zero driver the target is the conditional expectation itself
    spec = spec.replace(driver=lambda x, mu, z: np.zeros(x.shape[0]))
    x = np.random.default_rng(3).normal(0.0, 0.7, (40, dim))
    law = EmpiricalMeasure(x)
    held = bsde._Operator(spec, x, dt, 3, law=law)
    reg = held.reg
    exponents = reg.exponents
    # A's and Z's columns: the held matrices' targets of the unit vectors
    unit = [held.target(e) for e in np.eye(len(exponents))]
    a = np.column_stack([y for y, _ in unit])
    z = np.stack([zm for _, zm in unit], axis=-1)
    # the backward sweep's route: the moments formed at the node
    c = np.random.default_rng(4).normal(size=len(exponents))
    e_val, z_val = bsde._Operator(spec, x, dt, 3).target(c, 0.0, law)
    np.testing.assert_allclose(e_val, a @ c, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(z_val, z @ c, rtol=1e-12, atol=1e-12)
    assert a.shape == (40, len(exponents))
    assert z.shape == (40, dim, len(exponents))
    # standardized X_1 = mean + chol xi with xi ~ N(0, I), per particle
    chol = sigma(x) * math.sqrt(dt) / reg.scale[:, None]
    means = (x + dt * drift(x) - reg.center) / reg.scale
    for i, b in itertools.product(range(len(x)), range(len(exponents))):
        poly = _gaussian_polynomial(means[i], chol[i], exponents[b])
        assert a[i, b] == pytest.approx(_normal_expectation(poly),
                                        rel=1e-12, abs=1e-12)
        for k in range(dim):
            # E[u(X_1) dW_k] / dt with dW = sqrt(dt) xi
            assert z[i, k, b] == pytest.approx(
                _normal_expectation(poly, k) / math.sqrt(dt),
                rel=1e-12, abs=1e-12)


# Measured over seeds 1-15, 42 and 7: |lambda - 2 lambda_dt| at most 2.9e-4,
# |u_bar - u_dt| at most 0.019 at the points below, |zeta_bar - zeta_dt| at
# most 0.017; the bounds are about three times those.
def test_separable_2d_ou_doubles_the_euler_lambda(ou_spec):
    dt = 0.02
    spec = ou_spec.replace(dim=2, diffusion=lambda x, mu: np.eye(2),
                           name="ou-2d")
    erg = extract_ergodic(spec, n_particles=3000, dt=dt, seed=42)
    assert erg.stable
    assert erg.lambda_ == pytest.approx(2.0 * oracle.lambda_quadratic_euler(dt),
                                        abs=1e-3)
    pts = np.array([[1.0, 1.0], [2.0, -1.0], [-1.5, 0.5]])
    want = [oracle.u_bar_quadratic_euler(p, dt)
            + oracle.u_bar_quadratic_euler(q, dt) for p, q in pts]
    np.testing.assert_allclose(erg.u_bar.eval_node(0, pts), want, rtol=0,
                               atol=0.06)
    want_z = [[oracle.zeta_bar_quadratic_euler(v, dt) for v in p] for p in pts]
    np.testing.assert_allclose(erg.zeta_bar.eval_node(0, pts), want_z,
                               rtol=0, atol=0.05)


def test_fixed_point_on_sine_weak_agrees_with_time_average(sine_spec):
    erg = extract_ergodic(sine_spec, n_particles=3000, dt=0.02, seed=42)
    assert erg.stable
    est = lambda_by_time_average(sine_spec, t_long=80.0, dt=0.02,
                                 n_particles=4000, seed=3)
    assert abs(erg.lambda_ - est.value) <= 0.05
