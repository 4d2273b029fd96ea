"""Discounted solves and the vanishing-discount ergodic extraction."""

import math
from collections import Counter

import numpy as np
import pytest

import oracle_reference as oracle
from ergolab import bsde, ebsde, model, sde
from ergolab.ebsde import (HorizonBudgetError, discount_horizon,
                           extract_ergodic, lambda_by_time_average,
                           solve_alpha_bsde)
from ergolab.sde import INIT_DRAW_STEP, derive_seed

# a small three-discount ladder: horizons of 195, 424 and 917 steps
LADDER = dict(n_particles=400, dt=0.05, alphas=(0.8, 0.4, 0.2), seed=11)


@pytest.mark.parametrize("alpha", [0.4, 0.1])
def test_constant_driver_discounted_value(ou_spec, erg_ou, alpha):
    c = 0.8
    spec = ou_spec.replace(driver=lambda x, mu, z: np.full(x.shape[0], c))
    sol = solve_alpha_bsde(spec, erg_ou.mu_star, alpha, dt=0.02,
                           n_particles=1000, seed=0)
    want = (c / alpha) * (1.0 - math.exp(-alpha * sol.t_alpha))
    assert sol.anchor_value == pytest.approx(want, abs=1e-3 * c / alpha)
    assert sol.lambda_candidate == pytest.approx(c, abs=2e-3 * c)
    assert sol.truncation_bound <= 1e-3 * (sol.c_hat / alpha) * 1.01


def test_candidate_sequence_squeezes_toward_limit(erg_ou):
    cand = {a.alpha: a.lambda_candidate for a in erg_ou.trace}
    assert cand[0.1] == pytest.approx(oracle.LAMBDA_QUADRATIC, abs=0.05)
    # successive candidates sit closer to each other than to the limit
    for hi, lo in ((0.4, 0.2), (0.2, 0.1)):
        assert abs(cand[hi] - cand[lo]) < \
            abs(cand[hi] - oracle.LAMBDA_QUADRATIC)


def test_extraction_on_quadratic_example(erg_ou):
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


def test_extraction_on_lq_example(erg_lq):
    assert erg_lq.stable
    assert erg_lq.lambda_ == pytest.approx(oracle.LAMBDA_LQ, abs=0.05)
    for x in (1.0, 2.0):
        assert float(erg_lq.u_bar.eval_node(0, np.array([x]))[0]) == \
            pytest.approx(oracle.u_bar_lq(x), abs=0.1 * (1 + x * x))
        assert float(erg_lq.zeta_bar.eval_node(0, np.array([x]))[0]) == \
            pytest.approx(oracle.zeta_bar_lq(x), abs=0.15 * (1 + abs(x)))


def test_growth_constant_stable_across_discounts(ou_spec, erg_ou):
    # fitted C in |u^alpha| <= (C/alpha)(1 + |x|^(q+1) + ||theta||^(q+1))
    q = ou_spec.constants.q
    atoms = erg_ou.mu_star.points
    theta_term = float(np.mean(np.abs(atoms) ** (2 * q + 2))) \
        ** ((q + 1) / (2 * q + 2))
    envelope = 1.0 + np.abs(atoms[:, 0]) ** (q + 1) + theta_term
    c_hat = {}
    for a in erg_ou.trace:
        vals = np.abs(np.asarray(a.u.eval_node(0, atoms)))
        c_hat[a.alpha] = a.alpha * float(np.max(vals / envelope))
    picked = [c_hat[a] for a in (0.4, 0.2, 0.1)]
    assert max(picked) <= 2.0 * min(picked)


def test_centered_surfaces_equicontinuous(erg_ou):
    grid = np.linspace(-2.0, 2.0, 41)
    centered = []
    for a in erg_ou.trace:  # alphas sorted descending
        vals = a.u.eval_node(0, grid) - a.anchor_value
        centered.append(np.asarray(vals))
    gaps = [float(np.max(np.abs(u - v)))
            for u, v in zip(centered, centered[1:])]
    assert gaps[-1] < gaps[0]


def test_lambda_agrees_across_anchors(ou_spec):
    # uniqueness proxy: the extracted average must not depend on where the
    # value function is pinned to zero
    kwargs = dict(n_particles=2000, dt=0.02, seed=6, alphas=(0.4, 0.1))
    at_zero = extract_ergodic(ou_spec, anchor=np.array([0.0]), **kwargs)
    at_one = extract_ergodic(ou_spec, anchor=np.array([1.0]), **kwargs)
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


def test_ladder_columns_equal_their_one_discount_solves(ou_spec):
    erg = extract_ergodic(ou_spec, **LADDER)
    for a in erg.trace:
        one = solve_alpha_bsde(ou_spec, erg.mu_star, a.alpha,
                               dt=LADDER["dt"],
                               n_particles=LADDER["n_particles"],
                               seed=derive_seed(LADDER["seed"], 17))
        assert one.t_alpha == a.t_alpha
        assert one.anchor_value == pytest.approx(a.anchor_value, abs=1e-12)
        assert one.lambda_candidate == pytest.approx(a.lambda_candidate,
                                                     abs=1e-12)
        for field in ("u", "zeta"):
            fa, fo = getattr(a.solution, field), getattr(one.solution, field)
            # the shared cloud's prefix is the one-discount cloud bit for bit
            for name in ("times", "centers", "scales"):
                np.testing.assert_array_equal(getattr(fa, name),
                                              getattr(fo, name))
            np.testing.assert_allclose(fa.coeffs, fo.coeffs, rtol=0,
                                       atol=1e-12)


def test_ladder_factors_each_node_and_draws_each_block_once_per_pass(
        ou_spec, monkeypatch):
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
    monkeypatch.setattr(ebsde, "_NodeRegressor", CountedRegressor)
    monkeypatch.setattr(bsde, "gaussian_increments", counted)
    monkeypatch.setattr(sde, "gaussian_increments", counted)
    erg = extract_ergodic(ou_spec, **LADDER)

    ends = [round(a.t_alpha / LADDER["dt"]) for a in erg.trace]
    m = max(ends)
    # one factorisation per sweep node, plus one over mu*'s atoms for the
    # gradient z-field
    assert sorted(factored) == sorted([*range(m + 1), 0])
    assert len(factored) < sum(e + 1 for e in ends)

    cloud = derive_seed(LADDER["seed"], 17)
    burn = derive_seed(LADDER["seed"], 1)
    n_burn = round(12.0 / ou_spec.contraction_rate_bound() / LADDER["dt"])
    # the invariant-measure run, the cloud's start, and two passes over
    # the cloud: forward, then the sweep's replay
    want = Counter({(burn, g): 1 for g in range(n_burn)})
    want[cloud, INIT_DRAW_STEP] = 1
    want.update({(cloud, g): 2 for g in range(m)})
    assert drawn == want
    assert sum(drawn.values()) == 2 * m + 1 + n_burn


def test_report_carries_the_ladder_diagnostics(erg_ou):
    rep = erg_ou.report()
    for a in erg_ou.trace:
        tag = f"{a.alpha:g}".replace(".", "p")
        assert rep[f"max_residual_a{tag}"] == a.solution.residuals.max()
        assert rep[f"picard_warning_a{tag}"] == int(a.solution.picard_warning)
    assert rep["mu_star_w2"] == erg_ou.mu_star_w2 >= 0.0
    assert rep["mu_star_w2_tol"] > 0.0
