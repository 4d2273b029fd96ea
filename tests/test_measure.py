"""Atom-cloud measures: metric axioms, moments, the invariant-law estimator."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle_reference as oracle
from ergolab import model
from ergolab.measure import (ASSIGNMENT_LIMIT, EmpiricalMeasure, MeasureFlow,
                             UnsupportedSizeError, invariant_measure, moment,
                             wasserstein)

finite = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)


def cloud_1d(max_atoms=8):
    return st.lists(finite, min_size=1, max_size=max_atoms).map(EmpiricalMeasure)


def matched_clouds_2d():
    def build(n):
        pts = st.lists(st.tuples(finite, finite), min_size=n, max_size=n)
        return st.tuples(pts, pts, pts).map(
            lambda triple: tuple(EmpiricalMeasure(np.array(p)) for p in triple))
    return st.integers(min_value=1, max_value=5).flatmap(build)


def test_worked_examples():
    d0 = EmpiricalMeasure.dirac(0.0)
    d1 = EmpiricalMeasure.dirac(1.0)
    assert wasserstein(d0, d0, 2) == 0.0
    assert wasserstein(d0, d1, 1) == pytest.approx(1.0)
    assert wasserstein(EmpiricalMeasure([0.0, 2.0]),
                       EmpiricalMeasure([1.0, 3.0]), 2) == pytest.approx(1.0)
    assert moment(d0, 2) == 0.0
    assert moment(EmpiricalMeasure([-1.0, 1.0]), 2) == pytest.approx(1.0)


def test_large_gaussian_moment():
    pts = np.random.default_rng(7).normal(size=100_000)
    assert moment(EmpiricalMeasure(pts), 2) == pytest.approx(1.0, abs=0.02)


def test_weighted_quantile_coupling():
    mu = EmpiricalMeasure([0.0, 1.0], weights=[0.25, 0.75])
    nu = EmpiricalMeasure.dirac(1.0)
    assert wasserstein(mu, nu, 1) == pytest.approx(0.25)
    assert wasserstein(mu, nu, 2) == pytest.approx(0.5)


@settings(max_examples=40, deadline=None)
@given(cloud_1d(), cloud_1d(), cloud_1d(), st.sampled_from([1, 2]))
def test_metric_axioms_1d(mu, nu, rho, p):
    d = wasserstein(mu, nu, p)
    assert d >= 0.0
    assert d == pytest.approx(wasserstein(nu, mu, p), abs=1e-12)
    assert wasserstein(mu, mu, p) == pytest.approx(0.0, abs=1e-12)
    assert d <= wasserstein(mu, rho, p) + wasserstein(rho, nu, p) + 1e-9


@settings(max_examples=40, deadline=None)
@given(matched_clouds_2d(), st.sampled_from([1, 2]))
def test_metric_axioms_assignment(triple, p):
    mu, nu, rho = triple
    d = wasserstein(mu, nu, p)
    assert d >= 0.0
    assert d == pytest.approx(wasserstein(nu, mu, p), abs=1e-12)
    assert wasserstein(mu, mu, p) == pytest.approx(0.0, abs=1e-12)
    assert d <= wasserstein(mu, rho, p) + wasserstein(rho, nu, p) + 1e-9


@settings(max_examples=40, deadline=None)
@given(cloud_1d(), cloud_1d())
def test_w1_below_w2(mu, nu):
    assert wasserstein(mu, nu, 1) <= wasserstein(mu, nu, 2) + 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(st.lists(finite, min_size=n, max_size=n),
                        st.lists(finite, min_size=n, max_size=n))),
    st.sampled_from([1, 2]))
def test_quantile_agrees_with_assignment(pair, p):
    xs, ys = pair
    via_quantile = wasserstein(EmpiricalMeasure(xs), EmpiricalMeasure(ys), p)
    # same clouds pushed through the d > 1 assignment solver
    lift = lambda v: EmpiricalMeasure(np.column_stack([v, np.zeros(len(v))]))
    assert via_quantile == pytest.approx(wasserstein(lift(xs), lift(ys), p),
                                         abs=1e-10)
    assert via_quantile == pytest.approx(oracle.wp_bruteforce(xs, ys, p),
                                         abs=1e-9)


def test_validation_and_size_guards():
    with pytest.raises(ValueError):
        EmpiricalMeasure([0.0, np.inf])
    with pytest.raises(ValueError):
        EmpiricalMeasure([0.0, 1.0], weights=[0.5, 0.2])
    with pytest.raises(ValueError):
        EmpiricalMeasure([0.0, 1.0], weights=[-0.5, 1.5])
    big = EmpiricalMeasure(np.zeros((ASSIGNMENT_LIMIT + 1, 2)))
    with pytest.raises(UnsupportedSizeError, match=str(ASSIGNMENT_LIMIT)):
        wasserstein(big, big, 2)
    a = EmpiricalMeasure(np.zeros((3, 2)))
    b = EmpiricalMeasure(np.zeros((4, 2)))
    with pytest.raises(UnsupportedSizeError):
        wasserstein(a, b, 2)
    weighted = EmpiricalMeasure(np.zeros((3, 2)), weights=[0.5, 0.25, 0.25])
    with pytest.raises(UnsupportedSizeError):
        wasserstein(weighted, a, 2)
    with pytest.raises(ValueError):
        wasserstein(EmpiricalMeasure([0.0]), a, 2)


def test_flow_grid_rules():
    mu = EmpiricalMeasure([0.0, 1.0])
    flow = MeasureFlow.constant(mu, 0.0, 2.0)
    assert flow.covers(0.0, 2.0)
    assert not flow.covers(0.0, 2.1)
    assert flow.at_time(1.3) is mu
    with pytest.raises(ValueError):
        MeasureFlow([0.0, 0.0], (mu, mu))
    with pytest.raises(ValueError):
        MeasureFlow([0.0, 1.0], (mu, EmpiricalMeasure([0.0])))
    nodes = MeasureFlow([0.0, 1.0, 2.0],
                        (mu, EmpiricalMeasure([5.0, 6.0]), mu))
    assert nodes.at_time(-0.5) is nodes.measures[0]
    assert nodes.at_time(1.0).points[0, 0] == 5.0
    assert nodes.at_time(99.0) is mu


def test_invariant_law_reaches_stationarity(ou_spec):
    inv = invariant_measure(ou_spec, n_particles=10_000, dt=1e-2,
                            t_burn=20.0, seed=3)
    assert inv.stationary
    assert inv.measure.m2() == pytest.approx(
        oracle.stationary_variance(), abs=0.03)
    # an independent run lands within the sampling tolerance
    other = invariant_measure(ou_spec, n_particles=10_000, dt=1e-2,
                              t_burn=20.0, seed=4)
    assert wasserstein(inv.measure, other.measure, 2) <= inv.tolerance


def test_invariant_burn_in_guard(ou_spec):
    with pytest.raises(ValueError, match="burn-in"):
        invariant_measure(ou_spec, n_particles=100, dt=1e-2, t_burn=1.0, seed=0)


def test_invariant_burn_in_defaults_to_twelve_over_the_rate(ou_spec,
                                                            sine_spec):
    # one burn-in rule, read by the ergodic solvers and ``ergolab invariant``
    inv = invariant_measure(ou_spec, n_particles=100, dt=0.05, seed=0)
    assert inv.t_burn == 12.0 / ou_spec.contraction_rate_bound()
    # a weak regime whose outside-ball rate is spent by the diffusion
    # certifies no rate, so the burn-in must be given
    spent = sine_spec.replace(constants=dataclasses.replace(
        sine_spec.constants, k_s_x=sine_spec.constants.eta))
    assert spent.contraction_rate_bound() == 0.0
    with pytest.raises(ValueError, match="pass t_burn"):
        invariant_measure(spent, n_particles=100, dt=0.05, seed=0)
    assert invariant_measure(spent, n_particles=100, dt=0.05, t_burn=1.0,
                             seed=0).t_burn == 1.0


def test_noise_free_contraction_to_point_mass():
    spec = model.ProblemSpec(
        dim=1,
        drift=lambda t, x, mu: -x,
        diffusion=lambda x, mu: np.zeros((1, 1)),
        driver=lambda x, mu, z: np.zeros(x.shape[0]),
        terminal=lambda x, mu: np.zeros(x.shape[0]),
        constants=model.Constants(nu=1.0, eta=1.0, k_b_x=1.0, k_b_l=0.0,
                                  k_s_x=0.0, k_s_l=0.0, sigma0=0.0,
                                  r_ball=0.0, q=2.0, eps=1.0),
        name="noise-free")
    inv = invariant_measure(spec, n_particles=200, dt=1e-2, t_burn=10.0, seed=0)
    assert inv.stationary
    assert moment(inv.measure, 2) == pytest.approx(0.0, abs=1e-12)
