"""Radial Lyapunov tables and the reflection coupling."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle_reference as oracle
from ergolab import model
from ergolab.coupling import (CouplingRun, EllipticityError,
                              LyapunovConstants, LyapunovTable,
                              _radius_moments, build_lyapunov, kappa_star,
                              mollifier_reflect, mollifier_share,
                              simulate_reflection_coupling,
                              verify_lyapunov_inequality)
from ergolab.measure import EmpiricalMeasure, MeasureFlow, wasserstein
from ergolab.sde import iter_mv, simulate_mv

SINE = LyapunovConstants(eta=0.5, m_b=15.0, k_b_x=2.5, r_ball=6.0,
                         k_s_x=0.0, sigma0=1.0)


@pytest.fixture(scope="module")
def sine_table():
    return build_lyapunov(SINE, r_max=8.0, grid=1000)


@pytest.mark.parametrize("name", model.PRESET_NAMES)
def test_table_shape_invariants_per_preset(name):
    spec = model.preset(name)
    const = LyapunovConstants.from_spec(spec)
    r_max = 8.0 if const.r_ball > 0 else 4.0
    table = build_lyapunov(const, r_max=r_max, grid=400)
    assert float(table.phi[0]) == 0.0
    assert np.all(table.dphi >= 0)
    assert np.all(np.asarray(table.d2phi, dtype=float) <= 1e-12)
    assert np.all(np.diff(table.phi) >= 0)


def test_no_ball_collapses_to_linear():
    const = LyapunovConstants(eta=1.0, m_b=0.0, k_b_x=0.0, r_ball=0.0,
                              k_s_x=0.0, sigma0=1.0)
    table = build_lyapunov(const, r_max=4.0, grid=500)
    want = oracle.phi_strong_limit(table.r.astype(float), a=1.0)
    np.testing.assert_allclose(table.phi.astype(float), want, atol=1e-8)
    np.testing.assert_allclose(table.dphi.astype(float), 2.0, atol=1e-8)


def test_kappa_star_matches_hand_derivation(sine_table):
    r = np.linspace(0.0, 8.0, 161)
    np.testing.assert_allclose(kappa_star(r, SINE).astype(float),
                               oracle.kappa_star_sine(r), atol=1e-12)


def test_phi_sandwich_bounds(sine_table):
    t = sine_table
    a = SINE.eta - SINE.k_s_x
    r = t.r.astype(float)
    phi = t.phi.astype(float)
    assert np.all(phi >= (2.0 * SINE.sigma0 ** 2 / a) * r - 1e-9)
    assert np.all(phi <= t.dphi0 * r + 1e-9)
    cap = math.exp((SINE.eta + 2.0 * SINE.m_b / SINE.r_ball)
                   * SINE.r_ball ** 2 / (4.0 * SINE.sigma0 ** 2)) \
        * 2.0 * SINE.sigma0 ** 2 / a
    assert t.dphi0 <= cap + 1e-9
    # the tail slope settles at the no-ball value
    assert float(t.dphi[-1]) == pytest.approx(oracle.PHI_PRIME_TAIL_SINE,
                                              rel=1e-6)


def test_differential_inequality_margins(sine_table):
    t = sine_table
    assert abs(t.identity_margin()) <= 1e-6
    stronger = verify_lyapunov_inequality(
        t, lambda r: kappa_star(r, SINE).astype(float) - 1.0)
    assert stronger < t.identity_margin()
    weaker = verify_lyapunov_inequality(
        t, lambda r: kappa_star(r, SINE).astype(float) + 10.0)
    assert weaker > 0.0
    # the (r, kappa) pairs path rounds kappa to float64; Phi' ~ 1e10 near 0
    # amplifies that rounding, so agreement is only to ~ |kappa| eps max Phi'
    pairs = np.column_stack([t.r.astype(float),
                             kappa_star(t.r, SINE).astype(float)])
    envelope = 15.0 * np.finfo(float).eps * float(t.dphi0)
    assert verify_lyapunov_inequality(t, pairs) == pytest.approx(
        t.identity_margin(), abs=3.0 * envelope)


def test_build_guards():
    with pytest.raises(ValueError, match="exceed the ball"):
        build_lyapunov(SINE, r_max=5.0)
    with pytest.raises(ValueError, match="eta > k_s_x"):
        LyapunovConstants(eta=0.3, m_b=1.0, k_b_x=1.0, r_ball=1.0,
                          k_s_x=0.5, sigma0=1.0)


def test_mollifier_partition_of_unity():
    delta = 0.06
    r = np.concatenate([np.linspace(0.0, 3.0 * delta, 4001),
                        [0.0, delta / 2, delta, 10.0]])
    p1 = mollifier_reflect(r, delta)
    p2 = mollifier_share(r, delta)
    np.testing.assert_allclose(p1 ** 2 + p2 ** 2, 1.0, atol=1e-14)
    assert np.all(p1[r <= delta / 2] == 0.0)
    assert np.all(p1[r >= delta] == 1.0)
    grid = np.linspace(0.0, 2.0 * delta, 200_001)
    for fn in (mollifier_reflect, mollifier_share):
        slope = np.abs(np.diff(fn(grid, delta)) / np.diff(grid))
        assert slope.max() <= math.pi / delta + 1e-6


def _sine_flows(spec, T, n, seed):
    mv = simulate_mv(spec, EmpiricalMeasure.dirac(0.0), dt=0.01, T=T,
                     n_particles=n, seed=seed, record_every=10)
    return mv.flow


def test_identical_starts_stay_glued(sine_spec):
    flow = MeasureFlow.constant(EmpiricalMeasure.dirac(0.0), 0.0, 1.0)
    run = simulate_reflection_coupling(sine_spec, flow, flow, x0=1.0,
                                       x0_prime=1.0, dt=0.01, T=1.0,
                                       n_paths=50, seed=0)
    assert np.all(run.mean_radius == 0.0)
    assert np.all(run.se_radius == 0.0)


@settings(max_examples=60, deadline=None)
@given(n_paths=st.integers(2, 300), steps=st.integers(2, 6),
       seed=st.integers(0, 2 ** 32 - 1),
       log_scale=st.floats(-8.0, 8.0))
def test_radius_moments_match_the_stored_record(n_paths, steps, seed,
                                                log_scale):
    rng = np.random.default_rng(seed)
    radii = 10.0 ** log_scale * rng.exponential(size=(n_paths, steps))
    got = [_radius_moments(radii[:, j]) for j in range(steps)]
    mean = np.array([m for m, _ in got])
    se = np.array([s for _, s in got])
    assert np.array_equal(mean, radii.mean(axis=0))
    assert np.array_equal(
        se, radii.std(axis=0, ddof=1) / math.sqrt(n_paths))


def test_radius_record_contract(sine_spec):
    flow = MeasureFlow.constant(EmpiricalMeasure.dirac(0.0), 0.0, 0.5)
    run = simulate_reflection_coupling(sine_spec, flow, flow, 0.0, 2.0,
                                       dt=0.01, T=0.5, n_paths=64, seed=9)
    n_steps = 50
    assert run.radii.shape == (64, n_steps + 1)
    assert run.radii.n_paths == 64
    assert run.radii.nbytes <= 16 * (n_steps + 1) + 64
    assert run.mean_radius.shape == run.times.shape


def test_coupling_memory_is_a_fraction_of_the_radius_record(sine_spec):
    T, dt, n = 10.0, 0.005, 4000
    flow = MeasureFlow.constant(EmpiricalMeasure.dirac(0.0), 0.0, T)
    record_bytes = n * (round(T / dt) + 1) * 8
    tracemalloc.start()
    try:
        simulate_reflection_coupling(sine_spec, flow, flow, -2.0, 2.0,
                                     dt=dt, T=T, n_paths=n, seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < record_bytes / 4


def test_coupled_radius_contracts(sine_spec):
    flow = _sine_flows(sine_spec, T=8.0, n=800, seed=21)
    run = simulate_reflection_coupling(sine_spec, flow, flow, x0=-2.0,
                                       x0_prime=2.0, dt=0.01, T=8.0,
                                       n_paths=400, seed=22)
    assert run.rate > 0.0
    assert run.monotone_after(run.rate_window_start, slack_se=2.0)
    assert run.mean_radius[-1] < run.mean_radius[0]


def test_coupling_preserves_marginals(sine_spec):
    n = 1500
    flow = _sine_flows(sine_spec, T=2.0, n=n, seed=31)
    run = simulate_reflection_coupling(sine_spec, flow, flow, x0=0.0,
                                       x0_prime=1.0, dt=0.01, T=2.0,
                                       n_paths=n, seed=32)

    def plain_run(x0, seed):
        *_, (_, _, x, _, _) = iter_mv(sine_spec, np.full((n, 1), x0), 0.01,
                                      200, seed, flow=flow)
        return EmpiricalMeasure(x)

    plain = plain_run(0.0, 33)
    plain_p = plain_run(1.0, 34)
    # Monte Carlo scale: two independent clouds of the same law
    extra = plain_run(0.0, 35)
    mc = max(wasserstein(plain, extra, 2), 0.01)
    first = wasserstein(EmpiricalMeasure(run.terminal_states), plain, 2)
    second = wasserstein(EmpiricalMeasure(run.terminal_states_prime),
                         plain_p, 2)
    assert first <= 3.0 * mc
    assert second <= 3.0 * mc


def test_coupling_argument_guards(sine_spec):
    flow = MeasureFlow.constant(EmpiricalMeasure.dirac(0.0), 0.0, 1.0)
    with pytest.raises(ValueError, match="mollifier width"):
        simulate_reflection_coupling(sine_spec, flow, flow, 0.0, 1.0,
                                     dt=0.01, T=1.0, n_paths=10, seed=0,
                                     delta=6.0)
    with pytest.raises(ValueError, match="at least 2"):
        simulate_reflection_coupling(sine_spec, flow, flow, 0.0, 1.0,
                                     dt=0.01, T=1.0, n_paths=1, seed=0)


def test_ellipticity_floor_is_checked():
    spec = model.ProblemSpec(
        dim=1,
        drift=lambda t, x, mu: -x,
        diffusion=lambda x, mu: np.array([[0.5]]),  # below declared sigma0
        driver=lambda x, mu, z: np.zeros(x.shape[0]),
        terminal=lambda x, mu: np.zeros(x.shape[0]),
        constants=model.Constants(nu=1.0, eta=1.0, k_b_x=1.0, k_b_l=0.0,
                                  k_s_x=0.0, k_s_l=0.0, sigma0=1.0,
                                  r_ball=0.0, q=2.0, eps=1.0),
        name="thin-noise")
    flow = MeasureFlow.constant(EmpiricalMeasure.dirac(0.0), 0.0, 1.0)
    with pytest.raises(EllipticityError):
        simulate_reflection_coupling(spec, flow, flow, 0.0, 1.0,
                                     dt=0.01, T=1.0, n_paths=4, seed=0)


def test_run_csv_and_se(sine_spec):
    flow = MeasureFlow.constant(EmpiricalMeasure.dirac(0.0), 0.0, 0.5)
    run = simulate_reflection_coupling(sine_spec, flow, flow, 0.0, 2.0,
                                       dt=0.01, T=0.5, n_paths=64, seed=9)
    assert run.se_radius.shape == run.mean_radius.shape
    assert np.all(run.se_radius >= 0.0)


@pytest.mark.parametrize("dt, T", [(0.0, 1.0), (0.3, 1.0)])
def test_horizon_must_be_whole_steps(sine_spec, dt, T):
    flow = MeasureFlow.constant(EmpiricalMeasure.dirac(0.0), 0.0, 1.0)
    with pytest.raises(ValueError):
        simulate_reflection_coupling(sine_spec, flow, flow, 0.0, 2.0,
                                     dt=dt, T=T, n_paths=4, seed=0)
