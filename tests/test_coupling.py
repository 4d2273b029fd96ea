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
                              _fit_radius_decay, _mollifier_angle,
                              _mollifier_pair, _radius_moments,
                              _sqrt_psd_gap, build_lyapunov, kappa_star,
                              mollifier_reflect, mollifier_share,
                              simulate_reflection_coupling,
                              verify_lyapunov_inequality)
from ergolab.measure import EmpiricalMeasure, MeasureFlow, wasserstein
from ergolab.sde import interacting_flow, iter_mv, noise_blocks, simulate_mv

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


@pytest.mark.parametrize("delta", [0.06, 2.0 * math.sqrt(0.01), 1e-3])
def test_band_limited_pair_is_sin_and_cos_of_the_angle(delta):
    r = np.concatenate([[0.0, delta / 2, delta, 1e6 * delta, 1e300],
                        np.linspace(0.0, 1.5 * delta, 3001),
                        np.nextafter(delta / 2, [0.0, np.inf]),
                        np.nextafter(delta, [0.0, np.inf])])
    angle = _mollifier_angle(r, delta)
    inside = np.count_nonzero((angle > 0.0) & (angle < 0.5 * math.pi))
    assert inside > 1000
    p1, p2 = _mollifier_pair(r, delta)
    assert np.array_equal(p1, np.sin(angle))
    assert np.array_equal(p2, np.cos(angle))
    # the loop's form: stale buffers overwritten in place
    bufs = [np.full(r.shape, np.nan) for _ in range(3)]
    q1, q2 = _mollifier_pair(r, delta, *bufs)
    assert q1 is bufs[1] and q2 is bufs[2]
    assert np.array_equal(q1, p1) and np.array_equal(q2, p2)
    assert mollifier_reflect(delta, delta) == 1.0
    assert mollifier_share(0.0, delta) == 1.0


def _sine_flows(spec, T, n, seed):
    return simulate_mv(spec, EmpiricalMeasure.dirac(0.0), dt=0.01, T=T,
                       n_particles=n, seed=seed, record_every=10)


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
    acc, dev = np.empty(n_paths), np.empty(n_paths)
    got = [_radius_moments(radii[:, j].copy(), acc, dev)
           for j in range(steps)]
    assert got == [_radius_moments(radii[:, j]) for j in range(steps)]
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
    assert run.monotone_after(run.rate_window_start)
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


@pytest.mark.parametrize("per_particle", [False, True])
def test_ellipticity_is_checked_at_every_new_diffusion_value(per_particle):
    # sigma drops below sigma0 = 1 once the flow reaches its node at t = 0.3
    def diffusion(x, mu):
        sig = 1.2 if mu.mean() < 0.5 else 0.9
        return np.full((x.shape[0], 1, 1), sig) if per_particle \
            else np.array([[sig]])

    spec = model.preset("ou-attract").replace(diffusion=diffusion)
    flow = MeasureFlow([0.0, 0.3, 1.0],
                       [EmpiricalMeasure.dirac(v) for v in (0.0, 1.0, 1.0)])
    with pytest.raises(EllipticityError, match=r"at step 30 \(t = 0\.3\)"):
        simulate_reflection_coupling(spec, flow, flow, 0.0, 1.0, dt=0.01,
                                     T=1.0, n_paths=4, seed=0)


def _reference_coupling(spec, flow, flow_prime, x0, x0_prime, dt, T, n,
                        seed):
    """The reflection-coupling step written plainly: fresh temporaries,
    sine and cosine of the whole angle, the sigma-gap root of both legs at
    every step, and the radii kept as an (n, steps + 1) record."""
    c, d = spec.constants, spec.dim
    s0 = c.sigma0
    delta = 1e-2 * c.r_ball if c.r_ball > 0 else 2.0 * s0 * math.sqrt(dt)
    n_steps = round(T / dt)
    x1 = np.broadcast_to(np.reshape(x0, -1), (n, d)).astype(float)
    x2 = np.broadcast_to(np.reshape(x0_prime, -1), (n, d)).astype(float)
    times = np.zeros(n_steps + 1)
    radii = np.empty((n, n_steps + 1))
    diff = x1 - x2
    radii[:, 0] = np.linalg.norm(diff, axis=1)
    for k, block in enumerate(noise_blocks(seed, 0, n_steps, n, d, 3)):
        t = k * dt
        mu1, mu2 = flow.at_time(t), flow_prime.at_time(t)
        r = radii[:, k]
        e = np.where(r[:, None] > 0.0,
                     diff / np.maximum(r, 1e-300)[:, None], 0.0)
        angle = 0.5 * math.pi * np.clip((2.0 * r - delta) / delta, 0.0, 1.0)
        p1, p2 = np.sin(angle)[:, None], np.cos(angle)[:, None]
        dw = block * math.sqrt(dt)
        w_refl, w_extra, w_shared = dw[:, 0], dw[:, 1], dw[:, 2]
        bar1, bar2 = (np.broadcast_to(_sqrt_psd_gap(
            np.asarray(spec.diffusion(x, mu), dtype=float), s0, k, t),
            (n, d, d)) for x, mu in ((x1, mu1), (x2, mu2)))
        b1, b2 = spec.drift(t, x1, mu1), spec.drift(t, x2, mu2)
        reflected = w_refl - 2.0 * np.sum(e * w_refl, axis=1)[:, None] * e
        common = p2 * w_shared
        x1 += b1 * dt + s0 * (p1 * w_refl + common) \
            + np.einsum("nij,nj->ni", bar1, w_extra)
        x2 += b2 * dt + s0 * (p1 * reflected + common) \
            + np.einsum("nij,nj->ni", bar2, w_extra)
        times[k + 1] = t + dt
        diff = x1 - x2
        radii[:, k + 1] = np.linalg.norm(diff, axis=1)
    mean_r = radii.mean(axis=0)
    se_r = radii.std(axis=0, ddof=1) / math.sqrt(n)
    rate = _fit_radius_decay(times, mean_r, delta)[0]
    return times, mean_r, se_r, x1, x2, rate


@pytest.fixture(scope="module")
def background_flows():
    return {name: simulate_mv(model.preset(name),
                              EmpiricalMeasure.dirac(0.0), dt=0.01, T=6.0,
                              n_particles=200, seed=3, record_every=10)
            for name in ("sine-weak", "ou-attract")}


def _two_d_spec():
    # a constant sigma with a full-rank, non-diagonal gap root
    sig = np.array([[1.2, 0.3], [-0.1, 1.1]])
    return model.preset("ou-attract").replace(
        dim=2, drift=lambda t, x, mu: -x + 0.3 * np.sin(x[:, ::-1]),
        diffusion=lambda x, mu: sig, name="two-d")


COUPLING_CASES = {
    "sine-42": ("sine-weak", None, -2.0, 2.0, 42),
    "sine-7": ("sine-weak", None, -2.0, 2.0, 7),
    # the gap 0.045 starts both legs inside the band (0.03, 0.06)
    "in-band": ("sine-weak", None, 0.0, 0.045, 42),
    "glued": ("sine-weak", None, 1.0, 1.0, 42),
    "sigma-per-particle": (
        "sine-weak",
        lambda x, mu: (1.0 + 0.3 * np.tanh(x) ** 2)[:, :, None],
        -2.0, 2.0, 42),
    "sigma-1.4": ("sine-weak", lambda x, mu: np.array([[1.4]]),
                  -2.0, 2.0, 42),
    # no ball: delta = 2 sigma0 sqrt(dt)
    "ou": ("ou-attract", None, 0.0, 3.0, 42),
    "two-d": ("two-d", None, [0.0, 0.0], [0.5, -0.3], 5),
}


@pytest.mark.parametrize("case", list(COUPLING_CASES))
def test_coupling_matches_the_reference_step(case, background_flows):
    name, diffusion, x0, x0_prime, seed = COUPLING_CASES[case]
    if name == "two-d":
        spec = _two_d_spec()
        flow = MeasureFlow.constant(EmpiricalMeasure.dirac(0.0, dim=2),
                                    0.0, 6.0)
    else:
        spec = model.preset(name)
        flow = background_flows[name]
    if diffusion is not None:
        spec = spec.replace(diffusion=diffusion)
    args = (spec, flow, flow, x0, x0_prime)
    run = simulate_reflection_coupling(*args, dt=0.01, T=6.0, n_paths=2000,
                                       seed=seed)
    times, mean_r, se_r, x1, x2, rate = _reference_coupling(
        *args, dt=0.01, T=6.0, n=2000, seed=seed)
    assert np.array_equal(run.times, times)
    assert np.array_equal(run.mean_radius, mean_r)
    assert np.array_equal(run.se_radius, se_r)
    assert np.array_equal(run.terminal_states, x1)
    assert np.array_equal(run.terminal_states_prime, x2)
    assert np.array_equal(run.rate, rate, equal_nan=True)


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


def test_coupling_over_law_statistics_is_the_stored_flow_coupling(sine_spec):
    # both legs read E[tanh X] from each node's summary as they read it
    # from the node's cloud
    kw = dict(dt=0.02, T=1.0, n_particles=200)
    flows = [(simulate_mv(sine_spec, EmpiricalMeasure.dirac(start), seed=s,
                          **kw),
              interacting_flow(sine_spec, EmpiricalMeasure.dirac(start),
                               seed=s, **kw))
             for start, s in ((-1.0, 3), (1.5, 4))]
    runs = [simulate_reflection_coupling(
        sine_spec, flow, flow_p, -1.0, 1.5, dt=0.02, T=1.0, n_paths=300,
        seed=5) for flow, flow_p in zip(*flows)]
    one, other = runs
    assert np.array_equal(one.mean_radius, other.mean_radius)
    assert np.array_equal(one.se_radius, other.se_radius)
    assert np.array_equal(one.terminal_states, other.terminal_states)
    assert np.array_equal(one.terminal_states_prime,
                          other.terminal_states_prime)
