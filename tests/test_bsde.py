"""Finite-horizon backward sweep: closed-form starts, z readouts, exact
linear-z values, noise and memory budgets."""

import inspect
import math
import threading
import tracemalloc
import warnings
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import oracle_reference as oracle
from conftest import TIME_DRIFT_SCN
from ergolab import bsde, model, sde
from ergolab.bsde import (_RIDGE, BasisDegeneracyError, OffGridWarning,
                          _NodeRegressor, backward_lsmc, monomial_exponents,
                          solve_finite_bsde, z_from_gradient)
from ergolab.measure import EmpiricalMeasure, MeasureFlow
from ergolab.sde import INIT_DRAW_STEP, gaussian_increments, simulate_mv


def _flow_for(spec, T, n=4000, seed=17, dt=0.01):
    return simulate_mv(spec, EmpiricalMeasure.dirac(0.0), dt=dt, T=T,
                       n_particles=n, seed=seed, record_every=10).flow


def _bm_spec(driver, terminal, q=1.0, name="bm"):
    sig = np.array([[1.0]])
    return model.ProblemSpec(
        dim=1,
        drift=lambda t, x, mu: np.zeros_like(x),
        diffusion=lambda x, mu: sig,
        driver=driver,
        terminal=terminal,
        constants=model.Constants(nu=1.0, eta=1.0, k_b_x=0.0, k_b_l=0.0,
                                  k_s_x=0.0, k_s_l=0.0, sigma0=1.0,
                                  r_ball=0.0, q=q, eps=1.0),
        name=name)


def test_quadratic_terminal_start(ou_spec):
    flow = _flow_for(ou_spec, 1.0)
    sol = solve_finite_bsde(ou_spec.replace(
        driver=lambda x, mu, z: np.zeros(x.shape[0])),
        flow, x0=0.0, T=1.0, dt=0.01, n_particles=4000, seed=1)
    assert sol.y0 == pytest.approx(oracle.y0_quadratic_terminal(1.0), abs=0.03)


def test_constant_driver_integrates_exactly(ou_spec):
    spec = ou_spec.replace(
        driver=lambda x, mu, z: np.full(x.shape[0], 0.7),
        terminal=lambda x, mu: np.zeros(x.shape[0]))
    flow = _flow_for(ou_spec, 1.5)
    sol = solve_finite_bsde(spec, flow, x0=0.5, T=1.5, dt=0.01,
                            n_particles=2000, seed=2)
    assert sol.y0 == pytest.approx(oracle.y0_constant_driver(0.7, 1.5),
                                   abs=1e-6)


def test_linear_z_driver_matches_girsanov_value():
    beta = 0.5
    spec = _bm_spec(driver=lambda x, mu, z: beta * z[:, 0],
                    terminal=lambda x, mu: x[:, 0])
    flow = MeasureFlow.constant(EmpiricalMeasure.dirac(0.0), 0.0, 1.0)
    sol = solve_finite_bsde(spec, flow, x0=0.0, T=1.0, dt=0.01,
                            n_particles=6000, seed=3)
    assert sol.y0 == pytest.approx(oracle.y0_linear_z_driver(beta, 1.0),
                                   abs=0.03)
    # g(x) = x makes u(t, x) = x + beta (T - t), so z is identically 1
    assert float(sol.z0[0]) == pytest.approx(1.0, abs=0.05)


def test_symmetric_start_has_no_z(ou_spec):
    flow = _flow_for(ou_spec, 1.0)
    sol = solve_finite_bsde(ou_spec.replace(
        driver=lambda x, mu, z: np.zeros(x.shape[0])),
        flow, x0=0.0, T=1.0, dt=0.01, n_particles=4000, seed=4)
    assert abs(float(sol.z0[0])) <= 0.05


def test_gradient_z_agrees_with_regressed_z(lq_spec):
    flow = _flow_for(lq_spec, 1.0)
    sol = solve_finite_bsde(lq_spec, flow, x0=1.0, T=1.0, dt=0.01,
                            n_particles=6000, seed=5)
    via_grad = z_from_gradient(sol, lq_spec, flow, t=0.0, x=np.array([1.0]))
    gap = abs(float(via_grad[0, 0]) - float(sol.z0[0]))
    assert gap <= 0.05 * (1.0 + abs(float(sol.z0[0])))


def test_comparison_principle(ou_spec):
    flow = _flow_for(ou_spec, 1.0)
    kwargs = dict(x0=1.0, T=1.0, dt=0.01, n_particles=3000, seed=6)
    lo = solve_finite_bsde(ou_spec, flow, **kwargs)
    hi = solve_finite_bsde(ou_spec.replace(
        driver=lambda x, mu, z: ou_spec.driver(x, mu, z) + 0.3),
        flow, **kwargs)
    # dominating driver, same noise: Y0 rises by ~0.3 T
    assert hi.y0 >= lo.y0
    assert hi.y0 - lo.y0 == pytest.approx(0.3, abs=0.02)


def test_zfree_solution_matches_expectation_oracle(ou_spec):
    flow = _flow_for(ou_spec, 1.0, n=8000)
    sol = solve_finite_bsde(ou_spec, flow, x0=1.0, T=1.0, dt=0.01,
                            n_particles=8000, seed=7)
    se = 0.02
    assert sol.y0 == pytest.approx(oracle.y0_quadratic_full(1.0, 1.0),
                                   abs=3 * se)


def test_step_refinement_tracks_euler_chain(ou_spec):
    spec = ou_spec.replace(driver=lambda x, mu, z: np.zeros(x.shape[0]))
    y0 = {}
    for dt in (0.1, 0.02):
        flow = _flow_for(ou_spec, 1.0, n=8000, dt=dt)
        sol = solve_finite_bsde(spec, flow, x0=0.0, T=1.0, dt=dt,
                                n_particles=8000, seed=8)
        y0[dt] = sol.y0
        assert sol.y0 == pytest.approx(
            oracle.euler_variance(int(round(1.0 / dt)), dt), abs=0.03)
    exact = oracle.y0_quadratic_terminal(1.0)
    assert abs(oracle.euler_variance(50, 0.02) - exact) < \
        abs(oracle.euler_variance(10, 0.1) - exact)
    assert abs(y0[0.02] - exact) <= abs(y0[0.1] - exact) + 0.02


@pytest.mark.parametrize("beta,T,n,seed", [
    pytest.param(5.0, 1.0, 2000, 9, id="beta5"),
    pytest.param(30.0, 0.5, 1000, 10, id="beta30")])
def test_linear_z_driver_is_solved_exactly(beta, T, n, seed):
    # g(x) = x and f = beta z give u(t, x) = x + beta (T - t) and z = 1 on
    # every node; the one-step moments of a linear surface are exact, so
    # only the ridge separates the sweep from them, even at K_z dt = 1.5
    spec = _bm_spec(driver=lambda x, mu, z: beta * z[:, 0],
                    terminal=lambda x, mu: x[:, 0])
    flow = MeasureFlow.constant(EmpiricalMeasure.dirac(0.0), 0.0, T)
    sol = solve_finite_bsde(spec, flow, x0=0.0, T=T, dt=0.05,
                            n_particles=n, seed=seed)
    assert sol.y0 == pytest.approx(beta * T, abs=1e-6)
    assert float(sol.z0[0]) == pytest.approx(1.0, abs=1e-6)


def test_growth_envelope_constant_is_stable(ou_spec):
    flow = _flow_for(ou_spec, 1.0)
    theta_m = flow.at_time(0.0)
    q = ou_spec.constants.q
    ratios = []
    for x0 in (0.0, 1.0, 2.0, 3.0):
        sol = solve_finite_bsde(ou_spec, flow, x0=x0, T=1.0, dt=0.01,
                                n_particles=3000, seed=11)
        envelope = 1.0 + abs(x0) ** (q + 1) \
            + float(np.mean(np.abs(theta_m.points) ** (2 * q + 2))) \
            ** ((q + 1) / (2 * q + 2))
        ratios.append(abs(sol.y0) / envelope)
    assert max(ratios) <= 5.0 * max(min(ratios), 0.05)


@pytest.mark.parametrize("dim,degree", [(1, 3), (2, 3)])
def test_node_fit_is_the_ridge_least_squares_solution(dim, degree):
    rng = np.random.default_rng(21)
    states = rng.normal(0.5, 2.0, size=(700, dim))
    reg = _NodeRegressor(states, monomial_exponents(dim, degree), node=0)
    nb = reg.basis.shape[1]
    aug = np.vstack([reg.basis, math.sqrt(_RIDGE) * np.eye(nb)])
    for y in (rng.normal(size=700), rng.normal(size=(700, 3))):
        rhs = y if y.ndim == 2 else y[:, None]
        ref, *_ = np.linalg.lstsq(
            aug, np.vstack([rhs, np.zeros((nb, rhs.shape[1]))]), rcond=None)
        got = reg.fit(y)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_degenerate_basis_is_reported():
    spec = _bm_spec(driver=lambda x, mu, z: np.zeros(x.shape[0]),
                    terminal=lambda x, mu: x[:, 0])
    flow = MeasureFlow.constant(EmpiricalMeasure.dirac(0.0), 0.0, 1.0)
    n = 400
    cloud = np.zeros((n, 1))
    cloud[-1, 0] = 1e6  # single outlier swamps the standardized basis
    with pytest.raises(BasisDegeneracyError) as err:
        backward_lsmc(spec, cloud, flow, T=1.0, dt=0.5, degree=6)
    assert err.value.node in (0, 1, 2)
    assert err.value.cond > 1e12


def test_off_grid_query_warns(ou_spec):
    flow = _flow_for(ou_spec, 0.1)
    sol = solve_finite_bsde(ou_spec, flow, x0=0.0, T=0.1, dt=0.01,
                            n_particles=500, seed=12)
    with pytest.warns(OffGridWarning):
        sol.u(0.5, np.array([0.0]), warn=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol.u(0.052, np.array([0.0]), warn=True)  # within half a step


def test_monomial_basis_layout():
    exps = monomial_exponents(2, 2)
    assert exps.shape == (6, 2)
    assert {tuple(e) for e in exps} == {(0, 0), (1, 0), (0, 1),
                                        (2, 0), (1, 1), (0, 2)}
    with pytest.raises(ValueError, match="degree"):
        solve_finite_bsde(model.preset("ou-attract"),
                          MeasureFlow.constant(EmpiricalMeasure.dirac(0.0),
                                               0.0, 1.0),
                          x0=0.0, T=1.0, dt=0.1, n_particles=100, degree=1)


@pytest.mark.parametrize("law", ["interacting", "point-mass"])
def test_solve_draws_one_block_of_its_own_seed(ou_spec, monkeypatch, law):
    if law == "interacting":
        flow = _flow_for(ou_spec, 1.1, n=300, seed=5)  # stored
    else:
        flow = MeasureFlow.constant(EmpiricalMeasure.dirac(0.0), 0.0, 1.1)
    drawn = []

    def counted(draw):
        def wrapper(*args, **kwargs):
            sig = inspect.signature(draw).bind(*args, **kwargs)
            drawn.append((sig.arguments["seed"],
                          sig.arguments.get("step", INIT_DRAW_STEP)))
            return draw(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(sde, "gaussian_increments",
                        counted(sde.gaussian_increments))
    monkeypatch.setattr(bsde, "gaussian_increments",
                        counted(bsde.gaussian_increments))
    monkeypatch.setattr(bsde, "draw_initial", counted(bsde.draw_initial))
    sol = solve_finite_bsde(ou_spec, flow, x0=0.4, T=1.01, dt=0.01,
                            n_particles=300, seed=9)
    # the regression cloud; the sweep's moments are exact and draw nothing
    assert drawn == [(9, INIT_DRAW_STEP)]
    # a law with spread is sampled; a point mass is spread around x0
    center = sol.u.center[0]
    if law == "interacting":
        assert abs(center - flow.at_time(1.01).mean()[0]) < 0.2
    else:
        assert abs(center - 0.4) < 0.05


@pytest.mark.parametrize("m", [101, 150])
def test_checkpointed_flow_blocks_are_drawn_at_most_three_times(
        ou_spec, monkeypatch, m):
    drawn = Counter()

    def counted(seed, step, *args, **kwargs):
        drawn[seed, step] += 1
        return gaussian_increments(seed, step, *args, **kwargs)

    monkeypatch.setattr(sde, "gaussian_increments", counted)
    monkeypatch.setattr(bsde, "gaussian_increments", counted)
    flow = sde.CheckpointedFlow.build(ou_spec, EmpiricalMeasure.dirac(1.1),
                                      dt=0.01, T=1.5, n_particles=300, seed=5)
    # node 101 is no checkpoint of the flow, node 150 is its last
    solve_finite_bsde(ou_spec, flow, x0=0.4, T=m * 0.01, dt=0.01,
                      n_particles=300, seed=9)
    counts = [drawn[5, g] for g in range(150)]
    # once by the build; the sweep reads the flow once, last node first,
    # and replays each segment it reaches once, up to the step into the
    # next checkpoint, which is never taken
    replayed = sum(min(flow.every, 150 - g0) - 1
                   for g0 in range(0, m, flow.every))
    assert max(counts) == 2
    assert sum(counts) == 150 + replayed


def test_checkpointed_sweep_memory_is_a_fraction_of_the_bundle(ou_spec):
    T, dt, n = 25.0, 0.01, 2000
    flow = MeasureFlow.constant(EmpiricalMeasure(
        np.random.default_rng(1).normal(0.0, 0.7, size=(500, 1))), 0.0, T)
    bundle_bytes = (round(T / dt) + 1) * n * 8
    tracemalloc.start()
    try:
        solve_finite_bsde(ou_spec, flow, x0=0.0, T=T, dt=dt, n_particles=n,
                          seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bundle_bytes / 4


def test_concurrent_solves_are_the_serial_solves(ou_spec):
    # each solve owns its one-step workspace; two sweeps on two threads
    # at once, on clouds of one size (so buffers shared between solves
    # would fit both) from two seeds and over two horizons
    flow = _flow_for(ou_spec, 1.0, n=1000)
    jobs = [dict(x0=0.0, T=1.0, n_particles=3000, seed=4),
            dict(x0=0.5, T=0.6, n_particles=3000, seed=5)]
    barrier = threading.Barrier(len(jobs))

    def solve(job, wait=False):
        if wait:
            barrier.wait(timeout=60)
        return solve_finite_bsde(ou_spec, flow, dt=0.01, **job)

    serial = [solve(job) for job in jobs]
    with ThreadPoolExecutor(len(jobs)) as pool:
        together = list(pool.map(lambda job: solve(job, wait=True), jobs))
    for one, other in zip(serial, together):
        np.testing.assert_array_equal(one.u.coeffs, other.u.coeffs)
        np.testing.assert_array_equal(one.zeta.coeffs, other.zeta.coeffs)
        np.testing.assert_array_equal(one.residuals, other.residuals)


@pytest.mark.parametrize("name", ["ou-attract", "sine-weak"])
def test_constant_flow_grid_is_the_per_horizon_solves(name, monkeypatch):
    # on a constant flow each horizon is the tail of one sweep at the
    # largest one, bit for bit
    spec = model.preset(name)
    mu = EmpiricalMeasure(np.random.default_rng(3).normal(0.0, 1.2, (400, 1)))
    flow = MeasureFlow.constant(mu, 0.0, 1.6)
    grid = (0.4, 1.0, 1.6)
    swept = []

    def counted(spec, cloud, flow, T, *args):
        swept.append(T)
        return backward_lsmc(spec, cloud, flow, T, *args)

    monkeypatch.setattr(bsde, "backward_lsmc", counted)
    sols = bsde._solve_horizons(spec, flow, 1.0, grid, 0.02, 400, None, 5)
    assert swept == [1.6]
    for T, sol in zip(grid, sols):
        one = solve_finite_bsde(spec, flow, 1.0, T=T, dt=0.02,
                                n_particles=400, seed=5)
        assert np.array_equal(sol.u.times, one.u.times)
        assert np.array_equal(sol.u.coeffs, one.u.coeffs)
        assert np.array_equal(sol.zeta.coeffs, one.zeta.coeffs)
        assert np.array_equal(sol.residuals, one.residuals)
        assert sol.y0 == one.y0 and np.array_equal(sol.z0, one.z0)


def test_drift_that_reads_t_gets_a_sweep_per_horizon(monkeypatch):
    # a time shift of one sweep holds a shorter horizon only when the
    # coefficients ignore t; here a shared sweep read Y0 = 0.868 at
    # T = 0.5 against the horizon's own 0.700
    spec = model.parse_scenario(TIME_DRIFT_SCN).spec
    mu = EmpiricalMeasure(np.random.default_rng(3).normal(0.0, 1.2, (400, 1)))
    flow = MeasureFlow.constant(mu, 0.0, 2.0)
    grid = (0.5, 1.0, 2.0)
    swept = []

    def counted(spec, cloud, flow, T, *args):
        swept.append(T)
        return backward_lsmc(spec, cloud, flow, T, *args)

    monkeypatch.setattr(bsde, "backward_lsmc", counted)
    sols = bsde._solve_horizons(spec, flow, 0.0, grid, 0.02, 400, None, 5)
    assert swept == list(grid)
    for T, sol in zip(grid, sols):
        one = solve_finite_bsde(spec, flow, 0.0, T=T, dt=0.02,
                                n_particles=400, seed=5)
        assert sol.y0 == one.y0
        assert np.array_equal(sol.u.coeffs, one.u.coeffs)


def test_moving_flow_grid_draws_a_cloud_per_horizon(ou_spec, monkeypatch):
    flow = sde.CheckpointedFlow.build(ou_spec, EmpiricalMeasure.dirac(0.5),
                                      dt=0.02, T=1.0, n_particles=300, seed=5)
    swept = []

    def counted(spec, cloud, flow, T, *args):
        swept.append((T, cloud.mean()))
        return backward_lsmc(spec, cloud, flow, T, *args)

    monkeypatch.setattr(bsde, "backward_lsmc", counted)
    sols = bsde._solve_horizons(ou_spec, flow, 0.0, (0.4, 1.0), 0.02, 300,
                                None, 9)
    assert [T for T, _ in swept] == [0.4, 1.0]
    # each cloud is a draw from the flow's law at its own horizon
    for (T, center), sol in zip(swept, sols):
        assert abs(center - flow.at_time(T).mean()[0]) < 0.2
        assert sol.u.times[-1] == pytest.approx(T)
    assert swept[0][1] != swept[1][1]
