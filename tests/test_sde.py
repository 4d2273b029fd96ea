"""Particle simulation: determinism, moment stability, contraction, blow-up."""

import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle_reference as oracle
from ergolab import measure, model, sde
from ergolab.measure import (EmpiricalMeasure, LawSummary, MeasureFlow, moment,
                             wasserstein)
from ergolab.sde import (INIT_DRAW_STEP, BlowUpError, DriftShift, PathBundle,
                         _sigma_dot, contraction_rate, derive_seed,
                         draw_initial, flow_property_check,
                         gaussian_increments, interacting_flow, iter_mv,
                         noise_blocks, simulate_mv)

# rows of a one-dimensional block large enough for noise_blocks to share
# its drawing with the helper thread
SHARED_ROWS = 4096


def _quiet_spec(drift, sigma0=1.0, name="quiet"):
    sig = np.array([[sigma0]])
    return model.ProblemSpec(
        dim=1,
        drift=drift,
        diffusion=lambda x, mu: sig,
        driver=lambda x, mu, z: np.zeros(x.shape[0]),
        terminal=lambda x, mu: np.zeros(x.shape[0]),
        constants=model.Constants(nu=1.0, eta=1.0, k_b_x=1.0, k_b_l=0.0,
                                  k_s_x=0.0, k_s_l=0.0, sigma0=sigma0,
                                  r_ball=0.0, q=2.0, eps=1.0),
        name=name)


def test_increment_stream_contract():
    a = gaussian_increments(5, 3, 4, 2)
    assert a.shape == (4, 2)
    np.testing.assert_array_equal(a, gaussian_increments(5, 3, 4, 2))
    assert not np.array_equal(a, gaussian_increments(5, 4, 4, 2))
    assert not np.array_equal(a, gaussian_increments(6, 3, 4, 2))
    # the initial-condition stream never collides with a step stream
    init = gaussian_increments(5, INIT_DRAW_STEP, 4, 2)
    assert not np.array_equal(a, init)


def test_increments_from_threads_match_fresh_generators():
    keys = [(seed, step) for seed in (3, 11) for step in range(12)]
    keys.append((3, INIT_DRAW_STEP))
    serial = [gaussian_increments(seed, step, 257, 2) for seed, step in keys]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the threads as often as possible
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(
                lambda key: gaussian_increments(key[0], key[1], 257, 2),
                keys * 4, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for i, block in enumerate(threaded):
        np.testing.assert_array_equal(block, serial[i % len(keys)])
    for (seed, step), block in zip(keys, serial):
        fresh = np.random.Generator(np.random.Philox(
            key=np.array([seed, step], dtype=np.uint64)))
        np.testing.assert_array_equal(block, fresh.standard_normal((257, 2)))
    # a draw with several channels leaves nothing behind for the next key
    gaussian_increments(5, 1, 3, 1, channels=3)
    np.testing.assert_array_equal(gaussian_increments(*keys[0], 257, 2),
                                  serial[0])


def _bounded(fn, timeout=60.0):
    """fn() on a thread of its own, so that a deadlock fails the test
    instead of hanging the run."""
    result = {}

    def target():
        try:
            result["value"] = fn()
        except BaseException as exc:  # handed to the test below
            result["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "a noise stream did not finish"
    if "error" in result:
        raise result["error"]
    return result["value"]


def _assert_serial(blocks, seed, start=0, rows=SHARED_ROWS, channels=1):
    for step, block in enumerate(blocks, start):
        np.testing.assert_array_equal(
            block, gaussian_increments(seed, step, rows, 1, channels=channels))


@pytest.mark.parametrize("n_steps, rows, channels, start", [
    (1, SHARED_ROWS, 1, 0), (3, SHARED_ROWS, 1, 0), (9, SHARED_ROWS, 1, 0),
    (9, SHARED_ROWS, 3, 0), (9, SHARED_ROWS, 1, 17), (9, 50, 1, 5)])
def test_noise_blocks_are_the_serial_draws(n_steps, rows, channels, start):
    # fewer steps than the helper's window, more, several channels, a
    # resumed stream, and a block too small to share
    blocks = _bounded(lambda: list(noise_blocks(
        4, start, n_steps, rows, 1, channels=channels)))
    assert len(blocks) == n_steps
    _assert_serial(blocks, 4, start, rows, channels)


def test_two_live_noise_streams_both_finish():
    def zipped():
        return list(zip(noise_blocks(1, 0, 10, SHARED_ROWS, 1),
                        noise_blocks(2, 0, 10, SHARED_ROWS, 1)))

    def nested():
        return [(outer, list(noise_blocks(2, 3, 5, SHARED_ROWS, 1)))
                for outer in noise_blocks(1, 0, 6, SHARED_ROWS, 1)]

    pairs = _bounded(zipped)
    assert len(pairs) == 10
    _assert_serial([a for a, _ in pairs], 1)
    _assert_serial([b for _, b in pairs], 2)
    rows = _bounded(nested)
    assert len(rows) == 6
    _assert_serial([outer for outer, _ in rows], 1)
    for _, inner in rows:
        _assert_serial(inner, 2, start=3)


def test_noise_streams_on_many_threads_are_the_serial_draws():
    def run():
        with ThreadPoolExecutor(max_workers=4) as pool:
            return list(pool.map(lambda seed: list(noise_blocks(
                seed, 0, 12, SHARED_ROWS, 1)), range(8)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the threads as often as possible
    try:
        streams = _bounded(run, timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    for seed, blocks in enumerate(streams):
        assert len(blocks) == 12
        _assert_serial(blocks, seed)
    assert sum(t.name == "ergolab-noise" for t in threading.enumerate()) <= 1


@pytest.mark.parametrize("pause", [0.0, 0.02], ids=["eager", "slow"])
def test_a_failed_draw_raises_in_the_caller_at_its_step(monkeypatch, pause):
    # a slow caller leaves the failing block to the helper thread
    real = sde.gaussian_increments

    def failing(seed, step, *args, **kwargs):
        if step == 5:
            raise FloatingPointError("draw failed")
        return real(seed, step, *args, **kwargs)

    def consume():
        taken = []
        with pytest.raises(FloatingPointError, match="draw failed"):
            for block in noise_blocks(3, 0, 12, SHARED_ROWS, 1):
                taken.append(block)
                time.sleep(pause)
        return taken

    monkeypatch.setattr(sde, "gaussian_increments", failing)
    taken = _bounded(consume)
    assert len(taken) == 5
    _assert_serial(taken, 3)
    monkeypatch.undo()
    _assert_serial(_bounded(lambda: list(noise_blocks(
        3, 0, 12, SHARED_ROWS, 1))), 3)


def test_closing_a_stream_early_stops_its_helper_work(monkeypatch):
    list(noise_blocks(0, 0, 3, SHARED_ROWS, 1))  # the helper, if any, runs
    threads = threading.active_count()
    drawn = []
    real = sde.gaussian_increments

    def counted(seed, step, *args, **kwargs):
        block = real(seed, step, *args, **kwargs)
        time.sleep(0.005)  # a close that does not wait returns before this
        drawn.append((seed, step))
        return block

    def assert_idle():
        before = len(drawn)
        time.sleep(0.05)
        assert len(drawn) == before

    monkeypatch.setattr(sde, "gaussian_increments", counted)
    stream = noise_blocks(1, 0, 50, SHARED_ROWS, 1)
    next(stream)
    stream.close()
    assert_idle()
    for step, _ in enumerate(noise_blocks(2, 0, 50, SHARED_ROWS, 1)):
        if step == 2:
            break
    assert_idle()
    stream = noise_blocks(3, 0, 50, SHARED_ROWS, 1)
    next(stream)
    del stream  # garbage-collected
    assert_idle()
    blow_up = _quiet_spec(lambda t, x, mu: x ** 3)
    start = np.full((SHARED_ROWS, 1), 2.0)
    flow = MeasureFlow.constant(EmpiricalMeasure.dirac(0.0), 0.0, 20.0)
    with np.errstate(over="ignore", invalid="ignore"):
        for steps in (iter_mv(blow_up, start, 0.5, 40, 4),
                      iter_mv(blow_up, start, 0.5, 40, 5, flow=flow)):
            with pytest.raises(BlowUpError):
                for _ in steps:
                    pass
            assert_idle()
    assert len(drawn) < 4 * 50
    monkeypatch.undo()
    _assert_serial(_bounded(lambda: list(noise_blocks(
        6, 0, 9, SHARED_ROWS, 1))), 6)
    assert threading.active_count() == threads


def test_one_cpu_mask_leaves_every_draw_to_the_caller(monkeypatch):
    threads = threading.active_count()
    drawers = set()
    real = sde.gaussian_increments

    def tracked(*args, **kwargs):
        drawers.add(threading.get_ident())
        return real(*args, **kwargs)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(sde, "gaussian_increments", tracked)
    _assert_serial(list(noise_blocks(6, 0, 9, SHARED_ROWS, 1)), 6)
    assert drawers == {threading.get_ident()}
    assert threading.active_count() == threads


def test_derive_seed_spreads():
    seeds = {derive_seed(42, tag) for tag in range(64)}
    assert len(seeds) == 64
    assert derive_seed(42, 7) == derive_seed(42, 7)
    assert derive_seed(42, 7) != derive_seed(43, 7)


def test_simulation_reproducible(ou_spec):
    theta = EmpiricalMeasure.dirac(1.0)
    a = simulate_mv(ou_spec, theta, dt=0.01, T=0.5, n_particles=300, seed=9)
    b = simulate_mv(ou_spec, theta, dt=0.01, T=0.5, n_particles=300, seed=9)
    np.testing.assert_array_equal(a.bundle.states, b.bundle.states)
    c = simulate_mv(ou_spec, theta, dt=0.01, T=0.5, n_particles=300, seed=10)
    assert not np.array_equal(a.bundle.states, c.bundle.states)


def test_thread_count_never_changes_bits(tmp_path, subprocess_env):
    script = tmp_path / "hash_run.py"
    script.write_text(
        "import hashlib\n"
        "from ergolab import model, sde\n"
        "from ergolab.measure import EmpiricalMeasure\n"
        "spec = model.preset('ou-attract')\n"
        "r = sde.simulate_mv(spec, EmpiricalMeasure.dirac(1.0), dt=0.01,\n"
        "                    T=0.5, n_particles=400, seed=9)\n"
        "print(hashlib.sha256(r.bundle.states.tobytes()).hexdigest())\n")
    digests = set()
    for threads in ("1", "4"):
        env = dict(subprocess_env,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                   OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, str(script)], env=env,
                              capture_output=True, text=True, check=True)
        digests.add(proc.stdout.strip())
    assert len(digests) == 1


def test_zero_dynamics_freeze_paths():
    spec = _quiet_spec(lambda t, x, mu: np.zeros_like(x), sigma0=0.0)
    theta = EmpiricalMeasure([0.0, 1.0, -2.0])
    res = simulate_mv(spec, theta, dt=0.1, T=1.0, n_particles=32, seed=0)
    assert set(np.unique(res.bundle.states[0])) <= {-2.0, 0.0, 1.0}
    for snap in res.bundle.states[1:]:
        np.testing.assert_array_equal(snap, res.bundle.states[0])


def test_ou_mean_and_variance(ou_spec):
    res = simulate_mv(ou_spec, EmpiricalMeasure.dirac(1.0), dt=0.01, T=2.0,
                      n_particles=10_000, seed=2)
    m_t1 = res.flow.at_time(1.0).points.mean()
    assert m_t1 == pytest.approx(oracle.mv_mean(1.0, 1.0, attract=True),
                                 abs=0.02)
    v_t2 = res.flow.at_time(2.0).points[:, 0].var()
    assert v_t2 == pytest.approx(oracle.ou_variance(2.0), abs=0.03)


@pytest.mark.parametrize("name", model.PRESET_NAMES)
@pytest.mark.parametrize("p", [2, 4])
def test_moment_boundedness_sweep(name, p):
    spec = model.preset(name)
    rate = spec.contraction_rate_bound()
    T = 50.0 / rate
    res = simulate_mv(spec, EmpiricalMeasure.dirac(2.0), dt=0.02, T=T,
                      n_particles=500, seed=1, record_every=20)
    times = res.flow.times
    vals = np.array([moment(m, p) for m in res.flow.measures])
    early_max = vals[times <= 5.0 / rate].max()
    assert vals.max() <= 1.5 * early_max


def test_shifted_drift_keeps_moments_bounded(ou_spec):
    shift = DriftShift(lambda t, x, mu: np.full_like(x, 0.5), bound=0.5)
    flow = MeasureFlow.constant(EmpiricalMeasure.dirac(0.0), 0.0, 50.0)
    times, vals = [], []
    for k, t, x, _mu, _dw in iter_mv(ou_spec, np.zeros((500, 1)), 0.02, 2500,
                                     3, flow=flow, shift=shift):
        if k % 20 == 0 or k == 2500:
            times.append(t)
            vals.append(moment(EmpiricalMeasure(x.copy()), 2))
    vals = np.array(vals)
    early_max = vals[np.array(times) <= 5.0].max()
    assert vals.max() <= 1.5 * early_max


def test_shift_bound_is_enforced():
    shift = DriftShift(lambda t, x, mu: np.full_like(x, 0.5), bound=0.2)
    with pytest.raises(ValueError, match="declared bound"):
        shift(0.0, np.zeros((2, 1)), EmpiricalMeasure.dirac(0.0))


def test_constant_shift_moves_the_mean():
    sigma0, c, T, n = 0.7, 0.5, 2.0, 20_000
    spec = _quiet_spec(lambda t, x, mu: np.zeros_like(x), sigma0=sigma0)
    shift = DriftShift(lambda t, x, mu: np.full_like(x, c), bound=c)
    flow = MeasureFlow.constant(EmpiricalMeasure.dirac(0.0), 0.0, T)
    *_, (_, _, x_T, _, _) = iter_mv(spec, np.zeros((n, 1)), 0.01,
                                    int(T / 0.01), 4, flow=flow, shift=shift)
    se = sigma0 * math.sqrt(T / n)
    assert x_T.mean() == pytest.approx(
        oracle.shifted_bm_mean(sigma0, c, T), abs=3 * se)


def test_noise_free_decay_is_euler_exact():
    spec = _quiet_spec(lambda t, x, mu: -x, sigma0=0.0)
    res = simulate_mv(spec, EmpiricalMeasure.dirac(1.0), dt=0.01, T=1.0,
                      n_particles=1, seed=0)
    x_T = float(res.bundle.states[-1, 0, 0])
    assert x_T == pytest.approx((1.0 - 0.01) ** 100, abs=1e-12)
    assert x_T == pytest.approx(math.exp(-1.0), abs=2 * 0.01)


def test_decoupled_marginal_matches_interacting(ou_spec):
    theta = EmpiricalMeasure.dirac(0.5)
    n = 8000
    mv = simulate_mv(ou_spec, theta, dt=0.01, T=1.0, n_particles=n, seed=6)
    *_, (_, _, dec, _, _) = iter_mv(ou_spec, draw_initial(theta, n, seed=7),
                                    0.01, 100, 7, flow=mv.flow)
    # Monte Carlo scale from two fully independent interacting runs
    ref = simulate_mv(ou_spec, theta, dt=0.01, T=1.0, n_particles=n, seed=8)
    mc = max(wasserstein(mv.flow.terminal, ref.flow.terminal, 2), 5e-3)
    gap = wasserstein(EmpiricalMeasure(dec), mv.flow.terminal, 2)
    assert gap <= 2.0 * mc


def test_flow_restart_consistency(ou_spec):
    gap = flow_property_check(ou_spec, EmpiricalMeasure.dirac(1.0),
                              s=0.5, T=1.0, dt=0.01, n=4000, seed=5)
    assert gap <= 3.0 * 0.02
    # near-terminal restarts leave almost no room to drift apart
    late = flow_property_check(ou_spec, EmpiricalMeasure.dirac(1.0),
                               s=0.98, T=1.0, dt=0.01, n=4000, seed=5)
    assert late <= 0.05
    frozen = _quiet_spec(lambda t, x, mu: -x, sigma0=0.0)
    assert flow_property_check(frozen, EmpiricalMeasure.dirac(1.0),
                               s=0.5, T=1.0, dt=0.01, n=50, seed=5) <= 1e-10


def test_synchronous_w2_decay_dominated(ou_spec):
    fit = contraction_rate(ou_spec, EmpiricalMeasure.dirac(0.0),
                           EmpiricalMeasure.dirac(1.0), dt=0.01, T=2.0,
                           n=2000, seed=12)
    lam = ou_spec.contraction_rate_bound()
    w0 = fit.w_values[0]
    for t, w in zip(fit.times, fit.w_values):
        assert w <= math.exp(-lam * t) * w0 + 0.05
    # the fitted rate reflects the true 1.5 decay, not just the certified 1.0
    assert fit.rate == pytest.approx(1.5, abs=0.1)


def test_repelling_interaction_still_contracts(repel_spec):
    fit = contraction_rate(repel_spec, EmpiricalMeasure.dirac(0.0),
                           EmpiricalMeasure.dirac(1.0), dt=0.01, T=3.0,
                           n=2000, seed=13)
    assert fit.rate >= repel_spec.contraction_rate_bound() - 0.05


def test_equal_initial_laws_truncate_fit(ou_spec):
    theta = EmpiricalMeasure.dirac(1.0)
    fit = contraction_rate(ou_spec, theta, theta, dt=0.05, T=0.5,
                           n=100, seed=0)
    assert np.all(fit.w_values <= 1e-8)
    assert math.isnan(fit.rate)
    assert fit.truncated_at == 0.0
    assert fit.note


def test_capped_assignment_is_noted_on_the_fit(ou_spec, monkeypatch):
    monkeypatch.setattr(measure, "ASSIGNMENT_LIMIT", 8)
    spec = ou_spec.replace(dim=2, diffusion=lambda x, mu: np.eye(2),
                           name="ou-2d")
    theta = EmpiricalMeasure.dirac(0.0, dim=2)
    theta_prime = EmpiricalMeasure.dirac(1.0, dim=2)
    fit = contraction_rate(spec, theta, theta_prime, dt=0.05, T=0.5, n=12,
                           seed=3)
    assert math.isfinite(fit.rate)
    assert fit.note == "W_2 on the first 8 of 12 atoms of each system"
    # at or below the cap, and in one dimension, every atom is used
    assert contraction_rate(spec, theta, theta_prime, dt=0.05, T=0.5, n=8,
                            seed=3).note == ""
    assert contraction_rate(ou_spec, EmpiricalMeasure.dirac(0.0),
                            EmpiricalMeasure.dirac(1.0), dt=0.05, T=0.5,
                            n=12, seed=3).note == ""
    # a truncation note keeps the cap note after it
    same = contraction_rate(spec, theta, theta, dt=0.05, T=0.5, n=12, seed=3)
    assert same.note.endswith("; W_2 on the first 8 of 12 atoms of each "
                              "system")


def test_blow_up_reports_rather_than_nan():
    spec = _quiet_spec(lambda t, x, mu: x ** 3)
    with np.errstate(over="ignore"), pytest.raises(BlowUpError):
        simulate_mv(spec, EmpiricalMeasure.dirac(2.0), dt=0.5, T=10.0,
                    n_particles=8, seed=0)


def test_flow_coverage_guard(ou_spec):
    flow = MeasureFlow.constant(EmpiricalMeasure.dirac(0.0), 0.0, 1.0)
    with pytest.raises(ValueError, match="covers"):
        next(iter_mv(ou_spec, np.zeros((10, 1)), 0.01, 200, 0, flow=flow))


def test_sparse_records_match_the_full_bundle(ou_spec):
    theta = EmpiricalMeasure.dirac(1.0)
    full = simulate_mv(ou_spec, theta, dt=0.1, T=1.0, n_particles=50,
                       seed=3).bundle
    sparse = simulate_mv(ou_spec, theta, dt=0.1, T=1.0, n_particles=50,
                         seed=3, record_every=3).bundle
    # 10 steps, every third recorded, plus the terminal node
    nodes = [0, 3, 6, 9, 10]
    np.testing.assert_array_equal(sparse.times, full.times[nodes])
    np.testing.assert_array_equal(sparse.states, full.states[nodes])


def test_bundle_accessors(ou_spec):
    res = simulate_mv(ou_spec, EmpiricalMeasure.dirac(0.0), dt=0.1, T=1.0,
                      n_particles=5, seed=0, record_every=2)
    b = res.bundle
    assert b.states.shape == (len(b.times), 5, 1)
    np.testing.assert_array_equal(b.states[-1], res.flow.terminal.points)
    with pytest.raises(ValueError):
        PathBundle(np.array([0.0, 1.0]), np.zeros((3, 2, 1)), seed=0)


def test_scalar_diffusion_product_matches_matmul():
    rng = np.random.default_rng(8)
    for n in (1, 7, 3000):
        vec = rng.normal(size=(n, 1)) * 10.0 ** rng.integers(-8, 8, (n, 1))
        for s in (1.0, 0.37, -2.5, rng.normal(), 1e-300, -7e200):
            sig = np.array([[s]])
            np.testing.assert_array_equal(_sigma_dot(sig, vec), vec @ sig.T)


@pytest.fixture(scope="module")
def mv_flow(ou_spec):
    # an interacting flow out of a Dirac mass: its law moves every step
    return simulate_mv(ou_spec, EmpiricalMeasure.dirac(1.5), dt=0.1, T=4.0,
                       n_particles=40, seed=2).flow


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_resumed_run_is_the_unsplit_run(ou_spec, mv_flow, data):
    m = data.draw(st.integers(1, 30), label="M")
    k = data.draw(st.integers(0, m), label="split step")
    start = data.draw(st.sampled_from([0, 3]), label="start")
    dt, seed = 0.1, 5
    x0 = np.linspace(-1.0, 2.0, 20)[:, None]
    unsplit = [(x.copy(), dw) for _j, _t, x, _mu, dw in iter_mv(
        ou_spec, x0, dt, m, seed, start=start, flow=mv_flow)]
    # restarted at step start + k, its noise blocks and times line up with
    # the unsplit run's, so its states do too
    resumed = [(x.copy(), dw) for _j, _t, x, _mu, dw in iter_mv(
        ou_spec, unsplit[k][0], dt, m - k, seed, start=start + k,
        flow=mv_flow)]
    assert len(resumed) == m - k + 1
    for (x, dw), (x_ref, dw_ref) in zip(resumed[1:], unsplit[k + 1:]):
        np.testing.assert_array_equal(x, x_ref)
        np.testing.assert_array_equal(dw, dw_ref)


def _timed_mv_spec():
    # reads t and the measure, so a resumed run must get both right
    return _quiet_spec(lambda t, x, mu: np.sin(3.0 * t) - x - 0.5 * mu.mean(),
                       name="timed-mv")


_CLOUD = EmpiricalMeasure(np.linspace(-1.0, 2.0, 20)[:, None])


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_resumed_mv_run_is_the_unsplit_run(data):
    m = data.draw(st.integers(1, 30), label="M")
    k = data.draw(st.integers(0, m), label="split step")
    every = data.draw(st.integers(1, 12), label="record_every")
    spec, dt, seed = _timed_mv_spec(), 0.1, 5
    unsplit = simulate_mv(spec, _CLOUD, dt=dt, T=m * dt, n_particles=20,
                          seed=seed)
    # the recorded checkpoints are the unsplit run's states
    sparse = simulate_mv(spec, _CLOUD, dt=dt, T=m * dt, n_particles=20,
                         seed=seed, record_every=every)
    nodes = list(range(0, m, every)) + [m]
    np.testing.assert_array_equal(sparse.bundle.states,
                                  unsplit.bundle.states[nodes])
    resumed = [(t, x.copy(), mu) for _j, t, x, mu, _dw in iter_mv(
        spec, unsplit.bundle.states[k], dt, m - k, seed, start=k)]
    assert len(resumed) == m - k + 1
    for j, (t, x, mu) in enumerate(resumed):
        if j > 0:
            assert t == unsplit.bundle.times[k + j]
        np.testing.assert_array_equal(x, unsplit.bundle.states[k + j])
        np.testing.assert_array_equal(mu.points,
                                      unsplit.flow.measures[k + j].points)


def test_decoupled_run_on_its_own_flow_is_the_interacting_run():
    # against the interacting run's own flow, recorded at every node, the
    # decoupled equation is that run: same states, same increments
    spec, dt, m, seed = _timed_mv_spec(), 0.1, 12, 5
    x0 = draw_initial(_CLOUD, 20, seed)
    run = [(t, x.copy(), mu, dw)
           for _j, t, x, mu, dw in iter_mv(spec, x0, dt, m, seed)]
    flow = MeasureFlow([t for t, *_ in run], [mu for _, _, mu, _ in run])
    for start in (0, 5):
        replay = [(x.copy(), dw) for _j, _t, x, _mu, dw in iter_mv(
            spec, run[start][1], dt, m - start, seed, start=start, flow=flow)]
        assert len(replay) == m - start + 1
        for j, ((x, dw), (_t, x_ref, _mu, dw_ref)) in enumerate(
                zip(replay, run[start:])):
            np.testing.assert_array_equal(x, x_ref)
            if j > 0:
                np.testing.assert_array_equal(dw, dw_ref)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_checkpointed_flow_matches_the_stored_flow(data):
    # an interacting_flow keeps the clouds it is asked for, and the terminal
    # one; every node's declared statistics are the stored record's, here
    # with the mean, m2 and sine-weak's phi all declared
    m = data.draw(st.integers(1, 40), label="M")
    keep = data.draw(st.lists(st.integers(0, m), max_size=3), label="kept")
    (phi,) = model.preset("sine-weak").law_stats
    spec = _timed_mv_spec().replace(law_stats=("mean", "m2", phi))
    dt, seed = 0.1, 8
    stored = simulate_mv(spec, _CLOUD, dt=dt, T=m * dt, n_particles=20,
                         seed=seed).flow
    flow = interacting_flow(spec, _CLOUD, dt=dt, T=m * dt, n_particles=20,
                            seed=seed, keep=[k * dt for k in keep])
    np.testing.assert_array_equal(flow.times, stored.times)
    for k, (node, mu) in enumerate(zip(flow.measures, stored.measures)):
        if k in keep or k == m:
            np.testing.assert_array_equal(node.points, mu.points)
        else:
            assert isinstance(node, LawSummary)
        np.testing.assert_array_equal(node.mean(), mu.mean())
        assert node.m1() == mu.m1() and node.m2() == mu.m2()
        assert node.expect(phi) == mu.expect(phi)


def test_checkpointed_flow_memory_is_a_fraction_of_the_record(ou_spec):
    # the flow keeps a mean per node and one cloud, not M + 1 clouds
    n, dt, m = 2000, 0.01, 2000
    record_bytes = (m + 1) * n * 8
    tracemalloc.start()
    try:
        flow = interacting_flow(ou_spec, EmpiricalMeasure.dirac(1.0),
                                dt=dt, T=m * dt, n_particles=n, seed=4)
        for t in flow.times[::-1]:
            flow.at_time(t).mean()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < record_bytes / 20


def test_checkpointed_flow_reads_from_threads_match_the_stored_flow(ou_spec):
    # reads are lookups: no lock, and any order on any thread
    kw = dict(dt=0.1, T=6.0, n_particles=30, seed=12)
    stored = simulate_mv(ou_spec, EmpiricalMeasure.dirac(1.0), **kw).flow
    flow = interacting_flow(ou_spec, EmpiricalMeasure.dirac(1.0), **kw,
                            keep=[3.0])

    def reads(worker):
        order = np.random.default_rng(worker).permutation(len(stored.times))
        return all(np.array_equal(flow.at_time(stored.times[k]).mean(),
                                  stored.measures[k].mean()) for k in order)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(reads, w) for w in range(12)]
            assert all(f.result(timeout=120) for f in futures)
    finally:
        sys.setswitchinterval(interval)
    for t in (3.0, 6.0):
        np.testing.assert_array_equal(flow.at_time(t).points,
                                      stored.at_time(t).points)


def test_summary_node_refuses_what_the_spec_does_not_declare(ou_spec):
    flow = interacting_flow(ou_spec, EmpiricalMeasure.dirac(1.0), dt=0.1,
                            T=1.0, n_particles=30, seed=12)
    node = flow.at_time(0.3)
    assert node.m1() == float(node.mean()[0])
    with pytest.raises(ValueError, match=r"^points at t = 0\.3:"):
        node.points
    with pytest.raises(ValueError, match=r"^m2\(\) at t = 0\.3:"):
        node.m2()
    (phi,) = model.preset("sine-weak").law_stats
    with pytest.raises(ValueError, match=r"^expect\(_tanh_first\) at t = 0\.3:"):
        node.expect(phi)
    with pytest.raises(ValueError, match="read-only"):
        node.mean()[0] = 0.0
