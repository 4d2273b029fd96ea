"""Cross-checks of the hand-derived reference values in oracle_reference.py.

These tests exercise only numpy/scipy, never the package: they certify that
the frozen oracle numbers are right before any library test consumes them.
"""

import itertools
import math

import numpy as np
import pytest
from scipy import integrate

import oracle_reference as oracle


def test_mean_ode_matches_integrator():
    # m' = -eta m - kappa m for the attracting variant, m(0) = 1
    for attract in (True, False):
        sign = -1.0 if attract else 1.0
        sol = integrate.solve_ivp(
            lambda t, m: -oracle.ETA * m + sign * oracle.KAPPA * m,
            (0.0, 2.0), [1.0], rtol=1e-10, atol=1e-12, dense_output=True)
        for t in (0.5, 1.0, 2.0):
            assert sol.sol(t)[0] == pytest.approx(
                oracle.mv_mean(t, 1.0, attract=attract), rel=1e-8)


def test_variance_ode_matches_integrator():
    sol = integrate.solve_ivp(
        lambda t, v: -2.0 * oracle.ETA * v + oracle.SIGMA0 ** 2,
        (0.0, 4.0), [0.0], rtol=1e-10, atol=1e-12, dense_output=True)
    for t in (0.5, 1.0, 2.0, 4.0):
        assert sol.sol(t)[0] == pytest.approx(oracle.ou_variance(t), rel=1e-8)
    assert oracle.ou_variance(50.0) == pytest.approx(oracle.stationary_variance())


def test_euler_chain_closed_forms():
    dt, eta = 0.01, 1.0
    v = 0.0
    for _ in range(200):
        v = (1.0 - eta * dt) ** 2 * v + dt
    assert v == pytest.approx(oracle.euler_variance(200, dt), rel=1e-12)
    # long run hits the discrete fixed point, not the continuous one
    assert oracle.euler_variance(10_000, dt) == pytest.approx(
        oracle.euler_stationary_variance(dt), rel=1e-10)
    assert oracle.euler_stationary_variance(dt) == pytest.approx(
        1.0 / (2.0 - dt), rel=1e-12)


def test_euler_chain_ergodic_pair():
    # (lambda_dt, u_dt) solves the chain's one-step relative value equation
    # u(x) + lambda dt = dt x^2 + E u((1 - dt) x + sqrt(dt) xi), with
    # E[((1 - dt) x + sqrt(dt) xi)^2] = (1 - dt)^2 x^2 + dt
    for dt in (0.05, 0.02, 0.01):
        lam = oracle.lambda_quadratic_euler(dt)
        a = oracle.u_bar_quadratic_euler(1.0, dt)
        for x in (-1.5, 0.0, 1.0, 2.0):
            lhs = oracle.u_bar_quadratic_euler(x, dt) + lam * dt
            rhs = dt * x * x + a * ((1.0 - dt) ** 2 * x * x + dt)
            assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-15)
            fd = (oracle.u_bar_quadratic_euler(x + 1e-6, dt)
                  - oracle.u_bar_quadratic_euler(x - 1e-6, dt)) / 2e-6
            assert fd == pytest.approx(
                oracle.zeta_bar_quadratic_euler(x, dt), abs=1e-7)
    # and tends to the continuous-time pair as the step shrinks
    gaps = []
    for dt in (0.1, 0.02, 1e-3, 1e-5):
        gap = abs(oracle.lambda_quadratic_euler(dt) - oracle.LAMBDA_QUADRATIC)
        for x in (1.0, 2.0, -1.5):
            gap = max(gap, abs(oracle.u_bar_quadratic_euler(x, dt)
                               - oracle.u_bar_quadratic(x)) / (x * x))
        gaps.append(gap)
    assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-5
    assert oracle.lambda_quadratic_euler(0.02) == pytest.approx(
        1.0 / 1.98, rel=1e-12)


def test_bruteforce_wasserstein_values():
    assert oracle.wp_bruteforce([0.0, 2.0], [1.0, 3.0], 2) == pytest.approx(1.0)
    assert oracle.wp_bruteforce([0.0, 2.0], [1.0, 3.0], 1) == pytest.approx(1.0)
    assert oracle.wp_bruteforce([0.0], [1.0], 1) == pytest.approx(1.0)
    # crossing pairs must be matched sorted, not identity
    assert oracle.wp_bruteforce([0.0, 10.0], [9.0, 1.0], 2) == pytest.approx(1.0)


def test_alpha_value_matches_quadrature():
    for alpha in (0.4, 0.1, 0.05):
        for x in (0.0, 1.0):
            val, _ = integrate.quad(
                lambda s: math.exp(-alpha * s) * oracle.second_moment_from_x0(s, x),
                0.0, 400.0, limit=400)
            assert val == pytest.approx(
                oracle.alpha_value_quadratic(alpha, x), rel=1e-7)
    # the discount-weighted value at the anchor tends to lambda
    gaps = [abs(oracle.alpha_lambda_candidate(a) - oracle.LAMBDA_QUADRATIC)
            for a in (0.4, 0.2, 0.1, 0.05)]
    assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))


def test_discounted_euler_chain_candidate():
    # u = A x^2 + A / alpha with A the candidate solves the discounted
    # one-step equation u(x) (1 + alpha dt) = dt x^2 + E u(X_1)
    for alpha, dt in itertools.product((0.4, 0.2, 0.1, 0.05), (0.05, 0.02)):
        big_a = oracle.alpha_candidate_quadratic_euler(alpha, dt)
        for x in (-1.5, 0.0, 1.0, 2.0):
            lhs = (big_a * x * x + big_a / alpha) * (1.0 + alpha * dt)
            rhs = dt * x * x + big_a * ((1.0 - dt) ** 2 * x * x + dt) \
                + big_a / alpha
            assert lhs == pytest.approx(rhs, rel=1e-13)
    # it tends to the chain's lambda as the discount vanishes, and to the
    # continuous-time candidate as the step shrinks
    for dt in (0.05, 0.02):
        assert oracle.alpha_candidate_quadratic_euler(1e-9, dt) == \
            pytest.approx(oracle.lambda_quadratic_euler(dt), rel=1e-8)
    for alpha in (0.4, 0.05):
        assert oracle.alpha_candidate_quadratic_euler(alpha, 1e-9) == \
            pytest.approx(alpha * oracle.alpha_value_quadratic(alpha, 0.0),
                          rel=1e-8)


def test_ltb_closed_forms_match_quadrature():
    for T in (2.0, 5.0, 10.0):
        y0, _ = integrate.quad(lambda s: oracle.second_moment_from_x0(s, 0.0), 0.0, T)
        assert abs(y0 / T - 0.5) == pytest.approx(oracle.ltb1_residual(T), rel=1e-9)
    for T in (2.0, 4.0):
        for x0 in (0.0, 1.0, 3.0):
            run, _ = integrate.quad(
                lambda s: oracle.second_moment_from_x0(s, x0), 0.0, T)
            y0 = run + oracle.second_moment_from_x0(T, x0)
            v = y0 - 0.5 * T - oracle.u_bar_quadratic(x0)
            assert v == pytest.approx(oracle.ltb2_v(T, x0), abs=1e-9)
    assert oracle.ltb2_v(40.0, 1.0) == pytest.approx(oracle.LTB2_ELL)


def test_sine_example_dissipativity_scan():
    # brute-force the one-sided bound <(x-x'), b(x)-b(x')> outside the ball
    b = lambda x: -x + 1.5 * np.sin(x)
    rng = np.random.default_rng(0)
    x = rng.normal(0.0, 8.0, 40_000)
    y = rng.normal(0.0, 8.0, 40_000)
    d = x - y
    quot = d * (b(x) - b(y)) / d ** 2
    outside = np.abs(d) > oracle.SINE_RBALL
    assert quot[outside].max() <= -oracle.SINE_ETA + 1e-12
    # Lipschitz constant of the drift
    grid = np.linspace(-20, 20, 100_001)
    slope = np.abs(np.diff(b(grid)) / np.diff(grid))
    assert slope.max() <= oracle.SINE_KBX + 1e-6


def test_sine_kappa_star_and_integral():
    # G really is the running integral of kappa* (jump at r=6 declared to quad)
    for r0 in (1.0, 3.0, 5.5, 6.0, 7.0, 10.0):
        g_num, _ = integrate.quad(
            lambda s: float(oracle.kappa_star_sine(s)), 0.0, r0,
            points=[6.0] if r0 > 6.0 else None)
        assert g_num == pytest.approx(float(oracle.g_integral_sine(r0)), abs=1e-9)
    assert oracle.g_integral_sine(6.0) == pytest.approx(45.0)
    # tail derivative of the radial transform is exactly 2 sigma0^2/(eta-Ksx)
    for r0 in (6.0, 7.0, 9.0):
        tail, _ = integrate.quad(
            lambda u: u * math.exp(oracle.g_integral_sine(u) / 2.0), r0, 60.0)
        phi_prime = math.exp(-oracle.g_integral_sine(r0) / 2.0) * tail
        assert phi_prime == pytest.approx(oracle.PHI_PRIME_TAIL_SINE, rel=1e-9)


def test_strong_limit_radial_transform():
    # R=0, kappa*(r) = -a r: Phi'(r) = e^{a r^2/4} int_r^inf u e^{-a u^2/4} du = 2/a
    a = 0.7
    for r0 in (0.0, 0.5, 2.0):
        tail, _ = integrate.quad(lambda u: u * math.exp(-a * u * u / 4.0), r0, 40.0)
        assert math.exp(a * r0 * r0 / 4.0) * tail == pytest.approx(2.0 / a, rel=1e-10)


def test_lq_ergodic_closed_form():
    c = oracle.LAMBDA_LQ
    assert c * c + 2.0 * c - 1.0 == pytest.approx(0.0, abs=1e-15)
    # u = c x^2 solves u''/2 - x u' + H(x, u') = lam while the clamp is inactive
    for x in np.linspace(-2.4, 2.4, 33):
        z = oracle.zeta_bar_lq(x)
        assert abs(z) <= 2.0 + 1e-12
        h_val, a_star = oracle.hamiltonian_lq(x, z)
        assert c - x * z + h_val == pytest.approx(oracle.LAMBDA_LQ, abs=1e-12)
        assert a_star == pytest.approx(-c * x, abs=1e-12)
    # zeta really is the spatial gradient of u
    for x in (-2.0, -0.5, 0.0, 1.0, 2.3):
        fd = (oracle.u_bar_lq(x + 1e-6) - oracle.u_bar_lq(x - 1e-6)) / 2e-6
        assert fd == pytest.approx(oracle.zeta_bar_lq(x), abs=1e-7)


def test_hamiltonian_table():
    for (x, z), (val, amin) in oracle.HAMILTONIAN_LQ_TABLE:
        got_val, got_a = oracle.hamiltonian_lq(x, z)
        assert got_val == pytest.approx(val, abs=1e-15)
        assert got_a == pytest.approx(amin, abs=1e-15)
    # cross-check the closed form against a dense grid for random (x, z)
    rng = np.random.default_rng(1)
    grid = np.linspace(-1.0, 1.0, 200_001)
    for _ in range(25):
        x, z = rng.normal(size=2) * 3.0
        vals = x * x + grid * grid + z * grid
        got_val, got_a = oracle.hamiltonian_lq(x, z)
        assert got_val <= vals.min() + 1e-9
        assert abs(got_val - vals.min()) < 1e-8


def test_euler_chain_grid_reproduces_the_ou_closed_forms():
    dt = 0.02
    lam, x, u = oracle.euler_chain_ergodic("ou-attract", dt)
    assert lam == pytest.approx(oracle.lambda_quadratic_euler(dt), rel=1e-9)
    bulk = np.abs(x) <= 3.0
    np.testing.assert_allclose(
        u[bulk], [oracle.u_bar_quadratic_euler(v, dt) for v in x[bulk]],
        atol=1e-8)


def test_euler_chain_grid_is_converged_in_its_step():
    # halving the grid step moves lambda, u_bar in the bulk and Y0^T by
    # at most 1e-6. Checked on control-lq, whose Hamiltonian has a kink
    # at |z| = 2: 1.5e-9 there, against 1e-14 on sine-weak (2 s more)
    preset, dt, horizons = "control-lq", 0.02, (1.0, 2.0, 4.0)
    coarse = oracle.euler_chain_ergodic(preset, dt, n=601)
    fine = oracle.euler_chain_ergodic(preset, dt, n=1201)
    assert abs(coarse[0] - fine[0]) <= 1e-6
    np.testing.assert_allclose(coarse[1], fine[1][::2], atol=1e-12)
    bulk = np.abs(coarse[1]) <= 3.0
    np.testing.assert_allclose(coarse[2][bulk], fine[2][::2][bulk], atol=1e-6)
    np.testing.assert_allclose(oracle.euler_chain_y0(preset, dt, horizons),
                               oracle.euler_chain_y0(preset, dt, horizons,
                                                     n=1201), atol=1e-6)
