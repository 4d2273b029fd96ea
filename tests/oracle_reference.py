"""Closed-form reference values used across the test suite.

Everything in this file is derived independently of the package under test:
mean-field Ornstein-Uhlenbeck moment ODEs solved by hand, tiny transport
problems solved by brute force, the strong-regime limit of the concave
radial transform, and the Euler chain of each 1-D preset solved on a dense
grid. ``test_oracle_reference.py`` cross-checks the hand
derivations against scipy's ODE integrator and quadrature so that a mistake
here cannot silently agree with a mistake in the library.

Conventions: the attracting mean-field OU drift is b(x, mu) = -eta*x - kappa*m1(mu),
the repelling variant flips the sign of kappa. Diffusion is the constant sigma0.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# The worked example family: eta=1, kappa=0.5, sigma0=1.
ETA = 1.0
KAPPA = 0.5
SIGMA0 = 1.0


# ---------------------------------------------------------------------------
# Mean-field OU moments
# ---------------------------------------------------------------------------

def mv_mean_rate(eta: float = ETA, kappa: float = KAPPA, attract: bool = True) -> float:
    """Decay rate of the ensemble mean m' = -(eta +- kappa) m."""
    return eta + kappa if attract else eta - kappa


def mv_mean(t: float, x0: float, eta: float = ETA, kappa: float = KAPPA,
            attract: bool = True) -> float:
    return x0 * math.exp(-mv_mean_rate(eta, kappa, attract) * t)


def ou_variance(t: float, v0: float = 0.0, eta: float = ETA,
                sigma0: float = SIGMA0) -> float:
    """v' = -2 eta v + sigma0^2; the interaction term is deterministic and
    cancels from the per-particle variance."""
    v_inf = sigma0 ** 2 / (2.0 * eta)
    return v_inf + (v0 - v_inf) * math.exp(-2.0 * eta * t)


def stationary_variance(eta: float = ETA, sigma0: float = SIGMA0) -> float:
    return sigma0 ** 2 / (2.0 * eta)


def euler_stationary_variance(dt: float, eta: float = ETA,
                              sigma0: float = SIGMA0) -> float:
    """Fixed point of v <- (1-eta*dt)^2 v + sigma0^2 dt for the Euler chain."""
    a = 1.0 - eta * dt
    return sigma0 ** 2 * dt / (1.0 - a * a)


def euler_variance(n_steps: int, dt: float, v0: float = 0.0, eta: float = ETA,
                   sigma0: float = SIGMA0) -> float:
    """Variance of the Euler chain after n_steps from Var = v0."""
    a = (1.0 - eta * dt) ** 2
    vstar = euler_stationary_variance(dt, eta, sigma0)
    return vstar + (v0 - vstar) * a ** n_steps


def euler_gap_factor(n_steps: int, dt: float, rate: float) -> float:
    """Per-step multiplier of a uniform-translate gap under synchronous Euler."""
    return (1.0 - rate * dt) ** n_steps


def second_moment_from_x0(t: float, x0: float, eta: float = ETA,
                          sigma0: float = SIGMA0) -> float:
    """E[X_t^2] for dX = -eta X dt + sigma0 dW started at the point x0
    (the decoupled dynamics against a centered stationary flow)."""
    return x0 ** 2 * math.exp(-2.0 * eta * t) + ou_variance(t, 0.0, eta, sigma0)


# ---------------------------------------------------------------------------
# Wasserstein
# ---------------------------------------------------------------------------

def wp_bruteforce(xs, ys, p: int) -> float:
    """Exact W_p between two uniform clouds of equal (tiny) size, by
    enumerating every atom permutation. Ground truth for <= 6 atoms."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float).T).T
    ys = np.atleast_2d(np.asarray(ys, dtype=float).T).T
    if xs.ndim == 1:
        xs = xs[:, None]
    if ys.ndim == 1:
        ys = ys[:, None]
    n = len(xs)
    assert len(ys) == n and n <= 6
    best = math.inf
    for perm in itertools.permutations(range(n)):
        cost = 0.0
        for i, j in enumerate(perm):
            cost += np.sum(np.abs(xs[i] - ys[j]) ** p)
        best = min(best, cost / n)
    return best ** (1.0 / p)


def w2_gaussian_1d(m1: float, s1: float, m2: float, s2: float) -> float:
    """W2 between two 1D Gaussians."""
    return math.hypot(m1 - m2, s1 - s2)


# ---------------------------------------------------------------------------
# Finite-horizon BSDE values on the worked example
# ---------------------------------------------------------------------------

def y0_quadratic_terminal(T: float, eta: float = ETA, sigma0: float = SIGMA0) -> float:
    """Y0 for driver 0 and terminal x^2, started at x0=0 against a centered
    flow: plain E[X_T^2]."""
    return ou_variance(T, 0.0, eta, sigma0)


def y0_constant_driver(c: float, T: float) -> float:
    return c * T


def y0_linear_z_driver(beta: float, T: float) -> float:
    """Driver beta*z with g(x)=x, b=0, sigma=1, x0=0: the Girsanov shift
    turns X into a drifted Brownian motion, Y0 = beta*T."""
    return beta * T


# ---------------------------------------------------------------------------
# Ergodic quantities for driver x^2 on the attracting example
# ---------------------------------------------------------------------------

LAMBDA_QUADRATIC = 0.5  # stationary E[X^2] = sigma0^2 / (2 eta)


def u_bar_quadratic(x: float) -> float:
    """Ergodic potential: lambda = x^2 + L u  =>  u(x) = x^2/2 (anchored at 0)."""
    return 0.5 * x ** 2


def zeta_bar_quadratic(x: float) -> float:
    """Z representative: u'(x) * sigma0 = x."""
    return float(x)


def lambda_quadratic_euler(dt: float) -> float:
    """The explicit Euler chain's own long-run average of x^2: its
    stationary variance 1 / (2 - dt), not the continuous-time 0.5."""
    return euler_stationary_variance(dt)


def u_bar_quadratic_euler(x: float, dt: float) -> float:
    """The Euler chain's relative value: u(x) + lambda dt = dt x^2 + E u(X_1)
    with X_1 = (1 - dt) x + sqrt(dt) xi is solved by u = a x^2,
    a (1 - (1 - dt)^2) = dt, so a = lambda_quadratic_euler(dt)."""
    return x * x * dt / (1.0 - (1.0 - dt) ** 2)


def zeta_bar_quadratic_euler(x: float, dt: float) -> float:
    """u'(x) * sigma0 for the Euler chain's relative value."""
    return 2.0 * x * dt / (1.0 - (1.0 - dt) ** 2)


def alpha_value_quadratic(alpha: float, x: float, eta: float = ETA,
                          sigma0: float = SIGMA0) -> float:
    """u^alpha(x) = int_0^inf e^{-alpha s} E[X_s^2 | X_0 = x] ds against the
    stationary (centered) flow."""
    v_inf = sigma0 ** 2 / (2.0 * eta)
    return x ** 2 / (alpha + 2.0 * eta) + v_inf * (1.0 / alpha - 1.0 / (alpha + 2.0 * eta))


def alpha_lambda_candidate(alpha: float) -> float:
    """alpha * u^alpha(0) for the quadratic driver."""
    return alpha * alpha_value_quadratic(alpha, 0.0)


def alpha_candidate_quadratic_euler(alpha: float, dt: float) -> float:
    """alpha u_alpha(0) for the discounted Euler chain with driver x^2:
    u(x) (1 + alpha dt) = dt x^2 + E u(X_1), X_1 = (1 - dt) x + sqrt(dt) xi,
    is solved by u = A x^2 + A / alpha with A (1 + alpha dt) =
    A (1 - dt)^2 + dt, so A = 1 / (2 + alpha - dt)."""
    return 1.0 / (2.0 + alpha - dt)


# ---------------------------------------------------------------------------
# Long-time behaviour on the worked example (driver x^2, centered flow)
# ---------------------------------------------------------------------------

def ltb1_residual(T: float) -> float:
    """|Y0^T / T - lambda| for x0=0, centered flow, driver x^2, terminal 0:
    Y0^T = 0.5 T - 0.25 (1 - e^{-2T})."""
    return 0.25 * (1.0 - math.exp(-2.0 * T)) / T


def ltb2_v(T: float, x0: float) -> float:
    """v_T = Y0^T - lambda T - u_bar(x0) with terminal g = x^2, driver x^2,
    against a centered stationary flow. Limit ell = 0.25."""
    return 0.25 + (0.5 * x0 ** 2 - 0.25) * math.exp(-2.0 * T)


LTB2_ELL = 0.25


def y0_quadratic_full(T: float, x0: float) -> float:
    """Y0^T with driver x^2 and terminal x^2 from x0 against a centered flow."""
    return 0.5 * T + u_bar_quadratic(x0) + ltb2_v(T, x0)


# ---------------------------------------------------------------------------
# Weakly dissipative example: b(x) = -x + 1.5 sin x (+ small mean term)
# ---------------------------------------------------------------------------

SINE_ETA = 0.5        # outside-ball dissipativity: -(1 - 3/r) <= -0.5 for r >= 6
SINE_KBX = 2.5        # Lipschitz bound: |d/dx (-x + 1.5 sin x)| = |-1 + 1.5 cos x| <= 2.5
SINE_RBALL = 6.0
SINE_MB = SINE_KBX * SINE_RBALL  # 15.0


def kappa_star_sine(r):
    """kappa*(r) = min(M_b, K_bx r) 1_{r<=R} + eta r 1_{r<=R} - (eta - Ksx) r,
    with Ksx = 0, sigma0 = 1 for the sine example."""
    r = np.asarray(r, dtype=float)
    inside = r <= SINE_RBALL
    return np.where(inside, np.minimum(SINE_MB, SINE_KBX * r), 0.0) - np.where(
        inside, 0.0, SINE_ETA * r)


def g_integral_sine(r):
    """G(r) = int_0^r kappa*: 1.25 r^2 below the ball radius, 54 - 0.25 r^2 above."""
    r = np.asarray(r, dtype=float)
    return np.where(r <= SINE_RBALL, 1.25 * r ** 2, 54.0 - 0.25 * r ** 2)


PHI_PRIME_TAIL_SINE = 4.0  # 2 sigma0^2 / (eta - Ksx) for r >= R, exact


def phi_strong_limit(r, a: float, sigma0: float = 1.0):
    """R = 0 collapse of the double integral: Phi(r) = 2 sigma0^2 r / a."""
    return 2.0 * sigma0 ** 2 * np.asarray(r, dtype=float) / a


# ---------------------------------------------------------------------------
# Control: separable quadratic Hamiltonian on A = [-1, 1], R = 1
# ---------------------------------------------------------------------------

def hamiltonian_lq(x: float, z: float) -> tuple[float, float]:
    """(value, argmin) of inf_{a in [-1,1]} x^2 + a^2 + z a."""
    a = min(1.0, max(-1.0, -0.5 * z))
    return x ** 2 + a * a + z * a, a


HAMILTONIAN_LQ_TABLE = [
    # (x, z) -> (value, argmin)
    ((0.0, 0.0), (0.0, 0.0)),
    ((1.0, 2.0), (0.0, -1.0)),
    ((0.0, 4.0), (-3.0, -1.0)),
]


def shifted_bm_mean(sigma0: float, c: float, T: float) -> float:
    """Terminal mean of dX = sigma0 (c dt + dW) from 0."""
    return sigma0 * c * T


# The LQ long-run problem has a closed form wherever the minimizer stays
# interior (|z| <= 2): try u = c x^2 in the stationary equation
# u''/2 - x u' + x^2 - (u')^2/4 = lam, match the x^2 coefficients:
# c^2 + 2c - 1 = 0, so c = sqrt(2) - 1, and the constant term gives
# lam = c. Clamping activates only beyond |x| = 1/(2c) ~ 2.41, which is
# 3.4 stationary sigmas out; the correction is below every tolerance
# used here.
LAMBDA_LQ = math.sqrt(2.0) - 1.0


def u_bar_lq(x: float) -> float:
    return LAMBDA_LQ * x * x


def zeta_bar_lq(x: float) -> float:
    return 2.0 * LAMBDA_LQ * x


# ---------------------------------------------------------------------------
# The Euler chain on a grid: exact values for every 1-D preset
# ---------------------------------------------------------------------------
# Every preset's measure term vanishes on a law symmetric about 0 (kappa m1
# for the OU models, kappa E[tanh X] for sine-weak), and the flow from a
# point mass at 0 and mu* are both symmetric. So the chain the solvers step,
# X_1 = x + b(x) dt + sqrt(dt) xi, is Markov with a Gaussian kernel, and a
# dense row-normalised kernel on a grid gives its numbers without a basis
# or a cloud. Each entry is (drift b(x), driver f(x, z)); every preset's
# terminal value is x^2.

def _h_lq(z):
    """inf_{a in [-1, 1]} a^2 + z a, elementwise."""
    return np.where(np.abs(z) <= 2.0, -0.25 * z * z, 1.0 - np.abs(z))


EULER_PRESETS = {
    "ou-attract": (lambda x: -x, lambda x, z: x * x),
    "sine-weak": (lambda x: -x + 1.5 * np.sin(x), lambda x, z: x * x),
    "control-lq": (lambda x: -x, lambda x, z: x * x + _h_lq(z)),
}


def _euler_chain_kernel(drift, dt: float, x_max: float, n: int):
    """Grid x (odd n puts a node at 0), the one-step kernel P(x, y) of
    N(x + b dt, dt) row-normalised on the grid, and its z-moment
    PZ(x, y) = P(x, y) (y - x - b dt) / dt stacked under it."""
    x = np.linspace(-x_max, x_max, n)
    d = x[None, :] - (x + drift(x) * dt)[:, None]
    p = np.exp(-0.5 * d * d / dt)
    p /= p.sum(axis=1, keepdims=True)
    return x, np.vstack([p, p * d / dt])


def euler_chain_ergodic(preset: str, dt: float, x_max: float = 6.0,
                        n: int = 601, tol: float = 1e-13):
    """(lambda_dt, x, u_bar(x)) of the preset's Euler chain by relative
    value iteration u <- P u + dt f(x, PZ u), recentred at x = 0 after
    each step, until no node moves by more than tol."""
    drift, driver = EULER_PRESETS[preset]
    x, kern = _euler_chain_kernel(drift, dt, x_max, n)
    mid = n // 2
    u = np.zeros(n)
    for _ in range(1_000_000):
        pu, zu = np.split(kern @ u, 2)
        new = pu + dt * driver(x, zu)
        lam = new[mid] / dt
        new -= new[mid]
        if np.max(np.abs(new - u)) <= tol:
            return lam, x, new
        u = new
    raise RuntimeError("relative value iteration did not settle")


def euler_chain_y0(preset: str, dt: float, horizons, x_max: float = 6.0,
                   n: int = 601) -> np.ndarray:
    """Y0^T(0) for each T in ``horizons`` (whole multiples of dt): the
    backward iteration Y <- P Y + dt f(x, PZ Y) from the terminal x^2."""
    drift, driver = EULER_PRESETS[preset]
    x, kern = _euler_chain_kernel(drift, dt, x_max, n)
    steps = [int(round(t / dt)) for t in horizons]
    y, out = x * x, {}
    for k in range(1, max(steps) + 1):
        py, zy = np.split(kern @ y, 2)
        y = py + dt * driver(x, zy)
        out[k] = y[n // 2]
    return np.array([out[k] for k in steps])


def ltb1_c_euler(preset: str, dt: float = 0.01,
                 t_grid=(5.0, 10.0, 20.0)) -> float:
    """The c of ``ergolab ltb1``'s inverse-time fit on the exact chain:
    the geometric mean of T |Y0^T / T - lambda_dt| over the grid."""
    lam = euler_chain_ergodic(preset, dt)[0]
    t = np.asarray(t_grid, dtype=float)
    resid = np.abs(euler_chain_y0(preset, dt, t) / t - lam)
    return float(np.exp(np.mean(np.log(resid * t))))
