"""Finite-horizon BSDE solver: a backward sweep of the exact one-step
operator ("regression later", Glasserman & Yu, Ann. Appl. Probab. 2004)
on one fixed regression cloud.

Under one Euler step from node k, X_{k+1} given X_k = x is Gaussian, so
for a polynomial value surface u_{k+1} both E[u_{k+1}(X_{k+1}) | x] and
E[u_{k+1}(X_{k+1}) dW | x] / dt are exact under a Gauss-Hermite rule
(``_OneStep``). So the regression design need not follow each path: one
cloud is drawn once, one ridge projection P is factored on it
(``_NodeRegressor``), and the sweep runs

    c_k = P (E[u_{k+1}(X_{k+1}) | x] + dt f(x, mu_k, zm_k)),
    zm_k = E[u_{k+1}(X_{k+1}) dW | x] / dt,

from c_M = P g, with zeta_k = P zm_k fitted in the same product as c_k.
No forward paths are simulated, no noise is drawn after the cloud, and
each node is one product P [y | zm]. The measure arguments come from the
frozen flow, read once per node from last to first. The fixed point and
the discount ladder of ``ergolab.ebsde`` build their operator from the
same one-step rule.

The cloud is a draw from the flow's law at T, not a spread around x0.
Where the basis cannot hold the value surface, the projection's weights
decide which error is made, and a cloud drawn from where the process
spends its time keeps the growth of Y0 in T near the long-run average
(measured in README, "Finite-horizon BSDE"). For a constant stationary
flow it is the law the ergodic fixed point projects on. The trade-off:
every node's surface is fitted on that one cloud, not on the law of X_k,
so a read-out outside the cloud extrapolates the polynomial.

On a constant flow every horizon draws the same cloud, and with
coefficients that do not read t the horizon-T solve is a time shift of
a longer one: its n_T + 1 nodes are the last n_T + 1 of the longer
sweep, bit for bit. So ``_solve_horizons`` runs one sweep for a grid of
horizons on a constant flow, and one per horizon on a moving flow.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from ergolab.measure import MeasureFlow
from ergolab.sde import (INIT_DRAW_STEP, draw_initial, gaussian_increments,
                         _check_flow, _steps_for)

__all__ = [
    "BasisDegeneracyError",
    "OffGridWarning",
    "RegressionFunction",
    "BsdeSolution",
    "monomial_exponents",
    "solve_finite_bsde",
    "backward_lsmc",
    "z_from_gradient",
]

_RIDGE = 1e-10
_COND_LIMIT = 1e12
_MIN_SPREAD = 0.1


class BasisDegeneracyError(RuntimeError):
    """Regression design matrix effectively singular at some node."""

    def __init__(self, node: int, cond: float):
        self.node = node
        self.cond = cond
        super().__init__(
            f"regression basis degenerate at node {node} "
            f"(condition estimate {cond:.3g})")


class OffGridWarning(UserWarning):
    """A time query landed between nodes; the nearest one was used."""


def monomial_exponents(dim: int, degree: int) -> np.ndarray:
    """Exponent rows of all monomials with total degree <= degree,
    graded lexicographic."""
    rows = [[]]
    for _ in range(dim):
        rows = [r + [k] for r in rows for k in range(degree + 1)]
    arr = np.array([r for r in rows if sum(r) <= degree], dtype=int)
    return arr[np.argsort(arr.sum(axis=1), kind="stable")]


def _design(u: np.ndarray, exponents: np.ndarray,
            pows: np.ndarray | None = None,
            out: np.ndarray | None = None) -> np.ndarray:
    """(N, n_basis) monomial matrix at standardized points u of shape (N, d).

    ``pows`` (d, max exponent + 1, N) and ``out`` (N, n_basis), when given,
    are filled in place of fresh arrays, with the same arithmetic."""
    n, d = u.shape
    # per-dimension power tables keep this at O(N d degree) multiplies
    deg = int(exponents.max()) if exponents.size else 0
    if pows is None:
        pows = np.empty((d, deg + 1, n))
    if out is None:
        out = np.empty((n, exponents.shape[0]))
    pows[:, 0] = 1.0
    for j in range(d):
        for k in range(1, deg + 1):
            np.multiply(pows[j, k - 1], u[:, j], out=pows[j, k])
    for i, e in enumerate(exponents):
        col = out[:, i]
        col[...] = pows[0, e[0]]
        for j in range(1, d):
            np.multiply(col, pows[j, e[j]], out=col)
    return out


@dataclass(frozen=True, eq=False)
class RegressionFunction:
    """Piecewise-in-time polynomial regression surface.

    Per node: coefficients over monomials of the standardized state
    u = (x - center) / scale, the same for every node. Evaluation picks
    the nearest time node. ``offset`` is subtracted after evaluation
    (scalar fields only), so an anchor value can be zeroed exactly.
    """

    times: np.ndarray
    coeffs: np.ndarray  # (M+1, n_basis, out_dim)
    exponents: np.ndarray
    center: np.ndarray  # (dim,)
    scale: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        if self.coeffs.shape[1] != self.exponents.shape[0]:
            raise ValueError("coefficient rows do not match the basis size")
        if self.coeffs.shape[0] != self.times.shape[0]:
            raise ValueError("one coefficient block per time node required")

    @property
    def dim(self) -> int:
        return self.exponents.shape[1]

    @property
    def out_dim(self) -> int:
        return self.coeffs.shape[2]

    @property
    def degree(self) -> int:
        return int(self.exponents.sum(axis=1).max())

    def node_index(self, t: float, warn: bool = False) -> int:
        k = int(np.argmin(np.abs(self.times - t)))
        if warn:
            step = float(np.min(np.diff(self.times))) if len(self.times) > 1 else 0.0
            if abs(self.times[k] - t) > 0.5 * step + 1e-12:
                warnings.warn(
                    f"time {t:.6g} is off the node grid; using node "
                    f"{k} (t = {self.times[k]:.6g})", OffGridWarning,
                    stacklevel=3)
        return k

    def _pts(self, x) -> np.ndarray:
        arr = np.asarray(x, dtype=float)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1) if arr.shape[0] == self.dim else arr[:, None]
        return arr

    def eval_node(self, k: int, x) -> np.ndarray:
        pts = self._pts(x)
        u = (pts - self.center) / self.scale
        out = _design(u, self.exponents) @ self.coeffs[k]
        out = out - self.offset
        return out[:, 0] if self.out_dim == 1 else out

    def __call__(self, t: float, x, warn: bool = False) -> np.ndarray:
        return self.eval_node(self.node_index(t, warn=warn), x)

    def gradient(self, t: float, x, warn: bool = False) -> np.ndarray:
        """Analytic spatial gradient, (N, dim); scalar fields only."""
        if self.out_dim != 1:
            raise ValueError("gradient is defined for scalar fields")
        k = self.node_index(t, warn=warn)
        pts = self._pts(x)
        u = (pts - self.center) / self.scale
        grad = np.empty_like(pts)
        for j in range(self.dim):
            lowered = self.exponents.copy()
            lowered[:, j] = np.maximum(lowered[:, j] - 1, 0)
            factor = (self.exponents[:, j] / self.scale[j])
            grad[:, j] = _design(u, lowered) @ (factor * self.coeffs[k, :, 0])
        return grad


@dataclass(frozen=True, eq=False)
class BsdeSolution:
    """Backward-sweep solution: scalar readouts at the queried start point
    plus the full regression surfaces and per-node diagnostics."""

    y0: float
    z0: np.ndarray
    u: RegressionFunction
    zeta: RegressionFunction
    dt: float
    seed: int
    residuals: np.ndarray        # per-node RMS projection residual of Y_k

    def report(self) -> dict:
        out = {"y0": self.y0, "dt": self.dt, "seed": self.seed,
               "max_residual": float(self.residuals.max(initial=0.0))}
        for j, v in enumerate(np.atleast_1d(self.z0)):
            out[f"z0_{j}"] = float(v)
        return out


class _NodeRegressor:
    """A cloud's ridge least-squares map, factored once and reused by
    every fit on that cloud.

    The design B (N x nb) is factored by a single R-only QR, B = QR, and
    Q is never formed. The condition estimate max|R_ii| / min|R_ii| is
    read off that raw R, before any ridge: the ridge would mask a
    degenerate basis by flooring every pivot at sqrt(_RIDGE). Since
    B^T B = R^T R, the ridge solution of min |B c - y|^2 + _RIDGE |c|^2 is
    c = P y with P = (R^T R + _RIDGE I)^{-1} B^T, which is formed once
    (nb x N). The smallest eigenvalue of R^T R + _RIDGE I is at least
    _RIDGE = 1e-10, so the nb x nb inverse always exists.
    """

    def __init__(self, states: np.ndarray, exponents: np.ndarray, node: int):
        self.exponents = exponents
        self.center = states.mean(axis=0)
        self.scale = np.maximum(states.std(axis=0), 1e-8)
        u = (states - self.center) / self.scale
        self.basis = _design(u, exponents)
        r = np.linalg.qr(self.basis, mode="r")
        raw = np.abs(np.diag(r))
        cond = float(raw.max() / max(raw.min(), 1e-300))
        if cond > _COND_LIMIT:
            raise BasisDegeneracyError(node, cond)
        gram = r.T @ r + _RIDGE * np.eye(r.shape[1])
        self.proj = np.linalg.inv(gram) @ self.basis.T

    def fit(self, y: np.ndarray) -> np.ndarray:
        """Coefficients (nb, m) for targets y of shape (N,) or (N, m)."""
        return self.proj @ (y if y.ndim == 2 else y[:, None])

    def predict(self, coeffs: np.ndarray) -> np.ndarray:
        return self.basis @ coeffs


def _projection_rmse(reg: _NodeRegressor, fitted: np.ndarray,
                     target: np.ndarray) -> float:
    """RMS over the cloud of a target around its projection."""
    return float(np.linalg.norm(reg.predict(fitted) - target)
                 / math.sqrt(target.shape[0]))


class _OneStep:
    """One Euler step's conditional moments of a degree-q polynomial
    surface, exact by a Gauss-Hermite rule.

    X_1 = x + b dt + sigma dW with dW ~ N(0, dt I). The tensor rule with
    ceil((q + 2) / 2) points per dimension integrates every polynomial of
    degree q + 1 in dW exactly, so for a degree-q surface u both
    E[u(X_1) | x] and E[u(X_1) dW | x] / dt are exact. The rule depends
    only on (dim, q, dt) and is built once per solve.

    The object also holds that solve's workspace for ``design``: the
    next states, the power table and the design matrix, each N * rule
    points rows. It is allocated at the first ``design`` call and reused
    at every later one, so a sweep allocates no large array per node.
    One object serves one solve, on one cloud and one thread.
    """

    def __init__(self, dim: int, degree: int, dt: float):
        nodes, weights = hermegauss(math.ceil((degree + 2) / 2))
        weights = weights / weights.sum()
        self.dt = dt
        self.dw = math.sqrt(dt) * np.array(
            list(itertools.product(nodes, repeat=dim)))
        self.w = np.prod(list(itertools.product(weights, repeat=dim)), axis=1)
        self.wz = self.w[:, None] * self.dw / self.dt
        self._work = None

    def _workspace(self, n: int, d: int, exponents: np.ndarray):
        """(next states, power table, design matrix) for the solve's n
        points, allocated at the first call."""
        if self._work is None:
            rows = n * self.w.size
            self._work = (np.empty((n, self.w.size, d)),
                          np.empty((d, int(exponents.max()) + 1, rows)),
                          np.empty((rows, exponents.shape[0])))
        return self._work

    def design(self, spec, t: float, x: np.ndarray, mu,
               reg: _NodeRegressor) -> np.ndarray:
        """reg's basis, in reg's standardized coordinates, at the rule's
        next states from each x under the coefficients at (t, mu): shape
        (N * rule points, nb), the rule's points of x_i in rows
        i * points to (i + 1) * points. The result is the workspace's
        design matrix, overwritten by the next call."""
        n, d = x.shape
        nxt, pows, basis = self._workspace(n, d, reg.exponents)
        drift = np.broadcast_to(spec.drift(t, x, mu), x.shape)
        np.einsum("njk,gk->ngj", spec.diffusion_at(x, mu), self.dw, out=nxt)
        np.add((x + self.dt * drift)[:, None, :], nxt, out=nxt)
        np.subtract(nxt, reg.center, out=nxt)
        np.divide(nxt, reg.scale, out=nxt)
        return _design(nxt.reshape(-1, d), reg.exponents, pows, basis)

    def moments(self, basis: np.ndarray,
                coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """E[u_c(X_1) | x] and E[u_c(X_1) dW | x] / dt for the ``design``
        at x: shapes (N,) and (N, d) for coefficients c of shape (nb,),
        (N, m) and (N, d, m) for c of shape (nb, m). At c = I these are
        the matrices A and Z with A[i] @ c = E[u_c(X_1) | x_i] and
        Z[i] @ c = E[u_c(X_1) dW | x_i] / dt."""
        values = (basis @ coeffs).reshape(-1, self.w.size, *coeffs.shape[1:])
        return (np.einsum("g,ng...->n...", self.w, values),
                np.einsum("gk,ng...->nk...", self.wz, values))


def _law_cloud(x0: np.ndarray, flow: MeasureFlow, T: float,
               n_particles: int, seed: int) -> np.ndarray:
    """The regression cloud, from the (seed, INIT_DRAW_STEP) block:
    n_particles draws from the flow's law at T. A law with a spread under
    0.1 in some coordinate (a point mass, as when the coefficients ignore
    the measure) would make the design singular; its cloud is x0 plus a
    Gaussian spread at the law's scale, floored at 0.1."""
    law = flow.at_time(T)
    sd = law.points.std(axis=0)
    if np.all(sd >= _MIN_SPREAD):
        return draw_initial(law, n_particles, seed)
    xi = gaussian_increments(seed, INIT_DRAW_STEP, n_particles, x0.shape[0])
    return x0 + np.maximum(sd, _MIN_SPREAD) * xi


def backward_lsmc(spec, cloud: np.ndarray, flow: MeasureFlow, T: float,
                  dt: float, degree: int):
    """Backward sweep of the one-step operator on [0, T] over a fixed
    (N, d) cloud: returns the value surface u, the z-field zeta and the
    per-node residuals.

    One regression is factored on the cloud and one Gauss-Hermite rule
    is built. From c_M = P g(x, mu_M), each node k < M is the one product
    [c_k | zeta_k] = P [y | zm] of the module docstring, with the Euler
    step's exact moments at (t_k, mu_k). ``residuals[k]`` is the RMS over
    the cloud of node k's value target around its projection. A
    non-finite surface raises FloatingPointError with its node.
    """
    n_steps = _steps_for(T, dt)
    d = cloud.shape[1]
    exponents = monomial_exponents(d, degree)
    reg = _NodeRegressor(cloud, exponents, 0)
    step = _OneStep(d, degree, dt)
    times = np.arange(n_steps + 1) * dt
    nb = exponents.shape[0]
    coeffs = np.zeros((n_steps + 1, nb, 1 + d))
    residuals = np.zeros(n_steps + 1)

    for k in range(n_steps, -1, -1):
        mu = flow.at_time(times[k])
        if k == n_steps:
            target = np.asarray(spec.terminal(cloud, mu), dtype=float)[:, None]
        else:
            e_val, z_val = step.moments(
                step.design(spec, times[k], cloud, mu, reg),
                coeffs[k + 1, :, 0])
            y = e_val + dt * np.asarray(spec.driver(cloud, mu, z_val),
                                        dtype=float)
            target = np.column_stack([y, z_val])
        fitted = reg.fit(target)
        if not np.isfinite(fitted.sum()):
            raise FloatingPointError(
                f"backward sweep: non-finite surface at node {k} "
                f"(t = {times[k]:.6g})")
        coeffs[k, :, :fitted.shape[1]] = fitted
        residuals[k] = _projection_rmse(reg, fitted[:, 0], target[:, 0])

    u = RegressionFunction(times=times, coeffs=coeffs[:, :, :1],
                           exponents=exponents, center=reg.center,
                           scale=reg.scale)
    zeta = replace(u, coeffs=coeffs[:, :, 1:])
    return u, zeta, residuals


def _solve_horizons(spec, flow: MeasureFlow, x0, t_grid, dt: float,
                    n_particles: int, degree: int | None,
                    seed: int) -> list[BsdeSolution]:
    """Solve the decoupled BSDE on [0, T] for each T of ``t_grid``, a
    whole number of steps the flow covers, and read (Y0, Z0) at x0 from
    node 0's surfaces. A sweep is ``backward_lsmc`` over ``_law_cloud``'s
    draw from the flow's law at its horizon. This is the one place that
    decides which horizons share one: on a constant flow (one measure at
    every node, as ``MeasureFlow.constant`` builds) the sweep at the
    largest T serves each horizon with its last n_T + 1 nodes, timed
    0, dt, ..., T; a moving flow gives each horizon its own.
    """
    c = spec.constants
    if degree is None:
        degree = max(int(c.q) + 1, 3)
    if degree < c.q + 1:
        raise ValueError(
            f"basis degree {degree} cannot represent terminal growth "
            f"q + 1 = {c.q + 1}")
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape[0] != spec.dim:
        raise ValueError(f"x0 has dimension {x0.shape[0]}, model wants {spec.dim}")
    steps = []
    for T in t_grid:
        _check_flow(flow, 0.0, T, dt)
        steps.append(_steps_for(T, dt))

    def sweep(T):
        return backward_lsmc(spec, _law_cloud(x0, flow, T, n_particles, seed),
                             flow, T, dt, degree)

    constant = isinstance(flow, MeasureFlow) and all(
        m is flow.measures[0] for m in flow.measures)
    shared = sweep(max(t_grid)) if constant else None
    sols = []
    for T, n in zip(t_grid, steps):
        u, zeta, residuals = shared if constant else sweep(T)
        times = np.arange(n + 1) * dt
        u = replace(u, times=times, coeffs=u.coeffs[-n - 1:])
        zeta = replace(zeta, times=times, coeffs=zeta.coeffs[-n - 1:])
        sols.append(BsdeSolution(
            y0=float(u.eval_node(0, x0)[0]),
            z0=np.atleast_2d(zeta.eval_node(0, x0))[0], u=u, zeta=zeta,
            dt=dt, seed=seed, residuals=residuals[-n - 1:]))
    return sols


def solve_finite_bsde(spec, flow: MeasureFlow, x0, T: float, dt: float,
                      n_particles: int, degree: int | None = None,
                      seed: int = 0) -> BsdeSolution:
    """Solve the decoupled BSDE on [0, T] and read (Y0, Z0) at x0: the
    one-horizon call of ``_solve_horizons``."""
    return _solve_horizons(spec, flow, x0, [T], dt, n_particles, degree,
                           seed)[0]


def z_from_gradient(sol: BsdeSolution, spec, flow: MeasureFlow, t: float,
                    x) -> np.ndarray:
    """Z via the gradient representation: grad_x u(t, x) times the
    diffusion at (x, mu_t). Off-grid times fall to the nearest node with
    an OffGridWarning."""
    pts = sol.u._pts(x)
    grad = sol.u.gradient(t, pts, warn=True)
    sig = spec.diffusion_at(pts, flow.at_time(t))
    return np.einsum("nj,njk->nk", grad, sig)
