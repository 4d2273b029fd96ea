"""Finite-horizon BSDE solver: a backward sweep of the exact one-step
operator ("regression later", Glasserman & Yu, Ann. Appl. Probab. 2004)
on one fixed regression cloud.

Under one Euler step, X_{k+1} given X_k = x is Gaussian, so for a
polynomial surface u_{k+1} both E[u_{k+1}(X_{k+1}) | x] and
E[u_{k+1}(X_{k+1}) dW | x] / dt are exact (``_Operator``). So one cloud
is drawn once, one ridge projection P is factored on it
(``_NodeRegressor``), and the sweep runs

    c_k = P (E[u_{k+1}(X_{k+1}) | x] + dt f(x, mu_k, zm_k)),
    zm_k = E[u_{k+1}(X_{k+1}) dW | x] / dt,

from c_M = P g, with zeta_k = P zm_k fitted in the same product as c_k
and mu_k read from the frozen flow once per node, last to first: on an
``sde.interacting_flow``, a lookup of the node's law statistics.

``_Operator`` is the one copy of that map, with two rules. The basis
degree is max(q + 1, 3) by default, and a degree below q + 1 raises
ValueError. A law held fixed (mu* in ``ergolab.ebsde``; a constant
flow's measure in ``solve_finite_bsde``, for one horizon or a grid)
reads the drift at t = 0, so a drift declared as reading t
(``ProblemSpec.reads_t``) is never held: ``ergolab.ebsde`` refuses it,
and a constant flow gives it one sweep per horizon.

The cloud is a draw from the flow's law at T, not a spread around x0:
where the basis cannot hold the value surface it weights the error
toward where the process spends its time (README, "Finite-horizon
BSDE"), and a read-out outside it extrapolates the polynomial.

On a held law every horizon draws the same cloud, and the horizon-T
solve is the last n_T + 1 nodes of a longer one, bit for bit, so one
sweep serves a grid of horizons. Otherwise each horizon has its own
cloud and sweep.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

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


def _design(u: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """(N, n_basis) monomial matrix, column-major, at standardized u (N, d)."""
    n, d = u.shape
    # per-dimension power tables keep this at O(N d degree) multiplies
    deg = int(exponents.max()) if exponents.size else 0
    pows = np.empty((d, deg + 1, n))
    out = np.empty((exponents.shape[0], n)).T
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


class _Operator:
    """The one backward map (module docstring) on one fixed (N, d) cloud,
    with its rules: the regression factored on the cloud (``reg``), the
    Gauss-Hermite rule, and the basis degree D. ``target`` alone forms
    the backward target.

    X_1 = x + b dt + sigma dW is u = v + L xi in reg's coordinates, with v
    the standardized conditional mean, L = diag(1 / scale) sigma sqrt(dt)
    and xi ~ N(0, I). The basis is closed under shifts, so E[u^e] =
    sum_p C(e, e_p) v^e_p E[(L xi)^(e - e_p)], and E[u^e xi_k] alike: for
    c (nb,), E[u_c(X_1) | x] = B H c and E[u_c(X_1) dW | x] / dt = B Hz c,
    B the basis at the N conditional means. The moments have degree at
    most D + 1, exact under ceil((D + 2) / 2) rule points per dimension.
    A diffusion that reads x gives one row of moments per point. A ``law``
    held fixed has A = B H and Z = B Hz built once, at t = 0, as one
    (N (1 + d), nb) matrix. Otherwise ``target`` forms B at its (t, mu),
    and L xi's moments only when the diffusion's value changes; so one
    object serves one solve, on one thread.
    """

    def __init__(self, spec, cloud: np.ndarray, dt: float,
                 degree: int | None = None, law=None):
        q = spec.constants.q
        if degree is None:
            degree = max(int(q) + 1, 3)
        if degree < q + 1:
            raise ValueError(
                f"basis degree {degree} cannot represent terminal growth "
                f"q + 1 = {q + 1}")
        self.spec, self.cloud, self.dt, self.law = spec, cloud, dt, law
        d = cloud.shape[1]
        self.reg = _NodeRegressor(cloud, monomial_exponents(d, degree), 0)
        nodes, weights = hermegauss(math.ceil((degree + 2) / 2))
        self.dw = math.sqrt(dt) * np.array(
            list(itertools.product(nodes, repeat=d)))
        w = np.prod(list(itertools.product(weights / weights.sum(),
                                           repeat=d)), axis=1)
        # the rule's weights of E[.] and E[. dW] / dt: (points, 1 + d)
        self.wq = np.column_stack([w, w[:, None] * self.dw / dt])
        # (v + w)^e_b = sum_p C(e_b, e_p) v^e_p w^(e_b - e_p), so with
        # shift[p, j, b] = C(e_b, e_p) where e_j = e_b - e_p (zero unless
        # e_p <= e_b), H[p, b] = sum_j E[(L xi)^e_j] shift[p, j, b] and
        # H c = moments @ (shift @ c).T
        e = self.reg.exponents
        binom = np.array([[math.prod(map(math.comb, b, p)) for b in e.tolist()]
                          for p in e.tolist()], float)
        self._shift = binom[:, None] * (e[:, None, None] + e[None, :, None]
                                        == e[None, None]).all(axis=3)
        self._sigma = (None, None)
        if law is not None:
            basis, moments = self._tables(0.0, law)
            h = np.einsum("rij,pjb->ripb", moments, self._shift)
            self._az = np.einsum("np,nipb->nib", basis, h).reshape(-1, len(e))

    def _tables(self, t: float, mu) -> tuple[np.ndarray, np.ndarray]:
        """B (N, nb) at (t, mu), and the moments (R, 1 + d, nb) of L xi's
        monomials, R = 1 or N: [r, 0] E[.], [r, 1 + k] E[. xi_k]."""
        x, reg = self.cloud, self.reg
        drift = np.broadcast_to(self.spec.drift(t, x, mu), x.shape)
        basis = _design((x + self.dt * drift - reg.center) / reg.scale,
                        reg.exponents)
        sigma = self.spec.diffusion_at(x, mu)
        if sigma.strides[0] == 0:  # the same (d, d) matrix at every point
            sigma = sigma[:1]
        key = (sigma.shape, sigma.tobytes())
        if self._sigma[0] != key:
            # the monomials of L xi at the rule's points (point-major) and
            # their moments, as (1 + d, points) @ (nb, points, R)
            noise = np.einsum("gk,rjk->grj", self.dw, sigma) / reg.scale
            mono = _design(noise.reshape(-1, x.shape[1]), reg.exponents)
            self._sigma = key, (self.wq.T @ mono.T.reshape(
                len(reg.exponents), len(self.wq), -1)).transpose(2, 1, 0)
        return basis, self._sigma[1]

    def target(self, coeffs: np.ndarray, t: float = 0.0,
               mu=None) -> tuple[np.ndarray, np.ndarray]:
        """(E[u_c(X_1) | x] + dt f(x, mu, zm), zm) on the cloud for the
        next node's c (nb,), at (t, mu) or at the law held fixed."""
        if self.law is not None:
            moments = (self._az @ coeffs).reshape(len(self.cloud), -1)
            mu = self.law
        else:
            basis, moments = self._tables(t, mu)
            rows = moments.reshape(-1, len(coeffs)) @ (self._shift @ coeffs).T
            moments = np.einsum("np,nip->ni", basis,
                                rows.reshape(moments.shape))
        z_val = moments[:, 1:]
        y = moments[:, 0] + self.dt * np.asarray(
            self.spec.driver(self.cloud, mu, z_val), dtype=float)
        return y, z_val

    def step(self, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One step at the law held fixed: (value target, its coefficients)."""
        y, _ = self.target(coeffs)
        return y, self.reg.fit(y)[:, 0]

    def rmse(self, fitted: np.ndarray, target: np.ndarray) -> float:
        """RMS over the cloud of a target around its projection."""
        return float(np.linalg.norm(self.reg.predict(fitted) - target)
                     / math.sqrt(target.shape[0]))

    def surface(self, coeffs: np.ndarray, times=(0.0,)) -> RegressionFunction:
        """The surface of ``coeffs`` in reg's coordinates at ``times``:
        (nb,) for a value or (nb, m) for an m-vector field at one node,
        (len(times), nb, m) at several."""
        reg = self.reg
        return RegressionFunction(
            times=np.asarray(times, dtype=float),
            coeffs=coeffs.reshape(len(times), reg.exponents.shape[0], -1),
            exponents=reg.exponents, center=reg.center, scale=reg.scale)


def _law_cloud(x0: np.ndarray, law, n_particles: int,
               seed: int) -> np.ndarray:
    """The regression cloud, from the (seed, INIT_DRAW_STEP) block:
    n_particles draws from ``law``, the flow's law at the horizon. A law
    with a spread under 0.1 in some coordinate (a point mass, as when the
    coefficients ignore the measure) would make the design singular; its
    cloud is x0 plus a Gaussian spread at the law's scale, floored at 0.1."""
    sd = law.points.std(axis=0)
    if np.all(sd >= _MIN_SPREAD):
        return draw_initial(law, n_particles, seed)
    xi = gaussian_increments(seed, INIT_DRAW_STEP, n_particles, x0.shape[0])
    return x0 + np.maximum(sd, _MIN_SPREAD) * xi


def _sweep(spec, flow, n: int, dt: float, degree: int | None, cloud_at,
           law=None):
    """Backward sweep on [0, n dt], reading node k's (t_k, mu_k) last node
    first. The cloud is ``cloud_at(mu_n)``, its ``_Operator`` holds
    ``law`` if given, and from c_n = P g each node k < n is the one
    product [c_k | zeta_k] = P [y | zm]. Returns (operator, coefficients
    (n + 1, nb, 1 + d), residuals), ``residuals[k]`` the RMS of node k's
    value target around its projection. A non-finite surface raises
    FloatingPointError."""
    times = np.arange(n + 1) * dt
    mu = flow.at_time(times[n])
    op = _Operator(spec, cloud_at(mu), dt, degree, law=law)
    coeffs = np.zeros((n + 1, len(op.reg.exponents), 1 + spec.dim))
    residuals = np.zeros(n + 1)
    target = np.asarray(spec.terminal(op.cloud, mu), dtype=float)[:, None]
    for k in range(n, -1, -1):
        if k < n:
            target = np.column_stack(op.target(
                coeffs[k + 1, :, 0], times[k], flow.at_time(times[k])))
        fitted = op.reg.fit(target)
        if not np.isfinite(fitted.sum()):
            raise FloatingPointError(
                f"backward sweep: non-finite surface at node {k} "
                f"(t = {times[k]:.6g})")
        coeffs[k, :, :fitted.shape[1]] = fitted
        residuals[k] = op.rmse(fitted[:, 0], target[:, 0])
    return op, coeffs, residuals


def _solve_horizons(spec, flow: MeasureFlow, x0, t_grid, dt: float,
                    n_particles: int, degree: int | None,
                    seed: int) -> list[BsdeSolution]:
    """Solve the decoupled BSDE on [0, T] for each T of ``t_grid`` (whole
    steps the flow covers), each on ``_law_cloud``'s draw from the flow's
    law at T, and read (Y0, Z0) at x0. This is the one place that decides
    which horizons share a sweep: a constant flow (one measure object at
    every node, as ``MeasureFlow.constant`` builds) whose drift is not
    declared as reading t is held fixed, and its sweep at the largest T
    serves each horizon with its last n_T + 1 nodes, timed 0, ..., T.
    """
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape[0] != spec.dim:
        raise ValueError(f"x0 has dimension {x0.shape[0]}, model wants {spec.dim}")
    steps = []
    for T in t_grid:
        _check_flow(flow, 0.0, T, dt)
        steps.append(_steps_for(T, dt))
    held = (not spec.reads_t
            and all(m is flow.measures[0] for m in flow.measures))
    law = flow.measures[0] if held else None
    swept = [_sweep(spec, flow, n, dt, degree,
                    lambda mu: _law_cloud(x0, mu, n_particles, seed), law)
             for n in (steps if law is None else [max(steps)])]
    sols = []
    for h, n in enumerate(steps):
        op, coeffs, residuals = swept[h if law is None else 0]
        times, coeffs = np.arange(n + 1) * dt, coeffs[-n - 1:]
        u = op.surface(coeffs[:, :, :1], times)
        zeta = op.surface(coeffs[:, :, 1:], times)
        sols.append(BsdeSolution(
            y0=float(u.eval_node(0, x0)[0]),
            z0=np.atleast_2d(zeta.eval_node(0, x0))[0], u=u, zeta=zeta,
            dt=dt, seed=seed, residuals=residuals[-n - 1:]))
    return sols


def solve_finite_bsde(spec, flow: MeasureFlow, x0, T: float, dt: float,
                      n_particles: int, degree: int | None = None,
                      seed: int = 0) -> BsdeSolution:
    """Solve the decoupled BSDE on [0, T] and read (Y0, Z0) at x0: the
    one-horizon call of ``_solve_horizons``. On a constant flow a drift
    that reads t undeclared (module docstring) is read at t = 0."""
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
