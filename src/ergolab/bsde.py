"""Finite-horizon BSDE solver: backward least-squares Monte Carlo on a
cloud of decoupled forward paths, with the driver's z-argument handled by
control-variate regression and Picard iteration at each node.

The conditional expectations are projected onto monomials in standardized
coordinates, refreshed node by node. The forward cloud of M Euler steps is
run once and kept only as checkpoints every S = ceil(sqrt(M)) steps; the
sweep then replays one segment at a time from its checkpoint, at its global
step index, holding that segment's states and the (seed, step) noise blocks
its Euler steps drew. So about 3 sqrt(M) N d floats are held (checkpoints,
one segment's states, its noise), never the (M+1) N d bundle, no node
redraws its block, and the result is bit-identical to a sweep over the
stored bundle.

Each node is factored once. Its centred, standardized design B gets one
R-only QR; the condition estimate that guards against a degenerate basis
is read off that raw R, and Q is never formed. The same R gives the
node's ridge least-squares map P = (R^T R + ridge I)^{-1} B^T, formed once,
so every fit at the node (the value projection, each Picard z-regression
and the final value fit) is the single product P y. The ridge of 1e-10
keeps the smallest eigenvalue of R^T R + ridge I at or above 1e-10.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ergolab.measure import MeasureFlow
from ergolab.sde import (INIT_DRAW_STEP, CheckpointedPaths, checkpoint_every,
                         gaussian_increments, simulate_decoupled, _steps_for)

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
    """(N, n_basis) monomial matrix at standardized points u of shape (N, d)."""
    n, d = u.shape
    # per-dimension power tables keep this at O(N d degree) multiplies
    deg = int(exponents.max()) if exponents.size else 0
    pows = np.ones((d, deg + 1, n))
    for j in range(d):
        for k in range(1, deg + 1):
            pows[j, k] = pows[j, k - 1] * u[:, j]
    out = np.empty((n, exponents.shape[0]))
    for i, e in enumerate(exponents):
        col = pows[0, e[0]]
        for j in range(1, d):
            col = col * pows[j, e[j]]
        out[:, i] = col
    return out


@dataclass(frozen=True, eq=False)
class RegressionFunction:
    """Piecewise-in-time polynomial regression surface.

    Per node: coefficients over monomials of the standardized state
    u = (x - center) / scale. Evaluation picks the nearest time node.
    ``offset`` is subtracted after evaluation (scalar fields only), so an
    anchor value can be zeroed exactly in floating point.
    """

    times: np.ndarray
    coeffs: np.ndarray  # (M+1, n_basis, out_dim)
    exponents: np.ndarray
    centers: np.ndarray  # (M+1, dim)
    scales: np.ndarray
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
        u = (pts - self.centers[k]) / self.scales[k]
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
        u = (pts - self.centers[k]) / self.scales[k]
        grad = np.empty_like(pts)
        for j in range(self.dim):
            lowered = self.exponents.copy()
            lowered[:, j] = np.maximum(lowered[:, j] - 1, 0)
            factor = (self.exponents[:, j] / self.scales[k, j])
            grad[:, j] = _design(u, lowered) @ (factor * self.coeffs[k, :, 0])
        return grad


@dataclass(frozen=True, eq=False)
class BsdeSolution:
    """LSMC solution: scalar readouts at the queried start point plus the
    full regression surfaces and per-node diagnostics."""

    y0: float
    z0: np.ndarray
    u: RegressionFunction
    zeta: RegressionFunction
    x0: np.ndarray
    dt: float
    seed: int
    residuals: np.ndarray        # per-node RMS of Y_{k+1} around its projection
    picard_gaps: np.ndarray      # (M, picard-1) successive iterate distances
    picard_warning: bool

    def report(self) -> dict:
        out = {"y0": self.y0, "dt": self.dt, "seed": self.seed,
               "picard_warning": int(self.picard_warning),
               "max_residual": float(self.residuals.max(initial=0.0))}
        for j, v in enumerate(np.atleast_1d(self.z0)):
            out[f"z0_{j}"] = float(v)
        return out


class _NodeRegressor:
    """One node's ridge least-squares map, factored once and reused by
    every fit at the node.

    The design B (N x nb) is factored by a single R-only QR, B = QR, and
    Q is never formed. The condition estimate max|R_ii| / min|R_ii| is
    read off that raw R, before any ridge: the ridge would mask a
    degenerate basis by flooring every pivot at sqrt(_RIDGE). Since
    B^T B = R^T R, the ridge solution of min |B c - y|^2 + _RIDGE |c|^2 is
    c = P y with P = (R^T R + _RIDGE I)^{-1} B^T, which is formed once per
    node (nb x N). The smallest eigenvalue of R^T R + _RIDGE I is at least
    _RIDGE = 1e-10, so the nb x nb inverse always exists.
    """

    def __init__(self, states: np.ndarray, exponents: np.ndarray, node: int):
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


def _spread_cloud(x0: np.ndarray, flow: MeasureFlow, T: float,
                  n_particles: int, seed: int) -> np.ndarray:
    """Regression starts: x0 plus a Gaussian cloud at the scale of the
    flow's terminal spread (pointwise starts make node-0 regressions
    singular)."""
    ref = flow.peek(T).points
    sd = np.maximum(ref.std(axis=0), 0.1)
    xi = gaussian_increments(seed, INIT_DRAW_STEP, n_particles, x0.shape[0])
    return x0 + sd * xi


def _checkpointed_cloud(spec, x0: np.ndarray, flow: MeasureFlow, T: float,
                        dt: float, n_particles: int,
                        seed: int) -> CheckpointedPaths:
    """The forward regression cloud from x0's spread law on [0, T], run
    once and kept as checkpoints every S = ceil(sqrt(M)) of its M steps."""
    n_steps = _steps_for(T, dt)
    every = checkpoint_every(n_steps)
    cloud = _spread_cloud(x0, flow, T, n_particles, seed)
    bundle = simulate_decoupled(spec, cloud, flow, dt=dt, T=T,
                                n_particles=n_particles, seed=seed,
                                record_every=every)
    return CheckpointedPaths(spec, dt, seed, n_steps, every, bundle.states,
                             flow=flow)


def _backward_nodes(bundle_states: np.ndarray | CheckpointedPaths, seed: int,
                    dt: float):
    """(k, x_k, dw_k) for k = M, M-1, ..., 0, where dw_k is the Brownian
    increment that carries node k to node k + 1 (None at k = M)."""
    if isinstance(bundle_states, CheckpointedPaths):
        yield bundle_states.n_steps, bundle_states.checkpoints[-1], None
        for k0, xs, dws in bundle_states.segments():
            for j in range(len(xs) - 1, -1, -1):
                yield k0 + j, xs[j], dws[j]
        return
    m_plus_1, n, d = bundle_states.shape
    yield m_plus_1 - 1, bundle_states[-1], None
    for k in range(m_plus_1 - 2, -1, -1):
        yield k, bundle_states[k], \
            gaussian_increments(seed, k, n, d) * math.sqrt(dt)


def backward_lsmc(spec, bundle_states: np.ndarray | CheckpointedPaths,
                  flow: MeasureFlow, dt: float, degree: int, picard: int,
                  seed: int) -> BsdeSolution:
    """Backward induction over a simulated forward cloud.

    Y_M is the terminal value at node M. Per node k < M: project Y_{k+1}
    onto the basis; estimate Z by regressing the control-variate
    increment (Y_{k+1} - Y_k-candidate) dW / dt; update
    Y_k = proj + dt f(X_k, mu_k, Z_k), iterating the Z/Y pair ``picard``
    times. Measure arguments always come from the frozen flow.

    ``bundle_states`` is either the stored (M+1, N, d) cloud, whose node-k
    increments are redrawn from (seed, k), or a CheckpointedPaths. The
    latter is swept segment by segment, last first: each segment of
    S = ceil(sqrt(M)) nodes is replayed from its checkpoint together with
    the noise blocks its Euler steps drew, so no node redraws its block and
    about 3 sqrt(M) N d floats are held instead of (M+1) N d: the
    checkpoints, one segment's states and that segment's noise. Both
    forms give bit-identical solutions.
    """
    m_plus_1, n, d = bundle_states.shape
    m = m_plus_1 - 1
    if picard < 1:
        raise ValueError("picard must be >= 1")
    exponents = monomial_exponents(d, degree)
    times = np.arange(m_plus_1) * dt

    nb = exponents.shape[0]
    u_coeffs = np.zeros((m_plus_1, nb, 1))
    z_coeffs = np.zeros((m_plus_1, nb, d))
    centers = np.zeros((m_plus_1, d))
    scales = np.ones((m_plus_1, d))
    residuals = np.zeros(m_plus_1)
    gaps = np.zeros((max(m, 1), max(picard - 1, 0)))
    sqrt_n = math.sqrt(n)

    for k, x_k, dw in _backward_nodes(bundle_states, seed, dt):
        reg = _NodeRegressor(x_k, exponents, k)
        centers[k], scales[k] = reg.center, reg.scale
        if dw is None:
            # the last node is read without caching its flow segment
            y = np.asarray(spec.terminal(x_k, flow.peek(times[k])),
                           dtype=float)[:, None]
        else:
            mu_k = flow.at_time(times[k])
            e_val = reg.predict(reg.fit(y))
            residuals[k] = np.linalg.norm(y - e_val) / sqrt_n
            y_cand = e_val
            for j in range(picard):
                zc = reg.fit((y - y_cand) * dw / dt)
                f_val = np.empty((n, 1))
                f_val[:, 0] = spec.driver(x_k, mu_k, reg.predict(zc))
                y_new = e_val + dt * f_val
                if j > 0:
                    gaps[k, j - 1] = np.linalg.norm(y_new - y_cand) / sqrt_n
                y_cand = y_new
            y = y_cand
            z_coeffs[k] = zc
        u_coeffs[k] = reg.fit(y)

    u = RegressionFunction(times=times, coeffs=u_coeffs, exponents=exponents,
                           centers=centers, scales=scales)
    zeta = RegressionFunction(times=times, coeffs=z_coeffs,
                              exponents=exponents, centers=centers,
                              scales=scales)
    # a Picard gap that grows from one iterate to the next
    diverges = picard > 2 and bool(
        np.any(gaps[:, 1:] > 1.1 * gaps[:, :-1] + 1e-14))
    return BsdeSolution(
        y0=math.nan, z0=np.full(d, math.nan), u=u, zeta=zeta,
        x0=np.zeros(d), dt=dt, seed=seed, residuals=residuals,
        picard_gaps=gaps, picard_warning=diverges)


def _with_readout(sol: BsdeSolution, x0: np.ndarray) -> BsdeSolution:
    y0 = float(sol.u.eval_node(0, x0)[0])
    z0 = np.atleast_2d(sol.zeta.eval_node(0, x0))[0]
    return BsdeSolution(y0=y0, z0=z0, u=sol.u, zeta=sol.zeta, x0=x0,
                        dt=sol.dt, seed=sol.seed, residuals=sol.residuals,
                        picard_gaps=sol.picard_gaps,
                        picard_warning=sol.picard_warning)


def solve_finite_bsde(spec, flow: MeasureFlow, x0, T: float, dt: float,
                      n_particles: int, degree: int | None = None,
                      picard: int = 3, seed: int = 0) -> BsdeSolution:
    """Solve the decoupled BSDE on [0, T] and read (Y0, Z0) at x0.

    The forward regression cloud starts from a spread law centered at x0;
    Y0 and Z0 come from the node-0 regressions evaluated at x0 itself.
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
    paths = _checkpointed_cloud(spec, x0, flow, T, dt, n_particles, seed)
    sol = backward_lsmc(spec, paths, flow, dt, degree, picard, seed)
    return _with_readout(sol, x0)


def z_from_gradient(sol: BsdeSolution, spec, flow: MeasureFlow, t: float,
                    x) -> np.ndarray:
    """Z via the gradient representation: grad_x u(t, x) times the
    diffusion at (x, mu_t). Off-grid times fall to the nearest node with
    an OffGridWarning."""
    pts = sol.u._pts(x)
    grad = sol.u.gradient(t, pts, warn=True)
    sig = spec.diffusion_at(pts, flow.at_time(t))
    return np.einsum("nj,njk->nk", grad, sig)
