"""Weak-dissipativity machinery: the comparison rate function kappa*, the
concave Lyapunov distance built from it by quadrature, a numerical check
of its differential inequality, and the mollified reflection coupling
whose radius process realises the contraction.

Precision note: the Lyapunov construction works on exp(G / 2 sigma0^2)
scales that reach 1e10 for the sine-weak constants, so the table is built
and stored in ``np.longdouble`` (80-bit extended on x86-64 Linux; on
platforms where longdouble is an alias of float64 the identity margin
degrades to ~1e-5 absolute at those scales).

The coupling's Euler step writes into one workspace of (n_paths,) and
(n_paths, d) arrays allocated per run. Sine and cosine of the mollifier
angle are evaluated only on the paths whose radius lies inside the band
(delta/2, delta); outside it the weights are the constants (0, 1) and
(1, cos(pi/2)). A diffusion given as one (d, d) matrix has its gap root
sqrt(sigma sigma^T - sigma0^2 I) formed, and its ellipticity checked, once
per distinct value, and a zero gap adds no synchronous term. Each leg sums
its increment in the order b dt + sigma0 (pi1 w + pi2 w') + root w'', so
the run is bit for bit that of the plain step that
``tests/test_coupling.py`` keeps as its reference.
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from ergolab.measure import MeasureFlow
from ergolab.sde import noise_blocks, _check_finite, _steps_for

__all__ = [
    "EllipticityError",
    "LyapunovConstants",
    "LyapunovTable",
    "CouplingRun",
    "RadiusMoments",
    "kappa_star",
    "build_lyapunov",
    "verify_lyapunov_inequality",
    "mollifier_reflect",
    "mollifier_share",
    "simulate_reflection_coupling",
]

_LD = np.longdouble
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)
_GL_NODES = _GL_NODES.astype(_LD)
_GL_WEIGHTS = _GL_WEIGHTS.astype(_LD)


class EllipticityError(RuntimeError):
    """sigma sigma^T - sigma0^2 I lost positive semidefiniteness."""


@dataclass(frozen=True)
class LyapunovConstants:
    """Constants feeding kappa*: outside-ball rate, inside-ball drift bound
    and slope, ball radius, diffusion state-slope, ellipticity level."""

    eta: float
    m_b: float
    k_b_x: float
    r_ball: float
    k_s_x: float
    sigma0: float

    def __post_init__(self):
        if self.eta <= self.k_s_x:
            raise ValueError(
                f"need eta > k_s_x for a contraction, got eta={self.eta}, "
                f"k_s_x={self.k_s_x}")
        if self.sigma0 <= 0.0:
            raise ValueError("sigma0 must be positive")
        if min(self.m_b, self.k_b_x, self.r_ball) < 0.0:
            raise ValueError("m_b, k_b_x, r_ball must be nonnegative")

    @classmethod
    def from_spec(cls, spec) -> "LyapunovConstants":
        c = spec.constants
        return cls(eta=c.eta, m_b=c.k_b_x * c.r_ball, k_b_x=c.k_b_x,
                   r_ball=c.r_ball, k_s_x=c.k_s_x, sigma0=c.sigma0)


def kappa_star(r, const: LyapunovConstants):
    """Worst-case radial drift rate: min(m_b, k_b_x r) + eta r inside the
    ball, minus (eta - k_s_x) r everywhere. Computed in the dtype of r."""
    r = np.asarray(r)
    inside = r <= const.r_ball
    grow = np.minimum(const.m_b, const.k_b_x * r) + const.eta * r
    return inside * grow - (const.eta - const.k_s_x) * r


def _g_exact(r, const: LyapunovConstants):
    """Integral of kappa* from 0 to r, piecewise closed form (longdouble)."""
    r = np.asarray(r, dtype=_LD)
    eta = _LD(const.eta)
    ksx = _LD(const.k_s_x)
    kbx = _LD(const.k_b_x)
    m_b = _LD(const.m_b)
    R = _LD(const.r_ball)
    a = eta - ksx
    # switch radius of the min(m_b, k_b_x r) term
    u_star = m_b / kbx if kbx > 0 else _LD(0.0)
    u_star = min(u_star, R)

    def g_inside(x):
        # on [0, min(x, u_star)]: (k_b_x + eta) u; then m_b + eta u; minus a u
        x1 = np.minimum(x, u_star)
        part = (kbx + eta) * x1 * x1 / 2
        x2 = np.maximum(x, u_star)
        part = part + m_b * (x2 - u_star) + eta * (x2 * x2 - u_star * u_star) / 2
        return part - a * x * x / 2

    g_r_ball = g_inside(np.asarray(R, dtype=_LD))
    out = np.where(r <= R, g_inside(np.minimum(r, R)),
                   g_r_ball - a * (r * r - R * R) / 2)
    return out


def _panel_integrals(f, edges: np.ndarray) -> np.ndarray:
    """Gauss-Legendre integral of f over each [edges[i], edges[i+1]]."""
    a = edges[:-1][:, None]
    b = edges[1:][:, None]
    half = (b - a) / 2
    pts = (a + b) / 2 + half * _GL_NODES[None, :]
    return np.sum(f(pts) * _GL_WEIGHTS[None, :], axis=1) * half[:, 0]


@dataclass(frozen=True, eq=False)
class LyapunovTable:
    """Radial Lyapunov function Phi on a node grid, with first and second
    derivatives and the constants that built it. Phi is concave increasing
    with Phi(0) = 0; Phi'' comes from the exact derivative identity
    2 sigma0^2 Phi'' = -kappa* Phi' - 2 sigma0^2 r, so the differential
    inequality holds at the nodes to arithmetic precision."""

    r: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray
    d2phi: np.ndarray
    constants: LyapunovConstants

    def __post_init__(self):
        if abs(float(self.phi[0])) > 1e-30:
            raise ValueError("Phi(0) must be 0")
        if np.any(self.dphi < 0):
            raise ValueError("Phi' must be nonnegative")
        if np.any(np.asarray(self.d2phi, dtype=float) > 1e-6):
            raise ValueError("Phi'' must be nonpositive")
        if np.any(np.diff(self.phi) < 0):
            raise ValueError("Phi must be nondecreasing")

    @property
    def dphi0(self) -> float:
        return float(self.dphi[0])

    def kappa_star(self, r):
        return kappa_star(r, self.constants)

    def identity_margin(self) -> float:
        """max over nodes of 2 sigma0^2 Phi'' + kappa* Phi' + 2 sigma0^2 r,
        evaluated in extended precision; ~0 by construction."""
        return verify_lyapunov_inequality(self, self.kappa_star)


def build_lyapunov(constants: LyapunovConstants, r_max: float,
                   grid: int = 1000) -> LyapunovTable:
    """Build the Lyapunov table on ``grid`` nodes over [0, r_max].

    Phi'(s) = exp(-G(s)/2sigma0^2) * H(s) with G the running integral of
    kappa* (closed form) and H(s) the improper integral of
    u exp(G(u)/2sigma0^2) from s upward, evaluated by composite
    Gauss-Legendre quadrature truncated where the integrand drops below
    1e-14 of its peak. Phi integrates Phi' by the same quadrature.
    """
    if grid < 2:
        raise ValueError("need at least 2 grid nodes")
    if r_max <= constants.r_ball and constants.r_ball > 0.0:
        raise ValueError(
            f"r_max = {r_max} must exceed the ball radius {constants.r_ball}")
    if r_max <= 0.0:
        raise ValueError("r_max must be positive")
    two_s2 = 2 * _LD(constants.sigma0) ** 2
    g_peak = float(np.max(_g_exact(np.linspace(0, r_max, 256), constants)))
    if g_peak / float(two_s2) > 11000.0:
        raise OverflowError(
            "exp(G / 2 sigma0^2) overflows extended precision for these "
            "constants; rescale the model or shrink the ball")

    def integrand(u):
        return u * np.exp(_g_exact(u, constants) / two_s2)

    nodes = np.linspace(0, r_max, grid).astype(_LD)
    # panel edges: the nodes themselves plus the kappa* breakpoints
    brk = [constants.r_ball]
    if constants.k_b_x > 0:
        brk.append(constants.m_b / constants.k_b_x)
    edges = np.unique(np.concatenate([
        nodes, np.asarray([b for b in brk if 0 < b < r_max], dtype=_LD)]))

    # truncation point of the improper integral
    probe = np.maximum(np.asarray([r_max], dtype=_LD),
                       _LD(constants.r_ball) + 1)
    peak = max(float(np.max(integrand(edges[1:][None, :]))), 1e-300)
    hi = float(probe[0])
    while float(integrand(np.asarray([[hi]], dtype=_LD))[0, 0]) > 1e-14 * peak:
        hi *= 2.0
        if hi > 1e12:
            raise OverflowError("integrand tail refuses to decay")
    n_tail = 64
    tail = np.linspace(float(edges[-1]), hi, n_tail + 1).astype(_LD)[1:]
    all_edges = np.concatenate([edges, tail])

    seg = _panel_integrals(integrand, all_edges)
    h_at_edge = np.concatenate([np.cumsum(seg[::-1])[::-1],
                                np.asarray([0.0], dtype=_LD)])
    node_pos = np.searchsorted(all_edges.astype(float), nodes.astype(float))
    h_nodes = h_at_edge[node_pos]

    g_nodes = _g_exact(nodes, constants)
    dphi = np.exp(-g_nodes / two_s2) * h_nodes

    # Phi' at interior quadrature points, then Phi by cumulative panels
    def dphi_fn(s):
        # H(s) = H(right panel edge) + integral from s to that edge
        idx = np.searchsorted(all_edges.astype(float), s.astype(float),
                              side="left")
        idx = np.minimum(idx, len(all_edges) - 1)
        right = all_edges[idx]
        half = (right - s) / 2
        pts = ((right + s) / 2)[..., None] + half[..., None] * _GL_NODES
        part = np.sum(integrand(pts) * _GL_WEIGHTS, axis=-1) * half
        return np.exp(-_g_exact(s, constants) / two_s2) * (h_at_edge[idx] + part)

    mask = (all_edges >= float(nodes[0])) & (all_edges <= nodes[-1])
    phi_seg = _panel_integrals(dphi_fn, all_edges[mask])
    phi_at_edge = np.concatenate([np.asarray([0.0], dtype=_LD),
                                  np.cumsum(phi_seg)])
    phi = phi_at_edge[np.searchsorted(all_edges[mask].astype(float),
                                      nodes.astype(float))]

    kap = kappa_star(nodes, constants)
    d2phi = (-kap * dphi - two_s2 * nodes) / two_s2
    return LyapunovTable(r=nodes, phi=phi, dphi=dphi, d2phi=d2phi,
                         constants=constants)


def verify_lyapunov_inequality(table: LyapunovTable, drift_samples) -> float:
    """Worst margin of 2 sigma0^2 Phi'' + kappa_hat Phi' + 2 sigma0^2 r over
    the table nodes; nonpositive (up to ~1e-6) certifies the inequality
    for the sampled rate function.

    ``drift_samples`` is either a callable r -> kappa_hat(r) or an (M, 2)
    array of (radius, rate) pairs, interpolated linearly onto the nodes.
    """
    two_s2 = 2 * _LD(table.constants.sigma0) ** 2
    if callable(drift_samples):
        kap = np.asarray(drift_samples(table.r), dtype=_LD)
    else:
        arr = np.asarray(drift_samples, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("drift samples must be (M, 2) pairs (r, kappa)")
        order = np.argsort(arr[:, 0])
        kap = np.interp(table.r.astype(float), arr[order, 0],
                        arr[order, 1]).astype(_LD)
    margin = two_s2 * table.d2phi + kap * table.dphi + two_s2 * table.r
    return float(np.max(margin))


_HALF_PI = 0.5 * math.pi
# np.cos(pi/2) in float64: 6.123233995736766e-17, pi2 above the band
_COS_HALF_PI = float(np.cos(np.array([_HALF_PI]))[0])


def _mollifier_ramp(r, delta: float, out=None):
    """clip((2 r - delta) / delta, 0, 1), written into ``out`` if given."""
    if out is None:
        out = np.empty(np.shape(r))
    ramp = np.multiply(2.0, r, out=out)
    ramp -= delta
    ramp /= delta
    return np.clip(ramp, 0.0, 1.0, out=ramp)


def _mollifier_angle(r, delta: float):
    """(pi/2) * ramp, the ramp rising from 0 at delta/2 to 1 at delta; the
    two mollifiers are its sine and cosine."""
    return _HALF_PI * _mollifier_ramp(r, delta)


def _mollifier_pair(r, delta: float, ramp=None, p1=None, p2=None):
    """(pi1, pi2) = sine and cosine of ``_mollifier_angle(r, delta)``, bit
    for bit, written into the given (n,) buffers. Outside the band the ramp
    is 0 or 1 and the pair is the constants (0, 1) or (1, cos(pi/2)), so
    sine and cosine are evaluated only at the band's indices."""
    ramp = _mollifier_ramp(r, delta, out=ramp)
    if p1 is None:
        p1, p2 = np.empty_like(ramp), np.empty_like(ramp)
    # pi2 = (1 - ramp) + ramp cos(pi/2) and pi1 = ramp, exact at 0 and 1
    np.subtract(1.0, ramp, out=p2)
    p2 += np.multiply(ramp, _COS_HALF_PI, out=p1)
    np.copyto(p1, ramp)
    flat = ramp.reshape(-1)
    band = np.flatnonzero((flat > 0.0) & (flat < 1.0))
    if band.size:
        angle = _HALF_PI * flat[band]
        p1.reshape(-1)[band] = np.sin(angle)
        p2.reshape(-1)[band] = np.cos(angle)
    return p1, p2


def mollifier_reflect(r, delta: float):
    """pi^1: weight of the reflected noise channel; 0 below delta/2, 1 above
    delta, a quarter sine wave between."""
    return _mollifier_pair(r, delta)[0][()]


def mollifier_share(r, delta: float):
    """pi^2: weight of the shared channel; pi1^2 + pi2^2 = 1 exactly."""
    return _mollifier_pair(r, delta)[1][()]


def _radius_moments(r: np.ndarray, acc: np.ndarray | None = None,
                    dev: np.ndarray | None = None) -> tuple[float, float]:
    """Mean and standard error of one step's radii, bit for bit what
    ``radii.mean(axis=0)`` and ``radii.std(axis=0, ddof=1) / sqrt(n)`` give
    on a C-ordered (n, steps) record: those add the rows one after another,
    so the sums here are sequential (``add.accumulate``), not the pairwise
    ``r.sum()``. ``acc`` and ``dev``, if given, are (n,) buffers for the
    running sums and the squared deviations."""
    n = r.shape[0]
    mean = np.add.accumulate(r, out=acc)[-1] / n
    x = np.subtract(r, mean, out=dev)
    x *= x
    var = np.add.accumulate(x, out=acc)[-1] / (n - 1)
    return mean, math.sqrt(var) / math.sqrt(n)


@dataclass(frozen=True, eq=False)
class RadiusMoments:
    """Per-step mean and standard error of the inter-path radius over
    ``n_paths`` paths. ``shape`` is that of the (n_paths, steps) record it
    summarises; ``nbytes`` counts the two curves it actually holds."""

    mean: np.ndarray
    se: np.ndarray
    n_paths: int

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_paths, self.mean.shape[0])

    @property
    def nbytes(self) -> int:
        return self.mean.nbytes + self.se.nbytes


@dataclass(frozen=True, eq=False)
class CouplingRun:
    """Radius moments of a reflection coupling with the fitted decay.

    ``radii`` holds the mean radius and its standard error at each grid
    time, reduced step by step from the paths, not a per-path record;
    ``rate`` is the slope magnitude of log mean-radius over
    [rate_window_start, T], NaN when degenerate."""

    times: np.ndarray
    radii: RadiusMoments
    delta: float
    rate: float
    rate_window_start: float
    terminal_states: np.ndarray | None = None
    terminal_states_prime: np.ndarray | None = None
    note: str = ""

    @property
    def mean_radius(self) -> np.ndarray:
        return self.radii.mean

    @property
    def se_radius(self) -> np.ndarray:
        return self.radii.se

    def monotone_after(self, t_start: float, slack_se: float = 2.0) -> bool:
        """Is the mean radius nonincreasing (within slack_se standard
        errors) at every grid step from t_start on?"""
        m = self.mean_radius
        se = self.se_radius
        idx = np.where(self.times >= t_start)[0]
        rises = m[idx[1:]] - m[idx[:-1]]
        allow = slack_se * (se[idx[1:]] + se[idx[:-1]])
        return bool(np.all(rises <= allow))


def _sqrt_psd_gap(sig: np.ndarray, sigma0: float, step: int,
                  t: float) -> np.ndarray:
    """Matrix square root of sigma sigma^T - sigma0^2 I per state."""
    d = sig.shape[-1]
    if sig.ndim == 2:
        sig = sig[None]
    gap = np.einsum("nij,nkj->nik", sig, sig) - sigma0 ** 2 * np.eye(d)
    if d == 1:
        g = gap[:, 0, 0]
        if np.any(g < -1e-10):
            raise EllipticityError(
                f"sigma^2 - sigma0^2 = {float(g.min()):.3g} < 0 at step "
                f"{step} (t = {t:.6g})")
        return np.sqrt(np.maximum(g, 0.0))[:, None, None]
    w, v = np.linalg.eigh(gap)
    if np.any(w < -1e-10):
        raise EllipticityError(
            f"sigma sigma^T - sigma0^2 I has eigenvalue {float(w.min()):.3g} "
            f"at step {step} (t = {t:.6g})")
    w = np.sqrt(np.maximum(w, 0.0))
    return np.einsum("nij,nj,nkj->nik", v, w, v)


def simulate_reflection_coupling(spec, flow: MeasureFlow,
                                 flow_prime: MeasureFlow, x0, x0_prime,
                                 dt: float, T: float, n_paths: int,
                                 seed: int, delta: float | None = None) -> CouplingRun:
    """Couple two decoupled paths: both see the elliptic noise floor
    sigma0, the second path's share of it is reflected across the line
    joining the pair at rate pi1(r) and replaced by fresh noise at rate
    pi2(r); any diffusion above the floor is driven synchronously. Each
    leg alone has the marginal law of its decoupled equation.

    Keeps no per-path radius record: each step's radii are reduced at once
    to their mean and standard error by sequential sums, which reproduce
    the reductions of a stored (n_paths, n_steps + 1) record bit for bit,
    so memory grows as O(n_paths + n_steps). Fits the mean radius's
    exponential decay on a window starting one fitted time constant in
    (two-pass fit)."""
    if n_paths < 2:
        raise ValueError("need at least 2 paths for standard errors")
    c = spec.constants
    if delta is None:
        # 1e-2 of the ball; without a ball, tie the width to the Euler
        # step's own noise scale so discrete paths can land in the glued
        # band at all (the continuous theory sends delta to 0 last)
        delta = 1e-2 * c.r_ball if c.r_ball > 0 else 2.0 * c.sigma0 * math.sqrt(dt)
    if delta <= 0.0 or (0.0 < c.r_ball <= delta):
        raise ValueError(f"mollifier width {delta} must lie in (0, r_ball)")
    n_steps = _steps_for(T, dt)
    for fl, tag in ((flow, "flow"), (flow_prime, "flow_prime")):
        if not fl.covers(0.0, T):
            raise ValueError(f"{tag} does not cover [0, {T}]")

    d = spec.dim
    s0 = c.sigma0
    x1 = np.broadcast_to(np.asarray(x0, dtype=float).reshape(-1),
                         (n_paths, d)).copy()
    x2 = np.broadcast_to(np.asarray(x0_prime, dtype=float).reshape(-1),
                         (n_paths, d)).copy()

    # the step's workspace, overwritten every step: e holds x1 - x2 until
    # it is scaled to the unit vector, refl is also the b dt scratch, inc
    # also the squared differences, dot also the floored radius
    e, refl, common, inc = (np.empty((n_paths, d)) for _ in range(4))
    r, ramp, p1, p2, dot, acc, dev = (np.empty(n_paths) for _ in range(7))
    p1_col, p2_col = p1[:, None], p2[:, None]

    def radius_moments():
        np.subtract(x1, x2, out=e)
        np.add.reduce(np.multiply(e, e, out=inc), axis=1, out=r)
        np.sqrt(r, out=r)
        return _radius_moments(r, acc, dev)

    # sqrt(sigma sigma^T - sigma0^2 I) of each distinct (d, d) diffusion
    # value, checked once when first seen; None when it is zero
    roots = {}

    def gap_root(x, mu, k, t):
        sig = np.asarray(spec.diffusion(x, mu), dtype=float)
        if sig.ndim != 2:
            return np.broadcast_to(_sqrt_psd_gap(sig, s0, k, t),
                                   (n_paths, d, d))
        key = (sig.shape, sig.tobytes())
        if key not in roots:
            root = _sqrt_psd_gap(sig, s0, k, t)
            roots[key] = (np.broadcast_to(root, (n_paths, d, d))
                          if root.any() else None)
        return roots[key]

    def step_leg(x, b, w, bar, w_extra):
        # x += b dt + s0 (p1 w + common) + bar w_extra, summed in that
        # order; w is read before refl takes b dt
        np.multiply(p1_col, w, out=inc)
        np.add(inc, common, out=inc)
        np.multiply(inc, s0, out=inc)
        np.add(np.multiply(b, dt, out=refl), inc, out=inc)
        if bar is not None:
            np.add(inc, np.einsum("nij,nj->ni", bar, w_extra), out=inc)
        x += inc

    times = np.empty(n_steps + 1)
    mean_r = np.empty(n_steps + 1)
    se_r = np.empty(n_steps + 1)
    times[0] = 0.0
    mean_r[0], se_r[0] = radius_moments()

    scale = math.sqrt(dt)
    with closing(noise_blocks(seed, 0, n_steps, n_paths, d,
                              channels=3)) as blocks:
        for k, block in enumerate(blocks):
            t = k * dt
            mu1 = flow.at_time(t)
            mu2 = flow_prime.at_time(t)
            # e = (x1 - x2) / r, and 0 where r = 0
            np.divide(e, np.maximum(r, 1e-300, out=dot)[:, None], out=e)
            np.copyto(e, 0.0, where=(r == 0.0)[:, None])
            _mollifier_pair(r, delta, ramp, p1, p2)

            # the block is this loop's own; scaling it in place spares a
            # (n_paths, 3, d) array per step that glibc would map afresh
            dw = np.multiply(block, scale, out=block)
            w_refl, w_extra, w_shared = dw[:, 0], dw[:, 1], dw[:, 2]

            bar1 = gap_root(x1, mu1, k, t)
            bar2 = gap_root(x2, mu2, k, t)
            b1 = spec.drift(t, x1, mu1)
            b2 = spec.drift(t, x2, mu2)
            # both legs split the elliptic floor across the same two
            # channels; the first channel is reflected on the second leg,
            # so at radius 0 the pair is driven identically and stays glued
            np.multiply(p2_col, w_shared, out=common)
            step_leg(x1, b1, w_refl, bar1, w_extra)
            # refl = w_refl - 2 (e . w_refl) e
            np.multiply(e, w_refl, out=refl)
            np.multiply(np.sum(refl, axis=1, out=dot), 2.0, out=dot)
            np.subtract(w_refl, np.multiply(dot[:, None], e, out=refl),
                        out=refl)
            step_leg(x2, b2, refl, bar2, w_extra)
            _check_finite(x1, k + 1, t + dt)
            _check_finite(x2, k + 1, t + dt)
            times[k + 1] = t + dt
            mean_r[k + 1], se_r[k + 1] = radius_moments()

    rate, window, note = _fit_radius_decay(times, mean_r, delta)
    radii = RadiusMoments(mean=mean_r, se=se_r, n_paths=n_paths)
    return CouplingRun(times=times, radii=radii, delta=delta, rate=rate,
                       rate_window_start=window, terminal_states=x1,
                       terminal_states_prime=x2, note=note)


def _fit_radius_decay(times: np.ndarray, mean_r: np.ndarray,
                      delta: float) -> tuple[float, float, str]:
    usable = mean_r > max(3.0 * delta, 1e-12)
    if int(usable.sum()) < 3:
        return math.nan, 0.0, "radius at the mollifier floor everywhere"

    def slope(t_start: float) -> float:
        m = usable & (times >= t_start)
        if int(m.sum()) < 3:
            m = usable
        return float(np.polyfit(times[m], np.log(mean_r[m]), 1)[0])

    first = -slope(0.0)
    if not first > 0.0:
        return first, 0.0, "no decay on the full window"
    window = min(1.0 / first, float(times[-1]) / 2.0)
    return -slope(window), window, ""
