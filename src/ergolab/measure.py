"""Empirical probability measures, their flows and law summaries,
Wasserstein distances, and the invariant-measure estimator.

Measures are uniform particle clouds. The 1D Wasserstein distance is exact
via quantile coupling; in higher dimension it is exact via the optimal
assignment over the atom-pair cost matrix, which caps the supported cloud
size (see :data:`ASSIGNMENT_LIMIT`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ASSIGNMENT_LIMIT",
    "EmpiricalMeasure",
    "LawSummary",
    "MeasureFlow",
    "InvariantMeasureResult",
    "StationarityWarning",
    "UnsupportedSizeError",
    "moment",
    "wasserstein",
    "invariant_measure",
]

# Exact assignment is O(N^3); beyond this cloud size the call is refused.
ASSIGNMENT_LIMIT = 2048


class UnsupportedSizeError(ValueError):
    """Raised when the multi-dimensional transport path cannot handle the input."""


class StationarityWarning(UserWarning):
    """Burn-in diagnostic of :func:`invariant_measure` exceeded its tolerance."""


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 0:
        pts = pts.reshape(1, 1)
    elif pts.ndim == 1:
        pts = pts[:, None]
    elif pts.ndim != 2:
        raise ValueError(f"atom array must be (N, d), got shape {pts.shape}")
    return pts


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Uniform cloud of atoms in R^d: each atom has mass 1/N."""

    points: np.ndarray

    def __init__(self, points):
        pts = _as_points(points)
        if not np.all(np.isfinite(pts)):
            raise ValueError("atoms must be finite")
        object.__setattr__(self, "points", pts)

    @classmethod
    def _of_checked(cls, points: np.ndarray) -> "EmpiricalMeasure":
        """The measure on an (N, d) float array its caller has already
        checked to be finite: the Euler loops check each state once."""
        mu = object.__new__(cls)
        object.__setattr__(mu, "points", points)
        return mu

    # -- basic accessors ----------------------------------------------------

    @property
    def n_atoms(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @classmethod
    def dirac(cls, x, dim: int | None = None) -> "EmpiricalMeasure":
        pt = np.atleast_1d(np.asarray(x, dtype=float))
        if dim is not None and pt.shape == (1,) and dim > 1:
            pt = np.full(dim, pt[0])
        return cls(pt[None, :])

    # -- statistics ----------------------------------------------------------

    def mean(self) -> np.ndarray:
        # the sum and division that ndarray.mean makes, without its
        # Python-level overhead
        return np.add.reduce(self.points, axis=0) / self.n_atoms

    def m1(self) -> float:
        """First coordinate of the mean; the symbolic-model shorthand."""
        return float(self.mean()[0])

    def m2(self) -> float:
        """Second moment E|X|^2."""
        return float(moment(self, 2.0) ** 2)

    def expect(self, fn: Callable[[np.ndarray], np.ndarray]) -> float:
        vals = np.asarray(fn(self.points), dtype=float).reshape(self.n_atoms)
        return float(vals.mean())


@dataclass(frozen=True, eq=False, slots=True)
class LawSummary:
    """A cloud at time t kept as the statistics ``ProblemSpec.law_stats``
    declares, each the value the cloud gave: ``mean()`` and ``m1()``,
    ``m2()``, ``expect(phi)``. The coefficients read it at every
    interacting Euler step and at every summary node of a flow. Any other
    read, ``points`` included, raises ValueError naming the read and t."""

    t: float
    n_atoms: int
    stats: dict  # "mean" -> (d,) array, "m2" -> float, phi -> float

    @classmethod
    def of(cls, mu: EmpiricalMeasure, law_stats, t: float) -> "LawSummary":
        stats = {key: mu.mean() if key == "mean" else mu.m2() if key == "m2"
                 else mu.expect(key) for key in law_stats}
        if "mean" in stats:  # every read of the node shares this array
            stats["mean"].flags.writeable = False
        return cls(t, mu.n_atoms, stats)

    def _read(self, key, what: str):
        if key not in self.stats:
            raise ValueError(
                f"{what} at t = {self.t:.6g}: the law is summarised by the "
                "statistics its spec declares (ProblemSpec.law_stats), and "
                "this is not one of them")
        return self.stats[key]

    @property
    def points(self) -> np.ndarray:
        return self._read("points", "points")

    def mean(self) -> np.ndarray:
        return self._read("mean", "mean()")

    def m1(self) -> float:
        return float(self.mean()[0])

    def m2(self) -> float:
        return self._read("m2", "m2()")

    def expect(self, fn: Callable[[np.ndarray], np.ndarray]) -> float:
        return self._read(fn, f"expect({getattr(fn, '__name__', fn)})")


@dataclass(frozen=True)
class MeasureFlow:
    """Piecewise-constant-in-time sequence of measures on a strictly
    increasing grid: ``at_time(t)`` returns the node measure at the last grid
    point <= t. A node is an ``EmpiricalMeasure`` or, where no caller reads
    the cloud, a ``LawSummary`` (``sde.interacting_flow``)."""

    times: np.ndarray
    measures: tuple[EmpiricalMeasure | LawSummary, ...]

    def __init__(self, times, measures: Sequence):
        ts = np.asarray(times, dtype=float).reshape(-1)
        ms = tuple(measures)
        if len(ts) != len(ms):
            raise ValueError("grid and measure list lengths differ")
        if len(ts) == 0:
            raise ValueError("empty flow")
        if np.any(np.diff(ts) <= 0.0):
            raise ValueError("flow grid must be strictly increasing")
        counts = {m.n_atoms for m in ms}
        if len(counts) > 1:
            raise ValueError(f"atom count varies across nodes: {sorted(counts)}")
        object.__setattr__(self, "times", ts)
        object.__setattr__(self, "measures", ms)

    @classmethod
    def constant(cls, mu: EmpiricalMeasure, t0: float, t1: float) -> "MeasureFlow":
        return cls(np.array([t0, t1]), (mu, mu))

    @property
    def terminal(self) -> EmpiricalMeasure:
        return self.measures[-1]

    @property
    def t0(self) -> float:
        return float(self.times[0])

    @property
    def t1(self) -> float:
        return float(self.times[-1])

    def covers(self, t0: float, t1: float) -> bool:
        """Does the grid span [t0, t1], up to 1e-9?"""
        return self.times[0] <= t0 + 1e-9 and t1 <= self.times[-1] + 1e-9

    def at_time(self, t: float) -> EmpiricalMeasure | LawSummary:
        """The node that holds at time t: the last grid point <= t, up to a
        1e-12 tolerance, clamped to the grid."""
        idx = int(np.searchsorted(self.times, t + 1e-12, side="right")) - 1
        return self.measures[min(max(idx, 0), len(self.times) - 1)]


def moment(mu: EmpiricalMeasure, p: float) -> float:
    """(mean_i |x_i|^p)^{1/p} with the Euclidean atom norm."""
    if p < 1.0:
        raise ValueError(f"order must be >= 1, got {p}")
    norms = np.linalg.norm(mu.points, axis=1)
    return float(np.mean(norms ** p) ** (1.0 / p))


def _quantile_distance(mu: EmpiricalMeasure, nu: EmpiricalMeasure, p: int) -> float:
    """Exact 1D W_p on the common quantile partition of [0, 1]."""
    xs = np.sort(mu.points[:, 0], kind="stable")
    ys = np.sort(nu.points[:, 0], kind="stable")
    if mu.n_atoms == nu.n_atoms:
        cost = np.mean(np.abs(xs - ys) ** p)
        return float(cost ** (1.0 / p))
    cw = np.cumsum(np.full(mu.n_atoms, 1.0 / mu.n_atoms))
    cv = np.cumsum(np.full(nu.n_atoms, 1.0 / nu.n_atoms))
    cw[-1] = cv[-1] = 1.0
    qs = np.union1d(cw, cv)
    qs = np.concatenate([[0.0], qs])
    seg = np.diff(qs)
    mid = 0.5 * (qs[:-1] + qs[1:])
    fx = xs[np.searchsorted(cw, mid, side="left")]
    fy = ys[np.searchsorted(cv, mid, side="left")]
    cost = float(np.sum(seg * np.abs(fx - fy) ** p))
    return cost ** (1.0 / p)


def wasserstein(mu: EmpiricalMeasure, nu: EmpiricalMeasure, p: int = 2) -> float:
    """Exact W_p between two clouds, p in {1, 2}.

    d = 1 uses the quantile coupling; d > 1 solves the optimal assignment,
    which requires equal atom counts and at most ASSIGNMENT_LIMIT atoms.
    """
    if p not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {p!r}")
    if mu.dim != nu.dim:
        raise ValueError(f"dimension mismatch: {mu.dim} vs {nu.dim}")
    if mu.dim == 1:
        return _quantile_distance(mu, nu, p)
    if mu.n_atoms != nu.n_atoms:
        raise UnsupportedSizeError(
            f"assignment path needs equal atom counts, got {mu.n_atoms} and "
            f"{nu.n_atoms}")
    if mu.n_atoms > ASSIGNMENT_LIMIT:
        raise UnsupportedSizeError(
            f"assignment path supports at most {ASSIGNMENT_LIMIT} atoms, got "
            f"{mu.n_atoms}")
    from scipy.optimize import linear_sum_assignment
    from scipy.spatial.distance import cdist
    cost = cdist(mu.points, nu.points, "sqeuclidean" if p == 2 else "euclidean")
    rows, cols = linear_sum_assignment(cost)
    mean_cost = cost[rows, cols].mean()
    return float(mean_cost ** (1.0 / p))


def _w_capped(mu: EmpiricalMeasure, nu: EmpiricalMeasure, p: int) -> float:
    """W_p, with d > 1 clouds cut to their first ASSIGNMENT_LIMIT atoms."""
    if mu.dim == 1:
        return wasserstein(mu, nu, p)
    take = min(mu.n_atoms, nu.n_atoms, ASSIGNMENT_LIMIT)
    return wasserstein(EmpiricalMeasure(mu.points[:take]),
                       EmpiricalMeasure(nu.points[:take]), p)


@dataclass(frozen=True)
class InvariantMeasureResult:
    """Terminal ensemble plus the burn-in stationarity diagnostic."""

    measure: EmpiricalMeasure
    diagnostic_w2: float
    tolerance: float
    t_burn: float

    @property
    def stationary(self) -> bool:
        return self.diagnostic_w2 <= self.tolerance


def invariant_measure(spec, n_particles: int, dt: float,
                      t_burn: float | None = None,
                      seed: int = 0) -> InvariantMeasureResult:
    """Long-run interacting-particle estimate of the invariant measure.

    Simulates from a point mass at the origin to ``t_burn`` (by default
    12 / the contraction-rate bound, which must then be positive) and
    returns the terminal ensemble. The W2 distance between the half-time
    and terminal ensembles is attached as a stationarity diagnostic;
    exceeding the noise tolerance warns (StationarityWarning) but does
    not fail.
    """
    from ergolab import sde  # simulation lives downstream of this module

    rate = spec.contraction_rate_bound()
    if t_burn is None:
        if rate <= 0.0:
            raise ValueError("no positive contraction-rate bound; pass t_burn")
        t_burn = 12.0 / rate
    if rate > 0.0 and t_burn < 10.0 / rate:
        raise ValueError(
            f"burn-in {t_burn} is shorter than 10/{rate} = {10.0 / rate:.3g} "
            "required by the contraction-rate bound")
    theta = EmpiricalMeasure.dirac(0.0, dim=spec.dim)
    half = int(round(t_burn / dt)) // 2
    flow = sde.interacting_flow(spec, theta, dt=dt, T=t_burn,
                                n_particles=n_particles, seed=seed,
                                keep=[half * dt])
    mu_half = flow.measures[half]
    mu_star = flow.terminal
    diag = _w_capped(mu_half, mu_star, 2)
    # two same-law clouds of size N sit ~ sigma/sqrt(N) apart in W2
    scale = max(moment(mu_star, 2), 1e-6)
    tol = 6.0 * scale / np.sqrt(min(mu_star.n_atoms, ASSIGNMENT_LIMIT)
                                if mu_star.dim > 1 else mu_star.n_atoms)
    if diag > tol:
        warnings.warn(
            f"burn-in diagnostic W2 = {diag:.3g} exceeds tolerance {tol:.3g}; "
            "the ensemble may not be stationary", StationarityWarning,
            stacklevel=2)
    return InvariantMeasureResult(measure=mu_star, diagnostic_w2=diag,
                                  tolerance=tol, t_burn=t_burn)
