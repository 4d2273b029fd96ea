"""Forward simulation by Euler-Maruyama. One kernel, ``iter_mv``, steps
the interacting-particle system with the empirical measure fed back into
the coefficients, the decoupled equation against a frozen measure flow,
and the controlled dynamics, which add a bounded drift shift of Girsanov
type: the three are one Euler step with mu taken from a different place.
The reflection-coupling loop in ``coupling`` keeps its own step, since it
splits sigma into several noise channels.

Noise contract: the Gaussian increment block of time step k is a pure
function of (seed, k) through a counter-based generator, with one row per
particle. Any consumer can regenerate any step's increments without
storing them, and results are independent of how particles are scheduled
across threads.

The Euler loops read their blocks from ``noise_blocks``, which draws them
ahead on a second core: one process-wide helper thread, started on first
use and never when the CPU affinity mask holds a single CPU, draws each
open stream's blocks up to four ahead of its caller, and a caller whose
next block is not ready draws the next unclaimed one itself instead of
waiting; blocks of fewer than 4096 normals the caller draws alone. Since
every block is a pure function of (seed, k), results are bit-identical
whatever the scheduling; the price is at most four blocks per open stream
held in memory ahead of use.

Every run is resumable: ``iter_mv`` takes the global step ``start`` of
the state it resumes from, and a run resumed from its step-g state
repeats the unsplit run bit for bit.

An interacting step hands its coefficients the law as a
``measure.LawSummary``: the integrals of mu that ``ProblemSpec.law_stats``
declares, computed once from the live states before they move. A
coefficient that reads anything else of mu raises ValueError at step 0
of every run, and no step copies the states. ``interacting_flow`` keeps
those summaries at every node, and clouds only where its caller reads a
law, so a backward sweep or a coupling loop reads the flow without
simulating it again. ``simulate_mv`` keeps the cloud of every
``record_every``-th node, a record that grows as M N: the tests' stored
reference. Each Euler step checks its new states for finiteness once.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from contextlib import closing
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np
# numpy loads numpy.random on first use; every run draws noise, so it
# loads with the package instead of inside the first draw (~20 ms)
import numpy.random  # noqa: F401

from ergolab import measure
from ergolab.measure import (EmpiricalMeasure, LawSummary, MeasureFlow,
                             _w_capped)

__all__ = [
    "INIT_DRAW_STEP",
    "BlowUpError",
    "DriftShift",
    "ContractionFit",
    "gaussian_increments",
    "noise_blocks",
    "derive_seed",
    "simulate_mv",
    "interacting_flow",
    "flow_property_check",
    "contraction_rate",
]

# Counter position reserved for time-zero draws; step indices stay well
# below this (the node-budget guard elsewhere caps them at 1e7).
INIT_DRAW_STEP = 2 ** 64 - 1


class BlowUpError(RuntimeError):
    """A state coordinate left the floats. Carries the offending step."""

    def __init__(self, step: int, time: float, detail: str = ""):
        self.step = step
        self.time = time
        msg = f"non-finite state at step {step} (t = {time:.6g})"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


def gaussian_increments(seed: int, step: int, n: int, dim: int,
                        channels: int = 1) -> np.ndarray:
    """Standard-normal block for one time step: shape (n, dim), or
    (n, channels, dim) when several independent noise sources are needed
    per step. Deterministic in (seed, step): row i is particle i's draw,
    whichever thread draws it, so ``noise_blocks`` may draw a run's blocks
    on its helper thread, up to four blocks ahead of their use, and the
    run stays bit-identical."""
    if seed < 0 or step < 0:
        raise ValueError("seed and step must be nonnegative")
    block = _keyed_generator(seed, step).standard_normal((n, channels, dim))
    return block[:, 0, :] if channels == 1 else block


def _philox_key(seed: int, step: int) -> np.ndarray:
    return np.array([seed, step], dtype=np.uint64)


_ZEROS4 = (0, 0, 0, 0)


# one generator per thread, rekeyed per block: building a fresh Philox and
# Generator costs more than drawing an N = 3000 block, and a shared one
# would race when blocks are drawn from a thread pool
_thread_rng = threading.local()


def _keyed_generator(seed: int, step: int) -> np.random.Generator:
    """This thread's generator, reset to the state of a fresh
    ``Philox(key=[seed, step])``: zero counter, empty buffer."""
    rng = getattr(_thread_rng, "generator", None)
    if rng is None:
        rng = _thread_rng.generator = np.random.Generator(np.random.Philox())
    # the setter copies each entry into the generator, and reads Python
    # ints faster than uint64 arrays
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS4, "key": (seed, step)},
        "buffer": _ZEROS4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return rng


# blocks a stream may hold drawn ahead of its caller
_AHEAD = 4
# a block of fewer normals (about 100 us of Philox on a 2-core x86 VM)
# draws faster than the two threads can hand it over
_MIN_SHARED = 4096


class _Stream:
    """One ``noise_blocks`` stream's window: of its blocks [taken, stop),
    those in [taken, claimed) are drawn or being drawn. Read and written
    under ``_helper_cv``."""

    def __init__(self, seed: int, start: int, stop: int, shape: tuple):
        self.key = (seed, shape)
        self.taken = start
        self.claimed = start
        self.stop = stop
        self.ready = {}  # step -> its block, or the exception its draw raised
        self.busy = False  # the helper is drawing one of its blocks

    def claim(self) -> int | None:
        """The window's next unclaimed step, now claimed, or None."""
        if self.claimed >= min(self.stop, self.taken + _AHEAD):
            return None
        self.claimed += 1
        return self.claimed - 1

    def draw(self, step: int) -> np.ndarray:
        seed, shape = self.key
        return gaussian_increments(seed, step, *shape)


_helper_cv = threading.Condition()
_helper_streams: list[_Stream] = []  # open streams, oldest first
_helper_thread: threading.Thread | None = None


def _start_helper() -> bool:
    """Start the helper thread unless this process may use one CPU only;
    True when it runs."""
    global _helper_thread
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    if cpus < 2:
        return False
    with _helper_cv:
        if _helper_thread is None or not _helper_thread.is_alive():
            _helper_thread = threading.Thread(
                target=_serve, name="ergolab-noise", daemon=True)
            _helper_thread.start()
    return True


def _helper_task() -> tuple[_Stream, int] | None:
    for stream in _helper_streams:
        step = stream.claim()
        if step is not None:
            return stream, step
    return None


def _serve() -> None:
    """The helper thread: draw the next unclaimed block of the oldest open
    stream that has one in its window, forever."""
    while True:
        with _helper_cv:
            stream, step = _helper_cv.wait_for(_helper_task)
            stream.busy = True
        try:
            item = stream.draw(step)
        except BaseException as exc:  # re-raised by the caller at this step
            item = exc
        with _helper_cv:
            stream.busy = False
            stream.ready[step] = item
            _helper_cv.notify_all()


def _take(stream: _Stream, step: int) -> np.ndarray:
    """The stream's block at ``step``, its caller's next: drawn by the
    helper, or else by the caller, which draws the next unclaimed block of
    its window rather than wait while the helper draws this one."""
    with _helper_cv:
        while step not in stream.ready:
            mine = stream.claim()
            if mine is None:  # the helper is drawing this step's block
                _helper_cv.wait()
                continue
            _helper_cv.release()
            try:
                item = stream.draw(mine)
            except Exception as exc:  # raised when the caller reaches it
                item = exc
            finally:
                _helper_cv.acquire()
            stream.ready[mine] = item
        item = stream.ready.pop(step)
        stream.taken = step + 1
        _helper_cv.notify_all()
    if isinstance(item, BaseException):
        raise item
    return item


def noise_blocks(seed: int, start: int, n_steps: int, n: int, dim: int,
                 channels: int = 1) -> Iterator[np.ndarray]:
    """``gaussian_increments(seed, g, n, dim, channels)`` for g = start,
    ..., start + n_steps - 1, in order: the Euler loops' only source of
    noise. The helper thread draws up to four blocks ahead of the caller
    and the caller draws whatever the helper has not claimed, so the two
    cores share the drawing; the blocks are bit-identical to serial draws
    whatever the scheduling. The caller draws every block itself when the
    affinity mask holds one CPU, or a block holds fewer than 4096 normals,
    or there is a single step. A stream closed early (``close``,
    garbage collection, an exception in the loop that reads it) stops the
    helper's work on it before the close returns; an exception raised by
    a draw reaches the caller at that draw's step."""
    stop = start + n_steps
    if n_steps < 2 or n * dim * channels < _MIN_SHARED \
            or not _start_helper():
        for step in range(start, stop):
            yield gaussian_increments(seed, step, n, dim, channels)
        return
    stream = _Stream(seed, start, stop, (n, dim, channels))
    with _helper_cv:
        _helper_streams.append(stream)
        _helper_cv.notify_all()
    try:
        for step in range(start, stop):
            yield _take(stream, step)
    finally:
        with _helper_cv:
            _helper_streams.remove(stream)
            # a close that the garbage collector runs on the helper thread
            # must not wait for that thread's own draw
            if threading.current_thread() is not _helper_thread:
                _helper_cv.wait_for(lambda: not stream.busy)
            stream.ready.clear()


def derive_seed(seed: int, tag: int) -> int:
    """Independent child stream seed for (seed, tag), stable across runs."""
    return int(np.random.SeedSequence([seed, tag]).generate_state(1, np.uint64)[0]
               >> np.uint64(1))


@dataclass(frozen=True, eq=False)
class DriftShift:
    """Bounded measurable drift shift beta(t, x, mu), entering the dynamics
    as sigma(x, mu)(beta dt + dW). The declared sup bound is enforced on
    every evaluation."""

    fn: Callable[[float, np.ndarray, EmpiricalMeasure], np.ndarray]
    bound: float

    def __call__(self, t: float, x: np.ndarray,
                 mu: EmpiricalMeasure) -> np.ndarray:
        out = np.asarray(self.fn(t, x, mu), dtype=float)
        out = np.broadcast_to(out, x.shape)
        worst = float(np.max(np.linalg.norm(out, axis=1)))
        if worst > self.bound + 1e-9:
            raise ValueError(
                f"drift shift reached |beta| = {worst:.6g}, above its "
                f"declared bound {self.bound:.6g}")
        return out


@dataclass(frozen=True, eq=False)
class ContractionFit:
    """Synchronous-coupling Wasserstein decay and its fitted exponential
    rate. ``note`` records truncation, degeneracy, and a W_p taken on the
    first ``measure.ASSIGNMENT_LIMIT`` atoms only (d > 1); ``rate`` is NaN
    when fewer than two usable nodes remain."""

    rate: float
    times: np.ndarray
    w_values: np.ndarray
    p: int
    truncated_at: float | None = None
    note: str = ""


def _steps_for(T: float, dt: float) -> int:
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if T < dt:
        raise ValueError(f"horizon {T} shorter than one step {dt}")
    n = int(round(T / dt))
    if abs(n * dt - T) > 1e-9 * max(1.0, abs(T)):
        raise ValueError(f"horizon {T} is not a whole number of steps of {dt}")
    return n


def _sigma_dot(sig: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """sigma @ v per particle; sig is (d, d) or (N, d, d), vec is (N, d)."""
    if sig.shape == (1, 1):
        # one exact product per row, as the matmul forms it, at a tenth
        # of the matmul's call cost
        return vec * sig[0, 0]
    if sig.ndim == 2:
        return vec @ sig.T
    return np.einsum("nij,nj->ni", sig, vec)


def _check_finite(x: np.ndarray, step: int, t: float) -> None:
    # a finite sum means every entry is finite; only a non-finite sum,
    # which finite entries can also give by overflow, needs the full scan
    if not np.isfinite(x.sum()) and not np.all(np.isfinite(x)):
        bad = int(np.sum(~np.isfinite(x).all(axis=1)))
        raise BlowUpError(step, t, f"{bad} particle(s) non-finite")


def draw_initial(theta: EmpiricalMeasure, n_particles: int,
                 seed: int) -> np.ndarray:
    """n_particles i.i.d. draws from an empirical measure, from the
    reserved time-zero counter position."""
    rng = np.random.Generator(np.random.Philox(key=_philox_key(seed, INIT_DRAW_STEP)))
    if theta.n_atoms == 1:
        return np.tile(theta.points[0], (n_particles, 1))
    return theta.points[rng.choice(theta.n_atoms, size=n_particles)]


def _check_flow(flow: MeasureFlow, t0: float, t1: float,
                dt: float) -> None:
    """The flow covers [t0, t1] on a grid of whole steps of dt."""
    if not flow.covers(t0, t1):
        raise ValueError(
            f"flow covers [{flow.t0:.6g}, {flow.t1:.6g}] but the run "
            f"needs [{t0:.6g}, {t1:.6g}]")
    ratio = np.diff(flow.times) / dt
    if np.any(np.abs(ratio - np.round(ratio)) > 1e-6):
        raise ValueError("flow grid spacing is not a whole multiple of dt")


def iter_mv(spec, states: np.ndarray, dt: float, n_steps: int, seed: int,
            start: int = 0, flow: MeasureFlow | None = None,
            shift: DriftShift | None = None,
            _blocks: Iterator[np.ndarray] | None = None) -> Iterator[tuple]:
    """Advance one Euler system in place from ``states`` at global step
    ``start`` of a run from time 0: global step g runs at t = g dt and
    consumes the (seed, g) noise block, so a run resumed from its step-g
    state at ``start=g`` repeats the unsplit run bit for bit.

    Without ``flow`` this is the interacting-particle system: the
    coefficients read the ensemble's own empirical measure, as the
    ``LawSummary`` of ``spec.law_stats`` computed from x once per step, so
    an undeclared read raises ValueError at step 0. With ``flow`` it is
    the decoupled equation: they read ``flow.at_time(t)``, never the
    simulated cloud, and the flow must cover the run on a grid of whole
    steps. ``shift`` adds sigma * beta dt to each step.

    Yields (j, t, x, mu, dw) before the first step and after each one, j
    counting the steps taken: mu is the measure the next step reads, and dw
    the Brownian increment sqrt(dt) * block that carried the previous state
    to x, without any shift (None at j = 0). x is the live buffer: copy
    before storing.

    ``_blocks`` stands in for the run's own ``noise_blocks`` stream with
    the same blocks, so that synchronously coupled systems share one draw;
    they are read, never written."""
    x = np.array(states, dtype=float)
    n, d = x.shape
    if flow is None:
        cloud = EmpiricalMeasure(x)  # checks the start; a view of x
        mu = LawSummary.of(cloud, spec.law_stats, start * dt)
    else:
        _check_flow(flow, start * dt, (start + n_steps) * dt, dt)
        mu = flow.at_time(start * dt)
    yield 0, start * dt, x, mu, None
    scale = math.sqrt(dt)
    blocks = noise_blocks(seed, start, n_steps, n, d) if _blocks is None \
        else _blocks
    try:
        for k, block in enumerate(blocks):
            g = start + k
            t = g * dt
            b = spec.drift(t, x, mu)
            sig = np.asarray(spec.diffusion(x, mu), dtype=float)
            dw = block * scale
            push = dw if shift is None else dw + shift(t, x, mu) * dt
            # _sigma_dot returns a fresh array, never one the spec returned
            step = _sigma_dot(sig, push)
            step += b * dt
            x += step
            _check_finite(x, g + 1, t + dt)
            mu = LawSummary.of(cloud, spec.law_stats, t + dt) \
                if flow is None else flow.at_time(t + dt)
            yield k + 1, t + dt, x, mu, dw
    finally:
        if _blocks is None:
            blocks.close()


def _interacting_start(spec, theta: EmpiricalMeasure, n_particles: int,
                       seed: int) -> np.ndarray:
    if n_particles < 1:
        raise ValueError("need at least one particle")
    if theta.dim != spec.dim:
        raise ValueError(f"theta is {theta.dim}-dimensional, model wants {spec.dim}")
    return draw_initial(theta, n_particles, seed)


def simulate_mv(spec, theta: EmpiricalMeasure, dt: float, T: float,
                n_particles: int, seed: int,
                record_every: int = 1) -> MeasureFlow:
    """The interacting-particle Euler scheme from i.i.d. draws from theta,
    as the flow of its clouds at every ``record_every``-th node and at the
    terminal node: the stored record, M N d floats at ``record_every``
    = 1, against which the tests check ``interacting_flow``."""
    n_steps = _steps_for(T, dt)
    every = max(int(record_every), 1)
    x0 = _interacting_start(spec, theta, n_particles, seed)
    times, clouds = zip(*(
        (t, EmpiricalMeasure._of_checked(x.copy()))
        for k, t, x, _, _ in iter_mv(spec, x0, dt, n_steps, seed)
        if k % every == 0 or k == n_steps))
    return MeasureFlow(times, clouds)


def interacting_flow(spec, theta: EmpiricalMeasure, dt: float, T: float,
                     n_particles: int, seed: int, keep=()) -> MeasureFlow:
    """The interacting-particle flow of ``simulate_mv(spec, theta, dt, T,
    n_particles, seed)`` on its nodes 0..M, from one pass: the cloud at
    the nodes of the times in ``keep`` (whole steps of dt) and at the
    terminal, and elsewhere the ``LawSummary`` its Euler step read.
    Every read returns what that run's ``record_every=1`` flow returns,
    bit for bit, or raises ValueError."""
    n_steps = _steps_for(T, dt)
    kept = {int(round(t / dt)) for t in keep} | {n_steps}
    times = np.empty(n_steps + 1)
    nodes = []
    x0 = _interacting_start(spec, theta, n_particles, seed)
    for k, t, x, mu, _ in iter_mv(spec, x0, dt, n_steps, seed):
        times[k] = t
        nodes.append(EmpiricalMeasure._of_checked(x.copy()) if k in kept
                     else mu)
    return MeasureFlow(times, nodes)


def flow_property_check(spec, theta: EmpiricalMeasure, s: float, T: float,
                        dt: float, n: int, seed: int) -> float:
    """Restart consistency of the decoupled equation: run the interacting
    system to T, held as an ``interacting_flow`` with its cloud kept at s,
    restart the decoupled equation at time s from the ensemble X_s against
    that flow with fresh noise, and return the W2 distance between the two
    time-T clouds. Zero in law; the sampled value sits at Monte Carlo
    scale. For d > 1 the distance is taken between the first
    ``measure.ASSIGNMENT_LIMIT`` atoms of each cloud only."""
    if not 0.0 < s < T:
        raise ValueError(f"need 0 < s < T, got s={s}, T={T}")
    start = int(round(s / dt))
    flow = interacting_flow(spec, theta, dt, T, n, seed, keep=[start * dt])
    *_, (_, _, x, _, _) = iter_mv(spec, flow.at_time(start * dt).points, dt,
                                  _steps_for(T, dt) - start,
                                  derive_seed(seed, 101), start=start,
                                  flow=flow)
    return _w_capped(flow.terminal, EmpiricalMeasure(x), 2)


def contraction_rate(spec, theta: EmpiricalMeasure,
                     theta_prime: EmpiricalMeasure, dt: float, T: float,
                     n: int, seed: int, p: int = 2,
                     tap: Callable[[int, float, np.ndarray], None]
                     | None = None) -> ContractionFit:
    """Wasserstein contraction between two interacting systems driven by
    the same increments (synchronous coupling), from two initial laws.
    Fits log W_p against time by least squares and returns the decay rate
    as a positive number. Nodes where W_p falls below 1e-8 are dropped
    and the fit is marked truncated. For d > 1, W_p is taken between the
    first ``measure.ASSIGNMENT_LIMIT`` atoms of each system only, and
    ``note`` says so when n exceeds that.

    ``tap``, when given, is fed (k, t, x) at every node of theta's system,
    the states the plain interacting run from theta reaches, bit for bit;
    x is the live buffer. So a caller that wants both steps that system
    once."""
    if n < 1:
        raise ValueError("need at least one particle")
    n_steps = _steps_for(T, dt)
    xa = draw_initial(theta, n, seed)
    xb = draw_initial(theta_prime, n, seed)
    # both systems step on each block of one stream
    with closing(noise_blocks(seed, 0, n_steps, n, spec.dim)) as blocks:
        blocks_a, blocks_b = itertools.tee(blocks)
        gen_a = iter_mv(spec, xa, dt, n_steps, seed, _blocks=blocks_a)
        gen_b = iter_mv(spec, xb, dt, n_steps, seed, _blocks=blocks_b)
        times = np.empty(n_steps + 1)
        w = np.empty(n_steps + 1)
        for (k, t, x_a, _, _), (_, _, x_b, _, _) in zip(gen_a, gen_b):
            if tap is not None:
                tap(k, t, x_a)
            times[k] = t
            w[k] = _w_capped(EmpiricalMeasure._of_checked(x_a),
                             EmpiricalMeasure._of_checked(x_b), p)

    floor = 1e-8
    alive = w >= floor
    truncated_at = None
    note = ""
    if not np.all(alive):
        first_dead = int(np.argmax(~alive))
        truncated_at = float(times[first_dead])
        alive[first_dead:] = False
        note = (f"W_{p} fell below {floor:g} at t = {truncated_at:.6g}; "
                "fit truncated there")
    usable = int(alive.sum()) >= 2
    if not usable:
        note = note or "degenerate: too few usable nodes"
    cap = measure.ASSIGNMENT_LIMIT
    if spec.dim > 1 and n > cap:
        note = "; ".join(filter(None, [
            note, f"W_{p} on the first {cap} of {n} atoms of each system"]))
    if not usable:
        return ContractionFit(rate=math.nan, times=times, w_values=w, p=p,
                              truncated_at=truncated_at, note=note)
    slope = np.polyfit(times[alive], np.log(w[alive]), 1)[0]
    return ContractionFit(rate=float(-slope), times=times, w_values=w, p=p,
                          truncated_at=truncated_at, note=note)
