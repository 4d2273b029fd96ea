"""Per-layer spans and counts, recorded from outside the program.

``install`` wraps ergolab's layer functions at runtime and rebinds every
module-level alias of each one, so a call through ``bsde.gaussian_increments``
or ``ebsde.iter_mv`` is recorded like a call through ``sde``. Nothing under
``src/`` is edited. Generator layers (the Euler iterators) are timed per
``next()``. A span's self time is its duration minus the spans it
encloses. A layer whose function no longer exists is reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict


class Tracer:
    """In-memory span totals and counters for one process."""

    def __init__(self):
        self.self_ns = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.counts = defaultdict(int)
        self.noise_keys = set()
        self.absent = []
        self._stack = []  # [name, start_ns, child_ns]

    def enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter_ns(), 0])

    def exit(self) -> None:
        name, start, child = self._stack.pop()
        dur = time.perf_counter_ns() - start
        self.self_ns[name] += dur - child
        self.total_ns[name] += dur
        if self._stack:
            self._stack[-1][2] += dur

    def innermost(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def exact_counts(self) -> dict:
        """Every count the run made; these repeat exactly run to run."""
        out = dict(self.counts)
        out["sde.noise.keys"] = len(self.noise_keys)
        return out


def _timed(tracer, name, fn, after=None, deltas=()):
    """Span around each call. ``deltas`` maps a count of this layer to the
    growth of another layer's count during the call; ``after`` records
    counts from the arguments and the result."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        before = [tracer.counts[src] for _, src in deltas]
        tracer.enter(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.exit()
        for (dst, src), b in zip(deltas, before):
            tracer.counts[dst] += tracer.counts[src] - b
        tracer.counts[name + ".calls"] += 1
        if after is not None:
            after(tracer, args, kwargs, out)
        return out

    return wrapper


def _timed_steps(tracer, name, fn):
    """Span around each ``next()`` of an Euler iterator. The first item is
    the initial state; every later one is a step of all particles."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)
        while True:
            tracer.enter(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                tracer.exit()
            if item[0] > 0:
                tracer.counts[name + ".steps"] += 1
                tracer.counts["sde.euler.particle_steps"] += item[2].shape[0]
            yield item

    return wrapper


def _noise(tracer, fn):
    """Leaf span around one noise block; its key is (seed, step)."""

    @functools.wraps(fn)
    def wrapper(seed, step, *args, **kwargs):
        tracer.enter("sde.noise")
        try:
            block = fn(seed, step, *args, **kwargs)
        finally:
            tracer.exit()
        tracer.counts["sde.noise.blocks"] += 1
        tracer.counts["sde.noise.rows"] += block.shape[0]
        tracer.counts["sde.noise.bytes_computed"] += block.nbytes
        tracer.noise_keys.add((seed, step))
        return block

    return wrapper


def _qr_counter(tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.innermost() == "bsde.factor":
            tracer.counts["bsde.qr.calls"] += 1
        return fn(*args, **kwargs)

    return wrapper


def _add(key, size):
    def after(tracer, args, kwargs, out):
        tracer.counts[key] += size(args, out)
    return after


def _written_bytes(path_index):
    return lambda args, out: os.path.getsize(args[path_index])


def _sweep(tracer, fn):
    """backward_lsmc: nodes and the size of the bundle it sweeps over."""
    inner = _timed(tracer, "bsde.sweep", fn)

    @functools.wraps(fn)
    def wrapper(spec, bundle_states, *args, **kwargs):
        tracer.counts["bsde.sweep.nodes"] += bundle_states.shape[0]
        key = "bsde.sweep.bundle_bytes_max"
        tracer.counts[key] = max(tracer.counts[key], bundle_states.nbytes)
        return inner(spec, bundle_states, *args, **kwargs)

    return wrapper


def _coupling_counts(tracer, args, kwargs, out):
    paths, nodes = out.radii.shape
    tracer.counts["coupling.loop.path_steps"] += paths * (nodes - 1)
    tracer.counts["coupling.radii.bytes_computed"] += out.radii.nbytes


def _alpha_steps(tracer, args, kwargs, out):
    tracer.counts["ebsde.ladder.horizon_steps"] += int(
        round(out.t_alpha / out.solution.dt))


# (module, attribute path, wrapper factory taking (tracer, original))
LAYERS = [
    ("ergolab.sde", "gaussian_increments", _noise),
    ("ergolab.sde", "iter_mv",
     lambda t, f: _timed_steps(t, "sde.euler_mv", f)),
    ("ergolab.sde", "iter_decoupled",
     lambda t, f: _timed_steps(t, "sde.euler_decoupled", f)),
    ("ergolab.sde", "simulate_mv", lambda t, f: _timed(
        t, "sde.record", f, after=_add(
            "sde.record.bytes_computed",
            lambda a, out: out.bundle.states.nbytes))),
    ("ergolab.sde", "simulate_decoupled", lambda t, f: _timed(
        t, "sde.record", f, after=_add(
            "sde.record.bytes_computed", lambda a, out: out.states.nbytes))),
    ("ergolab.coupling", "simulate_reflection_coupling",
     lambda t, f: _timed(t, "coupling.loop", f, after=_coupling_counts)),
    ("ergolab.bsde", "_NodeRegressor.__init__",
     lambda t, f: _timed(t, "bsde.factor", f)),
    ("ergolab.bsde", "_NodeRegressor.fit",
     lambda t, f: _timed(t, "bsde.fit", f)),
    ("ergolab.bsde", "_NodeRegressor.predict",
     lambda t, f: _timed(t, "bsde.predict", f)),
    ("numpy.linalg", "qr", _qr_counter),
    ("ergolab.bsde", "backward_lsmc", _sweep),
    ("ergolab.bsde", "solve_finite_bsde",
     lambda t, f: _timed(t, "bsde.solve", f)),
    ("ergolab.ebsde", "solve_alpha_bsde",
     lambda t, f: _timed(t, "ebsde.alpha", f, after=_alpha_steps)),
    ("ergolab.ebsde", "extract_ergodic", lambda t, f: _timed(
        t, "ebsde.ladder", f,
        deltas=(("ebsde.ladder.solves", "ebsde.alpha.calls"),))),
    ("ergolab.measure", "invariant_measure",
     lambda t, f: _timed(t, "measure.invariant", f)),
    ("ergolab.ebsde", "lambda_by_time_average", lambda t, f: _timed(
        t, "ebsde.time_average", f,
        deltas=(("ebsde.time_average.steps", "sde.euler_mv.steps"),))),
    ("ergolab.ltb", "ltb1_experiment", lambda t, f: _timed(
        t, "ltb.sweep", f,
        deltas=(("ltb.sweep.solves", "bsde.solve.calls"),
                ("ltb.sweep.nodes", "bsde.sweep.nodes")))),
    ("ergolab.cli", "run", lambda t, f: _timed(t, "cli.cmd", f)),
    ("ergolab.cli", "_write_kv", lambda t, f: _timed(
        t, "cli.io", f, after=_add("cli.io.bytes", _written_bytes(0)))),
    ("ergolab.cli", "_write_csv", lambda t, f: _timed(
        t, "cli.io", f, after=_add("cli.io.bytes", _written_bytes(0)))),
    ("ergolab.ltb", "DecayFit.to_csv", lambda t, f: _timed(
        t, "cli.io", f, after=_add("cli.io.bytes", _written_bytes(1)))),
]


def _lookup(module: str, path: str):
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None, None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None, None
    return owner, getattr(owner, attr, None)


def install(tracer: Tracer) -> None:
    """Wrap every layer in LAYERS; record the missing ones in
    ``tracer.absent`` instead of failing."""
    import ergolab  # noqa: F401  loads every module whose aliases we rebind

    for module, path, factory in LAYERS:
        owner, original = _lookup(module, path)
        if original is None:
            tracer.absent.append(f"{module}.{path}")
            continue
        wrapped = factory(tracer, original)
        setattr(owner, path.rsplit(".", 1)[-1], wrapped)
        if "." in path or not module.startswith("ergolab"):
            continue  # methods live on their class; numpy is looked up live
        for name, mod in list(sys.modules.items()):
            if name == "ergolab" or name.startswith("ergolab."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics by name; a layer that did not run reads 0."""
    c = tracer.counts
    s = lambda n: tracer.self_ns[n] / 1e9  # noqa: E731
    tot = lambda n: tracer.total_ns[n] / 1e9  # noqa: E731

    def ratio(a, b):
        return a / b if b else 0.0

    factors = c["bsde.factor.calls"]
    euler_ns = tracer.self_ns["sde.euler_mv"] + tracer.self_ns["sde.euler_decoupled"]
    return {
        "sde.noise.self_s": (s("sde.noise"), "s"),
        "sde.noise.blocks": (c["sde.noise.blocks"], "count"),
        "sde.noise.rows": (c["sde.noise.rows"], "count"),
        "sde.noise.ns_per_row": (
            ratio(tracer.self_ns["sde.noise"], c["sde.noise.rows"]), "ns"),
        "sde.noise.bytes_computed": (c["sde.noise.bytes_computed"], "B"),
        "sde.noise.redraw_ratio": (
            ratio(c["sde.noise.blocks"], len(tracer.noise_keys)), "ratio"),
        "sde.euler_mv.self_s": (s("sde.euler_mv"), "s"),
        "sde.euler_mv.steps": (c["sde.euler_mv.steps"], "count"),
        "sde.euler_decoupled.self_s": (s("sde.euler_decoupled"), "s"),
        "sde.euler_decoupled.steps": (c["sde.euler_decoupled.steps"], "count"),
        "sde.euler.ns_per_particle_step": (
            ratio(euler_ns, c["sde.euler.particle_steps"]), "ns"),
        "coupling.loop.self_s": (s("coupling.loop"), "s"),
        "coupling.loop.path_steps": (c["coupling.loop.path_steps"], "count"),
        "coupling.radii.bytes_computed": (
            c["coupling.radii.bytes_computed"], "B"),
        "sde.record.self_s": (s("sde.record"), "s"),
        "sde.record.bytes_computed": (c["sde.record.bytes_computed"], "B"),
        "bsde.factor.self_s": (s("bsde.factor"), "s"),
        "bsde.factor.calls": (factors, "count"),
        "bsde.qr.per_node": (ratio(c["bsde.qr.calls"], factors), "count"),
        "bsde.fit.self_s": (s("bsde.fit"), "s"),
        "bsde.fit.calls": (c["bsde.fit.calls"], "count"),
        "bsde.fit.per_node": (ratio(c["bsde.fit.calls"], factors), "count"),
        "bsde.predict.self_s": (s("bsde.predict"), "s"),
        "bsde.sweep.self_s": (s("bsde.sweep"), "s"),
        "bsde.sweep.nodes": (c["bsde.sweep.nodes"], "count"),
        "bsde.sweep.us_per_node": (
            ratio(tracer.total_ns["bsde.sweep"] / 1e3, c["bsde.sweep.nodes"]),
            "us"),
        "bsde.sweep.bundle_bytes_max": (c["bsde.sweep.bundle_bytes_max"], "B"),
        "ebsde.ladder.total_s": (tot("ebsde.ladder"), "s"),
        "ebsde.ladder.solves": (c["ebsde.ladder.solves"], "count"),
        "ebsde.ladder.horizon_steps": (c["ebsde.ladder.horizon_steps"], "count"),
        "measure.invariant.total_s": (tot("measure.invariant"), "s"),
        "ebsde.time_average.total_s": (tot("ebsde.time_average"), "s"),
        "ebsde.time_average.steps": (c["ebsde.time_average.steps"], "count"),
        "ltb.sweep.total_s": (tot("ltb.sweep"), "s"),
        "ltb.sweep.solves": (c["ltb.sweep.solves"], "count"),
        "ltb.sweep.nodes": (c["ltb.sweep.nodes"], "count"),
        "cli.cmd.total_s": (tot("cli.cmd"), "s"),
        "cli.io.self_s": (s("cli.io"), "s"),
        "cli.io.bytes": (c["cli.io.bytes"], "B"),
        "trace.layers_absent": (len(tracer.absent), "count"),
    }
