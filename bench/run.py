"""ergolab benchmark: one workload per run, each execution in a fresh process.

    python3 bench/run.py --workload ergodic-ou --seed 42 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 42

``--trace 0`` reports the end-to-end metrics: the medians of ``wall_s``,
``peak_rss_mb`` and ``setup_s`` over the executions of the run, and
``pass_ratio``. ``--trace 1`` runs the workload once untraced and twice
traced and reports the per-layer metrics; it also checks that tracing
leaves the checked outputs bit-identical and that the counts repeat.
``--workload all`` prints every workload's end-to-end table. The last line
of standard output is always one JSON object. See NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BUDGET_S = 170.0      # a run ends well inside the 180 s limit
SETUP_PROBES = 1      # set-up-only processes before the measured executions
POLL_S = 0.2          # thread-count sampling interval
WORK = ROOT / ".bench_build" / "bench"


class Run:
    """The worker processes of one benchmark run and their results."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + BUDGET_S
        self.results = []

    def spawn(self, mode: str) -> dict:
        workdir = WORK / f"{self.workload}-{os.getpid()}-{len(self.results)}"
        workdir.mkdir(parents=True, exist_ok=True)
        spawned_at = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "--workload",
             self.workload, "--seed", str(self.seed), "--mode", mode,
             "--workdir", str(workdir), "--spawned-at", repr(spawned_at)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        threads_max, stdout, reason = 0, "", None
        try:
            while True:
                try:
                    stdout, _ = proc.communicate(timeout=POLL_S)
                    break
                except subprocess.TimeoutExpired:
                    threads_max = max(threads_max, _threads_of(proc.pid))
                    if time.monotonic() > self.deadline:
                        proc.kill()
                        proc.communicate()
                        reason = "timeout"
                        break
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            shutil.rmtree(workdir, ignore_errors=True)
        result = _last_json(stdout) if reason is None else None
        if result is None:
            result = {"failed": [f"{self.workload}.{reason or 'no_result'}"]}
        if proc.returncode not in (0, None) and reason is None:
            result["failed"].append(f"{self.workload}.exit_{proc.returncode}")
        result["mode"] = mode
        result["threads_max"] = threads_max
        print(f"# {mode:<5} " + " ".join(
            f"{k}={result[k]:.4f}" for k in ("setup_s", "wall_s", "peak_rss_mb")
            if k in result))
        self._check_threads(result)
        self.results.append(result)
        return result

    def _check_threads(self, result: dict) -> None:
        """The workload starts no threads beyond nproc, and no BLAS pool
        holds more than nproc threads."""
        nproc = os.cpu_count() or 1
        started = max(result["threads_max"] - result.get("threads_ready", 0), 0)
        pools = [p["threads"] for p in result.get("blas", [])]
        if 1 + started > nproc or any(n > nproc for n in pools):
            result["failed"].append(f"{self.workload}.threads_over_nproc")

    def time_left(self) -> float:
        return self.deadline - time.monotonic()

    @property
    def failures(self) -> list:
        return [name for r in self.results for name in r["failed"]]

    def verdict(self) -> dict:
        failed = sum(1 for r in self.results if r["failed"])
        return {"correct": failed == 0, "attempted": len(self.results),
                "failed": failed}


def _threads_of(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _last_json(stdout: str) -> dict | None:
    lines = stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return out if isinstance(out, dict) and "failed" in out else None


def _median(values):
    return statistics.median(values) if values else 0.0


def measured(workload: str, seed: int, seconds: float) -> tuple[Run, dict]:
    """Set-up probes, then executions until ``seconds`` have passed (at
    least one, and none that would overrun the run's budget)."""
    run = Run(workload, seed)
    for _ in range(SETUP_PROBES):
        run.spawn("setup")
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        run.spawn("plain")
        last = time.monotonic() - t0
        if time.monotonic() - start >= seconds or run.time_left() < 2 * last:
            break
    plain = [r for r in run.results if r["mode"] == "plain" and "wall_s" in r]
    setups = [r["setup_s"] for r in run.results if "setup_s" in r]
    ok = sum(1 for r in run.results if not r["failed"])
    metrics = {
        "wall_s": (_median([r["wall_s"] for r in plain]), "s", len(plain)),
        "peak_rss_mb": (_median([r["peak_rss_mb"] for r in plain]), "MB",
                        len(plain)),
        "setup_s": (_median(setups), "s", len(setups)),
        "pass_ratio": (ok / len(run.results), "ratio", len(run.results)),
    }
    return run, metrics


# per-layer names that come from the untraced execution or the checks;
# a check that does not apply to the workload reads 0
EXTRA_UNITS = [
    ("run.cpu_s", "s"), ("run.cpu_per_wall", "ratio"),
    ("run.threads_max", "count"), ("run.blas_threads", "count"),
    ("trace.overhead_ratio", "ratio"), ("check.lambda_err", "abs_err"),
    ("check.ltb1_c_err", "abs_err"), ("check.coupling_rate", "1/t"),
]


def traced(workload: str, seed: int) -> tuple[Run, dict]:
    """One untraced and two traced executions. Layer figures come from the
    first traced one; process figures from the untraced one."""
    run = Run(workload, seed)
    plain = run.spawn("plain")
    first = run.spawn("trace")
    second = run.spawn("trace")
    units = {k: u for k, (_, u) in layer_metrics(Tracer()).items()}
    if any(r["failed"] for r in (plain, first, second)):
        layers = {k: 0.0 for k in units}
        extra = {}
    else:
        if not first["digest"] == second["digest"] == plain["digest"]:
            first["failed"].append(f"{workload}.trace_changed_output")
        if first["counts"] != second["counts"]:
            first["failed"].append(f"{workload}.counts_not_exact")
        layers = first["layers"]
        extra = dict(plain["accuracy"])
        extra.update({
            "run.cpu_s": plain["cpu_s"],
            "run.cpu_per_wall": plain["cpu_s"] / plain["wall_s"],
            "run.threads_max": plain["threads_max"],
            "run.blas_threads": max([p["threads"] for p in plain["blas"]],
                                    default=0),
            "trace.overhead_ratio": first["wall_s"] / plain["wall_s"],
        })
        if first["absent"]:
            print(f"# layers absent: {', '.join(first['absent'])}")
    metrics = {}
    for name, unit in list(units.items()) + EXTRA_UNITS:
        metrics[name] = (extra.get(name, layers.get(name, 0.0)), unit, 1)
    return run, metrics


def metadata(run: Run) -> dict:
    first = next((r for r in run.results if "blas" in r), {})
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = ""
    if (ROOT / ".git").exists():  # never the commit of an enclosing repo
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"workload": run.workload, "seed": run.seed,
            "nproc": os.cpu_count(), "commit": commit or "unknown",
            "source_sha256": digest.hexdigest(),
            "python": first.get("python"), "numpy": first.get("numpy"),
            "scipy": first.get("scipy"), "blas": first.get("blas")}


def _finite(value) -> float:
    return float(value) if math.isfinite(value) else 0.0


def report(metrics: dict, prefix: str = "") -> dict:
    for name, (value, unit, n) in metrics.items():
        print(f"# {prefix}{name:<34} {value:>16.6g} {unit:<6} n={n}")
    return {prefix + name: {"value": _finite(value), "unit": unit}
            for name, (value, unit, _) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    missing = [p for p in ("src/ergolab/__init__.py", "tests/oracle_reference.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"bench: not an ergolab checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        if args.trace:
            run, metrics = traced(name, args.seed)
        else:
            run, metrics = measured(name, args.seed, args.seconds)
        print("# meta " + json.dumps(metadata(run)))
        verdict = run.verdict()
        for failure in run.failures:
            print(f"# FAILED {failure}")
        prefix = f"{name}." if args.workload == "all" else ""
        out["metrics"].update(report(metrics, prefix))
        print(f"# {prefix}{'fail_ratio':<34} "
              f"{verdict['failed'] / verdict['attempted']:>16.6g} ratio  "
              f"n={verdict['attempted']}")
        out["correct"] = out["correct"] and verdict["correct"]
        out["attempted"] += verdict["attempted"]
        out["failed"] += verdict["failed"]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
