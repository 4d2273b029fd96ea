"""One execution of one workload, in a process of its own.

    python3 bench/worker.py --workload W --seed N --mode plain|trace|setup \
        --workdir DIR --spawned-at T

``--spawned-at`` is the parent's ``time.monotonic()`` just before it
started this process, so ``setup_s`` runs from process start to the
inputs being built. Mode ``setup`` stops there; ``plain`` times the call
and its check; ``trace`` installs the layer wrappers first. The result is
one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.append(str(ROOT / "tests"))  # oracle_reference, imported read-only

from layers import Tracer, install, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def os_threads() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def blas_pools() -> list:
    """Every OpenBLAS library mapped into this process, with its
    configuration string and thread count."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.lower() and "/" in line})
    pools = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas_", "64_"),
                               ("scipy_openblas_", ""), ("openblas_", "")):
            try:
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
                config = getattr(lib, f"{prefix}get_config{suffix}")
            except AttributeError:
                continue
            config.restype = ctypes.c_char_p
            pools.append({"library": Path(path).name,
                          "config": config().decode(), "threads": threads()})
            break
    return pools


def execute(args) -> dict:
    setup, run, check = WORKLOADS[args.workload]
    inputs = setup(args.seed, args.workdir)
    import oracle_reference  # noqa: F401  the checks' closed forms
    result = {"setup_s": time.monotonic() - args.spawned_at,
              "threads_ready": os_threads(), "failed": []}
    if args.mode == "setup":
        return result
    tracer = None
    if args.mode == "trace":
        tracer = Tracer()
        install(tracer)
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    output = run(inputs)
    failed, accuracy, digest = check(inputs, output)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    import numpy
    import scipy
    result.update(
        wall_s=wall, cpu_s=cpu, failed=failed, accuracy=accuracy,
        digest=digest,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        blas=blas_pools(), python=platform.python_version(),
        numpy=numpy.__version__, scipy=scipy.__version__)
    if tracer is not None:
        result["layers"] = {k: v for k, (v, _) in layer_metrics(tracer).items()}
        result["counts"] = tracer.exact_counts()
        result["absent"] = tracer.absent
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "plain", "trace"),
                        required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args()
    try:
        result = execute(args)
    except Exception as exc:  # reported as a failed execution, by name
        traceback.print_exc()
        result = {"failed": [f"{args.workload}.raised_{type(exc).__name__}"]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
