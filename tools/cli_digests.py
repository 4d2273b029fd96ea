"""Run every ergolab subcommand on small inputs at seeds 42 and 7, and
print each run's exit code and the sha256 of every data file it wrote.

    python3 tools/cli_digests.py OUTDIR

The runs write under OUTDIR, one directory per seed and run. Paths are
printed relative to OUTDIR, so two checkouts run into two directories
print the same lines exactly when their data files are byte-identical and
their exit codes agree. Manifests and ``report.report`` are left out:
they carry the wall time and the run directory.

The script imports ``ergolab`` from the checkout it sits in and runs every
subcommand in this one process.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ergolab.cli import run  # noqa: E402

SEEDS = (42, 7)

# (run name, preset, subcommand, extra arguments)
RUNS = [
    ("audit-ou", "ou-attract", "audit", ["--particles", "500"]),
    ("audit-sine", "sine-weak", "audit", ["--particles", "500"]),
    ("simulate", "ou-attract", "simulate", ["--particles", "300"]),
    ("simulate-x0p", "ou-attract", "simulate",
     ["--particles", "300", "--set", "x0_prime=1.0"]),
    ("invariant", "ou-attract", "invariant", ["--particles", "300"]),
    ("coupling-sine", "sine-weak", "coupling",
     ["--particles", "300", "--set", "paths=200", "--horizon", "3"]),
    ("bsde", "ou-attract", "bsde", ["--particles", "500"]),
    ("bsde-sine", "sine-weak", "bsde", ["--particles", "500"]),
    ("ebsde", "ou-attract", "ebsde", ["--particles", "500"]),
    ("ebsde-sine", "sine-weak", "ebsde", ["--particles", "500"]),
    # the time average reads the ladder's zeta_bar at every step
    ("ebsde-tavg", "ou-attract", "ebsde",
     ["--particles", "500", "--set", "t_long=40"]),
    ("ltb1", "ou-attract", "ltb1", ["--particles", "500"]),
    ("ltb2", "ou-attract", "ltb2", ["--particles", "500"]),
    ("ltb3", "ou-attract", "ltb3", ["--particles", "500"]),
    # the cubic basis cannot hold sine-weak's value surface
    ("ltb2-sine", "sine-weak", "ltb2", ["--particles", "500"]),
    ("ltb3-sine", "sine-weak", "ltb3", ["--particles", "500"]),
    ("control", "control-lq", "control",
     ["--particles", "500", "--set", "t_grid=1 2"]),
]

SKIPPED = {"manifest", "report.report"}


def _run_all(out: Path) -> list[str]:
    scenarios = out / "scenarios"
    scenarios.mkdir(parents=True, exist_ok=True)
    for preset in {preset for _, preset, _, _ in RUNS}:
        (scenarios / f"{preset}.scn").write_text(
            f"[model]\npreset = {preset}\n")
    codes = []
    for seed in SEEDS:
        for name, preset, sub, extra in RUNS:
            argv = [sub, "--scenario", str(scenarios / f"{preset}.scn"),
                    "--out", str(out / str(seed) / name),
                    "--seed", str(seed), *extra]
            codes.append(f"exit {run(argv)}  {seed}/{name}")
        codes.append("exit {}  {}/report".format(run(
            ["report", "--run-dir", str(out / str(seed) / "control"),
             "--out", str(out / str(seed) / "report")]), seed))
    return codes


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 1
    out = Path(argv[0]).resolve()
    codes = _run_all(out)
    digests = []
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        rel = path.relative_to(out)
        if path.name in SKIPPED or rel.parts[0] == "scenarios":
            continue
        digests.append(
            f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {rel}")
    print("\n".join(codes + digests))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
