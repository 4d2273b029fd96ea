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

# scenarios that are not a preset, by name; any other name is a preset
SCENARIOS = {
    # a diffusion that reads x: the one-step moments are formed per point
    "sigma-x": "[model]\ndim = 1\nregime = strong\ndrift = -x\n"
               "diffusion = 1 + 0.2*tanh(x)\ndriver = x**2\nterminal = x**2\n",
    # a drift that reads the law's second moment: the flow keeps m2 and
    # the mean at every node, and nothing else
    "law-m2": "[model]\ndim = 1\nregime = strong\n"
              "drift = -x + 0.2*m1 - 0.05*m2\ndiffusion = 1\n"
              "driver = x**2\nterminal = x**2\n",
    # a control model read from [model.control]: its running cost is not
    # declared quadratic in the action, so the Hamiltonian is minimised by
    # golden-section search
    "control-scn": "[model]\ndim = 1\nregime = strong\n"
                   "drift = -x - 0.5*m1\ndiffusion = 1\n"
                   "driver = x**2 - 0.25*z**2\nterminal = x**2\n"
                   "[model.control]\nrunning_cost = x**2 + a**2\n",
}

# (run name, scenario, subcommand, extra arguments)
RUNS = [
    ("audit-ou", "ou-attract", "audit", ["--particles", "500"]),
    ("audit-sine", "sine-weak", "audit", ["--particles", "500"]),
    ("simulate", "ou-attract", "simulate", ["--particles", "300"]),
    ("simulate-x0p", "ou-attract", "simulate",
     ["--particles", "300", "--set", "x0_prime=1.0"]),
    # the Euler step hands the drift m2 and the mean of the live cloud
    ("simulate-law-m2", "law-m2", "simulate", ["--particles", "300"]),
    ("simulate-x0p-law-m2", "law-m2", "simulate",
     ["--particles", "300", "--set", "x0_prime=1.0"]),
    ("invariant", "ou-attract", "invariant", ["--particles", "300"]),
    # the drift reads E[tanh X] at every step of the burn-in
    ("invariant-sine", "sine-weak", "invariant", ["--particles", "300"]),
    ("coupling-sine", "sine-weak", "coupling",
     ["--particles", "300", "--set", "paths=200", "--horizon", "3"]),
    # both legs start inside the mollifier band (delta / 2, delta)
    ("coupling-band", "sine-weak", "coupling",
     ["--particles", "300", "--set", "gap=0.045", "--set", "paths=200",
      "--horizon", "3"]),
    # no ball, so the band width comes from the step: delta = 2 sigma0 sqrt(dt)
    ("coupling-ou", "ou-attract", "coupling",
     ["--particles", "300", "--set", "paths=200", "--horizon", "3"]),
    ("coupling-law-m2", "law-m2", "coupling",
     ["--particles", "500", "--set", "paths=200", "--horizon", "3"]),
    ("bsde", "ou-attract", "bsde", ["--particles", "500"]),
    ("bsde-sine", "sine-weak", "bsde", ["--particles", "500"]),
    ("bsde-sigma-x", "sigma-x", "bsde", ["--particles", "500"]),
    ("bsde-law-m2", "law-m2", "bsde", ["--particles", "500"]),
    ("ebsde", "ou-attract", "ebsde", ["--particles", "500"]),
    ("ebsde-sine", "sine-weak", "ebsde", ["--particles", "500"]),
    # a two-rung ladder read from a list-valued run key
    ("ebsde-alphas", "ou-attract", "ebsde",
     ["--particles", "500", "--set", "alphas=0.4 0.1"]),
    # the time average reads the ladder's zeta_bar at every step
    ("ebsde-tavg", "ou-attract", "ebsde",
     ["--particles", "500", "--set", "t_long=40"]),
    ("ebsde-tavg-law-m2", "law-m2", "ebsde",
     ["--particles", "500", "--set", "t_long=40"]),
    ("ltb1", "ou-attract", "ltb1", ["--particles", "500"]),
    # lambda read where the driver reads z, and from a basis that cannot
    # hold the value surface
    ("ltb1-lq", "control-lq", "ltb1", ["--particles", "500"]),
    ("ltb1-sine", "sine-weak", "ltb1", ["--particles", "500"]),
    ("ltb1-sigma-x", "sigma-x", "ltb1", ["--particles", "500"]),
    ("ltb1-law-m2", "law-m2", "ltb1", ["--particles", "500"]),
    ("ltb2", "ou-attract", "ltb2", ["--particles", "500"]),
    ("ltb3", "ou-attract", "ltb3", ["--particles", "500"]),
    # the cubic basis cannot hold sine-weak's value surface
    ("ltb2-sine", "sine-weak", "ltb2", ["--particles", "500"]),
    ("ltb3-sine", "sine-weak", "ltb3", ["--particles", "500"]),
    ("control", "control-lq", "control",
     ["--particles", "500", "--set", "t_grid=1 2"]),
    # the long-time comparison on four horizons, with its two noise floors
    ("control-grid", "control-lq", "control",
     ["--particles", "500", "--set", "t_grid=2 4 6 8"]),
    ("control-scn", "control-scn", "control",
     ["--particles", "200", "--horizon", "0.5", "--set", "t_long=5",
      "--set", "n_controls=1"]),
]

SKIPPED = {"manifest", "report.report"}


def _run_all(out: Path) -> list[str]:
    scenarios = out / "scenarios"
    scenarios.mkdir(parents=True, exist_ok=True)
    for scn in {scn for _, scn, _, _ in RUNS}:
        (scenarios / f"{scn}.scn").write_text(
            SCENARIOS.get(scn, f"[model]\npreset = {scn}\n"))
    codes = []
    for seed in SEEDS:
        for name, scn, sub, extra in RUNS:
            argv = [sub, "--scenario", str(scenarios / f"{scn}.scn"),
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
