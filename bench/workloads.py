"""The benchmark's workloads: inputs from a seed, the call, and its check.

Each workload is a ``setup(seed, workdir)`` that imports ergolab and
builds the inputs, a ``run(inputs)`` that makes the one call being timed,
and a ``check(inputs, output)`` that holds the result against the closed
forms in ``tests/oracle_reference.py`` at the tolerance of the matching
tier-1 assertion. ``check`` returns (failed check names, accuracy
figures, digest of the checked outputs).
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part).tobytes() if isinstance(
            part, np.ndarray) else repr(part).encode())
    return h.hexdigest()


# -- ergodic-ou: the vanishing-discount ladder through the public API ------

def _ou_setup(seed, workdir):
    from ergolab import model
    return {"spec": model.preset("ou-attract"), "seed": seed}


def _ergodic_run(inputs):
    from ergolab import ebsde
    return ebsde.extract_ergodic(inputs["spec"], n_particles=3000, dt=0.02,
                                 seed=inputs["seed"])


def _ergodic_check(inputs, erg):
    import oracle_reference as oracle
    err = abs(erg.lambda_ - oracle.LAMBDA_QUADRATIC)
    failed = []
    if not erg.stable:
        failed.append("ergodic-ou.stable")
    if not err <= 0.05:
        failed.append("ergodic-ou.lambda_tolerance")
    digest = _digest(erg.lambda_, erg.fit_rmse, erg.stable,
                     erg.mu_star.points, erg.u_bar.coeffs, erg.zeta_bar.coeffs,
                     [a.lambda_candidate for a in erg.trace])
    return failed, {"check.lambda_err": err}, digest


# -- timeavg-ou: forward interacting stepping only -------------------------

def _timeavg_run(inputs):
    from ergolab import ebsde
    return ebsde.lambda_by_time_average(inputs["spec"], t_long=300.0, dt=0.02,
                                        n_particles=20_000, seed=inputs["seed"])


def _timeavg_check(inputs, est):
    import oracle_reference as oracle
    err = abs(est.value - oracle.LAMBDA_QUADRATIC)
    failed = [] if err <= 0.02 else ["timeavg-ou.lambda_tolerance"]
    return failed, {"check.lambda_err": err}, _digest(est.value, est.se)


# -- CLI workloads: a scenario file, one subcommand, its manifest ----------

def _cli_setup(subcommand, scenario_text):
    def setup(seed, workdir):
        from ergolab import cli, model
        path = Path(workdir) / f"{subcommand}.scn"
        path.write_text(scenario_text.format(seed=seed))
        model.load_scenario(path)
        out = Path(workdir) / f"{subcommand}-out"
        return {"argv": [subcommand, "--scenario", str(path), "--out", str(out)],
                "out": out, "name": subcommand, "cli": cli}
    return setup


def _cli_run(inputs):
    return inputs["cli"].run(inputs["argv"])


def _read_kv(path: Path) -> dict:
    pairs = (line.rstrip("\n").partition("=")
             for line in path.read_text().splitlines())
    return {k: v for k, eq, v in pairs if eq}


def _cli_check(label, accuracy):
    """Exit code 0, ``passed=1`` in the report, every manifest output on
    disk. The digest covers every output but the manifest, which carries
    the run's wall time."""

    def check(inputs, code):
        out = inputs["out"]
        failed = [] if code == 0 else [f"{label}.exit_{code}"]
        report = out / f"{inputs['name']}.report"
        values = _read_kv(report) if report.exists() else {}
        if values.get("passed") != "1":
            failed.append(f"{label}.passed")
        manifest = out / "manifest"
        outputs = ([v for k, v in _read_kv(manifest).items()
                    if k.startswith("output.")] if manifest.exists() else [])
        if not outputs or any(not (out / name).exists() for name in outputs):
            failed.append(f"{label}.manifest_outputs")
        data = sorted(name for name in outputs if name != "manifest")
        digest = _digest(*[(name, (out / name).read_bytes())
                           for name in data if (out / name).exists()])
        return failed, accuracy(values), digest

    return check


def _ltb1_accuracy(values):
    # |Y0/T - lambda| = 0.25 (1 - exp(-2T)) / T on this example, so c -> 0.25
    import oracle_reference as oracle
    c = float(values.get("c", "nan"))
    return {"check.ltb1_c_err": abs(c - oracle.ltb1_residual(20.0) * 20.0)}


def _coupling_accuracy(values):
    return {"check.coupling_rate": float(values.get("rate", "nan"))}


LTB1_SCENARIO = """\
[model]
preset = ou-attract

[run]
seed = {seed}
"""

COUPLING_SCENARIO = """\
[model]
preset = sine-weak

[run]
seed = {seed}
paths = 16000
"""

WORKLOADS = {
    "ergodic-ou": (_ou_setup, _ergodic_run, _ergodic_check),
    "timeavg-ou": (_ou_setup, _timeavg_run, _timeavg_check),
    "ltb1-cli": (_cli_setup("ltb1", LTB1_SCENARIO), _cli_run,
                 _cli_check("ltb1-cli", _ltb1_accuracy)),
    "coupling-sine": (_cli_setup("coupling", COUPLING_SCENARIO), _cli_run,
                      _cli_check("coupling-sine", _coupling_accuracy)),
}
