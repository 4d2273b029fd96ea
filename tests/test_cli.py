"""Exit codes, scenario diagnostics, manifests, and rerun determinism."""

import argparse
import filecmp
import math
import subprocess
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from ergolab import cli, sde
from ergolab.cli import RunManifest, rerun_from_manifest, run
from ergolab.coupling import LyapunovConstants, build_lyapunov
from ergolab.model import RUN_DEFAULTS, parse_scenario, preset

OU_SCN = """\
[model]
preset = ou-attract

[run]
particles = 1500
dt = 0.02
"""

LQ_SCN = """\
[model]
preset = control-lq

[run]
particles = 1000
dt = 0.02
horizon = 1.5
t_long = 15
n_controls = 2
"""

SINE_SCN = """\
[model]
preset = sine-weak

[run]
particles = 300
paths = 200
dt = 0.01
horizon = 3
"""

# value field of a [run] key given a second '=': column 13 of line 4
BAD_SCN = """\
[model]
preset = ou-attract
[run]
particles = = 3
"""

EXPANDING_SCN = """\
[model]
dim = 1
regime = strong
drift = x
diffusion = 1
driver = x**2
terminal = x**2

[run]
particles = 400
"""

CUBIC_SCN = """\
[model]
dim = 1
regime = strong
drift = x**3
diffusion = 1
driver = x**2
terminal = x**2

[run]
particles = 50
dt = 0.5
horizon = 10
x0 = 2.0
"""

# a near-step terminal value: no cubic holds it
STEP_SCN = """\
[model]
dim = 1
regime = strong
drift = -x
diffusion = 1
driver = x**2
terminal = 10 * tanh(20 * x)

[run]
particles = 1500
dt = 0.02
"""

# a drift that reads t: value field at column 9 of line 4
TIME_SCN = """\
[model]
dim = 1
regime = strong
drift = -x + 0.5 * sin(t)
diffusion = 1
driver = x**2
terminal = x**2

[run]
particles = 50
dt = 0.05
horizon = 0.5
"""

# a diffusion that reads x: the one-step moments are formed per particle
SIGMA_X_SCN = """\
[model]
dim = 1
regime = strong
drift = -x
diffusion = 1 + 0.2*tanh(x)
driver = x**2
terminal = x**2
"""


@pytest.fixture(scope="module")
def scn_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("scenarios")
    for name, text in (("ou.scn", OU_SCN), ("lq.scn", LQ_SCN),
                       ("bad.scn", BAD_SCN), ("expand.scn", EXPANDING_SCN),
                       ("cubic.scn", CUBIC_SCN), ("step.scn", STEP_SCN),
                       ("sine.scn", SINE_SCN), ("time.scn", TIME_SCN),
                       ("sigma_x.scn", SIGMA_X_SCN)):
        (d / name).write_text(text)
    return d


def test_usage_errors_exit_one(scn_dir, tmp_path, capsys):
    assert run([]) == 1
    assert run(["unknown-subcommand"]) == 1
    assert run(["bsde"]) == 1  # scenario is required
    assert run(["bsde", "--scenario", str(tmp_path / "missing.scn")]) == 1
    assert run(["ltb1", "--scenario", str(scn_dir / "ou.scn"),
                "--set", "bogus=1", "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "bogus" in err
    # a flag that the subcommand does not take is refused, not ignored
    assert run(["ltb2", "--scenario", str(scn_dir / "ou.scn"),
                "--horizon", "5", "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "--horizon" in err and "ltb2" in err
    # ltb1 reads lambda from the ergodic fixed point, not a time average
    assert run(["ltb1", "--scenario", str(scn_dir / "ou.scn"),
                "--set", "t_long=100", "--out", str(tmp_path / "o")]) == 1
    assert "'t_long'" in capsys.readouterr().err


@pytest.mark.parametrize("sub,key,value", [
    ("simulate", "dt", "abc"), ("bsde", "degree", "abc"),
    ("bsde", "degree", "4.5"), ("simulate", "particles", "2.7"),
    ("invariant", "t_burn", "abc")])
def test_run_value_of_the_wrong_type_exits_one(scn_dir, tmp_path, capsys,
                                               sub, key, value):
    assert run([sub, "--scenario", str(scn_dir / "ou.scn"),
                "--set", f"{key}={value}", "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ergolab:") and f"{key!r}" in err
    # the same value in a [run] section is refused at its line:col
    path = tmp_path / "typed.scn"
    path.write_text(f"[model]\npreset = ou-attract\n[run]\n{key} = {value}\n")
    assert run([sub, "--scenario", str(path),
                "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert f"ergolab: {path}:4:{len(key) + 4}:" in err and f"{key!r}" in err


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert run(["bsde", "--help"]) == 0
    capsys.readouterr()


def test_malformed_scenario_line_column_diagnostic(scn_dir, tmp_path, capsys):
    path = scn_dir / "bad.scn"
    code = run(["bsde", "--scenario", str(path),
                "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{path}:4:13:" in err
    assert "particles" in err


def test_drift_that_reads_t_is_refused_where_time_is_frozen(scn_dir, tmp_path,
                                                            capsys):
    # the ergodic triple reads the drift at t = 0 (ltb1 takes its lambda
    # from it) and one backward sweep serves every horizon of a constant
    # flow
    path = scn_dir / "time.scn"
    for sub in ("ebsde", "ltb1", "ltb2", "ltb3", "control"):
        assert run([sub, "--scenario", str(path),
                    "--out", str(tmp_path / sub)]) == 1
        err = capsys.readouterr().err
        assert f"{path}:4:9: drift reads t" in err and sub in err
    assert run(["simulate", "--scenario", str(path),
                "--out", str(tmp_path / "simulate")]) == 0


def test_basis_degree_below_growth_exits_one(scn_dir, tmp_path, capsys):
    # every route refuses a basis that cannot hold q + 1 = 2
    for sub in ("bsde", "ebsde"):
        assert run([sub, "--scenario", str(scn_dir / "ou.scn"),
                    "--set", "degree=1", "--particles", "500",
                    "--out", str(tmp_path / sub)]) == 1
        assert "basis degree 1" in capsys.readouterr().err


def test_failed_audit_exits_two(scn_dir, tmp_path):
    # drift = x is expanding, so the dissipativity check must fail (the
    # run itself completes and writes its report)
    out = tmp_path / "o"
    code = run(["audit", "--scenario", str(scn_dir / "expand.scn"),
                "--out", str(out)])
    assert code == 2
    report = (out / "audit.report").read_text()
    assert "passed=0" in report


def test_numeric_blowup_exits_three(scn_dir, tmp_path, capsys):
    code = run(["simulate", "--scenario", str(scn_dir / "cubic.scn"),
                "--out", str(tmp_path / "o")])
    assert code == 3
    assert "numeric blow-up" in capsys.readouterr().err


def test_audit_outputs_and_manifest(scn_dir, tmp_path):
    out = tmp_path / "o"
    code = run(["audit", "--scenario", str(scn_dir / "ou.scn"),
                "--out", str(out), "--seed", "7"])
    assert code == 0
    for name in ("audit_checks.csv", "audit.report", "manifest"):
        assert (out / name).exists()
    manifest = RunManifest.read(out / "manifest")
    assert manifest.subcommand == "audit"
    assert manifest.seed == 7
    assert set(manifest.outputs) >= {"audit_checks.csv", "audit.report",
                                     "manifest"}
    assert manifest.wall_seconds >= 0.0


def test_scenario_key_for_another_subcommand_is_noted(scn_dir, tmp_path,
                                                      capsys):
    # ou.scn sets dt for the subcommands that step; audit does not, and
    # runs as if the key were absent
    out = tmp_path / "o"
    assert run(["audit", "--scenario", str(scn_dir / "ou.scn"),
                "--out", str(out)]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "ergolab: note: [run] key 'dt' does not apply to audit; ignored"]
    assert "param.dt" not in (out / "manifest").read_text()


def test_write_csv_comment_header_and_exact_floats(tmp_path):
    values = np.array([0.1, 1.0 / 3.0, -0.0, math.nan, math.inf, -math.inf,
                       5e-324, 1.7976931348623157e308, -2.5e-300])
    path = tmp_path / "with.csv"
    cli._write_csv(path, {"k": np.arange(values.size), "v": values},
                   comment="a=1 b=2")
    lines = path.read_text().splitlines()
    assert lines[:2] == ["# a=1 b=2", "k,v"]
    rows = [line.split(",") for line in lines[2:]]
    assert [k for k, _ in rows] == [str(i) for i in range(values.size)]
    back = np.array([float(v) for _, v in rows])
    np.testing.assert_array_equal(back.view(np.uint64), values.view(np.uint64))
    plain = tmp_path / "plain.csv"
    cli._write_csv(plain, {"x": [2.5]})
    assert plain.read_text() == "x\n2.5\n"


def test_audit_writes_the_lyapunov_table(scn_dir, tmp_path):
    out = tmp_path / "o"
    assert run(["audit", "--scenario", str(scn_dir / "sine.scn"),
                "--out", str(out)]) == 0
    lines = (out / "audit_lyapunov.csv").read_text().splitlines()
    assert lines[0].startswith("# eta=0.5 ")
    assert lines[1] == "r,phi,dphi,d2phi"
    constants = LyapunovConstants.from_spec(preset("sine-weak"))
    table = build_lyapunov(constants, r_max=max(4.0 * constants.r_ball, 8.0),
                           grid=RUN_DEFAULTS["audit"]["grid_nodes"])
    want = np.column_stack([table.r, table.phi, table.dphi,
                            table.d2phi]).astype(float)
    np.testing.assert_array_equal(np.loadtxt(lines[2:], delimiter=","), want)


def test_manifest_width_does_not_depend_on_wall_time(tmp_path):
    sizes = set()
    for wall in (9.999999, 10.0, 123.4):
        path = tmp_path / f"manifest-{wall}"
        RunManifest(subcommand="audit", scenario="ou.scn", seed=42,
                    outdir="out", version="1.0", params={"dt": 0.01},
                    outputs=["audit.report", "manifest"],
                    wall_seconds=wall).write(path)
        sizes.add(path.stat().st_size)
        assert RunManifest.read(path).wall_seconds == wall
    assert len(sizes) == 1


@pytest.mark.parametrize("subcommand", cli.SUBCOMMANDS)
def test_every_set_key_is_accepted_in_the_run_section(subcommand):
    for key in [*RUN_DEFAULTS[subcommand], "seed", "threads"]:
        scn = parse_scenario(f"[model]\npreset = ou-attract\n[run]\n"
                             f"{key} = 1\n", source="run-keys.scn")
        params = cli._resolve(scn, argparse.Namespace(set=None),
                              dict(RUN_DEFAULTS[subcommand]))
        assert params[key] == 1, key


def test_simulate_with_x0_prime_steps_each_system_once(scn_dir, tmp_path,
                                                     monkeypatch):
    drawn = Counter()
    draw = sde.gaussian_increments

    def counted(seed, step, *args, **kwargs):
        drawn[seed, step] += 1
        return draw(seed, step, *args, **kwargs)

    monkeypatch.setattr(sde, "gaussian_increments", counted)
    code = run(["simulate", "--scenario", str(scn_dir / "ou.scn"),
                "--out", str(tmp_path / "sim"), "--particles", "200",
                "--horizon", "0.5", "--set", "x0_prime=2.0"])
    assert code == 0
    # one block per step, shared by the two coupled systems; the moments
    # come from the first system's states as it steps, not from a third run
    assert drawn == Counter({(42, k): 1 for k in range(25)})
    moments = (tmp_path / "sim" / "simulate_moments.csv").read_text()
    assert len(moments.splitlines()) == 1 + 3 + 1  # header, every 10th, end


@pytest.mark.parametrize("coupled", [[], ["--set", "x0_prime=1.0"]],
                         ids=["plain", "x0_prime"])
def test_simulate_memory_does_not_grow_with_the_horizon(scn_dir, tmp_path,
                                                        coupled):
    # the moments are taken node by node and only the terminal cloud is
    # kept, so a run four times longer peaks at about the same memory; a
    # record of every node would add 9.6 MB here
    n, dt = 2000, 0.01
    peaks = []
    for horizon in (2.0, 8.0):
        tracemalloc.start()
        try:
            assert run(["simulate", "--scenario", str(scn_dir / "ou.scn"),
                        "--out", str(tmp_path / str(horizon)),
                        "--particles", str(n), "--horizon", str(horizon),
                        "--set", f"dt={dt}", "--set", "flow_every=1",
                        *coupled]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    record_growth = round((8.0 - 2.0) / dt) * n * 8
    assert peaks[1] - peaks[0] < record_growth / 20


def test_bsde_rerun_is_byte_identical(scn_dir, tmp_path):
    first = tmp_path / "first"
    again = tmp_path / "again"
    code = run(["bsde", "--scenario", str(scn_dir / "ou.scn"),
                "--out", str(first), "--particles", "1500"])
    assert code == 0
    assert rerun_from_manifest(first / "manifest", again) == 0
    for name in ("bsde_surface.csv", "bsde_residuals.csv", "bsde.report"):
        assert filecmp.cmp(first / name, again / name, shallow=False), name


def test_bsde_with_a_diffusion_that_reads_x(scn_dir, tmp_path):
    # y0 as the Gauss-Hermite rule gives it on the N * G next states; the
    # shift moments at the N conditional means agree to round-off
    out = tmp_path / "o"
    assert run(["bsde", "--scenario", str(scn_dir / "sigma_x.scn"),
                "--out", str(out), "--particles", "500", "--seed", "42"]) == 0
    rep = dict(line.split("=", 1) for line in
               (out / "bsde.report").read_text().splitlines())
    assert float(rep["y0"]) == pytest.approx(0.72157342084133336, rel=1e-9)


def test_bsde_fails_when_the_basis_cannot_hold_the_terminal(scn_dir,
                                                           tmp_path):
    out = tmp_path / "o"
    assert run(["bsde", "--scenario", str(scn_dir / "step.scn"),
                "--out", str(out)]) == 2
    rep = dict(line.split("=", 1) for line in
               (out / "bsde.report").read_text().splitlines())
    assert float(rep["residual_sum"]) > 0.5 * (1.0 + abs(float(rep["y0"])))
    assert rep["passed"] == "0"


def test_coupling_rerun_is_byte_identical(scn_dir, tmp_path):
    first = tmp_path / "first"
    again = tmp_path / "again"
    code = run(["coupling", "--scenario", str(scn_dir / "sine.scn"),
                "--out", str(first)])
    assert code == 0
    assert "passed=1" in (first / "coupling.report").read_text()
    manifest = RunManifest.read(first / "manifest")
    assert set(manifest.outputs) >= {"coupling_radius.csv",
                                     "coupling.report", "manifest"}
    for name in manifest.outputs:
        assert (first / name).exists(), name
    assert rerun_from_manifest(first / "manifest", again) == 0
    for name in ("coupling_radius.csv", "coupling.report"):
        assert filecmp.cmp(first / name, again / name, shallow=False), name


def test_thread_count_does_not_change_results(scn_dir, tmp_path):
    outs = []
    for threads in ("3", "1"):
        out = tmp_path / f"t{threads}"
        code = run(["control", "--scenario", str(scn_dir / "lq.scn"),
                    "--out", str(out), "--threads", threads])
        assert code == 0
        outs.append(out)
    assert filecmp.cmp(outs[0] / "control_costs.csv",
                       outs[1] / "control_costs.csv", shallow=False)


def test_control_requires_control_set(scn_dir, tmp_path, capsys):
    code = run(["control", "--scenario", str(scn_dir / "ou.scn"),
                "--out", str(tmp_path / "o")])
    assert code == 1
    assert "declares no control set" in capsys.readouterr().err


def test_out_env_var_supplies_output_dir(scn_dir, tmp_path, monkeypatch):
    out = tmp_path / "from-env"
    monkeypatch.setenv("ERGOLAB_OUT", str(out))
    code = run(["audit", "--scenario", str(scn_dir / "ou.scn")])
    assert code == 0
    assert (out / "audit.report").exists()


def test_report_aggregates_run_dir(scn_dir, tmp_path):
    src = tmp_path / "src"
    assert run(["invariant", "--scenario", str(scn_dir / "ou.scn"),
                "--out", str(src)]) == 0
    out = tmp_path / "rep"
    assert run(["report", "--run-dir", str(src), "--out", str(out)]) == 0
    assert (out / "summary.csv").exists()
    assert (out / "report.report").exists()


def test_module_entry_point(scn_dir, tmp_path, subprocess_env):
    r = subprocess.run(
        [sys.executable, "-m", "ergolab.cli", "audit",
         "--scenario", str(scn_dir / "ou.scn"),
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=subprocess_env)
    assert r.returncode == 0, r.stderr
