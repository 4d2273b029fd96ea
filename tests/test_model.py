"""Model presets, the assumption audit, and scenario-file parsing."""

import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

from ergolab import cli, measure, model
from ergolab.measure import EmpiricalMeasure
from ergolab.model import (PRESET_NAMES, Constants, ProblemSpec, ScenarioError,
                           audit, load_scenario, parse_scenario, preset)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_every_preset_audits_clean(name):
    report = audit(preset(name), n_samples=1000, seed=0)
    assert report.passed, {k: v.verdict for k, v in report.checks.items()}
    for check in report.checks.values():
        assert check.verdict in ("pass", "fail", "indeterminate")
        if check.verdict == "pass":
            assert check.witnesses == ()


def test_audit_is_deterministic(ou_spec):
    a = audit(ou_spec, n_samples=500, seed=11)
    b = audit(ou_spec, n_samples=500, seed=11)
    assert set(a.checks) == set(b.checks)
    for name in a.checks:
        assert a.checks[name].worst == b.checks[name].worst
        assert a.checks[name].verdict == b.checks[name].verdict


def test_ou_dissipativity_quotients(ou_spec, repel_spec):
    a = audit(ou_spec, n_samples=1000, seed=0)
    assert a.checks["pointwise_dissipativity"].worst <= -1.0 + 1e-9
    assert a.checks["law_dissipativity"].worst <= -1.0 + 1e-9
    assert a.lam == pytest.approx(1.0)
    r = audit(repel_spec, n_samples=1000, seed=0)
    assert r.checks["law_dissipativity"].worst <= -0.5 + 1e-9
    assert r.lam == pytest.approx(0.5)


def test_sine_weak_outside_ball_rate(sine_spec):
    report = audit(sine_spec, n_samples=2000, seed=1)
    assert report.regime == "weak"
    out = report.checks["weak_dissipativity"]
    assert out.verdict == "pass"
    assert out.worst <= -0.5 + 1e-9
    assert report.weak_rate_candidate == pytest.approx(0.5)
    assert report.weak_c_bound is not None and report.weak_c_bound > 0.0
    assert report.checks["distribution_free_diffusion"].verdict == "pass"


def test_overclaimed_rate_fails_with_witness(ou_spec):
    greedy = ou_spec.replace(
        constants=dataclasses.replace(ou_spec.constants, nu=3.0))
    report = audit(greedy, n_samples=1000, seed=0)
    bad = report.checks["law_dissipativity"]
    assert not report.passed
    assert bad.verdict == "fail"
    assert len(bad.witnesses) >= 1


def test_contraction_rate_bounds():
    assert preset("ou-attract").contraction_rate_bound() == pytest.approx(1.0)
    assert preset("ou-repel").contraction_rate_bound() == pytest.approx(0.5)
    assert preset("sine-weak").contraction_rate_bound() == pytest.approx(0.5)
    assert preset("control-lq").contraction_rate_bound() == pytest.approx(1.0)


def test_spec_validation_rules():
    with pytest.raises(ValueError, match="nope"):
        preset("nope")
    base = preset("ou-attract")
    with pytest.raises(ValueError, match="strong regime"):
        base.replace(constants=dataclasses.replace(
            base.constants, nu=0.1, k_s_x=0.2))
    with pytest.raises(ValueError, match="distribution-free"):
        ProblemSpec(
            dim=1,
            drift=lambda t, x, mu: -x,
            diffusion=lambda x, mu: np.array([[1.0 + mu.m1()]]),
            driver=lambda x, mu, z: np.zeros(x.shape[0]),
            terminal=lambda x, mu: np.zeros(x.shape[0]),
            constants=Constants(nu=0.0, eta=0.5, k_b_x=1.0, k_b_l=0.0,
                                k_s_x=0.0, k_s_l=0.0, sigma0=1.0,
                                r_ball=2.0, q=2.0, eps=1.0),
            regime="weak")


def test_control_spec_surface(lq_spec):
    ctrl = lq_spec.control
    assert ctrl is not None
    assert ctrl.action_sup_norm() == pytest.approx(1.0)
    assert ctrl.quadratic_action
    # driver at z = 0 reduces to the running cost of the zero action
    x = np.array([[0.5], [2.0]])
    mu = EmpiricalMeasure.dirac(0.0)
    z0 = np.zeros((2, 1))
    np.testing.assert_allclose(lq_spec.driver(x, mu, z0),
                               ctrl.running_cost(x, mu, np.zeros((2, 1))))


def test_scenario_round_trip(tmp_path):
    path = tmp_path / "ou.scn"
    path.write_text("[model]\npreset = ou-attract\n\n[run]\n"
                    "dt = 0.02\nparticles = 500\n")
    scn = load_scenario(path)
    assert scn.spec.name == "ou-attract"
    assert scn.run["dt"] == pytest.approx(0.02)
    assert scn.run["particles"] == 500
    assert scn.run_meta["particles"][0] == 6


def test_symbolic_scenario_matches_preset(ou_spec):
    text = ("[model]\ndim = 1\nregime = strong\n"
            "drift = -x - 0.5*m1\ndiffusion = 1\n"
            "driver = x**2\nterminal = x**2\n\n"
            "[model.constants]\nnu = 1.0\nk_b_l = 0.5\n")
    spec = parse_scenario(text, source="inline").spec
    x = np.linspace(-2.0, 2.0, 7)[:, None]
    mu = EmpiricalMeasure([0.3, -0.1, 1.2])
    np.testing.assert_allclose(spec.drift(0.0, x, mu),
                               ou_spec.drift(0.0, x, mu), atol=1e-12)
    np.testing.assert_allclose(spec.driver(x, mu, np.zeros_like(x)),
                               (x[:, 0]) ** 2, atol=1e-12)
    assert audit(spec, n_samples=500, seed=0).passed


def test_compiled_coefficients_read_only_the_statistics_they_name(
        monkeypatch):
    text = ("[model]\ndim = 1\nregime = strong\n"
            "drift = -x - 0.5*m1\ndiffusion = 1\n"
            "driver = x**2\nterminal = x**2\n")
    spec = parse_scenario(text, source="inline").spec
    # the compiler declares to a flow exactly what the expressions name
    assert spec.law_stats == ("mean",)

    def refused(*args):
        raise AssertionError("m2 read by coefficients that do not name it")

    monkeypatch.setattr(measure, "moment", refused)
    x = np.linspace(-2.0, 2.0, 7)[:, None]
    mu = EmpiricalMeasure([0.3, -0.1, 1.2])
    np.testing.assert_array_equal(spec.drift(0.0, x, mu),
                                  -x - 0.5 * mu.m1())
    spec.diffusion(x, mu), spec.driver(x, mu, x), spec.terminal(x, mu)
    both = parse_scenario(text.replace("0.5*m1", "0.5*m1 - 0.1*m2"),
                          source="inline").spec
    assert both.law_stats == ("mean", "m2")
    assert parse_scenario(text.replace(" - 0.5*m1", ""),
                          source="inline").spec.law_stats == ()


def test_compiler_declares_a_drift_that_reads_t():
    text = ("[model]\ndim = 1\nregime = strong\n"
            "drift = -x + sin(3*t)\ndiffusion = 1\n"
            "driver = x**2\nterminal = x**2\n")
    scn = parse_scenario(text, source="inline")
    assert scn.spec.reads_t
    # where the drift entry sits, for the diagnostics of a caller that
    # refuses it
    assert scn.model_meta["drift"] == (4, 9)
    assert not parse_scenario(text.replace(" + sin(3*t)", ""),
                              source="inline").spec.reads_t
    assert not any(preset(name).reads_t for name in PRESET_NAMES)


@pytest.mark.parametrize("text,fragment", [
    ("[model]\npreset = ou-attract\npreset-extra = 1\n", "unknown model key"),
    ("[run]\ndt = 0.1\n", "missing \\[model\\]"),
    ("[model]\npreset = ou-attract\n[weird]\nx = 1\n", "unknown section"),
    ("[model]\ndim = 2\ndrift = -x\n", "one-dimensional"),
    ("[model]\npreset = ou-attract\n[run]\npicard = 3\n", "unknown run key"),
])
def test_scenario_rejects_malformed(text, fragment):
    with pytest.raises(ScenarioError, match=fragment):
        parse_scenario(text, source="bad.scn")


@pytest.mark.parametrize("entry", ["quadratic_action = true",
                                   "base_cost = x**2"])
def test_control_section_refuses_keys_it_does_not_read(entry, tmp_path):
    path = tmp_path / "ctrl.scn"
    path.write_text("[model]\ndim = 1\nregime = strong\ndrift = -x\n"
                    "diffusion = 1\ndriver = x**2 - 0.25*z**2\n"
                    "terminal = x**2\n[model.control]\n"
                    f"running_cost = x**2 + a**2\n{entry}\n")
    key = entry.split()[0]
    with pytest.raises(ScenarioError,
                       match=f"unknown control key '{key}'") as err:
        load_scenario(path)
    assert err.value.line == 10
    assert cli.run(["control", "--scenario", str(path),
                    "--out", str(tmp_path / "out")]) == 1


def test_scenario_error_carries_position(tmp_path):
    path = tmp_path / "bad.scn"
    path.write_text("[model]\npreset = no-such-model\n")
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    assert err.value.line == 2
    assert str(path) in str(err.value)


IMPORT_PROBE = """\
import json, sys
from pathlib import Path
from ergolab import cli, ebsde, model

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

at_import = set(sys.modules)
before = loaded()
spec = model.preset("ou-attract")
ebsde.extract_ergodic(spec, n_particles=300, dt=0.05, seed=1)
ebsde.lambda_by_time_average(spec, t_long=60.0, dt=0.05, n_particles=300,
                             seed=1)
out = Path(sys.argv[1])
(out / "ou.scn").write_text("[model]\\npreset = ou-attract\\n")
(out / "sine.scn").write_text("[model]\\npreset = sine-weak\\n")
codes = [cli.run(["ltb1", "--scenario", str(out / "ou.scn"), "--out",
                  str(out / "ltb1"), "--particles", "300"]),
         cli.run(["coupling", "--scenario", str(out / "sine.scn"), "--out",
                  str(out / "coupling"), "--particles", "300", "--set",
                  "paths=200", "--horizon", "3"])]
print(json.dumps({"before": before, "after": loaded(), "codes": codes,
                  "new": sorted(set(sys.modules) - at_import)}))
"""


def test_import_loads_no_heavy_scipy(tmp_path, subprocess_env):
    # importing a scipy module maps scipy's OpenBLAS and starts a thread:
    # neither the import nor the paths of the benchmark's four workloads
    # (the ergodic ladder, the time average, ltb1 and coupling) load one.
    # Nor do those paths load any other module, which would be loaded
    # inside the benchmark's timed call (numpy.random costs ~20 ms there)
    script = tmp_path / "probe.py"
    script.write_text(IMPORT_PROBE)
    proc = subprocess.run([sys.executable, str(script), str(tmp_path)],
                          env=subprocess_env, capture_output=True, text=True,
                          timeout=240)
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout.splitlines()[-1])
    assert probe["before"] == []
    assert probe["after"] == []
    assert probe["new"] == []
    assert probe["codes"] == [0, 0]
