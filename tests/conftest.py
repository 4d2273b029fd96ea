"""Shared fixtures.

The expensive objects (ergodic extractions, long time-average runs) are
session-scoped so the module suites and the acceptance gate reuse one
computation. Budgets are deliberately modest; the acceptance tests that
need tighter numbers request their own runs.
"""

import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from ergolab import bsde, ebsde, model


# a scenario drift that reads t: the compiler declares it (``reads_t``)
TIME_DRIFT_SCN = """\
[model]
dim = 1
regime = strong
drift = -x + 2 * sin(3 * t)
diffusion = 1
driver = x**2
terminal = x**2
"""


def record_sweeps(monkeypatch):
    """Log every ``bsde._sweep`` call: ``sweeps`` gets its horizon, as a
    1-tuple, ``clouds`` the cloud it draws, in the order drawn."""
    sweeps, clouds = [], []
    sweep = bsde._sweep

    def counted(spec, flow, n, dt, degree, cloud_at, law=None):
        sweeps.append((round(n * dt, 9),))

        def drawn(mu):
            clouds.append(cloud_at(mu))
            return clouds[-1]

        return sweep(spec, flow, n, dt, degree, drawn, law)

    monkeypatch.setattr(bsde, "_sweep", counted)
    return sweeps, clouds


def trace_surface_gap(erg, points, kind):
    """Disagreement between the two smallest-alpha extraction surfaces.

    The stationary value and gradient carry the regression's own fit
    error; tolerances that compare against them must include this term
    on top of the Monte Carlo floor. On ``erg_ou_ladder`` (seed 42) it
    reads 0.0121 for the value at x = 0 and 1, and 0.0240 for the
    gradient at x = 1.
    """
    lo, hi = sorted(erg.trace, key=lambda a: a.alpha)[:2]
    if kind == "value":
        va = np.asarray(lo.u.eval_node(0, points)) - lo.anchor_value
        vb = np.asarray(hi.u.eval_node(0, points)) - hi.anchor_value
        return float(np.max(np.abs(va - vb)))
    ga = np.asarray(lo.u.gradient(0.0, points))
    gb = np.asarray(hi.u.gradient(0.0, points))
    return float(np.max(np.abs(ga - gb)))


@pytest.fixture
def subprocess_env():
    """The environment for a test that starts Python in a subprocess: the
    package's source directory leads PYTHONPATH, so the child imports
    the same ergolab with or without PYTHONPATH set."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))


@pytest.fixture(scope="session")
def ou_spec():
    return model.preset("ou-attract")


@pytest.fixture(scope="session")
def repel_spec():
    return model.preset("ou-repel")


@pytest.fixture(scope="session")
def sine_spec():
    return model.preset("sine-weak")


@pytest.fixture(scope="session")
def lq_spec():
    return model.preset("control-lq")


@pytest.fixture(scope="session")
def erg_ou(ou_spec):
    # the recentred fixed point, ~0.1 s on 2 cores; reused by the ebsde,
    # ltb and control suites
    return ebsde.extract_ergodic(ou_spec, n_particles=3000, dt=0.02, seed=42)


@pytest.fixture(scope="session")
def erg_lq(lq_spec):
    return ebsde.extract_ergodic(lq_spec, n_particles=3000, dt=0.02, seed=42)


@pytest.fixture(scope="session")
def erg_ou_ladder(ou_spec):
    # the vanishing-discount ladder on the same mu*, ~2 s on 2 cores (all
    # four discounts on the fixed point's one-step operator); for the tests
    # that read the per-discount trace
    return ebsde.extract_ergodic_vanishing(ou_spec, n_particles=3000,
                                           dt=0.02, seed=42)


@pytest.fixture(scope="session")
def erg_lq_ladder(lq_spec):
    return ebsde.extract_ergodic_vanishing(lq_spec, n_particles=3000,
                                           dt=0.02, seed=42)


@pytest.fixture(scope="session")
def lam_ou_dt002(ou_spec):
    # matched-step reference for residual tests run at dt = 0.02
    return ebsde.lambda_by_time_average(
        ou_spec, t_long=300.0, dt=0.02, n_particles=20_000, seed=5)


@pytest.fixture(scope="session")
def lam_ou_dt001(ou_spec):
    return ebsde.lambda_by_time_average(
        ou_spec, t_long=300.0, dt=0.01, n_particles=20_000, seed=5)
