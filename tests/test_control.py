"""Hamiltonian minimisation, policy admissibility, and cost evaluation."""

import dataclasses

import numpy as np
import pytest

import oracle_reference as oracle
from conftest import record_sweeps
from ergolab import cli, control, sde
from ergolab.bsde import solve_finite_bsde
from ergolab.control import (
    AdmissibilityError,
    ControlConfigurationError,
    ControlPolicy,
    Z_SOURCES,
    evaluate_cost_ergodic,
    evaluate_cost_finite,
    girsanov_reweighted_cost,
    hamiltonian,
    ocp_longtime,
)
from ergolab.ltb import ltb2_experiment
from ergolab.measure import EmpiricalMeasure, MeasureFlow


@pytest.fixture(scope="module")
def flow2(erg_lq):
    return MeasureFlow.constant(erg_lq.mu_star, 0.0, 2.0)


@pytest.fixture(scope="module")
def sol_t2(lq_spec, flow2):
    # shared horizon-2 benchmark for the cost-comparison tests
    return solve_finite_bsde(lq_spec, flow2, np.array([1.0]), T=2.0,
                             dt=0.02, n_particles=4000, seed=9)


def test_hamiltonian_worked_examples(lq_spec, erg_lq):
    mu = erg_lq.mu_star
    for (x, z), (want_value, want_a) in oracle.HAMILTONIAN_LQ_TABLE:
        value, astar = hamiltonian(lq_spec, [[x]], mu, [[z]])
        assert abs(value[0] - want_value) <= 1e-10
        assert abs(astar[0, 0] - want_a) <= 1e-10


def test_hamiltonian_matches_oracle_on_grid(lq_spec, erg_lq):
    rng = np.random.default_rng(0)
    x = rng.normal(0.0, 2.0, size=(10_000, 1))
    z = rng.normal(0.0, 3.0, size=(10_000, 1))
    value, astar = hamiltonian(lq_spec, x, erg_lq.mu_star, z)
    want = np.array([oracle.hamiltonian_lq(float(xi), float(zi))
                     for xi, zi in zip(x[:, 0], z[:, 0])])
    np.testing.assert_allclose(value, want[:, 0], atol=1e-12)
    np.testing.assert_allclose(astar[:, 0], want[:, 1], atol=1e-12)


def test_control_free_spec_raises(ou_spec, erg_ou, lq_spec):
    assert issubclass(ControlConfigurationError, ValueError)
    pol = ControlPolicy.zero(lq_spec.control)
    with pytest.raises(ControlConfigurationError, match="declares no control set"):
        hamiltonian(ou_spec, [[0.0]], erg_ou.mu_star, [[0.0]])
    with pytest.raises(ControlConfigurationError, match="declares no control set"):
        evaluate_cost_finite(ou_spec, pol, [0.0], None, T=1.0, dt=0.1,
                             n_particles=10)
    with pytest.raises(ControlConfigurationError, match="declares no control set"):
        girsanov_reweighted_cost(ou_spec, pol, [0.0], None, T=1.0, dt=0.1,
                                 n_particles=10)
    with pytest.raises(ControlConfigurationError, match="declares no control set"):
        evaluate_cost_ergodic(ou_spec, pol, [0.0], erg_ou.mu_star,
                              t_long=1.0, dt=0.1, n_particles=10)
    with pytest.raises(ControlConfigurationError, match="declares no control set"):
        ocp_longtime(ou_spec, erg_ou, ell_hat=0.0)


def test_minimizer_always_in_box(lq_spec, erg_lq):
    control = lq_spec.control
    rng = np.random.default_rng(1)
    z = rng.normal(0.0, 3.0, size=(1_000_000, 1))
    x = np.zeros_like(z)
    _, astar = hamiltonian(lq_spec, x, erg_lq.mu_star, z)
    assert np.all(astar >= control.lo) and np.all(astar <= control.hi)

    # same sweep through the golden-section path
    generic = dataclasses.replace(control, quadratic_action=False)
    spec_g = lq_spec.replace(control=generic)
    zg = rng.normal(0.0, 3.0, size=(2000, 1))
    _, ag = hamiltonian(spec_g, np.zeros_like(zg), erg_lq.mu_star, zg)
    assert np.all(ag >= control.lo) and np.all(ag <= control.hi)


def test_hamiltonian_dominates_every_action(lq_spec, erg_lq):
    control = lq_spec.control
    mu = erg_lq.mu_star
    rng = np.random.default_rng(2)
    x = rng.normal(0.0, 2.0, size=(10_000, 1))
    z = rng.normal(0.0, 3.0, size=(10_000, 1))
    a = rng.uniform(control.lo, control.hi, size=(10_000, 1))
    value, _ = hamiltonian(lq_spec, x, erg_lq.mu_star, z)
    zr = z @ control.r_matrix
    competitor = (np.asarray(control.running_cost(x, mu, a))
                  + np.sum(zr * a, axis=-1))
    assert np.all(value <= competitor + 1e-12)

    # and the minimum over a dense action grid is attained (to grid accuracy)
    grid = np.linspace(control.lo[0], control.hi[0], 2001)
    xs, zs = x[:1000], z[:1000]
    vals, _ = hamiltonian(lq_spec, xs, erg_lq.mu_star, zs)
    sweep = (xs[:, 0, None] ** 2 + grid[None, :] ** 2
             + (zs @ control.r_matrix)[:, 0, None] * grid[None, :])
    np.testing.assert_allclose(vals, sweep.min(axis=1), atol=1e-6)


def test_hamiltonian_lipschitz_in_z(lq_spec, erg_lq):
    # min of affine-in-z functions with slopes Ra: Lipschitz constant
    # sup_box |Ra|, which the box reports directly
    lip = lq_spec.control.action_sup_norm()
    assert lip == pytest.approx(1.0)
    rng = np.random.default_rng(3)
    x = rng.normal(0.0, 2.0, size=(1000, 1))
    z1 = rng.normal(0.0, 3.0, size=(1000, 1))
    z2 = rng.normal(0.0, 3.0, size=(1000, 1))
    v1, _ = hamiltonian(lq_spec, x, erg_lq.mu_star, z1)
    v2, _ = hamiltonian(lq_spec, x, erg_lq.mu_star, z2)
    assert np.all(np.abs(v1 - v2)
                  <= lip * np.abs(z1 - z2)[:, 0] + 1e-9)


def test_golden_section_matches_closed_form(lq_spec, erg_lq):
    generic = dataclasses.replace(lq_spec.control, quadratic_action=False)
    spec_g = lq_spec.replace(control=generic)
    z = np.linspace(-6.0, 6.0, 41)[:, None]  # spans both clamped branches
    x = np.full_like(z, 0.7)
    v_closed, a_closed = hamiltonian(lq_spec, x, erg_lq.mu_star, z)
    v_golden, a_golden = hamiltonian(spec_g, x, erg_lq.mu_star, z)
    np.testing.assert_allclose(a_golden, a_closed, atol=1e-6)
    np.testing.assert_allclose(v_golden, v_closed, atol=1e-8)


def test_policy_validation(lq_spec, erg_lq, sol_t2):
    control = lq_spec.control
    assert issubclass(AdmissibilityError, RuntimeError)
    with pytest.raises(ControlConfigurationError, match="z_source must be one of"):
        ControlPolicy(control=control, z_source="oracle")
    for source in ("finite", "ergodic"):
        with pytest.raises(ControlConfigurationError, match="needs a zeta field"):
            ControlPolicy(control=control, z_source=source)
    with pytest.raises(AdmissibilityError, match="outside the control box"):
        ControlPolicy.constant_action(control, [1.5])
    # the classmethod constructors produce valid members of the catalogue
    for pol in (ControlPolicy.from_finite(control, sol_t2),
                ControlPolicy.from_ergodic(control, erg_lq),
                ControlPolicy.constant_action(control, [0.25]),
                ControlPolicy.zero(control)):
        assert pol.z_source in Z_SOURCES


def test_policy_constant_and_zero_actions(lq_spec, erg_lq):
    control = lq_spec.control
    mu = erg_lq.mu_star
    x = np.array([[0.0], [1.0], [-2.0]])
    np.testing.assert_array_equal(
        ControlPolicy.zero(control).actions(0.0, x, mu), np.zeros((3, 1)))
    np.testing.assert_array_equal(
        ControlPolicy.constant_action(control, [0.25]).actions(0.0, x, mu),
        np.full((3, 1), 0.25))


def test_optimal_policy_cost_matches_y0(lq_spec, erg_lq, flow2, sol_t2):
    pol = ControlPolicy.from_finite(lq_spec.control, sol_t2)
    rep = evaluate_cost_finite(lq_spec, pol, [1.0], flow2, T=2.0, dt=0.02,
                               n_particles=4000, seed=10, benchmark=sol_t2)
    assert rep.kind == "finite"
    assert rep.verdict == "consistent"
    assert abs(rep.gap) <= 3.0 * rep.se
    assert rep.se > 0.0
    assert rep.seed == 10 and rep.n_particles == 4000
    assert set(rep.report()) >= {"kind", "j", "se", "benchmark", "gap",
                                 "verdict", "z_source"}


def test_zero_policy_costs_more(lq_spec, flow2, sol_t2):
    pol = ControlPolicy.zero(lq_spec.control)
    rep = evaluate_cost_finite(lq_spec, pol, [1.0], flow2, T=2.0, dt=0.02,
                               n_particles=4000, seed=10, benchmark=sol_t2)
    assert rep.verdict == "above"
    assert rep.gap > 0.1


def test_random_policies_never_beat_y0(lq_spec, flow2, sol_t2):
    control = lq_spec.control
    rng = np.random.default_rng(5)
    for k in range(10):
        a = rng.uniform(control.lo, control.hi)
        pol = ControlPolicy.constant_action(control, a)
        rep = evaluate_cost_finite(lq_spec, pol, [1.0], flow2, T=2.0,
                                   dt=0.02, n_particles=2000, seed=k,
                                   benchmark=sol_t2)
        assert rep.j >= rep.benchmark - 3.0 * (rep.se + rep.benchmark_se)


def test_ergodic_feedback_cost_matches_lambda(lq_spec, erg_lq_ladder):
    erg_lq = erg_lq_ladder
    pol = ControlPolicy.from_ergodic(lq_spec.control, erg_lq)
    # the extracted lambda carries its own bias, so judge against the
    # spread of the per-alpha candidates rather than the Monte Carlo se alone
    lam_se = float(np.std([a.lambda_candidate for a in erg_lq.trace][-2:]))
    rep = evaluate_cost_ergodic(lq_spec, pol, [1.0], erg_lq.mu_star,
                                t_long=40.0, dt=0.02, n_particles=2000,
                                seed=3, lam=erg_lq.lambda_, lam_se=lam_se)
    assert rep.kind == "ergodic"
    assert rep.benchmark == pytest.approx(erg_lq.lambda_)
    assert abs(rep.gap) <= 0.05
    assert rep.verdict == "consistent"


def test_random_actions_cost_at_least_lambda(lq_spec, erg_lq):
    control = lq_spec.control
    rng = np.random.default_rng(6)
    for k in range(10):
        a = rng.uniform(control.lo, control.hi)
        pol = ControlPolicy.constant_action(control, a)
        rep = evaluate_cost_ergodic(lq_spec, pol, [1.0], erg_lq.mu_star,
                                    t_long=20.0, dt=0.02, n_particles=600,
                                    seed=k, lam=erg_lq.lambda_)
        assert rep.j >= erg_lq.lambda_ - 0.05


def test_ergodic_cost_exact_for_state_free_running_cost(lq_spec, erg_lq):
    # a running cost with no state or noise dependence makes every tail
    # sample identical, so the average is exact and the batch se is zero
    flat = dataclasses.replace(
        lq_spec.control, quadratic_action=False,
        running_cost=lambda x, mu, a: 1.7 + np.sum(a * a, axis=-1)
        + 0.0 * x[..., 0])
    spec_flat = lq_spec.replace(control=flat)
    pol = ControlPolicy.constant_action(flat, [0.3])
    rep = evaluate_cost_ergodic(spec_flat, pol, [0.0], erg_lq.mu_star,
                                t_long=2.0, dt=0.1, n_particles=50, seed=0,
                                lam=1.7 + 0.3 * 0.3, lam_se=1e-13)
    assert rep.j == pytest.approx(1.79, abs=1e-12)
    assert rep.se == pytest.approx(0.0, abs=1e-12)
    assert abs(rep.gap) <= 1e-14
    assert rep.verdict == "consistent"


def test_girsanov_matches_direct_simulation(lq_spec, erg_lq):
    flow1 = MeasureFlow.constant(erg_lq.mu_star, 0.0, 1.0)
    pol = ControlPolicy.constant_action(lq_spec.control, [0.15])
    direct = evaluate_cost_finite(lq_spec, pol, [0.0], flow1, T=1.0,
                                  dt=0.02, n_particles=20_000, seed=4,
                                  benchmark=0.0)
    rw = girsanov_reweighted_cost(lq_spec, pol, [0.0], flow1, T=1.0,
                                  dt=0.02, n_particles=20_000, seed=4,
                                  benchmark=direct.j,
                                  benchmark_se=direct.se)
    assert abs(rw.j - direct.j) <= 3.0 * (rw.se + direct.se)
    assert rw.verdict == "consistent"


def test_girsanov_draws_each_block_once(lq_spec, monkeypatch):
    flow = MeasureFlow.constant(EmpiricalMeasure.dirac(0.0), 0.0, 1.0)
    pol = ControlPolicy.constant_action(lq_spec.control, [0.15])
    drawn = []
    real = sde.gaussian_increments

    def counted(seed, step, *args, **kwargs):
        drawn.append((seed, step))
        return real(seed, step, *args, **kwargs)

    monkeypatch.setattr(sde, "gaussian_increments", counted)
    monkeypatch.setattr(control, "gaussian_increments", counted,
                        raising=False)
    girsanov_reweighted_cost(lq_spec, pol, [0.0], flow, T=1.0, dt=0.02,
                             n_particles=200, seed=4)
    # the density reads the increments the Euler steps drew
    assert sorted(drawn) == [(4, k) for k in range(50)]


def test_finite_policy_saturates_far_from_origin(lq_spec, erg_lq):
    # far enough out, both feedbacks sit past the clamp and agree exactly
    x0 = np.array([3.5])
    flow1 = MeasureFlow.constant(erg_lq.mu_star, 0.0, 1.0)
    sol = solve_finite_bsde(lq_spec, flow1, x0, T=1.0, dt=0.02,
                            n_particles=4000, seed=9)
    z_fin = float(np.asarray(sol.zeta(0.0, x0[None, :])).ravel()[0])
    z_erg = float(np.asarray(
        erg_lq.zeta_bar.eval_node(0, x0[None, :])).ravel()[0])
    assert min(z_fin, z_erg) > 2.05  # both past the saturation threshold
    mu0 = flow1.at_time(0.0)
    a_fin = ControlPolicy.from_finite(lq_spec.control, sol).actions(
        0.0, x0[None, :], mu0)
    a_erg = ControlPolicy.from_ergodic(lq_spec.control, erg_lq).actions(
        0.0, x0[None, :], mu0)
    np.testing.assert_array_equal(a_fin, [[-1.0]])
    np.testing.assert_array_equal(a_erg, [[-1.0]])


def test_longtime_grid_runs_one_sweep(lq_spec, erg_lq, monkeypatch):
    # one sweep for the grid on mu*, three for the feedback floor
    swept, _ = record_sweeps(monkeypatch)
    ocp_longtime(lq_spec, erg_lq, ell_hat=0.0, t_grid=(1.0, 2.0), dt=0.05,
                 n_particles=300, seed=1)
    assert swept == [(2.0,)] * (1 + 3)


def test_longtime_grid_runs_one_cost_run_per_horizon(lq_spec, erg_lq,
                                                     monkeypatch):
    # the cost floor is the largest horizon's own standard error, and the
    # feedback floor comes from ltb's estimator: no run of their own
    horizons = []
    cost = control.evaluate_cost_finite

    def counted(spec, policy, x0, theta, T, *args, **kwargs):
        horizons.append(T)
        return cost(spec, policy, x0, theta, T, *args, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError("ocp_longtime solved a horizon on its own")

    monkeypatch.setattr(control, "evaluate_cost_finite", counted)
    monkeypatch.setattr(control, "solve_finite_bsde", refused)
    ocp_longtime(lq_spec, erg_lq, ell_hat=0.0, t_grid=(4.0, 1.0, 2.0, 3.0),
                 dt=0.05, n_particles=300, seed=1)
    assert horizons == [1.0, 2.0, 3.0, 4.0]


def test_longtime_control_expansion(lq_spec, erg_lq, tmp_path):
    fit = ltb2_experiment(lq_spec, erg_lq, t_grid=(0.5, 1.0, 1.5, 2.0, 3.0),
                          x0=1.0, dt=0.02, n_particles=10_000, seed=21)
    res = ocp_longtime(lq_spec, erg_lq, ell_hat=fit.ell, x0=1.0,
                       t_grid=(2.0, 4.0, 6.0, 8.0), dt=0.02,
                       n_particles=10_000, seed=0)

    table = res.table
    assert list(table) == ["T", "j", "residual", "a_gap", "z_gap", "y0"]
    np.testing.assert_array_equal(table["T"], [2.0, 4.0, 6.0, 8.0])

    # the quadratic action cost puts the unclamped minimiser at -z/2, so
    # the feedback gap is exactly half the z gap while nothing saturates
    z_bar = float(np.asarray(
        erg_lq.zeta_bar.eval_node(0, np.array([[1.0]]))).ravel()[0])
    assert abs(z_bar) + float(np.max(table["z_gap"])) < 2.0
    np.testing.assert_allclose(table["a_gap"], 0.5 * table["z_gap"],
                               atol=1e-12)

    # cost residuals against lam T + u_bar(x0) + ell stay small; at this
    # particle budget they sit at the Monte Carlo floor, so the fitted
    # rate is either positive or honestly reported as indeterminate
    assert float(np.max(np.abs(table["residual"]))) <= 0.05
    for decay in (res.cost_fit, res.feedback_fit):
        assert decay.indeterminate or decay.rate > 0.0

    report = res.report()
    assert set(report) == {"lambda", "ell_hat", "cost_rate",
                           "cost_indeterminate", "feedback_rate",
                           "feedback_indeterminate"}
    assert report["lambda"] == pytest.approx(erg_lq.lambda_)

    out = tmp_path / "control_ocp.csv"
    cli._write_csv(out, res.table)
    lines = out.read_text().splitlines()
    assert lines[0] == "T,j,residual,a_gap,z_gap,y0"
    assert len(lines) == 5
    np.testing.assert_array_equal(np.loadtxt(lines[1:], delimiter=","),
                                  np.column_stack(list(table.values())))
