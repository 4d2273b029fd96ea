"""Particle methods for mean-field dynamics and their long-horizon BSDEs.

Modules:
    model: problem containers, presets, assumption audits, scenario files.
    measure: empirical measures, Wasserstein distances, measure flows.
    sde: interacting-particle and decoupled Euler simulation.
    coupling: Lyapunov construction and reflection coupling for weak models.
    bsde: one-step regression solver for finite-horizon BSDEs.
    ebsde: ergodic triple by fixed point and by vanishing discount.
    ltb: long-time behaviour experiments on the finite-horizon value.
    control: Hamiltonians, policy evaluation, long-run control limits.
    cli: scripted entry points over scenario files.
"""

from ergolab.measure import (
    EmpiricalMeasure,
    LawSummary,
    MeasureFlow,
    InvariantMeasureResult,
    StationarityWarning,
    UnsupportedSizeError,
    invariant_measure,
    moment,
    wasserstein,
)
from ergolab.model import (
    AuditReport,
    Constants,
    ControlSpec,
    ProblemSpec,
    Scenario,
    ScenarioError,
    audit,
    load_scenario,
    parse_scenario,
    preset,
)
from ergolab.sde import (
    BlowUpError,
    ContractionFit,
    DriftShift,
    MVResult,
    PathBundle,
    contraction_rate,
    derive_seed,
    flow_property_check,
    gaussian_increments,
    interacting_flow,
    simulate_mv,
)
from ergolab.coupling import (
    CouplingRun,
    EllipticityError,
    LyapunovConstants,
    LyapunovTable,
    RadiusMoments,
    build_lyapunov,
    kappa_star,
    mollifier_reflect,
    mollifier_share,
    simulate_reflection_coupling,
    verify_lyapunov_inequality,
)
from ergolab.bsde import (
    BasisDegeneracyError,
    BsdeSolution,
    OffGridWarning,
    RegressionFunction,
    monomial_exponents,
    solve_finite_bsde,
    z_from_gradient,
)
from ergolab.ebsde import (
    AlphaSolution,
    ErgodicSolution,
    HorizonBudgetError,
    TimeAverageEstimate,
    discount_horizon,
    extract_ergodic,
    extract_ergodic_vanishing,
    lambda_by_time_average,
)
from ergolab.ltb import (
    DecayFit,
    ltb1_experiment,
    ltb2_experiment,
    ltb3_experiment,
)
from ergolab.control import (
    AdmissibilityError,
    ControlConfigurationError,
    ControlPolicy,
    CostReport,
    OcpResult,
    evaluate_cost_ergodic,
    evaluate_cost_finite,
    girsanov_reweighted_cost,
    hamiltonian,
    ocp_longtime,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityError",
    "AlphaSolution",
    "AuditReport",
    "BasisDegeneracyError",
    "BlowUpError",
    "BsdeSolution",
    "Constants",
    "ContractionFit",
    "ControlConfigurationError",
    "ControlPolicy",
    "ControlSpec",
    "CostReport",
    "CouplingRun",
    "DecayFit",
    "DriftShift",
    "EllipticityError",
    "EmpiricalMeasure",
    "ErgodicSolution",
    "HorizonBudgetError",
    "InvariantMeasureResult",
    "LawSummary",
    "LyapunovConstants",
    "LyapunovTable",
    "MVResult",
    "MeasureFlow",
    "OcpResult",
    "OffGridWarning",
    "PathBundle",
    "ProblemSpec",
    "RadiusMoments",
    "RegressionFunction",
    "Scenario",
    "ScenarioError",
    "StationarityWarning",
    "TimeAverageEstimate",
    "UnsupportedSizeError",
    "audit",
    "build_lyapunov",
    "contraction_rate",
    "derive_seed",
    "discount_horizon",
    "evaluate_cost_ergodic",
    "evaluate_cost_finite",
    "extract_ergodic",
    "extract_ergodic_vanishing",
    "flow_property_check",
    "gaussian_increments",
    "girsanov_reweighted_cost",
    "hamiltonian",
    "interacting_flow",
    "invariant_measure",
    "kappa_star",
    "lambda_by_time_average",
    "load_scenario",
    "ltb1_experiment",
    "ltb2_experiment",
    "ltb3_experiment",
    "mollifier_reflect",
    "mollifier_share",
    "moment",
    "monomial_exponents",
    "ocp_longtime",
    "parse_scenario",
    "preset",
    "simulate_mv",
    "simulate_reflection_coupling",
    "solve_finite_bsde",
    "verify_lyapunov_inequality",
    "wasserstein",
    "z_from_gradient",
]
