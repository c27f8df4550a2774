"""Planar temperature/ice-extent climate model toolkit.

Library layout:

- model: parameters, response curves, scalings, nullclines, and the one
  definition of the dynamics: vector fields, their Jacobian, the regime rule
- equilibria: nullcline crossings, count classification, lambda branches
- stability: Jacobian, mu windows, Hopf data, center-manifold reduction
- simulator: time integration, limit cycles, mu sweeps
- oracle: independent numerical cross-checks for every closed form
- cli: the glacier-dyn command-line front end
"""

__version__ = "0.1.0"

from .equilibria import (
    BranchPair,
    CriticalPoint,
    EquilibriumCount,
    count_classification,
    critical_point_at,
    find_equilibria,
    lambda0_max,
    lambda_branches,
    theta_extrema,
)
from .errors import (
    ComplexSnowline,
    ConditioningError,
    ConfigError,
    DegenerateSlope,
    DomainError,
    GlacierDynError,
    NoBranches,
    NonDifferentiablePoint,
    NotHopfCandidate,
    NotTangent,
    OracleMismatch,
    ScaleError,
    StiffnessError,
    TangencyWarning,
)
from .model import (
    ModelParams,
    PhysicalParams,
    Regime,
    Scales,
    SigmoidFamily,
    SigmoidResponse,
    State,
    lambda0,
    make_jacobian,
    make_rhs,
    nondimensionalize,
    nullcline_f,
    nullcline_g,
    regime_of,
    response_eval,
    sheet_height_scale,
    sigmoid_eval,
    vector_field,
)
from .oracle import (
    FdConfig,
    VerificationReport,
    bisect_lambda_branches,
    fd_jacobian,
    grid_max_lambda0,
    numeric_l1,
    run_verification,
)
from .simulator import (
    BifRow,
    LimitCycle,
    ModelKind,
    SolverStats,
    Termination,
    Trajectory,
    integrate,
    poincare_cycle,
    sweep_mu,
)
from .stability import (
    CenterManifoldVerdict,
    Classification,
    Criticality,
    HopfData,
    Jacobian2,
    MuThresholds,
    center_manifold,
    classify,
    eigenvalues,
    hopf_analysis,
    jacobian,
    lyapunov_l1,
    mu_thresholds,
    tangency_directions,
)

__all__ = [
    # equilibria
    "BranchPair", "CriticalPoint", "EquilibriumCount", "count_classification",
    "critical_point_at", "find_equilibria", "lambda0_max", "lambda_branches",
    "theta_extrema",
    # errors
    "ComplexSnowline", "ConditioningError", "ConfigError", "DegenerateSlope",
    "DomainError", "GlacierDynError", "NoBranches", "NonDifferentiablePoint",
    "NotHopfCandidate", "NotTangent", "OracleMismatch", "ScaleError", "StiffnessError",
    "TangencyWarning",
    # model
    "ModelParams", "PhysicalParams", "Regime", "Scales", "SigmoidFamily",
    "SigmoidResponse", "State", "lambda0", "make_jacobian", "make_rhs",
    "nondimensionalize", "nullcline_f", "nullcline_g", "regime_of", "response_eval",
    "sheet_height_scale", "sigmoid_eval", "vector_field",
    # oracle
    "FdConfig", "VerificationReport", "bisect_lambda_branches", "fd_jacobian",
    "grid_max_lambda0", "numeric_l1", "run_verification",
    # simulator
    "BifRow", "LimitCycle", "ModelKind", "SolverStats",
    "Termination", "Trajectory", "integrate", "poincare_cycle", "sweep_mu",
    # stability
    "CenterManifoldVerdict", "Classification", "Criticality", "HopfData", "Jacobian2",
    "MuThresholds", "center_manifold", "classify", "eigenvalues", "hopf_analysis",
    "jacobian", "lyapunov_l1", "mu_thresholds", "tangency_directions",
]
