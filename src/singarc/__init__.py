"""Singular-arc toolkit for a torque-limited planar 2-DOF arm.

Builds minimum-time Pontryagin extremals whose first torque channel rides
a singular arc, and repairs singular intervals in trajectories imported
from external optimal-control solvers by substituting the closed-form
singular feedback law.
"""
from .arm2dof import Arm2DOF, ArmParams, ControlBounds
from .duals import Dual
from .errors import (CostateDegenerate, DegenerateSystem,
                     DerivativeUnavailable, LinearSolveFailure,
                     MissingCostates, MonotonicityError, NaNError,
                     OutOfBounds, RkViolation, SchemaError, SingArcError,
                     SpanViolation)
from .integrate import (IntegratorConfig, Trajectory, hamiltonian_trace,
                        integrate_extremal, load_trajectory, model_signature,
                        resimulate, save_trajectory)
from .liegeom import (AlphaTensor, alpha_coefficients, b_set_certificate,
                      frame_rank, iterated_bracket, parse_word, word_field)
from .pmp import (GeneralSingularSystem, SingularLawCoeffs, SwitchingRecord,
                  costate_norm, costate_on_surface, costate_ratio,
                  general_singular_solve, general_singular_system,
                  hamiltonian, in_Rk, lambda4_degenerate, sign_rule,
                  singular_law_coeffs, singular_u1, switching)
from .regularize import (AuditResult, RegularizationReport, SingularInterval,
                         Tolerances, detect_singular_arcs, ingest, pmp_audit,
                         regularize_u1, switching_series)

__version__ = "0.1.0"

__all__ = [
    # plant
    "Arm2DOF", "ArmParams", "ControlBounds", "Dual",
    # errors
    "SingArcError", "CostateDegenerate", "DegenerateSystem",
    "DerivativeUnavailable", "LinearSolveFailure", "MissingCostates",
    "MonotonicityError", "NaNError", "OutOfBounds", "RkViolation",
    "SchemaError", "SpanViolation",
    # integration and trajectory files
    "IntegratorConfig", "Trajectory", "integrate_extremal", "resimulate",
    "hamiltonian_trace", "load_trajectory", "save_trajectory",
    "model_signature",
    # Lie brackets and certificates
    "AlphaTensor", "alpha_coefficients", "b_set_certificate", "frame_rank",
    "iterated_bracket", "parse_word", "word_field",
    # maximum-principle rules and the singular laws
    "SwitchingRecord", "SingularLawCoeffs", "GeneralSingularSystem",
    "hamiltonian", "switching", "sign_rule", "in_Rk", "costate_norm",
    "lambda4_degenerate", "costate_ratio", "costate_on_surface",
    "singular_law_coeffs", "singular_u1", "general_singular_system",
    "general_singular_solve",
    # detection, repair and audit
    "Tolerances", "SingularInterval", "RegularizationReport", "AuditResult",
    "ingest", "switching_series", "detect_singular_arcs", "regularize_u1",
    "pmp_audit",
    "__version__",
]
