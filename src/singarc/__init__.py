"""Singular-arc toolkit for a torque-limited planar 2-DOF arm.

Builds minimum-time Pontryagin extremals whose first torque channel rides
a singular arc, and repairs singular intervals in trajectories imported
from external optimal-control solvers by substituting the closed-form
singular feedback law.
"""
from .arm2dof import Arm2DOF, ArmParams, ControlBounds, FullyActuatedSystem
from .duals import Dual, HyperDual
from .errors import (CostateDegenerate, DegenerateSystem,
                     DerivativeUnavailable, LinearSolveFailure,
                     MissingCostates, MonotonicityError, NaNError,
                     OutOfBounds, RkViolation, SchemaError, SingArcError,
                     SpanViolation)
from .integrate import (IntegratorConfig, Trajectory, hamiltonian_trace,
                        integrate_extremal, load_trajectory, model_signature,
                        resimulate, save_trajectory)
from .liegeom import (AlphaTensor, alpha_coefficients, b_set_certificate,
                      frame_rank, iterated_bracket, lie_bracket, parse_word,
                      word_field)
from .pmp import (GeneralSingularSystem, SingularLawCoeffs, SwitchingRecord,
                  bang_control, costate_on_surface, general_singular_solve,
                  general_singular_system, hamiltonian, in_Rk,
                  lemma1_certificate, phi_second_derivative, singular_law_coeffs,
                  singular_u1, sk_rank, switching)
from .regularize import (AuditResult, RegularizationReport, SingularInterval,
                         Tolerances, costate_ratio_trace, detect_singular_arcs,
                         ingest, pmp_audit, regularize_u1, switching_series)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
