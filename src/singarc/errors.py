"""Error taxonomy shared across the toolkit.

Every class maps to a distinct CLI exit code (see EXIT_CODES); keeping them
in one place makes the mapping auditable.
"""
from __future__ import annotations


class SingArcError(Exception):
    """Base class for all toolkit errors."""


class LinearSolveFailure(SingArcError):
    """A linear system (mass matrix, alpha solve) is numerically singular."""


class DerivativeUnavailable(SingArcError):
    """Requested derivative depth exceeds what the engine supports."""


class SpanViolation(SingArcError):
    """A bracket failed to lie in the span guaranteed by the theory."""


class RkViolation(SingArcError):
    """State left the admissible region where the singular law is defined."""


class CostateDegenerate(SingArcError):
    """Costate component required by the law is (numerically) zero."""


class DegenerateSystem(SingArcError):
    """The general singular linear system has no unique solution."""


class OutOfBounds(SingArcError):
    """A computed control left its admissible interval (never clamped)."""


class MissingCostates(SingArcError):
    """Operation requires costate columns the trajectory does not carry."""


class SchemaError(SingArcError):
    """Trajectory file does not match the expected CSV schema."""


class MonotonicityError(SingArcError):
    """Trajectory time column is not strictly increasing."""


class NaNError(SingArcError):
    """Non-finite value encountered in trajectory data."""


# CLI exit codes.  0 = success, 1 = unexpected failure, 2 = argparse usage.
EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_PARTIAL_REGULARIZATION = 14
EXIT_VIOLATIONS_REMAIN = 15

EXIT_CODES: dict[type, int] = {
    SchemaError: 3,
    MonotonicityError: 4,
    NaNError: 5,
    MissingCostates: 6,
    RkViolation: 7,
    CostateDegenerate: 8,
    DegenerateSystem: 9,
    OutOfBounds: 10,
    SpanViolation: 11,
    LinearSolveFailure: 12,
    DerivativeUnavailable: 13,
}


# Abort flags in trajectory metadata are error class names.
ERRORS_BY_NAME: dict[str, type] = {cls.__name__: cls for cls in EXIT_CODES}


def exit_code_for(exc: BaseException) -> int:
    """Exit code for an exception instance (distinct per error class)."""
    for cls, code in EXIT_CODES.items():
        if isinstance(exc, cls):
            return code
    return EXIT_UNEXPECTED
