"""Planar 2-DOF manipulator dynamics behind a generic mechanical-system interface.

State is x = (q, qdot) in R^4 and the dynamics are control-affine,

    xdot = f(x) + g(x) u,    f = [qdot; -M(q)^-1 C(q, qdot)],   g = [0; M(q)^-1].

Gravity is zero throughout (motion in a horizontal plane).  All expressions
are written over the scalar algebra in ``duals`` so that every field supports
exact nested directional derivatives as well as numpy-batched evaluation.
"""
from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from .duals import cos, sin, value
from .errors import LinearSolveFailure

_DET_RTOL = 1e-13


@dataclass(frozen=True)
class ArmParams:
    """Geometric and inertial parameters; defaults are the reference arm.

    com_position is the distance of each link's center of mass from its
    joint; it is deliberately NOT required to be <= link_length.
    """

    link_length: tuple[float, float] = (0.5, 0.5)
    com_position: tuple[float, float] = (0.5, 0.5)
    mass: tuple[float, float] = (50.0, 30.0)
    inertia_z: tuple[float, float] = (5.0, 3.0)

    def __post_init__(self):
        for name in ("link_length", "com_position", "mass", "inertia_z"):
            vals = getattr(self, name)
            if len(vals) != 2 or not all(np.isfinite(v) and v > 0 for v in vals):
                raise ValueError(f"{name} must hold two strictly positive finite values")


@dataclass(frozen=True)
class ControlBounds:
    """Per-channel torque bounds L_i <= u_i <= M_i."""

    lower: tuple[float, ...] = (-20.0, -10.0)
    upper: tuple[float, ...] = (20.0, 10.0)

    def __post_init__(self):
        if len(self.lower) != len(self.upper):
            raise ValueError("bounds must have equal length")
        if not all(lo < hi for lo, hi in zip(self.lower, self.upper)):
            raise ValueError("need lower[i] < upper[i] for every channel")

    @property
    def n(self) -> int:
        return len(self.lower)

    def contains(self, i: int, u: float) -> bool:
        return self.lower[i] <= u <= self.upper[i]

    def nearest(self, i: int, u: float) -> float:
        """The bound of channel i closest to u (used for bang inference)."""
        lo, hi = self.lower[i], self.upper[i]
        return lo if abs(u - lo) <= abs(u - hi) else hi


class FullyActuatedSystem(abc.ABC):
    """Fully actuated mechanical system contract consumed by the Lie/PMP layers.

    Subclasses provide the inertia and Coriolis entries as dual-generic
    expressions; drift and input columns follow from them.  Two degrees of
    freedom, one input each (n = 2): the bracket tableau, the integrator,
    the B-set certificate and the CSV schema all assume it.
    """

    n: int

    @abc.abstractmethod
    def mass_entries(self, q):
        """2 x 2 nested list of inertia entries over the duals algebra."""

    @abc.abstractmethod
    def coriolis_entries(self, q, qd):
        """Length-2 list of Coriolis torques over the duals algebra."""

    def dyn(self, x):
        """Drift components and inverse-inertia rows at x, in one evaluation.

        x: sequence of 4 scalar-like components.  Returns (f, L) where f is
        the drift list and L the 2 x 2 nested list with L = M(q)^-1.
        Shared by drift/input_columns so the hot paths pay one solve.
        """
        q, qd = x[:2], x[2:]
        (m11, m12), (_, m22) = self.mass_entries(q)
        C = self.coriolis_entries(q, qd)
        det = m11 * m22 - m12 * m12
        dv = value(det)
        scale = abs(value(m11 * m22)) + abs(value(m12 * m12))
        bad = abs(dv) <= _DET_RTOL * scale
        if (np.any(bad) if type(bad) is np.ndarray else bad):
            raise LinearSolveFailure("mass matrix numerically singular")
        l11 = m22 / det
        l12 = -m12 / det
        l22 = m11 / det
        L = [[l11, l12], [l12, l22]]
        acc = [-(l11 * C[0] + l12 * C[1]), -(l12 * C[0] + l22 * C[1])]
        return list(qd) + acc, L

    # numpy facades (plain float or batched-array input)

    def drift(self, x) -> np.ndarray:
        f, _ = self.dyn(list(_components(x)))
        return np.asarray(f)

    def input_columns(self, x) -> np.ndarray:
        comps = list(_components(x))
        _, L = self.dyn(comps)
        zero = comps[0] * 0.0  # matches the batch shape under array input
        top = [[zero, zero], [zero, zero]]
        return np.asarray(top + [list(r) for r in L])

    def mass_matrix(self, q) -> np.ndarray:
        return np.asarray(self.mass_entries(list(_components(q))))

    def coriolis(self, q, qd) -> np.ndarray:
        return np.asarray(self.coriolis_entries(list(_components(q)),
                                                list(_components(qd))))


def _components(x):
    """Turn an array-like into a component list (floats or arrays).

    1-D arrays become plain floats: python-float arithmetic is several
    times faster than numpy scalars on the feedback-integration hot path.
    """
    if isinstance(x, np.ndarray):
        if x.ndim == 1:
            return [float(v) for v in x]
        return [x[i] for i in range(x.shape[0])]
    return list(x)


class Arm2DOF(FullyActuatedSystem):
    """The planar two-link arm, reference parameters by default."""

    n = 2

    def __init__(self, params: ArmParams | None = None):
        self.params = params if params is not None else ArmParams()
        l1 = self.params.link_length[0]
        xc1, xc2 = self.params.com_position
        m1, m2 = self.params.mass
        iz1, iz2 = self.params.inertia_z
        # constant groupings of the standard two-link inertia/Coriolis terms;
        # the off-diagonal carries the distal link inertia iz2
        self._ka = m2 * l1 * l1 + m1 * xc1 * xc1 + m2 * xc2 * xc2 + iz1 + iz2
        self._kb = 2.0 * m2 * l1 * xc2
        self._kd = l1 * m2 * xc2
        self._ke = m2 * xc2 * xc2 + iz2

    def mass_entries(self, q):
        c2 = cos(q[1])
        m11 = self._ka + self._kb * c2
        m12 = self._ke + self._kd * c2
        m22 = self._ke + 0.0 * c2  # keeps m22 the same scalar type as m11, m12
        return [[m11, m12], [m12, m22]]

    def coriolis_entries(self, q, qd):
        h = self._kd * sin(q[1])
        td1, td2 = qd[0], qd[1]
        return [-h * td2 * td2 - 2.0 * h * td1 * td2, h * td1 * td1]

