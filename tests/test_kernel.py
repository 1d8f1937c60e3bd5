"""The compiled tableau/law kernel against the Dual/HyperDual reference."""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference as ref
from singarc.arm2dof import Arm2DOF, ArmParams
from singarc.duals import OffTrace, cos
from singarc.errors import LinearSolveFailure
from singarc.liegeom import (_KERNELS, fused_kernel, fused_reference,
                             u1_singular_brackets)
from singarc.pmp import in_Rk, singular_law_coeffs

LAW_TERMS = ("mu", "nu", "gamma", "r", "s", "alpha1", "alpha2", "b_g2")


def _flat(v):
    if isinstance(v, (list, tuple)):
        for e in v:
            yield from _flat(e)
    else:
        yield v


def _assert_same_numbers(got, want):
    """Same nest, every entry a float equal to the reference's (identical
    bits up to the sign of a zero)."""
    got, want = list(_flat(got)), list(_flat(want))
    assert len(got) == len(want)
    for k, (a, b) in enumerate(zip(got, want)):
        assert type(a) is float and type(b) is float, k
        assert a == b, (k, a, b)


angles = st.floats(-math.pi, math.pi)
rates = st.floats(-5.0, 5.0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(x=st.tuples(angles, angles, rates, rates), c=st.floats(-10.0, 10.0))
def test_kernel_equals_the_dual_reference_bit_for_bit(arm, x, c):
    x = list(x)
    assume(in_Rk(x, 1e-3))
    got = fused_kernel(arm)(*x, c)
    want = fused_reference(arm, x, c)
    _assert_same_numbers(got, want)
    # the law terms are the last block, in _law_terms order
    assert len(got[-1]) == len(LAW_TERMS)


def test_kernel_is_recorded_once_per_plant_and_lazily():
    plant = Arm2DOF()
    assert plant not in _KERNELS
    u1_singular_brackets(plant, np.asarray(ref.X0)[:, None])  # arrays: no
    assert plant not in _KERNELS
    kernel = fused_kernel(plant)
    assert fused_kernel(plant) is kernel
    assert fused_kernel(Arm2DOF()) is not kernel
    # the tableau of the reference state through both public paths
    single = u1_singular_brackets(plant, ref.X0)
    batch = u1_singular_brackets(plant, np.asarray(ref.X0)[:, None])
    np.testing.assert_array_equal(np.asarray(single.ffg1),
                                  np.asarray(batch.ffg1)[:, 0])


def test_plants_with_different_parameters_get_their_own_kernels():
    light = Arm2DOF(ArmParams(mass=(10.0, 3.0), inertia_z=(1.0, 0.5)))
    heavy = Arm2DOF()
    x = [float(v) for v in ref.X0]
    for plant in (light, heavy):
        _assert_same_numbers(fused_kernel(plant)(*x, -10.0),
                             fused_reference(plant, x, -10.0))
    assert fused_kernel(light) is not fused_kernel(heavy)
    assert fused_kernel(light)(*x, -10.0)[-1] \
        != fused_kernel(heavy)(*x, -10.0)[-1]


class SingularAtElbow(Arm2DOF):
    """Test plant whose mass matrix loses rank (to rounding) at q2 = Q2."""

    Q2 = 0.7

    def mass_entries(self, q):
        (m11, m12), _ = super().mass_entries(q)
        m22 = m12 * m12 / m11 + 2.0 * (cos(q[1]) - math.cos(self.Q2))
        return [[m11, m12], [m12, m22]]


def test_mass_guard_survives_code_generation():
    plant = SingularAtElbow()
    x = [0.1, SingularAtElbow.Q2, 0.3, 0.5]
    with pytest.raises(LinearSolveFailure):
        u1_singular_brackets(plant, x)                       # kernel
    with pytest.raises(LinearSolveFailure):
        u1_singular_brackets(plant, np.array(x)[:, None])   # Dual path
    # the kernel itself stops at the guard, before dividing by the det
    with pytest.raises(OffTrace):
        fused_kernel(plant)(*x, 0.0)
    # the reference arm's inertia has no division: the guard is the first
    source = fused_kernel(Arm2DOF()).source
    assert source.index("raise OffTrace") < source.index(" / ")
    # away from Q2 the plant is regular and the kernel matches again
    y = [0.1, 1.2, 0.3, 0.5]
    _assert_same_numbers(fused_kernel(plant)(*y, -10.0),
                         fused_reference(plant, y, -10.0))


def test_non_float_scalars_take_the_reference_path(arm):
    x = [np.float64(v) for v in ref.X0]
    tab = u1_singular_brackets(arm, x)
    want = fused_reference(arm, x, 0.0)
    assert type(tab.ffg1[0]) is np.float64
    np.testing.assert_array_equal(np.asarray(tab.ffg1, dtype=float),
                                  np.asarray(want[5], dtype=float))


def test_law_coefficients_match_the_reference_terms(arm):
    x = [float(v) for v in ref.X0]
    coeffs = singular_law_coeffs(arm, x, c=ref.U2_BANG)
    want = fused_reference(arm, x, ref.U2_BANG)[-1]
    got = tuple(getattr(coeffs, name if name != "b_g2" else "b_dot_g2")
                for name in LAW_TERMS)
    assert got == want
