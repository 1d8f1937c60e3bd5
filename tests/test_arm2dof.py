"""Mass matrix, Coriolis vector, drift and input columns of the 2-DOF arm."""
import numpy as np
import numpy.testing as npt
import pytest

import reference as ref
from oracles import invert_2x2
from singarc.arm2dof import Arm2DOF, ArmParams, ControlBounds
from singarc.liegeom import input_field


def test_mass_matrix_at_right_angle(arm):
    M = arm.mass_entries([0.0, np.pi / 2])
    npt.assert_allclose(M, [[35.5, 10.5], [10.5, 10.5]], rtol=0, atol=1e-14)


def test_mass_matrix_at_straight_arm(arm):
    assert arm.mass_entries([0.3, 0.0]) == [[50.5, 18.0], [18.0, 10.5]]


def test_mass_matrix_symmetric_positive_definite_everywhere(arm):
    rng = np.random.default_rng(0)
    q2 = rng.uniform(-np.pi, np.pi, size=10_000)
    (m11, m12), (m21, m22) = arm.mass_entries([np.zeros_like(q2), q2])
    npt.assert_array_equal(m21, m12)
    assert np.all(m11 > 0)
    assert np.all(m11 * m22 - m12 * m12 > 0)


def test_coriolis_vanishes_at_rest(arm):
    C = arm.coriolis_entries([0.4, 1.1], [0.0, 0.0])
    npt.assert_array_equal(C, [0.0, 0.0])


def test_coriolis_vanishes_for_straight_arm(arm):
    C = arm.coriolis_entries([0.4, 0.0], [1.3, -0.7])
    npt.assert_array_equal(C, [0.0, 0.0])


def test_coriolis_reference_value(arm):
    C = arm.coriolis_entries([0.0, np.pi / 2], [1.0, 1.0])
    npt.assert_array_equal(C, [-22.5, 7.5])


def test_drift_is_zero_at_rest(arm):
    f, _ = arm.dyn([0.2, -0.9, 0.0, 0.0])
    npt.assert_array_equal(f, np.zeros(4))


def test_drift_copies_velocities_and_solves_inertia(arm):
    x = ref.X0.tolist()
    f, _ = arm.dyn(x)
    assert f[:2] == x[2:]
    M = np.asarray(arm.mass_entries(x[:2]))
    C = arm.coriolis_entries(x[:2], x[2:])
    npt.assert_allclose(M @ f[2:] + C, 0.0, rtol=0, atol=1e-12)


def test_input_columns_invert_the_mass_matrix(arm):
    x = ref.X0.tolist()
    G = np.array([input_field(arm, i)(x) for i in range(2)]).T
    npt.assert_array_equal(G[:2], np.zeros((2, 2)))
    npt.assert_array_equal(G[2:], arm.dyn(x)[1])
    M = np.asarray(arm.mass_entries(x[:2]))
    npt.assert_allclose(M @ G[2:], np.eye(2), rtol=0, atol=1e-12)
    npt.assert_allclose(G[2:], invert_2x2(M), rtol=0, atol=1e-13)


def test_shoulder_angle_does_not_enter_the_dynamics(arm):
    """q1 is cyclic: shifting it leaves every dynamics quantity bit-equal."""
    x = [0.3, -1.2, 0.8, -0.4]
    shifted = [x[0] + 2.345] + x[1:]
    assert arm.mass_entries(shifted[:2]) == arm.mass_entries(x[:2])
    assert (arm.coriolis_entries(shifted[:2], shifted[2:])
            == arm.coriolis_entries(x[:2], x[2:]))
    assert arm.dyn(shifted) == arm.dyn(x)


def test_batched_evaluation_matches_per_sample_loop(arm):
    rng = np.random.default_rng(1)
    X = ref.sample_states(rng, 64)
    batch_f, batch_L = (np.asarray(v) for v in arm.dyn(list(X.T)))
    for k, x in enumerate(X):
        f, L = arm.dyn(x.tolist())
        npt.assert_array_equal(batch_f[:, k], f)
        npt.assert_array_equal(batch_L[:, :, k], L)


def test_nondefault_parameters_change_the_inertia():
    light = Arm2DOF(ArmParams(mass=(5.0, 3.0)))
    assert light.mass_entries([0.0, 0.0]) == [[12.25, 4.5], [4.5, 3.75]]


@pytest.mark.parametrize("bad", [
    {"mass": (0.0, 30.0)},
    {"mass": (50.0, -1.0)},
    {"link_length": (0.5,)},
    {"inertia_z": (5.0, float("nan"))},
    {"com_position": (0.5, float("inf"))},
])
def test_arm_params_reject_nonpositive_or_nonfinite(bad):
    with pytest.raises(ValueError):
        ArmParams(**bad)


def test_control_bounds_validation_and_queries():
    with pytest.raises(ValueError):
        ControlBounds(lower=(0.0,), upper=(1.0, 2.0))
    with pytest.raises(ValueError):
        ControlBounds(lower=(0.0, 5.0), upper=(1.0, 5.0))

    b = ControlBounds()
    assert len(b.lower) == len(b.upper) == 2
    assert b.contains(0, 20.0) and b.contains(0, -20.0)
    assert not b.contains(1, 10.000001)
    assert b.nearest(0, 19.0) == 20.0
    assert b.nearest(0, -1.0) == -20.0
    assert b.nearest(1, -9.7) == -10.0
    # exact midpoint resolves to the lower bound
    assert b.nearest(0, 0.0) == -20.0
    assert type(b.nearest(0, 19.0)) is float


def test_control_bound_queries_are_elementwise():
    """Arrays in give one answer per entry, the same as entry by entry."""
    b = ControlBounds()
    u = np.array([-20.0, 20.0, np.nextafter(20.0, 21.0), -21.0, 0.0, -9.7,
                  15.0])
    for i in range(2):
        npt.assert_array_equal(b.contains(i, u),
                               [b.contains(i, float(v)) for v in u])
        npt.assert_array_equal(b.nearest(i, u),
                               [b.nearest(i, float(v)) for v in u])
    npt.assert_array_equal(b.contains(0, u),
                           [True, True, False, False, True, True, True])
    assert not b.contains(0, np.nan)
    assert not b.contains(0, np.array([np.nan]))[0]
    assert b.nearest(1, np.empty(0)).shape == (0,)
