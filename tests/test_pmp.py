"""Hamiltonian, adjoint, switching logic, and both singular-control routes."""
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

import reference as ref
from oracles import fd_adjoint, outside_law_domain
from singarc import duals, integrate, liegeom
from singarc.arm2dof import Arm2DOF
from singarc.duals import Tape
from singarc.errors import CostateDegenerate, DegenerateSystem, RkViolation
from singarc.liegeom import iterated_bracket, word_field
from singarc.pmp import (adjoint_rhs, costate_on_surface,
                         general_singular_solve, general_singular_system,
                         hamiltonian, in_Rk, lambda4_degenerate,
                         lemma1_certificate, phi_second_derivative,
                         sign_rule, singular_law_coeffs, singular_u1, sk_rank,
                         switching)


def test_hamiltonian_is_minus_one_for_zero_costate(arm):
    assert hamiltonian(arm, ref.X0, (3.0, -2.0), np.zeros(4)) == -1.0


def test_hamiltonian_reference_value(arm):
    H = hamiltonian(arm, ref.X0, (ref.U1_START, ref.U2_BANG), ref.LAM0)
    assert H == pytest.approx(ref.H_CONST, rel=1e-12)


def test_adjoint_vanishes_for_zero_costate(arm):
    rhs = adjoint_rhs(arm, ref.X0, (5.0, -5.0), np.zeros(4))
    npt.assert_array_equal(rhs, np.zeros(4))


def test_adjoint_matches_finite_differences(arm, extremal):
    rng = np.random.default_rng(30)
    cases = [(x, rng.uniform(-20.0, 20.0, size=2), rng.normal(size=4))
             for x in ref.sample_states(rng, 6)]
    # the integrator's own costate equation, on the reference extremal
    cases += [(extremal.x[k], extremal.u[k], extremal.lam[k])
              for k in range(0, len(extremal), 1000)]
    for x, u, lam in cases:
        got = adjoint_rhs(arm, x, u, lam)
        want = fd_adjoint(arm, x, u, lam)
        assert np.linalg.norm(got - want) <= 1e-6 * max(
            np.linalg.norm(want), 1.0)


def test_switching_vanishes_for_zero_costate(arm):
    rec = switching(arm, ref.X0, np.zeros(4))
    npt.assert_array_equal(rec.phi, np.zeros(2))
    npt.assert_array_equal(rec.phi_dot, np.zeros(2))
    assert rec.lambda_norm == 0.0


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(lam=st.lists(st.tuples(finite, finite, finite, finite), min_size=1,
                    max_size=5))
def test_lambda_norm_is_the_numpy_sum_of_squares(arm, lam):
    """The costate norm keeps the value and type of the numpy-scalar
    sqrt(sum(c ** 2)) it replaced: np.float64 for one costate, an array
    for a batch, bit for bit (overflow to inf included)."""
    def old_norm(cols):
        return np.sqrt(sum(np.asarray(c, dtype=float) ** 2 for c in cols))

    Lam = np.array(lam).T                                   # (4, N)
    X = np.tile(np.asarray(ref.X0)[:, None], (1, Lam.shape[1]))
    with np.errstate(over="ignore"):
        batch, want = switching(arm, X, Lam).lambda_norm, old_norm(Lam)
        assert type(batch) is np.ndarray and batch.shape == (Lam.shape[1],)
        npt.assert_array_equal(batch.view(np.int64), want.view(np.int64))
        for k in range(Lam.shape[1]):
            single = switching(arm, ref.X0, Lam[:, k]).lambda_norm
            want = old_norm(Lam[:, k].tolist())
            assert type(single) is type(want) is np.float64
            assert single.view(np.int64) == want.view(np.int64)


def test_reference_costate_sits_on_the_singular_surface(arm):
    rec = switching(arm, ref.X0, ref.LAM0)
    scale = float(rec.lambda_norm)
    assert abs(rec.phi[0]) <= 1e-12 * scale
    assert abs(rec.phi_dot[0]) <= 1e-12 * scale
    # channel 2 is strict lower bang under the maximum rule
    assert rec.phi[1] < -0.1


def test_switching_is_exactly_homogeneous_under_doubling(arm):
    rec1 = switching(arm, ref.X0, ref.LAM0)
    rec2 = switching(arm, ref.X0, 2.0 * np.asarray(ref.LAM0))
    npt.assert_array_equal(rec2.phi, 2.0 * rec1.phi)
    npt.assert_array_equal(rec2.phi_dot, 2.0 * rec1.phi_dot)


def test_switching_supports_batched_samples(arm):
    rng = np.random.default_rng(31)
    X = ref.sample_states(rng, 12)
    LAM = rng.normal(size=(12, 4))
    batch = switching(arm, X.T, LAM.T)
    for k in range(12):
        single = switching(arm, X[k], LAM[k])
        npt.assert_allclose(batch.phi[:, k], single.phi, rtol=1e-13)
        npt.assert_allclose(batch.phi_dot[:, k], single.phi_dot, rtol=1e-13)


def test_sign_rule_picks_the_bound_by_sign(bounds):
    lower, upper = np.asarray(bounds.lower), np.asarray(bounds.upper)
    npt.assert_array_equal(sign_rule(np.array([1.0, -1.0]), lower, upper),
                           [20.0, -10.0])
    # floats in, a float out
    got = sign_rule(-3.0, bounds.lower[0], bounds.upper[0])
    assert type(got) is float and got == -20.0


def test_sign_rule_refuses_to_pick_on_the_surface(bounds):
    values = sign_rule(np.array([0.0, -1.0]), np.asarray(bounds.lower),
                       np.asarray(bounds.upper))
    assert math.isnan(values[0]) and values[1] == -10.0
    assert math.isnan(sign_rule(0.0, -20.0, 20.0))
    assert math.isnan(sign_rule(-0.0, -20.0, 20.0))


def test_sign_rule_band_is_closed():
    """|phi| <= band picks nothing; one ulp beyond it picks the bound."""
    band = 3e-9
    phi = np.array([1e-15, band, -band, math.nextafter(band, math.inf),
                    math.nextafter(-band, -math.inf), 1.0])
    got = sign_rule(phi, -20.0, 20.0, band)
    npt.assert_array_equal(got, [np.nan, np.nan, np.nan, 20.0, -20.0, 20.0])


def test_lemma1_certificate(arm):
    assert lemma1_certificate(arm, ref.X0, np.zeros(4)) is False
    rng = np.random.default_rng(32)
    for x in ref.sample_states(rng, 30):
        lam = rng.normal(size=4)
        assert lemma1_certificate(arm, x, lam) is True
    # even on the u1-singular surface, channel 2 keeps the certificate true
    assert lemma1_certificate(arm, ref.X0, ref.LAM0) is True


def test_admissible_set_membership():
    assert in_Rk(ref.X0) is True
    assert in_Rk([0.1, math.pi / 2, 0.3, 0.5]) is False
    assert in_Rk([0.1, 0.4, 0.3, -0.3]) is False  # velocity sum vanishes
    # the band is a parameter: a state 5e-4 from the wall flips with it
    x = [0.1, math.pi / 2 + 5e-4, 0.3, 0.5]
    assert in_Rk(x, exclusion=1e-3) is False
    assert in_Rk(x, exclusion=1e-4) is True
    X = np.array([[0.1, 0.1], [0.4, math.pi], [0.3, 0.3], [0.5, 0.5]])
    npt.assert_array_equal(in_Rk(X), [True, False])


def test_admissibility_predicates_agree_at_the_band_edge():
    """pmp.in_Rk draws the edge the math.remainder oracle draws: at +-40
    ulps around every k*pi/2 +- band, for both bands in use, batched and
    one float list at a time (the integrator's call)."""
    for band in (1e-6, 1e-3):
        edges = [k * math.pi / 2 + sign * band
                 for k in range(-4, 5) for sign in (-1.0, 1.0)]
        theta2 = []
        for edge in edges:
            below = above = edge
            theta2.append(edge)
            for _ in range(40):
                below = math.nextafter(below, -math.inf)
                above = math.nextafter(above, math.inf)
                theta2 += [below, above]
        X = np.array([np.full(len(theta2), 0.1), theta2,
                      np.full(len(theta2), 0.3), np.full(len(theta2), 0.5)])
        want = [not outside_law_domain(x, band) for x in X.T.tolist()]
        npt.assert_array_equal(in_Rk(X, band), want)
        assert [in_Rk(x, band) for x in X.T.tolist()] == want
        # the band edge is really crossed inside the sweep
        assert any(want) and not all(want)


def test_lambda4_guard_is_one_rule_for_floats_and_columns():
    rows = [[1.0, 2.0, 3.0, 0.0],
            [0.0, 0.0, 0.0, 1e-9], [0.0, 0.0, 0.0, 2e-9],  # floor 1e-9
            [0.0, 1e3, 0.0, 1e-6], [0.0, 1e3, 0.0, 2e-6],  # 1e-9 * norm
            [1e200, 1e200, 0.0, 1.0]]  # the norm overflows to inf
    want = [True, True, False, True, False, True]
    assert [bool(lambda4_degenerate(r)) for r in rows] == want
    npt.assert_array_equal(lambda4_degenerate(np.array(rows).T), want)


def test_sk_rank_positive_and_validated(arm):
    assert sk_rank(arm, ref.X0, 1) > 1e-3
    assert sk_rank(arm, ref.X0, 2) > 1e-3
    with pytest.raises(ValueError):
        sk_rank(arm, ref.X0, 0)
    with pytest.raises(ValueError):
        sk_rank(arm, ref.X0, 3)


def test_costate_on_surface_reproduces_the_frozen_costate(arm):
    lam = costate_on_surface(arm, ref.X0, ref.LAMBDA2, ref.LAMBDA4)
    npt.assert_array_equal(lam, ref.LAM0)
    assert lam[1] == ref.LAMBDA2 and lam[3] == ref.LAMBDA4
    # third component magnitude agrees with the published 4-digit value
    assert abs(lam[2]) == pytest.approx(10.2330, abs=1e-4)


def test_law_coefficients_at_the_reference_state(arm):
    coeffs = singular_law_coeffs(arm, ref.X0, c=ref.U2_BANG)
    assert coeffs.r == pytest.approx(ref.LAW_R_AT_X0, rel=1e-12)
    assert coeffs.s == pytest.approx(ref.LAW_S_AT_X0, rel=1e-12)
    assert coeffs.c == ref.U2_BANG


def test_law_basis_annihilates_g1_and_fg1(arm):
    coeffs = singular_law_coeffs(arm, ref.X0, c=ref.U2_BANG)
    g1 = iterated_bracket(arm, "g1", ref.X0)
    fg1 = iterated_bracket(arm, "fg1", ref.X0)
    g2 = iterated_bracket(arm, "g2", ref.X0)
    for basis in (coeffs.a_basis, coeffs.b_basis):
        scale = max(np.linalg.norm(basis), 1.0)
        assert abs(basis @ g1) <= 1e-12 * scale
        assert abs(basis @ fg1) <= 1e-12 * scale
    assert coeffs.b_dot_g2 == pytest.approx(coeffs.b_basis @ g2, rel=1e-12)
    # the two basis vectors are independent by construction
    assert np.linalg.matrix_rank(np.stack([coeffs.a_basis,
                                           coeffs.b_basis])) == 2


def test_law_shift_is_affine_in_the_bang_value(arm):
    c0 = singular_law_coeffs(arm, ref.X0, c=0.0)
    cm = singular_law_coeffs(arm, ref.X0, c=ref.U2_BANG)
    assert cm.r == c0.r
    expect = c0.s - (c0.alpha2 / c0.alpha1) * ref.U2_BANG
    assert cm.s == pytest.approx(expect, rel=1e-12)


def test_law_refuses_states_outside_the_admissible_set(arm):
    with pytest.raises(RkViolation):
        singular_law_coeffs(arm, [0.1, math.pi / 2, 0.3, 0.5], c=-10.0)
    with pytest.raises(RkViolation):
        singular_u1(arm, [0.1, 0.2, 0.3, -0.3], ref.LAM0, c=-10.0)


def test_singular_u1_reference_value_and_admissibility(arm, bounds):
    u1 = singular_u1(arm, ref.X0, ref.LAM0, c=ref.U2_BANG)
    assert u1 == pytest.approx(ref.U1_START, rel=1e-12)
    assert bounds.contains(0, u1)


def test_singular_u1_rejects_degenerate_lambda4(arm):
    lam = np.array([1.0, 2.0, 3.0, 0.0])
    with pytest.raises(CostateDegenerate):
        singular_u1(arm, ref.X0, lam, c=-10.0)


def test_singular_u1_is_invariant_under_positive_costate_scaling(arm):
    base = singular_u1(arm, ref.X0, ref.LAM0, c=ref.U2_BANG)
    doubled = singular_u1(arm, ref.X0, 2.0 * np.asarray(ref.LAM0),
                          c=ref.U2_BANG)
    assert doubled == base
    scaled = singular_u1(arm, ref.X0, 2.5 * np.asarray(ref.LAM0),
                         c=ref.U2_BANG)
    assert scaled == pytest.approx(base, rel=1e-12)


U_ROUND = 2.0 ** -53  # unit roundoff of float64
entries = st.floats(-10.0, 10.0)
lambda4s = st.one_of(st.floats(0.1, 10.0), st.floats(-10.0, -0.1))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(x=st.tuples(st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi),
                   st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
       lam=st.tuples(entries, entries, entries, lambda4s),
       c=st.sampled_from((-10.0, 10.0)), exponent=st.integers(-20, 20),
       scale=st.floats(1e-3, 1e3))
def test_u1_is_invariant_under_positive_costate_scaling(arm, x, lam, c,
                                                        exponent, scale):
    """u1 = r*(l2/l4) + s sees the costate only through l2/l4, and
    |l4| >= 0.1 keeps the lambda4 guard far off at every scale (|l4|
    stays above 9e-8, against a guard floor of 1e-9).

    A power of two scales l2 and l4 exactly, so u1 is unchanged bit for
    bit.  Any other scale rounds s*l2 and s*l4 once each, so with u the
    unit roundoff the ratio moves by at most 4u/(1-u)^2 relative to
    rho = fl(l2/l4); the product r*rho and the sum with s each round
    once more, giving |du1| <= (6|r*rho| + 2|u1|) * u * (1 + 1e-12).
    """
    assume(in_Rk(x, 1e-3))
    lam = np.asarray(lam)
    try:
        base = singular_u1(arm, x, lam, c)
    except RkViolation:  # mu, alpha1 or <b, g2> degenerate at x
        reject()
    assert singular_u1(arm, x, math.ldexp(1.0, exponent) * lam, c) == base
    law = singular_law_coeffs(arm, x, c)
    rho = lam[1] / lam[3]
    bound = (6.0 * abs(law.r * rho) + 2.0 * abs(base)) * U_ROUND * (1 + 1e-12)
    assert abs(singular_u1(arm, x, scale * lam, c) - base) <= bound


def test_general_route_agrees_with_the_closed_form(arm):
    closed = singular_u1(arm, ref.X0, ref.LAM0, c=ref.U2_BANG)
    ubar = general_singular_solve(arm, ref.X0, ref.LAM0, k=2,
                                  c_k=ref.U2_BANG)
    assert ubar.shape == (1,)
    assert abs(ubar[0] - closed) <= 1e-8 * max(abs(closed), 1.0)


def test_general_system_fields(arm):
    system = general_singular_system(arm, ref.X0, ref.LAM0, k=2,
                                     c_k=ref.U2_BANG)
    assert system.k == 2 and system.c_k == ref.U2_BANG
    assert system.psi_k.shape == (1,) and system.A_k.shape == (1, 1)
    assert system.delta_k == pytest.approx(float(np.linalg.det(system.A_k)))
    assert system.phi_k < -0.1
    with pytest.raises(ValueError):
        general_singular_system(arm, ref.X0, ref.LAM0, k=3, c_k=0.0)


def test_reference_routes_never_run_compiled_code(monkeypatch):
    """Criterion 06's general route and the word_field reference stay off
    the tape, so a code-generation fault cannot hit them and the compiled
    paths they check in the same way."""
    def refuse(*args, **kwargs):
        raise AssertionError("a reference route ran compiled code")

    for name in ("__init__", "op", "compile"):
        monkeypatch.setattr(Tape, name, refuse)
    # the store, at each name it is imported under
    for module in (duals, liegeom, integrate):
        monkeypatch.setattr(module, "compiled", refuse)
    monkeypatch.setattr(liegeom, "word_kernel", refuse)
    plant = Arm2DOF()                    # no kernel built or cached yet
    X = ref.sample_states(np.random.default_rng(32), 8)
    for k, c_k in ((1, 20.0), (2, ref.U2_BANG)):
        general_singular_system(plant, ref.X0, ref.LAM0, k=k, c_k=c_k)
    general_singular_solve(plant, ref.X0, ref.LAM0, k=2, c_k=ref.U2_BANG)
    word_field(plant, "fffg2")(list(ref.X0))
    iterated_bracket(plant, "g1ffg2", ref.X0)
    iterated_bracket(plant, "g2fg2", X.T)


def test_general_route_degenerates_when_channel_one_is_bang(arm):
    """With channel 1 as the bang channel the coefficient matrix collapses:
    every g_i f g_j expansion has (numerically) no g1 component."""
    with pytest.raises(DegenerateSystem):
        general_singular_solve(arm, ref.X0, ref.LAM0, k=1, c_k=20.0)


def test_general_route_requires_a_separated_bang_channel(arm):
    lam = np.array([1.0, 0.0, 0.0, 0.0])  # phi_2 = 0 for this costate
    with pytest.raises(DegenerateSystem):
        general_singular_solve(arm, ref.X0, lam, k=2, c_k=-10.0)


def test_solved_control_zeroes_the_second_derivative(arm):
    ubar = general_singular_solve(arm, ref.X0, ref.LAM0, k=2,
                                  c_k=ref.U2_BANG)
    u = np.array([ubar[0], ref.U2_BANG])
    dd = phi_second_derivative(arm, ref.X0, ref.LAM0, u)
    lam_norm = float(np.linalg.norm(ref.LAM0))
    assert abs(dd[0]) <= 1e-8 * lam_norm


def test_phi_second_derivative_matches_time_differentiation(arm, sat_sing_sat):
    """On a saturated flank (constant control, exact RK4 samples) the
    reported phi'' must match d(phi')/dt computed from the time series."""
    traj, _, core_stop = sat_sing_sat
    rows = slice(core_stop + 1, core_stop + 201)  # strictly inside the flank
    t = traj.t[rows]
    phi_dot = np.empty((t.size, 2))
    dd = np.empty((t.size, 2))
    for k, idx in enumerate(range(rows.start, rows.stop)):
        rec = switching(arm, traj.x[idx], traj.lam[idx])
        phi_dot[k] = rec.phi_dot
        dd[k] = phi_second_derivative(arm, traj.x[idx], traj.lam[idx],
                                      traj.u[idx])
    grad = np.gradient(phi_dot, t, axis=0)
    # drop the window edges: gradient falls back to one-sided stencils there
    rel = np.abs(grad - dd)[1:-1] / np.maximum(np.abs(dd), 1e-6)[1:-1]
    assert float(rel.max()) <= 1e-4
