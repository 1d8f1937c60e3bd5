"""Bracket calculus: convention checks, FD cross-validation, span results."""
import numpy as np
import numpy.testing as npt
import pytest

import reference as ref
from oracles import fd_jacobian, fd_word, rel_err, H_JACOBIAN
from singarc.arm2dof import Arm2DOF
from singarc.errors import DerivativeUnavailable, SpanViolation
from singarc.liegeom import (_alpha_solve, alpha_coefficients,
                             b_set_certificate, bracket_field, drift_field,
                             frame_rank, input_field, iterated_bracket,
                             lie_bracket, parse_word, u1_singular_brackets,
                             word_field)
from singarc.pmp import general_singular_system

DEPTH3_WORDS = ("ffg1", "ffg2", "g1fg1", "g1fg2", "g2fg1", "g2fg2")


def test_bracket_is_antisymmetric(arm):
    rng = np.random.default_rng(10)
    f = drift_field(arm)
    g1 = input_field(arm, 0)
    fg2 = word_field(arm, "fg2")
    for x in ref.sample_states(rng, 8):
        for a, b in ((f, g1), (f, fg2), (g1, fg2)):
            npt.assert_array_equal(lie_bracket(a, b, x),
                                   -lie_bracket(b, a, x))


def test_input_fields_commute_exactly(arm):
    """[g1, g2] = 0: the input columns depend on q only, and both fields
    move purely in the velocity coordinates."""
    rng = np.random.default_rng(11)
    X = ref.sample_states(rng, 50)
    w = lie_bracket(input_field(arm, 0), input_field(arm, 1), X.T)
    npt.assert_array_equal(w, np.zeros_like(w))


def test_jacobi_identity(arm):
    rng = np.random.default_rng(12)
    f = drift_field(arm)
    g1 = input_field(arm, 0)
    g2 = input_field(arm, 1)
    for x in ref.sample_states(rng, 6):
        t1 = lie_bracket(f, bracket_field(g1, g2), x)
        t2 = lie_bracket(g1, bracket_field(g2, f), x)
        t3 = lie_bracket(g2, bracket_field(f, g1), x)
        scale = max(np.linalg.norm(t) for t in (t1, t2, t3))
        assert np.linalg.norm(t1 + t2 + t3) <= 1e-9 * max(scale, 1.0)


def test_fg_top_block_is_minus_input_column(arm):
    rng = np.random.default_rng(13)
    for x in ref.sample_states(rng, 10):
        G = arm.input_columns(x)
        for i, word in enumerate(("fg1", "fg2")):
            w = iterated_bracket(arm, word, x)
            npt.assert_array_equal(w[:2], -G[2:, i])


def test_gfg_top_block_vanishes(arm):
    rng = np.random.default_rng(14)
    X = ref.sample_states(rng, 25)
    for word in ("g1fg1", "g1fg2", "g2fg1", "g2fg2"):
        w = iterated_bracket(arm, word, X.T)
        npt.assert_array_equal(w[:2], np.zeros_like(w[:2]))


def test_single_letter_words_are_the_fields(arm):
    x = np.asarray(ref.X0)
    npt.assert_array_equal(iterated_bracket(arm, "f", x), arm.drift(x))
    npt.assert_array_equal(iterated_bracket(arm, "g2", x),
                           arm.input_columns(x)[:, 1])


def test_word_parsing_and_limits(arm):
    assert parse_word("ffg2") == ("f", "f", "g2")
    assert parse_word(("f", "g1")) == ("f", "g1")
    assert word_field(arm, "ffg1").name == "[f,[f,g1]]"
    with pytest.raises(ValueError):
        parse_word("f g1")
    with pytest.raises(ValueError):
        parse_word("")
    with pytest.raises(ValueError):
        word_field(arm, "fg3")  # no third input channel
    with pytest.raises(DerivativeUnavailable):
        word_field(arm, "ffffg1")  # five letters, depth cap is four


def test_brackets_match_finite_differences(arm):
    rng = np.random.default_rng(15)
    states = ref.sample_states(rng, 20)
    for word in ("fg1", "fg2") + DEPTH3_WORDS:
        oracle = fd_word(arm, word)
        for x in states:
            err = rel_err(oracle(x), iterated_bracket(arm, word, x))
            assert err <= 1e-6, (word, x, err)


def test_depth_four_brackets_match_finite_differences(arm):
    rng = np.random.default_rng(16)
    for word in ("fffg2", "g1ffg2"):
        oracle = fd_word(arm, word)
        for x in ref.sample_states(rng, 4):
            err = rel_err(oracle(x), iterated_bracket(arm, word, x))
            assert err <= 1e-4, (word, x, err)


def test_alpha_reconstructs_the_gfg_brackets(arm):
    rng = np.random.default_rng(17)
    for x in ref.sample_states(rng, 10):
        alpha = alpha_coefficients(arm, x)
        assert alpha.residual <= 1e-9
        G = arm.input_columns(x)
        for i in range(2):
            for j in range(2):
                w = iterated_bracket(arm, f"g{i + 1}fg{j + 1}", x)
                recon = G @ alpha.values[i, j]
                npt.assert_allclose(recon, w, rtol=0,
                                    atol=1e-9 * max(np.linalg.norm(w), 1.0))


def test_alpha_is_symmetric_and_batched_sweep_stays_in_span(arm):
    rng = np.random.default_rng(18)
    X = ref.sample_states(rng, 1000)
    alpha = alpha_coefficients(arm, X.T)
    assert alpha.residual <= 1e-9
    assert alpha.values.shape == (2, 2, 2, 1000)
    npt.assert_array_equal(alpha.values[0, 1], alpha.values[1, 0])


def test_compiled_alpha_is_the_general_routes_alpha(arm):
    """alpha_coefficients (compiled columns) equals, under ==, the alpha
    general_singular_system solves from word_field columns."""
    X = ref.sample_states(np.random.default_rng(24), 1000).T
    got = alpha_coefficients(arm, X)
    comps = list(X)
    _, L = arm.dyn(comps)
    want = _alpha_solve(L, [word_field(arm, w)(comps)
                            for w in ("g1fg1", "g1fg2", "g2fg2")])
    npt.assert_array_equal(got.values, want.values)
    assert got.residual == want.residual
    for k in range(X.shape[1]):
        system = general_singular_system(arm, X[:, k], ref.LAM0, k=2,
                                         c_k=ref.U2_BANG)
        assert system.b_kk[0] == got.values[0, 1, 1, k]
        assert system.A_k[0, 0] == got.values[0, 0, 1, k]
        if k % 10 == 0:
            system = general_singular_system(arm, X[:, k], ref.LAM0, k=1,
                                             c_k=20.0)
            assert system.b_kk[0] == got.values[1, 0, 0, k]
            assert system.A_k[0, 0] == got.values[1, 1, 0, k]


def test_beta_contracts_alpha_against_the_control(arm):
    alpha = alpha_coefficients(arm, ref.X0)
    for j, e in enumerate(np.eye(2)):
        npt.assert_array_equal(alpha.beta(e), alpha.values[:, j, :])
    u = np.array([1.3, -0.4])
    expect = u[0] * alpha.values[:, 0, :] + u[1] * alpha.values[:, 1, :]
    npt.assert_allclose(alpha.beta(u), expect, rtol=1e-13)


def test_alpha_span_violation_is_detectable(arm):
    with pytest.raises(SpanViolation):
        alpha_coefficients(arm, ref.X0, rtol=1e-30)


def test_frame_rank_positive(arm):
    assert frame_rank(arm, ref.X0) > 1e-3
    rng = np.random.default_rng(19)
    X = ref.sample_states(rng, 32)
    s = frame_rank(arm, X.T)
    assert s.shape == (32,)
    assert np.all(s > 0)


def test_b_set_is_degenerate_for_both_bang_values(arm):
    """{g2, fg2, ffg2, fffg2 + c g1ffg2} never reaches rank 4: the family
    lies in the kernel of the conserved-momentum differential (see the
    matching certificate test below), so the fourth singular value is
    rounding noise for either bang sign."""
    for c in (20.0, -20.0):
        ok, ev = b_set_certificate(arm, ref.X0, c)
        assert ok is False
        assert ev["sigma_max"] > 0.1
        assert ev["sigma_min"] <= 1e-12 * ev["sigma_max"]


def test_b_set_rank_agrees_with_numpy_matrix_rank(arm):
    rng = np.random.default_rng(20)
    for x in ref.sample_states(rng, 6):
        for c in (20.0, -20.0):
            cols = [iterated_bracket(arm, w, x)
                    for w in ("g2", "fg2", "ffg2")]
            cols.append(iterated_bracket(arm, "fffg2", x)
                        + c * iterated_bracket(arm, "g1ffg2", x))
            assert np.linalg.matrix_rank(np.stack(cols, axis=1)) == 3


def test_momentum_differential_annihilates_the_b_set(arm):
    """p1 = (M qdot)_1 obeys p1' = u1, so dp1 pairs to zero with every
    bracket word built from f, g2 alone and with fffg2's g1-correction."""
    def p1(x):
        M = arm.mass_matrix(x[:2])
        return np.array([M[0, 0] * x[2] + M[0, 1] * x[3]])

    rng = np.random.default_rng(21)
    for x in ref.sample_states(rng, 6):
        dp1 = fd_jacobian(p1, x, H_JACOBIAN)[0]
        for w in ("g2", "fg2", "ffg2", "fffg2", "g1ffg2"):
            vec = iterated_bracket(arm, w, x)
            pairing = abs(dp1 @ vec)
            assert pairing <= 1e-8 * max(
                np.linalg.norm(dp1) * np.linalg.norm(vec), 1.0), (w, pairing)
        # f itself pairs to zero too (no applied torque in the drift)
        assert abs(dp1 @ arm.drift(x)) <= 1e-8
        # g1 does not: that is the actuation direction
        assert abs(dp1 @ arm.input_columns(x)[:, 0]) > 0.9


def test_b_set_certificate_requires_two_channels(arm):
    class ThreeDof(Arm2DOF):
        n = 3

    with pytest.raises(ValueError):
        b_set_certificate(ThreeDof(), ref.X0, 20.0)


def test_fused_tableau_matches_word_fields(arm):
    rng = np.random.default_rng(22)
    words = ("f", "g1", "g2", "fg1", "fg2", "ffg1", "g1fg1", "g1fg2")
    for x in ref.sample_states(rng, 10):
        tab = u1_singular_brackets(arm, x)
        for word in words:
            got = np.asarray(getattr(tab, word), dtype=float)
            want = iterated_bracket(arm, word, x)
            npt.assert_allclose(got, want, rtol=0,
                                atol=1e-12 * max(np.linalg.norm(want), 1.0))
        npt.assert_array_equal(np.asarray(tab.L), arm.input_columns(x)[2:])


def test_fused_tableau_jacobian_slots_match_finite_differences(arm):
    x = np.asarray(ref.X0)
    tab = u1_singular_brackets(arm, x)
    J = fd_jacobian(lambda y: arm.drift(y), x, H_JACOBIAN)
    npt.assert_allclose(np.stack(tab.df_cols, axis=1), J, rtol=0, atol=1e-7)

    def L_entries(y):
        G = arm.input_columns(y)
        return np.array([G[2, 0], G[2, 1], G[3, 0], G[3, 1]])

    JL = fd_jacobian(L_entries, x, H_JACOBIAN)
    got = np.array([[tab.dL[0][0][i] for i in range(4)],
                    [tab.dL[0][1][i] for i in range(4)],
                    [tab.dL[1][0][i] for i in range(4)],
                    [tab.dL[1][1][i] for i in range(4)]])
    npt.assert_allclose(got, JL, rtol=0, atol=1e-7)


def test_fused_tableau_supports_batched_states(arm):
    rng = np.random.default_rng(23)
    X = ref.sample_states(rng, 16)
    batch = u1_singular_brackets(arm, X.T)
    for k, x in enumerate(X):
        single = u1_singular_brackets(arm, x)
        for word in ("f", "fg1", "ffg1", "g1fg1", "g1fg2"):
            got = np.asarray(getattr(batch, word), dtype=float)[:, k]
            want = np.asarray(getattr(single, word), dtype=float)
            npt.assert_allclose(got, want, rtol=1e-13, atol=1e-13)
