"""Bracket calculus: convention checks, FD cross-validation, span results."""
import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from oracles import (alpha_beta, fd_jacobian, fd_word, plant_fields,
                     rel_err, H_JACOBIAN)
from singarc import liegeom
from singarc.arm2dof import Arm2DOF, ArmParams
from singarc.errors import DerivativeUnavailable, SpanViolation
from singarc.liegeom import (B_SET_RTOL, WORD_CHUNK, _alpha_solve, _b_set_family,
                             _b_set_screen, _b_set_verdict, _frame_screen,
                             _frame_words, _word_columns, alpha_coefficients,
                             b_set_certificate, bracket_field, certify_sweep,
                             drift_field, frame_rank, input_field,
                             iterated_bracket, merge_sweeps, parse_word,
                             u1_singular_brackets, word_field)
from singarc.pmp import general_singular_system

DEPTH3_WORDS = ("ffg1", "ffg2", "g1fg1", "g1fg2", "g2fg1", "g2fg2")


def test_bracket_is_antisymmetric(arm):
    rng = np.random.default_rng(10)
    f = drift_field(arm)
    g1 = input_field(arm, 0)
    fg2 = word_field(arm, "fg2")
    for x in ref.sample_states(rng, 8):
        comps = x.tolist()
        for a, b in ((f, g1), (f, fg2), (g1, fg2)):
            npt.assert_array_equal(bracket_field(a, b)(comps),
                                   -np.asarray(bracket_field(b, a)(comps)))


def test_input_fields_commute_exactly(arm):
    """[g1, g2] = 0: the input columns depend on q only, and both fields
    move purely in the velocity coordinates."""
    rng = np.random.default_rng(11)
    X = ref.sample_states(rng, 50)
    w = np.asarray(bracket_field(input_field(arm, 0),
                                 input_field(arm, 1))(list(X.T)))
    npt.assert_array_equal(w, np.zeros_like(w))


def test_jacobi_identity(arm):
    rng = np.random.default_rng(12)
    f = drift_field(arm)
    g1 = input_field(arm, 0)
    g2 = input_field(arm, 1)
    for x in ref.sample_states(rng, 6):
        comps = x.tolist()
        t1, t2, t3 = (np.asarray(bracket_field(a, bracket_field(b, c))(comps))
                      for a, b, c in ((f, g1, g2), (g1, g2, f), (g2, f, g1)))
        scale = max(np.linalg.norm(t) for t in (t1, t2, t3))
        assert np.linalg.norm(t1 + t2 + t3) <= 1e-9 * max(scale, 1.0)


def test_fg_top_block_is_minus_input_column(arm):
    rng = np.random.default_rng(13)
    for x in ref.sample_states(rng, 10):
        _, L = arm.dyn(x.tolist())
        for i, word in enumerate(("fg1", "fg2")):
            w = iterated_bracket(arm, word, x)
            npt.assert_array_equal(w[:2], [-L[0][i], -L[1][i]])


def test_gfg_top_block_vanishes(arm):
    rng = np.random.default_rng(14)
    X = ref.sample_states(rng, 25)
    for word in ("g1fg1", "g1fg2", "g2fg1", "g2fg2"):
        w = iterated_bracket(arm, word, X.T)
        npt.assert_array_equal(w[:2], np.zeros_like(w[:2]))


def test_single_letter_words_are_the_fields(arm):
    x = np.asarray(ref.X0)
    f, L = arm.dyn(x.tolist())
    npt.assert_array_equal(iterated_bracket(arm, "f", x), f)
    npt.assert_array_equal(iterated_bracket(arm, "g2", x),
                           [0.0, 0.0, L[0][1], L[1][1]])


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
        G = np.vstack([np.zeros((2, 2)), arm.dyn(x.tolist())[1]])
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
    lams = np.tile(ref.LAM0[:, None], (1, X.shape[1]))
    system = general_singular_system(arm, X, lams, k=2, c_k=ref.U2_BANG)
    npt.assert_array_equal(system.b_kk, got.values[0, 1, 1])
    npt.assert_array_equal(system.A_k, got.values[0, 0, 1])
    system = general_singular_system(arm, X, lams, k=1, c_k=20.0)
    npt.assert_array_equal(system.b_kk, got.values[1, 0, 0])
    npt.assert_array_equal(system.A_k, got.values[1, 1, 0])


def test_beta_contracts_alpha_against_the_control(arm):
    alpha = alpha_coefficients(arm, ref.X0)
    for j, e in enumerate(np.eye(2)):
        npt.assert_array_equal(alpha_beta(alpha, e), alpha.values[:, j, :])
    u = np.array([1.3, -0.4])
    expect = u[0] * alpha.values[:, 0, :] + u[1] * alpha.values[:, 1, :]
    npt.assert_allclose(alpha_beta(alpha, u), expect, rtol=1e-13)


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
        (m11, m12), _ = arm.mass_entries(x[:2].tolist())
        return np.array([m11 * x[2] + m12 * x[3]])

    rng = np.random.default_rng(21)
    for x in ref.sample_states(rng, 6):
        dp1 = fd_jacobian(p1, x, H_JACOBIAN)[0]
        for w in ("g2", "fg2", "ffg2", "fffg2", "g1ffg2"):
            vec = iterated_bracket(arm, w, x)
            pairing = abs(dp1 @ vec)
            assert pairing <= 1e-8 * max(
                np.linalg.norm(dp1) * np.linalg.norm(vec), 1.0), (w, pairing)
        f, L = arm.dyn(x.tolist())
        # f itself pairs to zero too (no applied torque in the drift)
        assert abs(dp1 @ f) <= 1e-8
        # g1 does not: that is the actuation direction
        assert abs(dp1[2:] @ [L[0][0], L[1][0]]) > 0.9


BANGS = (-20.0, 20.0)


def _screen_and_svd(family, c):
    """The screen's decided mask and _b_set_verdict's (ok, evidence) at c."""
    return next(_b_set_screen(family, (c,))), _b_set_verdict(family, c)


# angles and rates in the certify box and far beyond it: at rates near
# 1e12 the fourth bracket words leave the screen's range
screen_angles = st.floats(-3.2, 3.2) | st.floats(-50.0, 50.0)
screen_rates = (st.floats(-2.0, 2.0) | st.floats(-1e3, 1e3)
                | st.floats(-1e12, 1e12))
screen_states = st.lists(st.tuples(screen_angles, screen_angles,
                                   screen_rates, screen_rates),
                         min_size=1, max_size=16)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(states=screen_states, c=st.sampled_from(BANGS))
def test_every_screened_b_set_verdict_is_the_svds(arm, states, c):
    """The screen decides only failures, and each one is a failure of
    _b_set_verdict's SVD, sample by sample."""
    family = _b_set_family(arm, np.array(states).T)
    decided, (ok, _) = _screen_and_svd(family, c)
    assert decided.shape == ok.shape == (len(states),)
    assert not (decided & ok).any()


def test_the_screen_decides_the_certify_box_and_agrees(arm):
    rng = np.random.default_rng(25)
    family = _b_set_family(arm, ref.sample_states(rng, 2000).T)
    for c, decided in zip(BANGS, _b_set_screen(family, BANGS)):
        ok, _ = _b_set_verdict(family, c)
        assert not ok.any()
        assert decided.mean() >= 0.99


@pytest.mark.parametrize("k", range(-16, -5))
def test_the_screen_sends_states_near_rtol_to_the_svd(k):
    """Fourth columns 10^k * sigma_max off the span of the other three:
    every decided verdict is the SVD's failure and no state whose SVD
    ratio is above rtol/2 is decided.  At k = -10 such states fail the
    SVD and still go to it; from k = -11 down the screen decides all."""
    rng = np.random.default_rng(100 + k)
    N, c = 200, 20.0
    shared = rng.normal(size=(N, 4, 3))
    q, _ = np.linalg.qr(shared, mode="complete")
    normal = q[:, :, 3]                       # unit, orthogonal to the span
    scale = np.linalg.norm(shared, ord=2, axis=(1, 2))
    v = (shared @ rng.normal(size=(N, 3, 1)))[:, :, 0] \
        + 10.0 ** k * scale[:, None] * normal
    g1ffg2 = rng.normal(size=(N, 4))
    family = np.stack([shared[:, :, 0], shared[:, :, 1], shared[:, :, 2],
                       v - c * g1ffg2, g1ffg2]).transpose(0, 2, 1)
    decided, (ok, ev) = _screen_and_svd(family, c)
    ratio = ev["sigma_min"] / ev["sigma_max"]
    near = ratio > 0.5 * B_SET_RTOL
    assert not (decided & ok).any()
    assert not decided[near].any()
    if k == -10:
        assert near.any() and not ok[near].any()
    if k <= -11:
        assert decided.all()


def test_a_non_finite_column_is_never_screened(arm):
    """inf and nan entries fall outside the screen's range: those states
    go to the SVD, which treats them as it always did, and the screen's
    arithmetic on the rest raises no floating-point error."""
    family = _b_set_family(arm, ref.sample_states(
        np.random.default_rng(26), 8).T)
    family[0, 2, 0] = np.inf
    family[3, 3, 1] = np.nan
    family[4, 0, 2] = -np.inf
    family[3, 1, 3] = 1e300          # finite, beyond the range
    with np.errstate(all="raise"):
        for c, decided in zip(BANGS, _b_set_screen(family, BANGS)):
            assert not decided[:4].any()
            assert decided[4:].all()
            with pytest.raises(np.linalg.LinAlgError):
                _b_set_verdict(family[:, :, :3], c)


def test_the_sweep_takes_the_svd_verdict_where_the_screen_is_undecided(
        monkeypatch, arm):
    """With an SVD that passes every state it is given, the sweep's
    failures are exactly the screened ones: undecided states take the
    SVD's verdict, not the screen's."""
    states = ref.sample_states(np.random.default_rng(27), 3000)
    states[::50, 2:] *= 1e12       # fourth words beyond the screen's range
    family = _b_set_family(arm, states.T)
    screened = list(_b_set_screen(family, BANGS))
    monkeypatch.setattr(liegeom, "_b_set_verdict", lambda family, c: (
        np.ones(family.shape[-1], dtype=bool), None))
    sweep = liegeom.certify_sweep(arm, (states,), BANGS)
    for (c, count, velocity), decided in zip(sweep.b_set, screened):
        assert c in BANGS and 0 < count == decided.sum() < len(states)
        assert velocity == np.abs(states[decided, 2]
                                  + states[decided, 3]).max()


# a plant unlike the reference arm in every parameter; its frame is skew
# only to ~1e-13 at the largest rates below
SECOND = Arm2DOF(ArmParams(link_length=(0.6, 0.4), com_position=(0.3, 0.25),
                           mass=(12.0, 4.0), inertia_z=(0.8, 0.3)))


def _frame(plant, X):
    """The frame's word columns at the rows of X: (4, 4, N)."""
    return np.asarray(_word_columns(plant, _frame_words(2), X.T))


def test_the_frame_is_skew_symmetric_to_round_off(arm):
    """[g_i, fg_i] = [[0, -M^-1], [M^-1, B]] with B antisymmetric: the
    frame screen is tight because of this (and valid without it)."""
    X = ref.sample_states(np.random.default_rng(28), 2000)
    for plant in (arm, SECOND):
        A = _frame(plant, X).T                          # (N, 4, 4)
        skew = np.linalg.norm(A + A.transpose(0, 2, 1), axis=(1, 2))
        assert (skew <= 1e-13 * np.linalg.norm(A, axis=(1, 2))).all()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(states=st.lists(st.tuples(screen_angles, screen_angles,
                                 st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
                       min_size=1, max_size=16),
       k=st.integers(-20, 20), second=st.booleans())
def test_the_frame_screen_brackets_lapacks_sigma_min(arm, states, k, second):
    """At every state, with rates scaled by 2^k, [low, high] holds
    frame_rank's LAPACK value, and a decided bracket is within 1e-8
    sigma_max wide."""
    plant = SECOND if second else arm
    X = np.array(states)
    X[:, 2:] *= 2.0 ** k
    frame = _frame(plant, X)
    low, high = _frame_screen(frame)
    smin = frame_rank(plant, X.T)
    assert (low <= smin).all() and (smin <= high).all()
    decided = np.isfinite(low)
    smax = np.linalg.norm(frame.T[decided], 2, axis=(1, 2))
    assert (high[decided] - low[decided] <= 1e-8 * smax).all()


def test_the_frame_screen_holds_at_a_double_singular_pair():
    """Skew frames with w1 = w2 (1 + d), d down to 0, plus a symmetric
    part from round-off to 1e-3 w1: where the roots of s and Pf^2 would
    lose sqrt(u), the bracket still holds LAPACK's sigma_min and is no
    wider than Weyl's bound and the 2^-30 margin make it."""
    rng = np.random.default_rng(29)
    N = 400
    q, _ = np.linalg.qr(rng.normal(size=(N, 4, 4)))
    w2 = 10.0 ** rng.uniform(-3, 3, N)
    w1 = w2 * (1.0 + np.where(np.arange(N) % 4 == 0, 0.0,
                              10.0 ** rng.uniform(-16, -4, N)))
    w1[1::8] = w2[1::8]
    w2[1::8] = 0.0                     # rank two
    J = np.zeros((N, 4, 4))
    J[:, 0, 1], J[:, 2, 3] = w1, w2
    J -= J.transpose(0, 2, 1)
    sym = rng.normal(size=(N, 4, 4)) * (
        10.0 ** rng.uniform(-16, -3, N) * w1)[:, None, None]
    sym += sym.transpose(0, 2, 1)
    A = q @ J @ q.transpose(0, 2, 1) + sym
    low, high = _frame_screen(A.T)
    smin = np.linalg.svd(A, compute_uv=False)[:, -1]
    assert np.isfinite(low).all()
    assert (low <= smin).all() and (smin <= high).all()
    width = 2.0 * np.linalg.norm(sym, axis=(1, 2)) + 1e-8 * w1
    assert (high - low <= width).all()


def test_out_of_range_frames_are_undecided_and_take_the_svd(arm):
    """Rates near 1e40 or 1e-200 put frame entries outside [2^-100, 2^100]:
    those states are undecided, and since they hold the sweep's smallest
    sigma_min, the sweep's minimum is frame_rank's only if they took the
    SVD.  That LAPACK value then bounds the next chunk, which sends no
    state to the SVD, not even a repeat of the best decided state."""
    X = ref.sample_states(np.random.default_rng(30), WORD_CHUNK + 300)
    X[:300:100, 2:] *= 1e40
    X[2:300:100, 2:] *= 1e-200
    low, high = _frame_screen(_frame(arm, X[:WORD_CHUNK]))
    undecided = np.isinf(low)
    assert undecided[:300:100].all() and undecided[2:300:100].all()
    assert undecided.sum() == 6 and np.isinf(high[undecided]).all()
    X[WORD_CHUNK] = X[high.argmin()]
    ranks = frame_rank(arm, X.T)
    assert ranks.argmin() in (0, 2, 100, 102, 200, 202)
    sweep = certify_sweep(arm, (X,), BANGS)
    assert sweep.min_frame_rank == float(ranks.min())
    assert sweep.frame_svd_states == np.count_nonzero(low <= high.min())


@pytest.mark.parametrize("scale", [2.0 ** -20, 1e-3, 1.0, 30.0, 2.0 ** 20])
def test_the_sweeps_frame_minimum_is_frame_ranks_bit_for_bit(arm, scale):
    """Across chunk boundaries, on both plants and at scaled rates, the
    screened sweep's minimum equals the full batch's LAPACK minimum."""
    X = ref.sample_states(np.random.default_rng(31), 9000)
    X[:, 2:] *= scale
    for plant in (arm, SECOND):
        sweep = certify_sweep(plant, (X,), BANGS)
        assert sweep.min_frame_rank == float(frame_rank(plant, X.T).min())
        assert sweep.frame_svd_states >= 1


# a few states past one chunk, so that splits can cross chunk boundaries
SPLIT_STATES = ref.sample_states(np.random.default_rng(32),
                                 2 * WORD_CHUNK + 40)
SPLIT_STATES[::97, 2:] *= 1e-200        # undecided by the frame screen
SPLIT_STATES[5::97, 2:] *= 1e12         # undecided by the B-set screen


@settings(max_examples=40, deadline=None, derandomize=True)
@given(sizes=st.lists(st.sampled_from([1, 7, WORD_CHUNK - 1, WORD_CHUNK,
                                       WORD_CHUNK + 1, 3 * WORD_CHUNK]),
                      min_size=1, max_size=8),
       second=st.booleans(), workers=st.integers(1, 4))
def test_the_sweep_does_not_depend_on_how_the_states_are_split(
        arm, sizes, second, workers):
    """certify_sweep over the rows of one array cut into blocks (of 1,
    WORD_CHUNK +- 1 or more rows, the last one what is left) reports what
    it reports over the whole array as one block, under ==; and so does
    merge_sweeps of the sweeps of the blocks dealt round-robin to up to
    four workers, as certify deals them."""
    plant = SECOND if second else arm
    want = certify_sweep(plant, (SPLIT_STATES,), BANGS)
    cuts = np.cumsum(sizes)
    blocks = np.split(SPLIT_STATES, cuts[cuts < len(SPLIT_STATES)])
    got = certify_sweep(plant, iter(blocks), BANGS)
    merged = merge_sweeps([certify_sweep(plant, iter(blocks[w::workers]),
                                         BANGS)
                           for w in range(min(workers, len(blocks)))])
    for sweep in (got, merged):
        assert sweep.min_frame_rank == want.min_frame_rank
        assert sweep.max_abs_alpha_ij1 == want.max_abs_alpha_ij1
        assert sweep.b_set == want.b_set


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
        npt.assert_array_equal(np.asarray(tab.L), arm.dyn(x.tolist())[1])


def test_fused_tableau_jacobian_slots_match_finite_differences(arm):
    x = np.asarray(ref.X0)
    tab = u1_singular_brackets(arm, x)
    J = fd_jacobian(plant_fields(arm)[0], x, H_JACOBIAN)
    npt.assert_allclose(np.stack(tab.df_cols, axis=1), J, rtol=0, atol=1e-7)

    def L_entries(y):
        return np.ravel(arm.dyn(y.tolist())[1])

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
