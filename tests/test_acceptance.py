"""End-to-end acceptance: one test per shipped guarantee.

Run with -v to get a pass/fail line per criterion.  Tolerances here are
the contract, not aspirations: loosening one is an interface change.

Criterion 5 checks the second-channel certificate against what this
plant admits.  The shoulder angle never enters the dynamics, so the shoulder
momentum p1 = M11(q2) v1 + M12(q2) v2 obeys p1' = u1: its differential dp1
annihilates every bracket of the certificate's family, and lambda = +-dp1
is a costate along any shoulder-bang run with phi2 identically zero.  The
certificate must therefore refuse at every state (rank exactly three, dp1
the left null vector), and second-channel singular extremals exist.  An
earlier form of the criterion demanded a >= 99% pass rate, i.e. an
exclusion that is false for this arm.
"""
import time

import numpy as np
import numpy.testing as npt

import reference as ref
from oracles import fd_word, lemma1_certificate, rel_err
from singarc.duals import Dual
from singarc.integrate import IntegratorConfig, hamiltonian_trace, \
    integrate_extremal
from singarc.liegeom import (alpha_coefficients, b_set_certificate,
                             bracket_field, frame_rank, input_field,
                             iterated_bracket)
from singarc.pmp import (costate_norm, costate_on_surface,
                         general_singular_solve, singular_u1, switching)
from singarc.regularize import (Tolerances, detect_singular_arcs,
                                regularize_u1, switching_series)

DEPTH3_WORDS = ("fg1", "fg2", "ffg1", "ffg2",
                "g1fg1", "g1fg2", "g2fg1", "g2fg2")


def test_criterion_01_reference_extremal_reconstruction(arm, bounds):
    """Fresh integration of the reference singular extremal: finishes the
    0.7 s horizon at step 1e-4 in under 5 s wall clock, keeps phi1 and
    phi1' pinned to zero, and reproduces the frozen endpoint."""
    start = time.perf_counter()
    lam0 = costate_on_surface(arm, ref.X0, ref.LAMBDA2, ref.LAMBDA4)
    traj = integrate_extremal(arm, ref.X0, lam0, IntegratorConfig(),
                              c=ref.U2_BANG, bounds=bounds)
    elapsed = time.perf_counter() - start

    assert traj.meta["abort"] is None and len(traj) == 7001
    assert elapsed < 5.0, f"construction took {elapsed:.2f}s"
    phi, phi_dot = switching_series(arm, traj)
    lam_max = float(np.linalg.norm(traj.lam, axis=1).max())
    assert float(np.abs(phi[:, 0]).max()) <= 1e-6 * lam_max
    assert float(np.abs(phi_dot[:, 0]).max()) <= 1e-5 * lam_max
    npt.assert_allclose(traj.x[-1], ref.X_END, rtol=0, atol=5e-13)


def test_criterion_02_bracket_identities_at_scale(arm):
    """10^4-state batched sweep in under 10 s: commuting input fields,
    vanishing top blocks of the second-order brackets, and alpha
    reconstruction residual at coefficient-solve accuracy."""
    rng = np.random.default_rng(100)
    batch = ref.sample_states(rng, 10_000).T
    start = time.perf_counter()

    w = np.asarray(bracket_field(input_field(arm, 0),
                                 input_field(arm, 1))(list(batch)))
    assert float(np.abs(w).max()) <= 1e-11

    for word in ("g1fg1", "g1fg2", "g2fg1", "g2fg2"):
        tops = iterated_bracket(arm, word, batch)[:2]
        assert float(np.abs(tops).max()) <= 1e-11

    alpha = alpha_coefficients(arm, batch)
    assert alpha.residual <= 1e-9

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"sweep took {elapsed:.2f}s"


def test_criterion_03_finite_difference_oracle_equivalence(arm):
    """Every bracket of depth <= 3 agrees with fourth-order central
    differences to 1e-6 relative at 100 random states."""
    rng = np.random.default_rng(101)
    states = ref.sample_states(rng, 100)
    worst = 0.0
    for word in DEPTH3_WORDS:
        oracle = fd_word(arm, word)
        for x in states:
            worst = max(worst, rel_err(oracle(x),
                                       iterated_bracket(arm, word, x)))
    assert worst <= 1e-6, f"worst relative error {worst:.3e}"


def test_criterion_04_frame_and_nontriviality_certificates(arm):
    """The input/velocity frame never collapses over 10^4 samples, and no
    nonzero costate can silence every switching function and rate."""
    rng = np.random.default_rng(102)
    states = ref.sample_states(rng, 10_000)
    ranks = frame_rank(arm, states.T)
    assert float(ranks.min()) > 0.0
    lams = rng.normal(size=(10_000, 4))
    for x, lam in zip(states, lams):
        assert lemma1_certificate(arm, x, lam)


def shoulder_momentum_differential(arm, x):
    """dp1 = (0, dM11/dq2 v1 + dM12/dq2 v2, M11, M12) for the shoulder
    momentum p1 = M11(q2) v1 + M12(q2) v2, by one dual seed in q2 through
    the inertia entries; no bracket code is involved.  x is one state or
    a (4, N) batch."""
    _, q2, v1, v2 = x
    (m11, m12), _ = arm.mass_entries([0.0, Dual(q2, 1.0)])
    return np.array([0.0 * v1, m11.im * v1 + m12.im * v2, m11.re, m12.re])


def test_criterion_05_second_channel_impossibility_evidence(arm):
    """alpha_ij1 vanishes over the sweep, and for both bang values c of the
    first channel the certificate for {g2, fg2, ffg2, fffg2 + c g1ffg2}
    gives the verdict the conserved shoulder momentum forces:

    (a) it refuses at every state, sigma_min <= 1e-12 sigma_max;
    (b) the family, built here word by word, has rank exactly three
        (sigma_3 >= 1e-5 sigma_1), and its sigma_1 is the certificate's
        sigma_max, so the verdict is about this family;
    (c) dp1, computed from the inertia entries alone, pairs to zero
        (1e-12 relative) with all four columns;
    (d) lambda = sign(c) dp1(x) solves the adjoint equation along a
        bang run u = (c, u2) with interior u2: it stays on dp1(x) to
        1e-10, phi2 stays zero (1e-12 relative) and phi1 = sign(c) selects
        u1 = c, so a second-channel singular extremal exists.

    The old contract, a >= 99% pass rate, asked for an exclusion that
    (d) disproves."""
    rng = np.random.default_rng(103)
    batch = ref.sample_states(rng, 10_000).T
    alpha = alpha_coefficients(arm, batch)
    assert float(np.abs(alpha.values[:, :, 0]).max()) <= 1e-9

    words = {w: iterated_bracket(arm, w, batch)
             for w in ("g2", "fg2", "ffg2", "fffg2", "g1ffg2")}
    dp1 = shoulder_momentum_differential(arm, batch)
    for c in (-20.0, 20.0):
        ok, ev = b_set_certificate(arm, batch, c)
        assert not np.any(ok), f"certificate passed for c = {c:g}"
        smin, smax = ev["sigma_min"], ev["sigma_max"]
        assert float((smin / smax).max()) <= 1e-12

        cols = [words["g2"], words["fg2"], words["ffg2"],
                words["fffg2"] + c * words["g1ffg2"]]
        s = np.linalg.svd(np.moveaxis(np.stack(cols, axis=1), -1, 0),
                          compute_uv=False)
        npt.assert_allclose(smax, s[:, 0], rtol=1e-12, atol=0)
        assert float((s[:, 2] / s[:, 0]).min()) >= 1e-5, \
            f"family rank below three for c = {c:g}"

        for k, col in enumerate(cols):
            pairing = np.abs(np.einsum("in,in->n", dp1, col)) / (
                np.linalg.norm(dp1, axis=0) * np.linalg.norm(col, axis=0))
            assert float(pairing.max()) <= 1e-12, (c, k, pairing.max())

        kappa = np.sign(c)
        lam0 = kappa * shoulder_momentum_differential(arm, ref.X0)
        xs, lams = ref.bang_run(arm, ref.X0, lam0, (c, 7.0), 1e-4, 1000)
        on_dp1 = kappa * shoulder_momentum_differential(arm, xs.T).T
        assert float(np.abs(lams - on_dp1).max()) <= 1e-10
        sw = switching(arm, xs.T, lams.T)
        scale = costate_norm(lams.T)
        assert float((np.abs(sw.phi[1]) / scale).max()) <= 1e-12
        assert float(np.abs(sw.phi[0] - kappa).max()) <= 1e-12


def test_criterion_06_cross_method_agreement_along_the_run(arm, extremal):
    """The closed-form law and the general route agree to 1e-8 N.m at
    every sample of the constructed extremal; the general route solves the
    whole run in one call."""
    closed = np.array([singular_u1(arm, x, lam, ref.U2_BANG, exclusion=1e-6)
                       for x, lam in zip(extremal.x, extremal.lam)])
    general = general_singular_solve(arm, extremal.x.T, extremal.lam.T, k=2,
                                     c_k=ref.U2_BANG)
    assert general.shape == closed.shape == (len(extremal),)
    worst = float(np.abs(closed - general).max())
    assert worst <= 1e-8, f"worst disagreement {worst:.3e} N.m"


def test_criterion_07_spike_regularization_round_trip(arm, extremal, spiked):
    """+-5 N.m spikes on 1% of u1 samples are removed to 1e-6 sup norm,
    and replaying the repaired control reaches the recorded endpoint to
    1e-3 relative."""
    corrupted, _ = spiked
    intervals = detect_singular_arcs(arm, corrupted)
    fixed, report = regularize_u1(arm, corrupted, intervals)
    sup = float(np.abs(fixed.u[:, 0] - extremal.u[:, 0]).max())
    assert sup <= 1e-6
    assert report.endpoint_error <= 1e-3


def test_criterion_08_interior_singular_arc_detection(arm, sat_sing_sat):
    """A run that saturates, goes singular, then saturates again yields
    exactly one detected interval, with phi1 > 0 on both saturated
    flanks."""
    traj, core_start, core_stop = sat_sing_sat
    intervals = detect_singular_arcs(arm, traj, tol=Tolerances(rel_band=1e-5))
    assert len(intervals) == 1
    iv = intervals[0]
    assert iv.channel == 1
    assert iv.start >= core_start - 10 and iv.stop <= core_stop + 10

    phi, _ = switching_series(arm, traj)
    assert float(phi[:core_start, 0].min()) > 0.0
    assert float(phi[core_stop + 1:, 0].min()) > 0.0
    npt.assert_array_equal(traj.u[:core_start, 0],
                           np.full(core_start, 20.0))


def test_criterion_09_integrator_convergence_order(arm):
    """Richardson step halving on the coupled state/costate system shows
    fourth-order behavior: consecutive error ratios inside [12, 20]."""
    lam0 = costate_on_surface(arm, ref.X0, ref.LAMBDA2, ref.LAMBDA4)
    ends = []
    for step in (5e-3, 2.5e-3, 1.25e-3, 6.25e-4):
        traj = integrate_extremal(arm, ref.X0, lam0,
                                  IntegratorConfig(step=step),
                                  c=ref.U2_BANG)
        ends.append(np.concatenate([traj.x[-1], traj.lam[-1]]))
    errs = [np.linalg.norm(ends[i] - ends[i + 1]) for i in range(3)]
    ratios = (errs[0] / errs[1], errs[1] / errs[2])
    for ratio in ratios:
        assert 12.0 <= ratio <= 20.0, f"ratios {ratios}"


def test_criterion_10_hamiltonian_constancy(arm, extremal):
    """The Hamiltonian stays constant along the constructed extremal to
    1e-4 absolute variation."""
    H = hamiltonian_trace(arm, extremal)
    assert float(H.max() - H.min()) <= 1e-4
