"""Singular-interval detection, control repair, and the PMP audit."""
import json
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from oracles import audit_labels, lemma1_certificate
from singarc.arm2dof import ControlBounds
from singarc.errors import MissingCostates
from singarc.integrate import (IntegratorConfig, Trajectory,
                               integrate_extremal, save_trajectory)
from singarc.pmp import (costate_on_surface, costate_ratio,
                         singular_law_coeffs, switching)
from singarc.regularize import (LABEL_BANG_IN_BAND, LABEL_LOWER,
                                LABEL_SINGULAR, LABEL_UNCHECKED, LABEL_UPPER,
                                LABEL_VIOLATION, AuditResult,
                                SingularInterval, Tolerances, _band_value,
                                _mask_runs, _merge_runs,
                                detect_singular_arcs, ingest, pmp_audit,
                                regularize_u1, switching_series)

E0 = np.array([1.0, 0.0, 0.0, 0.0])


def _assembled(lam_rows, u2_rows=None):
    """Trajectory with X0 tiled everywhere and prescribed costate rows."""
    n = len(lam_rows)
    t = np.arange(n) * 1e-3
    x = np.tile(ref.X0, (n, 1))
    u = np.column_stack([np.full(n, ref.U1_START),
                         np.full(n, ref.U2_BANG) if u2_rows is None
                         else np.asarray(u2_rows, dtype=float)])
    return Trajectory(t=t, x=x, u=u, lam=np.asarray(lam_rows, dtype=float))


def _surface_rows(n):
    return [ref.LAM0] * n


def test_ingest_preserves_sidecar_metadata(extremal_file):
    traj = ingest(extremal_file)
    assert traj.meta["source"] == "constructed"
    assert "no-costates" not in traj.meta["flags"]


def test_ingest_flags_missing_costates(extremal, tmp_path):
    bare = Trajectory(t=extremal.t[:20], x=extremal.x[:20], u=extremal.u[:20])
    path = str(tmp_path / "bare.csv")
    save_trajectory(bare, path)
    traj = ingest(path)
    assert "no-costates" in traj.meta["flags"]


def test_switching_series_matches_pointwise_evaluation(arm, extremal):
    phi, phi_dot = switching_series(arm, extremal)
    assert phi.shape == (len(extremal), 2)
    for i in range(len(extremal)):
        rec = switching(arm, extremal.x[i], extremal.lam[i])
        npt.assert_allclose(phi[i], rec.phi, rtol=1e-13)
        npt.assert_allclose(phi_dot[i], rec.phi_dot, rtol=1e-13)


def test_switching_series_needs_costates(arm, extremal):
    bare = Trajectory(t=extremal.t, x=extremal.x, u=extremal.u)
    with pytest.raises(MissingCostates):
        switching_series(arm, bare)


def test_detection_on_the_constructed_extremal(arm, extremal):
    intervals = detect_singular_arcs(arm, extremal)
    assert len(intervals) == 1
    iv = intervals[0]
    assert iv.channel == 1
    assert (iv.start, iv.stop) == (0, 7000)
    assert iv.t_start == 0.0 and iv.t_end == pytest.approx(0.7)
    assert iv.u2_bang_value == ref.U2_BANG
    assert iv.max_abs_phi <= 1e-12
    assert iv.max_abs_phi_dot <= 1e-12
    assert iv.indices == slice(0, 7001)


def test_transversal_crossing_is_not_detected(arm):
    """phi1 sweeps through zero with phi1' bounded away from it: a bang-bang
    switch, not a singular arc, and detection must stay silent."""
    n = 701
    t_axis = np.arange(n) * 1e-3
    lam = np.tile(E0, (n, 1))
    lam[:, 2] = t_axis - 0.35
    phi1_sign = np.where(lam[:, 2] >= 0.0, 1.0, -1.0)
    traj = Trajectory(t=t_axis, x=np.tile(ref.X0, (n, 1)),
                      u=np.column_stack([20.0 * phi1_sign,
                                         np.full(n, ref.U2_BANG)]),
                      lam=lam)
    phi, phi_dot = switching_series(arm, traj)
    assert phi[:, 0].min() < -0.01 and phi[:, 0].max() > 0.01
    assert np.abs(phi_dot[:, 0]).min() > 0.05
    assert detect_singular_arcs(arm, traj) == []


def test_detection_enforces_the_minimum_length(arm):
    short = _assembled(_surface_rows(9) + [E0] * 30)
    assert detect_singular_arcs(arm, short) == []
    long = _assembled(_surface_rows(12) + [E0] * 30)
    intervals = detect_singular_arcs(arm, long)
    assert len(intervals) == 1
    assert (intervals[0].start, intervals[0].stop) == (0, 11)


def test_detection_bridges_short_gaps_with_honest_maxima(arm):
    rows = _surface_rows(12) + [E0] * 2 + _surface_rows(12) + [E0] * 10
    traj = _assembled(rows)
    merged = detect_singular_arcs(arm, traj)
    assert len(merged) == 1
    assert (merged[0].start, merged[0].stop) == (0, 25)
    # the two bridged samples keep their large phi1' in the reported maxima
    assert merged[0].max_abs_phi_dot > 0.05

    split = detect_singular_arcs(arm, traj, tol=Tolerances(gap_samples=0,
                                                           min_samples=10))
    assert [(iv.start, iv.stop) for iv in split] == [(0, 11), (14, 25)]


def test_detection_infers_the_bang_value_from_the_u2_median(arm):
    ripple = np.where(np.arange(12) % 2 == 0, -9.7, -10.2)
    traj = _assembled(_surface_rows(12), u2_rows=ripple)
    assert detect_singular_arcs(arm, traj)[0].u2_bang_value == -10.0
    high = _assembled(_surface_rows(12), u2_rows=np.full(12, 9.8))
    assert detect_singular_arcs(arm, high)[0].u2_bang_value == 10.0


def test_costate_ratio_trace(extremal):
    trace = costate_ratio(extremal.lam.T)
    assert trace.shape == (len(extremal),)
    npt.assert_array_equal(trace,
                           extremal.lam[:, 1] / extremal.lam[:, 3])

    npt.assert_array_equal(costate_ratio(2.0 * extremal.lam.T), trace)

    scaled = costate_ratio(2.5 * extremal.lam.T)
    rel = np.abs(scaled - trace) / np.abs(trace)
    assert float(rel.max()) <= 1e-15
    # one float costate gives one float
    first = costate_ratio(extremal.lam[0].tolist())
    assert type(first) is float and first == trace[0]


def test_costate_ratio_is_step_invariant(arm, lam0, extremal):
    coarse = integrate_extremal(arm, ref.X0, lam0,
                                IntegratorConfig(step=2e-4), c=ref.U2_BANG)
    fine = costate_ratio(extremal.lam.T)[::2]
    rel = np.abs(costate_ratio(coarse.lam.T) - fine) / np.abs(fine)
    assert float(rel.max()) <= 1e-6


def test_costate_ratio_rejects_degenerate_lambda4(extremal):
    """A degenerate lambda4 gives nan on its row and nowhere else."""
    lam = np.array(extremal.lam[:20])
    lam[7, 3] = 0.0
    ratio = costate_ratio(lam.T)
    assert np.flatnonzero(np.isnan(ratio)).tolist() == [7]
    assert math.isnan(costate_ratio([1.0, 2.0, 3.0, 0.0]))
    # the guard is relative to costate_norm(lambda), with no floor: 1e-9
    # of the norm trips
    assert math.isnan(costate_ratio([0.0, 1e3, 0.0, 1e-6]))
    assert costate_ratio([0.0, 1e3, 0.0, 2e-6]) == 5e8


def test_spiked_controls_are_restored_exactly(arm, extremal, spiked):
    traj, rows = spiked
    assert rows.size == 70
    intervals = detect_singular_arcs(arm, traj)
    assert len(intervals) == 1
    fixed, report = regularize_u1(arm, traj, intervals)
    assert float(np.abs(fixed.u[:, 0] - extremal.u[:, 0]).max()) == 0.0
    npt.assert_array_equal(fixed.u[:, 1], extremal.u[:, 1])
    assert report.skipped_samples == ()
    assert report.flags == ()
    assert report.max_deviation[0] == pytest.approx(5.0, abs=1e-9)
    assert report.endpoint_error <= 1e-3
    assert report.endpoint_error_abs <= 1e-3
    assert fixed.meta["source"] == "regularized"
    assert report.pmp_consistency["u2"]["fraction"] == 1.0


def test_regularization_is_idempotent(arm, extremal):
    intervals = detect_singular_arcs(arm, extremal)
    once, report1 = regularize_u1(arm, extremal, intervals)
    assert report1.max_deviation[0] <= 1e-12  # clean input, clean law
    twice, _ = regularize_u1(arm, once, detect_singular_arcs(arm, once))
    assert float(np.abs(twice.u - once.u).max()) == 0.0


@settings(max_examples=10, deadline=None, derandomize=True)
@given(fraction=st.floats(0.01, 0.1), seed=st.integers(0, 2 ** 32 - 1))
def test_regularization_is_idempotent_under_spikes(arm, extremal, fraction,
                                                   seed):
    """Every 4th row of the reference run with +-5 N.m spikes on 1-10% of
    its u1 samples: a second detection and repair of the repaired run
    finds the same intervals, skips the same samples and leaves u alone,
    bit for bit."""
    rows = slice(None, None, 4)
    traj, _ = ref.with_spiked_u1(
        Trajectory(t=extremal.t[rows], x=extremal.x[rows],
                   u=extremal.u[rows], lam=extremal.lam[rows]),
        np.random.default_rng(seed), fraction)
    intervals = detect_singular_arcs(arm, traj)
    once, report1 = regularize_u1(arm, traj, intervals)
    again = detect_singular_arcs(arm, once)
    twice, report2 = regularize_u1(arm, once, again)
    assert again == intervals
    assert report2.skipped_samples == report1.skipped_samples
    assert twice.u.tobytes() == once.u.tobytes()


def test_regularization_fills_bang_samples_outside_intervals(arm):
    lam_out = np.array([0.0, 0.0, 1.0, 0.0])  # phi1 = mu > 0, upper bang
    traj = _assembled(_surface_rows(12) + [lam_out] * 20)
    intervals = detect_singular_arcs(arm, traj)
    assert [(iv.start, iv.stop) for iv in intervals] == [(0, 11)]
    fixed, report = regularize_u1(arm, traj, intervals)
    npt.assert_array_equal(fixed.u[12:, 0], np.full(20, 20.0))
    assert report.skipped_samples == ()


def test_regularization_reports_ambiguous_sign_samples(arm):
    """Costates with phi1 exactly zero outside any interval leave the sign
    rule mute; those samples must stay untouched and be flagged."""
    traj = _assembled(_surface_rows(12) + [E0] * 20)
    intervals = detect_singular_arcs(arm, traj)
    fixed, report = regularize_u1(arm, traj, intervals)
    assert "ambiguous-sign-samples" in report.flags
    npt.assert_array_equal(fixed.u[12:, 0], traj.u[12:, 0])


def test_pmp_consistency_leaves_zero_switching_samples_unscored(arm):
    """phi1 = phi2 = 0 exactly outside the interval: the sign rule selects
    no bound there, so u1 = -20 neither agrees nor disagrees."""
    traj = _assembled(_surface_rows(12) + [E0] * 20)
    u = np.array(traj.u)
    u[12:, 0] = -20.0
    traj = Trajectory(t=traj.t, x=traj.x, u=u, lam=traj.lam)
    phi, _ = switching_series(arm, traj)
    assert not phi[12:].any()
    intervals = detect_singular_arcs(arm, traj)
    assert [(iv.start, iv.stop) for iv in intervals] == [(0, 11)]
    _, report = regularize_u1(arm, traj, intervals)
    assert "ambiguous-sign-samples" in report.flags
    assert report.pmp_consistency["u1"] == {"agree": 0, "total": 0,
                                            "fraction": 1.0}
    # u2 = -10 is scored only on the 12 surface rows, where phi2 < 0
    assert report.pmp_consistency["u2"] == {"agree": 12, "total": 12,
                                            "fraction": 1.0}


def test_regularization_skips_samples_the_law_cannot_cover(arm, extremal):
    lam = np.array(extremal.lam)
    lam[3000:3002, 3] = 0.0
    traj = Trajectory(t=extremal.t, x=extremal.x, u=extremal.u, lam=lam)
    intervals = detect_singular_arcs(arm, traj)
    assert len(intervals) == 1  # the two bad rows sit inside the gap bridge
    fixed, report = regularize_u1(arm, traj, intervals)
    assert report.skipped_samples == (3000, 3001)
    assert report.skipped_reasons == ("lambda4", "lambda4")
    assert "partial" in report.flags
    assert "partial" in fixed.meta["flags"]
    npt.assert_array_equal(fixed.u[3000:3002, 0], traj.u[3000:3002, 0])


def test_law_values_outside_the_bounds_are_skipped_and_named(arm,
                                                              extremal):
    """The closed form is never clamped: below a raised u1 floor it keeps
    the recorded value and says why."""
    bounds = ControlBounds(lower=(-17.0, -10.0), upper=(20.0, 10.0))
    intervals = detect_singular_arcs(arm, extremal, bounds)
    fixed, report = regularize_u1(arm, extremal, intervals, bounds)
    low = np.flatnonzero(extremal.u[:, 0] < -17.0)
    assert low.size > 0
    assert report.skipped_samples == tuple(low)
    assert report.skipped_reasons == ("out-of-bounds",) * low.size
    assert "partial" in report.flags
    npt.assert_array_equal(fixed.u[:, 0], extremal.u[:, 0])


def test_regularize_rejects_channel_two_intervals(arm, extremal):
    iv = SingularInterval(channel=2, start=0, stop=20, t_start=0.0,
                          t_end=2e-3, max_abs_phi=0.0, max_abs_phi_dot=0.0,
                          u2_bang_value=-10.0)
    with pytest.raises(ValueError):
        regularize_u1(arm, extremal, [iv])


def test_regularize_and_detect_need_costates(arm, extremal):
    bare = Trajectory(t=extremal.t, x=extremal.x, u=extremal.u)
    with pytest.raises(MissingCostates):
        detect_singular_arcs(arm, bare)
    with pytest.raises(MissingCostates):
        regularize_u1(arm, bare, [])
    with pytest.raises(MissingCostates):
        pmp_audit(arm, bare)


def test_audit_of_the_clean_extremal(arm, extremal):
    audit = pmp_audit(arm, extremal)
    assert audit.lambda_degenerate == ()
    assert audit.count(LABEL_VIOLATION) == 0
    assert audit.count(LABEL_SINGULAR, channel=1) == 7001
    assert audit.count(LABEL_LOWER, channel=2) == 7001


@settings(max_examples=25, deadline=None, derandomize=True)
@given(dx=st.tuples(*[st.floats(-0.05, 0.05)] * 4),
       u1=st.floats(-19.9, 19.9))
def test_extremals_from_admissible_starts_have_no_u1_violation(arm, dx, u1):
    """From x0 within 0.05 of X0, with lambda2/lambda4 chosen so that the
    first u1 lies inside its bounds: the audit of the run's kept prefix (a
    run stops where u1 would leave its bounds) finds no u1 violation."""
    x0 = ref.X0 + np.array(dx)
    coeffs = singular_law_coeffs(arm, x0, c=ref.U2_BANG)
    ratio = (u1 - coeffs.s) / coeffs.r      # u1 = r * lambda2/lambda4 + s
    lam0 = costate_on_surface(arm, x0, ratio * ref.LAMBDA4, ref.LAMBDA4)
    traj = integrate_extremal(arm, x0, lam0, IntegratorConfig(horizon=0.05),
                              c=ref.U2_BANG)
    assert traj.u[0, 0] == pytest.approx(u1, abs=1e-9)
    assert pmp_audit(arm, traj).count(LABEL_VIOLATION, channel=1) == 0


def test_audit_pinpoints_the_spiked_samples(arm, spiked):
    traj, rows = spiked
    audit = pmp_audit(arm, traj)
    bad = np.flatnonzero(audit.labels[:, 0] == LABEL_VIOLATION)
    npt.assert_array_equal(bad, rows)
    assert audit.count(LABEL_VIOLATION, channel=2) == 0


@pytest.mark.parametrize("case", ["extremal", "spiked", "partial",
                                  "sat-sing-sat"])
def test_audit_labels_match_the_per_sample_reference(case, arm, extremal,
                                                     spiked, sat_sing_sat):
    if case == "extremal":
        traj = extremal
    elif case == "spiked":
        traj = spiked[0]
    elif case == "partial":
        lam = np.array(extremal.lam)
        lam[3000:3002, 3] = 0.0
        traj = Trajectory(t=extremal.t, x=extremal.x, u=extremal.u, lam=lam)
    else:
        traj = sat_sing_sat[0]
    bounds, tol = ControlBounds(), Tolerances()
    npt.assert_array_equal(pmp_audit(arm, traj, bounds, tol).labels,
                           audit_labels(arm, traj, bounds, tol))


def test_audit_labels_sign_consistent_flanks_bang_in_band(arm, sat_sing_sat):
    """The grafted flanks hold u1 = +20 with phi1 > 0 inside the flat band:
    off the law, on the bound the sign selects, so all 1000 are
    bang-in-band, and none is a violation or a plain bang label."""
    traj, core_start, core_stop = sat_sing_sat
    audit = pmp_audit(arm, traj)
    labels = audit.labels[:, 0]
    flanks = np.r_[0:core_start, core_stop + 1:len(traj)]
    assert flanks.size == 1000
    assert set(labels[flanks]) == {LABEL_BANG_IN_BAND}
    assert audit.count(LABEL_BANG_IN_BAND) == 1000
    assert audit.count(LABEL_SINGULAR, channel=1) == len(traj) - 1000
    assert audit.count(LABEL_VIOLATION) == 0


@pytest.mark.parametrize("rel_band, trimmed", [(1e-3, (500, 500)),
                                               (1e-5, (5, 8))])
def test_the_repair_leaves_the_bang_flanks_alone(arm, sat_sing_sat, rel_band,
                                                 trimmed):
    """Detection cuts the flank samples the audit calls bang-in-band from
    both ends of the run, from the default band's [0, 6000] as from
    criterion 08's [495, 5508]: the interval is the core, the 1000 flank
    controls stay +20 bit for bit, and the replay meets criterion 07's
    endpoint bound (on [0, 6000] the law's flanks missed by 0.232)."""
    traj, core_start, core_stop = sat_sing_sat
    tol = Tolerances(rel_band=rel_band)
    intervals = detect_singular_arcs(arm, traj, tol=tol)
    assert [(iv.channel, iv.start, iv.stop, iv.trimmed_start, iv.trimmed_stop)
            for iv in intervals] == [(1, core_start, core_stop, *trimmed)]
    fixed, report = regularize_u1(arm, traj, intervals, tol=tol)
    flanks = np.r_[0:core_start, core_stop + 1:len(traj)]
    assert fixed.u[flanks].tobytes() == traj.u[flanks].tobytes()
    assert report.endpoint_error <= 1e-3
    assert (report.band, report.rel_band) == (_band_value(arm, traj, tol),
                                              rel_band)


SUBSAMPLE = 10      # sat_sing_sat[::10]: flanks [0, 50) and (550, 600]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(left=st.integers(0, 50), right=st.integers(0, 50),
       head=st.integers(0, 4), tail=st.integers(0, 4),
       marks=st.lists(st.tuples(st.integers(0, 600), st.booleans()),
                      max_size=8))
def test_the_trim_cuts_only_selected_bound_runs_at_the_ends(
        arm, sat_sing_sat, left, right, head, tail, marks):
    """On bang-singular-bang patterns (flanks of 0-50 samples at +20, the
    first and last 0-4 core samples and up to 8 random samples put on the
    bound sign(phi) selects or off both bounds), each detected interval is
    an untrimmed run less the contiguous selected-bound samples at its two
    ends, and nothing else."""
    full, core_start, core_stop = sat_sing_sat
    core = slice(core_start // SUBSAMPLE, core_stop // SUBSAMPLE + 1)
    rows = np.arange(core.start - left, core.stop + right)
    x, lam = full.x[::SUBSAMPLE][rows], full.lam[::SUBSAMPLE][rows]
    u = np.array(full.u[::SUBSAMPLE][rows])
    phi1 = switching(arm, x.T, lam.T).phi[0]
    selected = np.where(phi1 > 0.0, 20.0, -20.0)
    u[left:left + head, 0] = selected[left:left + head]
    end = len(rows) - right
    u[end - tail:end, 0] = selected[end - tail:end]
    for i, on in marks:
        if i < len(rows):
            u[i, 0] = selected[i] if on else 0.0
    traj = Trajectory(t=np.arange(len(rows)) * SUBSAMPLE * 1e-4, x=x, u=u,
                      lam=lam)
    tol, bounds = Tolerances(), ControlBounds()

    phi, phi_dot = switching_series(arm, traj)
    band = _band_value(arm, traj, tol)
    want = []
    for k in range(2):
        mask = (np.abs(phi[:, k]) <= band) & (np.abs(phi_dot[:, k]) <= band)
        at_bound = ((phi[:, k] > 0.0)
                    & (np.abs(u[:, k] - bounds.upper[k]) <= tol.u_tol)
                    | (phi[:, k] < 0.0)
                    & (np.abs(u[:, k] - bounds.lower[k]) <= tol.u_tol))
        for first, last in _merge_runs(_mask_runs(mask), tol.gap_samples):
            keep = np.flatnonzero(~at_bound[first:last + 1]) + first
            if keep.size and keep[-1] - keep[0] + 1 >= tol.min_samples:
                want.append((keep[0], k + 1, keep[-1], keep[0] - first,
                             last - keep[-1]))
    got = [(iv.start, iv.channel, iv.stop, iv.trimmed_start, iv.trimmed_stop)
           for iv in detect_singular_arcs(arm, traj, bounds, tol)]
    assert got == sorted(want)


def test_audit_ranks_the_flat_band_verdicts(arm):
    """Every sample sits in the flat band (phi_band 1e6).  Precedence:
    singular > bang-in-band > singular-unchecked > violation, and an exact
    phi1 = 0 selects no bound."""
    law_ok = ref.LAM0 + np.array([0.0, 0.0, 1e-3, 0.0])  # phi1 > 0
    no_law = np.array([0.0, 0.0, 1.0, 0.0])  # phi1 = mu > 0, lambda4 = 0
    rows = [(law_ok, ref.U1_START, LABEL_SINGULAR),
            (law_ok, 20.0, LABEL_BANG_IN_BAND),
            (law_ok, -20.0, LABEL_VIOLATION),
            (no_law, 20.0, LABEL_BANG_IN_BAND),
            (no_law, -20.0, LABEL_UNCHECKED),
            (E0, 20.0, LABEL_UNCHECKED)]  # phi1 = 0, lambda4 = 0
    n = len(rows)
    traj = Trajectory(t=np.arange(n) * 1e-3, x=np.tile(ref.X0, (n, 1)),
                      u=np.column_stack([[u1 for _, u1, _ in rows],
                                         np.full(n, ref.U2_BANG)]),
                      lam=np.array([lam for lam, _, _ in rows]))
    phi, _ = switching_series(arm, traj)
    assert (phi[:4, 0] > 0.0).all() and phi[5, 0] == 0.0
    bounds = ControlBounds()
    for tol, want in (
            (Tolerances(phi_band=1e6), [label for *_, label in rows]),
            # |20 - law| = 0.33 is within a loose law_tol: the law wins
            (Tolerances(phi_band=1e6, law_tol=1.0),
             [LABEL_SINGULAR, LABEL_SINGULAR] + [r[2] for r in rows[2:]])):
        labels = pmp_audit(arm, traj, bounds, tol).labels[:, 0]
        assert labels.tolist() == want
        npt.assert_array_equal(labels,
                               audit_labels(arm, traj, bounds, tol)[:, 0])


@pytest.mark.parametrize("scale", [2.0 ** -600, 2.0 ** 500, 1e-170, 1e-300,
                                   1e160, 1e300])
def test_the_relative_band_scales_with_the_costates(arm, extremal, scale):
    """Neither the squares of tiny costates (underflow) nor those of huge
    ones (overflow) reach the band: it follows the costate scale, exactly
    for a power of two."""
    n = 300

    def at(s):
        return _band_value(arm, Trajectory(
            t=extremal.t[:n], x=extremal.x[:n], u=extremal.u[:n],
            lam=s * extremal.lam[:n]), Tolerances())

    band = at(1.0)
    assert band > 0.0
    if math.frexp(scale)[0] == 0.5:
        assert at(scale) == scale * band
    else:
        assert at(scale) == pytest.approx(scale * band, rel=1e-14, abs=0.0)


BLOCK = 300


@settings(max_examples=40, deadline=None, derandomize=True)
@given(k=st.integers(-1000, 1000), start=st.integers(0, 7001 - BLOCK))
def test_verdicts_do_not_depend_on_the_costate_scale(arm, extremal, k,
                                                      start):
    """The maximum principle fixes lambda only up to a positive factor:
    on a block of reference rows with lambda * 2^k, the audit labels, the
    detected intervals, the repaired u1 and lemma 1's verdicts are those
    at k = 0."""
    rows = slice(start, start + BLOCK)

    def verdicts(scale):
        traj = Trajectory(t=extremal.t[:BLOCK], x=extremal.x[rows],
                          u=extremal.u[rows], lam=scale * extremal.lam[rows])
        intervals = detect_singular_arcs(arm, traj)
        fixed, _ = regularize_u1(arm, traj, intervals)
        return (pmp_audit(arm, traj).labels.tolist(),
                [(iv.channel, iv.start, iv.stop, iv.t_start, iv.t_end,
                  iv.u2_bang_value) for iv in intervals],
                fixed.u[:, 0].view(np.int64).tolist(),
                [lemma1_certificate(arm, x, lam)
                 for x, lam in zip(traj.x, traj.lam)])

    assert verdicts(math.ldexp(1.0, k)) == verdicts(1.0)


def test_audit_flags_zero_costate_rows(arm, extremal):
    lam = np.array(extremal.lam[:20])
    lam[5:8] = 0.0
    traj = Trajectory(t=extremal.t[:20], x=extremal.x[:20],
                      u=extremal.u[:20], lam=lam)
    audit = pmp_audit(arm, traj)
    assert audit.lambda_degenerate == (5, 6, 7)
    assert set(audit.labels[5:8].ravel()) == {LABEL_VIOLATION}


def test_audit_accepts_bounds_at_transversal_crossings(arm):
    """Inside the band but with phi1' large, a bound is still a legitimate
    maximizer; the audit must not demand the singular law there."""
    n = 12
    lam = np.tile(E0, (n, 1))  # phi1 = 0, phi1' = -mu != 0
    u2 = np.full(n, ref.U2_BANG)
    u1 = np.full(n, 20.0)
    traj = Trajectory(t=np.arange(n) * 1e-3, x=np.tile(ref.X0, (n, 1)),
                      u=np.column_stack([u1, u2]), lam=lam)
    audit = pmp_audit(arm, traj)
    assert audit.count(LABEL_UPPER, channel=1) == n
    assert audit.count(LABEL_VIOLATION, channel=1) == 0


def test_audit_marks_samples_it_could_not_check(arm):
    """Everything in the band, nothing to check against: channel 1 sits on
    theta2 = pi/2, outside the law's domain, and channel 2 is off its
    bounds, with no law of its own.  Neither is verified, and neither is a
    violation."""
    n = 12
    traj = Trajectory(t=np.arange(n) * 1e-3,
                      x=np.tile([0.1, np.pi / 2, 0.3, 0.5], (n, 1)),
                      u=np.tile([ref.U1_START, 0.0], (n, 1)),
                      lam=np.tile(ref.LAM0, (n, 1)))
    audit = pmp_audit(arm, traj, tol=Tolerances(phi_band=1e6))
    assert audit.count(LABEL_UNCHECKED, channel=1) == n
    assert audit.count(LABEL_UNCHECKED, channel=2) == n
    assert audit.count(LABEL_SINGULAR) == 0
    assert audit.count(LABEL_VIOLATION) == 0


def test_tolerances_validation():
    with pytest.raises(ValueError):
        Tolerances(phi_band=0.0)
    with pytest.raises(ValueError):
        Tolerances(rel_band=0.0)
    with pytest.raises(ValueError):
        Tolerances(min_samples=0)
    # a SingularInterval needs two samples
    with pytest.raises(ValueError, match="min_samples must be >= 2, got 1"):
        Tolerances(min_samples=1)
    with pytest.raises(ValueError):
        Tolerances(gap_samples=-1)


@pytest.mark.parametrize("name", ["phi_band", "rel_band", "u_tol",
                                  "law_tol"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1e-9])
def test_tolerance_bands_must_be_finite_and_in_range(name, value):
    with pytest.raises(ValueError, match=name):
        Tolerances(**{name: value})


@pytest.mark.parametrize("name", ["u_tol", "law_tol"])
def test_zero_is_a_valid_exclusion_or_tolerance(name):
    assert getattr(Tolerances(**{name: 0.0}), name) == 0.0


def test_interval_validation_and_report_serialization(arm, extremal):
    with pytest.raises(ValueError):
        SingularInterval(channel=1, start=5, stop=5, t_start=0.0, t_end=0.1,
                         max_abs_phi=0.0, max_abs_phi_dot=0.0,
                         u2_bang_value=-10.0)
    with pytest.raises(ValueError):
        SingularInterval(channel=0, start=0, stop=5, t_start=0.0, t_end=0.1,
                         max_abs_phi=0.0, max_abs_phi_dot=0.0,
                         u2_bang_value=-10.0)

    intervals = detect_singular_arcs(arm, extremal)
    _, report = regularize_u1(arm, extremal, intervals)
    assert json.loads(report.to_json()) == report.as_dict()
    as_dict = report.as_dict()
    assert as_dict["intervals"][0]["stop"] == 7000
    # u1 starts at 19.67 and ends at 17.43, so no edge sample is trimmed
    assert as_dict["intervals"][0]["trimmed_start"] == 0
    assert as_dict["intervals"][0]["trimmed_stop"] == 0
    assert as_dict["band"] == _band_value(arm, extremal, Tolerances())
    assert as_dict["rel_band"] == 1e-3
    # a given phi_band is the band itself; no relative rule made it
    _, report = regularize_u1(arm, extremal, intervals,
                              tol=Tolerances(phi_band=0.25))
    assert (report.band, report.rel_band) == (0.25, None)


def test_audit_count_over_all_channels():
    labels = np.array([[LABEL_UPPER, LABEL_LOWER],
                       [LABEL_UPPER, LABEL_UPPER]])
    audit = AuditResult(labels=labels)
    assert audit.count(LABEL_UPPER) == 3
    assert audit.count(LABEL_UPPER, channel=2) == 1
    assert audit.count(LABEL_VIOLATION) == 0
