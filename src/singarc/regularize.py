"""Singular-arc detection and control regularization on recorded runs.

Collocation exports carry ripple on singular intervals: the transcription
pins the control only weakly where the switching function vanishes.  The
repair here never smooths or filters.  Inside a detected interval the
control is replaced by the closed-form law evaluated on the recorded
(x, lambda); outside, by the bound the switching sign selects; anything
the law cannot cover is left alone and reported.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .arm2dof import Arm2DOF, ControlBounds
from .errors import MissingCostates
from .integrate import Trajectory, load_trajectory, replay_miss
from .pmp import (costate_norm, on_selected_bound, sign_rule,
                  singular_u1_batch, switching)

LABEL_UPPER = "upper-bang"
LABEL_LOWER = "lower-bang"
LABEL_SINGULAR = "singular"
LABEL_BANG_IN_BAND = "bang-in-band"
LABEL_UNCHECKED = "singular-unchecked"
LABEL_VIOLATION = "violation"
AUDIT_LABELS = (LABEL_UPPER, LABEL_LOWER, LABEL_SINGULAR, LABEL_BANG_IN_BAND,
                LABEL_UNCHECKED, LABEL_VIOLATION)


@dataclass(frozen=True)
class Tolerances:
    """Bands for detection and audit.

    phi_band overrides the relative rule when set; otherwise the band is
    rel_band * max_t costate_norm(lambda) * max_t ||g||, which tracks the
    scale of the ingested costates at any size.  The law's admissibility
    band is pmp.LAW_EXCLUSION, the integrator's.
    """

    phi_band: float | None = None
    rel_band: float = 1e-3
    min_samples: int = 10
    gap_samples: int = 3
    u_tol: float = 1e-6
    law_tol: float = 1e-6

    def __post_init__(self):
        # the bands must be > 0, the tolerances >= 0
        for name in ("phi_band", "rel_band", "u_tol", "law_tol"):
            v, band = getattr(self, name), name.endswith("_band")
            if v is not None and not (math.isfinite(v)
                                      and (v > 0.0 if band else v >= 0.0)):
                raise ValueError(f"{name} must be finite and "
                                 f"{'> 0' if band else '>= 0'}, got {v}")
        # a SingularInterval needs stop > start: two samples at least
        for name, least in (("min_samples", 2), ("gap_samples", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, "
                                 f"got {getattr(self, name)}")


@dataclass(frozen=True)
class SingularInterval:
    """One maximal run of band-satisfying samples on a single channel,
    less trimmed_start and trimmed_stop samples cut from its two ends:
    those on the bound the sign of phi selects (see detect_singular_arcs).
    """

    channel: int
    start: int
    stop: int
    t_start: float
    t_end: float
    max_abs_phi: float
    max_abs_phi_dot: float
    u2_bang_value: float
    trimmed_start: int = 0
    trimmed_stop: int = 0

    def __post_init__(self):
        if not (self.stop > self.start and self.t_end > self.t_start):
            raise ValueError("interval must have positive length")
        if self.channel < 1:
            raise ValueError("channels are 1-based")

    @property
    def indices(self) -> slice:
        return slice(self.start, self.stop + 1)


@dataclass(frozen=True)
class RegularizationReport:
    """What regularize_u1 did to a run.

    max_deviation holds, per interval, the largest |law - recorded u1|
    over the rewritten samples.  endpoint_error compares the replay of the
    rewritten controls with the recorded final state (relative, and
    absolute in endpoint_error_abs).  pmp_consistency scores the *input*
    controls, before any rewrite, against the sign rule: u1 outside the
    singular intervals and u2 everywhere, per channel as agree / total /
    fraction.  band is the absolute switching-function band detection
    uses, and rel_band the relative rule it came from (None when phi_band
    set it).  skipped_samples are the interval samples left as recorded,
    in order, and skipped_reasons names why for each: a pmp.LAW_REASONS
    guard, or "out-of-bounds" for a law value outside the u1 bounds.
    """

    intervals: tuple[SingularInterval, ...]
    max_deviation: tuple[float, ...]
    endpoint_error: float
    endpoint_error_abs: float
    pmp_consistency: dict
    band: float
    rel_band: float | None
    skipped_samples: tuple[int, ...] = ()
    skipped_reasons: tuple[str, ...] = ()
    flags: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        return _lists(asdict(self))

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)


def _lists(obj):
    """obj with every tuple, at any depth, turned into a list."""
    if isinstance(obj, dict):
        return {k: _lists(v) for k, v in obj.items()}
    return [_lists(v) for v in obj] if isinstance(obj, (list, tuple)) else obj


@dataclass(frozen=True)
class AuditResult:
    """Per-sample, per-channel classification plus degenerate-costate rows."""

    labels: np.ndarray
    lambda_degenerate: tuple[int, ...] = ()

    def count(self, label: str, channel: int | None = None) -> int:
        block = self.labels if channel is None else self.labels[:, channel - 1]
        return int(np.count_nonzero(block == label))


def ingest(path: str) -> Trajectory:
    """Read an external trajectory export and normalize its metadata."""
    traj = load_trajectory(path)
    meta = dict(traj.meta)
    meta.setdefault("source", "ingested")
    flags = list(meta.get("flags", []))
    if traj.lam is None and "no-costates" not in flags:
        flags.append("no-costates")
    meta["flags"] = flags
    return Trajectory(t=traj.t, x=traj.x, u=traj.u, lam=traj.lam, meta=meta)


def switching_series(sys: Arm2DOF, traj: Trajectory):
    """phi and phi' (samples x channels): pmp.switching over the run."""
    if traj.lam is None:
        raise MissingCostates("switching series needs costates")
    rec = switching(sys, traj.x.T, traj.lam.T)
    return rec.phi.T, rec.phi_dot.T


def _band_value(sys, traj, tol: Tolerances) -> float:
    if tol.phi_band is not None:
        return tol.phi_band
    comps = [traj.x[:, i] for i in range(traj.x.shape[1])]
    _, L = sys.dyn(comps)
    n = sys.n
    g_norm = max(
        float(np.sqrt(sum(np.asarray(L[r][k]) ** 2 for r in range(n))).max())
        for k in range(n))
    lam_max = float(costate_norm(traj.lam.T).max())
    return tol.rel_band * lam_max * g_norm


def _mask_runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """Maximal inclusive (start, stop) runs of True."""
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(idx) > 1)
    starts = np.concatenate(([0], breaks + 1))
    stops = np.concatenate((breaks, [idx.size - 1]))
    return [(int(idx[a]), int(idx[b])) for a, b in zip(starts, stops)]


def _merge_runs(runs: list[tuple[int, int]], gap: int) -> list[tuple[int, int]]:
    if not runs:
        return []
    merged = [runs[0]]
    for start, stop in runs[1:]:
        last_start, last_stop = merged[-1]
        if start - last_stop - 1 <= gap:
            merged[-1] = (last_start, stop)
        else:
            merged.append((start, stop))
    return merged


def detect_singular_arcs(sys: Arm2DOF, traj: Trajectory,
                         bounds: ControlBounds | None = None,
                         tol: Tolerances | None = None
                         ) -> list[SingularInterval]:
    """Maximal intervals where a switching function and its rate vanish.

    Short excursions out of the band (collocation ripple) are bridged when
    they span at most gap_samples.  Then each run loses, from either end,
    the contiguous samples whose control is on the bound the sign of phi
    selects (pmp.on_selected_bound, the audit's bang-in-band rule): those
    are the bang arcs at the junctions, which the law must not rewrite.
    Such samples inside the interval stay in it.  The reported diagnostics
    are honest maxima over the trimmed interval, bridged samples included.
    """
    if traj.lam is None:
        raise MissingCostates("detection needs costates")
    if bounds is None:
        bounds = ControlBounds()
    if tol is None:
        tol = Tolerances()
    phi, phi_dot = switching_series(sys, traj)
    band = _band_value(sys, traj, tol)
    intervals: list[SingularInterval] = []
    for k in range(sys.n):
        mask = (np.abs(phi[:, k]) <= band) & (np.abs(phi_dot[:, k]) <= band)
        at_bound = on_selected_bound(traj.u[:, k], phi[:, k], bounds.lower[k],
                                     bounds.upper[k], tol.u_tol)
        for first, last in _merge_runs(_mask_runs(mask), tol.gap_samples):
            start, stop = first, last
            while start <= stop and at_bound[start]:
                start += 1
            while stop > start and at_bound[stop]:
                stop -= 1
            if stop - start + 1 < tol.min_samples:
                continue
            window = slice(start, stop + 1)
            u2_med = float(np.median(traj.u[window, 1]))
            intervals.append(SingularInterval(
                channel=k + 1,
                start=start,
                stop=stop,
                t_start=float(traj.t[start]),
                t_end=float(traj.t[stop]),
                max_abs_phi=float(np.abs(phi[window, k]).max()),
                max_abs_phi_dot=float(np.abs(phi_dot[window, k]).max()),
                u2_bang_value=bounds.nearest(1, u2_med),
                trimmed_start=start - first,
                trimmed_stop=last - stop,
            ))
    intervals.sort(key=lambda iv: (iv.start, iv.channel))
    return intervals


def regularize_u1(sys: Arm2DOF, traj: Trajectory,
                  intervals: Sequence[SingularInterval],
                  bounds: ControlBounds | None = None,
                  tol: Tolerances | None = None,
                  ) -> tuple[Trajectory, RegularizationReport]:
    """Rewrite channel 1: closed form inside intervals, bang outside.

    The closed form is never clamped.  A sample where it exits the bounds
    or leaves the admissible set keeps its recorded value, is excluded from
    the rewrite, and shows up in skipped_samples with a partial flag; the
    theory stops applying there, so silent repair would be a lie.  The
    endpoint error is integrate.replay_miss of the rewritten run.
    """
    if traj.lam is None:
        raise MissingCostates("regularization needs costates")
    for iv in intervals:
        if iv.channel != 1:
            raise ValueError("only channel-1 intervals can be regularized")
    if bounds is None:
        bounds = ControlBounds()
    if tol is None:
        tol = Tolerances()

    phi, _ = switching_series(sys, traj)
    band = _band_value(sys, traj, tol)
    n_samples = len(traj)
    new_u = np.array(traj.u)
    inside = np.zeros(n_samples, dtype=bool)
    skipped: list[int] = []
    reasons: list[str] = []
    flags: list[str] = []
    deviations: list[float] = []

    for iv in intervals:
        window = iv.indices
        inside[window] = True
        u1, reason = singular_u1_batch(sys, traj.x[window].T,
                                       traj.lam[window].T, iv.u2_bang_value)
        ok = (reason == "ok") & bounds.contains(0, u1)
        rows = np.arange(iv.start, iv.stop + 1)
        skipped += rows[~ok].tolist()
        reasons += ["out-of-bounds" if why == "ok" else why
                    for why in reason[~ok].tolist()]
        deviations.append(float(np.abs(u1[ok] - traj.u[rows[ok], 0]).max(
            initial=0.0)))
        new_u[rows[ok], 0] = u1[ok]

    outside = ~inside
    # the bound each sign selects, nan where phi is exactly zero
    bang = np.column_stack([sign_rule(phi[:, k], bounds.lower[k],
                                      bounds.upper[k]) for k in range(2)])
    decided = ~np.isnan(bang)
    rewrite = outside & decided[:, 0]
    new_u[rewrite, 0] = bang[rewrite, 0]
    if (outside & ~decided[:, 0]).any():
        flags.append("ambiguous-sign-samples")

    if skipped:
        flags.append("partial")

    meta = dict(traj.meta)
    meta["source"] = "regularized"
    meta["flags"] = sorted(set(meta.get("flags", [])) | set(flags))
    out = Trajectory(t=traj.t, x=traj.x, u=new_u, lam=traj.lam, meta=meta)

    err_abs = replay_miss(sys, out)
    err_rel = err_abs / max(float(np.linalg.norm(traj.x[-1])), 1e-30)

    agree = {}
    for k, name in ((0, "u1"), (1, "u2")):
        # samples the sign rule leaves open are not scored either way
        mask = decided[:, k] & (outside if k == 0 else True)
        total = int(np.count_nonzero(mask))
        if total == 0:
            agree[name] = {"agree": 0, "total": 0, "fraction": 1.0}
            continue
        ok = on_selected_bound(traj.u[mask, k], phi[mask, k], bounds.lower[k],
                               bounds.upper[k], tol.u_tol)
        agree[name] = {"agree": int(np.count_nonzero(ok)), "total": total,
                       "fraction": float(np.count_nonzero(ok)) / total}

    report = RegularizationReport(
        intervals=tuple(intervals),
        max_deviation=tuple(deviations),
        endpoint_error=err_rel,
        endpoint_error_abs=err_abs,
        pmp_consistency=agree,
        band=band,
        rel_band=tol.rel_band if tol.phi_band is None else None,
        skipped_samples=tuple(skipped),
        skipped_reasons=tuple(reasons),
        flags=tuple(flags),
    )
    return out, report


def pmp_audit(sys: Arm2DOF, traj: Trajectory,
              bounds: ControlBounds | None = None,
              tol: Tolerances | None = None) -> AuditResult:
    """Classify every (sample, channel) against the maximum principle.

    Sign rule: positive switching function demands the upper bound,
    negative the lower.  In the singular band, channel 1 must match the
    closed-form law; a sample off the law but on the bound the sign of
    phi1 selects is bang-in-band, kept apart from both the law and the
    plain bang labels so that chattering on an arc stays visible.  Where
    nothing could be checked -- the law is undefined at the sample
    (outside the admissible set), or channel 2, which has no law here --
    the label is singular-unchecked rather than an invented verdict either
    way.  Zero costate rows prove nothing and are flagged as violations.
    """
    if traj.lam is None:
        raise MissingCostates("audit needs costates")
    if bounds is None:
        bounds = ControlBounds()
    if tol is None:
        tol = Tolerances()
    phi, phi_dot = switching_series(sys, traj)
    band = _band_value(sys, traj, tol)
    labels = np.full(phi.shape, LABEL_VIOLATION, dtype="<U18")
    # an exact zero row; a norm test would also flag tiny rows, whose
    # squared norm underflows
    degenerate = ~traj.lam.any(axis=1)

    for k in range(sys.n):
        u = traj.u[:, k]
        at_upper = np.abs(u - bounds.upper[k]) <= tol.u_tol
        at_lower = np.abs(u - bounds.lower[k]) <= tol.u_tol
        bang = sign_rule(phi[:, k], bounds.lower[k], bounds.upper[k], band)
        above = bang == bounds.upper[k]
        below = bang == bounds.lower[k]
        in_band = ~degenerate & np.isnan(bang)
        flat = in_band & (np.abs(phi_dot[:, k]) <= band)
        # channel 1 must match the law where phi1' vanishes too; elsewhere
        # in the band a bound is still legitimate (transversal crossing)
        crossing = in_band & ~flat if k == 0 else in_band
        labels[~degenerate & (above | crossing) & at_upper, k] = LABEL_UPPER
        labels[~degenerate & (below | crossing & ~at_upper) & at_lower,
               k] = LABEL_LOWER
        if k != 0:
            labels[flat & ~at_upper & ~at_lower, k] = LABEL_UNCHECKED
            continue
        rows = np.flatnonzero(flat)
        # the u2 bang the law assumes at every row
        want, reason = singular_u1_batch(sys, traj.x[rows].T,
                                         traj.lam[rows].T,
                                         bounds.nearest(1, traj.u[rows, 1]))
        checked = reason == "ok"
        labels[rows[~checked], k] = LABEL_UNCHECKED
        # off the law, the bound sign(phi1) selects still maximizes H
        labels[rows[on_selected_bound(u[rows], phi[rows, k], bounds.lower[k],
                                      bounds.upper[k], tol.u_tol)],
               k] = LABEL_BANG_IN_BAND
        labels[rows[checked & (np.abs(u[rows] - want) <= tol.law_tol)],
               k] = LABEL_SINGULAR
    return AuditResult(labels=labels,
                       lambda_degenerate=tuple(np.flatnonzero(degenerate)))
