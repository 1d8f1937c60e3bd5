"""Fixed-step integration of extremals and recorded-control replays.

The extremal integrator advances the coupled state/costate system with the
first channel in closed-loop singular feedback and the second held at a
bang value.  Steps are classical RK4 with the feedback law re-evaluated at
every stage; holding it across a step lets the switching function drift.

Everything here is deterministic: same inputs, bit-identical output.  No
adaptive stepping, no event location beyond the abort guards.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .arm2dof import ControlBounds, FullyActuatedSystem
from .errors import (ERRORS_BY_NAME, CostateDegenerate, MissingCostates,
                     MonotonicityError, NaNError, OutOfBounds, RkViolation,
                     SchemaError)
from .liegeom import fused_reference, fused_terms
from .pmp import (LAMBDA4_RTOL, costate_rate, hamiltonian, law_u1,
                  state_rate)

STATE_COLUMNS = ("q1", "q2", "qd1", "qd2")
CONTROL_COLUMNS = ("u1", "u2")
COSTATE_COLUMNS = ("l1", "l2", "l3", "l4")


@dataclass(frozen=True)
class IntegratorConfig:
    """Step controls for both the extremal integrator and replays (RK4).

    rk_exclusion is the operative admissibility band: the run aborts when
    the state comes that close to the singular-law breakdown set.  It is
    deliberately tighter than the 1e-3 band the diagnostic predicates use,
    because the law degenerates removably there; the wider band is advisory
    while this one guards the actual division.
    """

    step: float = 1e-4
    horizon: float = 0.7
    interp: str = "zoh"
    rk_exclusion: float = 1e-6
    record_costates: bool = True

    def __post_init__(self):
        if not (self.step > 0.0 and math.isfinite(self.step)):
            raise ValueError(f"step must be positive, got {self.step}")
        if not (self.horizon >= 0.0 and math.isfinite(self.horizon)):
            raise ValueError(f"horizon must be >= 0, got {self.horizon}")
        if self.interp not in ("zoh", "linear"):
            raise ValueError(f"unknown interpolation {self.interp!r}")
        if self.rk_exclusion < 0.0:
            raise ValueError("rk_exclusion must be >= 0")

    @property
    def n_steps(self) -> int:
        return round(self.horizon / self.step)


@dataclass(frozen=True)
class Trajectory:
    """Uniform sampled record of (t, x, u) with optional costates.

    Arrays are locked read-only on construction; derived trajectories are
    new objects, never in-place edits.
    """

    t: np.ndarray
    x: np.ndarray
    u: np.ndarray
    lam: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        t = np.ascontiguousarray(self.t, dtype=float)
        x = np.ascontiguousarray(self.x, dtype=float)
        u = np.ascontiguousarray(self.u, dtype=float)
        lam = self.lam
        if lam is not None:
            lam = np.ascontiguousarray(lam, dtype=float)
        if t.ndim != 1 or x.ndim != 2 or u.ndim != 2:
            raise SchemaError("trajectory arrays have wrong dimensionality")
        n = t.shape[0]
        if n == 0:
            raise SchemaError("trajectory needs at least one sample")
        if x.shape[0] != n or u.shape[0] != n:
            raise SchemaError("sample counts disagree between t, x, u")
        if lam is not None and lam.shape != x.shape:
            raise SchemaError("costate block must match the state block")
        if t[0] != 0.0:
            raise SchemaError(f"time axis must start at 0, got t0 = {t[0]}")
        if n > 1 and not np.all(np.diff(t) > 0.0):
            raise MonotonicityError("time axis is not strictly increasing")
        blocks = [t, x, u] if lam is None else [t, x, u, lam]
        if not all(np.isfinite(b).all() for b in blocks):
            raise NaNError("trajectory contains non-finite samples")
        for name, arr in (("t", t), ("x", x), ("u", u), ("lam", lam)):
            if arr is not None:
                arr.flags.writeable = False
                object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.t.shape[0]

    @property
    def horizon(self) -> float:
        return float(self.t[-1])

    @property
    def has_costates(self) -> bool:
        return self.lam is not None


def model_signature(sys: FullyActuatedSystem,
                    bounds: ControlBounds | None = None) -> str:
    """Short stable digest of the plant and its torque bounds."""
    parts = [type(sys).__name__, repr(getattr(sys, "params", None))]
    if bounds is not None:
        parts.append(repr((bounds.lower, bounds.upper)))
    digest = hashlib.sha256("|".join(parts).encode()).hexdigest()
    return digest[:12]


def _config_snapshot(config: IntegratorConfig) -> dict:
    return {
        "step": config.step,
        "horizon": config.horizon,
        "method": "rk4",
        "interp": config.interp,
        "rk_exclusion": config.rk_exclusion,
        "record_costates": config.record_costates,
    }


_QUARTER_PI2 = math.pi / 2.0


def _outside_law_domain(x, band: float) -> bool:
    # same predicate as pmp.in_Rk, scalar fast path for the step loop
    if abs(math.remainder(x[1], _QUARTER_PI2)) <= band:
        return True
    return abs(x[2] + x[3]) <= band


def integrate_extremal(sys: FullyActuatedSystem, x0, lam0,
                       config: IntegratorConfig | None = None,
                       c: float = -10.0,
                       bounds: ControlBounds | None = None) -> Trajectory:
    """Propagate (x, lambda) under the closed-form singular law on channel 1.

    Channel 2 is held at the bang value c for the whole horizon.  Aborts
    leave a partial trajectory behind, truncated at the last admissible
    sample, with the reason in meta["abort"].
    """
    if config is None:
        config = IntegratorConfig()
    if bounds is None:
        bounds = ControlBounds()
    x0 = [float(v) for v in np.asarray(x0, dtype=float).reshape(-1)]
    lam0 = [float(v) for v in np.asarray(lam0, dtype=float).reshape(-1)]
    if len(x0) != 4 or len(lam0) != 4:
        raise SchemaError("extremal integration is specific to the 4-state arm")
    if not bounds.contains(1, c):
        raise OutOfBounds(f"bang value c = {c} outside channel-2 bounds")

    h = config.step
    nsteps = config.n_steps
    band = config.rk_exclusion
    lo1, hi1 = bounds.lower[0], bounds.upper[0]
    ts = np.empty(nsteps + 1)
    xs = np.empty((nsteps + 1, 4))
    us = np.empty((nsteps + 1, 2))
    ls = np.empty((nsteps + 1, 4))

    def rhs(x, lam):
        # off the kernel's recorded branch the reference raises
        out = fused_terms(sys, x, c) or fused_reference(sys, x, c)
        f, *_, L, df_cols, dL, law = out
        u = (law_u1(law, lam), c)
        return state_rate(f, L, u), costate_rate(df_cols, dL, u, lam), u[0]

    x = list(x0)
    lam = list(lam0)
    abort = None
    kept = 0
    for k in range(nsteps + 1):
        if not all(map(math.isfinite, x + lam)):
            abort = {"flag": NaNError.__name__, "t": k * h}
            break
        if _outside_law_domain(x, band):
            abort = {"flag": RkViolation.__name__, "t": k * h}
            break
        # products, not ** 2: a huge finite entry overflows to inf
        lam_norm = math.sqrt(lam[0] * lam[0] + lam[1] * lam[1]
                             + lam[2] * lam[2] + lam[3] * lam[3])
        if abs(lam[3]) <= LAMBDA4_RTOL * max(1.0, lam_norm):
            abort = {"flag": CostateDegenerate.__name__, "t": k * h}
            break
        k1x, k1l, u1 = rhs(x, lam)
        if not (lo1 <= u1 <= hi1):
            abort = {"flag": OutOfBounds.__name__, "t": k * h, "u1": u1}
            break
        ts[k] = k * h
        xs[k] = x
        us[k] = (u1, c)
        ls[k] = lam
        kept = k + 1
        if k == nsteps:
            break
        try:
            xa = [x[i] + 0.5 * h * k1x[i] for i in range(4)]
            la = [lam[i] + 0.5 * h * k1l[i] for i in range(4)]
            k2x, k2l, _ = rhs(xa, la)
            xb = [x[i] + 0.5 * h * k2x[i] for i in range(4)]
            lb = [lam[i] + 0.5 * h * k2l[i] for i in range(4)]
            k3x, k3l, _ = rhs(xb, lb)
            xc = [x[i] + h * k3x[i] for i in range(4)]
            lc = [lam[i] + h * k3l[i] for i in range(4)]
            k4x, k4l, _ = rhs(xc, lc)
        except ValueError:
            # math.sin of a stage state that overflowed to inf: the step
            # has no finite result
            abort = {"flag": NaNError.__name__, "t": (k + 1) * h}
            break
        x = [x[i] + (h / 6.0) * (k1x[i] + 2.0 * (k2x[i] + k3x[i]) + k4x[i])
             for i in range(4)]
        lam = [lam[i] + (h / 6.0) * (k1l[i] + 2.0 * (k2l[i] + k3l[i]) + k4l[i])
               for i in range(4)]

    if kept == 0:
        # even the initial sample was inadmissible; surface it as an error
        raise ERRORS_BY_NAME[abort["flag"]](
            f"initial sample inadmissible: {abort}")

    meta = {
        "source": "constructed",
        "model": model_signature(sys, bounds),
        "config": _config_snapshot(config),
        "c": c,
        "flags": [] if abort is None else [abort["flag"]],
        "abort": abort,
    }
    lam_block = ls[:kept] if config.record_costates else None
    return Trajectory(t=ts[:kept], x=xs[:kept], u=us[:kept],
                      lam=lam_block, meta=meta)


def _control_signal(control, interp: str):
    """Turn a recorded control into a callable of time.

    Accepts a Trajectory or a (t, u) pair.  Zero-order hold keeps the value
    of the latest sample; linear interpolation joins samples and is the one
    that reproduces integrator output to round-trip accuracy.
    """
    if isinstance(control, Trajectory):
        t_knots, u_knots = control.t, control.u
    else:
        t_knots = np.ascontiguousarray(control[0], dtype=float)
        u_knots = np.ascontiguousarray(control[1], dtype=float)
    if t_knots.ndim != 1 or u_knots.ndim != 2 \
            or u_knots.shape[0] != t_knots.shape[0]:
        raise SchemaError("control signal needs matching t and u samples")
    tmax = float(t_knots[-1])
    last = t_knots.shape[0] - 1

    if interp == "zoh":
        def signal(t: float) -> np.ndarray:
            idx = int(np.searchsorted(t_knots, t, side="right")) - 1
            return u_knots[min(max(idx, 0), last)]
    else:
        def signal(t: float) -> np.ndarray:
            if t <= 0.0:
                return u_knots[0]
            if t >= tmax:
                return u_knots[last]
            j = int(np.searchsorted(t_knots, t, side="right"))
            t0, t1 = t_knots[j - 1], t_knots[j]
            w = (t - t0) / (t1 - t0)
            return (1.0 - w) * u_knots[j - 1] + w * u_knots[j]
    return signal, tmax


def resimulate(sys: FullyActuatedSystem, x0, control,
               config: IntegratorConfig | None = None) -> Trajectory:
    """Replay a recorded control signal through the plant, state only."""
    if config is None:
        config = IntegratorConfig()
    signal, tmax = _control_signal(control, config.interp)
    horizon = config.horizon if config.horizon > 0.0 else tmax
    if horizon - tmax > 1e-12 * max(1.0, tmax):
        raise SchemaError(
            f"control defined up to t = {tmax}, cannot replay to {horizon}")
    h = config.step
    nsteps = round(horizon / h)

    def xdot(x, u):
        return state_rate(*sys.dyn(x), u)

    ts = np.empty(nsteps + 1)
    xs = np.empty((nsteps + 1, 4))
    us = np.empty((nsteps + 1, 2))
    x = [float(v) for v in np.asarray(x0, dtype=float).reshape(-1)]
    for k in range(nsteps + 1):
        t = k * h
        u_here = signal(t)
        ts[k] = t
        xs[k] = x
        us[k] = u_here
        if k == nsteps:
            break
        k1 = xdot(x, u_here)
        u_mid = signal(t + 0.5 * h)
        k2 = xdot([x[i] + 0.5 * h * k1[i] for i in range(4)], u_mid)
        k3 = xdot([x[i] + 0.5 * h * k2[i] for i in range(4)], u_mid)
        u_end = signal(t + h)
        k4 = xdot([x[i] + h * k3[i] for i in range(4)], u_end)
        x = [x[i] + (h / 6.0) * (k1[i] + 2.0 * (k2[i] + k3[i]) + k4[i])
             for i in range(4)]

    meta = {
        "source": "resimulated",
        "model": model_signature(sys),
        "config": _config_snapshot(config),
        "flags": [],
        "abort": None,
    }
    return Trajectory(t=ts, x=xs, u=us, lam=None, meta=meta)


def hamiltonian_trace(sys: FullyActuatedSystem, traj: Trajectory) -> np.ndarray:
    """H(t) = <lambda, xdot> - 1 along a recorded trajectory."""
    if traj.lam is None:
        raise MissingCostates("trajectory carries no costates")
    return hamiltonian(sys, traj.x.T, traj.u.T, traj.lam.T)


def save_trajectory(traj: Trajectory, path: str) -> None:
    """CSV with 17-significant-digit floats plus a JSON metadata sidecar."""
    columns = ["t", *STATE_COLUMNS, *CONTROL_COLUMNS]
    blocks = [traj.t[:, None], traj.x, traj.u]
    if traj.lam is not None:
        columns += list(COSTATE_COLUMNS)
        blocks.append(traj.lam)
    table = np.hstack(blocks)
    np.savetxt(path, table, fmt="%.17g", delimiter=",",
               header=",".join(columns), comments="")
    with open(_sidecar_path(path), "w") as fh:
        json.dump(traj.meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_trajectory(path: str) -> Trajectory:
    """Inverse of save_trajectory; validates schema and time axis.

    Text that is not UTF-8, a file without sample rows, a non-numeric cell,
    a row of the wrong length and a sidecar that is not a JSON object all
    raise SchemaError.
    """
    plain = ",".join(["t", *STATE_COLUMNS, *CONTROL_COLUMNS])
    with_costates = plain + "," + ",".join(COSTATE_COLUMNS)
    with open(path) as fh:
        try:
            header = fh.readline().strip()
            start = fh.tell()
            empty = not any(line.strip() for line in fh)
        except UnicodeDecodeError as exc:
            raise SchemaError(f"trajectory file is not UTF-8 text: {exc}") \
                from None
        if header == with_costates:
            ncols, has_lam = 11, True
        elif header == plain:
            ncols, has_lam = 7, False
        else:
            raise SchemaError(f"unrecognized trajectory header: {header!r}")
        if empty:
            raise SchemaError("trajectory file has no samples")
        fh.seek(start)
        try:
            table = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:  # a UnicodeDecodeError is one too
            raise SchemaError(f"malformed trajectory table: {exc}") from None
    if table.shape[1] != ncols:
        raise SchemaError(
            f"expected {ncols} columns, found {table.shape[1]}")
    sidecar = _sidecar_path(path)
    if os.path.exists(sidecar):
        with open(sidecar) as fh:
            try:
                meta = json.load(fh)
            except ValueError as exc:
                raise SchemaError(f"malformed metadata sidecar: {exc}") \
                    from None
        if not isinstance(meta, dict):
            raise SchemaError("metadata sidecar is not a JSON object")
    else:
        meta = {"source": "ingested", "flags": ["no-metadata"]}
    lam = table[:, 7:11] if has_lam else None
    return Trajectory(t=table[:, 0], x=table[:, 1:5], u=table[:, 5:7],
                      lam=lam, meta=meta)


def _sidecar_path(path: str) -> str:
    return path + ".meta.json"
