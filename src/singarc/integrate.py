"""Fixed-step integration of extremals and recorded-control replays.

The extremal integrator advances the coupled state/costate system with the
first channel in closed-loop singular feedback and the second held at a
bang value.  Steps are classical RK4 with the feedback law re-evaluated at
every stage; holding it across a step lets the switching function drift.

Two compiled kernels, each straight-line float code built by
``duals.compiled`` from a Python reference, do the float work, one call
per RK4 step.  An extremal step is ``extremal_step_kernel``, the reference
``_extremal_step`` (``_rk4_step`` over ``_extremal_rate``: law, state rate
and costate rate at each stage), which also returns u1 at the step's
start; the guards and the u1 bound test stay here.  Replays step on
``replay_kernel``, the reference ``_replay_step``.  A step the kernel
cannot take re-runs its reference stages, which raise there:
LinearSolveFailure at a singular mass matrix, ZeroDivisionError at an
exact zero divisor, ValueError at sin/cos of inf.

Everything here is deterministic: same inputs, bit-identical output.  No
adaptive stepping, no event location beyond the abort guards.
"""
from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from .arm2dof import Arm2DOF, ControlBounds
from .duals import STOPS, compiled
from .errors import (ERRORS_BY_NAME, CostateDegenerate, MissingCostates,
                     MonotonicityError, NaNError, OutOfBounds, RkViolation,
                     SchemaError)
from .liegeom import u1_singular_brackets
from .pmp import (_law_terms, costate_rate, hamiltonian, in_Rk,
                  lambda4_degenerate, law_u1, state_rate)

STATE_COLUMNS = ("q1", "q2", "qd1", "qd2")
CONTROL_COLUMNS = ("u1", "u2")
COSTATE_COLUMNS = ("l1", "l2", "l3", "l4")


@dataclass(frozen=True)
class IntegratorConfig:
    """Step controls for both the extremal integrator and replays (RK4)."""

    step: float = 1e-4
    horizon: float = 0.7
    interp: str = "zoh"

    def __post_init__(self):
        if not (self.step > 0.0 and math.isfinite(self.step)):
            raise ValueError(f"step must be positive, got {self.step}")
        if not (self.horizon >= 0.0 and math.isfinite(self.horizon)):
            raise ValueError(f"horizon must be >= 0, got {self.horizon}")
        if self.interp not in ("zoh", "linear"):
            raise ValueError(f"unknown interpolation {self.interp!r}")

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


def model_signature(sys: Arm2DOF, bounds: ControlBounds | None = None) -> str:
    """Short stable digest of the plant and its torque bounds."""
    import hashlib      # here, not at the top: only sidecars need SHA-256
    parts = [type(sys).__name__, repr(getattr(sys, "params", None))]
    if bounds is not None:
        parts.append(repr((bounds.lower, bounds.upper)))
    digest = hashlib.sha256("|".join(parts).encode()).hexdigest()
    return digest[:12]


def integrate_extremal(sys: Arm2DOF, x0, lam0,
                       config: IntegratorConfig | None = None,
                       c: float = -10.0,
                       bounds: ControlBounds | None = None) -> Trajectory:
    """Propagate (x, lambda) under the closed-form singular law on channel 1.

    Channel 2 is held at the bang value c for the whole horizon.  Aborts
    leave a partial trajectory behind, truncated at the last admissible
    sample, with the reason in meta["abort"]; a state within
    pmp.LAW_EXCLUSION of the breakdown set, where the law refuses, is one.
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
    ys = np.empty((nsteps + 1, 8))  # x, then lambda
    us = np.empty((nsteps + 1, 2))

    step = extremal_step_kernel(sys)
    y = x0 + lam0
    abort = None
    kept = 0
    for k in range(nsteps + 1):
        if not all(map(math.isfinite, y)):
            abort = {"flag": NaNError.__name__, "t": k * h}
            break
        if not in_Rk(y[:4]):
            abort = {"flag": RkViolation.__name__, "t": k * h}
            break
        if lambda4_degenerate(y[4:]):
            abort = {"flag": CostateDegenerate.__name__, "t": k * h}
            break
        try:
            ahead, u1 = step(*y, c, h)
        except STOPS:
            # off the kernel's recorded branch: the reference stages, which
            # raise what they raise
            ahead = None
            k1, u1 = _extremal_rate(sys, y, c)
        if not bounds.contains(0, u1):
            abort = {"flag": OutOfBounds.__name__, "t": k * h, "u1": u1}
            break
        ys[k] = y
        us[k] = (u1, c)
        kept = k + 1
        if k == nsteps:
            break
        if ahead is None:
            try:
                ahead = _extremal_step(sys, y, c, h, k1)
            except ValueError:
                # math.sin of a stage state that overflowed to inf: the
                # step has no finite result
                abort = {"flag": NaNError.__name__, "t": (k + 1) * h}
                break
        y = ahead

    if kept == 0:
        # even the initial sample was inadmissible; surface it as an error
        raise ERRORS_BY_NAME[abort["flag"]](
            f"initial sample inadmissible: {abort}")

    meta = {
        "source": "constructed",
        "model": model_signature(sys, bounds),
        "config": {**asdict(config), "method": "rk4"},
        "c": c,
        "flags": [] if abort is None else [abort["flag"]],
        "abort": abort,
    }
    return Trajectory(t=np.arange(kept) * h, x=ys[:kept, :4], u=us[:kept],
                      lam=ys[:kept, 4:], meta=meta)


def _extremal_rate(sys: Arm2DOF, y, c):
    """(y', u1) at y = x + lambda (8 values): the singular law on channel
    1 with channel 2 at c, then the state and costate rates."""
    lam = y[4:]
    tab = u1_singular_brackets(sys, y[:4])
    u = (law_u1(_law_terms(tab, c), lam), c)
    return (state_rate(tab.f, tab.L, u)
            + costate_rate(tab.df_cols, tab.dL, u, lam), u[0])


def extremal_step_kernel(sys: Arm2DOF):
    """One RK4 step of ``_extremal_rate`` (``_rk4_step`` over its stages) as
    straight-line float code from ``duals.compiled``:
    ``(x0, .., x3, l0, .., l3, c, h) -> (y after the step, u1 at y)``.

    The same numbers (equal as floats) wherever the step stays finite.
    Raises OffTrace at the singular-mass guard, ZeroDivisionError at an
    exact zero divisor and ValueError at sin/cos of inf, where a stage of
    the reference raises.
    """
    inputs = [f"{v}{i}" for v in "xl" for i in range(4)] + ["c", "h"]

    def record(*v):
        y, c, h = list(v[:8]), v[8], v[9]
        k1, u1 = _extremal_rate(sys, y, c)
        return _extremal_step(sys, y, c, h, k1), u1

    return compiled(sys, "extremal_step_kernel", inputs, record)


def _extremal_step(sys: Arm2DOF, y, c, h, k1):
    """``_rk4_step`` over ``_extremal_rate`` from y, given k1, its y' at y."""
    return _rk4_step(lambda z, stage: _extremal_rate(sys, z, c)[0], y, h, k1)


def _rk4_step(rate, y, h, k1):
    """One classical RK4 step from y, given k1 = rate(y, 0).  rate(y, 1)
    is y' at the midpoint and rate(y, 2) at the end of the step: the stage
    matters only where the rate reads a time-varying input."""
    n = len(y)
    k2 = rate([y[i] + 0.5 * h * k1[i] for i in range(n)], 1)
    k3 = rate([y[i] + 0.5 * h * k2[i] for i in range(n)], 1)
    k4 = rate([y[i] + h * k3[i] for i in range(n)], 2)
    return [y[i] + (h / 6.0) * (k1[i] + 2.0 * (k2[i] + k3[i]) + k4[i])
            for i in range(n)]


def _control_table(t_knots, u_knots, ts, h, interp: str) -> np.ndarray:
    """u at ts[k], ts[k] + h/2 and ts[k] + h in row k, one array pass per
    stage (one pass over all three doubled the replay's peak memory).
    Zero-order hold keeps the latest sample; linear interpolation joins
    samples, holds the first and last outside them, and reproduces
    integrator output to round-trip accuracy."""
    last = t_knots.shape[0] - 1
    tmin, tmax = t_knots[0], t_knots[last]
    table = np.empty((ts.shape[0], 3) + u_knots.shape[1:])
    for stage, t in enumerate((ts, ts + 0.5 * h, ts + h)):
        out = table[:, stage]
        if interp == "zoh":
            idx = np.searchsorted(t_knots, t, side="right") - 1
            out[:] = u_knots[np.clip(idx, 0, last)]
            continue
        out[t >= tmax] = u_knots[last]
        out[t <= tmin] = u_knots[0]
        inner = (t > tmin) & (t < tmax)
        t = t[inner]
        j = np.searchsorted(t_knots, t, side="right")
        t0, t1 = t_knots[j - 1], t_knots[j]
        w = ((t - t0) / (t1 - t0))[:, None]
        out[inner] = (1.0 - w) * u_knots[j - 1] + w * u_knots[j]
    return table


def _replay_step(sys: Arm2DOF, x, u, h):
    """One RK4 step of ``state_rate(*sys.dyn(z), u[stage])`` from x, where
    u[s] is the control pair at t, t + h/2 and t + h."""
    def rate(z, stage):
        return state_rate(*sys.dyn(z), u[stage])
    return _rk4_step(rate, x, h, rate(x, 0))


def replay_kernel(sys: Arm2DOF):
    """``_replay_step`` as straight-line float code from ``duals.compiled``:
    ``(x0, .., x3, u00, u01, u10, u11, u20, u21, h) -> x after the step``.

    The same numbers (equal as floats) wherever that step stays finite.
    Raises OffTrace at the singular-mass guard, ZeroDivisionError at an
    exact zero divisor and ValueError at sin/cos of inf.
    """
    inputs = [f"x{i}" for i in range(4)] + \
        [f"u{s}{j}" for s in range(3) for j in range(2)] + ["h"]
    return compiled(sys, "replay_kernel", inputs, lambda *v: _replay_step(
        sys, v[:4], (v[4:6], v[6:8], v[8:10]), v[10]))


def resimulate(sys: Arm2DOF, x0, control,
               config: IntegratorConfig | None = None) -> Trajectory:
    """Replay a recorded control signal (a Trajectory or a (t, u) pair)
    through the plant, state only: one replay_kernel call per step."""
    if config is None:
        config = IntegratorConfig()
    replay = _replay(sys, x0, control, config)
    meta = {
        "source": "resimulated",
        "model": model_signature(sys),
        "config": {**asdict(config), "method": "rk4"},
        "flags": [],
        "abort": None,
    }
    return Trajectory(t=replay.t, x=replay.x, u=replay.u, meta=meta)


def _replay(sys: Arm2DOF, x0, control,
            config: IntegratorConfig) -> Trajectory:
    """resimulate's trajectory, without its metadata."""
    if isinstance(control, Trajectory):
        t_knots, u_knots = control.t, control.u
    else:
        t_knots = np.ascontiguousarray(control[0], dtype=float)
        u_knots = np.ascontiguousarray(control[1], dtype=float)
    if t_knots.ndim != 1 or u_knots.ndim != 2 \
            or u_knots.shape != (t_knots.shape[0], 2):
        raise SchemaError("control signal needs matching t and u samples, "
                          "one u column per input channel")
    tmax = float(t_knots[-1])
    horizon = config.horizon if config.horizon > 0.0 else tmax
    if horizon - tmax > 1e-12 * max(1.0, tmax):
        raise SchemaError(
            f"control defined up to t = {tmax}, cannot replay to {horizon}")
    h = config.step
    nsteps = round(horizon / h)
    ts = np.arange(nsteps + 1) * h
    table = _control_table(t_knots, u_knots, ts, h, config.interp)
    rows = table.reshape(nsteps + 1, -1)      # a view: u at t, t+h/2, t+h
    step = replay_kernel(sys)
    xs = np.empty((nsteps + 1, 4))
    x = [float(v) for v in np.asarray(x0, dtype=float).reshape(-1)]
    for k in range(nsteps + 1):
        xs[k] = x
        if k == nsteps:
            break
        # this step's six controls as Python floats; one row at a time, as
        # the whole table as Python objects would cost ~1.5 MB of peak RSS
        u = rows[k].tolist()
        try:
            x = step(*x, *u, h)
        except STOPS:
            # the Python stages: they raise the plant's own error here,
            # e.g. LinearSolveFailure at a singular mass matrix
            x = _replay_step(sys, x, (u[0:2], u[2:4], u[4:6]), h)
    return Trajectory(t=ts, x=xs, u=table[:, 0])


REPLAY_STEP = 1e-4   # the step of every endpoint replay


def replay_miss(sys: Arm2DOF, traj: Trajectory) -> float:
    """How far traj's recorded controls miss its recorded endpoint:
    ||x(t[-1]) - x[-1]|| for the replay from x[0], at step REPLAY_STEP
    with the controls linearly interpolated.  It builds no metadata, so
    it never loads hashlib for model_signature."""
    replay = _replay(sys, traj.x[0], traj,
                     IntegratorConfig(step=REPLAY_STEP, horizon=traj.horizon,
                                      interp="linear"))
    return float(np.linalg.norm(replay.x[-1] - traj.x[-1]))


def hamiltonian_trace(sys: Arm2DOF, traj: Trajectory) -> np.ndarray:
    """H(t) = <lambda, xdot> - 1 along a recorded trajectory."""
    if traj.lam is None:
        raise MissingCostates("trajectory carries no costates")
    return hamiltonian(sys, traj.x.T, traj.u.T, traj.lam.T)


def save_trajectory(traj: Trajectory, path: str, csv=None) -> None:
    """CSV with 17-significant-digit floats plus a JSON metadata sidecar.
    csv, if given, is trajectory_csv(traj)'s text, formatted ahead."""
    with open(path, "w") as fh:
        fh.writelines(trajectory_csv(traj) if csv is None else csv)
    with open(_sidecar_path(path), "w") as fh:
        json.dump(traj.meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def trajectory_csv(traj: Trajectory):
    """save_trajectory's CSV text, in csv_text's pieces."""
    names = ["t", *STATE_COLUMNS, *CONTROL_COLUMNS]
    columns = [traj.t, *traj.x.T, *traj.u.T]
    if traj.lam is not None:
        names += COSTATE_COLUMNS
        columns += list(traj.lam.T)
    return csv_text(",".join(names), ",".join(["%.17g"] * len(names)),
                    columns)


CSV_CHUNK = 1024     # rows csv_text converts to Python objects at a time


def csv_text(header: str, row: str, columns):
    """The header line, then ``row % values + "\\n"`` for each sample of
    the equal-length 1-D columns: np.savetxt's bytes for a row of "%.17g"
    fields.  Yields one piece per CSV_CHUNK rows, since the whole table
    as Python objects would cost one object per cell of peak memory."""
    yield header + "\n"
    row += "\n"
    for start in range(0, len(columns[0]), CSV_CHUNK):
        part = [col[start:start + CSV_CHUNK].tolist() for col in columns]
        # one % for the chunk's rows, fed their cells in order: a quarter
        # faster than one % per row
        yield (row * len(part[0])) % tuple(
            itertools.chain.from_iterable(zip(*part)))


def load_trajectory(path: str) -> Trajectory:
    """Inverse of save_trajectory; validates schema and time axis.

    Text that is not UTF-8, a file without sample rows, a non-numeric cell,
    a row of the wrong length, a sidecar that is not a JSON object and
    sidecar flags that are not a list of strings all raise SchemaError.
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
        flags = meta.get("flags", [])
        if not (isinstance(flags, list)
                and all(isinstance(f, str) for f in flags)):
            raise SchemaError(f"sidecar flags are not strings: {flags!r}")
    else:
        meta = {"source": "ingested", "flags": ["no-metadata"]}
    lam = table[:, 7:11] if has_lam else None
    return Trajectory(t=table[:, 0], x=table[:, 1:5], u=table[:, 5:7],
                      lam=lam, meta=meta)


def _sidecar_path(path: str) -> str:
    return path + ".meta.json"
