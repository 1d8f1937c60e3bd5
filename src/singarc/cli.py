"""Batch front end: construct, diagnose, regularize, certify.

Every command reads the packaged defaults, overlays an optional config
file, then applies command-line flags, and is deterministic given those
inputs.  Outputs are plain CSV series and JSON summaries; no plotting.

certify sweeps its states in forked worker processes, and regularize
replays the repaired run's endpoint in one while it formats and audits
that run (_alongside); _workers bounds how many processes run at once.
Each writes what one process writes.

The module keeps one plant, for the last parameter set a command ran on:
commands in one process on the same ``[model]`` share it and so the
compiled kernels cached on it (see ``duals.compiled``), and a one-shot
invocation builds every kernel once, on first use.
"""
from __future__ import annotations

import argparse
import configparser
import contextlib
import functools
import json
import math
import os
import pickle
import sys
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .arm2dof import Arm2DOF, ArmParams, ControlBounds
from .errors import (ERRORS_BY_NAME, EXIT_CODES, EXIT_OK,
                     EXIT_PARTIAL_REGULARIZATION, EXIT_VIOLATIONS_REMAIN,
                     MissingCostates, SingArcError, exit_code_for)
from .integrate import (IntegratorConfig, csv_text, hamiltonian_trace,
                        integrate_extremal, replay_kernel, replay_miss,
                        save_trajectory, trajectory_csv)
from .liegeom import (WORD_CHUNK, SweepReduction, certify_sweep,
                      merge_sweeps, record_sweep_kernels)
from .pmp import costate_norm, costate_on_surface, costate_ratio, in_Rk
from .regularize import (AUDIT_LABELS, LABEL_VIOLATION, Tolerances,
                         detect_singular_arcs, ingest, pmp_audit, rewrite_u1,
                         switching_series, with_endpoint)


@dataclass(frozen=True)
class RunConfig:
    """Validated bundle of everything a command needs."""

    params: ArmParams
    bounds: ControlBounds
    x0: tuple[float, float, float, float]
    lambda0: tuple[float, float, float, float] | None
    lambda2: float
    lambda4: float
    u2: float
    integrator: IntegratorConfig
    tolerances: Tolerances
    box_low: tuple[float, ...]
    box_high: tuple[float, ...]
    samples: int
    seed: int

    def system(self) -> Arm2DOF:
        """The plant for params: the same object as the last command's
        when that ran on equal parameters, so its kernels carry over."""
        return _plant(self.params)

    def initial_costate(self, sys_) -> np.ndarray:
        if self.lambda0 is not None:
            return np.asarray(self.lambda0, dtype=float)
        return costate_on_surface(sys_, np.asarray(self.x0), self.lambda2,
                                  self.lambda4)


@functools.lru_cache(maxsize=1)
def _plant(params: ArmParams) -> Arm2DOF:
    # a kernel depends only on the plant's type and parameters, and the
    # plant holds no state, so reusing it gives the same bits
    return Arm2DOF(params)


def _numbers(section, key: str, kind=float, one: bool = False):
    """[section] key's comma- or space-separated values, or with one True
    its only value; anything else is a ValueError naming the key."""
    text = section[key]
    try:
        vals = tuple(kind(tok) for tok in text.replace(",", " ").split())
        if not one or len(vals) == 1:
            return vals[0] if one else vals
    except ValueError:
        pass
    want = f"one {kind.__name__}" if one else f"{kind.__name__} values"
    raise ValueError(f"[{section.name}] {key} must hold {want}, got {text!r}")


def load_config(path: str | None = None,
                overrides: dict | None = None) -> RunConfig:
    parser = configparser.ConfigParser()
    with resources.files("singarc").joinpath("configs/default.cfg") \
            .open() as fh:
        parser.read_file(fh)
    # the packaged keys, plus the optional full costate
    known = {name: set(parser[name]) for name in parser.sections()}
    known["initial"].add("lambda0")
    if path is not None:
        if not parser.read(path):
            raise FileNotFoundError(f"config file not found: {path}")
        unknown = [f"[{name}] {key}" for name in parser.sections()
                   for key in parser[name] if key not in known.get(name, ())]
        if unknown:
            raise ValueError(f"unknown config keys in {path}: "
                             + ", ".join(unknown))
    overrides = overrides or {}

    model = parser["model"]
    params = ArmParams(**{key: _numbers(model, key) for key in (
        "link_length", "com_position", "mass", "inertia_z")})
    bounds = ControlBounds(lower=_numbers(parser["bounds"], "lower"),
                           upper=_numbers(parser["bounds"], "upper"))
    initial = parser["initial"]
    x0 = _numbers(initial, "x0")
    if len(x0) != 4:
        raise ValueError("[initial] x0 needs exactly four components, "
                         f"got {initial['x0']!r}")
    lambda0 = _numbers(initial, "lambda0") if "lambda0" in initial else None
    if lambda0 is not None and len(lambda0) != 4:
        raise ValueError("[initial] lambda0 needs exactly four components, "
                         f"got {initial['lambda0']!r}")
    integ = parser["integrator"]
    integrator = IntegratorConfig(
        step=_numbers(integ, "step", one=True)
        if overrides.get("step") is None else overrides["step"],
        horizon=_numbers(integ, "horizon", one=True),
    )
    tols = parser["tolerances"]
    tolerances = Tolerances(
        phi_band=overrides.get("tol_phi"),
        rel_band=_numbers(tols, "rel_band", one=True),
        min_samples=_numbers(tols, "min_samples", int, one=True),
        gap_samples=_numbers(tols, "gap_samples", int, one=True),
        u_tol=_numbers(tols, "u_tol", one=True),
        law_tol=_numbers(tols, "law_tol", one=True),
    )
    sampling = parser["sampling"]
    box_low, box_high = (_box_corner(sampling, key)
                         for key in ("box_low", "box_high"))
    # Generator.uniform draws in [low, high) and needs a finite width
    if not all(lo <= hi and math.isfinite(hi - lo)
               for lo, hi in zip(box_low, box_high)):
        raise ValueError("[sampling] box_low must not exceed box_high, by a "
                         "finite width, entry by entry")
    samples = _numbers(sampling, "samples", int, one=True) \
        if overrides.get("samples") is None else overrides["samples"]
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    seed = _numbers(sampling, "seed", int, one=True) \
        if overrides.get("seed") is None else overrides["seed"]
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return RunConfig(
        params=params,
        bounds=bounds,
        x0=x0,
        lambda0=lambda0,
        lambda2=_numbers(initial, "lambda2", one=True),
        lambda4=_numbers(initial, "lambda4", one=True),
        u2=_numbers(initial, "u2", one=True),
        integrator=integrator,
        tolerances=tolerances,
        box_low=box_low,
        box_high=box_high,
        samples=samples,
        seed=seed,
    )


def _box_corner(sampling, key: str) -> tuple[float, ...]:
    vals = _numbers(sampling, key)
    if len(vals) != 4 or not all(map(math.isfinite, vals)):
        raise ValueError(f"[sampling] {key} must hold four finite values, "
                         f"got {sampling[key]!r}")
    return vals


def _g(v: float) -> str:
    return "%.17g" % v


# t, phi1, phi1', phi2, phi2', H, in_rk (0/1), lam_ratio, label_u1, label_u2
_SERIES_ROW = "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%d,%.17g,%s,%s"


def cmd_construct(cfg: RunConfig, out: str) -> int:
    sys_ = cfg.system()
    lam0 = cfg.initial_costate(sys_)
    traj = integrate_extremal(sys_, np.asarray(cfg.x0), lam0,
                              cfg.integrator, c=cfg.u2, bounds=cfg.bounds)
    save_trajectory(traj, out)
    phi, phi_dot = switching_series(sys_, traj)
    lam_max = float(costate_norm(traj.lam.T).max())
    H = hamiltonian_trace(sys_, traj)
    print(f"samples: {len(traj)}")
    print("endpoint:", " ".join(_g(v) for v in traj.x[-1]))
    print(f"max|phi1|: {np.abs(phi[:, 0]).max():.3e} "
          f"({np.abs(phi[:, 0]).max() / lam_max:.3e} of max||lambda||)")
    print(f"max|phi1'|: {np.abs(phi_dot[:, 0]).max():.3e}")
    print(f"H variation: {H.max() - H.min():.3e}")
    print(f"wrote {out}")
    abort = traj.meta.get("abort")
    if abort:
        print(f"aborted early: {abort}")
        return EXIT_CODES[ERRORS_BY_NAME[abort["flag"]]]
    return EXIT_OK


def cmd_diagnose(traj_path: str, cfg: RunConfig, out: str) -> int:
    sys_ = cfg.system()
    traj = ingest(traj_path)
    if traj.lam is None:
        summary = {
            "costates": False,
            "notice": "MissingCostates: only resimulation diagnostics "
                      "are available for this file",
            "samples": len(traj),
            "resim_endpoint_drift": replay_miss(sys_, traj),
        }
        print(json.dumps(summary, indent=2, sort_keys=True))
        return EXIT_OK
    phi, phi_dot = switching_series(sys_, traj)
    H = hamiltonian_trace(sys_, traj)
    member = in_Rk(traj.x.T)
    ratio = costate_ratio(traj.lam.T)
    audit = pmp_audit(sys_, traj, cfg.bounds, cfg.tolerances)
    columns = (traj.t, phi[:, 0], phi_dot[:, 0], phi[:, 1], phi_dot[:, 1], H,
               member, ratio, audit.labels[:, 0], audit.labels[:, 1])
    with open(out, "w") as fh:
        fh.writelines(csv_text("t,phi1,phi1_dot,phi2,phi2_dot,H,in_rk,"
                               "lam_ratio,label_u1,label_u2", _SERIES_ROW,
                               columns))
    # counted label by label: sorting the label strings (np.unique) is
    # the command's largest transient allocation
    counts = {label: audit.count(label) for label in AUDIT_LABELS}
    summary = {
        "costates": True,
        "samples": len(traj),
        "max_abs_phi1": float(np.abs(phi[:, 0]).max()),
        "max_abs_phi1_dot": float(np.abs(phi_dot[:, 0]).max()),
        "H_variation": float(H.max() - H.min()),
        "in_rk_fraction": float(member.mean()),
        "classification": {l: c for l, c in counts.items() if c},
        "lambda_degenerate_rows": [int(i) for i in audit.lambda_degenerate],
        "series": out,
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_regularize(traj_path: str, cfg: RunConfig, out: str) -> int:
    sys_ = cfg.system()
    traj = ingest(traj_path)
    if traj.lam is None:
        raise MissingCostates("regularization requires costate columns")
    intervals = [iv for iv in detect_singular_arcs(sys_, traj, cfg.bounds,
                                                   cfg.tolerances)
                 if iv.channel == 1]
    fixed, report = rewrite_u1(sys_, traj, intervals, cfg.bounds,
                               cfg.tolerances)
    # recorded before the fork, so that the plant keeps it
    replay_kernel(sys_)
    replay = ("regularize replay worker",
              functools.partial(replay_miss, sys_, fixed))
    # the run is formatted while the replay runs and written once the
    # replay has its miss, so a failed command writes no file
    with _alongside([replay], fork=_workers() > 1) as miss:
        csv = list(trajectory_csv(fixed))
        audit = pmp_audit(sys_, fixed, cfg.bounds, cfg.tolerances)
    report = with_endpoint(fixed, report, *miss)
    save_trajectory(fixed, out, csv)
    with open(out + ".report.json", "w") as fh:
        fh.write(report.to_json())
        fh.write("\n")
    violations = audit.count(LABEL_VIOLATION)
    print(f"intervals: {len(intervals)}")
    print(f"endpoint error: {report.endpoint_error:.6e} relative "
          f"({report.endpoint_error_abs:.6e} absolute)")
    print(f"violations after regularization: {violations}")
    print(f"wrote {out}")
    if "partial" in report.flags:
        return EXIT_PARTIAL_REGULARIZATION
    if violations > 0:
        return EXIT_VIOLATIONS_REMAIN
    return EXIT_OK


CGROUP = "/sys/fs/cgroup"


def _cpu_quota(cgroup: str = CGROUP) -> int | None:
    """ceil(quota / period): the CPUs the cgroup's CPU bandwidth limit
    allows, from v2's cpu.max or else v1's cpu.cfs_quota_us and
    cpu.cfs_period_us under cgroup; None where neither file is there, no
    limit is set ("max", -1) or the file cannot be read."""
    for names in (("cpu.max",),
                  ("cpu/cpu.cfs_quota_us", "cpu/cpu.cfs_period_us")):
        fields = []
        try:
            for name in names:
                with open(os.path.join(cgroup, name)) as fh:
                    fields += fh.read().split()
        except OSError:
            continue
        try:
            quota, period = map(int, fields)
        except ValueError:
            return None
        return -(-quota // period) if quota > 0 and period > 0 else None
    return None


def _workers(cgroup: str = CGROUP) -> int:
    """The processes a command may run in at once: one per CPU this
    process may run on (Linux, else one), and no more than its cgroup's
    CPU quota allows."""
    cpus = len(os.sched_getaffinity(0)) \
        if hasattr(os, "sched_getaffinity") else 1
    quota = _cpu_quota(cgroup)
    return cpus if quota is None else min(cpus, quota)


_SIGKILL = 9     # signal.SIGKILL, without loading the signal module


@contextlib.contextmanager
def _alongside(tasks, fork: bool = True):
    """Run tasks, (name, callable) pairs, alongside the with-block, and
    yield the list that holds their results, in order, once it has ended.

    With fork, each task runs in a forked child from the block's start;
    without, in this process before the block, so that its error comes
    first.  os.fork and a pipe load no module, where multiprocessing would
    add its import and a pool's start-up to each command.  A kernel a
    child records dies with it, so callers record the tasks' kernels
    first.  An exception in the block SIGKILLs every child and propagates
    once all are reaped.  Otherwise every child is reaped, and the first
    failed task's exception is raised here: its own, or a
    ChildProcessError naming a child that ended without a result.
    """
    results = []
    if not fork:
        results.extend(task() for _, task in tasks)
        yield results
        return
    children = []
    try:
        for name, task in tasks:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                status = 1
                try:
                    os.close(read)
                    try:
                        result = task()
                    except Exception as exc:    # the parent raises it
                        result = exc
                    with os.fdopen(write, "wb") as fh:
                        pickle.dump(result, fh)
                    status = 0
                finally:
                    # no atexit handler, no flush of the parent's buffers
                    os._exit(status)
            os.close(write)
            children.append((name, pid, read))
        yield results
    except BaseException:
        for _, pid, _ in children:
            os.kill(pid, _SIGKILL)
        raise
    finally:
        outcomes = [_reap(*child) for child in children]
    for outcome in outcomes:
        if isinstance(outcome, BaseException):
            raise outcome
    results.extend(outcomes)


def _reap(name: str, pid: int, read: int):
    """A child's unpickled result or exception, once it has exited."""
    with os.fdopen(read, "rb") as fh:
        data = fh.read()
    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if data and status == 0:
        return pickle.loads(data)
    how = f"signal {-status}" if status < 0 else f"exit status {status}"
    return ChildProcessError(f"{name} ended with {how} and no result")


def _sweep(sys_, cfg: RunConfig) -> SweepReduction:
    """certify_sweep over cfg's states, block i in worker i mod W.

    Worker 0 is this process and the others are forked children
    (_alongside).  The sweep's kernels are recorded before the first fork,
    so the children share them with the plant even in a one-shot certify.
    Each worker draws the whole stream from one generator and keeps its
    own blocks, so every state has the bits of a single draw, and
    merge_sweeps gives what one sweep over all the blocks gives.
    """
    lo = np.asarray(cfg.box_low)
    hi = np.asarray(cfg.box_high)
    starts = range(0, cfg.samples, WORD_CHUNK)
    workers = min(_workers(), len(starts))
    bang_values = (cfg.bounds.lower[0], cfg.bounds.upper[0])

    def blocks(worker):
        # every worker draws the whole stream, one block at a time, and
        # keeps its own: consecutive draws from one generator give the
        # bits of a single draw of all the states
        rng = np.random.default_rng(cfg.seed)
        for i, start in enumerate(starts):
            block = rng.uniform(lo, hi, size=(
                min(WORD_CHUNK, cfg.samples - start), lo.size))
            if i % workers == worker:
                yield block

    record_sweep_kernels(sys_)
    others = [(f"certify worker {worker}", functools.partial(
        certify_sweep, sys_, blocks(worker), bang_values))
        for worker in range(1, workers)]
    with _alongside(others) as parts:
        mine = certify_sweep(sys_, blocks(0), bang_values)
    return merge_sweeps([mine, *parts])


def cmd_certify(cfg: RunConfig, out: str | None) -> int:
    sweep = _sweep(cfg.system(), cfg)
    report = {
        "samples": cfg.samples,
        "seed": cfg.seed,
        "min_frame_rank": sweep.min_frame_rank,
        "max_abs_alpha_ij1": sweep.max_abs_alpha_ij1,
        "b_set": {f"c={c:g}": {
            "pass_rate": (cfg.samples - failures) / cfg.samples,
            "failures": failures,
            "max_failure_velocity_sum": velocity,
        } for c, failures, velocity in sweep.b_set},
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
            fh.write("\n")
    return EXIT_OK


class _CommandParser(argparse.ArgumentParser):
    """A command's parser: an argument it does not take is its own usage
    error, printed with its own usage line, not the top parser's."""

    def parse_known_args(self, args=None, namespace=None):
        args, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error("unrecognized arguments: " + " ".join(extra))
        return args, extra


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="singular-arc",
        description="Singular-arc construction and regularization for the "
                    "torque-limited 2-DOF arm")
    sub = top.add_subparsers(dest="command", required=True,
                             parser_class=_CommandParser)
    cmd = {}
    for name, summary in (
            ("construct", "integrate the reference singular extremal"),
            ("diagnose", "switching/PMP diagnostics for a trajectory file"),
            ("regularize", "detect singular arcs and rewrite u1"),
            ("certify", "sampled independence certificates")):
        cmd[name] = p = sub.add_parser(name, help=summary)
        p.add_argument("--config", metavar="PATH",
                       help="config file overlaying the packaged defaults")
        p.add_argument("--out", metavar="PATH",
                       help="output file for the command's artifact")
    # beyond these, each command takes the flags it reads and no other
    cmd["construct"].add_argument("--step", type=float, metavar="S",
                                  help="integrator step override")
    for p in (cmd["diagnose"], cmd["regularize"]):
        p.add_argument("trajectory", help="trajectory CSV")
        p.add_argument("--tol-phi", type=float, metavar="E", dest="tol_phi",
                       help="absolute switching-function band override")
    cmd["certify"].add_argument("--samples", type=int, metavar="N",
                                help="sample count of the sweep")
    cmd["certify"].add_argument("--seed", type=int, metavar="N",
                                help="RNG seed of the sweep")
    return top


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # a flag the command does not take is absent, as if not given
    overrides = {name: getattr(args, name, None)
                 for name in ("step", "samples", "seed", "tol_phi")}
    try:
        cfg = load_config(args.config, overrides)
        if args.command == "construct":
            return cmd_construct(cfg, args.out or "extremal.csv")
        if args.command == "diagnose":
            return cmd_diagnose(args.trajectory, cfg, args.out
                                or "diagnose.csv")
        if args.command == "regularize":
            return cmd_regularize(args.trajectory, cfg, args.out
                                  or "regularized.csv")
        return cmd_certify(cfg, args.out)
    except SingArcError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # e.g. the replay of a file whose last t asks for a huge array
        print(f"error: MemoryError: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
