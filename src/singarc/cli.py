"""Batch front end: construct, diagnose, regularize, certify.

Every command reads the packaged defaults, overlays an optional config
file, then applies command-line flags, and is deterministic given those
inputs.  Outputs are plain CSV series and JSON summaries; no plotting.

The module keeps one plant, for the last parameter set a command ran on:
commands in one process on the same ``[model]`` share it and so the
compiled kernels cached on it (see ``duals.compiled``), and a one-shot
invocation builds every kernel once, on first use.
"""
from __future__ import annotations

import argparse
import configparser
import functools
import json
import math
import sys
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .arm2dof import Arm2DOF, ArmParams, ControlBounds
from .errors import (ERRORS_BY_NAME, EXIT_CODES, EXIT_OK,
                     EXIT_PARTIAL_REGULARIZATION, EXIT_VIOLATIONS_REMAIN,
                     MissingCostates, SingArcError, exit_code_for)
from .integrate import (IntegratorConfig, hamiltonian_trace,
                        integrate_extremal, replay_miss, save_trajectory,
                        write_csv)
from .liegeom import WORD_CHUNK, certify_sweep
from .pmp import costate_norm, costate_on_surface, costate_ratio, in_Rk
from .regularize import (AUDIT_LABELS, LABEL_VIOLATION, Tolerances,
                         detect_singular_arcs, ingest, pmp_audit,
                         regularize_u1, switching_series)


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
        raise ValueError("x0 needs exactly four components")
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
        write_csv(fh, "t,phi1,phi1_dot,phi2,phi2_dot,H,in_rk,lam_ratio,"
                  "label_u1,label_u2", _SERIES_ROW, columns)
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
    fixed, report = regularize_u1(sys_, traj, intervals, cfg.bounds,
                                  cfg.tolerances)
    save_trajectory(fixed, out)
    with open(out + ".report.json", "w") as fh:
        fh.write(report.to_json())
        fh.write("\n")
    audit = pmp_audit(sys_, fixed, cfg.bounds, cfg.tolerances)
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


def cmd_certify(cfg: RunConfig, out: str | None) -> int:
    sys_ = cfg.system()
    rng = np.random.default_rng(cfg.seed)
    lo = np.asarray(cfg.box_low)
    hi = np.asarray(cfg.box_high)
    # drawn one chunk at a time: consecutive draws from one generator give
    # the bits of a single draw of all the states
    blocks = (rng.uniform(lo, hi, size=(min(WORD_CHUNK, cfg.samples - start),
                                        lo.size))
              for start in range(0, cfg.samples, WORD_CHUNK))
    sweep = certify_sweep(sys_, blocks,
                          (cfg.bounds.lower[0], cfg.bounds.upper[0]))
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


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="singular-arc",
        description="Singular-arc construction and regularization for the "
                    "torque-limited 2-DOF arm")
    sub = top.add_subparsers(dest="command", required=True)
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
