"""The four benchmark workloads: inputs, output checks and traced replays.

Each workload drives one ``singular-arc`` subcommand.  ``prepare`` builds
the inputs from the seed, ``argv`` is the command line handed to
``singarc.cli.main``, ``summarize`` reads what the command produced,
``replay`` calls the same public layer functions the command calls, in the
same order, with a span around each call, and ``check`` judges a summary
from either path.
"""
from __future__ import annotations

import csv
import json
import os
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from singarc.arm2dof import Arm2DOF
from singarc.cli import load_config
from singarc.errors import (EXIT_OK, EXIT_PARTIAL_REGULARIZATION,
                            EXIT_VIOLATIONS_REMAIN)
from singarc.integrate import (IntegratorConfig, Trajectory,
                               hamiltonian_trace, integrate_extremal,
                               load_trajectory, save_trajectory)
from singarc.liegeom import alpha_coefficients, b_set_certificate, frame_rank
from singarc.pmp import in_Rk
from singarc.regularize import (LABEL_VIOLATION, detect_singular_arcs,
                                ingest, pmp_audit, regularize_u1,
                                switching_series)

# Reference run of the packaged config: x0, (lambda2, lambda4) = (-3, -6),
# u2 = -10, step 1e-4.  Endpoints pinned from that run; costate scaling
# leaves the law, hence the state path, unchanged.
LAMBDA2, LAMBDA4 = -3.0, -6.0
STEP = 1e-4
ENDPOINT_ATOL = 5e-13
PHI1_RTOL = 1e-6
SPIKE_FRACTION = 0.01
SPIKE_MAGNITUDE = 5.0
U1_ATOL = 1e-6
ENDPOINT_RTOL = 1e-3
ALPHA_ATOL = 1e-9


@dataclass(frozen=True)
class Size:
    """Problem size shared by all workloads: the full run or a smoke run."""

    name: str
    horizon: float
    samples: int
    x_end: tuple[float, float, float, float]
    certify_states: int


FULL = Size("full", 0.7, 7001,
            (0.4830725161393735, 0.0698789327652737,
             0.5672600757433793, -0.6402435714845912), 50_000)
SMOKE = Size("smoke", 0.02, 201,
             (0.16343283206734469, 0.16628467919125053,
              0.33408940598942183, 0.42259821159626376), 1_000)


def write_construct_config(path: Path, size: Size, scale: float) -> None:
    """INI overlay: reference costate pair times scale, pinned step/horizon."""
    path.write_text(
        "[initial]\n"
        f"lambda2 = {LAMBDA2 * scale!r}\n"
        f"lambda4 = {LAMBDA4 * scale!r}\n"
        "[integrator]\n"
        f"step = {STEP!r}\n"
        f"horizon = {size.horizon!r}\n")


def trajectory_summary(traj: Trajectory) -> dict:
    phi, _ = switching_series(Arm2DOF(), traj)
    lam_max = float(np.linalg.norm(traj.lam, axis=1).max())
    return {"samples": len(traj),
            "x_end": [float(v) for v in traj.x[-1]],
            "phi1_rel": float(np.abs(phi[:, 0]).max()) / lam_max}


def file_bytes(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths)


class Workload:
    name: str
    command: str
    needs_clean = False     # starts from the checked reference run

    def prepare(self, work: Path, seed: int, size: Size, clean: Path | None
                ) -> dict:
        raise NotImplementedError

    def argv(self, case: dict, out: str) -> list[str]:
        raise NotImplementedError

    def summarize(self, case: dict, out: str, rc: int, stdout: str) -> dict:
        raise NotImplementedError

    def replay(self, case: dict, out: str, tracer, plant) -> dict:
        """Returns {"summary", "counters"} and, for repair, the arguments
        of the replay that regularize_u1 runs internally ("resim")."""
        raise NotImplementedError

    def check(self, case: dict, summary: dict) -> list[str]:
        raise NotImplementedError


class Construct(Workload):
    name = "construct-reference"
    command = "construct"

    def prepare(self, work, seed, size, clean):
        rng = np.random.default_rng(seed)
        scale = float(2.0 ** rng.uniform(-2.0, 2.0))
        config = work / "construct.cfg"
        write_construct_config(config, size, scale)
        return {"config": str(config), "scale": scale,
                "samples": size.samples, "x_end": list(size.x_end)}

    def argv(self, case, out):
        return ["construct", "--config", case["config"], "--out", out]

    def summarize(self, case, out, rc, stdout):
        summary = trajectory_summary(load_trajectory(out))
        summary.update(rc=rc, aborted="aborted early" in stdout)
        return summary

    def replay(self, case, out, tracer, plant):
        cfg = load_config(case["config"])
        with tracer.span("pmp.costate_on_surface"):
            lam0 = cfg.initial_costate(plant)
        with tracer.span("integrate.integrate_extremal"):
            traj = integrate_extremal(plant, np.asarray(cfg.x0), lam0,
                                      cfg.integrator, c=cfg.u2,
                                      bounds=cfg.bounds)
        with tracer.span("integrate.save_trajectory"):
            save_trajectory(traj, out)
        with tracer.span("regularize.switching_series"):
            switching_series(plant, traj)
        with tracer.span("integrate.hamiltonian_trace"):
            hamiltonian_trace(plant, traj)
        summary = trajectory_summary(traj)
        summary.update(rc=0, aborted=bool(traj.meta.get("abort")))
        return {"summary": summary,
                "counters": {"csv_bytes": file_bytes(out),
                             "rk4_steps": len(traj) - 1}}

    def check(self, case, summary):
        bad = []
        if summary["rc"] != 0 or summary["aborted"]:
            bad.append(f"construct exit {summary['rc']}, "
                       f"aborted={summary['aborted']}")
        if summary["samples"] != case["samples"]:
            bad.append(f"{summary['samples']} samples, "
                       f"expected {case['samples']}")
        err = float(np.abs(np.subtract(summary["x_end"],
                                       case["x_end"])).max())
        if not err <= ENDPOINT_ATOL:
            bad.append(f"endpoint off the pinned one by {err:.3e}")
        if not summary["phi1_rel"] <= PHI1_RTOL:
            bad.append(f"max|phi1| is {summary['phi1_rel']:.3e} "
                       "of max||lambda||")
        return bad


def spike(clean: Path, dest: Path, seed: int) -> list[int]:
    """Copy of the clean run with +-5 N.m added to u1 on 1% of the rows."""
    traj = load_trajectory(str(clean))
    rng = np.random.default_rng(seed)
    n = len(traj)
    count = max(1, round(n * SPIKE_FRACTION))
    rows = np.sort(rng.choice(n, size=count, replace=False))
    u = np.array(traj.u)
    u[rows, 0] += rng.choice([-SPIKE_MAGNITUDE, SPIKE_MAGNITUDE], size=count)
    save_trajectory(Trajectory(t=traj.t, x=traj.x, u=u, lam=traj.lam,
                               meta={"source": "ingested", "flags": []}),
                    str(dest))
    return [int(r) for r in rows]


class Repair(Workload):
    name = "repair-spiked"
    command = "regularize"
    needs_clean = True

    def prepare(self, work, seed, size, clean):
        spiked = work / "spiked.csv"
        rows = spike(clean, spiked, seed)
        return {"input": str(spiked), "clean": str(clean), "rows": rows,
                "samples": size.samples}

    def argv(self, case, out):
        return ["regularize", case["input"], "--out", out]

    def _sup_dev(self, case, traj):
        clean = load_trajectory(case["clean"])
        return float(np.abs(traj.u[:, 0] - clean.u[:, 0]).max())

    def summarize(self, case, out, rc, stdout):
        with open(out + ".report.json") as fh:
            report = json.load(fh)
        # exit 0 promises zero violations; the printed count cross-checks it
        found = re.search(r"violations after regularization: (\d+)", stdout)
        violations = int(found.group(1)) if found else (0 if rc == 0 else -1)
        return {"rc": rc,
                "intervals": sum(iv["channel"] == 1
                                 for iv in report["intervals"]),
                "violations": violations,
                "sup_dev": self._sup_dev(case, load_trajectory(out)),
                "endpoint_error": report["endpoint_error"]}

    def replay(self, case, out, tracer, plant):
        cfg = load_config(None)
        with tracer.span("integrate.load_trajectory"):
            traj = ingest(case["input"])
        with tracer.span("regularize.detect_singular_arcs"):
            intervals = [iv for iv in detect_singular_arcs(
                plant, traj, cfg.bounds, cfg.tolerances) if iv.channel == 1]
        with tracer.span("regularize.regularize_u1"):
            fixed, report = regularize_u1(plant, traj, intervals, cfg.bounds,
                                          cfg.tolerances)
        with tracer.span("integrate.save_trajectory"):
            save_trajectory(fixed, out)
        with open(out + ".report.json", "w") as fh:
            fh.write(report.to_json())
            fh.write("\n")
        with tracer.span("regularize.pmp_audit"):
            audit = pmp_audit(plant, fixed, cfg.bounds, cfg.tolerances)
        attempts = sum(iv.stop - iv.start + 1 for iv in intervals)
        violations = audit.count(LABEL_VIOLATION)
        rc = (EXIT_PARTIAL_REGULARIZATION if "partial" in report.flags
              else EXIT_VIOLATIONS_REMAIN if violations else EXIT_OK)
        summary = {"rc": rc,
                   "intervals": len(intervals),
                   "violations": violations,
                   "sup_dev": self._sup_dev(case, fixed),
                   "endpoint_error": report.endpoint_error}
        # the replay regularize_u1 runs internally, with the same arguments
        resim = (traj.x[0], fixed,
                 IntegratorConfig(step=1e-4, horizon=float(traj.t[-1]),
                                  interp="linear"))
        return {"summary": summary,
                "counters": {"csv_bytes": file_bytes(case["input"], out),
                             "law_attempts": attempts,
                             "law_rewritten":
                                 attempts - len(report.skipped_samples)},
                "resim": resim}

    def check(self, case, summary):
        bad = []
        if summary["rc"] != 0:
            bad.append(f"regularize exit {summary['rc']}")
        if summary["intervals"] != 1:
            bad.append(f"{summary['intervals']} channel-1 intervals, "
                       "expected 1")
        if summary["violations"] != 0:
            bad.append(f"{summary['violations']} violations remain")
        if not summary["sup_dev"] <= U1_ATOL:
            bad.append(f"sup|u1 - clean u1| = {summary['sup_dev']:.3e}")
        if not summary["endpoint_error"] <= ENDPOINT_RTOL:
            bad.append(f"endpoint error {summary['endpoint_error']:.3e}")
        return bad


class Diagnose(Repair):
    name = "diagnose-spiked"
    command = "diagnose"

    def argv(self, case, out):
        return ["diagnose", case["input"], "--out", out]

    def summarize(self, case, out, rc, stdout):
        report = json.loads(stdout)
        with open(out, newline="") as fh:
            rows = [i for i, rec in enumerate(csv.DictReader(fh))
                    if rec["label_u1"] == LABEL_VIOLATION]
        return {"rc": rc, "violation_rows": rows,
                "classification": report["classification"]}

    def replay(self, case, out, tracer, plant):
        cfg = load_config(None)
        with tracer.span("integrate.load_trajectory"):
            traj = ingest(case["input"])
        with tracer.span("regularize.switching_series"):
            switching_series(plant, traj)
        with tracer.span("integrate.hamiltonian_trace"):
            hamiltonian_trace(plant, traj)
        with tracer.span("pmp.in_Rk"):
            in_Rk(traj.x.T)
        with tracer.span("regularize.pmp_audit"):
            audit = pmp_audit(plant, traj, cfg.bounds, cfg.tolerances)
        labels, counts = np.unique(audit.labels, return_counts=True)
        summary = {"rc": 0,
                   "violation_rows": [int(i) for i in np.flatnonzero(
                       audit.labels[:, 0] == LABEL_VIOLATION)],
                   "classification": {str(k): int(v)
                                      for k, v in zip(labels, counts)}}
        return {"summary": summary,
                "counters": {"csv_bytes": file_bytes(case["input"])}}

    def check(self, case, summary):
        bad = []
        if summary["rc"] != 0:
            bad.append(f"diagnose exit {summary['rc']}")
        if summary["violation_rows"] != case["rows"]:
            bad.append("channel-1 violations are not exactly the spiked rows")
        n, k = case["samples"], len(case["rows"])
        want = {"violation": k, "singular": n - k, "lower-bang": n}
        if summary["classification"] != want:
            bad.append(f"classification {summary['classification']}, "
                       f"expected {want}")
        return bad


class Certify(Workload):
    name = "certify-sweep"
    command = "certify"

    def prepare(self, work, seed, size, clean):
        return {"seed": seed, "samples": size.certify_states}

    def argv(self, case, out):
        return ["certify", "--samples", str(case["samples"]),
                "--seed", str(case["seed"]), "--out", out]

    def summarize(self, case, out, rc, stdout):
        with open(out) as fh:
            report = json.load(fh)
        report["rc"] = rc
        return report

    def replay(self, case, out, tracer, plant):
        cfg = load_config(None, {"samples": case["samples"],
                                 "seed": case["seed"]})
        rng = np.random.default_rng(cfg.seed)
        lo = np.asarray(cfg.box_low)
        hi = np.asarray(cfg.box_high)
        batch = rng.uniform(lo, hi, size=(cfg.samples, lo.size)).T
        with tracer.span("liegeom.frame_rank"):
            ranks = np.asarray(frame_rank(plant, batch))
        with tracer.span("liegeom.alpha_coefficients"):
            alpha = alpha_coefficients(plant, batch)
        b_set = {}
        for c in (cfg.bounds.lower[0], cfg.bounds.upper[0]):
            with tracer.span("liegeom.b_set_certificate"):
                ok, _ = b_set_certificate(plant, batch, c)
            b_set[f"c={c:g}"] = {"pass_rate": float(np.mean(ok))}
        summary = {"rc": 0, "samples": cfg.samples, "seed": cfg.seed,
                   "min_frame_rank": float(ranks.min()),
                   "max_abs_alpha_ij1": float(
                       np.abs(np.asarray(alpha.values)[:, :, 0]).max()),
                   "b_set": b_set}
        return {"summary": summary, "counters": {}}

    def check(self, case, summary):
        bad = []
        if summary["rc"] != 0:
            bad.append(f"certify exit {summary['rc']}")
        if summary["samples"] != case["samples"] \
                or summary["seed"] != case["seed"]:
            bad.append("report is for another sweep")
        if not summary["min_frame_rank"] > 0.0:
            bad.append(f"min frame rank {summary['min_frame_rank']}")
        if not summary["max_abs_alpha_ij1"] <= ALPHA_ATOL:
            bad.append(f"max|alpha_ij1| = {summary['max_abs_alpha_ij1']:.3e}")
        # criterion 05 fails by design: the B-set pass rate is recorded only
        return bad


WORKLOADS = {w.name: w for w in (Construct(), Repair(), Diagnose(),
                                 Certify())}
