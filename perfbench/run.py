"""Benchmark of the singular-arc command line, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports ``src/singarc``
directly, builds its inputs under ``.perfbench/`` and removes them again.

``--trace 0`` times the workload's CLI command, in-process through
``singarc.cli.main``, in a fresh child process: one client, one command at
a time, until ``--seconds`` have passed.  It checks every command's output
and reports the median wall time, the set-up time of fresh interpreters,
the child's peak RSS after its first command and the share of commands
that passed.

``--trace 1`` alternates one untraced command with a traced replay of the
same pipeline (see ``workloads.py``), then replays every workload once at
smoke size and times single layers on fixed inputs (``probes.py``).  A
layer the workload's own pipeline bypasses is reported from the smoke
replays, so every layer metric is measured on every workload.

``--smoke`` shrinks every workload (201 samples, 1000 certify states) with
all output checks on; the benchmark's own tests use it.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SETUP_RUNS = 7
SETUP_TIMEOUT_S = 60
CHILD_TIMEOUT_S = 170
SETUP_SNIPPET = (
    "import math, singarc\n"
    "from singarc.arm2dof import Arm2DOF\n"
    "from singarc.liegeom import u1_singular_brackets\n"
    "u1_singular_brackets(Arm2DOF(), "
    "[math.pi / 20, math.pi / 20, 0.3, 0.5])\n")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "ok_frac": "ratio"}

# per-layer metric -> unit; the layer -> end-to-end map is in README.md
PER_LAYER = {
    "arm2dof.dyn.float_us": "us",
    "arm2dof.dyn.dual_us": "us",
    "arm2dof.dyn.hyperdual_us": "us",
    "arm2dof.dyn.calls": "count",
    "duals.Dual.mul_ns": "ns",
    "duals.HyperDual.mul_ns": "ns",
    "liegeom.u1_singular_brackets.scalar_us": "us",
    "liegeom.u1_singular_brackets.batch_ns_per_sample": "ns",
    "liegeom.frame_rank.s": "s",
    "liegeom.alpha_coefficients.s": "s",
    "liegeom.b_set_certificate.s": "s",
    "pmp.law_terms_us": "us",
    "pmp.singular_u1.us": "us",
    "integrate.integrate_extremal.s": "s",
    "integrate.rk4_step_us": "us",
    "integrate.resimulate.s": "s",
    "integrate.hamiltonian_trace.s": "s",
    "integrate.save_trajectory.s": "s",
    "integrate.load_trajectory.s": "s",
    "integrate.csv_bytes": "bytes",
    "regularize.switching_series.s": "s",
    "regularize.detect_singular_arcs.s": "s",
    "regularize.regularize_u1.self_s": "s",
    "regularize.pmp_audit.s": "s",
    "regularize.law_attempts": "count",
    "regularize.rewrite_ratio": "ratio",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def _layer_values(sample: dict) -> dict:
    """Per-layer figures one traced pipeline execution yields."""
    own = sample["self"]
    counters = sample["counters"]
    # "<span>.s" metrics are the span's own time
    out = {name: own[name[:-2]] for name in PER_LAYER
           if name.endswith(".s") and name[:-2] in own}
    if "rk4_steps" in counters:
        out["integrate.rk4_step_us"] = \
            1e6 * own["integrate.integrate_extremal"] / counters["rk4_steps"]
    if "regularize.regularize_u1" in own:
        out["regularize.regularize_u1.self_s"] = \
            own["regularize.regularize_u1"] - own["integrate.resimulate"]
    if "csv_bytes" in counters:
        out["integrate.csv_bytes"] = counters["csv_bytes"]
    if "law_attempts" in counters:
        out["regularize.law_attempts"] = counters["law_attempts"]
        out["regularize.rewrite_ratio"] = \
            counters["law_rewritten"] / counters["law_attempts"]
    out["arm2dof.dyn.calls"] = sum(sample["calls"].values())
    if "wall_s" in sample:
        # the untraced command of the same loop iteration
        layers = sum(v for k, v in own.items()
                     if k not in (sample["root"], "integrate.resimulate"))
        out["cli.self_s"] = sample["wall_s"] - layers
        out["trace.overhead_s"] = sample["root_s"] - sample["wall_s"]
    return out


def _cli_run(argv: list[str]):
    """One in-process CLI command: (exit code, stdout, seconds, error)."""
    from singarc.cli import main as cli_main

    gc.collect()
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli_main(argv)
    except Exception as exc:  # a crashing command is a failed run
        return None, buf.getvalue(), time.perf_counter() - start, \
            f"{type(exc).__name__}: {exc}"
    return rc, buf.getvalue(), time.perf_counter() - start, None


def _judge(wl, case, out, rc, stdout, error) -> list[str]:
    from singarc.errors import SingArcError

    if error:
        return [error]
    try:
        return wl.check(case, wl.summarize(case, out, rc, stdout))
    except (OSError, ValueError, KeyError, SingArcError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "singarc").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".cfg"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def clean_input(size) -> Path:
    """Checked reference run the spiked workloads start from.

    Built once per source tree and size, untimed, and kept under
    .perfbench/cache; the trajectory only depends on the sources.
    """
    from workloads import Construct, write_construct_config

    path = STATE / "cache" / f"clean-{size.name}-{_source_digest()}.csv"
    if path.exists():
        return path
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.stem}.{os.getpid()}.tmp")
    config = path.with_name(f"{path.stem}.{os.getpid()}.cfg")
    write_construct_config(config, size, 1.0)
    try:
        case = {"samples": size.samples, "x_end": list(size.x_end)}
        wl = Construct()
        rc, stdout, _, error = _cli_run(
            ["construct", "--config", str(config), "--out", str(tmp)])
        bad = _judge(wl, case, str(tmp), rc, stdout, error)
        if bad:
            raise RuntimeError("reference construct run failed: "
                               + "; ".join(bad))
        os.replace(f"{tmp}.meta.json", f"{path}.meta.json")
        os.replace(tmp, path)
    finally:
        for leftover in (config, tmp, Path(f"{tmp}.meta.json")):
            leftover.unlink(missing_ok=True)
    return path


def _prepare(wl, work: Path, seed: int, size) -> dict:
    work.mkdir(parents=True, exist_ok=True)
    return wl.prepare(work, seed, size,
                      clean_input(size) if wl.needs_clean else None)


def _env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def _setup_seconds() -> float:
    """Wall time of a fresh interpreter: import, build the arm, one tableau.

    A blocking wait, with a timer as the guard: ``wait(timeout=...)`` polls
    in steps of up to 50 ms, which would quantize the figure.
    """
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", SETUP_SNIPPET],
                            env=_env())
    guard = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
    guard.start()
    try:
        rc = proc.wait()
    finally:
        guard.cancel()
    elapsed = time.perf_counter() - start
    if rc != 0:
        raise RuntimeError(f"set-up interpreter exited with {rc}")
    return elapsed


def measure_child(spec_path: str) -> int:
    """Child side of --trace 0: run the command until the time is up."""
    from workloads import WORKLOADS

    spec = json.loads(Path(spec_path).read_text())
    wl = WORKLOADS[spec["workload"]]
    case, out = spec["case"], spec["out"]
    walls, failures, rss_kb = [], [], None
    start = time.perf_counter()
    while True:
        rc, stdout, wall, error = _cli_run(wl.argv(case, out))
        if rss_kb is None:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        walls.append(wall)
        failures.append(_judge(wl, case, out, rc, stdout, error))
        if time.perf_counter() - start >= spec["seconds"]:
            break
    print(json.dumps({"walls": walls, "rss_kb": rss_kb,
                      "failures": failures}))
    return 0


def measured_run(wl, case, seconds: float, work: Path) -> dict:
    setup = [_setup_seconds() for _ in range(SETUP_RUNS)]
    spec = work / "spec.json"
    spec.write_text(json.dumps({"workload": wl.name, "case": case,
                                "seconds": seconds,
                                "out": str(work / "out")}))
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--measure",
         str(spec)], env=_env(), stdout=subprocess.PIPE, text=True,
        check=True, timeout=CHILD_TIMEOUT_S)
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    failed = sum(bool(f) for f in child["failures"])
    attempted = len(child["walls"])
    return {
        "attempted": attempted,
        "failures": child["failures"],
        "metrics": {
            "wall_s": statistics.median(child["walls"]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": child["rss_kb"] / 1024.0,
            "ok_frac": 1.0 - failed / attempted,
        },
        "detail": {"walls_s": child["walls"], "setup_runs_s": setup},
    }


def _replay(wl, case, out: str, tracer, trace_id: str) -> dict:
    """One traced pipeline execution; returns the sample the metrics use."""
    from singarc.integrate import resimulate
    from tracing import CountingArm

    plant = CountingArm()
    root = f"cli.{wl.command}"
    gc.collect()
    with tracer.trace(trace_id, root):
        result = wl.replay(case, out, tracer, plant)
    own = tracer.self_times(trace_id)
    if "resim" in result:
        # the replay regularize_u1 runs inside its span, timed on its own
        x0, control, config = result["resim"]
        with tracer.trace(trace_id + "/resimulate", "integrate.resimulate"):
            resimulate(CountingArm(), x0, control, config)
        own.update(tracer.self_times(trace_id + "/resimulate"))
    return {"self": own, "counters": result["counters"], "root": root,
            "root_s": tracer.root_duration(trace_id),
            "calls": dict(plant.calls),
            "failures": wl.check(case, result["summary"])}


def traced_run(wl, case, seed: int, seconds: float, work: Path,
               trace_file: Path) -> dict:
    from probes import unit_costs
    from tracing import Tracer
    from workloads import SMOKE, WORKLOADS

    tracer = Tracer()
    out = str(work / "out")
    samples, failures = [], []
    start = time.perf_counter()
    while True:
        rc, stdout, wall, error = _cli_run(wl.argv(case, out))
        failures.append(_judge(wl, case, out, rc, stdout, error))
        sample = _replay(wl, case, out, tracer,
                         f"{wl.name}:{seed}:{len(samples)}")
        sample["wall_s"] = wall
        if samples and sample["calls"] != samples[0]["calls"]:
            sample["failures"].append("dyn call counts did not repeat")
        samples.append(sample)
        failures.append(sample["failures"])
        if time.perf_counter() - start >= seconds:
            break

    smoke = []
    for other in WORKLOADS.values():
        pwork = work / f"smoke-{other.name}"
        pcase = _prepare(other, pwork, seed, SMOKE)
        smoke.append(_replay(other, pcase, str(pwork / "out"), tracer,
                             f"smoke:{other.name}:{seed}"))
        failures.append(smoke[-1]["failures"])

    metrics = unit_costs()
    sources = dict.fromkeys(metrics, "unit probe")
    own = [_layer_values(s) for s in samples]
    fallback = [_layer_values(s) for s in smoke]
    for name in PER_LAYER:
        vals = [v[name] for v in own if name in v]
        if vals:
            metrics[name], sources[name] = statistics.median(vals), "pipeline"
            continue
        spare = next((v[name] for v in fallback if name in v), None)
        if spare is not None:
            metrics[name], sources[name] = spare, "smoke replay"
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(trace_file)
    return {
        "attempted": len(failures),
        "failures": failures,
        "metrics": metrics,
        "detail": {"walls_s": [s["wall_s"] for s in samples],
                   "sources": sources,
                   "dyn_calls_by_type": [s["calls"] for s in samples],
                   "trace_file": str(trace_file.relative_to(ROOT))},
    }


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, if it is OpenBLAS."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def machine() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": blas_threads()}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, every output check still on")
    parser.add_argument("--measure", metavar="SPEC", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "singarc").is_dir():
        print(f"error: no package sources at {SRC / 'singarc'}; run from "
              "the root of a singarc source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.measure:
        return measure_child(args.measure)

    from workloads import FULL, SMOKE, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: --workload must be one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    size = SMOKE if args.smoke else FULL
    stem = f"{wl.name}-{size.name}-seed{args.seed}"
    work = STATE / "work" / f"{stem}-{os.getpid()}"
    try:
        case = _prepare(wl, work, args.seed, size)
        if args.trace:
            result = traced_run(wl, case, args.seed, args.seconds, work,
                                STATE / "traces" / f"{stem}.jsonl")
        else:
            result = measured_run(wl, case, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    failed = sum(bool(f) for f in result["failures"])
    info = machine()
    record = {"workload": wl.name, "seed": args.seed, "size": size.name,
              "trace": args.trace, "seconds": args.seconds,
              "machine": info, "load": "closed loop, 1 client",
              "attempted": result["attempted"], "failed": failed,
              "failures": [f for f in result["failures"] if f],
              "metrics": result["metrics"], **result["detail"]}
    results = STATE / "results" / f"{stem}-trace{args.trace}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {wl.name} ({wl.command}, {size.name} size), "
          f"seed {args.seed}, closed loop with 1 client")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in info.items()))
    print(f"commands: {result['attempted']} attempted, {failed} failed "
          f"(fail_frac {failed / result['attempted']:g})")
    for bad in record["failures"]:
        print("FAILED: " + "; ".join(bad))
    for name, value in result["metrics"].items():
        print(f"{name:52s} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
