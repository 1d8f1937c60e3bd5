"""The benchmark's own tests, at smoke size: python3 -m pytest -q perfbench"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import FULL, SMOKE, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result(*args) -> dict:
    proc = bench(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_what_the_benchmark_emits():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} \
        == run.PER_LAYER
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_passes_its_checks(workload):
    res = result("--workload", workload, "--seed", "5", "--seconds", "0.1",
                 "--trace", "0", "--smoke")
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_smoke_run_reports_every_layer_and_exact_counts():
    args = ("--workload", "repair-spiked", "--seed", "2", "--seconds", "0.1",
            "--trace", "1", "--smoke")
    first, second = result(*args), result(*args)
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == set(run.PER_LAYER)
    assert all(math.isfinite(m["value"]) for m in first["metrics"].values())
    for name in ("arm2dof.dyn.calls", "regularize.law_attempts",
                 "regularize.rewrite_ratio", "integrate.csv_bytes"):
        assert first["metrics"][name] == second["metrics"][name], name
    spans = (ROOT / ".perfbench" / "traces"
             / "repair-spiked-smoke-seed2.jsonl").read_text().splitlines()
    assert {"trace", "name", "start", "end", "parent"} \
        <= set(json.loads(spans[0]))


def test_seed_makes_the_inputs(tmp_path):
    wl = WORKLOADS["repair-spiked"]
    clean = run.clean_input(SMOKE)
    rows = []
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        (tmp_path / name).mkdir()
        rows.append(wl.prepare(tmp_path / name, seed, SMOKE, clean)["rows"])
    assert rows[0] == rows[1] != rows[2]
    assert len(rows[0]) == 2


def test_checks_reject_wrong_outputs():
    construct = WORKLOADS["construct-reference"]
    case = {"samples": FULL.samples, "x_end": list(FULL.x_end)}
    good = {"rc": 0, "aborted": False, "samples": FULL.samples,
            "x_end": list(FULL.x_end), "phi1_rel": 1e-16}
    assert construct.check(case, good) == []
    moved = dict(good, x_end=[FULL.x_end[0] + 1e-12, *FULL.x_end[1:]])
    assert construct.check(case, moved)
    assert construct.check(case, dict(good, phi1_rel=2e-6))
    assert construct.check(case, dict(good, aborted=True))

    repair = WORKLOADS["repair-spiked"]
    good = {"rc": 0, "intervals": 1, "violations": 0, "sup_dev": 1e-12,
            "endpoint_error": 1e-6}
    assert repair.check({}, good) == []
    for bad in ({"intervals": 2}, {"violations": 1}, {"sup_dev": 2e-6},
                {"endpoint_error": 2e-3}, {"rc": 15}):
        assert repair.check({}, dict(good, **bad)), bad

    diagnose = WORKLOADS["diagnose-spiked"]
    case = {"rows": [3, 9], "samples": 20}
    good = {"rc": 0, "violation_rows": [3, 9],
            "classification": {"violation": 2, "singular": 18,
                               "lower-bang": 20}}
    assert diagnose.check(case, good) == []
    assert diagnose.check(case, dict(good, violation_rows=[3]))

    certify = WORKLOADS["certify-sweep"]
    case = {"samples": 10, "seed": 1}
    good = {"rc": 0, "samples": 10, "seed": 1, "min_frame_rank": 0.1,
            "max_abs_alpha_ij1": 1e-15}
    assert certify.check(case, good) == []
    assert certify.check(case, dict(good, min_frame_rank=0.0))
    assert certify.check(case, dict(good, max_abs_alpha_ij1=1e-6))


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    with tracer.trace("t", "root"):
        with tracer.span("child"):
            time.sleep(0.02)
        time.sleep(0.01)
    own = tracer.self_times("t")
    assert own["child"] >= 0.02
    assert 0.01 <= own["root"] < 0.02 + own["child"]
    assert own["root"] + own["child"] == pytest.approx(
        tracer.root_duration("t"))


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "construct-reference", "--seed", "1",
                 "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
