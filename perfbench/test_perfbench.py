"""Smoke test of the benchmark's own code, at a tiny size.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# The scenarios and worker counts of workloads.json, shrunk to run in about
# a second: parameter overrides and the record count they give.
TINY = {
    "sweep-n3": ({"systems": 3, "vectors_per_system": 2}, 6),
    "scaling-n300": ({"beta": 1.0, "sizes": [3, 10, 30, 100], "vectors_per_size": 2}, 16),
    "sparse-cg-w2": ({"systems": 4}, 4),
}


@pytest.mark.parametrize("name", sorted(run.CONFIG["workloads"]))
@pytest.mark.parametrize("trace,declared", [(False, "end_to_end"), (True, "per_layer")])
def test_workload_runs_and_emits_every_declared_metric(name, trace, declared):
    parameters, systems = TINY[name]
    workload = dict(run.CONFIG["workloads"][name], parameters=parameters, systems=systems)
    result, lines = run.run_benchmark(name, workload, seed=0, seconds=0, trace=trace)

    assert result["correct"], "\n".join(lines)
    assert result["failed"] == 0
    assert result["attempted"] == systems * workload["inputs"] * (2 if trace else 1) * worker.MIN_ROUNDS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in BENCHMARK[declared]}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())

    details = json.loads((run.ROOT / ".bench_out" / name / "result.json").read_text(encoding="utf-8"))
    for seed in details["seeds"]:
        digests = {(r["traced"], r["records_sha256"]) for r in details["reps"] if r["seed"] == seed}
        if trace:
            assert {traced for traced, _ in digests} == {False, True}
        assert len({digest for _, digest in digests}) == 1


def test_gate_rejects_a_traced_digest_that_differs():
    rep = {"seed": 0, "raised": None, "records": 2, "error_above_epsilon": 0, "records_sha256": "a", "traced": False}
    generation_error = dict(rep, raised="GenerationError: no draw", known_defect=True)
    workload = {"systems": 2}
    assert run.check(workload, [rep, dict(rep, traced=True)]) == []
    assert run.check(workload, [rep, dict(rep, traced=True, records_sha256="b")])
    assert run.check(workload, [dict(rep, records=1)])
    assert run.check(workload, [dict(rep, error_above_epsilon=1)])
    assert run.check(workload, [rep, dict(generation_error, traced=True)])
    assert run.check(workload, [generation_error, dict(generation_error, traced=True)]) == []


def test_false_convergence_claim_fails_the_gate(monkeypatch, tmp_path):
    """emit_outputs raises NumericalError for a converged record above epsilon; the gate must not excuse it."""
    crossolve = worker.import_crossolve(run.ROOT)
    monkeypatch.setattr(crossolve.experiments, "_final_error", lambda *args: 1.0)
    parameters, systems = TINY["sweep-n3"]
    job = {"scenario": "lambda_sweep", "parameters": parameters, "threads": 1, "systems": systems}
    rep = dict(worker.run_once(crossolve, job, 0, tmp_path), traced=False)

    assert rep["raised"].startswith("NumericalError")
    assert run.check({"systems": systems}, [rep, dict(rep, traced=True)])


def test_scenario_errors_count_as_failed_systems():
    workload = dict(run.CONFIG["workloads"]["sweep-n3"], systems=2)
    workload["parameters"] = {"systems": 2, "vectors_per_system": 1, "lambda_floor": 1e9, "floor_tries": 1}
    with pytest.raises(run.BenchError, match="GenerationError"):
        run.run_benchmark("sweep-n3", workload, seed=0, seconds=0, trace=False)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-n3", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
