"""The benchmark's per-layer contract, checked at the benchmark's tiny sizes.

perfbench/tracer.py wraps crossolve's public layer functions by name, and
perfbench/run.py fails a traced run that lacks a metric BENCHMARK.json or
the workloads' layer map declares. This test runs each workload's scenario
in this process under the tracer, so a change that stops calling a traced
function, or drops it from its module's __all__, fails here and not only in
the slower perfbench/test_perfbench.py.
"""

import sys
from pathlib import Path

import pytest

import crossolve

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402
from test_perfbench import BENCHMARK, TINY  # noqa: E402
from tracer import Tracer  # noqa: E402

# The ratio of a traced run's wall time to an untraced one; a single traced run has none.
UNTRACED_ONLY = {"trace.overhead_frac"}


@pytest.mark.parametrize("name", sorted(run.CONFIG["workloads"]))
def test_traced_scenario_yields_every_declared_layer_metric(tmp_path, name):
    workload = run.CONFIG["workloads"][name]
    parameters, systems = TINY[name]
    spec = crossolve.ExperimentSpec(
        workload["scenario"], seed=0, output_dir=tmp_path, parameters=parameters, threads=workload["threads"]
    )
    tracer = Tracer()
    tracer.install()
    try:
        records, _ = crossolve.run_experiment(spec)
    finally:
        tracer.uninstall()
    assert len(records) == systems

    metrics = run.layer_metrics(tracer.counts(), systems)
    declared = {m["name"] for m in BENCHMARK["per_layer"]} - UNTRACED_ONLY
    mapped = {metric for entry in run.CONFIG["layer_map"] if name in entry["on"] for metric in entry["metrics"]}
    assert sorted((declared | mapped) - metrics.keys()) == []
