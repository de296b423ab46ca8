"""Benchmark for crossolve: end-to-end scenario time and per-layer cost.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep-n3 --seed 0 --seconds 30 --trace 0

Each workload in perfbench/workloads.json is one `crossolve.run_experiment`
scenario. The scenario runs in a fresh worker process (perfbench/worker.py)
with BLAS and OpenMP pinned to one thread, on inputs made only from --seed,
and repeats for --seconds. With --trace 0 the run reports the end-to-end
metrics; with --trace 1 it alternates untraced and traced repetitions and
reports the per-layer metrics of the traced ones. End-to-end times are
scaled by a calibration kernel timed next to each of them (see CAL_REF_S),
so that swings in the host's speed do not show as changes of crossolve.
Every run checks the scenario's records (count, convergence claims,
records.csv digest identical across repetitions, traced and untraced).

Standard output holds a readable report; its last line is one JSON object
with the keys correct, attempted, failed and metrics. The full result,
with the environment and every per-layer counter, is also written to
.bench_out/<workload>/result.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIG = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))

THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

SETUP_PROBES = 11

# The host's speed swings by up to a factor of two over seconds to minutes
# when other processes share its cores. Times are therefore scaled by the
# calibration kernel (worker.calibrate) timed next to each of them, to a
# host on which the kernel takes CAL_REF_S, a round figure near its median
# on a 2-vCPU VM with Python 3.11.7, numpy 2.4.6 and OpenBLAS on one thread.
CAL_REF_S = 0.05

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
DECLARED_UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}


class BenchError(Exception):
    """The benchmark could not run or the program under test failed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def input_seeds(workload: dict, seed: int) -> list[int]:
    """Scenario master seeds of one run: `inputs` consecutive seeds from seed * inputs.

    Runs with different seeds therefore share no scenario seed.
    """
    count = workload["inputs"]
    return [seed * count + i for i in range(count)]


def run_worker(workload: dict, seeds: list[int], seconds: float, traced: bool, out_dir: Path) -> dict:
    """Run the scenario in a fresh worker process and return its parsed output."""
    job = {
        "root": str(ROOT),
        "scenario": workload["scenario"],
        "parameters": workload["parameters"],
        "threads": workload["threads"],
        "systems": workload["systems"],
        "seeds": seeds,
        "seconds": seconds,
        "traced": traced,
        "setup_probes": 0 if traced else SETUP_PROBES,
        "output_dir": str(out_dir),
    }
    # Room for the round the worker may start just before the time is up.
    timeout = 2 * seconds + 90
    args = [sys.executable, str(HERE / "worker.py"), json.dumps(job)]
    try:
        proc = subprocess.run(args, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def at_reference_speed(seconds: float, cal_s: list[float]) -> float:
    """Host seconds scaled to a host on which the calibration kernel takes CAL_REF_S."""
    return seconds * CAL_REF_S / statistics.fmean(cal_s)


def per_input(samples: list[tuple[int, float]]) -> float:
    """Mean over scenario seeds of the median of each seed's (seed, value) samples.

    The seeds of a run differ in work, so their times are averaged; the
    repetitions of one seed do the same work, so a median takes out
    interference from other processes.
    """
    seeds = dict.fromkeys(seed for seed, _ in samples)
    return statistics.fmean(statistics.median(v for seed, v in samples if seed == s) for s in seeds)


def check(workload: dict, reps: list[dict]) -> list[str]:
    """Correctness gate; returns the list of violations.

    A repetition that raised the known GenerationError has no records to
    check, but every repetition of its seed must then raise the same error.
    Any other error fails the gate.
    """
    problems = []
    outcomes: dict[int, set] = {}
    for rep in reps:
        outcomes.setdefault(rep["seed"], set()).add(rep["raised"] or rep["records_sha256"])
        if rep["raised"]:
            if not rep["known_defect"]:
                problems.append(f"seed {rep['seed']}: raised {rep['raised']}")
            continue
        if rep["records"] != workload["systems"]:
            problems.append(f"seed {rep['seed']}: {rep['records']} records, expected {workload['systems']}")
        if rep["error_above_epsilon"]:
            problems.append(f"seed {rep['seed']}: {rep['error_above_epsilon']} converged records exceed epsilon")
    for seed, found in outcomes.items():
        if len(found) > 1:
            problems.append(f"seed {seed}: outcome differs between repetitions (traced or not): {sorted(found)}")
    return problems


def layer_metrics(counts: dict, systems: int) -> dict[str, float]:
    """Per-layer metrics of one traced repetition, from the tracer's counters.

    A derived metric is present only when the counters it is made of are,
    so a layer that a workload never calls has no metric, not a zero.
    """
    metrics = {key: value for key, value in counts.items() if key.endswith((".calls", ".self_s"))}
    for label in ("", ".n3", ".n30", ".n300"):
        steps = counts.get(f"dynamics.simulate.steps{label}")
        if steps:
            metrics[f"dynamics.simulate.steps{label}"] = steps
            metrics[f"dynamics.step_us{label}"] = 1e6 * counts[f"dynamics.simulate.self_s{label}"] / steps
    if "dynamics.simulate.flops" in counts:
        metrics["dynamics.simulate.gflops"] = counts["dynamics.simulate.flops"] / counts["dynamics.simulate.self_s"] / 1e9
    if "spectral.direct_solve.calls" in counts:
        metrics["spectral.direct_solve.per_system"] = counts["spectral.direct_solve.calls"] / systems
    matrices = counts.get("dynamics.build_feedback.calls")
    for name in ("spectral.sym_part_lambda_min", "dynamics.m_eigenvalues"):
        if matrices and f"{name}.calls" in counts:
            metrics[f"{name}.per_matrix"] = counts[f"{name}.calls"] / matrices
    if "baselines.conjugate_gradient.iterations" in counts:
        metrics["baselines.conjugate_gradient.iterations"] = counts["baselines.conjugate_gradient.iterations"]
    metrics["experiments.orchestration.self_s"] = counts["experiments.run_experiment.self_s"] + counts.get(
        "experiments.task.self_s", 0.0
    )
    metrics["generators.self_s"] = sum(
        v for k, v in counts.items() if k.startswith("generators.") and k.endswith(".self_s")
    )
    return metrics


def metric_unit(name: str) -> str:
    """The unit declared in BENCHMARK.json, or one read from the name of a printed-only metric."""
    if name in DECLARED_UNITS:
        return DECLARED_UNITS[name]
    if ".step_us" in name:
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith(".per_matrix"):
        return "ratio"
    return "count"


def run_benchmark(workload_name: str, workload: dict, seed: int, seconds: float, trace: bool):
    """Run one workload; returns (result dict, readable report lines)."""
    seeds = input_seeds(workload, seed)
    out_dir = ROOT / ".bench_out" / workload_name
    shutil.rmtree(out_dir, ignore_errors=True)
    out = run_worker(workload, seeds, seconds, trace, out_dir / "scenario")
    reps = out["reps"]
    attempted = workload["systems"] * len(reps)
    failed = sum(r["failed"] for r in reps)
    problems = check(workload, reps)
    raised = {r["seed"]: r["raised"] for r in reps if r["raised"]}
    plain = [r for r in reps if not r["traced"] and not r["raised"]]
    if not plain:
        raise BenchError(f"every scenario seed raised: {raised}")

    wall = per_input([(r["seed"], at_reference_speed(r["wall_s"], r["cal_s"])) for r in plain])
    steps = per_input([(r["seed"], r["steps"]) for r in plain])
    end_to_end = {"wall_s": wall, "steps_per_s": steps / wall}
    host = {"host_wall_s": per_input([(r["seed"], r["wall_s"]) for r in plain])}
    if trace:
        traced = [r for r in reps if r["traced"] and not r["raised"]]
        per_rep = [(r["seed"], layer_metrics(r["counts"], workload["systems"])) for r in traced]
        names = set().union(*(m for _, m in per_rep))
        layers = {name: per_input([(s, m[name]) for s, m in per_rep if name in m]) for name in names}
        layers["trace.overhead_frac"] = (
            per_input([(r["seed"], at_reference_speed(r["wall_s"], r["cal_s"])) for r in traced]) / wall - 1.0
        )
        declared = [m["name"] for m in BENCHMARK["per_layer"]]
        expected = set(declared).union(
            *(entry["metrics"] for entry in CONFIG["layer_map"] if workload_name in entry["on"])
        )
        missing = sorted(expected - layers.keys())
        if missing:
            raise BenchError(f"the traced run produced no {', '.join(missing)}")
        metrics = {name: layers[name] for name in declared}
    else:
        setup = out["setup_s"]
        end_to_end["setup_s"] = statistics.median(at_reference_speed(probe, [cal]) for probe, cal in setup)
        host["host_setup_s"] = statistics.median(probe for probe, _ in setup)
        end_to_end["peak_rss_mb"] = out["peak_rss_mb"]
        metrics = end_to_end

    lines = [
        f"workload: {workload_name} (scenario {workload['scenario']}, {workload['threads']} worker(s), "
        f"scenario seeds {seeds}, {out['rounds']} round(s), {len(reps)} repetition(s))",
        f"environment: {json.dumps(out['env'], sort_keys=True)}",
    ]
    for s in seeds:
        if s in raised:
            lines.append(f"scenario seed {s}: raised {raised[s]}")
        else:
            first = next(r for r in reps if r["seed"] == s)
            lines.append(f"scenario seed {s}: records.csv sha256 {first['records_sha256']}, total steps {first['steps']}")
    lines.append(f"systems attempted {attempted}, failed {failed}")
    lines.append(f"host wall_s per repetition: {[round(r['wall_s'], 4) for r in plain]}")
    lines.append(f"calibration s per repetition: {[round(statistics.fmean(r['cal_s']), 4) for r in plain]}")
    if trace:
        if workload["threads"] > 1:
            lines.append(
                f"note: {workload['threads']} worker threads; per-layer busy times are summed over threads, "
                "include waits for the interpreter lock and can exceed host_wall_s"
            )
        lines.append("per-layer metrics (traced repetitions; gflops is computed as 2n^2 flops per step):")
        lines.extend(f"  {name}: {layers[name]:.6g} {metric_unit(name)}" for name in sorted(layers))
    else:
        lines.append(f"host setup_s per probe: {[round(probe, 4) for probe, _ in setup]}")
    lines.append(f"times below are scaled to a calibration kernel time of {CAL_REF_S} s; host_* are not")
    for name, value in dict(end_to_end, fail_frac=failed / attempted, **host).items():
        lines.append(f"{name}: {value:.6g} {metric_unit(name)}")
    lines.extend(f"CHECK FAILED: {p}" for p in problems)

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": metric_unit(name)} for name, value in metrics.items()},
    }
    details = dict(result, workload=workload_name, seed=seed, seeds=seeds, host=host, env=out["env"], reps=reps)
    if trace:
        details["layers"] = layers
    (out_dir / "result.json").write_text(json.dumps(details, indent=1), encoding="utf-8")
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(CONFIG["workloads"]))
    parser.add_argument("--seed", type=int, default=CONFIG["default_seed"])
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "crossolve" / "__init__.py").is_file():
        print(f"error: no crossolve sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, lines = run_benchmark(
            args.workload, CONFIG["workloads"][args.workload], args.seed, args.seconds, bool(args.trace)
        )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
