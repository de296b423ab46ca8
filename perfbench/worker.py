"""Run one benchmark workload in a fresh process and print its repetitions.

Usage: python3 perfbench/worker.py '<json job>'

The job names the checkout root, the scenario, its parameters, the worker
count, the system count, the scenario seeds, the output directory, how many
seconds to measure and how many setup probes to make. The worker imports
crossolve from the checkout's `src/`, runs the scenario once per seed in
turn, and repeats whole rounds over the seeds, at least three, until the
time is up. With `traced` set, each seed runs twice per round, untraced
and traced, in an order that alternates between rounds. Setup probes (fresh processes that
import crossolve and run the demo system) are spread evenly over the run.
A fixed calibration kernel is timed before every scenario call and setup
probe, and once at the end, to track the host's speed.

The last line of standard output is a JSON object with one entry per
repetition (wall time, the calibration times before and after it, record
checks, records.csv digest and, for traced repetitions, the tracer's
counters), the setup probe times with their calibration times, the
process's peak RSS and its environment. A scenario that raises a crossolve error is
recorded with the error in place of the measurements.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

MIN_ROUNDS = 3

# The cost each command-line invocation pays before any scenario work.
SETUP_PROBE = (
    "from crossolve import DEFAULT_TRANSIENT_A, DEFAULT_TRANSIENT_B, build_feedback, simulate\n"
    "raise SystemExit(0 if simulate(build_feedback(DEFAULT_TRANSIENT_A), DEFAULT_TRANSIENT_B).converged else 1)\n"
)


def calibrate() -> float:
    """Seconds of a fixed kernel: an interpreter loop, then LAPACK on 300 x 300, about half each.

    The scenarios' time goes to the interpreter and to dense LAPACK calls,
    so the kernel slows down with them when other processes on the host
    take its cores' time. Small-array numpy calls were tried too; their own
    timing noise made the scaled times spread more, not less.
    """
    import numpy as np

    m = np.random.default_rng(0).standard_normal((300, 300))
    s = m @ m.T
    start = perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    for _ in range(2):
        np.linalg.svd(m, compute_uv=False)
        np.linalg.eigvalsh(s)
    return perf_counter() - start


def import_crossolve(root: Path):
    """Import crossolve from root/src, refusing a copy installed elsewhere."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import crossolve

    if Path(crossolve.__file__).resolve().parent != src / "crossolve":
        raise SystemExit(f"crossolve was imported from {crossolve.__file__}, not from {src}")
    return crossolve


def environment(root: Path) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "git_commit": git_commit(root),
        "thread_variables": {name: value for name, value in os.environ.items() if name.endswith("_THREADS")},
    }


def git_commit(root: Path) -> str | None:
    """The checked-out commit, or None outside a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def probe_setup() -> tuple[float, float]:
    """Seconds for a fresh process to import crossolve and finish one demo
    simulate, and the calibration seconds measured just before it."""
    cal_s = calibrate()
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], capture_output=True, text=True, timeout=60)
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"setup probe exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return elapsed, cal_s


def run_once(crossolve, job: dict, seed: int, out_dir: Path) -> dict:
    spec = crossolve.ExperimentSpec(
        scenario=job["scenario"],
        seed=seed,
        output_dir=out_dir,
        parameters=job["parameters"],
        threads=job["threads"],
    )
    start = perf_counter()
    try:
        records, _ = crossolve.run_experiment(spec)
    except crossolve.CrossolveError as exc:
        # The scenario gave up on every system; the run counts them as failed.
        # Only a GenerationError is a known defect of the program under test
        # (`_sweep_matrix` does not retry when `random_discrete_pd` gives up);
        # any other error, a false convergence claim among them, fails the gate.
        return {
            "seed": seed,
            "raised": f"{type(exc).__name__}: {exc}",
            "known_defect": isinstance(exc, crossolve.GenerationError),
            "failed": job["systems"],
        }
    wall = perf_counter() - start
    converged = [r for r in records if r.converged]
    return {
        "seed": seed,
        "raised": None,
        "wall_s": wall,
        "records": len(records),
        "steps": sum(r.steps or 0 for r in records),
        "failed": len(records) - len(converged),
        "error_above_epsilon": sum(1 for r in converged if not r.final_error <= r.epsilon),
        "records_sha256": hashlib.sha256((out_dir / "records.csv").read_bytes()).hexdigest(),
    }


def main(argv: list[str]) -> int:
    job = json.loads(argv[1])
    root = Path(job["root"])
    crossolve = import_crossolve(root)
    from tracer import Tracer

    out = Path(job["output_dir"])
    tracer = Tracer() if job["traced"] else None
    probes = job["setup_probes"]
    if probes:
        probe_setup()  # unmeasured: writes the bytecode caches
    setup: list[tuple[float, float]] = []
    reps = []
    start = perf_counter()
    rounds = 0
    # Whole rounds only, at least MIN_ROUNDS so that every seed has a median
    # of three, and then no round that would likely end after the time is up.
    while rounds < MIN_ROUNDS or (perf_counter() - start) * (rounds + 1) / rounds <= job["seconds"]:
        for seed in job["seeds"]:
            passes = [False]
            if tracer is not None:
                passes = [False, True] if rounds % 2 == 0 else [True, False]
            for traced in passes:
                cal_s = calibrate()
                rep_dir = out / f"seed{seed}" / ("traced" if traced else "plain")
                if traced:
                    tracer.reset()
                    tracer.install()
                    try:
                        rep = run_once(crossolve, job, seed, rep_dir)
                    finally:
                        tracer.uninstall()
                    rep["counts"] = tracer.counts()
                else:
                    rep = run_once(crossolve, job, seed, rep_dir)
                rep["traced"] = traced
                rep["cal_s"] = [cal_s]
                if reps:
                    reps[-1]["cal_s"].append(cal_s)
                reps.append(rep)
            # Probe k is due at k / (probes + 1) of the run, so that one slow
            # stretch of the host does not move every probe.
            if len(setup) < probes and perf_counter() - start >= job["seconds"] * (len(setup) + 1) / (probes + 1):
                setup.append(probe_setup())
        rounds += 1
    reps[-1]["cal_s"].append(calibrate())
    while len(setup) < probes:
        setup.append(probe_setup())
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"reps": reps, "rounds": rounds, "setup_s": setup, "peak_rss_mb": peak_kib / 1024.0, "env": environment(root)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
