"""Experiment scenarios with deterministic seeding and stable outputs.

Each scenario builds a family of linear systems, runs the feedback-circuit
transient on every one, and emits a records.csv (fixed column schema) plus
a human-readable summary.txt into the output directory. Per-system seeds
are derived from (master seed, system index), so results are byte-identical
regardless of worker count or execution order.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import numbers
import operator
import os
import pickle
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, ClassVar

import numpy as np

from .baselines import conjugate_gradient
from .devices import DevicePolicy, program
from .dynamics import (
    DEFAULT_TRANSIENT_A,
    DEFAULT_TRANSIENT_B,
    OpAmpModel,
    SolveConfig,
    SolveResult,
    build_feedback,
    invert_matrix,
    simulate,
    slew_check,
    stability_report,
    time_bound,
)
from .errors import (
    ConfigError,
    DomainError,
    GenerationError,
    NumericalError,
    OutputError,
    StabilityError,
    UsageError,
)
from .generators import covariance_matrix, random_discrete_pd, random_vector, sparse_pd
from .spectral import (
    _check_estimate_args,
    _is_integer,
    _one_blas_thread,
    _pin_blas_threads,
    a_norm,
    complexity_cg_estimate,
    complexity_quantum_estimate,
    fit_scaling,
)

__all__ = [
    "SCHEMA_VERSION",
    "CSV_COLUMNS",
    "SCENARIOS",
    "ExperimentSpec",
    "RunRecord",
    "child_seed",
    "scenario_defaults",
    "run_experiment",
    "emit_outputs",
]

SCHEMA_VERSION = 1

CSV_COLUMNS = (
    "schema_version",
    "scenario",
    "system_index",
    "n",
    "beta_or_s",
    "lambda_min",
    "lambda_m_min",
    "u_min",
    "tau_measured_s",
    "tau_bound_s",
    "converged",
    "diverged",
    "steps",
    "cg_iterations",
    "notes",
)


@dataclass
class RunRecord:
    """One solved system, serialized as a records.csv row.

    final_error and epsilon are bookkeeping (not CSV columns): emission
    re-verifies that every record claiming convergence really has
    final_error <= epsilon.
    """

    schema_version: ClassVar[int] = SCHEMA_VERSION
    scenario: str
    system_index: int
    n: int
    beta_or_s: float | None = None
    lambda_min: float | None = None
    lambda_m_min: float | None = None
    u_min: float | None = None
    tau_measured_s: float | None = None
    tau_bound_s: float | None = None
    converged: bool | None = None
    diverged: bool | None = None
    steps: int | None = None
    cg_iterations: int | None = None
    notes: str = ""
    final_error: float | None = None
    epsilon: float | None = None


@dataclass
class ExperimentSpec:
    """A runnable experiment: scenario id, master seed, outputs, parameters.

    threads is the number of worker processes that solve the scenario's
    independent systems (see _map_tasks); 1 solves them in this process.
    """

    scenario: str
    seed: int
    output_dir: str | Path
    parameters: dict = field(default_factory=dict)
    threads: int = 1


def child_seed(master: int, *indices: int) -> int:
    """Deterministic per-system seed from the master seed and indices."""
    seq = np.random.SeedSequence((int(master),) + tuple(int(i) for i in indices))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def _hasher(*parts, prefix=None):
    """sha256 state over parts, continuing from a copy of prefix if given."""
    h = hashlib.sha256() if prefix is None else prefix.copy()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part, dtype=float))
        else:
            h.update(str(part).encode())
        h.update(b"|")
    return h


def _digest(*parts, prefix=None) -> str:
    return _hasher(*parts, prefix=prefix).hexdigest()[:12]


def _call_pickled(blob: bytes):
    return pickle.loads(blob)()


def _map_tasks(tasks: list[Callable[[], object]], workers: int) -> list:
    """Each task's result, in task order, from up to `workers` worker processes.

    One worker or one task runs the tasks in order in the calling process,
    and so does a task list that does not pickle (a closure, a lambda, a
    task wrapped by a tracer that counts in this process). Otherwise each
    task is pickled once and the bytes go, in index order and in chunks
    small enough to balance tasks of unequal size, to forked worker
    processes, each with every OpenBLAS on one thread. Fork, not spawn,
    because a spawned worker would import numpy, scipy and crossolve again
    first, which costs about as much as a small scenario; and only from a
    process with no other Python thread, because a lock such a thread holds
    at the fork stays held in the child, so there the tasks run in order
    too. A task's exception is raised here with its type and message, the
    tasks not yet started are cancelled, and every worker has exited
    before this returns or raises.
    """
    blobs = None
    if workers > 1 and len(tasks) > 1 and threading.active_count() == 1:
        import multiprocessing  # imported here, so that importing crossolve costs no more

        if "fork" in multiprocessing.get_all_start_methods():
            with contextlib.suppress(pickle.PicklingError, AttributeError, TypeError):
                blobs = [pickle.dumps(task) for task in tasks]
    if blobs is None:
        return [task() for task in tasks]
    from concurrent.futures import ProcessPoolExecutor

    workers = min(workers, len(tasks))
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"), initializer=_pin_blas_threads)
    try:
        return list(pool.map(_call_pickled, blobs, chunksize=max(1, len(blobs) // (4 * workers))))
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


# ----------------------------------------------------------------------
# Parameter handling


_COMMON = {"epsilon": 1e-3, "gbw": 1e8, "norm": "l2"}

_DEFAULTS: dict[str, dict] = {
    "transient": {
        **_COMMON,
        "l0": 1e5,  # read only through include_gain_correction
        "slew_rate": 2.2e7,  # read only by the slew_check verdict in summary.txt
        "a": None,  # defaults to DEFAULT_TRANSIENT_A
        "b": None,
        "alpha_fraction": 0.1,
        "include_gain_correction": False,
    },
    "lambda_sweep": {
        **_COMMON,
        "systems": 60,
        "vectors_per_system": 15,
        "lambda_floor": 0.005,
        "floor_tries": 200,
    },
    "scaling": {
        **_COMMON,
        "beta": 1.0,
        "sizes": (3, 10, 30, 100, 300),
        "vectors_per_size": 100,
        "variants": ("ideal", "rram"),
        "num_levels": 64,
        "ratio": None,  # defaults to 1e3 for beta < 2, else 1e4
        "noise_fraction": 1.0 / 6.0,
    },
    "sparse_suite": {
        **_COMMON,
        "systems": 1000,
        "s": 10,
        "n_range": (20, 200),
        "lambda_range": (0.1, 1.1),
    },
    "inversion": {
        **_COMMON,
        "epsilon": 1e-4,  # element accuracy needs a finer threshold
        "n": 10,
        "beta": 1.0,
        "num_levels": 64,
        "ratio": 1e3,
        "noise_fraction": 1.0 / 6.0,
        "noisy": True,
    },
    "estimate": {
        "epsilon": 1e-3,
        "sizes": (10, 100, 1000, 10000),
        "s": 10,
        "lambda_max": 4.0,
        "lambda_min": 1.0,
    },
}


def scenario_defaults(scenario: str) -> dict:
    """Default parameter set for a scenario id."""
    if scenario not in _DEFAULTS:
        raise ConfigError(f"unknown scenario {scenario!r}; valid: {sorted(_DEFAULTS)}")
    return dict(_DEFAULTS[scenario])


def _merge_params(scenario: str, overrides: dict) -> dict:
    """The scenario's defaults updated by overrides.

    An unknown key is a ConfigError, and so is a value that is not a list
    or tuple where the default is a tuple (sizes, variants, n_range and
    lambda_range).
    """
    defaults = _DEFAULTS[scenario]
    unknown = set(overrides) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown parameters for scenario {scenario!r}: {sorted(unknown)}")
    params = dict(defaults)
    params.update(overrides)
    for key, default in defaults.items():
        if isinstance(default, tuple) and not isinstance(params[key], (list, tuple)):
            raise ConfigError(f"{key} must be a list, got {params[key]!r}")
    return params


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_))


def _is_finite(value) -> bool:
    """A real number that a double holds: neither inf nor NaN, nor an integer past the largest double."""
    return _is_real(value) and abs(value) <= sys.float_info.max


def _check_kinds(scenario: str, params: dict) -> None:
    """ConfigError for a parameter value that is not of its default's kind.

    An int default, a count, takes an integer >= 1, and so does each entry
    of a tuple of ints (sizes, n_range). A float default, or scaling's ratio
    (None: derived from beta), takes a real number, and a tuple of floats
    (lambda_range) a real number in each entry: a bool or a string, even a
    quoted "0.01", is none. A bool
    default takes a bool, since the string "false" would read as true. The
    transient's a, when given, is a square matrix of finite real numbers and
    its b a vector of finite real numbers, as long as a's (or the default
    system's) side.
    """
    for key, default in _DEFAULTS[scenario].items():
        value = params[key]
        if isinstance(default, bool):
            if not isinstance(value, (bool, np.bool_)):
                raise ConfigError(f"{key} must be true or false, got {value!r}")
        elif isinstance(default, int) or (isinstance(default, tuple) and isinstance(default[0], int)):
            for count in value if isinstance(default, tuple) else [value]:
                if not _is_integer(count) or count < 1:
                    raise ConfigError(f"{key} must be an integer >= 1, got {count!r}")
        elif isinstance(default, float) or (key == "ratio" and value is not None):
            if not _is_real(value):
                raise ConfigError(f"{key} must be a number, got {value!r}")
        elif isinstance(default, tuple) and isinstance(default[0], float):
            if not all(map(_is_real, value)):
                raise ConfigError(f"{key} entries must be numbers, got {value!r}")
    if scenario != "transient":
        return
    n = DEFAULT_TRANSIENT_A.shape[0]
    if params["a"] is not None:
        a = np.asarray(params["a"], dtype=object)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.size or not all(map(_is_finite, a.flat)):
            raise ConfigError(f"a must be a square matrix of numbers, each finite, got {params['a']!r}")
        n = a.shape[0]
    if params["b"] is not None:
        b = np.asarray(params["b"], dtype=object)
        if b.shape != (n,) or not all(map(_is_finite, b.flat)):
            raise ConfigError(f"b must be a list of {n} numbers, each finite, got {params['b']!r}")


def _op_amp(p: dict) -> OpAmpModel:
    """The op-amp model from whichever of gbw, l0 and slew_rate p holds; OpAmpModel's defaults fill the rest."""
    return OpAmpModel(**{key: float(p[key]) for key in ("gbw", "l0", "slew_rate") if key in p})


def _circuit(p: dict, **solve_fields) -> tuple[OpAmpModel, SolveConfig]:
    """The run's op-amp model, and its SolveConfig with solve_fields beside p's epsilon and norm."""
    return _op_amp(p), SolveConfig(epsilon=float(p["epsilon"]), norm_kind=p["norm"], **solve_fields)


def _unit_vector(n: int, seed: int) -> np.ndarray:
    """random_vector(n, seed) scaled to unit l2 norm."""
    b = random_vector(n, seed=seed)
    norm = float(np.linalg.norm(b))
    if norm == 0.0:  # pragma: no cover - probability zero
        b[0] = 1.0
        norm = 1.0
    return b / norm


def _beta(p: dict) -> float:
    """p's covariance exponent beta, which must be positive."""
    beta = float(p["beta"])
    if not beta > 0:
        raise ConfigError(f"beta must be positive, got {beta}")
    return beta


def _bounds(system, block: np.ndarray, cfg: SolveConfig, oa: OpAmpModel) -> list[float | None]:
    """Time bound for each column of block in cfg's norm, None where it does not apply.

    When time_bound raises for the block, every column's bound is None. It
    raises DomainError for a nonsymmetric A. Callers first run the block
    transient on the same columns, which already solved them (the system
    keeps that solve for time_bound) and checked stability, so for a
    symmetric A only a zero column can raise here: a
    symmetric A whose M is stable is positive definite, so x*^T b > 0 for
    every nonzero b, and every scenario's b is nonzero.
    """
    try:
        return time_bound(system, block, oa, cfg).tolist()
    except (DomainError, StabilityError, NumericalError):
        return [None] * block.shape[1]


def _final_error(system, delta: np.ndarray, norm_kind: str) -> float:
    """Norm of one column's error delta = x - x*, in the run's norm_kind."""
    if norm_kind == "a_norm":
        return a_norm(system.a, delta)
    return float(np.linalg.norm(delta))


def _rows(
    spec: ExperimentSpec,
    system,
    result: SolveResult,
    cfg: SolveConfig,
    bounds: list[float | None],
    notes: list[str],
    first: int = 0,
    **shared,
) -> list[RunRecord]:
    """One RunRecord per right-hand side that result solved on system.

    result is a transient over one right-hand side or a block. Record k
    gets system_index first + k, tau_bound_s bounds[k] and notes notes[k];
    shared holds RunRecord fields common to all. Each final_error is
    measured against the oracle x* that the transient stopped on.
    """
    report = stability_report(system)
    n = system.a.shape[0]
    tau, converged, diverged = (np.atleast_1d(v) for v in (result.tau, result.converged, result.diverged))
    steps = np.atleast_1d(result.steps if result.column_steps is None else result.column_steps)
    delta = (result.x_final - result.x_star).reshape(n, -1)
    return [
        RunRecord(
            scenario=spec.scenario,
            system_index=first + k,
            n=n,
            lambda_min=report.lambda_min,
            lambda_m_min=report.lambda_m_min,
            u_min=report.u_min,
            tau_measured_s=float(tau[k]),
            tau_bound_s=bound,
            converged=bool(converged[k]),
            diverged=bool(diverged[k]),
            steps=int(steps[k]),
            notes=note,
            final_error=_final_error(system, delta[:, k], cfg.norm_kind),
            epsilon=cfg.epsilon,
            **shared,
        )
        for k, (bound, note) in enumerate(zip(bounds, notes, strict=True))
    ]


def _system_records(
    spec: ExperimentSpec,
    system,
    bs: list[np.ndarray],
    oa: OpAmpModel,
    cfg: SolveConfig,
    first: int,
    notes: str,
    **shared,
) -> list[RunRecord]:
    """One RunRecord per right-hand side of bs, all solved in one block transient.

    Record k gets system_index first + k and notes "digest=<hash of A and
    b_k>" followed by notes; shared holds RunRecord fields common to all.
    """
    block = np.column_stack(bs)
    result = simulate(system, block, oa, cfg)
    a_hash = _hasher(system.a)
    digests = [f"digest={_digest(b, prefix=a_hash)}{notes}" for b in bs]
    return _rows(spec, system, result, cfg, _bounds(system, block, cfg, oa), digests, first, **shared)


# ----------------------------------------------------------------------
# Scenarios


def _run_transient(spec: ExperimentSpec, p: dict):
    a = DEFAULT_TRANSIENT_A if p["a"] is None else np.asarray(p["a"], dtype=float)
    b = DEFAULT_TRANSIENT_B if p["b"] is None else np.asarray(p["b"], dtype=float)
    oa, cfg = _circuit(
        p,
        alpha_fraction=float(p["alpha_fraction"]),
        include_gain_correction=bool(p["include_gain_correction"]),
    )
    system = build_feedback(a)
    result = simulate(system, b, oa, cfg)
    bounds = _bounds(system, b[:, None], cfg, oa)
    (record,) = _rows(spec, system, result, cfg, bounds, [f"digest={_digest(a, b)}"])
    trace = result.trace
    header = ("t_s", *(f"x_{i + 1}" for i in range(a.shape[0])), "error")
    samples = [(t, *state, e) for t, state, e in zip(trace.times, trace.states, trace.errors)]
    slew_ok = slew_check(result, oa)
    lines = [
        f"tau_s: {result.tau:.12g}",
        f"tau_gbw: {result.tau * oa.gbw:.12g}",
        f"final_error: {record.final_error:.6g}",
        f"slew_ok: {'true' if slew_ok else 'false'}",
    ]
    return [record], lines, {"trace.csv": _csv([header, *samples])}


def _sweep_matrix(master: int, mi: int, p: dict) -> np.ndarray:
    floor = float(p["lambda_floor"])
    for attempt in range(p["floor_tries"]):
        try:
            a, lam = random_discrete_pd(child_seed(master, mi, attempt))
        except GenerationError:
            continue  # a draw with no PD candidate is one more failed attempt
        if lam >= floor:
            return a
    raise GenerationError(f"no draw with lambda_min >= {floor} for system {mi}")


def _sweep_task(spec: ExperimentSpec, p: dict, oa: OpAmpModel, cfg: SolveConfig, mi: int) -> list[RunRecord]:
    vectors = p["vectors_per_system"]
    a = _sweep_matrix(spec.seed, mi, p)
    bs = [_unit_vector(a.shape[0], child_seed(spec.seed, mi, 10_000 + k)) for k in range(vectors)]
    return _system_records(spec, build_feedback(a), bs, oa, cfg, mi * vectors, f";matrix={mi}")


def _varies(values: np.ndarray) -> bool:
    """True when values hold two distinct numbers at least, enough to determine a fitted line."""
    return bool(np.ptp(values) > 0)


def _run_lambda_sweep(spec: ExperimentSpec, p: dict):
    oa, cfg = _circuit(p)
    if not _is_finite(p["lambda_floor"]):
        raise ConfigError(f"lambda_floor must be finite, got {p['lambda_floor']}")
    task = functools.partial(_sweep_task, spec, p, oa, cfg)
    by_matrix = _map_tasks([functools.partial(task, mi) for mi in range(p["systems"])], spec.threads)
    records = [rec for recs in by_matrix for rec in recs]

    inv_lam = np.array([1.0 / max(recs[0].lambda_m_min, 1e-30) for recs in by_matrix])
    peak_tau = np.array([max(r.tau_measured_s for r in recs) for recs in by_matrix])
    lams = [recs[0].lambda_min for recs in by_matrix]
    lines = [f"lambda_min_range: {min(lams):.6g} .. {max(lams):.6g}"]
    if _varies(inv_lam):
        slope, intercept = np.polyfit(inv_lam, peak_tau, 1)
        pred = slope * inv_lam + intercept
        ss_res = float(((peak_tau - pred) ** 2).sum())
        ss_tot = float(((peak_tau - peak_tau.mean()) ** 2).sum())
        r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
        lines.append(f"envelope_fit: slope={slope:.6g} intercept={intercept:.6g} r2={r2:.6g}")
    return records, lines, {}


def _scaling_task(
    spec: ExperimentSpec, p: dict, oa: OpAmpModel, cfg: SolveConfig, policy: DevicePolicy, job: int, si: int, variant: str
) -> list[RunRecord]:
    n, beta, vectors = p["sizes"][si], float(p["beta"]), p["vectors_per_size"]
    a = covariance_matrix(n, beta)
    if variant == "rram":
        a = program(a, policy, seed=child_seed(spec.seed, si))
    bs = [random_vector(n, seed=child_seed(spec.seed, si, k)) for k in range(vectors)]
    return _system_records(spec, build_feedback(a), bs, oa, cfg, job * vectors, f";variant={variant}", beta_or_s=beta)


def _run_scaling(spec: ExperimentSpec, p: dict):
    oa, cfg = _circuit(p)
    beta = _beta(p)
    sizes = p["sizes"]
    variants = [str(v) for v in p["variants"]]
    for variant in variants:
        if variant not in ("ideal", "rram"):
            raise ConfigError(f"unknown scaling variant {variant!r}")
    if len(set(variants)) != len(variants):
        raise ConfigError(f"scaling variants must be distinct, got {p['variants']}")
    if len(set(sizes)) != len(sizes):
        raise ConfigError(f"scaling sizes must be distinct, got {p['sizes']}")
    ratio = float(p["ratio"]) if p["ratio"] is not None else (1e4 if beta >= 2 else 1e3)
    policy = DevicePolicy(num_levels=p["num_levels"], ratio=ratio, noise_fraction=float(p["noise_fraction"]))
    jobs = [(si, variant) for si in range(len(sizes)) for variant in variants]
    task = functools.partial(_scaling_task, spec, p, oa, cfg, policy)
    groups = _map_tasks([functools.partial(task, job, *jobs[job]) for job in range(len(jobs))], spec.threads)
    records = [rec for recs in groups for rec in recs]

    means: dict[str, dict[int, float]] = {variant: {} for variant in variants}
    for (si, variant), recs in zip(jobs, groups):
        taus = [r.tau_measured_s for r in recs if r.converged]
        if taus:
            means[variant][sizes[si]] = float(np.mean(taus))
    lines = []
    for variant in variants:
        pts = list(means[variant].items())
        for n, mean_tau in pts:
            lines.append(f"mean_tau_s[{variant}][n={n}]: {mean_tau:.12g}")
        if len(pts) >= 4:
            fit = fit_scaling(pts)
            r2 = fit.r_squared
            lines.append(
                f"fit[{variant}]: kind={fit.model_kind}"
                f" constant_r2={r2['constant']:.6g}"
                f" logarithmic_r2={r2['logarithmic']:.6g}"
                f" linear_r2={r2['linear']:.6g}"
                f" logarithmic_b={fit.coefficients['logarithmic'][1]:.6g}"
            )
    ideal, rram = means.get("ideal", {}), means.get("rram", {})
    pairs = [(ideal[n], rram[n]) for n in sizes if ideal.get(n) and rram.get(n)]
    if pairs:
        worst = max(max(r / i, i / r) for i, r in pairs)
        lines.append(f"rram_vs_ideal_worst_ratio: {worst:.6g}")
    return records, lines, {}


def _sparse_task(
    spec: ExperimentSpec,
    p: dict,
    oa: OpAmpModel,
    cfg: SolveConfig,
    n_range: tuple[int, int],
    lambda_range: tuple[float, float],
    i: int,
) -> RunRecord:
    rng = np.random.default_rng(child_seed(spec.seed, i))
    n = int(rng.integers(n_range[0], n_range[1] + 1))
    lam_target = float(rng.uniform(*lambda_range))
    a = sparse_pd(n, s=min(p["s"], n), lambda_target=lam_target, seed=child_seed(spec.seed, i, 1))
    b = _unit_vector(n, child_seed(spec.seed, i, 2))
    cg = conjugate_gradient(a, b, tol=cfg.epsilon)
    realized_s = np.count_nonzero(a) / n  # nonzeros per row actually placed, at most s
    system = build_feedback(a, lambda_min=lam_target)  # sparse_pd placed lambda_min(A) at lam_target
    return _system_records(spec, system, [b], oa, cfg, i, "", beta_or_s=realized_s, cg_iterations=cg.iterations)[0]


def _run_sparse_suite(spec: ExperimentSpec, p: dict):
    oa, cfg = _circuit(p)
    for key in ("n_range", "lambda_range"):
        if len(p[key]) != 2:
            raise ConfigError(f"{key} must hold 2 entries, got {p[key]!r}")
    n_lo, n_hi = p["n_range"]
    lam_lo, lam_hi = (float(v) for v in p["lambda_range"])
    if n_hi < n_lo:
        raise ConfigError(f"invalid n_range {p['n_range']}")
    if not 0 < lam_lo <= lam_hi < np.inf:
        raise ConfigError(f"invalid lambda_range {p['lambda_range']}: need 0 < low <= high, both finite")
    task = functools.partial(_sparse_task, spec, p, oa, cfg, (n_lo, n_hi), (lam_lo, lam_hi))
    records = _map_tasks([functools.partial(task, i) for i in range(p["systems"])], spec.threads)

    lams = np.array([r.lambda_min for r in records])
    taus = np.array([r.tau_measured_s for r in records])
    ns = np.array([r.n for r in records], dtype=float)
    cg_time = np.array([r.cg_iterations * r.beta_or_s for r in records]) * ns
    subset = (lams >= 0.9) & (lams <= 1.0)
    lines = []
    if _varies(lams):
        slope = float(np.polyfit(np.log(lams), np.log(taus), 1)[0])
        lines.append(f"loglog_slope_tau_vs_lambda_min: {slope:.6g}")
    lines.append(f"subset_lambda_0.9_1.0: {int(subset.sum())}")
    if subset.sum() >= 3 and _varies(ns[subset]):
        if _varies(taus[subset]):
            r_tau_n = float(np.corrcoef(taus[subset], ns[subset])[0, 1])
            lines.append(f"subset_pearson_tau_n: {r_tau_n:.6g}")
        cg_slope = float(np.polyfit(ns[subset], cg_time[subset], 1)[0])
        lines.append(f"subset_cg_time_slope: {cg_slope:.6g}")
    return records, lines, {}


def _run_inversion(spec: ExperimentSpec, p: dict):
    oa, cfg = _circuit(p)
    n = p["n"]
    beta = _beta(p)
    policy = DevicePolicy(num_levels=p["num_levels"], ratio=float(p["ratio"]), noise_fraction=float(p["noise_fraction"]))
    ideal = covariance_matrix(n, beta)
    a_eff = program(ideal, policy, seed=child_seed(spec.seed, 0)) if p["noisy"] else ideal

    system = build_feedback(a_eff)
    result = invert_matrix(system, oa, cfg)
    notes = [f"digest={_digest(a_eff, j)};column={j}" for j in range(n)]
    records = _rows(spec, system, result, cfg, [None] * n, notes, beta_or_s=beta)

    computed = result.x_final
    reference = np.linalg.inv(ideal)
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero reference entry gets no relative error
        rel = np.abs(computed - reference) / np.abs(reference)
    # An entry is significant from 5% of the largest entry of the reference inverse.
    significant = np.abs(reference) >= 0.05 * float(np.abs(reference).max())
    cells = [
        (i, j, computed[i, j], reference[i, j], rel[i, j] if reference[i, j] != 0 else None)
        for i in range(n)
        for j in range(n)
    ]
    lines = [
        f"significant_entries: {int(significant.sum())}",
        f"max_rel_error_significant: {float(rel[significant].max()):.6g}",
        f"mean_column_tau_s: {float(np.mean(result.tau)):.12g}",
    ]
    return records, lines, {"inverse.csv": _csv([("row", "col", "computed", "reference", "rel_error"), *cells])}


def _run_estimate(spec: ExperimentSpec, p: dict):
    s = p["s"]
    lam_max = float(p["lambda_max"])
    lam_min = float(p["lambda_min"])
    epsilon = float(p["epsilon"])
    try:  # parameters outside the estimates' domain are a configuration error
        for n in p["sizes"]:
            _check_estimate_args(n, s, lam_max, lam_min, epsilon)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    records = []
    lines = []
    for i, n in enumerate(p["sizes"]):
        cg_rel = complexity_cg_estimate(n, s, lam_max, lam_min, epsilon)
        quantum_rel = complexity_quantum_estimate(n, s, lam_max, lam_min, epsilon)
        records.append(
            RunRecord(
                scenario=spec.scenario,
                system_index=i,
                n=n,
                beta_or_s=float(s),
                lambda_min=lam_min,
                notes=(
                    f"digest={_digest(n, s, lam_max, lam_min, epsilon)}"
                    f";cg_rel={cg_rel:.6g};quantum_rel={quantum_rel:.6g}"
                ),
            )
        )
        lines.append(f"estimate[n={n}]: cg_rel={cg_rel:.6g} quantum_rel={quantum_rel:.6g}")
    return records, lines, {}


SCENARIOS: dict[str, Callable] = {
    "transient": _run_transient,
    "lambda_sweep": _run_lambda_sweep,
    "scaling": _run_scaling,
    "sparse_suite": _run_sparse_suite,
    "inversion": _run_inversion,
    "estimate": _run_estimate,
}


# ----------------------------------------------------------------------
# Emission


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".12g")
    return str(value)


_csv_values = operator.attrgetter(*CSV_COLUMNS)


def _csv(rows) -> str:
    """CSV text with one line per row, each cell formatted by _cell."""
    return "".join(",".join(map(_cell, row)) + "\n" for row in rows)


def _summary_text(spec: ExperimentSpec, params: dict, records: list[RunRecord], extra: list[str]) -> str:
    solved = [r for r in records if r.converged is not None]
    converged = sum(1 for r in solved if r.converged)
    diverged = sum(1 for r in solved if r.diverged)
    timeouts = sum(1 for r in solved if not r.converged and not r.diverged)
    taus = [r.tau_measured_s for r in records if r.converged and r.tau_measured_s is not None]
    bounded = [r for r in records if r.tau_measured_s is not None and r.tau_bound_s is not None]
    bound_ok = sum(1 for r in bounded if r.tau_measured_s <= r.tau_bound_s)
    ineq = [
        r
        for r in records
        if r.lambda_min is not None
        and r.lambda_min > 0
        and r.lambda_m_min is not None
        and r.u_min is not None
    ]
    ineq_ok = sum(1 for r in ineq if r.lambda_m_min >= r.u_min * r.lambda_min * (1 - 1e-12))
    lines = [
        f"scenario: {spec.scenario}",
        f"seed: {spec.seed}",
        f"records: {len(records)}",
        f"converged: {converged}/{len(solved)}",
        f"diverged: {diverged}/{len(solved)}",
        f"timeouts: {timeouts}/{len(solved)}",
        f"epsilon: {_cell(float(params['epsilon']))}",
    ]
    if "gbw" in params:  # estimate runs no circuit
        gbw = float(params["gbw"])
        lines.append(f"gbw: {_cell(gbw)}")
        if taus:
            lines.append(f"mean_tau_gbw: {float(np.mean(taus)) * gbw:.12g}")
    if bounded:
        lines.append(f"bound_satisfied: {bound_ok}/{len(bounded)}")
    if ineq:
        lines.append(f"attenuation_inequality: {ineq_ok}/{len(ineq)}")
    lines.extend(extra)
    return "\n".join(lines) + "\n"


def _write(path: Path, text: str) -> Path:
    """Write text to path as UTF-8 with newline line ends, creating its directory."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc
    return path


def emit_outputs(records: list[RunRecord], summary: str, output_dir: str | Path) -> tuple[Path, Path]:
    """Write records.csv and summary.txt; byte-stable for identical inputs.

    Every record claiming convergence is re-verified against its recorded
    final error before anything is written. An empty record list is a
    usage error.
    """
    if not records:
        raise UsageError("no records to emit")
    for rec in records:
        if rec.converged and rec.final_error is not None and rec.epsilon is not None:
            if rec.final_error > rec.epsilon:
                raise NumericalError(
                    f"record {rec.system_index} claims convergence but final error "
                    f"{rec.final_error:.3e} exceeds epsilon {rec.epsilon:.3e}"
                )
        if "," in rec.notes or "\n" in rec.notes:
            raise UsageError(f"record {rec.system_index} notes must not contain commas/newlines")

    out = Path(output_dir)
    csv = _csv([CSV_COLUMNS, *map(_csv_values, records)])
    return _write(out / "records.csv", csv), _write(out / "summary.txt", summary)


def run_experiment(spec: ExperimentSpec) -> tuple[list[RunRecord], str]:
    """Run a scenario end to end and write its outputs.

    Parameters are validated before any system is solved; unknown keys are
    configuration errors. The scenario runs with every OpenBLAS that numpy
    and the oracle call set to one thread, here and in every worker process,
    so its records do not depend on the host's BLAS thread count. Returns (records, summary text) after writing
    records.csv, summary.txt, and any scenario-specific files.
    """
    if spec.scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {spec.scenario!r}; valid: {sorted(SCENARIOS)}")
    if not _is_integer(spec.seed) or spec.seed < 0:
        raise ConfigError(f"a nonnegative integer master seed is required, got {spec.seed!r}")
    if not _is_integer(spec.threads) or spec.threads < 1:
        raise ConfigError(f"threads must be an integer >= 1, got {spec.threads!r}")
    if not isinstance(spec.output_dir, (str, os.PathLike)):
        raise ConfigError(f"output_dir must be a path, got {spec.output_dir!r}")
    params = _merge_params(spec.scenario, dict(spec.parameters))
    _check_kinds(spec.scenario, params)
    with _one_blas_thread():
        records, extra_lines, aux = SCENARIOS[spec.scenario](spec, params)
    records = sorted(records, key=lambda r: r.system_index)
    summary = _summary_text(spec, params, records, extra_lines)
    emit_outputs(records, summary, spec.output_dir)
    for name, text in aux.items():
        _write(Path(spec.output_dir) / name, text)
    return records, summary
