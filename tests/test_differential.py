"""Scenario-level differential test: every solving scenario run by the engine and by the one-step reference.

Each run goes once through crossolve.dynamics.simulate and once with
simulate swapped, in experiments and in dynamics (for invert_matrix), for
tests/reference_engine.reference_transient, which steps the same recurrence
one product per step (McKeeman, "Differential testing for software",
Digital Technical Journal 10(1), 1998). records.csv and summary.txt must
be identical. trace.csv and inverse.csv hold states, which the two engines
round differently, and are compared within the bound of _state_bound, which
follows from simulate's rounding premise and not from the gaps seen. A
column's stop may differ only where the reference's error at the disputed
step lies within that bound of epsilon; the test then prints the bound and
compares the records of the other columns.
"""

import dataclasses
import math

import numpy as np
import pytest

from crossolve import ExperimentSpec, covariance_matrix, dynamics, experiments, resolve_step, run_experiment
from reference_engine import reference_transient

_UNIT_ROUNDOFF = 2.0**-53
# The deepest power a state of the engine is formed from: P^J with J <= 2^12
# (certified jumps; the stacked powers reach only D <= 2^8), so log2 J <= 12.
_DEEPEST_SQUARINGS = 12

_A40 = covariance_matrix(40, 1.0)
_RUNS = [
    ("transient", 0, {}),
    ("transient", 0, {"a": _A40.tolist(), "b": np.random.default_rng(40).uniform(-1.0, 1.0, 40).tolist()}),
    ("lambda_sweep", 0, {"systems": 6, "vectors_per_system": 3}),
    ("scaling", 0, {"beta": 1.0, "sizes": [3, 10, 30, 300], "vectors_per_size": 4}),
    ("scaling", 0, {"beta": 2.0, "sizes": [3, 10, 30], "vectors_per_size": 4}),
    ("sparse_suite", 0, {"systems": 8}),
    ("inversion", 7, {}),
]


def _state_bound(system, alpha: float, star_norm: float, steps: int) -> float:
    """The gap the rounding premise allows between two engines' l2 states of one column, up to step `steps`.

    simulate's rounding premise: a computed product errs from its exact
    value by about n u (1 + log2 J) ||x*||_2 before later powers carry it,
    u = 2^-53, J <= 2^12 the deepest power (Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., 2002, ch. 3). A rounding made at step
    t reaches step S through P^(S - t), so each engine's state at S is within
    that times sum_(i <= S) ||P^i||_2 of the exact recurrence, and two
    engines' states within twice that. For a symmetric A, ||P^i||_2 <=
    C_2 (1 - alpha lambda_M,min)^i with C_2 = sqrt(u_max / u_min), so the
    sum is at most C_2 / (alpha lambda_M,min); otherwise it is summed over
    the powers, each 2-norm bounded by its Frobenius norm.
    """
    n = system.a.shape[0]
    if system.symmetric:
        carried = math.sqrt(system.u.max() / system.u.min()) / (alpha * system.lambda_m_min)
    else:
        p, power, carried = np.eye(n) - alpha * system.m, np.eye(n), 0.0
        for _ in range(steps + 1):
            carried += float(np.linalg.norm(power))
            power = p @ power
    return 2.0 * n * _UNIT_ROUNDOFF * (1 + _DEEPEST_SQUARINGS) * star_norm * carried


def _recording(solve, calls: list):
    def record(system, b, oa=None, cfg=None):
        result = solve(system, b, oa, cfg)
        calls.append((system, np.asarray(b, dtype=float), oa, cfg, result))
        return result

    return record


def _stops(result) -> list[tuple[int, bool, bool]]:
    steps = np.atleast_1d(result.steps if result.column_steps is None else result.column_steps)
    return list(zip(steps.tolist(), np.atleast_1d(result.converged).tolist(), np.atleast_1d(result.diverged).tolist()))


def _norm(system, d: np.ndarray, norm_kind: str) -> float:
    return math.sqrt(float(d @ (d if norm_kind == "l2" else system.a @ d)))


def _disputes(engine_calls: list, reference_calls: list) -> int:
    """Check every column whose stop differs between the engines; return how many there are.

    The disputed step is the earlier of the two stops, at which one engine
    stopped and the other did not. The reference's error there must lie
    within _state_bound of epsilon, taken in norm_kind: under "a_norm" it is
    scaled by ||A||_2^1/2.
    """
    disputes = 0
    for (system, b, oa, cfg, engine), (_, _, _, _, ref) in zip(engine_calls, reference_calls, strict=True):
        block = b.reshape(system.a.shape[0], -1)
        for j, (mine, theirs) in enumerate(zip(_stops(engine), _stops(ref), strict=True)):
            if mine == theirs:
                continue
            disputes += 1
            step = min(mine[0], theirs[0])
            x_star = ref.x_star.reshape(block.shape)[:, j]
            if step == theirs[0]:
                x = ref.x_final.reshape(block.shape)[:, j]
            else:  # the reference's state at the engine's stop
                x = reference_transient(system, block[:, j], oa, dataclasses.replace(cfg, max_steps=step)).x_final
            alpha, _ = resolve_step(system, oa, cfg)
            bound = _state_bound(system, alpha, float(np.linalg.norm(x_star)), max(mine[0], theirs[0]))
            if cfg.norm_kind == "a_norm":
                bound *= math.sqrt(np.linalg.norm(system.a, 2))
            error = _norm(system, x - x_star, cfg.norm_kind)
            print(f"column {j}: engine stop {mine} and reference stop {theirs}; the reference's error at step {step} "
                  f"is {error:.6e}, epsilon {cfg.epsilon:.6e}, rounding bound {bound:.3e}")
            assert abs(error - cfg.epsilon) <= bound
    return disputes


def _cells(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines()]


def _printed_gap(x: float, y: float) -> float:
    """The most two values within rounding of each other can differ after .12g printing: one unit in their 12th digit."""
    scale = max(abs(x), abs(y))
    return 10.0 ** (math.floor(math.log10(scale)) - 11) if scale else 0.0


def _assert_close(engine: str, ref: str, bound_of, exact_columns: set[int]) -> None:
    """Every cell equal in the exact columns and within bound_of(row, column) + printing elsewhere."""
    mine, theirs = _cells(engine), _cells(ref)
    assert len(mine) == len(theirs) and mine[0] == theirs[0]
    for row, (a, b) in enumerate(zip(mine[1:], theirs[1:])):
        for col, (x, y) in enumerate(zip(a, b, strict=True)):
            if col in exact_columns or x == y:
                assert x == y, (row, col)
                continue
            x, y = float(x), float(y)
            assert abs(x - y) <= bound_of(row, col) + _printed_gap(x, y), (row, col, x, y)


def _assert_trace_close(engine: str, ref: str, engine_call, ref_call) -> None:
    # l2 errors: |e_1 - e_2| <= ||x_1 - x_2||_2, so state and error cells share the bound;
    # each step's |dx_i| is a difference of two states, so max_slew dt differs by at most twice it
    system, _, oa, cfg, result = ref_call
    assert cfg.norm_kind == "l2"
    alpha, dt = resolve_step(system, oa, cfg)
    bound = _state_bound(system, alpha, float(np.linalg.norm(result.x_star)), result.steps)
    _assert_close(engine, ref, lambda row, col: bound, {0})
    assert abs(engine_call[4].max_slew - result.max_slew) * dt <= 2.0 * bound


def _assert_inverse_close(engine: str, ref: str, call) -> None:
    # columns row, col, computed, reference, rel_error = |computed - reference| / |reference|
    system, _, oa, cfg, result = call
    alpha, _ = resolve_step(system, oa, cfg)
    n = system.a.shape[0]
    bounds = [_state_bound(system, alpha, float(np.linalg.norm(result.x_star[:, j])), int(result.column_steps[j])) for j in range(n)]
    reference = [float(cells[3]) for cells in _cells(ref)[1:]]

    def bound_of(row: int, col: int) -> float:
        j = row % n
        return bounds[j] if col == 2 else bounds[j] / abs(reference[row])

    _assert_close(engine, ref, bound_of, {0, 1, 3})


@pytest.mark.parametrize(("scenario", "seed", "params"), _RUNS, ids=[f"{s}-{i}" for i, (s, _, _) in enumerate(_RUNS)])
def test_scenario_matches_the_one_step_reference(tmp_path, monkeypatch, scenario, seed, params):
    runs = {}
    for name, solve in (("engine", dynamics.simulate), ("reference", reference_transient)):
        calls = runs[name] = []
        monkeypatch.setattr(experiments, "simulate", _recording(solve, calls))
        monkeypatch.setattr(dynamics, "simulate", _recording(solve, calls))
        run_experiment(ExperimentSpec(scenario, seed=seed, output_dir=tmp_path / name, parameters=params))
    monkeypatch.undo()
    read = {name: {path.name: path.read_text() for path in (tmp_path / name).iterdir()} for name in runs}
    engine, ref = read["engine"], read["reference"]
    assert sorted(engine) == sorted(ref)
    disputes = _disputes(runs["engine"], runs["reference"])
    if disputes:
        # only the disputed records may differ, and the summary follows them
        rows = zip(_cells(engine["records.csv"]), _cells(ref["records.csv"]), strict=True)
        assert sum(a != b for a, b in rows) <= disputes
        return
    assert engine["records.csv"] == ref["records.csv"]
    assert engine["summary.txt"] == ref["summary.txt"]
    if scenario == "transient":
        _assert_trace_close(engine["trace.csv"], ref["trace.csv"], *runs["engine"], *runs["reference"])
    if scenario == "inversion":
        (call,) = runs["reference"]
        _assert_inverse_close(engine["inverse.csv"], ref["inverse.csv"], call)
