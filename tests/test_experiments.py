"""Experiment harness tests: seeding, scenarios, CSV emission, determinism."""

import dataclasses
import functools
import hashlib
import importlib
import inspect
import multiprocessing
import os
import pkgutil
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import crossolve.dynamics
import crossolve.experiments
import crossolve.spectral
from crossolve import (
    CSV_COLUMNS,
    SCHEMA_VERSION,
    ConfigError,
    ExperimentSpec,
    FeedbackSystem,
    GenerationError,
    NumericalError,
    OpAmpModel,
    OutputError,
    RunRecord,
    SolveConfig,
    UsageError,
    build_feedback,
    child_seed,
    covariance_matrix,
    emit_outputs,
    random_vector,
    run_experiment,
    scenario_defaults,
    simulate,
    sparse_pd,
    time_bound,
)
from crossolve.experiments import (
    DEFAULT_TRANSIENT_A,
    _map_tasks,
    _op_amp,
    _system_records,
    _unit_vector,
)
from crossolve.spectral import _openblas_runtimes


class TestChildSeed:
    def test_deterministic(self):
        assert child_seed(7, 3, 1) == child_seed(7, 3, 1)

    def test_distinct_across_indices(self):
        seeds = {child_seed(7, i, j) for i in range(20) for j in range(5)}
        assert len(seeds) == 100

    def test_distinct_across_masters(self):
        assert child_seed(1, 0) != child_seed(2, 0)

    def test_fits_unsigned_64(self):
        assert 0 <= child_seed(123456789, 42) < 2**64


# Module-level, so that they pickle and _map_tasks sends them to worker processes.
def _index_and_pid(i: int) -> tuple[int, int]:
    return i, os.getpid()


def _blas_threads(_: int) -> list[int]:
    return [get_threads() for _, get_threads in _openblas_runtimes()]


def _fails_at_two(i: int) -> int:
    if i == 2:
        raise GenerationError(f"no draw for task {i}")
    return i


class TestMapTasks:
    @pytest.mark.parametrize("workers", [2, 3])
    def test_results_in_index_order_from_worker_processes(self, workers):
        results = _map_tasks([functools.partial(_index_and_pid, i) for i in range(13)], workers)
        assert [i for i, _ in results] == list(range(13))
        pids = {pid for _, pid in results}
        assert os.getpid() not in pids
        assert len(pids) <= workers

    def test_workers_run_one_blas_thread(self):
        runtimes = _openblas_runtimes()
        if not runtimes:
            pytest.skip("no OpenBLAS runtime found in this process")
        before = [get_threads() for _, get_threads in runtimes]
        for set_threads, _ in runtimes:
            set_threads(2)  # a worker must not inherit the caller's count
        try:
            results = _map_tasks([functools.partial(_blas_threads, i) for i in range(4)], 2)
        finally:
            for (set_threads, _), count in zip(runtimes, before):
                set_threads(count)
        assert results == [[1] * len(runtimes)] * 4

    def test_worker_error_reaches_the_caller(self):
        with pytest.raises(GenerationError, match="^no draw for task 2$"):
            _map_tasks([functools.partial(_fails_at_two, i) for i in range(8)], 2)
        assert multiprocessing.active_children() == []

    def test_tasks_that_do_not_pickle_run_in_the_caller(self):
        def local(i):
            return i, os.getpid()

        tasks = [functools.partial(local, i) for i in range(3)] + [lambda: (3, os.getpid())]
        assert _map_tasks(tasks, 2) == [(i, os.getpid()) for i in range(4)]

    def test_caller_with_another_thread_runs_the_tasks_itself(self):
        """Fork copies a lock another thread holds, so a threaded caller forks no worker."""
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(30,))
        other.start()
        try:
            results = _map_tasks([functools.partial(_index_and_pid, i) for i in range(4)], 2)
        finally:
            release.set()
            other.join(30)
        assert not other.is_alive()
        assert results == [(i, os.getpid()) for i in range(4)]

    def test_records_identical_at_any_worker_count(self, tmp_path):
        # every scenario that maps its systems over workers, at tiny sizes
        mapped = {
            "sparse_suite": {"systems": 10},
            "lambda_sweep": {"systems": 8, "vectors_per_system": 2},
            "scaling": {"sizes": (3, 10, 30), "vectors_per_size": 3},
        }
        for scenario, parameters in mapped.items():
            blobs = []
            for workers in (1, 2, 8):
                out = tmp_path / f"{scenario}-w{workers}"
                spec = ExperimentSpec(scenario, seed=5, output_dir=out, parameters=parameters, threads=workers)
                run_experiment(spec)
                blobs.append((out / "records.csv").read_bytes())
            assert blobs[0] == blobs[1] == blobs[2], scenario


class TestEmitOutputs:
    def _record(self, **kwargs):
        base = dict(
            scenario="transient",
            system_index=0,
            n=3,
            lambda_min=1.0 / 3.0,
            converged=True,
            diverged=False,
            steps=10,
            tau_measured_s=1.25e-7,
            notes="digest=abc",
            final_error=5e-4,
            epsilon=1e-3,
        )
        base.update(kwargs)
        return RunRecord(**base)

    def test_schema_and_formatting(self, tmp_path):
        records_path, summary_path = emit_outputs([self._record()], "summary line\n", tmp_path)
        text = records_path.read_text()
        lines = text.splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        cells = lines[1].split(",")
        assert cells[0] == str(SCHEMA_VERSION)
        assert cells[1] == "transient"
        assert cells[5] == "0.333333333333"  # %.12g float formatting
        assert cells[8] == "1.25e-07"
        assert cells[10] == "true"
        assert cells[11] == "false"
        assert cells[4] == ""  # None fields serialize as empty
        assert summary_path.read_text() == "summary line\n"

    def test_empty_records_rejected(self, tmp_path):
        with pytest.raises(UsageError):
            emit_outputs([], "s", tmp_path)

    def test_convergence_claims_reverified(self, tmp_path):
        bad = self._record(final_error=5e-3)
        with pytest.raises(NumericalError):
            emit_outputs([bad], "s", tmp_path)

    def test_commas_in_notes_rejected(self, tmp_path):
        bad = self._record(notes="a,b")
        with pytest.raises(UsageError):
            emit_outputs([bad], "s", tmp_path)

    def test_unwritable_target(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        with pytest.raises(OutputError):
            emit_outputs([self._record()], "s", blocker)


class TestSpecValidation:
    def test_unknown_scenario(self, tmp_path):
        with pytest.raises(ConfigError):
            run_experiment(ExperimentSpec("warp", seed=0, output_dir=tmp_path))

    def test_unknown_parameter(self, tmp_path):
        spec = ExperimentSpec("transient", seed=0, output_dir=tmp_path, parameters={"bogus": 1})
        with pytest.raises(ConfigError):
            run_experiment(spec)

    def test_negative_seed(self, tmp_path):
        with pytest.raises(ConfigError):
            run_experiment(ExperimentSpec("transient", seed=-1, output_dir=tmp_path))

    def test_bad_threads(self, tmp_path):
        with pytest.raises(ConfigError):
            run_experiment(ExperimentSpec("transient", seed=0, output_dir=tmp_path, threads=0))

    def test_op_amp_keeps_the_configured_gbw(self):
        # gbw once went through omega0 = gbw / l0 and back, which lost the last bit here
        params = dict(scenario_defaults("transient"), gbw=939210013.6157321, l0=381210.4256458355, slew_rate=1e6)
        assert _op_amp(params) == OpAmpModel(gbw=939210013.6157321, l0=381210.4256458355, slew_rate=1e6)
        # a scenario without l0 and slew_rate keeps OpAmpModel's defaults for them
        assert _op_amp(dict(scenario_defaults("scaling"), gbw=2e8)) == OpAmpModel(gbw=2e8)

    def test_scenario_defaults_copies(self):
        d1 = scenario_defaults("transient")
        d1["epsilon"] = 99.0
        assert scenario_defaults("transient")["epsilon"] == 1e-3
        with pytest.raises(ConfigError):
            scenario_defaults("bogus")


class TestSystemRecords:
    @pytest.mark.parametrize("norm_kind", ["l2", "a_norm"])
    def test_one_factorization_per_matrix(self, monkeypatch, norm_kind):
        calls = []
        solves = []
        factorize = crossolve.spectral.factorize
        dgetrs = crossolve.spectral._dgetrs

        def counted(a):
            calls.append(a.shape)
            return factorize(a)

        def counted_solve(lu, piv, b):
            solves.append(b.shape)
            return dgetrs(lu, piv, b)

        monkeypatch.setattr(crossolve.spectral, "factorize", counted)
        monkeypatch.setattr(crossolve.dynamics, "factorize", counted)
        monkeypatch.setattr(crossolve.spectral, "_dgetrs", counted_solve)
        spec = ExperimentSpec("scaling", seed=0, output_dir="unused")
        cfg = SolveConfig(norm_kind=norm_kind)

        a = covariance_matrix(12, 1.0)  # symmetric positive definite, so bounds are computed
        bs = [random_vector(12, seed=k) for k in range(4)]
        records = _system_records(spec, build_feedback(a), bs, OpAmpModel(), cfg, 0, "")
        assert calls == [(12, 12)]
        assert solves == [(12, 4)]  # the transient's oracle, which time_bound reuses
        assert all(r.converged and r.tau_bound_s is not None for r in records)
        assert all(r.final_error <= r.epsilon for r in records)

        # a nonsymmetric A has no bound, so only the transient solves
        calls.clear()
        solves.clear()
        bs = [random_vector(3, seed=k) for k in range(3)]
        records = _system_records(spec, build_feedback(DEFAULT_TRANSIENT_A), bs, OpAmpModel(), cfg, 0, "")
        assert calls == [(3, 3)]
        assert solves == [(3, 3)]
        assert all(r.converged and r.tau_bound_s is None for r in records)


@pytest.mark.parametrize(
    ("scenario", "params"),
    [
        ("transient", {}),
        ("lambda_sweep", {"systems": 2, "vectors_per_system": 2}),
        ("scaling", {"sizes": (3, 10), "vectors_per_size": 2}),
        ("sparse_suite", {"systems": 2}),
        ("inversion", {"n": 4}),
    ],
)
def test_false_convergence_claim_raises_at_emission(tmp_path, monkeypatch, scenario, params):
    """Every solved row's final error comes from _final_error, and emission re-checks it against epsilon."""
    monkeypatch.setattr(crossolve.experiments, "_final_error", lambda *args: 1.0)
    with pytest.raises(NumericalError, match="claims convergence"):
        run_experiment(ExperimentSpec(scenario, seed=0, output_dir=tmp_path, parameters=params))
    assert not (tmp_path / "records.csv").exists()


class TestTransientScenario:
    def test_outputs(self, tmp_path):
        spec = ExperimentSpec("transient", seed=0, output_dir=tmp_path)
        records, summary = run_experiment(spec)
        assert len(records) == 1
        rec = records[0]
        assert rec.converged and not rec.diverged
        assert rec.tau_measured_s < 1e-6
        assert rec.final_error <= 1e-3
        assert "tau_gbw:" in summary and "slew_ok: true" in summary
        trace = (tmp_path / "trace.csv").read_text().splitlines()
        assert trace[0] == "t_s,x_1,x_2,x_3,error"
        assert len(trace) > 10
        assert (tmp_path / "records.csv").exists()
        assert (tmp_path / "summary.txt").read_text() == summary


class TestLambdaSweepScenario:
    def test_small_run(self, tmp_path):
        spec = ExperimentSpec(
            "lambda_sweep",
            seed=4,
            output_dir=tmp_path,
            parameters={"systems": 4, "vectors_per_system": 2},
        )
        records, summary = run_experiment(spec)
        assert len(records) == 8
        assert all(r.converged for r in records)
        assert all(r.lambda_min >= 0.005 for r in records)
        assert all(r.lambda_m_min >= r.u_min * r.lambda_min * (1 - 1e-12) for r in records)
        assert "envelope_fit:" in summary

    def test_exhausted_draw_counts_as_failed_attempt(self, tmp_path):
        # at master seed 31 the first draw for system 52 finds no PD matrix
        # within its 64 draws; the next attempt succeeds
        spec = ExperimentSpec(
            "lambda_sweep",
            seed=31,
            output_dir=tmp_path,
            parameters={"systems": 53, "vectors_per_system": 1},
        )
        records, _ = run_experiment(spec)
        assert records[52].lambda_min == pytest.approx(0.306, abs=5e-4)

    def test_thread_determinism(self, tmp_path):
        params = {"systems": 5, "vectors_per_system": 2}
        blobs = []
        for threads in (1, 4):
            out = tmp_path / f"t{threads}"
            run_experiment(
                ExperimentSpec("lambda_sweep", seed=9, output_dir=out, parameters=params, threads=threads)
            )
            blobs.append((out / "records.csv").read_bytes())
        assert blobs[0] == blobs[1]


class TestScalingScenario:
    def test_small_run(self, tmp_path):
        spec = ExperimentSpec(
            "scaling",
            seed=1,
            output_dir=tmp_path,
            parameters={"sizes": [3, 10, 30, 100], "vectors_per_size": 3},
        )
        records, summary = run_experiment(spec)
        assert len(records) == 24  # 4 sizes x 2 variants x 3 vectors
        assert all(r.converged for r in records)
        ideal = [r for r in records if r.notes.endswith("variant=ideal")]
        assert all(r.tau_bound_s is not None for r in ideal)
        assert all(r.tau_measured_s <= r.tau_bound_s for r in ideal)
        assert "fit[ideal]:" in summary and "fit[rram]:" in summary
        assert "rram_vs_ideal_worst_ratio:" in summary

    def test_variant_validation(self, tmp_path):
        spec = ExperimentSpec(
            "scaling", seed=1, output_dir=tmp_path, parameters={"variants": ["ideal", "foggy"]}
        )
        with pytest.raises(ConfigError):
            run_experiment(spec)

    @pytest.mark.parametrize(
        "params",
        [
            {"sizes": [3, 3, 10, 30, 100]},
            {"sizes": [0, 3, 10, 30]},
            {"sizes": [-3, 10]},
            {"variants": ["rram", "rram"]},
        ],
    )
    def test_duplicate_or_nonpositive_rejected(self, tmp_path, params):
        spec = ExperimentSpec("scaling", seed=1, output_dir=tmp_path, parameters={"vectors_per_size": 1, **params})
        with pytest.raises(ConfigError):
            run_experiment(spec)


class TestSparseSuiteScenario:
    def test_small_run(self, tmp_path):
        spec = ExperimentSpec("sparse_suite", seed=3, output_dir=tmp_path, parameters={"systems": 6})
        records, summary = run_experiment(spec)
        assert len(records) == 6
        for r in records:
            assert 20 <= r.n <= 200
            assert 0.1 <= r.lambda_min <= 1.1 + 1e-9
            assert r.cg_iterations is not None and r.cg_iterations >= 1
            assert r.tau_bound_s is not None
            assert r.tau_measured_s <= r.tau_bound_s
        assert "loglog_slope_tau_vs_lambda_min:" in summary

    def test_l2_bound_holds_below_unit_lambda_min(self, tmp_path):
        """An l2 record's bound covers its tau where lambda_min(A) < 1, so ||e||_2 > ||e||_A."""
        params = {"systems": 12, "lambda_range": [0.1, 0.3], "n_range": [20, 60]}
        records, summary = run_experiment(ExperimentSpec("sparse_suite", seed=2, output_dir=tmp_path, parameters=params))
        assert all(r.lambda_min < 0.3 for r in records)
        assert all(r.converged and r.tau_measured_s <= r.tau_bound_s for r in records)
        assert "bound_satisfied: 12/12" in summary.splitlines()

    def test_default_bound_covers_default_transient(self):
        """simulate and time_bound with every default measure the same norm (l2) at the same epsilon.

        System 76 of seed 0 (n = 44, lambda_min(A) = 0.264) once took 1.0022
        times the energy-norm bound that time_bound gave by default.
        """
        rng = np.random.default_rng(child_seed(0, 76))
        n = int(rng.integers(20, 201))
        lam = float(rng.uniform(0.1, 1.1))
        assert n == 44
        system = build_feedback(sparse_pd(n, s=10, lambda_target=lam, seed=child_seed(0, 76, 1)))
        b = _unit_vector(n, child_seed(0, 76, 2))
        result = simulate(system, b)
        assert result.converged and result.tau <= time_bound(system, b)

    def test_symmetric_eigensolver_only(self, tmp_path, monkeypatch):
        """Each system's symmetry is tested once, and eig(M) never runs the general solver."""
        tested, general = [], []
        symmetric = FeedbackSystem.symmetric.func
        eigvals = np.linalg.eigvals
        spy = functools.cached_property(lambda system: tested.append(system.a.shape) or symmetric(system))
        spy.__set_name__(FeedbackSystem, "symmetric")
        monkeypatch.setattr(FeedbackSystem, "symmetric", spy)
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: general.append(a.shape) or eigvals(a))
        records, _ = run_experiment(
            ExperimentSpec("sparse_suite", seed=3, output_dir=tmp_path, parameters={"systems": 5})
        )
        assert tested == [(r.n, r.n) for r in records]
        assert general == []

    def test_beta_or_s_is_realized_nonzeros(self, tmp_path, monkeypatch):
        """beta_or_s and the CG cost fit read the sparsity that was built, not the requested s."""
        matrices = []

        def recorded(a, **placed):
            matrices.append(a)
            return build_feedback(a, **placed)

        monkeypatch.setattr(crossolve.experiments, "build_feedback", recorded)
        params = {"systems": 6, "lambda_range": [0.9, 1.0]}
        records, summary = run_experiment(
            ExperimentSpec("sparse_suite", seed=3, output_dir=tmp_path, parameters=params)
        )
        realized = np.array([np.count_nonzero(a) / a.shape[0] for a in matrices])
        assert [r.beta_or_s for r in records] == realized.tolist()
        assert realized.min() < 10  # some draw left a row short of s = 10
        ns = np.array([r.n for r in records], dtype=float)
        cg_time = np.array([r.cg_iterations for r in records]) * realized * ns
        slope = float(np.polyfit(ns, cg_time, 1)[0])
        assert f"subset_cg_time_slope: {slope:.6g}" in summary.splitlines()

    def test_range_validation(self, tmp_path):
        bad = ExperimentSpec(
            "sparse_suite", seed=3, output_dir=tmp_path, parameters={"lambda_range": [0.0, 1.0]}
        )
        with pytest.raises(ConfigError):
            run_experiment(bad)


class TestInversionScenario:
    @pytest.mark.parametrize("norm", ["l2", "a_norm"])
    def test_small_run(self, tmp_path, monkeypatch, norm):
        calls = []
        factorize = crossolve.spectral.factorize

        def counted(a):
            calls.append(a.shape)
            return factorize(a)

        monkeypatch.setattr(crossolve.spectral, "factorize", counted)
        monkeypatch.setattr(crossolve.dynamics, "factorize", counted)
        spec = ExperimentSpec("inversion", seed=7, output_dir=tmp_path, parameters={"n": 4, "norm": norm})
        records, summary = run_experiment(spec)
        assert calls == [(4, 4)]
        assert len(records) == 4
        assert all(r.converged for r in records)
        assert all(r.epsilon == 1e-4 for r in records)
        assert all(r.final_error <= r.epsilon for r in records)
        inv = (tmp_path / "inverse.csv").read_text().splitlines()
        assert inv[0] == "row,col,computed,reference,rel_error"
        assert len(inv) == 17
        assert "max_rel_error_significant:" in summary

    def test_non_integer_level_count_rejected(self, tmp_path):
        # int() once truncated it, so 2.5 levels ran as 2
        spec = ExperimentSpec("inversion", seed=7, output_dir=tmp_path, parameters={"n": 4, "num_levels": 2.5})
        with pytest.raises(ConfigError, match="num_levels"):
            run_experiment(spec)

    def test_noiseless_matches_reference_tightly(self, tmp_path):
        spec = ExperimentSpec(
            "inversion", seed=7, output_dir=tmp_path, parameters={"n": 4, "noisy": False}
        )
        records, summary = run_experiment(spec)
        line = next(s for s in summary.splitlines() if s.startswith("max_rel_error_significant:"))
        assert float(line.split(":")[1]) < 0.01

    @pytest.mark.parametrize("noisy", [False, True])
    def test_eigensolver_follows_symmetry(self, tmp_path, monkeypatch, noisy):
        systems = []

        def recorded(a):
            systems.append(build_feedback(a))
            return systems[-1]

        monkeypatch.setattr(crossolve.experiments, "build_feedback", recorded)
        spec = ExperimentSpec("inversion", seed=7, output_dir=tmp_path, parameters={"n": 6, "noisy": noisy})
        run_experiment(spec)
        (system,) = systems
        ev = system.m_eigenvalues
        assert system.symmetric is not noisy
        if noisy:
            assert np.array_equal(ev, np.linalg.eigvals(system.m))
        else:
            np.testing.assert_allclose(ev, np.sort(np.linalg.eigvals(system.m).real), rtol=1e-10, atol=0)

    def test_one_eigendecomposition(self, tmp_path, monkeypatch):
        computed = []
        eigenvalues = FeedbackSystem.m_eigenvalues.func

        def counted(system):
            computed.append(system.a.shape)
            return eigenvalues(system)

        prop = functools.cached_property(counted)
        prop.__set_name__(FeedbackSystem, "m_eigenvalues")
        monkeypatch.setattr(FeedbackSystem, "m_eigenvalues", prop)
        run_experiment(ExperimentSpec("inversion", seed=7, output_dir=tmp_path, parameters={"n": 4}))
        assert computed == [(4, 4)]


class TestEstimateScenario:
    def test_algebraic_records(self, tmp_path):
        spec = ExperimentSpec("estimate", seed=0, output_dir=tmp_path)
        records, summary = run_experiment(spec)
        assert len(records) == 4
        for r in records:
            assert r.tau_measured_s is None
            assert r.converged is None
            assert "cg_rel=" in r.notes and "quantum_rel=" in r.notes
        assert "estimate[n=10000]:" in summary

    def test_runs_no_dynamics_fast(self, tmp_path):
        spec = ExperimentSpec(
            "estimate", seed=0, output_dir=tmp_path, parameters={"sizes": [100000000]}
        )
        records, _ = run_experiment(spec)
        assert records[0].n == 100000000


@pytest.mark.parametrize(
    ("scenario", "params", "absent", "present"),
    [
        ("lambda_sweep", {"systems": 1, "vectors_per_system": 3}, ["envelope_fit:"], ["lambda_min_range:"]),
        ("sparse_suite", {"systems": 1}, ["loglog_slope_tau_vs_lambda_min:"], ["subset_lambda_0.9_1.0: 0"]),
        (
            "sparse_suite",
            {"systems": 6, "n_range": [20, 20], "lambda_range": [0.9, 1.0]},
            ["subset_pearson_tau_n:", "subset_cg_time_slope:"],
            ["loglog_slope_tau_vs_lambda_min:", "subset_lambda_0.9_1.0: 6"],
        ),
    ],
    ids=["sweep-one-system", "sparse-one-system", "sparse-one-size"],
)
def test_fit_lines_only_where_their_points_determine_them(tmp_path, scenario, params, absent, present):
    # one point, or points at a single x, once gave a fit line (an exact
    # r2 = 1, a slope through one point, a Pearson r of nan)
    _, summary = run_experiment(ExperimentSpec(scenario, seed=0, output_dir=tmp_path, parameters=params))
    assert not any(name in summary for name in absent)
    assert all(line in summary for line in present)
    assert "nan" not in summary


# sha256 of every file that acceptance criterion 10's six configurations
# write at master seed 11 and one worker.
_PINNED_RECORDS = [
    (
        "transient",
        {},
        {
            "records.csv": "e23f4e7ea6f99784b7c29caf995fbe510511fde35a2034b9a38483f50f88fddc",
            "summary.txt": "fdbbfd6b1315b4e50a76a70b081399926c8f358b8d2db484cd69489e7571f9d3",
            "trace.csv": "79488d76e6ee1d355fba4ff92606bab9c454d4ebf395a7a024339d56d55a0758",
        },
    ),
    (
        "lambda_sweep",
        {"systems": 6, "vectors_per_system": 3},
        {
            "records.csv": "8f53b5735193d67512afa97efc05ba8560ab4f072b6adcb9dde1df90e6bfcf91",
            "summary.txt": "3e36dc7a7bc0d289fe5a7a9e9d25fde496b5519de3d0e2ec080d2d1177f53efc",
        },
    ),
    (
        "scaling",
        {"sizes": (3, 10, 30), "vectors_per_size": 4},
        {
            "records.csv": "5a773d40723b5cc4fd0f8724cff7fbbaf25171655f455f202dab1fc84122f596",
            "summary.txt": "c5e1285796dd4f3effa9439ad735f1d3200dc102cf674a49c6a9ba88384dcb42",
        },
    ),
    (
        "sparse_suite",
        {"systems": 24},
        {
            "records.csv": "56b351195c57f896574776dc430e51d79382862134fb663d775be3e1a5a71658",
            "summary.txt": "7df2fda671a0aff4e1eb9640d6457a7be606b2ed6e83cbdb9c0555d1c1a36bba",
        },
    ),
    (
        "inversion",
        {"n": 4},
        {
            "records.csv": "ec43b09f403d7102101f2217caf84d5802954bd9667ddf61cf558f238b3f9d62",
            "summary.txt": "60ed82ec21395a604cd244639636eed03ce9228512a52039de0e38efb2f3f8f9",
            "inverse.csv": "15e8ba5f623228c3b0f9972b87ef74ed6e8173978d9e5853c0eb27d383a43a89",
        },
    ),
    (
        "estimate",
        {"sizes": (10, 100, 1000)},
        {
            "records.csv": "44332697588cb9d73dbc2a00acc31ff84fa6030b01868cbfb92c8da81163fe7e",
            "summary.txt": "ce55d01ff31576fdb9d196f977014efda27348f406761b1b0984d57085969c2e",
        },
    ),
]


@pytest.mark.parametrize(("scenario", "params", "digests"), _PINNED_RECORDS, ids=[c[0] for c in _PINNED_RECORDS])
def test_records_bytes_pinned(tmp_path, scenario, params, digests):
    """Output bytes are pinned, so a refactor that moves any byte fails here.

    Every file a run writes is hashed: records.csv, summary.txt, and
    trace.csv or inverse.csv where the scenario writes one. The digests
    are the bytes of one BLAS thread, which run_experiment sets for every
    run, and were recorded with Python 3.11, numpy 2.4.6 and scipy 1.17.1
    on the OpenBLAS each wheel bundles, which openblas_get_config reports
    as 0.3.31 for numpy and 0.3.30 for scipy, both running SkylakeX kernels
    on x86-64; another numpy/scipy/BLAS build or CPU kernel may round
    eigenvalues and solves differently in the last bit and move them. A change that moves them
    on purpose must re-pin them and say why in CHANGES.md.
    """
    run_experiment(ExperimentSpec(scenario, seed=11, output_dir=tmp_path, parameters=params, threads=1))
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in tmp_path.iterdir()}
    assert written == digests


def test_only_sparse_suite_skips_the_symmetric_part_eigensolve(tmp_path, monkeypatch):
    """sparse_suite reports the lambda_min that sparse_pd placed; lambda_sweep and scaling compute one per matrix."""
    solve, build = crossolve.dynamics.sym_part_lambda_min, crossolve.experiments.build_feedback
    solved, built = [], []
    monkeypatch.setattr(crossolve.dynamics, "sym_part_lambda_min", lambda a: solved.append(a) or solve(a))
    monkeypatch.setattr(crossolve.experiments, "build_feedback", lambda *args, **kw: built.append(args) or build(*args, **kw))
    runs = [
        ("sparse_suite", {"systems": 5}, 5),
        ("lambda_sweep", {"systems": 4, "vectors_per_system": 2}, 4),
        ("scaling", {"sizes": (3, 10, 30), "vectors_per_size": 2}, 6),
    ]
    for scenario, params, matrices in runs:
        solved.clear()
        built.clear()
        run_experiment(ExperimentSpec(scenario, seed=0, output_dir=tmp_path / scenario, parameters=params))
        assert len(built) == matrices
        assert len(solved) == (0 if scenario == "sparse_suite" else matrices)


# Runs sparse_suite on systems of n >= 151, where the last bits of sparse_pd's
# eigvalsh depend on the OpenBLAS thread count, and prints records.csv.
_BLAS_THREADS_RUN = """
import sys, tempfile
from pathlib import Path
from crossolve import ExperimentSpec, run_experiment
with tempfile.TemporaryDirectory() as out:
    spec = ExperimentSpec("sparse_suite", seed=0, output_dir=out, parameters={"systems": 4, "n_range": [151, 200]})
    run_experiment(spec)
    sys.stdout.write((Path(out) / "records.csv").read_text())
"""


def test_records_do_not_depend_on_blas_threads():
    path = os.pathsep.join(filter(None, [str(Path(crossolve.experiments.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    written = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        proc = subprocess.run([sys.executable, "-c", _BLAS_THREADS_RUN], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        written.append(proc.stdout)
    assert written[0].count("\n") == 5
    assert written[0] == written[1]


# Maps four tasks over two worker processes inside a pinned run and prints
# how many threads each worker's process holds when its task runs.
_WORKER_THREADS_RUN = """
import functools, os
from crossolve.experiments import _map_tasks
from crossolve.spectral import _one_blas_thread

def threads(_):
    return len(os.listdir("/proc/self/task"))

with _one_blas_thread():
    print(*_map_tasks([functools.partial(threads, i) for i in range(4)], 2))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_pool_workers_of_a_pinned_run_start_no_blas_thread():
    # Without any *_THREADS variable OpenBLAS sizes its pool to the host; a
    # worker forked from a pinned run inherits one thread, and setting it to
    # one again would start the pool anew.
    path = os.pathsep.join(filter(None, [str(Path(crossolve.experiments.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    env = {key: value for key, value in os.environ.items() if not key.endswith("_THREADS")}
    env["PYTHONPATH"] = path
    proc = subprocess.run([sys.executable, "-c", _WORKER_THREADS_RUN], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1"] * 4


# Imports crossolve, runs the demo transient and prints whether scipy.linalg
# was imported, whether scipy's LAPACK extension was loaded by importing
# crossolve.spectral, how many OpenBLAS runtimes the run would pin, and
# whether the import pulled in yaml, which only the command line needs.
_IMPORT_FOOTPRINT_RUN = """
import sys
from pathlib import Path
import crossolve
loaded_at_import = Path(crossolve.spectral._LAPACK.__file__).name.startswith("_flapack.")
yaml_at_import = "yaml" in sys.modules
from crossolve import DEFAULT_TRANSIENT_A, DEFAULT_TRANSIENT_B, build_feedback, simulate
from crossolve.spectral import _openblas_runtimes
assert simulate(build_feedback(DEFAULT_TRANSIENT_A), DEFAULT_TRANSIENT_B).converged
print("scipy.linalg" in sys.modules, loaded_at_import, len(_openblas_runtimes()), yaml_at_import)
import scipy.linalg
print(scipy.linalg.lapack.dgetrs is crossolve.spectral._dgetrs)
"""

# The count of OpenBLAS runtimes in a process that imported scipy.linalg first.
_SCIPY_LINALG_RUNTIMES = """
import scipy.linalg
from crossolve.spectral import _openblas_runtimes
print(len(_openblas_runtimes()))
"""


def test_import_loads_lapack_without_scipy_linalg():
    path = os.pathsep.join(filter(None, [str(Path(crossolve.experiments.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    printed = []
    for script in (_IMPORT_FOOTPRINT_RUN, _SCIPY_LINALG_RUNTIMES):
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        printed.append(proc.stdout.split())
    (imported, loaded_at_import, runtimes, yaml_at_import, same_routine), (expected_runtimes,) = printed
    assert imported == "False"
    assert loaded_at_import == "True"
    assert runtimes == expected_runtimes
    assert yaml_at_import == "False"
    assert same_routine == "True"


def test_package_reexports_each_module_surface_once():
    # the package star-imports each module, and a star import silently
    # shadows a name that two modules export
    modules = [
        importlib.import_module(f"crossolve.{info.name}")
        for info in pkgutil.iter_modules(crossolve.__path__)
        if info.name != "cli"
    ]
    names = [name for module in modules for name in module.__all__]
    assert len(names) == len(set(names))
    assert sorted(crossolve.__all__) == sorted(["__version__", *names])
    assert all(getattr(crossolve, name) is getattr(module, name) for module in modules for name in module.__all__)


# The benchmark's setup probe, then what the process has loaded of crossolve,
# hashlib (only experiments uses it, for its digests) and yaml (only reading a
# config file needs it).
_SETUP_PROBE_RUN = """
from crossolve import DEFAULT_TRANSIENT_A, DEFAULT_TRANSIENT_B, build_feedback, simulate
assert simulate(build_feedback(DEFAULT_TRANSIENT_A), DEFAULT_TRANSIENT_B).converged
"""
_LOADED = """
import sys
print(*sorted(name for name in sys.modules if name.partition(".")[0] in ("crossolve", "hashlib", "yaml")))
"""


def test_package_loads_only_the_modules_a_process_uses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    quick_start = re.search(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S).group(1)
    path = os.pathsep.join(filter(None, [str(Path(crossolve.experiments.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    for script in (_SETUP_PROBE_RUN, quick_start):
        proc = subprocess.run([sys.executable, "-c", script + _LOADED], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1].split() == ["crossolve", "crossolve.dynamics", "crossolve.errors", "crossolve.spectral"]

    namespace = {}
    exec("from crossolve import *", namespace)
    modules = [importlib.import_module(f"crossolve.{info.name}") for info in pkgutil.iter_modules(crossolve.__path__)]
    assert all(namespace[name] is getattr(module, name) for module in modules if module.__name__ != "crossolve.cli" for name in module.__all__)
    assert set(crossolve.__all__) <= set(dir(crossolve))
    with pytest.raises(AttributeError, match="module 'crossolve' has no attribute 'no_such_name'"):
        crossolve.no_such_name


def test_package_keeps_no_surface_only_tests_read():
    # the continuous trajectory is a test oracle (tests/trajectory_oracle.py),
    # every scenario draws from the measured levels and programs at g_max / max(a),
    # and records read three spectral numbers and CG's iteration count
    assert not hasattr(crossolve, "analytic_trajectory") and not hasattr(crossolve, "measured_level_set")
    # lambda_sweep's draw and the CG baseline keep no setting the package never varies
    assert list(inspect.signature(crossolve.random_discrete_pd).parameters) == ["seed"]
    assert list(inspect.signature(crossolve.conjugate_gradient).parameters) == ["a", "b", "tol"]
    for function, removed in ((crossolve.program, "g0"), (crossolve.stability_report, "oa")):
        assert removed not in inspect.signature(function).parameters
    assert [f.name for f in dataclasses.fields(crossolve.CgResult)] == ["x", "iterations", "converged"]
    assert [f.name for f in dataclasses.fields(crossolve.StabilityReport)] == ["lambda_min", "lambda_m_min", "u_min"]


# Imports scipy.linalg after crossolve and reads its LAPACK extension as an
# attribute, as scipy.linalg.lapack's own users may.
_SCIPY_LINALG_AFTER_CROSSOLVE = """
import crossolve
import scipy.linalg
print(scipy.linalg._flapack.dgetrs is crossolve.spectral._dgetrs)
"""


def test_scipy_linalg_imported_after_crossolve_has_its_extension():
    path = os.pathsep.join(filter(None, [str(Path(crossolve.experiments.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", _SCIPY_LINALG_AFTER_CROSSOLVE], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True"]


def test_blas_threads_pinned_for_the_run_and_restored(tmp_path, monkeypatch):
    runtimes = crossolve.spectral._openblas_runtimes()
    if not runtimes:
        pytest.skip("no OpenBLAS runtime found in this process")
    before = [get_threads() for _, get_threads in runtimes]
    during = []

    def scenario(spec, params):
        during.extend(get_threads() for _, get_threads in runtimes)
        raise GenerationError("stop inside the run")

    monkeypatch.setitem(crossolve.experiments.SCENARIOS, "transient", scenario)
    with pytest.raises(GenerationError):
        run_experiment(ExperimentSpec("transient", seed=0, output_dir=tmp_path))
    assert during == [1] * len(runtimes)
    assert [get_threads() for _, get_threads in runtimes] == before
