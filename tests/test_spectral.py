"""Spectral helper tests with independently derived oracle values."""

import ctypes
import importlib.machinery
import importlib.util
import math
import os
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import crossolve.spectral
from crossolve import (
    DomainError,
    NumericalError,
    UsageError,
    a_norm,
    attenuation,
    build_feedback,
    complexity_cg_estimate,
    complexity_quantum_estimate,
    covariance_matrix,
    direct_solve,
    fit_scaling,
    sparse_pd,
    stability_report,
    sym_part_lambda_min,
)
from crossolve.spectral import factorize

DEMO_A = np.array([[1.2, 0.15, 0.8], [0.5, 0.5, 0.6], [0.6, 0.1, 0.8]])
DEMO_B = np.array([-0.12, 0.36, 0.24])

# Cramer-rule solution of the demonstration system, computed by hand from
# det(A) = 0.101 and the three column substitutions.
DEMO_X = np.array([-0.6415841584158, 0.4990099009901, 0.7188118811881])


class TestAttenuation:
    def test_demo_rows(self):
        u = attenuation(DEMO_A)
        assert np.allclose(u, [1 / 3.15, 1 / 2.6, 1 / 2.5])

    def test_zero_matrix_gives_unit_attenuation(self):
        assert np.allclose(attenuation(np.zeros((3, 3))), 1.0)

    def test_identity(self):
        assert np.allclose(attenuation(np.eye(3)), 0.5)

    def test_negative_entries_rejected(self):
        with pytest.raises(DomainError):
            attenuation(np.array([[1.0, -0.1], [0.0, 1.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(DomainError):
            attenuation(np.ones((2, 3)))

    def test_symmetric_similarity_matches_m_spectrum(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            w = rng.uniform(0.2, 3.0, size=5)
            q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
            a = q @ np.diag(w) @ q.T
            a = np.abs(a + a.T) / 2  # nonnegative symmetric
            a += 5 * np.eye(5)  # keep it strongly PD after abs
            u = attenuation(a)
            m = u[:, None] * a
            direct = np.sort(np.linalg.eigvals(m).real)
            root_u = np.sqrt(u)
            similar = np.linalg.eigvalsh(root_u[:, None] * a * root_u[None, :])
            assert np.allclose(direct, similar, rtol=1e-10, atol=1e-12)


class TestSymPartLambdaMin:
    def test_swap_matrix(self):
        assert sym_part_lambda_min(np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(-1.0)

    def test_spd(self, spd_pair):
        a, _ = spd_pair
        assert sym_part_lambda_min(a) == pytest.approx(1.0)

    def test_asymmetric_uses_symmetric_part(self):
        a = np.array([[1.0, 2.0], [0.0, 1.0]])
        # sym part [[1, 1], [1, 1]] has eigenvalues 0 and 2
        assert sym_part_lambda_min(a) == pytest.approx(0.0, abs=1e-12)


class TestDirectSolve:
    def test_identity(self):
        b = np.array([1.5, -2.0, 0.25])
        assert np.allclose(direct_solve(np.eye(3), b), b)

    def test_demo_matches_cramer(self):
        assert np.allclose(direct_solve(DEMO_A, DEMO_B), DEMO_X, atol=1e-12)

    def test_singular_rejected(self):
        with pytest.raises(NumericalError):
            direct_solve(np.ones((2, 2)), np.array([1.0, 1.0]))

    def test_shape_mismatch(self):
        with pytest.raises(DomainError):
            direct_solve(np.eye(2), np.array([1.0, 2.0, 3.0]))
        with pytest.raises(DomainError):
            direct_solve(np.eye(2), np.ones((3, 2)))

    def test_block_matches_columns(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(0.0, 1.0, (6, 6)) + 3.0 * np.eye(6)
        block = rng.uniform(-1.0, 1.0, (6, 4))
        x = direct_solve(a, block)
        assert x.shape == (6, 4)
        for j in range(4):
            assert np.allclose(x[:, j], direct_solve(a, block[:, j]), rtol=1e-13, atol=0.0)

    def test_residual_guard_per_column(self):
        # Wilkinson's matrix is well conditioned, but partial pivoting grows
        # its LU factors by 2^(n-1), so most right-hand sides fail the
        # residual test; e_1 does not.
        n = 40
        w = np.eye(n) - np.tril(np.ones((n, n)), -1)
        w[:, -1] = 1.0
        assert np.linalg.cond(w) < 1e3
        good = np.eye(n)[:, 0]
        bad = np.random.default_rng(0).standard_normal(n)
        direct_solve(w, good)
        direct_solve(w, good[:, None])
        with pytest.raises(NumericalError):
            direct_solve(w, bad)
        with pytest.raises(NumericalError, match="column 1"):
            direct_solve(w, np.column_stack([good, bad]))

    def test_non_finite_rhs_rejected(self):
        # A NaN residual compares False against any limit; the guard must
        # still reject it rather than return an all-NaN solution.
        with pytest.raises(NumericalError):
            direct_solve(DEMO_A, np.array([0.1, np.nan, 0.2]))
        with pytest.raises(NumericalError, match="column 1"):
            direct_solve(DEMO_A, np.column_stack([DEMO_B, [0.1, np.inf, 0.2]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_rejected(self, bad):
        a = DEMO_A.copy()
        a[1, 2] = bad
        with pytest.raises(NumericalError):
            factorize(a)
        with pytest.raises(NumericalError):
            direct_solve(a, DEMO_B)

    @pytest.mark.parametrize("shape", [(3,), (3, 4)])
    def test_solution_is_c_contiguous(self, shape):
        b = np.random.default_rng(2).uniform(-1.0, 1.0, shape)
        x = direct_solve(DEMO_A, b)
        assert x.shape == shape
        assert x.flags["C_CONTIGUOUS"]

    def test_condition_guard_boundary(self):
        # For a diagonal matrix the 1-norm condition estimate is exact.
        b = np.array([1.0, 1.0])
        assert np.allclose(direct_solve(np.diag([1.0, 1e-11]), b), [1.0, 1e11])
        with pytest.raises(NumericalError, match="condition"):
            direct_solve(np.diag([1.0, 1e-13]), b)
        with pytest.raises(NumericalError, match="singular"):
            direct_solve(np.array([[1.0, 2.0], [2.0, 4.0]]), b)

    def test_given_factors_are_used(self):
        factors = factorize(DEMO_A)
        assert np.array_equal(direct_solve(DEMO_A, DEMO_B, factors), direct_solve(DEMO_A, DEMO_B))
        # factors of another matrix give a solution that fails the residual guard
        with pytest.raises(NumericalError):
            direct_solve(DEMO_A, DEMO_B, factorize(np.eye(3)))


def _oracle_systems():
    rng = np.random.default_rng(11)
    for a in (covariance_matrix(30, 1.0), sparse_pd(60, seed=3), DEMO_A):
        n = a.shape[0]
        yield a, rng.uniform(-1.0, 1.0, n)
        yield a, rng.uniform(-1.0, 1.0, (n, 4))


class TestLapackLoad:
    """The oracle calls scipy's LAPACK extension directly, with the bytes scipy.linalg gives."""

    @staticmethod
    def _matches_scipy_linalg(a, b):
        lu, piv, info = scipy.linalg.lapack.dgetrf(a)
        assert info == 0
        anorm = float(np.abs(a).sum(axis=0).max())
        rcond, _ = scipy.linalg.lapack.dgecon(lu, anorm, norm="1")
        got_lu, got_piv = factorize(a)
        assert np.array_equal(got_lu, lu) and np.array_equal(got_piv, piv)
        assert crossolve.spectral._dgecon(got_lu, anorm, norm="1")[0] == rcond
        x = direct_solve(a, b)
        assert np.array_equal(x, scipy.linalg.lu_solve((lu, piv), b, check_finite=False))
        assert np.array_equal(direct_solve(a, b, (got_lu, got_piv)), x)

    def test_routines_come_from_scipys_extension(self):
        assert crossolve.spectral._LAPACK.__file__ == scipy.linalg.lapack._flapack.__file__
        assert crossolve.spectral._dgetrf is scipy.linalg.lapack.dgetrf
        assert crossolve.spectral._dgecon is scipy.linalg.lapack.dgecon
        assert crossolve.spectral._dgetrs is scipy.linalg.lapack.dgetrs

    @pytest.mark.parametrize(("a", "b"), list(_oracle_systems()))
    def test_bit_identical_to_scipy_linalg(self, a, b):
        self._matches_scipy_linalg(a, b)

    def test_falls_back_to_scipy_linalg_lapack(self, tmp_path, monkeypatch):
        find_spec = importlib.util.find_spec
        package = tmp_path / "scipy"
        (package / "linalg").mkdir(parents=True)

        def no_extension(name, *args):
            if name == "scipy":
                return importlib.machinery.ModuleSpec("scipy", None, origin=str(package / "__init__.py"))
            return find_spec(name, *args)

        monkeypatch.setattr(importlib.util, "find_spec", no_extension)
        lapack = crossolve.spectral._load_lapack()
        assert lapack is scipy.linalg.lapack._flapack
        for name in ("dgetrf", "dgecon", "dgetrs"):
            monkeypatch.setattr(crossolve.spectral, f"_{name}", getattr(lapack, name))
        for a, b in _oracle_systems():
            self._matches_scipy_linalg(a, b)


def _address(function) -> int:
    return ctypes.cast(function, ctypes.c_void_p).value


class TestOpenBlasRuntimes:
    """The lookup returns the thread-count functions of the OpenBLAS numpy and the oracle call."""

    @pytest.mark.parametrize(("index", "package"), [(0, "numpy"), (1, "scipy")])
    def test_is_the_wheels_bundled_openblas(self, index, package):
        root = Path(importlib.util.find_spec(package).origin).parent
        bundled = sorted(root.with_name(f"{package}.libs").glob("*openblas*"))
        if not bundled or not hasattr(os, "RTLD_NOLOAD"):
            pytest.skip(f"no OpenBLAS bundled in {package}.libs")
        lib = ctypes.CDLL(str(bundled[0]), mode=os.RTLD_NOLOAD)
        runtimes = crossolve.spectral._openblas_runtimes()
        assert len(runtimes) == 2
        for function in runtimes[index]:
            assert _address(function) == _address(getattr(lib, function.__name__))

    def test_pins_a_count_only_where_it_differs(self, monkeypatch):
        # Setting a count starts a forked worker's OpenBLAS pool again, so a
        # runtime already at one thread is not pinned again; the run's end
        # sets every count back.
        counts, sets = [1, 4], []

        def runtime(i):
            def set_threads(count):
                sets.append((i, count))
                counts[i] = count

            return set_threads, lambda: counts[i]

        monkeypatch.setattr(crossolve.spectral, "_openblas_runtimes", lambda: (runtime(0), runtime(1)))
        with crossolve.spectral._one_blas_thread():
            assert counts == [1, 1] and sets == [(1, 1)]
        assert counts == [1, 4] and sets == [(1, 1), (0, 1), (1, 4)]
        sets.clear()
        crossolve.spectral._pin_blas_threads()
        assert counts == [1, 1] and sets == [(1, 1)]
        crossolve.spectral._pin_blas_threads()
        assert sets == [(1, 1)]

    def test_sets_and_reads_the_thread_count(self):
        runtimes = crossolve.spectral._openblas_runtimes()
        if not runtimes:
            pytest.skip("no OpenBLAS runtime found in this process")
        for set_threads, get_threads in runtimes:
            before = get_threads()
            try:
                set_threads(3)
                assert get_threads() == 3
            finally:
                set_threads(before)
            assert get_threads() == before


class TestANorm:
    def test_known_value(self, spd_pair):
        a, _ = spd_pair
        assert a_norm(a, np.array([1.0, 1.0])) == pytest.approx(math.sqrt(6.0))

    def test_zero_vector(self, spd_pair):
        a, _ = spd_pair
        assert a_norm(a, np.zeros(2)) == 0.0

    def test_indefinite_form_rejected(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(DomainError):
            a_norm(a, np.array([1.0, -1.0]))


class TestSpectralReport:
    """The per-system spectral numbers, as stability_report carries them."""

    def test_identity(self):
        rep = stability_report(build_feedback(np.eye(3)))
        assert rep.lambda_min == pytest.approx(1.0)
        assert rep.u_min == pytest.approx(0.5)
        # M = A/2 exactly, so the attenuation bound is tight here
        assert rep.lambda_m_min == pytest.approx(0.5)
        # cond_1(I) = 1, and the LAPACK estimate is exact for a diagonal matrix
        lu, _ = factorize(np.eye(3))
        rcond, _ = scipy.linalg.lapack.dgecon(lu, 1.0, norm="1")
        assert 1.0 / rcond == pytest.approx(1.0)

    def test_swap_matrix_unstable(self):
        rep = stability_report(build_feedback(np.array([[0.0, 1.0], [1.0, 0.0]])))
        assert rep.lambda_min == pytest.approx(-1.0)
        assert rep.lambda_m_min == pytest.approx(-0.5)


class TestComplexityEstimates:
    def test_cg_oracle_value(self):
        # 100 * 10 * sqrt(4) * ln(1000) = 2000 * 6.90776 = 13815.51
        got = complexity_cg_estimate(100, 10, 4.0, 1.0, 1e-3)
        assert got == pytest.approx(13815.51, rel=1e-6)

    def test_quantum_oracle_value(self):
        # 10^2 * 2^2 * 100 * ln(100) = 40000 * 4.60517 = 184206.8
        got = complexity_quantum_estimate(100, 10, 2.0, 1.0, 1e-2)
        assert got == pytest.approx(184206.8, rel=1e-6)

    def test_quantum_grows_slower_in_n(self):
        small = complexity_quantum_estimate(100, 10, 4.0, 1.0, 1e-3)
        big = complexity_quantum_estimate(10000, 10, 4.0, 1.0, 1e-3)
        assert big / small == pytest.approx(math.log(10000) / math.log(100), rel=1e-12)

    @pytest.mark.parametrize(
        "args",
        [
            (0, 1, 2.0, 1.0, 1e-3),
            (10, 0, 2.0, 1.0, 1e-3),
            (10, 11, 2.0, 1.0, 1e-3),
            (10, 2, 0.5, 1.0, 1e-3),
            (10, 2, 2.0, 0.0, 1e-3),
            (10, 2, 2.0, 1.0, 0.0),
            (10, 2, 2.0, 1.0, 1.0),
            (10, 2, math.inf, 1.0, 1e-3),
            (10, 2, math.inf, math.inf, 1e-3),
        ],
    )
    def test_invalid_arguments(self, args):
        with pytest.raises(DomainError):
            complexity_cg_estimate(*args)
        with pytest.raises(DomainError):
            complexity_quantum_estimate(*args)


class TestFitScaling:
    def test_exact_constant(self):
        pts = [(n, 5.0) for n in (3, 10, 30, 100, 300)]
        fit = fit_scaling(pts)
        assert fit.model_kind == "constant"
        assert fit.r_squared["constant"] == pytest.approx(1.0)
        assert fit.coefficients["constant"][0] == pytest.approx(5.0)

    def test_exact_logarithmic(self):
        pts = [(n, 1.0 + 2.0 * math.log(n)) for n in (3, 10, 30, 100, 300)]
        fit = fit_scaling(pts)
        assert fit.model_kind == "logarithmic"
        a, b = fit.coefficients["logarithmic"]
        assert a == pytest.approx(1.0, rel=1e-2)
        assert b == pytest.approx(2.0, rel=1e-2)
        assert fit.r_squared["logarithmic"] == pytest.approx(1.0)

    def test_exact_linear(self):
        pts = [(n, float(n)) for n in (3, 10, 30, 100, 300)]
        fit = fit_scaling(pts)
        assert fit.model_kind == "linear"
        assert fit.coefficients["linear"][1] == pytest.approx(1.0, rel=1e-6)

    def test_needs_four_distinct_sizes(self):
        with pytest.raises(UsageError):
            fit_scaling([(3, 1.0), (10, 1.0), (30, 1.0)])
        with pytest.raises(UsageError):
            fit_scaling([(3, 1.0), (3, 1.1), (10, 1.0), (30, 1.0)])

    def test_positive_sizes_required(self):
        with pytest.raises(DomainError):
            fit_scaling([(-1, 1.0), (2, 1.0), (3, 1.0), (4, 1.0)])

    def test_all_zero_data(self):
        fit = fit_scaling([(n, 0.0) for n in (1, 2, 3, 4)])
        assert fit.model_kind == "constant"
        assert fit.r_squared["constant"] == 1.0

    def test_simplicity_margin(self):
        # nearly constant data with a whisper of slope still reads constant
        pts = [(n, 5.0 + 1e-6 * n) for n in (3, 10, 30, 100)]
        assert fit_scaling(pts).model_kind == "constant"
