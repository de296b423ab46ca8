"""Conjugate-gradient baseline tests."""

import numpy as np
import pytest

from crossolve import DomainError, baselines, conjugate_gradient, direct_solve, sparse_pd


class TestConjugateGradient:
    def test_identity_takes_one_iteration(self):
        b = np.array([1.0, -2.0, 0.5])
        res = conjugate_gradient(np.eye(3), b)
        assert res.converged
        assert res.iterations == 1
        assert np.allclose(res.x, b)

    def test_two_distinct_eigenvalues_take_two_iterations(self):
        a = np.diag([1.0, 4.0, 4.0, 1.0])
        b = np.array([1.0, 1.0, -1.0, 2.0])
        res = conjugate_gradient(a, b, tol=1e-10)
        assert res.converged
        assert res.iterations <= 2

    def test_zero_rhs_converges_immediately(self):
        res = conjugate_gradient(np.eye(3), np.zeros(3))
        assert res.converged
        assert res.iterations == 0

    def test_matches_direct_solve(self):
        a = sparse_pd(40, s=6, lambda_target=0.5, seed=7)
        b = np.linspace(-1, 1, 40)
        res = conjugate_gradient(a, b, tol=1e-12)
        assert res.converged
        assert np.allclose(res.x, direct_solve(a, b), rtol=1e-6, atol=1e-9)

    def test_iteration_count_bounded_by_dimension(self):
        # exact-arithmetic CG finishes in n steps; allow a little float slack
        a = sparse_pd(30, s=5, lambda_target=1.0, seed=2)
        b = np.ones(30)
        res = conjugate_gradient(a, b, tol=1e-9)
        assert res.converged
        assert res.iterations <= 35

    def test_asymmetric_rejected(self):
        with pytest.raises(DomainError):
            conjugate_gradient(np.array([[1.0, 0.5], [0.2, 1.0]]), np.ones(2))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_rejected(self, bad):
        # an infinite pair equals its transpose, but CG cannot solve it
        a = np.ones((3, 3)) + 2.0 * np.eye(3)
        a[0, 1] = a[1, 0] = bad
        with pytest.raises(DomainError, match="finite symmetric"):
            conjugate_gradient(a, np.ones(3))

    def test_one_ulp_asymmetry_rejected(self):
        a = np.array([[2.0, 0.5], [0.5, 1.0]])
        a[0, 1] = np.nextafter(0.5, 1.0)
        with pytest.raises(DomainError, match="symmetric"):
            conjugate_gradient(a, np.ones(2))

    def test_indefinite_rejected(self):
        a = np.array([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(DomainError):
            conjugate_gradient(a, np.array([0.0, 1.0]))

    def test_max_iters_timeout(self, monkeypatch):
        # At condition number 1e15 the run needs some 100 iterations, within
        # its cap of 10 n = 160; with the cap patched to n it times out there
        a = np.diag(np.logspace(0.0, 15.0, 16))
        assert conjugate_gradient(a, np.ones(16), tol=1e-10).converged
        monkeypatch.setattr(baselines, "_ITERS_PER_UNKNOWN", 1)
        res = conjugate_gradient(a, np.ones(16), tol=1e-10)
        assert not res.converged
        assert res.iterations == 16

    @pytest.mark.parametrize("tol", [0.0, 1e-17, 1e-12, 1e-8, 1e-3])
    def test_converged_means_the_true_residual_passed(self, tol):
        # The updated residual underflows to 0 at iteration 391 (tol = 0) and
        # drops below 1e-17 at iteration 54, while ||A x - b|| / ||b|| stays
        # near 1e-15: those two tolerances cannot be met and time out at 10 n.
        a = sparse_pd(50, s=8, lambda_target=0.01, seed=1)
        b = np.ones(50)
        res = conjugate_gradient(a, b, tol=tol)
        true = np.linalg.norm(a @ res.x - b) / np.linalg.norm(b)
        assert res.converged == (tol >= 1e-12)
        assert true <= tol if res.converged else res.iterations == 500

    def test_shape_checks(self):
        with pytest.raises(DomainError):
            conjugate_gradient(np.ones((2, 3)), np.ones(2))
        with pytest.raises(DomainError):
            conjugate_gradient(np.eye(2), np.ones(3))
