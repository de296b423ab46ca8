"""Feedback-loop dynamics tests: stability, transient, bound, inversion."""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossolve import (
    ConfigError,
    DevicePolicy,
    DomainError,
    FeedbackSystem,
    InversionError,
    NumericalError,
    OpAmpModel,
    SolveConfig,
    StabilityError,
    UsageError,
    build_feedback,
    child_seed,
    covariance_matrix,
    direct_solve,
    invert_matrix,
    program,
    random_discrete_pd,
    random_vector,
    resolve_step,
    simulate,
    slew_check,
    sparse_pd,
    stability_report,
    time_bound,
)
import crossolve.spectral
from crossolve import dynamics
from crossolve.devices import _MEASURED_LEVELS_S
from crossolve.dynamics import _square_limit
from crossolve.experiments import DEFAULT_TRANSIENT_A, DEFAULT_TRANSIENT_B, _sweep_matrix, _unit_vector, scenario_defaults
from modal_oracle import continuous_crossings, energy_crossing, l2_crossing
from reference_engine import reference_transient
from trajectory_oracle import analytic_trajectory

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])
A_NORM = SolveConfig(norm_kind="a_norm")


def _screened_draw(dim: int, seed: int) -> tuple[np.ndarray, float]:
    """A dim x dim draw from the measured levels (units of 100 uS) with a positive definite symmetric part.

    The draws are screened as random_discrete_pd screens its 3 x 3 ones,
    16 at a time with one stacked eigvalsh, but for up to 1024 draws, and
    the screen's lambda_min((A + A^T)/2) is returned with the draw.
    """
    values = _MEASURED_LEVELS_S / 100e-6
    rng = np.random.default_rng(seed)
    for _ in range(64):
        draws = values[rng.integers(0, values.size, size=(16, dim, dim))]
        lams = np.linalg.eigvalsh((draws + draws.transpose(0, 2, 1)) / 2.0)[:, 0]
        hits = np.flatnonzero(lams > 0)
        if hits.size:
            return draws[hits[0]], float(lams[hits[0]])
    raise AssertionError(f"no positive-definite {dim} x {dim} draw for seed {seed}")


class TestOpAmpModel:
    def test_default_gbw(self, oa):
        assert oa.gbw == pytest.approx(1e8)

    @pytest.mark.parametrize("kwargs", [{"l0": 1.0}, {"gbw": 0.0}, {"slew_rate": 0.0}, {"gbw": math.inf}])
    def test_invalid(self, kwargs):
        # an infinite gbw would make dt = alpha / gbw zero
        with pytest.raises(ConfigError):
            OpAmpModel(**kwargs)

    @pytest.mark.parametrize("name", ["l0", "slew_rate"])
    def test_infinite_gain_or_slew_rate_is_an_ideal_amplifier(self, name):
        assert getattr(OpAmpModel(**{name: math.inf}), name) == math.inf


class TestBuildFeedback:
    def test_demo_attenuations(self, demo_system):
        system, _ = demo_system
        assert np.allclose(system.u, [1 / 3.15, 1 / 2.6, 1 / 2.5])
        assert np.allclose(system.m, system.u[:, None] * system.a)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            build_feedback(np.array([[1.0, -0.2], [0.0, 1.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(DomainError):
            build_feedback(np.ones((2, 3)))


class TestStabilityReport:
    def test_identity_poles(self):
        # M = I/2, so every pole -gbw eig(M) sits at -gbw/2
        system = build_feedback(np.eye(3))
        rep = stability_report(system)
        assert rep.lambda_m_min == pytest.approx(0.5)
        assert rep.u_min == pytest.approx(0.5)
        assert np.allclose(system.m_eigenvalues, 0.5)

    def test_swap_matrix_unstable(self, oa):
        system = build_feedback(SWAP)
        assert stability_report(system).lambda_m_min == pytest.approx(-0.5)
        assert system.rho == pytest.approx(0.5)
        with pytest.raises(StabilityError):
            resolve_step(system, oa, SolveConfig())

    def test_attenuation_inequality_on_spd(self, spd_pair, oa):
        a, _ = spd_pair
        rep = stability_report(build_feedback(a))
        assert rep.lambda_m_min >= rep.u_min * rep.lambda_min - 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        s=st.integers(1, 10),
        lam=st.floats(0.05, 1.5),
    )
    def test_lambda_min_of_sparse_pd_is_eigvalsh(self, seed, n, s, lam):
        # sparse_pd output is exactly symmetric, so (A + A^T)/2 == A bit for bit
        a = sparse_pd(n, s=min(s, n), lambda_target=lam, seed=seed)
        assert stability_report(build_feedback(a)).lambda_min == np.linalg.eigvalsh(a)[0]

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 200),
        s=st.integers(1, 10),
        lam=st.floats(1e-3, 10.0),
    )
    def test_placed_lambda_min_is_within_rounding_of_eigvalsh(self, seed, n, s, lam):
        # build_feedback's docstring bounds the gap between the lambda_min
        # sparse_pd places and a recomputed one by (max(1, s/2) + 1)(n + 1) u ||a||_2.
        s = min(s, n)
        a = sparse_pd(n, s=s, lambda_target=lam, seed=seed)
        system = build_feedback(a, lambda_min=lam)
        assert stability_report(system).lambda_min == lam
        gap = abs(lam - crossolve.spectral.sym_part_lambda_min(a))
        assert gap <= (max(1.0, s / 2) + 1.0) * (n + 1) * (np.finfo(float).eps / 2) * np.linalg.norm(a, 2)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 3))
    def test_lambda_min_of_discrete_pd_is_screen_value(self, seed, dim):
        a, lam = _screened_draw(dim, seed)
        assert stability_report(build_feedback(a)).lambda_min == lam

    def test_demo_stable(self, demo_system, oa):
        system, _ = demo_system
        assert stability_report(system).lambda_m_min > 0
        assert resolve_step(system, oa, SolveConfig())[0] > 0

    def test_spectral_numbers_computed_once(self, spd_pair, oa, monkeypatch):
        computed = []
        eigenvalues, lambda_min = FeedbackSystem.m_eigenvalues.func, dynamics.sym_part_lambda_min

        def counted(system):
            computed.append("m_eigenvalues")
            return eigenvalues(system)

        prop = functools.cached_property(counted)
        prop.__set_name__(FeedbackSystem, "m_eigenvalues")
        monkeypatch.setattr(FeedbackSystem, "m_eigenvalues", prop)
        monkeypatch.setattr(dynamics, "sym_part_lambda_min", lambda a: computed.append("lambda_min") or lambda_min(a))
        a, b = spd_pair
        system = build_feedback(a)
        first, second = stability_report(system), stability_report(system)
        simulate(system, b, oa, SolveConfig())
        time_bound(system, b, oa)
        assert computed == ["m_eigenvalues", "lambda_min"]
        ev = system.m_eigenvalues
        assert system.lambda_m_min == first.lambda_m_min == second.lambda_m_min == float(ev.real.min())
        assert system.rho == float(np.abs(ev).max())
        assert system.lambda_min == first.lambda_min == second.lambda_min == lambda_min(a)

    def test_infinite_entries_rejected(self, oa):
        # an infinite symmetric pair passes the exact symmetry test, and the
        # symmetric eigensolver once gave an all-NaN report for it
        with np.errstate(invalid="ignore"):
            system = build_feedback(np.array([[1.0, np.inf], [np.inf, 1.0]]))
            with pytest.raises(NumericalError):
                stability_report(system)


class TestMEigenvalues:
    @pytest.mark.parametrize(
        "a",
        [
            sparse_pd(200, s=10, lambda_target=0.05, seed=3),
            sparse_pd(37, s=10, lambda_target=1.0, seed=8),
            sparse_pd(5, s=1, lambda_target=2.0, seed=0),
            covariance_matrix(30, 1.0),
            covariance_matrix(300, 2.0),
        ],
        ids=["sparse_pd_n200", "sparse_pd_n37", "sparse_pd_diagonal", "covariance_n30", "covariance_n300"],
    )
    def test_symmetric_matches_eigvals(self, a):
        system = build_feedback(a)
        assert system.symmetric
        ev = system.m_eigenvalues
        assert ev.dtype == np.float64
        np.testing.assert_allclose(ev, np.sort(np.linalg.eigvals(system.m).real), rtol=1e-10, atol=0)

    def test_transient_demo_keeps_eigvals(self, demo_system):
        system, _ = demo_system
        assert not system.symmetric
        assert np.array_equal(system.m_eigenvalues, np.linalg.eigvals(system.m))

    def test_discrete_draw_keeps_complex_pair(self):
        a, _ = random_discrete_pd(seed=0)
        system = build_feedback(a)
        assert not system.symmetric
        ev = system.m_eigenvalues
        assert np.array_equal(ev, np.linalg.eigvals(system.m))
        assert np.count_nonzero(ev.imag) == 2 and np.iscomplexobj(ev)


class TestResolveStep:
    def test_identity_defaults(self, oa):
        alpha, dt = resolve_step(build_feedback(np.eye(2)), oa, SolveConfig())
        assert alpha == pytest.approx(0.2)  # 0.1 / rho, rho = 0.5
        assert dt == pytest.approx(2e-9)

    def test_explicit_alpha(self, oa):
        system = build_feedback(np.eye(2))
        alpha, dt = resolve_step(system, oa, SolveConfig(alpha_fraction=0.25))
        assert alpha == 0.25 / system.rho == pytest.approx(0.5)
        assert dt == pytest.approx(5e-9)

    def test_unstable_needs_opt_in(self, oa):
        with pytest.raises(StabilityError):
            resolve_step(build_feedback(SWAP), oa, SolveConfig())
        alpha, _ = resolve_step(build_feedback(SWAP), oa, SolveConfig(allow_unstable=True))
        assert alpha == pytest.approx(0.2)

    def test_overlarge_alpha_rejected(self, oa):
        with pytest.raises(ConfigError):
            resolve_step(build_feedback(np.eye(2)), oa, SolveConfig(alpha_fraction=1.25))

    def test_zero_matrix_falls_back_to_fraction(self, oa):
        cfg = SolveConfig(allow_unstable=True, alpha_fraction=0.07)
        alpha, _ = resolve_step(build_feedback(np.zeros((2, 2))), oa, cfg)
        assert alpha == pytest.approx(0.07)


class TestSolveConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epsilon": 0.0},
            {"norm_kind": "energy"},
            {"alpha_fraction": -0.1},
            {"alpha_fraction": 0.0},
            {"max_steps": 0},
            {"max_steps": 2.5},
            {"max_steps": float("nan")},
            {"epsilon": -1e-3},
            {"epsilon": float("nan")},
            {"epsilon": math.inf},
            {"alpha_fraction": float("nan")},
            {"max_steps": True},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            SolveConfig(**kwargs)


class TestSimulate:
    def test_demo_converges_below_microsecond(self, demo_system, oa):
        system, b = demo_system
        res = simulate(system, b, oa, SolveConfig())
        assert res.converged and not res.diverged
        assert res.tau == pytest.approx(res.steps * 0.1 / system.rho / 1e8)
        assert res.tau < 1e-6
        x_star = direct_solve(system.a, b)
        assert np.linalg.norm(res.x_final - x_star) <= 1e-3

    def test_zero_rhs_converges_immediately(self, oa):
        res = simulate(build_feedback(np.eye(2)), np.zeros(2), oa, SolveConfig())
        assert res.converged
        assert res.steps == 0
        assert res.tau == 0.0

    def test_fixed_point_is_exact(self, demo_system, oa):
        # alpha U b + (I - alpha M) x* returns x* up to rounding
        system, b = demo_system
        x_star = direct_solve(system.a, b)
        alpha, _ = resolve_step(system, oa, SolveConfig())
        mapped = alpha * (system.u * b) + (np.eye(3) - alpha * system.m) @ x_star
        assert np.linalg.norm(mapped - x_star) <= 1e-12 * np.linalg.norm(x_star)

    def test_unstable_system_diverges(self, oa):
        cfg = SolveConfig(allow_unstable=True, max_steps=100_000)
        res = simulate(build_feedback(SWAP), np.array([1.0, 2.0]), oa, cfg)
        assert res.diverged and not res.converged

    def test_non_finite_rhs_rejected(self, demo_system, oa):
        # Without the guard, the NaN error never meets epsilon and the run
        # would step to max_steps and report a timeout.
        system, _ = demo_system
        with pytest.raises(NumericalError):
            simulate(system, np.array([0.1, np.nan, 0.2]), oa, SolveConfig())

    def test_timeout_reports_neither(self, demo_system, oa):
        system, b = demo_system
        res = simulate(system, b, oa, SolveConfig(max_steps=3))
        assert not res.converged and not res.diverged
        assert res.steps == 3

    def test_a_norm_stopping(self, spd_pair, oa):
        a, b = spd_pair
        system = build_feedback(a)
        res = simulate(system, b, oa, SolveConfig(norm_kind="a_norm"))
        delta = res.x_final - direct_solve(a, b)
        assert math.sqrt(delta @ (a @ delta)) <= 1e-3

    def test_monotone_contraction_in_a_norm(self, spd_pair, oa, monkeypatch):
        a, b = spd_pair
        system = build_feedback(a)
        cfg = SolveConfig(norm_kind="a_norm")
        monkeypatch.setattr(dynamics, "_TRACE_LIMIT", 100_000)  # every step
        res = simulate(system, b, oa, cfg)
        rep = stability_report(system)
        alpha, _ = resolve_step(system, oa, cfg)
        factor = 1.0 - alpha * rep.lambda_m_min
        errs = res.trace.errors
        assert (errs[1:] <= factor * errs[:-1] * (1 + 1e-10)).all()

    def test_step_deviation_is_first_order(self, oa, monkeypatch):
        # forward-difference vs matrix-exponential deviation halves with alpha
        a = covariance_matrix(4, 1.0)
        system = build_feedback(a)
        b = a @ np.array([0.6, -0.4, 0.3, 0.5])
        devs = []
        monkeypatch.setattr(dynamics, "_TRACE_LIMIT", 512)
        for fraction in (0.01, 0.005):
            cfg = SolveConfig(alpha_fraction=fraction)
            res = simulate(system, b, oa, cfg)
            dev = 0.0
            for t, state in zip(res.trace.times, res.trace.states):
                dev = max(dev, float(np.linalg.norm(state - analytic_trajectory(system, b, np.zeros(4), oa, t))))
            devs.append(dev)
        ratio = devs[0] / devs[1]
        assert 1.8 <= ratio <= 2.4

    def test_divergence_guard_scales_with_solution(self, oa, monkeypatch):
        monkeypatch.setattr(dynamics, "_DIVERGENCE_FACTOR", 10.0)
        cfg = SolveConfig(allow_unstable=True, max_steps=2000)
        res = simulate(build_feedback(SWAP), np.array([1.0, 2.0]), oa, cfg)
        assert res.diverged
        assert np.linalg.norm(res.x_final) > 10.0

    def test_trace_decimation_and_final_sample(self, demo_system, oa, monkeypatch):
        system, b = demo_system
        monkeypatch.setattr(dynamics, "_TRACE_LIMIT", 16)
        res = simulate(system, b, oa, SolveConfig())
        tr = res.trace
        assert len(tr.times) <= 17
        assert (np.diff(tr.times) > 0).all()
        assert tr.times[0] == 0.0
        assert tr.times[-1] == pytest.approx(res.tau)
        assert np.array_equal(tr.states[-1], res.x_final)

    def test_trace_keeps_at_most_ten_thousand_samples(self, demo_system, oa):
        # At alpha_fraction 1e-3 the demo takes 44 494 steps, so the stride
        # doubles to 8 and the trace keeps the 5562 multiples of 8, then the stop.
        system, b = demo_system
        cfg = SolveConfig(alpha_fraction=1e-3)
        res = simulate(system, b, oa, cfg)
        _, dt = resolve_step(system, oa, cfg)
        steps = np.rint(res.trace.times / dt).astype(int)
        assert res.converged and res.steps == 44_494 and len(steps) == 5563 <= 10_001
        assert np.array_equal(steps[:-1], 8 * np.arange(5562))  # the stride is 2^3
        assert steps[-1] == res.steps and res.trace.times[-1] == pytest.approx(res.tau, rel=1e-15)
        assert np.array_equal(res.trace.states[-1], res.x_final)

    def test_rhs_shape_checked(self, demo_system, oa):
        system, _ = demo_system
        with pytest.raises(DomainError):
            simulate(system, np.ones(4), oa, SolveConfig())

    @pytest.mark.parametrize("norm_kind", ["l2", "a_norm"])
    def test_gain_correction_floor_at_epsilon_rejected(self, oa, norm_kind):
        # The corrected loop settles 2.16e-5 (l2) from x* here, so at epsilon
        # 1e-5 the run once stepped to max_steps and reported a timeout. One
        # column of a block at or above its floor is enough.
        system = build_feedback(np.array([[2.0, 0.5], [0.5, 1.0]]))
        b = np.ones(2)
        cfg = SolveConfig(epsilon=1e-5, norm_kind=norm_kind, include_gain_correction=True, max_steps=200_000)
        for rhs in (b, np.column_stack([b / 1000, b])):
            with pytest.raises(DomainError, match="finite-gain error floor"):
                simulate(system, rhs, oa, cfg)
        assert simulate(system, b / 1000, oa, cfg).converged
        assert simulate(system, b, oa, dataclasses.replace(cfg, epsilon=1e-3)).converged

    def test_gain_correction_shifts_fixed_point(self, spd_pair, oa):
        a, b = spd_pair
        system = build_feedback(a)
        cfg = SolveConfig(include_gain_correction=True, epsilon=1e-3)
        res = simulate(system, b, oa, cfg)
        assert res.converged
        # the corrected loop settles on (M + I/l0)^-1 U b, a small shift
        m_eff = system.m + np.eye(2) / oa.l0
        shifted = np.linalg.solve(m_eff, system.u * b)
        plain = simulate(system, b, oa, SolveConfig(epsilon=1e-6)).x_final
        exact = direct_solve(a, b)
        assert np.linalg.norm(shifted - exact) < 1e-3
        assert np.linalg.norm(plain - exact) < np.linalg.norm(shifted - exact)


class TestAnalyticTrajectory:
    def test_identity_closed_form(self, oa):
        # A = I gives M = I/2 and x(t) = (1 - exp(-gbw t / 2)) b
        system = build_feedback(np.eye(2))
        b = np.array([1.0, 0.0])
        for t in (0.0, 1e-8, 5e-8, 2e-7):
            got = analytic_trajectory(system, b, np.zeros(2), oa, t)
            want = (1.0 - math.exp(-1e8 * t / 2.0)) * b
            assert np.allclose(got, want, atol=1e-12)

    def test_starts_at_x0(self, demo_system, oa):
        system, b = demo_system
        x0 = np.array([0.3, -0.2, 0.1])
        assert np.allclose(analytic_trajectory(system, b, x0, oa, 0.0), x0)

    def test_singular_system_rejected(self, oa):
        system = build_feedback(np.ones((2, 2)))
        with pytest.raises(DomainError):
            analytic_trajectory(system, np.array([1.0, 0.0]), np.zeros(2), oa, 1e-8)

    def test_shape_mismatch(self, demo_system, oa):
        system, b = demo_system
        with pytest.raises(DomainError):
            analytic_trajectory(system, b, np.zeros(4), oa, 1e-8)


class TestTimeBound:
    def test_identity_oracle_value(self, oa):
        # ln(sqrt(1)/1e-3) / (0.5 * 1e8) = 2e-8 ln(1000) = 1.381551e-7
        system = build_feedback(np.eye(3))
        b = np.array([1.0, 0.0, 0.0])
        assert time_bound(system, b, oa, A_NORM) == pytest.approx(1.3815511e-7, rel=1e-6)

    def test_covers_measured_tau_on_spd(self, spd_pair, oa):
        a, b = spd_pair
        system = build_feedback(a)
        res = simulate(system, b, oa, A_NORM)
        assert res.tau <= time_bound(system, b, oa, A_NORM)

    @pytest.mark.parametrize("norm_kind", ["l2", "a_norm"])
    @pytest.mark.parametrize(("c", "steps"), [(1e-5, 0), (1.197e-3, 3), (3.781e-3, 20)])
    def test_covers_the_discrete_stop_at_small_log_ratio(self, oa, norm_kind, c, steps):
        # A = diag(1, 3) gives x = alpha * lambda_m_min = 1/15 and lambda_min(A) = 1,
        # so both norms have L = ln(c / epsilon) for b = (c, 0) on the slowest
        # mode: -4.6, 0.18 and 1.33. L/x is -69, 2.70 and 19.95 steps, and the
        # run takes 0, 3 and 20; the quotient alone fell short of all three.
        system = build_feedback(np.diag([1.0, 3.0]))
        b = np.array([c, 0.0])
        cfg = SolveConfig(norm_kind=norm_kind)
        res = simulate(system, b, oa, cfg)
        assert res.converged and res.steps == steps
        assert res.tau <= time_bound(system, b, oa, cfg)

    def test_zero_energy_rejected(self, oa):
        system = build_feedback(np.eye(2))
        with pytest.raises(DomainError):
            time_bound(system, np.zeros(2), oa)

    def test_unstable_rejected(self, oa):
        with pytest.raises(StabilityError):
            time_bound(build_feedback(SWAP), np.array([1.0, 2.0]), oa)

    def test_nonsymmetric_rejected_before_solving(self, oa, monkeypatch):
        # the bound is proven only for symmetric A; the transient demo's A is not
        monkeypatch.setattr(dynamics, "direct_solve", lambda *args: pytest.fail("solved a nonsymmetric system"))
        system = build_feedback(DEFAULT_TRANSIENT_A)
        with pytest.raises(DomainError, match="symmetric"):
            time_bound(system, DEFAULT_TRANSIENT_B, oa)

    def test_asymmetric_by_one_part_in_a_trillion_rejected(self, oa):
        # A symmetry test with a 1e-12 tolerance once passed this A: the bound
        # then came from a proof that needs a symmetric A, and lambda_m_min
        # from one triangle only (0.19055970445742, against 0.19055970445735).
        a = covariance_matrix(5, 1.0)
        a[0, 1] += 1e-12
        system = build_feedback(a)
        assert not system.symmetric
        assert system.lambda_m_min == float(np.linalg.eigvals(system.m).real.min())
        assert system.lambda_m_min == pytest.approx(0.19055970445735, abs=1e-14)
        with pytest.raises(DomainError, match="symmetric"):
            time_bound(system, np.ones(5), oa)

    def test_gain_correction_rejected_before_solving(self, oa, monkeypatch):
        # The corrected loop settles at (M + I/l0)^-1 U b, not at x*: on this
        # system its error floor is 2.16e-5, so at epsilon 1e-5 the run cannot
        # converge, while the uncorrected proof gives a bound of 3.95e-7 s.
        a, b = np.array([[2.0, 0.5], [0.5, 1.0]]), np.ones(2)
        cfg = SolveConfig(epsilon=1e-5, include_gain_correction=True, max_steps=200_000)
        with pytest.raises(DomainError, match="floor 2.164e-05"):
            simulate(build_feedback(a), b, oa, cfg)
        plain = SolveConfig(epsilon=1e-5)
        assert time_bound(build_feedback(a), b, oa, plain) == pytest.approx(3.95e-7, rel=1e-3)
        monkeypatch.setattr(dynamics, "direct_solve", lambda *args: pytest.fail("solved for a bound it cannot give"))
        with pytest.raises(DomainError, match="include_gain_correction"):
            time_bound(build_feedback(a), b, oa, cfg)

    def test_reuses_the_transients_solve(self, spd_pair, oa, monkeypatch):
        a, b = spd_pair
        system = build_feedback(a)
        block = np.column_stack([b, 2.0 * b])
        res = simulate(system, block, oa, SolveConfig())
        expected = time_bound(build_feedback(a), block, oa)
        res.x_star[:] = 0.0  # the system keeps its own copy of the solution
        solves = []
        monkeypatch.setattr(dynamics, "direct_solve", lambda *args: solves.append(args[1].shape) or direct_solve(*args))
        assert list(time_bound(system, block, oa)) == list(expected)
        assert solves == []
        time_bound(system, b, oa)  # another right-hand side is solved
        assert solves == [b.shape]

    def test_vector_and_its_column_share_one_solve(self, oa, monkeypatch):
        # simulate keeps a 1-D b as its (n, 1) column; time_bound and
        # analytic_trajectory on the same b once missed that and solved again
        system = build_feedback(covariance_matrix(12, 1.0))
        b = np.linspace(-1.0, 1.0, 12)
        expected = direct_solve(system.a, b)
        calls = []
        dgetrs = crossolve.spectral._dgetrs
        monkeypatch.setattr(crossolve.spectral, "_dgetrs", lambda lu, piv, rhs: calls.append(rhs.shape) or dgetrs(lu, piv, rhs))
        res = simulate(system, b, oa, SolveConfig())
        assert time_bound(system, b, oa) > 0
        x = analytic_trajectory(system, b, expected, oa, t=1e-6)  # starts at x*, so stays there
        assert calls == [(12, 1)]
        assert res.x_star.shape == x.shape == (12,)
        assert np.array_equal(res.x_star, expected) and np.array_equal(x, expected)

    def test_reads_epsilon_and_norm_from_cfg(self, oa):
        # the bound of a run is the one its own SolveConfig asks for: l2 by
        # default, as for simulate, and at the config's epsilon
        system = build_feedback(np.diag([0.25, 1.0]))
        b = np.array([1.0, 0.0])  # x* = (4, 0), x*^T b = 4, lambda_m_min = 0.2
        rate = system.lambda_m_min * oa.gbw
        assert time_bound(system, b, oa) == pytest.approx((math.log(2.0 / 1e-3) + math.log(2.0)) / rate, rel=1e-12)
        cfg = SolveConfig(epsilon=1e-6, norm_kind="a_norm")
        assert time_bound(system, b, oa, cfg) == pytest.approx(math.log(2.0 / 1e-6) / rate, rel=1e-12)

    def test_l2_bound_adds_the_norm_equivalence_below_unit_lambda_min(self, oa):
        # ||e||_2 <= ||e||_A / sqrt(lambda_min(A)): at lambda_min(A) = 0.04 the
        # l2 bound adds ln(5) / (lambda_m_min * gbw); at lambda_min(A) >= 1 nothing
        b = np.array([1.0, 0.5])
        wide = build_feedback(np.diag([0.04, 2.0]))
        energy = time_bound(wide, b, oa, A_NORM)
        assert time_bound(wide, b, oa) == pytest.approx(
            energy + math.log(5.0) / (wide.lambda_m_min * oa.gbw), rel=1e-12
        )
        unit = build_feedback(np.diag([1.0, 3.0]))
        assert time_bound(unit, b, oa) == time_bound(unit, b, oa, A_NORM)
        cfg = SolveConfig(norm_kind="l2")
        res = simulate(wide, b, oa, cfg)
        assert res.converged and res.tau <= time_bound(wide, b, oa, cfg)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), k=st.integers(1, 5), zero=st.integers(0, 4))
    def test_block_matches_columns(self, seed, n, k, zero):
        rng = np.random.default_rng(seed)
        g = rng.uniform(0.0, 1.0, (n, n))
        system = build_feedback(g + g.T + n * np.eye(n))  # symmetric, diagonally dominant: SPD
        block = rng.uniform(-1.0, 1.0, (n, k))
        oa = OpAmpModel()
        bounds = time_bound(system, block, oa, A_NORM)
        columns = [time_bound(system, block[:, j], oa, A_NORM) for j in range(k)]
        assert bounds.shape == (k,) and all(type(c) is float for c in columns)
        # one column solves along the same LAPACK path as a 1-D b; a wider
        # block solves all columns at once and may round x* in the last bit
        assert time_bound(system, block[:, :1], oa, A_NORM)[0] == columns[0]
        assert list(bounds) == pytest.approx(columns, rel=1e-12, abs=1e-20)
        block[:, zero % k] = 0.0
        with pytest.raises(DomainError, match=f"in column {zero % k} "):
            time_bound(system, block, oa, A_NORM)


class TestInvertMatrix:
    def test_spd_inverse(self, spd_pair, oa):
        a, _ = spd_pair
        cfg = SolveConfig(epsilon=1e-5)
        res = invert_matrix(build_feedback(a), oa, cfg)
        expected = np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0
        assert np.allclose(res.x_final, expected, atol=1e-4)
        assert np.allclose(res.x_star, expected, rtol=0.0, atol=1e-15)
        assert res.tau.shape == (2,)
        assert (res.tau > 0).all()
        assert res.column_steps.dtype.kind == "i"
        alpha, _ = resolve_step(build_feedback(a), oa, cfg)
        assert np.array_equal(res.tau, res.column_steps * alpha / oa.gbw)

    def test_matches_column_transients(self, oa):
        a = covariance_matrix(4, 1.0)
        cfg = SolveConfig(epsilon=1e-5)
        res = invert_matrix(build_feedback(a), oa, cfg)
        for j, unit in enumerate(np.eye(4)):
            single = simulate(build_feedback(a), unit, oa, cfg)
            assert res.column_steps[j] == single.steps
            assert res.tau[j] == single.tau
            assert np.allclose(res.x_final[:, j], single.x_final, rtol=0.0, atol=1e-12)

    def test_failure_names_column(self, oa):
        cfg = SolveConfig(allow_unstable=True, max_steps=50_000)
        with pytest.raises(InversionError, match="column 0"):
            invert_matrix(build_feedback(SWAP), oa, cfg)


def _random_stable(seed: int, n: int) -> np.ndarray:
    """Nonnegative, diagonally dominant: stable loop, positive semidefinite form."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, 1.0, (n, n))
    a[np.diag_indices(n)] += a.sum(axis=1)
    return a


def _assert_block_matches_columns(system, block, oa, cfg):
    res = simulate(system, block, oa, cfg)
    k = block.shape[1]
    assert res.trace is None
    assert res.x_final.shape == block.shape
    # the block's oracle is the block solve; a column of it may round apart
    # from the solve of that column alone, so each is checked against its own
    assert res.x_star.shape == block.shape
    assert np.array_equal(res.x_star, direct_solve(system.a, block, system.lu))
    for field in (res.tau, res.converged, res.diverged, res.column_steps):
        assert field.shape == (k,)
    assert isinstance(res.steps, int)
    assert res.steps == int(res.column_steps.sum())
    for j in range(k):
        single = simulate(system, block[:, j], oa, cfg)
        assert res.column_steps[j] == single.steps
        assert res.converged[j] == single.converged
        assert res.diverged[j] == single.diverged
        assert res.tau[j] == single.tau
        assert single.x_star.shape == (block.shape[0],)
        assert np.array_equal(single.x_star, direct_solve(system.a, block[:, j], system.lu))
        scale = max(1.0, float(np.abs(single.x_final).max()))
        assert np.abs(res.x_final[:, j] - single.x_final).max() <= 1e-12 * scale
    return res


class TestBlockSimulate:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 6),
        k=st.integers(1, 5),
        norm_kind=st.sampled_from(["l2", "a_norm"]),
        epsilon=st.sampled_from([1e-2, 1e-4, 1e-7]),
    )
    def test_block_equals_single_columns(self, seed, n, k, norm_kind, epsilon):
        a = _random_stable(seed, n)
        block = np.random.default_rng(seed + 1).uniform(-1.0, 1.0, (n, k))
        cfg = SolveConfig(epsilon=epsilon, norm_kind=norm_kind)
        res = _assert_block_matches_columns(build_feedback(a), block, OpAmpModel(), cfg)
        assert res.converged.all()

    @pytest.mark.parametrize("norm_kind", ["l2", "a_norm"])
    def test_mixed_stops(self, norm_kind, oa):
        a = _random_stable(3, 4)
        b = np.random.default_rng(4).uniform(-1.0, 1.0, 4)
        block = np.column_stack([np.zeros(4), b, 1e-2 * b, 1e3 * b])
        cfg = SolveConfig(epsilon=1e-3, norm_kind=norm_kind, max_steps=60)
        res = _assert_block_matches_columns(build_feedback(a), block, oa, cfg)
        assert res.converged[0] and res.column_steps[0] == 0
        assert res.converged[2] and 0 < res.column_steps[2] < 60
        assert not res.converged[3] and not res.diverged[3] and res.column_steps[3] == 60

    def test_diverging_block(self, oa):
        block = np.array([[1.0, 0.0, -3.0], [2.0, 0.0, 0.5]])
        cfg = SolveConfig(allow_unstable=True, max_steps=100_000)
        res = _assert_block_matches_columns(build_feedback(SWAP), block, oa, cfg)
        assert list(res.diverged) == [True, False, True]
        assert res.converged[1] and res.column_steps[1] == 0

    def test_single_rhs_returns_scalars(self, demo_system, oa):
        system, b = demo_system
        res = simulate(system, b, oa, SolveConfig())
        assert res.x_final.shape == (3,)
        assert type(res.tau) is float and type(res.steps) is int
        assert type(res.converged) is bool and type(res.diverged) is bool
        assert res.column_steps is None
        assert res.trace is not None

    def test_negative_form_rejected(self, oa):
        # stable loop (triangular M), but x^T A x < 0 along (1, -1)
        a = np.array([[1.0, 3.0], [0.0, 1.0]])
        b = a @ np.array([1.0, -1.0])
        cfg = SolveConfig(norm_kind="a_norm")
        for rhs in (b, np.column_stack([np.ones(2), b])):
            with pytest.raises(DomainError):
                simulate(build_feedback(a), rhs, oa, cfg)

    @pytest.mark.parametrize("shape", [(4, 2), (3, 0), (3, 2, 1)])
    def test_block_shape_checked(self, demo_system, oa, shape):
        system, _ = demo_system
        with pytest.raises(DomainError):
            simulate(system, np.ones(shape), oa, SolveConfig())

    @settings(max_examples=200, deadline=None)
    @given(
        epsilon=st.floats(1e-300, 1e300),
        offset=st.integers(-4, 4),
        scale=st.floats(0.5, 2.0),
    )
    def test_square_limit_matches_root_test(self, epsilon, offset, scale):
        limit = _square_limit(epsilon)
        q = np.float64(limit)
        with np.errstate(over="ignore"):  # above the largest double, q steps to inf
            for _ in range(abs(offset)):
                q = np.nextafter(q, np.inf if offset > 0 else -np.inf)
        for value in (max(q, 0.0), np.float64(limit * scale)):
            assert (value <= limit) == (np.sqrt(value) <= epsilon)


class TestSlewCheck:
    def test_demo_within_slew(self, demo_system, oa):
        system, b = demo_system
        res = simulate(system, b, oa, SolveConfig())
        assert slew_check(res, oa)

    def test_slow_amplifier_flags_violation(self, demo_system, oa):
        system, b = demo_system
        res = simulate(system, b, oa, SolveConfig())
        sluggish = OpAmpModel(slew_rate=1.0)
        assert not slew_check(res, sluggish)

    def test_needs_trace(self, demo_system, oa, monkeypatch):
        # The verdict reads the per-step rate tracked in the loop, so a run
        # that keeps two samples gives the same rate; only a block result has none.
        system, b = demo_system
        traced = simulate(system, b, oa, SolveConfig())
        monkeypatch.setattr(dynamics, "_TRACE_LIMIT", 2)
        res = simulate(system, b, oa, SolveConfig())
        assert len(res.trace.times) <= 3 < len(traced.trace.times)
        assert res.max_slew == traced.max_slew > 0
        assert slew_check(res, OpAmpModel(slew_rate=res.max_slew))
        assert not slew_check(res, OpAmpModel(slew_rate=0.99 * res.max_slew))
        block = simulate(system, b[:, None], oa, SolveConfig())
        assert block.max_slew is None
        with pytest.raises(UsageError):
            slew_check(block, oa)

    def test_decimated_trace_keeps_true_rate(self, demo_system, oa, monkeypatch):
        # Stride doubling averages slopes over two or more steps: this trace's
        # samples show 7.8e6 V/s, while the first step moves at 1.38e7 V/s.
        system, b = demo_system
        monkeypatch.setattr(dynamics, "_TRACE_LIMIT", 16)
        res = simulate(system, b, oa, SolveConfig())
        alpha, dt = resolve_step(system, oa, SolveConfig())
        first_step = float(np.abs(alpha * system.u * b).max()) / dt
        assert res.max_slew == pytest.approx(first_step, rel=1e-12)
        assert not slew_check(res, OpAmpModel(slew_rate=1e7))


def _simulate_at(k: int | None, system, b, oa, cfg, batch: bool = True):
    """simulate with its private D rule replaced by the constant k (None keeps the rule).

    batch=False also replaces the T rule, so that every pass tests the D
    states of one product.
    """
    with pytest.MonkeyPatch.context() as patch:
        if k is not None:
            patch.setattr(dynamics, "_lookahead", lambda n, steps: k)
        if not batch:
            patch.setattr(dynamics, "_batch", lambda lookahead, columns: lookahead)
        return simulate(system, b, oa, cfg)


def _assert_same_bits(one, other):
    """Every field of two SolveResults but the trace is equal byte for byte."""
    for name in ("x_final", "x_star", "tau", "converged", "diverged", "column_steps"):
        a, b = getattr(one, name), getattr(other, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), name
    assert one.steps == other.steps
    assert one.max_slew == other.max_slew


class TestLookahead:
    """D-step products of simulate against one-step passes and a closed form.

    The private D rule is replaced by a constant D so that both D = 1, the
    one-step recurrence, and D > 1 run on the same inputs. A single
    right-hand side tests T > D states per pass; a block tests D.
    """

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 6),
        k=st.integers(1, 3),
        lookahead=st.sampled_from([1, 2, 5, 16]),
        epsilon=st.sampled_from([1e-2, 1e-4, 1e-7]),
    )
    def test_energy_norm_oracle(self, seed, n, k, lookahead, epsilon):
        """column_steps equals the closed-form first crossing of epsilon.

        The engine evaluates ||e||_A^2 from rounded states, the oracle from
        a rounded eigendecomposition; the two differ by far less than 1e-6
        of epsilon^2. A step count one away from the oracle's is accepted
        only where the form at the disputed step lies within that 1e-6 of
        epsilon^2, so that rounding alone decides the side.
        """
        rng = np.random.default_rng(seed)
        g = rng.uniform(0.0, 1.0, (n, n))
        a = g + g.T
        a[np.diag_indices(n)] += rng.uniform(1.0, 2.0) * a.sum(axis=1)  # dominant diagonal: SPD
        system = build_feedback(a)
        block = rng.uniform(-1.0, 1.0, (n, k))
        oa = OpAmpModel()
        cfg = SolveConfig(epsilon=epsilon, norm_kind="a_norm")
        alpha, _ = resolve_step(system, oa, cfg)
        res = _simulate_at(lookahead, system, block, oa, cfg)
        assert res.converged.all()
        for j in range(k):
            crossing, energy = energy_crossing(system, block[:, j], alpha, epsilon)
            steps = int(res.column_steps[j])
            if steps != crossing:
                disputed = min(steps, crossing)
                assert abs(steps - crossing) == 1
                assert energy(disputed) == pytest.approx(epsilon * epsilon, rel=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 200),
        family=st.sampled_from(["sparse_pd", "covariance"]),
        columns=st.sampled_from([None, 3]),
        one_step=st.booleans(),
    )
    def test_suite_matrices_match_the_modal_oracle(self, seed, n, family, columns, one_step):
        """The scenarios' symmetric families at n <= 200 stop where the modal oracle says.

        columns None is a 1-D b, else a block; one_step forces D = 1, and the
        engine's own rule gives D > 1 at most sizes below 182. At epsilon =
        1e-3 the engine's ||e||_A^2 near the stop matched the closed form to
        3e-11 relative over 80 such systems, so a count one away from the
        oracle's is accepted only where the form at the disputed step lies
        within 1e-9 of epsilon^2.
        """
        rng = np.random.default_rng(seed)
        if family == "sparse_pd":
            a = sparse_pd(n, s=min(10, n), lambda_target=float(rng.uniform(0.2, 1.1)), seed=seed)
        else:
            a = covariance_matrix(n, float(rng.choice([1.0, 2.0])))
        system = build_feedback(a)
        block = rng.uniform(-1.0, 1.0, (n, columns or 1))
        oa = OpAmpModel()
        cfg = SolveConfig(norm_kind="a_norm")
        alpha, dt = resolve_step(system, oa, cfg)
        res = _simulate_at(1 if one_step else None, system, block if columns else block[:, 0], oa, cfg)
        assert np.all(res.converged)
        for j, steps in enumerate(np.atleast_1d(res.column_steps if columns else res.steps).tolist()):
            crossing, energy = energy_crossing(system, block[:, j], alpha, cfg.epsilon)
            if steps != crossing:
                assert abs(steps - crossing) == 1
                assert energy(min(steps, crossing)) == pytest.approx(cfg.epsilon**2, rel=1e-9)
            levels = cfg.epsilon**2 * np.array([1 + 1e-9, 1 - 1e-9])
            early, late = np.array(continuous_crossings(system, block[:, j], levels)) / oa.gbw
            assert early / (1 + cfg.alpha_fraction) <= np.atleast_1d(res.tau)[j] <= late + dt

    @pytest.mark.parametrize("one_step", [False, True], ids=["engine_d", "d1"])
    @pytest.mark.parametrize("columns", [None, 3], ids=["vector", "block"])
    @pytest.mark.parametrize("family", ["sparse_pd", "covariance"])
    @pytest.mark.parametrize("n", [2, 3, 5, 10, 16, 30])
    def test_l2_stops_where_the_modal_oracle_says(self, n, family, columns, one_step, oa):
        """The l2 stop of the symmetric families at n <= 30, where D reaches its cap.

        On these systems the engine's D is 256 at n <= 5 and above 64 up to
        n = 16. The l2 form need not fall monotonically in k, so the oracle
        checks every step up to its crossing. As in the a_norm test, a count one away from the
        oracle's is accepted only where the form at the disputed step lies
        within 1e-9 of epsilon^2.
        """
        rng = np.random.default_rng(n)
        if family == "sparse_pd":
            a = sparse_pd(n, s=min(10, n), lambda_target=float(rng.uniform(0.2, 1.1)), seed=n)
        else:
            a = covariance_matrix(n, float(rng.choice([1.0, 2.0])))
        system = build_feedback(a)
        block = rng.uniform(-1.0, 1.0, (n, columns or 1))
        cfg = SolveConfig()
        alpha, _ = resolve_step(system, oa, cfg)
        res = _simulate_at(1 if one_step else None, system, block if columns else block[:, 0], oa, cfg)
        assert np.all(res.converged)
        for j, steps in enumerate(np.atleast_1d(res.column_steps if columns else res.steps).tolist()):
            crossing, form = l2_crossing(system, block[:, j], alpha, cfg.epsilon)
            if steps != crossing:
                assert abs(steps - crossing) == 1
                assert form(min(steps, crossing)) == pytest.approx(cfg.epsilon**2, rel=1e-9)

    @pytest.mark.parametrize("norm_kind", ["l2", "a_norm"])
    def test_batch_edges(self, norm_kind, oa):
        # K = 8 passes cover steps 0-7, 8-15, ...: the converging column stops
        # at step 35 and the timeouts at 60, both inside a pass.
        a = _random_stable(3, 4)
        b = np.random.default_rng(4).uniform(-1.0, 1.0, 4)
        block = np.column_stack([np.zeros(4), b, 1e-2 * b, 0.3 * b, 1e3 * b])
        cfg = SolveConfig(epsilon=1e-3, norm_kind=norm_kind, max_steps=60)
        res = self._same_at_one_and_eight(build_feedback(a), block, oa, cfg)
        assert res.converged[0] and res.column_steps[0] == 0
        assert res.converged[2] and 0 < res.column_steps[2] % 8 < 7
        assert not res.converged[4] and not res.diverged[4] and res.column_steps[4] == 60
        assert 60 % 8 != 0

    def test_divergence_inside_a_pass(self, oa):
        block = np.array([[1.0, 1.0, 0.0, -3.0], [2.0, 1.0, 0.0, 0.5]])
        cfg = SolveConfig(allow_unstable=True, max_steps=100_000)
        res = self._same_at_one_and_eight(build_feedback(SWAP), block, oa, cfg)
        assert list(res.diverged) == [True, False, False, True]
        assert list(res.converged) == [False, True, True, False]
        assert res.column_steps[2] == 0
        for j in (0, 1, 3):
            assert 0 < res.column_steps[j] % 8 < 7

    def test_negative_form_still_rejected(self, oa):
        a = np.array([[1.0, 3.0], [0.0, 1.0]])
        b = a @ np.array([1.0, -1.0])
        cfg = SolveConfig(norm_kind="a_norm")
        for rhs in (b, np.column_stack([np.ones(2), b])):
            with pytest.raises(DomainError):
                _simulate_at(8, build_feedback(a), rhs, oa, cfg)

    @staticmethod
    def _same_at_one_and_eight(system, block, oa, cfg):
        one = _simulate_at(1, system, block, oa, cfg)
        eight = _simulate_at(8, system, block, oa, cfg)
        assert np.array_equal(eight.column_steps, one.column_steps)
        assert np.array_equal(eight.converged, one.converged)
        assert np.array_equal(eight.diverged, one.diverged)
        scale = max(1.0, float(np.abs(one.x_final).max()))
        assert np.abs(eight.x_final - one.x_final).max() <= 1e-12 * scale
        return eight

    @pytest.mark.parametrize("stop", ["converged", "diverged", "max_steps"])
    @pytest.mark.parametrize("column", [False, True])
    def test_single_stops_inside_a_batch(self, stop, column, oa):
        # D = 5 gives a single right-hand side T = 20: each pass tests steps
        # 20 p .. 20 p + 19 from four products. Each stop lands in a later
        # product of its pass, away from that product's first and last row.
        stable = build_feedback(_random_stable(3, 4))
        b = np.random.default_rng(4).uniform(-1.0, 1.0, 4)
        system, rhs, cfg = {
            "converged": (stable, 3.0 * b, SolveConfig(epsilon=1e-4)),
            "diverged": (
                build_feedback(SWAP),
                np.array([1.0, 2.0]),
                SolveConfig(allow_unstable=True, max_steps=100_000),
            ),
            "max_steps": (stable, b, SolveConfig(epsilon=1e-12, max_steps=57)),
        }[stop]
        if column:
            rhs = rhs[:, None]
        assert dynamics._batch(5, 1) == 20
        res = _simulate_at(5, system, rhs, oa, cfg)
        assert 5 <= res.steps % 20 and 0 < res.steps % 5 < 4
        assert np.all(res.converged) == (stop == "converged")
        assert np.all(res.diverged) == (stop == "diverged")
        assert (res.steps == 57) == (stop == "max_steps")
        _assert_same_bits(res, _simulate_at(5, system, rhs, oa, cfg, batch=False))
        one = _simulate_at(1, system, rhs, oa, cfg, batch=False)  # one step per pass
        assert res.steps == one.steps
        assert np.all(res.converged) == np.all(one.converged) and np.all(res.diverged) == np.all(one.diverged)
        scale = max(1.0, float(np.abs(one.x_final).max()))
        assert np.abs(res.x_final - one.x_final).max() <= 1e-12 * scale
        if not column:
            assert res.max_slew == pytest.approx(one.max_slew, rel=1e-12)

    @pytest.mark.parametrize("n", [150, 200])
    @pytest.mark.parametrize("column", [False, True])
    def test_batch_changes_no_bit(self, n, column, oa, monkeypatch):
        # The default rules on suite-sized sparse systems: D = 2 at n = 150
        # and D = 1 at n = 200, with T = 16 for a single right-hand side.
        system = build_feedback(sparse_pd(n, s=10, lambda_target=0.5, seed=n))
        b = np.random.default_rng(n).uniform(-1.0, 1.0, n)
        rhs = b[:, None] if column else b
        cfg = SolveConfig()
        rule, seen = dynamics._batch, []

        def spy(lookahead, columns):
            seen.append((lookahead, rule(lookahead, columns)))
            return seen[-1][1]

        monkeypatch.setattr(dynamics, "_batch", spy)
        res = simulate(system, rhs, oa, cfg)
        assert seen == [({150: 2, 200: 1}[n], 16)]
        assert res.steps > 100 and np.all(res.converged)
        _assert_same_bits(res, _simulate_at(None, system, rhs, oa, cfg, batch=False))

    @pytest.mark.parametrize("n", [2, 3, 10, 16, 30, 100])
    def test_powers_double_in_place_bit_for_bit(self, n, oa):
        # The reference re-concatenates the stack after every doubling and
        # again to sum the powers; the engine fills one preallocated array
        # with the same products and sums them in the same order.
        def concatenated(p, drive, lookahead):
            powers = p[None]
            while len(powers) < lookahead:
                j = min(len(powers), lookahead - len(powers))
                powers = np.concatenate([powers, powers[:j] @ powers[-1]])
            if n < dynamics._ACCUMULATE_BELOW:
                sums = np.cumsum(np.concatenate([np.eye(n)[None], powers[:-1]]), axis=0)[1:]
            else:
                sums = np.empty((lookahead - 1, n, n))
                total = np.eye(n)
                for j in range(lookahead - 1):
                    total = np.add(total, powers[j], out=sums[j])
            offsets = np.concatenate([drive[None], (sums.reshape(-1, n) @ drive).reshape(-1, *drive.shape)])
            return powers.reshape(-1, n), offsets

        rng = np.random.default_rng(n)
        a = rng.uniform(0.0, 1.0, (n, n)) + n * np.eye(n)  # dominant diagonal: stable
        system = build_feedback(a)
        alpha, _ = resolve_step(system, oa, SolveConfig())
        p = np.eye(n) - alpha * system.m
        drive = alpha * system.u[:, None] * rng.uniform(-1.0, 1.0, (n, 3))
        cap = min(dynamics._MAX_LOOKAHEAD, dynamics._STACK_DOUBLES // (n * n))
        for lookahead in sorted({d for d in (1, 2, 3, 5, 7, 64, 65, 100, 129, 255) if d < cap} | {cap}):
            for got, want in zip(dynamics._stack_powers(p, drive, lookahead), concatenated(p, drive, lookahead)):
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), lookahead

    def test_rule(self):
        assert dynamics._lookahead(3, 2000.0) == 256
        assert dynamics._lookahead(300, 2000.0) == 1
        assert dynamics._lookahead(30, 0.0) == 1
        assert dynamics._lookahead(16, 1e9) == 256 > dynamics._lookahead(17, 1e9)  # D n^2 <= _STACK_DOUBLES
        for n in (3, 30, 100, 181):
            k = dynamics._lookahead(n, 1e9)
            assert 1 <= k <= 256 and k * n * n <= dynamics._STACK_DOUBLES
        for d in range(1, 257):
            t = dynamics._batch(d, 1)
            assert t % d == 0 and t >= 16 and t < max(d, 16) + d
            assert dynamics._batch(d, 2) == d  # a block

    @pytest.mark.parametrize("case", ["demo", 5, 20, 40, 150, "covariance"])
    def test_trace_changes_no_bit(self, case, oa, monkeypatch):
        # A trace samples the rows each pass computes anyway, so a 1-D run
        # takes the same D and T as its untraced twin, the (n, 1) block, and
        # the same bits wherever that block takes no jump.
        if case == "demo":
            system, b = build_feedback(DEFAULT_TRANSIENT_A), DEFAULT_TRANSIENT_B
        elif case == "covariance":
            system, b = build_feedback(covariance_matrix(40, 1.0)), np.random.default_rng(40).uniform(-1.0, 1.0, 40)
        else:
            system = build_feedback(sparse_pd(case, s=min(4, case), lambda_target=0.3, seed=case))
            b = np.random.default_rng(case).uniform(-1.0, 1.0, case)
        rule, seen = dynamics._lookahead, []
        monkeypatch.setattr(dynamics, "_lookahead", lambda n, steps: seen.append(rule(n, steps)) or seen[-1])
        traced = simulate(system, b, oa, SolveConfig())
        twin = _without_jumps(system, b[:, None], oa, SolveConfig())
        assert traced.trace is not None and twin.trace is None and twin.max_slew is None
        assert traced.x_final.tobytes() == twin.x_final.tobytes()
        assert np.float64(traced.tau).tobytes() == twin.tau.tobytes()
        assert traced.steps == twin.steps and traced.x_star.tobytes() == twin.x_star.tobytes()
        assert (traced.converged, traced.diverged) == (bool(twin.converged[0]), bool(twin.diverged[0]))
        assert seen[0] == seen[1] > 1

    @pytest.mark.parametrize("trace_limit", [2, 3, 16])
    @pytest.mark.parametrize("stop", ["converged", "max_steps", "diverged"])
    def test_trace_samples_the_one_step_rule(self, trace_limit, stop, oa, monkeypatch):
        # The batched trace keeps the steps a one-step run samples: the
        # multiples of the final stride, then the stop. The demo runs D = 64,
        # so the cut at step 157 lands inside the third pass.
        monkeypatch.setattr(dynamics, "_TRACE_LIMIT", trace_limit)
        demo = build_feedback(DEFAULT_TRANSIENT_A)
        system, b, cfg = {
            "converged": (demo, DEFAULT_TRANSIENT_B, SolveConfig()),
            "max_steps": (demo, DEFAULT_TRANSIENT_B, SolveConfig(epsilon=1e-12, max_steps=157)),
            "diverged": (build_feedback(SWAP), np.array([1.0, 2.0]), SolveConfig(allow_unstable=True, max_steps=100_000)),
        }[stop]
        res = simulate(system, b, oa, cfg)
        one = _simulate_at(1, system, b, oa, cfg, batch=False)
        assert (res.steps == 157) == (stop == "max_steps")
        assert res.converged == (stop == "converged") and res.diverged == (stop == "diverged")
        assert res.steps == one.steps
        assert np.array_equal(res.trace.times, one.trace.times)
        assert len(res.trace.times) <= trace_limit + 1
        assert res.trace.times[-1] == pytest.approx(res.tau, rel=1e-15)
        scale = max(1.0, float(np.abs(one.trace.states).max()))
        assert np.abs(res.trace.states - one.trace.states).max() <= 1e-12 * scale
        assert np.abs(res.trace.errors - one.trace.errors).max() <= 1e-12 * scale


class TestLayout:
    """The (k, T, n) pass buffer: views that write in place, and the recurrence they compute."""

    @pytest.mark.parametrize("k", [1, 3, 25])
    @pytest.mark.parametrize("lookahead", [1, 5, 64])
    @pytest.mark.parametrize("single", [False, True])
    def test_products_are_views_of_the_buffers(self, k, lookahead, single):
        # T = D for a block and D ceil(16 / D) for a single right-hand side.
        # A view that silently became a copy would drop its product's states.
        n = 4
        batch = dynamics._batch(lookahead, 1 if single else 2)
        states, last = np.zeros((k, batch, n)), np.zeros((k, n))
        products = dynamics._products(states, last, lookahead)
        assert len(products) == batch // lookahead
        for i, (source, out, rows) in enumerate(products):
            # product 0 starts from the state before the pass, which the loop carries outside the buffer
            if i == 0:
                assert source is last
            else:
                assert source.shape == (k, n) and np.shares_memory(source, states)
            assert out.shape == (k, lookahead * n) and np.shares_memory(out, states)
            assert rows.shape == (k, lookahead, n) and np.shares_memory(rows, states)
            out[...] = i + 1
            if i:  # a later product reads the state just before its own, which the product before it wrote
                assert np.array_equal(source, np.full((k, n), i))
        # the outs tile the buffer: each state is written by exactly the product that owns it
        assert np.array_equal(states, np.broadcast_to((np.arange(batch) // lookahead + 1)[None, :, None], states.shape))

    @pytest.mark.parametrize(("n", "k"), [(3, 1), (3, 3), (30, 1), (30, 25)])
    def test_a_first_pass_from_zero_holds_the_offsets(self, n, k, oa, monkeypatch):
        # A column that takes no jump starts its first pass at x(0) = 0: slot 0
        # holds 0, and the one product of the zero state with P .. P^(D-1)
        # gives _stack_powers' c_1 .. c_(D-1) bit for bit.
        products, first = dynamics._products, []

        def spy(states, last, lookahead):
            if not first:
                first.append(states[:, :lookahead].copy())
            return products(states, last, lookahead)

        monkeypatch.setattr(dynamics, "_products", spy)
        monkeypatch.setattr(dynamics, "_MAX_JUMP", 1)
        system, cfg = build_feedback(covariance_matrix(n, 1.0)), SolveConfig()
        block = np.random.default_rng(n + k).uniform(-1.0, 1.0, (n, k))
        simulate(system, block[:, 0] if k == 1 else block, oa, cfg)
        (states,) = first
        lookahead = states.shape[1]
        alpha, _ = resolve_step(system, oa, cfg)
        drive = alpha * (system.u[:, None] * block)
        offsets = dynamics._stack_powers(np.eye(n) - alpha * system.m, drive, lookahead)[1]
        assert lookahead > 1
        assert states[:, 0].tobytes() == np.zeros((k, n)).tobytes()
        assert states[:, 1:].tobytes() == np.ascontiguousarray(offsets[:-1].transpose(2, 0, 1)).tobytes()

    @pytest.mark.parametrize("n", [3, 30, 100, 300])
    @pytest.mark.parametrize("k", [1, 25])
    @pytest.mark.parametrize("norm_kind", ["l2", "a_norm"])
    def test_matches_one_step_reference(self, n, k, norm_kind, oa):
        # The default D rule: D > 1 at n = 3, 30 and 100, and D = 1 at n = 300.
        system = build_feedback(covariance_matrix(n, 1.0))
        block = np.random.default_rng(n + k).uniform(-1.0, 1.0, (n, k))
        cfg = SolveConfig(norm_kind=norm_kind)
        ref = reference_transient(system, block, oa, cfg)
        res = simulate(system, block[:, 0] if k == 1 else block, oa, cfg)
        assert np.array_equal(np.atleast_1d(res.steps if k == 1 else res.column_steps), ref.column_steps)
        assert np.all(ref.converged) and np.all(res.converged) and not np.any(res.diverged)
        scale = np.abs(ref.x_final).max(axis=0)
        assert np.all(np.abs(res.x_final.reshape(n, k) - ref.x_final) <= 1e-12 * scale)

    @pytest.mark.parametrize(
        ("a", "b", "cfg"),
        [
            (SWAP, [1.0, 2.0], SolveConfig(allow_unstable=True)),
            (DEFAULT_TRANSIENT_A, DEFAULT_TRANSIENT_B, SolveConfig(epsilon=1e-30, max_steps=10_001)),
        ],
        ids=["diverges", "max_steps"],
    )
    def test_one_step_reference_stops_and_samples_alike(self, a, b, cfg, oa):
        # the divergence rule, and a max_steps cut far below an unreachable
        # epsilon whose trace keeps the even steps and the stop (stride 2)
        system = build_feedback(a)
        ref, res = reference_transient(system, b, oa, cfg), simulate(system, b, oa, cfg)
        assert (res.steps, res.converged, res.diverged) == (ref.steps, ref.converged, ref.diverged)
        assert np.array_equal(res.trace.times, ref.trace.times)
        scale = max(1.0, float(np.abs(ref.trace.states).max()))
        assert np.abs(res.trace.states - ref.trace.states).max() <= 1e-12 * scale
        assert res.max_slew == pytest.approx(ref.max_slew, rel=1e-12)


def _wide_spread(n: int) -> np.ndarray:
    """Exactly symmetric and positive definite, its diagonal spread over four decades.

    A = D^1/2 ((1 - 0.5/n) I + (0.5/n) 1 1^T) D^1/2 with D = diag(0.1 .. 1000)
    in shuffled order, so the row attenuations u spread 400-500-fold and
    C = sqrt(u_max / u_min) is about 20.
    """
    d = np.logspace(-1.0, 3.0, n)[np.random.default_rng(n).permutation(n)]
    root = np.sqrt(d)
    a = 0.5 * np.outer(root, root) / n
    a[np.diag_indices(n)] = d
    return a


def _without_jumps(system, b, oa, cfg):
    """simulate with its certified jumps turned off (J capped at 1)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "_MAX_JUMP", 1)
        return simulate(system, b, oa, cfg)


def _with_jumps(system, b, oa, cfg, rungs=None):
    """simulate, and the step each column's certified jumps reached (None where it tried none).

    The run prices its jump once, and the ladder of certified jumps tops out
    at that J, or at its rung 2^rungs where the rounding share cuts it lower.
    """
    rule, price, reached, priced = dynamics._certified_jumps, dynamics._jump, [], []

    def spy(system, block, x_star, alpha, propagate, drive, screen, cfg, star_norm, spreads, *args):
        assert priced[-1] > 1 and len(spreads) == (rungs or priced[-1].bit_length() - 1)
        out = rule(system, block, x_star, alpha, propagate, drive, screen, cfg, star_norm, spreads, *args)
        reached.append(out[1])
        return out

    def counted(*args):
        priced.append(price(*args))
        return priced[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "_certified_jumps", spy)
        patch.setattr(dynamics, "_jump", counted)
        result = simulate(system, b, oa, cfg)
    assert len(priced) == 1
    return result, (reached[0] if reached else None)


def _assert_jumps_keep_stops(system, n, k, oa, cfg):
    """With jumps taken, every stop and verdict equals the run without them, and x_final differs by rounding only."""
    block = np.random.default_rng(n + k).uniform(-1.0, 1.0, (n, k))
    res, reached = _with_jumps(system, block, oa, cfg)
    ref = _without_jumps(system, block, oa, cfg)
    assert reached.min() > 0  # every column skipped steps
    assert res.converged.all()
    _assert_same_stops(res, ref)


def _assert_same_stops(res, ref):
    """Two block results agree in every stop, tau and verdict, and each column's x_final up to rounding."""
    assert np.array_equal(res.column_steps, ref.column_steps)
    assert np.array_equal(res.converged, ref.converged)
    assert np.array_equal(res.diverged, ref.diverged)
    assert res.tau.tobytes() == ref.tau.tobytes() and res.steps == ref.steps
    scale = np.maximum(1.0, np.abs(ref.x_final).max(axis=0))
    assert np.all(np.abs(res.x_final - ref.x_final).max(axis=0) <= 1e-12 * scale)


def _triangular(n: int, c: float) -> np.ndarray:
    """I + c (ones above the diagonal): eig(M) = u > 0, and (A + A^T)/2 = (1 - c/2) I + (c/2) 1 1^T is indefinite for c > 2."""
    return np.eye(n) + c * np.triu(np.ones((n, n)), 1)


def _even_pair() -> FeedbackSystem:
    """[[1, c], [c, 1]] with c = 0.99/1.01: equal row sums, so C_2 = sqrt(u_max / u_min) = 1 exactly.

    P is symmetric with the eigenvalues 0.9 (along (1, 1)) and 0.999 (along
    (1, -1)), so alpha lambda_M,min = 1e-3 at the default step.
    """
    c = 0.99 / 1.01
    return build_feedback(np.array([[1.0, c], [c, 1.0]]))


def _jumps_against(system, block, x_star, cfg, rungs, screen):
    """_certified_jumps from x(0) = 0 against x_star as given, on rungs 2 .. 2^rungs with C_j = 1: alpha and each column's reach."""
    alpha, _ = resolve_step(system, OpAmpModel(), cfg)
    drive = alpha * (system.u[:, None] * block)
    star_norm = np.linalg.norm(x_star, axis=0)
    ones, cap = [1.0] * rungs, np.full(block.shape[1], rungs)
    propagate = np.eye(block.shape[0]) - alpha * system.m
    _, reach = dynamics._certified_jumps(
        system, block, x_star, alpha, propagate, drive, screen, cfg, star_norm, ones, ones, cap, 1, None
    )
    return alpha, reach


def _one_step_errors(system, block, x_star, alpha, steps):
    """||x_t - x_star||_2 of the one-step states t = 0 .. steps from x(0) = 0, one row per step."""
    p, drive = np.eye(block.shape[0]) - alpha * system.m, alpha * (system.u[:, None] * block)
    x, errors = np.zeros_like(block), np.empty((steps + 1, block.shape[1]))
    for t in range(steps + 1):
        errors[t] = np.linalg.norm(x - x_star, axis=0)
        x = p @ x + drive
    return errors


class TestCertifiedJumps:
    """A block skips steps by P^J only where no column can stop."""

    @pytest.mark.parametrize("norm_kind", ["l2", "a_norm"])
    @pytest.mark.parametrize("k", [1, 3, 25])
    @pytest.mark.parametrize(
        ("family", "n"),
        [("sparse_pd", 20), ("sparse_pd", 300), ("covariance", 30), ("covariance", 300), ("wide", 16), ("wide", 120)],
    )
    def test_jumps_never_move_a_stop(self, family, n, k, norm_kind, oa):
        # The run without jumps tests every step.
        if family == "sparse_pd":
            a = sparse_pd(n, s=10, lambda_target=0.4, seed=n)
        elif family == "covariance":
            a = covariance_matrix(n, 2.0)
        else:
            a = _wide_spread(n)
        _assert_jumps_keep_stops(build_feedback(a), n, k, oa, SolveConfig(norm_kind=norm_kind))

    @pytest.mark.parametrize("k", [1, 3, 25])
    @pytest.mark.parametrize(
        ("family", "n"), [("rram", 30), ("rram", 100), ("rram", 300), ("stable", 40), ("stable", 100), ("ulp", 30)]
    )
    def test_nonsymmetric_jumps_never_move_a_stop(self, family, n, k, oa):
        # A nonsymmetric A jumps under l2 with ||P^i||_2 <= C_2 max(1, gamma)^J.
        # The programmed covariance matrices are scaling's rram systems; at
        # n = 300 gamma exceeds 1, so the growth factor enters the certificate.
        # "ulp" is a covariance matrix with one entry moved by one ulp.
        if family == "rram":
            a = program(covariance_matrix(n, 1.0), DevicePolicy(), seed=n)
        elif family == "stable":
            a = _random_stable(5, n)
        else:
            a = covariance_matrix(n, 1.0)
            a[0, 1] = math.nextafter(a[0, 1], math.inf)
        system = build_feedback(a)
        assert not system.symmetric
        if n == 300:
            alpha, _ = resolve_step(system, oa, SolveConfig())
            (growth,) = dynamics._growth(system, alpha, 2)  # the one rung of J = 2
            assert growth > 1.0
        _assert_jumps_keep_stops(system, n, k, oa, SolveConfig())

    @pytest.mark.parametrize(
        ("a", "alpha_fraction"),
        [
            (program(covariance_matrix(300, 1.0), DevicePolicy(), seed=300), 0.1),
            (_random_stable(5, 40), 0.1),
            (_random_stable(7, 12), 0.9),
            (_triangular(8, 1.5), 0.5),
        ],
        ids=["rram300", "stable40", "stable12_long_step", "triangular"],
    )
    def test_growth_bounds_the_powers(self, a, alpha_fraction, oa):
        # Rung 2^j's max(1, gamma)^(2^j) bounds ||S^i||_2 for every i <= 2^j, S = I - alpha U^1/2 A U^1/2.
        system = build_feedback(a)
        alpha, _ = resolve_step(system, oa, SolveConfig(alpha_fraction=alpha_fraction))
        root = np.sqrt(system.u)
        s = np.eye(a.shape[0]) - alpha * root[:, None] * a * root[None, :]
        (gamma_sq,) = dynamics._growth(system, alpha, 2)
        assert np.linalg.norm(s, 2) ** 2 <= gamma_sq
        growth = dynamics._growth(system, alpha, 16)  # the rungs 2, 4, 8 and 16
        assert growth[0] == gamma_sq and len(growth) == 4
        power = np.eye(a.shape[0])
        for i in range(1, 17):
            power = power @ s
            assert np.linalg.norm(power, 2) <= growth[max(0, (i - 1).bit_length() - 1)]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k", [1, 3])
    def test_growth_past_the_largest_double_takes_no_jump(self, k, oa, monkeypatch):
        # On D^1/2 (I + 1.9 (ones above the diagonal)) D^1/2 at n = 16 with
        # D = diag(1e-3 .. 1), alpha_fraction = 0.5 gives gamma^2 = 3.93,
        # and epsilon = 1e-3 gives a span long enough for J = 2048 at k = 1,
        # where max(1, gamma)^J = 3.93^1024 lies beyond the largest double,
        # and J = 1024 at k = 3, where it is about 3e304. The first reads as
        # inf without an overflow. Each rung 2^j takes its own growth
        # 3.93^(2^(j-1)) and each column its own rounding bound
        # n u C (1 + j) ||x*||, so the rounding share admits the short rungs
        # only: 2 and 4 at k = 1, and 2 at k = 3, whose columns' ||x*||_2 are
        # larger. With that check lifted
        # (an unbounded share), a rung still needs C_2 max(1, gamma)^(2^j)
        # epsilon below ||x*|| decayed over one jump, which cuts every rung
        # from 32 up (C_2 max(1, gamma)^32 = 5.5e9). At n = 16 the passes take
        # D = 256 steps per product, so none of the short rungs left can pay
        # for a jump, and the ladder returns before its first squaring. Either
        # way no column jumps, and the result is the one without jumps bit
        # for bit.
        root = np.sqrt(np.logspace(-3.0, 0.0, 16))
        system = build_feedback(root[:, None] * _triangular(16, 1.9) * root[None, :])
        cfg = SolveConfig(epsilon=1e-3, alpha_fraction=0.5)
        block = np.random.default_rng(16).uniform(-1.0, 1.0, (16, k))
        growth, rule, calls, reached = dynamics._growth, dynamics._certified_jumps, [], []

        def spy_growth(*args):
            calls.append((args[2], growth(*args)))
            return calls[-1][1]

        def spy_rule(*args):
            out = rule(*args)
            reached.append(out[1])
            return out

        monkeypatch.setattr(dynamics, "_growth", spy_growth)
        monkeypatch.setattr(dynamics, "_certified_jumps", spy_rule)
        ref = _without_jumps(system, block, oa, cfg)
        for share in (dynamics._ROUNDING_SHARE, math.inf):
            monkeypatch.setattr(dynamics, "_ROUNDING_SHARE", share)
            calls.clear()
            reached.clear()
            res = simulate(system, block, oa, cfg)
            (jump, bound), = calls
            assert jump == {1: 2048, 3: 1024}[k] and len(bound) == jump.bit_length() - 1
            assert len(reached) == 1 and not reached[0].any()
            assert bound[-1] > 1e300 and (bound[-1] == math.inf) == (k == 1)
            _assert_same_bits(res, ref)

    @pytest.mark.parametrize("k", [1, 3])
    def test_a_dip_below_epsilon_is_not_jumped(self, k, oa, monkeypatch):
        """The l2 error dips to epsilon at step 40 and then rises 1.4-fold; the column stops at the dip.

        A = [[0.1, c], [c, 1e5]] spreads u 1100-fold (C = 33), so P = U^1/2 S U^-1/2
        is far from normal. x* mixes the two modes of S so that their images
        under U^1/2 nearly cancel at step 40. A jump over the dip ends with an
        error below C epsilon, which the certificate refuses; with C taken
        as 1 it would pass, and the column would stop some 16000 steps late.
        A pass priced at 1e-9 s makes the lower rungs of the ladder pay, so
        the run is repeated with them tried over the dip as well.
        """
        a = np.array([[0.1, 0.0], [0.0, 1e5]])
        a[0, 1] = a[1, 0] = 0.9 * math.sqrt(a[0, 0] * a[1, 1])
        system = build_feedback(a)
        alpha, _ = resolve_step(system, oa, SolveConfig())
        root = np.sqrt(system.u)
        mu, v = np.linalg.eigh(np.eye(2) - alpha * root[:, None] * a * root[None, :])  # fast mode first
        w_fast, w_slow = root * v[:, 0], root * v[:, 1]
        ratio = -(w_slow @ w_fast) / (w_fast @ w_fast) / (mu[0] / mu[1]) ** 40
        x_star = -root * (v[:, 1] + ratio * v[:, 0])
        b = a @ x_star
        p, x, errors = np.eye(2) - alpha * system.m, np.zeros(2), []
        for _ in range(200):
            errors.append(float(np.linalg.norm(x - x_star)))
            x = p @ x + alpha * system.u * b
        epsilon = 1.001 * errors[40]
        spread = math.sqrt(system.u.max() / system.u.min())
        assert errors[40] == min(errors) and errors[199] > 1.3 * epsilon and errors[0] > spread * epsilon
        block = np.column_stack([b, -b, 2.0 * b][:k])
        cfg = SolveConfig(epsilon=epsilon)
        for pass_s in (dynamics._PASS_S, 1e-9):
            monkeypatch.setattr(dynamics, "_PASS_S", pass_s)
            res, reached = _with_jumps(system, block, oa, cfg)
            ref = _without_jumps(system, block, oa, cfg)
            assert reached is not None and res.column_steps[0] == 40
            assert np.array_equal(res.column_steps, ref.column_steps) and res.converged.all()

    @pytest.mark.parametrize(("norm_kind", "reach_apart"), [("l2", 400), ("a_norm", 400)])
    def test_each_column_jumps_to_its_own_reach(self, norm_kind, reach_apart, oa):
        # Columns scaled by 1, 10^3 and 10^6 stop some 450 steps apart. Each
        # jumps as long as its own certificate holds, so the first two jump to
        # within a few dozen steps of their stops (366 and 800 under l2),
        # while the third, whose n u C (1 + j) ||x*|| is past the rounding
        # share at every rung, steps from x(0) = 0 in the same passes.
        system = build_feedback(covariance_matrix(100, 1.0))
        block = np.random.default_rng(100).uniform(-1.0, 1.0, (100, 3)) * np.array([1.0, 1e3, 1e6])
        cfg = SolveConfig(epsilon=1e-2, norm_kind=norm_kind)
        res, reached = _with_jumps(system, block, oa, cfg)
        ref = _without_jumps(system, block, oa, cfg)
        assert reached[0] > 0 and reached[1] - reached[0] > reach_apart and reached[2] == 0
        assert np.all(np.diff(res.column_steps) > 400) and res.converged.all()
        assert np.all((res.column_steps - reached)[:2] < 64)  # a column that jumped steps only its last few dozen steps
        _assert_same_stops(res, ref)

    def test_a_refused_column_leaves_the_others_jumping_on_a_3x3_block(self, oa):
        # lambda_sweep seed 0's matrix 38 with its three unit right-hand
        # sides. Column 2 is refused the first jump of 512, which columns 0
        # and 1 keep and take without it; they stop at 1633 and 1598, and
        # column 2 at 849 from x(0) = 0. A block held in lockstep up to its
        # first refusal took no jump here.
        a = _sweep_matrix(0, 38, scenario_defaults("lambda_sweep"))
        block = np.column_stack([_unit_vector(3, child_seed(0, 38, 10_000 + k)) for k in range(3)])
        system = build_feedback(a)
        res, reached = _with_jumps(system, block, oa, SolveConfig())
        assert reached.tolist() == [512, 512, 0]
        assert res.column_steps.tolist() == [1633, 1598, 849] and res.converged.all()
        _assert_same_stops(res, _without_jumps(system, block, oa, SolveConfig()))

    @pytest.mark.parametrize("max_steps", [500, 600, 761, 800])
    def test_max_steps_cut_while_a_column_jumps(self, max_steps, oa):
        # Column 0 stops at step 366 whatever the cut; column 1 would jump to
        # step 752 and stop at 800, and column 2 steps from 0 to 1258. A cut
        # at 500 or 600 lands while column 1 still jumps, so its jumps stop
        # short of the cut and the passes take it there.
        system = build_feedback(covariance_matrix(100, 1.0))
        block = np.random.default_rng(100).uniform(-1.0, 1.0, (100, 3)) * np.array([1.0, 1e3, 1e6])
        cfg = SolveConfig(epsilon=1e-2, max_steps=max_steps)
        res, reached = _with_jumps(system, block, oa, cfg)
        ref = _without_jumps(system, block, oa, cfg)
        assert 0 < reached[0] < 366 and 0 < reached[1] < max_steps and reached[2] == 0
        assert res.column_steps.tolist() == [366, min(800, max_steps), max_steps]
        assert res.converged.tolist() == [True, max_steps >= 800, False] and not res.diverged.any()
        _assert_same_stops(res, ref)

    def test_each_rung_takes_its_own_growth(self, oa):
        # On I + 1.9 (ones above the diagonal) at n = 100 the cost model
        # prices J = 128, and C_2 max(1, gamma)^128 at the top put the
        # rounding bound past its share, so the block took no jump. Each rung
        # takes its own growth and rounding bound, and rungs 2 and 4 carry
        # the columns past step 66 000 of their 85 530-93 896 steps.
        system = build_feedback(_triangular(100, 1.9))
        block = np.random.default_rng(100).uniform(-1.0, 1.0, (100, 3))
        res, reached = _with_jumps(system, block, oa, SolveConfig(), rungs=2)
        ref = _without_jumps(system, block, oa, SolveConfig())
        assert reached.min() > 66_000 and res.converged.all()
        assert np.array_equal(res.column_steps, ref.column_steps) and res.tau.tobytes() == ref.tau.tobytes()
        assert np.array_equal(res.converged, ref.converged) and np.array_equal(res.diverged, ref.diverged)

    def test_a_column_converged_at_step_0_stops_there_while_the_others_jump(self, oa):
        # x* = 3 epsilon along the slowest eigenvector of A, whose
        # lambda_min(A) is 0.05, has ||x*||_2 above epsilon, so the block
        # prices J = 64, but ||x*||_A = 0.67 epsilon: under a_norm that column
        # stops at step 0. Its own cap and certificate refuse it every rung,
        # so its passes start at x(0) = 0 and test step 0, while the other
        # two columns jump past step 4000.
        a = sparse_pd(60, s=10, lambda_target=0.05, seed=4)
        system = build_feedback(a)
        slowest = np.linalg.eigh(a)[1][:, 0]
        block = np.column_stack([a @ (3e-3 * slowest), np.random.default_rng(0).uniform(-1.0, 1.0, (60, 2))])
        res, reached = _with_jumps(system, block, oa, A_NORM)
        assert reached[0] == 0 and reached[1:].min() > 4000
        assert res.column_steps[0] == 0 and np.array_equal(res.x_final[:, 0], np.zeros(60)) and res.converged.all()
        _assert_same_stops(res, _without_jumps(system, block, oa, A_NORM))

    def test_one_step_tail_of_a_scaling_block(self, oa):
        # scaling's n = 300 ideal block at seed 0: covariance_matrix(300, 1.0)
        # with 25 right-hand sides. Jumps that ended for the whole block at its
        # first refusal left 5105 column-steps to the one-step passes; each
        # column's own descent leaves about 1200. A count, not a timing.
        system = build_feedback(covariance_matrix(300, 1.0))
        block = np.column_stack([random_vector(300, seed=child_seed(0, 4, k)) for k in range(25)])
        res, reached = _with_jumps(system, block, oa, SolveConfig())
        assert int((res.column_steps - reached).sum()) <= 5105 // 3
        assert np.array_equal(res.column_steps, _without_jumps(system, block, oa, SolveConfig()).column_steps)

    @pytest.mark.parametrize(
        ("cfg", "factor"),
        [
            (SolveConfig(epsilon=1e-6, max_steps=300), 1e6),
            (SolveConfig(max_steps=300), 1e6),
            (SolveConfig(), 1.2),
        ],
        ids=["all_cut", "one_converges", "tight_screen"],
    )
    def test_cut_and_divergence_screen(self, cfg, factor, oa, monkeypatch):
        # Jumps end before max_steps, so the cut falls where it falls without
        # them; a divergence screen nearer than C_2 ||x*|| leaves no room for one.
        monkeypatch.setattr(dynamics, "_DIVERGENCE_FACTOR", factor)
        system = build_feedback(covariance_matrix(30, 1.0))
        block = np.random.default_rng(3).uniform(-1.0, 1.0, (30, 3))
        res, reached = _with_jumps(system, block, oa, cfg)
        ref = _without_jumps(system, block, oa, cfg)
        assert np.array_equal(res.column_steps, ref.column_steps) and np.array_equal(res.converged, ref.converged)
        assert not res.diverged.any() and not ref.diverged.any()
        if cfg.max_steps == 300:
            assert reached.min() > 0 and np.count_nonzero(res.column_steps == 300) == 3 - np.count_nonzero(res.converged)
        else:
            assert not reached.any()
            _assert_same_bits(res, ref)

    @pytest.mark.parametrize(
        "case", ["nonsymmetric_a_norm", "indefinite_symmetric_part", "vector", "gain_correction", "unstable"]
    )
    def test_ineligible_runs_take_no_jump(self, case, oa, monkeypatch):
        # A nonsymmetric A under a_norm (its proof needs A symmetric), a
        # nonsymmetric A whose symmetric part is indefinite while M is
        # stable, a 1-D b (its trace and max_slew read every step), the
        # finite-gain loop and an unstable loop: none tries a jump, and each
        # result is bit for bit the one with jumps turned off.
        a, cfg = covariance_matrix(30, 1.0), SolveConfig()
        block = np.random.default_rng(30).uniform(-1.0, 1.0, (30, 3))
        if case == "nonsymmetric_a_norm":
            a, cfg = _random_stable(5, 30), A_NORM
        elif case == "indefinite_symmetric_part":
            # lambda_min((A + A^T)/2) = -0.1 alone refuses this block: the
            # cost model prices J = 256, and the growth that the bound would
            # give, max(1, gamma)^256 = 9.2, would still pass the rounding
            # check (the short step keeps gamma near 1; the scaled b keeps
            # max ||x*|| small).
            a, block, cfg = _triangular(16, 2.2), 1e-3 * block[:16], SolveConfig(alpha_fraction=0.02)
            system = build_feedback(a)
            assert system.lambda_min < 0 < system.lambda_m_min
            price, priced = dynamics._jump, []

            def spy(*args):
                priced.append(price(*args))
                return priced[-1]

            monkeypatch.setattr(dynamics, "_jump", spy)
        elif case == "vector":
            block, cfg = block[:, 0], SolveConfig()
        elif case == "gain_correction":
            cfg = SolveConfig(include_gain_correction=True)
        else:
            a, block = SWAP, np.array([[1.0, 0.0, -3.0], [1.0, 0.0, 0.5]])
            cfg = SolveConfig(allow_unstable=True, max_steps=100_000)
        system = build_feedback(a)
        res, reached = _with_jumps(system, block, oa, cfg)
        assert reached is None
        if case == "indefinite_symmetric_part":
            assert priced == [256]
        _assert_same_bits(res, _without_jumps(system, block, oa, cfg))

    def test_no_jump_can_pay_on_a_3x3_system(self, oa, monkeypatch):
        # A 3 x 3 step costs less than a jump saves, so a nonsymmetric 3 x 3
        # block tries none and leaves lambda_min((A + A^T)/2) uncomputed.
        # The span priced is 559 steps, more than two passes of D = 256, so
        # the cost model, not a short span, returns J = 1.
        price, spans = dynamics._jump, []

        def spy(n, k, steps, lookahead):
            spans.append(steps)
            return price(n, k, steps, lookahead)

        monkeypatch.setattr(dynamics, "_jump", spy)
        system = build_feedback(_random_stable(1, 3))
        block = np.random.default_rng(3).uniform(-1.0, 1.0, (3, 3))
        res, reached = _with_jumps(system, block, oa, SolveConfig(epsilon=1e-9))
        assert reached is None and "lambda_min" not in vars(system)
        assert spans[0] > 2 * 256 and res.steps > 3 * 256
        _assert_same_bits(res, _without_jumps(system, block, oa, SolveConfig(epsilon=1e-9)))

    @pytest.mark.parametrize(("norm_kind", "max_steps", "converging"), [("l2", 200_000, 8), ("a_norm", 5000, 3)])
    def test_no_jump_where_rounding_could_decide_a_stop(self, norm_kind, max_steps, converging, oa):
        # Here n u max ||x*|| is about 1.5e-11 in l2, 10^6 times the
        # certificate's slack 1e-6 epsilon, and as far past it in the energy
        # norm. Jumps taken anyway reached step 2112 (l2) and 2176 (a_norm)
        # and moved column stops by up to 5 and 7 steps. So the block takes
        # none, and its result is the one without jumps bit for bit. Under
        # a_norm rounding keeps five columns' errors above epsilon for good.
        system = build_feedback(covariance_matrix(100, 1.0))
        block = np.column_stack([1e3 * random_vector(100, seed=s) for s in range(8)])
        cfg = SolveConfig(epsilon=1e-11, max_steps=max_steps, norm_kind=norm_kind)
        res, reached = _with_jumps(system, block, oa, cfg)
        assert reached is None and np.count_nonzero(res.converged) == converging
        _assert_same_bits(res, _without_jumps(system, block, oa, cfg))

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("n", [30, 100, 150])
    def test_a_sparse_column_stops_where_one_step_stepping_does(self, n, seed, oa):
        # sparse_suite's shape: one unit right-hand side, run as the block
        # (n, 1), which jumps and then steps its tail at the tail's D. The
        # reference takes one step per product and no jump.
        a = sparse_pd(n, s=10, lambda_target=0.1 + np.random.default_rng(seed).random(), seed=seed)
        b = random_vector(n, seed=seed)
        system, block = build_feedback(a), (b / np.linalg.norm(b))[:, None]
        res, reached = _with_jumps(system, block, oa, SolveConfig())
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dynamics, "_MAX_LOOKAHEAD", 1)
            patch.setattr(dynamics, "_MAX_JUMP", 1)
            ref = simulate(system, block, oa, SolveConfig())
        assert reached[0] > 0 and res.converged.all()
        _assert_same_stops(res, ref)

    def test_the_passes_size_their_powers_to_the_steps_left(self, oa, monkeypatch):
        # On covariance_matrix(30, 1.0), columns scaled by 1 and 10^3 jump to
        # steps 256 and 640, so the passes build D = 36 for the steps the run
        # has left after step 256, not the whole run's 45. A third column,
        # scaled by 10^6, takes no jump and steps from x(0) = 0, so its block
        # keeps the D chosen for the whole run.
        stack, built = dynamics._stack_powers, []

        def spy(propagate, drive, lookahead):
            built.append(lookahead)
            return stack(propagate, drive, lookahead)

        monkeypatch.setattr(dynamics, "_stack_powers", spy)
        system, cfg = build_feedback(covariance_matrix(30, 1.0)), SolveConfig(epsilon=1e-2)
        alpha, _ = resolve_step(system, oa, cfg)
        block = np.random.default_rng(100).uniform(-1.0, 1.0, (30, 3)) * np.array([1.0, 1e3, 1e6])
        for columns in (2, 3):
            built.clear()
            res, reached = _with_jumps(system, block[:, :columns], oa, cfg)
            top = float(np.linalg.norm(res.x_star, axis=0).max())
            predicted = math.log(top / cfg.epsilon) / (alpha * system.lambda_m_min)
            whole = dynamics._lookahead(30, predicted)
            if columns == 2:
                tail = dynamics._lookahead(30, predicted - reached.min())
                assert reached.min() == 256 and built == [tail] and tail < whole
            else:
                assert reached.min() == 0 and built == [whole]

    def test_each_column_clears_its_own_drift(self):
        """An oracle x* that A x* = b misses leaves a drift g, and each column's bar carries its own J ||g||.

        On _even_pair, b along the slow mode (1, -1) gives x_t = (1 - r^t) x_b
        with r = 0.999. Column 0 is measured against x* = (1 - c) x_b with
        c ||x_b|| = 2 epsilon, so its error |c - r^t| ||x_b|| dips to 0 and
        stays at or below epsilon over steps 9693-10790, then rises towards
        2 epsilon. Its jump 8192 -> 12288 ends at 1.78 epsilon: above the
        bar epsilon (1 + 1e-6) without the drift 2^12 ||g|| = 8.2 epsilon,
        so only that term refuses it. Column 1 is measured against its own
        solve and carries no drift, so its bar is the smallest of the block.
        """
        system, cfg = _even_pair(), SolveConfig(max_steps=20_000)
        slow = np.array([1.0, -1.0]) / math.sqrt(2.0)
        x_b = np.column_stack([48.8 * slow, 1e3 * slow])
        block = system.a @ x_b
        x_star = x_b.copy()
        x_star[:, 0] *= 1.0 - 2.0 * cfg.epsilon / 48.8
        screen = np.full(2, 1e6)
        alpha, reach = _jumps_against(system, block, x_star, cfg, 12, screen)
        errors = _one_step_errors(system, block, x_star, alpha, 13_000)
        assert np.count_nonzero(errors[:, 0] <= cfg.epsilon) > 1000  # the dip
        assert 8192 <= reach[0] < 9693 and reach[1] > 12_000
        for column in range(2):
            assert np.all(errors[: reach[column] + 1, column] > cfg.epsilon)

    def test_a_jump_ends_within_its_room(self):
        """A jump's end must fit the room, screen / C_2,j - 2^j ||g||_2, since it starts the next jump.

        Against x* = -x_b the error (2 - r^t) ||x_b|| grows from ||x_b|| towards
        2 ||x_b||, past a screen at 1.9 ||x_b||. The first jump of 256 ends at
        1.23 ||x_b||, within the room 1.39 ||x_b||; the second would end at
        1.40 ||x_b||, outside it, and from there the jumps would go on past
        the screen, where simulate's divergence test could have fired.
        """
        system, cfg = _even_pair(), SolveConfig(max_steps=20_000)
        x_b = 10.0 * np.array([[1.0], [-1.0]]) / math.sqrt(2.0)
        block, x_star = system.a @ x_b, -x_b
        screen = np.array([1.9 * 10.0])
        alpha, reach = _jumps_against(system, block, x_star, cfg, 8, screen)
        assert reach[0] >= 256
        errors = _one_step_errors(system, block, x_star, alpha, reach[0])
        assert np.all(errors <= screen) and np.all(errors > cfg.epsilon)

    def test_rule(self):
        # J is a power of two no longer than the steps it may cover; a step of
        # a 3 x 3 system is cheaper than a jump, and a short run pays no squaring.
        assert dynamics._jump(300, 25, 0.0, 1) == dynamics._jump(3, 25, 500.0, 256) == 1
        for n, k, steps in ((20, 1, 900.0), (200, 1, 900.0), (300, 25, 400.0), (100, 25, 40.0)):
            jump = dynamics._jump(n, k, steps, dynamics._lookahead(n, steps))
            assert 1 < jump <= steps and jump & (jump - 1) == 0
        assert dynamics._jump(20, 1, 1e9, 1) == dynamics._MAX_JUMP
