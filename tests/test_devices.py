"""Device model tests: level grids, quantization, programming noise."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossolve import (
    ConductanceMatrix,
    ConfigError,
    DevicePolicy,
    DomainError,
    LevelSet,
    build_level_set,
    program,
    quantize_levels,
    read_effective,
)
from crossolve.devices import _G_MAX, _MEASURED_LEVELS_S

MEASURED = LevelSet(_MEASURED_LEVELS_S)


class TestDevicePolicy:
    def test_default_grid_numbers(self):
        p = DevicePolicy()
        assert p.num_levels == 64
        assert _G_MAX == 1e-4
        assert p.g_min == pytest.approx(1e-7)
        assert p.delta_g == pytest.approx(1e-4 / 64)
        assert p.sigma == pytest.approx((1e-4 / 64) / 6)

    def test_zero_noise_allowed(self):
        assert DevicePolicy(noise_fraction=0.0).sigma == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_levels": 1},
            {"num_levels": 0},
            {"num_levels": float("nan")},
            {"ratio": 1.0},
            {"ratio": 0.5},
            {"noise_fraction": -0.1},
            {"noise_fraction": float("nan")},
            {"num_levels": 2.5},
            {"ratio": float("nan")},
        ],
    )
    def test_invalid_policy_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            DevicePolicy(**kwargs)


class TestLevelSets:
    def test_uniform_grid_endpoints_and_spacing(self):
        ls = build_level_set(DevicePolicy())
        assert len(ls) == 64
        assert ls.levels[0] == pytest.approx(1e-7)
        assert ls.levels[-1] == pytest.approx(1e-4)
        spacing = np.diff(ls.levels)
        assert np.allclose(spacing, (1e-4 - 1e-7) / 63)

    def test_measured_levels(self):
        ls = MEASURED
        assert len(ls) == 8
        expected = np.array([10, 15, 20, 30, 50, 60, 80, 120]) * 1e-6
        assert np.allclose(ls.levels, expected)
        assert ls.g_min == pytest.approx(10e-6)
        assert ls.g_max == pytest.approx(120e-6)

    def test_level_set_validation(self):
        with pytest.raises(ConfigError):
            LevelSet(np.array([1e-6]))
        with pytest.raises(ConfigError):
            LevelSet(np.array([0.0, 1e-6]))
        with pytest.raises(ConfigError):
            LevelSet(np.array([2e-6, 1e-6]))


class TestQuantize:
    def test_snaps_to_nearest(self):
        ls = MEASURED
        t = np.array([11e-6, 14e-6, 55.1e-6, 130e-6])
        q = quantize_levels(t, ls)
        assert np.allclose(q, [10e-6, 15e-6, 60e-6, 120e-6])

    def test_below_half_minimum_is_open(self):
        ls = MEASURED
        q = quantize_levels(np.array([0.0, 4.9e-6, 5e-6, 9e-6]), ls)
        assert np.allclose(q, [0.0, 0.0, 10e-6, 10e-6])

    def test_tie_goes_to_lower_level(self):
        ls = LevelSet(np.array([1.0, 3.0]))
        assert quantize_levels(np.array([2.0]), ls)[0] == 1.0

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=0.0, max_value=2e-4, allow_nan=False))
    def test_idempotent(self, t):
        ls = build_level_set(DevicePolicy())
        once = quantize_levels(np.array([t]), ls)
        twice = quantize_levels(once, ls)
        assert once[0] == twice[0]

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=2e-4, allow_nan=False),
        st.floats(min_value=0.0, max_value=2e-4, allow_nan=False),
    )
    def test_monotone(self, t1, t2):
        ls = MEASURED
        lo, hi = min(t1, t2), max(t1, t2)
        q = quantize_levels(np.array([lo, hi]), ls)
        assert q[0] <= q[1]


class TestProgram:
    def test_noiseless_roundtrip_on_grid(self):
        # entries already proportional to measured levels read back exactly
        g0 = 100e-6
        a = np.array([[0.1, 0.6], [1.2, 0.3]])
        policy = DevicePolicy(num_levels=8, ratio=12.0, noise_fraction=0.0)
        ls = build_level_set(policy)
        cm = program(a, policy=policy)
        gamma = _G_MAX / a.max()
        assert cm.g0 == pytest.approx(gamma)
        back = read_effective(cm)
        assert np.allclose(back, quantize_levels(gamma * a, ls) / gamma)

    def test_scale_puts_largest_entry_at_g_max(self):
        policy = DevicePolicy(noise_fraction=0.0)
        a = np.array([[0.5, 2.0], [1.0, 0.25]])
        cm = program(a, policy=policy)
        assert cm.g.max() == pytest.approx(_G_MAX)

    def test_zero_entries_stay_open(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0]])
        cm = program(a, policy=DevicePolicy(noise_fraction=10.0), seed=3)
        assert cm.g[0, 1] == 0.0
        assert cm.g[1, 0] == 0.0

    def test_noise_statistics(self):
        policy = DevicePolicy()
        n = 160
        a = np.ones((n, n))
        cm = program(a, policy=policy, seed=9)
        noise = cm.g - _G_MAX
        # top level cannot exceed g_max + 3 sigma and the clamp barely
        # moves the standard deviation
        assert np.abs(noise).max() <= 3 * policy.sigma + 1e-18
        assert np.std(noise) == pytest.approx(policy.sigma, rel=0.05)

    def test_conductance_never_negative(self):
        policy = DevicePolicy(noise_fraction=50.0)
        a = np.array([[1.0, 0.001], [0.001, 1.0]])
        cm = program(a, policy=policy, seed=1)
        assert (cm.g >= 0).all()

    def test_seed_determinism(self):
        a = np.array([[1.0, 0.4], [0.7, 0.2]])
        g1 = program(a, seed=5).g
        g2 = program(a, seed=5).g
        g3 = program(a, seed=6).g
        assert np.array_equal(g1, g2)
        assert not np.array_equal(g1, g3)

    def test_seed_defaults_to_zero(self):
        a = np.array([[1.0, 0.4], [0.7, 0.2]])
        assert np.array_equal(program(a).g, program(a, seed=0).g)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_rejected(self, seed):
        # a negative seed once escaped as numpy's ValueError
        with pytest.raises(ConfigError, match="64-bit"):
            program(np.array([[1.0, 0.4], [0.7, 0.2]]), seed=seed)

    def test_rejects_bad_matrices(self):
        with pytest.raises(DomainError):
            program(np.array([[1.0, -0.1], [0.2, 1.0]]))
        with pytest.raises(DomainError):
            program(np.zeros((2, 2)))
        with pytest.raises(DomainError):
            program(np.ones((2, 3)))


class TestConductanceMatrix:
    def test_validation(self):
        with pytest.raises(DomainError):
            ConductanceMatrix(g=np.array([[1e-6, -1e-6], [0.0, 1e-6]]), g0=1e-4)
        with pytest.raises(DomainError):
            ConductanceMatrix(g=np.ones((2, 2)) * 1e-6, g0=0.0)
        with pytest.raises(DomainError):
            ConductanceMatrix(g=np.ones(4) * 1e-6, g0=1e-4)
