"""Device model tests: level grids, quantization, programming noise."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossolve import ConfigError, DevicePolicy, DomainError, program
from crossolve.devices import _G_MAX, _MEASURED_LEVELS_S, _quantize

MEASURED = _MEASURED_LEVELS_S


def _conductances(a, policy=None, seed=0):
    """The programmed conductances in siemens: program's matrix times g0 = g_max / max(a)."""
    return program(a, policy, seed) * (_G_MAX / np.max(a))


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
            {"noise_fraction": float("inf")},
            {"num_levels": 2.5},
            {"ratio": float("nan")},
        ],
    )
    def test_invalid_policy_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            DevicePolicy(**kwargs)


class TestLevelSets:
    def test_uniform_grid_endpoints_and_spacing(self):
        # without noise, entries spread over the window program onto the
        # 64 levels from g_max / 1e3 to g_max, evenly spaced
        a = np.linspace(1e-3, 1.0, 32 * 32).reshape(32, 32)
        levels = np.unique(_conductances(a, DevicePolicy(noise_fraction=0.0)))
        assert levels.size == 64
        assert levels[0] == pytest.approx(1e-7)
        assert levels[-1] == pytest.approx(1e-4)
        assert np.allclose(np.diff(levels), (1e-4 - 1e-7) / 63)

    def test_measured_levels(self):
        assert MEASURED.size == 8
        expected = np.array([10, 15, 20, 30, 50, 60, 80, 120]) * 1e-6
        assert np.allclose(MEASURED, expected)
        assert np.all(np.diff(MEASURED) > 0)


class TestQuantize:
    def test_snaps_to_nearest(self):
        t = np.array([11e-6, 14e-6, 55.1e-6, 130e-6])
        q = _quantize(t, MEASURED)
        assert np.allclose(q, [10e-6, 15e-6, 60e-6, 120e-6])

    def test_below_half_minimum_is_open(self):
        q = _quantize(np.array([0.0, 4.9e-6, 5e-6, 9e-6]), MEASURED)
        assert np.allclose(q, [0.0, 0.0, 10e-6, 10e-6])

    def test_tie_goes_to_lower_level(self):
        assert _quantize(np.array([2.0]), np.array([1.0, 3.0]))[0] == 1.0

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=0.0, max_value=2e-4, allow_nan=False))
    def test_idempotent(self, t):
        levels = np.linspace(DevicePolicy().g_min, _G_MAX, 64)
        once = _quantize(np.array([t]), levels)
        twice = _quantize(once, levels)
        assert once[0] == twice[0]

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=2e-4, allow_nan=False),
        st.floats(min_value=0.0, max_value=2e-4, allow_nan=False),
    )
    def test_monotone(self, t1, t2):
        lo, hi = min(t1, t2), max(t1, t2)
        q = _quantize(np.array([lo, hi]), MEASURED)
        assert q[0] <= q[1]


class TestProgram:
    def test_noiseless_roundtrip_on_grid(self):
        # entries already proportional to measured levels read back exactly
        g0 = 100e-6
        a = np.array([[0.1, 0.6], [1.2, 0.3]])
        policy = DevicePolicy(num_levels=8, ratio=12.0, noise_fraction=0.0)
        levels = np.linspace(policy.g_min, _G_MAX, policy.num_levels)
        gamma = _G_MAX / a.max()
        back = program(a, policy=policy)
        assert np.array_equal(back, _quantize(gamma * a, levels) / gamma)

    def test_scale_puts_largest_entry_at_g_max(self):
        policy = DevicePolicy(noise_fraction=0.0)
        a = np.array([[0.5, 2.0], [1.0, 0.25]])
        assert _conductances(a, policy).max() == pytest.approx(_G_MAX)
        assert program(a, policy=policy).max() == 2.0

    def test_zero_entries_stay_open(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0]])
        back = program(a, policy=DevicePolicy(noise_fraction=10.0), seed=3)
        assert back[0, 1] == 0.0
        assert back[1, 0] == 0.0

    def test_noise_statistics(self):
        policy = DevicePolicy()
        n = 160
        a = np.ones((n, n))
        noise = _conductances(a, policy, seed=9) - _G_MAX
        # top level cannot exceed g_max + 3 sigma and the clamp barely
        # moves the standard deviation
        assert np.abs(noise).max() <= 3 * policy.sigma + 1e-18
        assert np.std(noise) == pytest.approx(policy.sigma, rel=0.05)

    def test_conductance_never_negative(self):
        policy = DevicePolicy(noise_fraction=50.0)
        a = np.array([[1.0, 0.001], [0.001, 1.0]])
        assert (program(a, policy=policy, seed=1) >= 0).all()

    def test_seed_determinism(self):
        a = np.array([[1.0, 0.4], [0.7, 0.2]])
        g1 = program(a, seed=5)
        g2 = program(a, seed=5)
        g3 = program(a, seed=6)
        assert np.array_equal(g1, g2)
        assert not np.array_equal(g1, g3)

    def test_seed_defaults_to_zero(self):
        a = np.array([[1.0, 0.4], [0.7, 0.2]])
        assert np.array_equal(program(a), program(a, seed=0))

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_rejected(self, seed):
        # a negative seed once escaped as numpy's ValueError
        with pytest.raises(ConfigError, match="64-bit"):
            program(np.array([[1.0, 0.4], [0.7, 0.2]]), seed=seed)

    @pytest.mark.parametrize("seed", [1.7, 2.0, True, "3"])
    def test_seed_must_be_an_integer(self, seed):
        # a float seed once escaped as numpy's TypeError, and True was taken as 1
        with pytest.raises(ConfigError, match="64-bit"):
            program(np.array([[1.0, 0.4], [0.7, 0.2]]), seed=seed)

    def test_numpy_integer_seed_accepted(self):
        a = np.array([[1.0, 0.4], [0.7, 0.2]])
        assert np.array_equal(program(a, seed=np.uint64(5)), program(a, seed=5))

    def test_rejects_bad_matrices(self):
        with pytest.raises(DomainError):
            program(np.array([[1.0, -0.1], [0.2, 1.0]]))
        with pytest.raises(DomainError):
            program(np.zeros((2, 2)))
        with pytest.raises(DomainError):
            program(np.ones((2, 3)))
