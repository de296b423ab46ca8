"""Conductance-level device model for programming matrices onto an array.

program realizes a dimensionless matrix A on a crosspoint array by scaling
it into a conductance window, snapping every target to the nearest level
of a discrete programming grid, and perturbing each programmed device with
Gaussian programming noise. It returns what reading the array back gives,
G / g0: the dimensionless matrix the feedback circuit actually operates on.

The level grid spans [g_max/ratio, g_max] with num_levels uniformly
spaced values; g_max is fixed at 1e-4 S, a scale that G / g0 cancels.
Programming noise has standard deviation sigma = noise_fraction *
(g_max / num_levels); with the default fraction 1/6 the +-3 sigma band of
one level just touches its neighbours.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .spectral import _as_square, _is_integer

__all__ = ["DevicePolicy", "program"]

# Eight-level conductance set from device characterization, in siemens.
_MEASURED_LEVELS_S = np.array([10.0, 15.0, 20.0, 30.0, 50.0, 60.0, 80.0, 120.0]) * 1e-6
# Top of every programming grid, in siemens.
_G_MAX = 1e-4


@dataclass(frozen=True)
class DevicePolicy:
    """Programming policy: level grid shape plus the noise rule.

    The grid runs from g_max / ratio to g_max = 1e-4 S, and sigma is
    noise_fraction * delta_g where delta_g = g_max / num_levels;
    set noise_fraction to 0 for ideal (noiseless) programming.
    """

    num_levels: int = 64
    ratio: float = 1e3
    noise_fraction: float = 1.0 / 6.0

    def __post_init__(self) -> None:
        if not _is_integer(self.num_levels) or self.num_levels < 2:
            raise ConfigError(f"num_levels must be an integer >= 2, got {self.num_levels!r}")
        if not self.ratio > 1:
            raise ConfigError(f"ratio must exceed 1, got {self.ratio}")
        if not 0 <= self.noise_fraction < np.inf:
            raise ConfigError(f"noise_fraction must be >= 0 and finite, got {self.noise_fraction}")

    @property
    def g_min(self) -> float:
        return _G_MAX / self.ratio

    @property
    def delta_g(self) -> float:
        return _G_MAX / self.num_levels

    @property
    def sigma(self) -> float:
        return self.noise_fraction * self.delta_g


def _quantize(targets: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Snap conductance targets to the nearest of the increasing levels.

    Targets below half the lowest level are treated as open devices (0);
    targets in [g_min/2, g_min) snap up to g_min. Ties between adjacent
    levels resolve to the lower level, which keeps the map monotone.
    """
    hi = np.clip(np.searchsorted(levels, targets), 0, levels.size - 1)
    lo = np.clip(hi - 1, 0, levels.size - 1)
    take_hi = np.abs(levels[hi] - targets) < np.abs(targets - levels[lo])
    q = np.where(take_hi, levels[hi], levels[lo])
    return np.where(targets < 0.5 * levels[0], 0.0, q)


def program(a: np.ndarray, policy: DevicePolicy | None = None, seed: int = 0) -> np.ndarray:
    """The matrix the circuit reads after a nonnegative matrix is programmed onto the array.

    a is scaled into conductances by gamma = g_max / max(a), every target
    is snapped to the nearest level of the grid, np.linspace(g_min, g_max,
    num_levels), and each programmed device takes its noise; the result is
    read back as G / gamma, so without noise or quantization it is `a`.

    Parameters
    ----------
    a : (N, N) array_like
        Dimensionless nonnegative matrix to realize. Must not be all zero.
    policy : DevicePolicy, optional
        Level grid and noise rule; defaults to 64 levels, ratio 1e3.
    seed : int, optional
        Noise seed, a 64-bit unsigned integer; defaults to 0. One normal
        draw is generated per device site in row-major order, clamped to
        +-3 sigma, and applied to every site holding a programmed level.
        Conductances that would go negative are clamped to 0.
    """
    if not _is_integer(seed) or not 0 <= seed < 2**64:
        raise ConfigError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
    if policy is None:
        policy = DevicePolicy()
    a = _as_square(a)
    if (a < 0).any():
        raise DomainError("negative entries cannot be programmed as conductances")
    amax = float(a.max()) if a.size else 0.0
    if amax <= 0:
        raise DomainError("all-zero matrix leaves the conductance scale undefined")

    gamma = _G_MAX / amax
    g = _quantize(gamma * a, np.linspace(policy.g_min, _G_MAX, policy.num_levels))
    sigma = policy.sigma
    if sigma > 0:
        z = np.clip(np.random.default_rng(seed).standard_normal(a.shape), -3.0, 3.0)
        g = np.where(g > 0, np.maximum(g + sigma * z, 0.0), 0.0)
    return g / gamma
