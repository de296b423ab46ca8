"""Conductance-level device model for programming matrices onto an array.

A dimensionless matrix A is realized on a crosspoint array by scaling it
into a conductance window, snapping every target to the nearest level of
a discrete programming grid, and perturbing each programmed device with
Gaussian programming noise. Reading the array back returns G / g0, the
dimensionless matrix the feedback circuit actually operates on.

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

__all__ = [
    "DevicePolicy",
    "LevelSet",
    "ConductanceMatrix",
    "build_level_set",
    "quantize_levels",
    "program",
    "read_effective",
]

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
        if not self.noise_fraction >= 0:
            raise ConfigError(f"noise_fraction must be >= 0, got {self.noise_fraction}")

    @property
    def g_min(self) -> float:
        return _G_MAX / self.ratio

    @property
    def delta_g(self) -> float:
        return _G_MAX / self.num_levels

    @property
    def sigma(self) -> float:
        return self.noise_fraction * self.delta_g


@dataclass
class LevelSet:
    """Strictly increasing positive conductance levels, in siemens."""

    levels: np.ndarray

    def __post_init__(self) -> None:
        self.levels = np.asarray(self.levels, dtype=float)
        if self.levels.ndim != 1 or self.levels.size < 2:
            raise ConfigError("a level set needs at least two levels")
        if not self.levels[0] > 0:
            raise ConfigError("levels must be positive")
        if not np.all(np.diff(self.levels) > 0):
            raise ConfigError("levels must be strictly increasing")

    @property
    def g_min(self) -> float:
        return float(self.levels[0])

    @property
    def g_max(self) -> float:
        return float(self.levels[-1])

    def __len__(self) -> int:
        return int(self.levels.size)


def build_level_set(policy: DevicePolicy) -> LevelSet:
    """Uniform grid of policy.num_levels levels spanning [g_min, g_max] inclusive."""
    return LevelSet(np.linspace(policy.g_min, _G_MAX, policy.num_levels))


def quantize_levels(targets: np.ndarray, level_set: LevelSet) -> np.ndarray:
    """Snap conductance targets to the nearest level.

    Targets below half the lowest level are treated as open devices (0);
    targets in [g_min/2, g_min) snap up to g_min. Ties between adjacent
    levels resolve to the lower level, which keeps the map monotone.
    """
    t = np.asarray(targets, dtype=float)
    lv = level_set.levels
    hi = np.clip(np.searchsorted(lv, t), 0, lv.size - 1)
    lo = np.clip(hi - 1, 0, lv.size - 1)
    take_hi = np.abs(lv[hi] - t) < np.abs(t - lv[lo])
    q = np.where(take_hi, lv[hi], lv[lo])
    return np.where(t < 0.5 * level_set.g_min, 0.0, q)


@dataclass
class ConductanceMatrix:
    """Programmed array state: conductances in siemens plus the read unit g0."""

    g: np.ndarray
    g0: float

    def __post_init__(self) -> None:
        self.g = _as_square(self.g)
        if (self.g < 0).any():
            raise DomainError("conductances cannot be negative")
        if not self.g0 > 0:
            raise DomainError(f"g0 must be positive, got {self.g0}")


def program(
    a: np.ndarray,
    policy: DevicePolicy | None = None,
    seed: int = 0,
) -> ConductanceMatrix:
    """Map a nonnegative matrix onto the array's discrete conductance levels.

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

    Returns
    -------
    ConductanceMatrix
        Its read unit g0 is the programming scale gamma = g_max / max(a),
        so reading the array back recovers `a` up to quantization and noise.
    """
    if not 0 <= int(seed) < 2**64:
        raise ConfigError(f"seed must be a 64-bit unsigned integer, got {seed}")
    if policy is None:
        policy = DevicePolicy()
    a = _as_square(a)
    if (a < 0).any():
        raise DomainError("negative entries cannot be programmed as conductances")
    amax = float(a.max()) if a.size else 0.0
    if amax <= 0:
        raise DomainError("all-zero matrix leaves the conductance scale undefined")

    gamma = _G_MAX / amax
    q = quantize_levels(gamma * a, build_level_set(policy))

    sigma = policy.sigma
    if sigma > 0:
        rng = np.random.default_rng(seed)
        z = np.clip(rng.standard_normal(a.shape), -3.0, 3.0)
        g = np.where(q > 0, np.maximum(q + sigma * z, 0.0), 0.0)
    else:
        g = q
    return ConductanceMatrix(g=g, g0=gamma)


def read_effective(cm: ConductanceMatrix) -> np.ndarray:
    """Dimensionless matrix seen by the circuit: G / g0."""
    return cm.g / cm.g0
