"""Spectral diagnostics, direct-solve oracle, and scaling-law fitting.

The feedback circuit's speed is governed by the smallest eigenvalue of
M = diag(u) A, where u_i = 1/(1 + sum_j A_ij) is the attenuation each
row's summing node applies. This module computes those quantities,
provides the direct linear-algebra oracle that simulations are checked
against, and fits measured computing times to candidate scaling laws.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import DomainError, NumericalError, UsageError

__all__ = [
    "ScalingFit",
    "factorize",
    "direct_solve",
    "a_norm",
    "attenuation",
    "sym_part_lambda_min",
    "complexity_cg_estimate",
    "complexity_quantum_estimate",
    "fit_scaling",
]

_COND_LIMIT = 1e12
_FIT_MARGIN = 0.02
_FIT_ORDER = ("constant", "logarithmic", "linear")


def _load_lapack():
    """scipy's compiled LAPACK wrappers, loaded without importing scipy.linalg.

    scipy.linalg.lapack re-exports the extension module
    scipy/linalg/_flapack, so its dgetrf is the one scipy.linalg.lu_factor
    calls. No sys.modules entry is left behind, so a later import of
    scipy.linalg sets its _flapack attribute, to a module with the same
    routines.
    Importing scipy.linalg itself cost about 0.35 s a process on a 2-vCPU
    x86-64 VM (scipy 1.17 imports numpy.f2py, numpy.testing and numpy.ma
    with it), more than half of a fresh process's time to import crossolve
    and run the demo transient. The extension is loaded from its file,
    found beside the scipy package without importing scipy; where there is
    no such file, the extension is imported with scipy.linalg instead.
    """
    spec = importlib.util.find_spec("scipy")
    if spec is not None and spec.origin is not None:
        linalg = Path(spec.origin).parent / "linalg"
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = linalg / f"_flapack{suffix}"
            if path.is_file():
                file_spec = importlib.util.spec_from_file_location("scipy.linalg._flapack", path)
                module = importlib.util.module_from_spec(file_spec)
                file_spec.loader.exec_module(module)
                sys.modules.pop(file_spec.name, None)
                return module
    from scipy.linalg import _flapack

    return _flapack


_LAPACK = _load_lapack()
_dgetrf, _dgecon, _dgetrs = _LAPACK.dgetrf, _LAPACK.dgecon, _LAPACK.dgetrs

# Entry points that set and read an OpenBLAS runtime's thread count:
# numpy's 64-bit-integer build, scipy's build, and a plain OpenBLAS.
_OPENBLAS_THREADS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


@functools.cache
def _openblas_runtimes() -> tuple[tuple[Callable[[int], None], Callable[[], int]], ...]:
    """(set, get) thread-count functions of the OpenBLAS numpy calls and of the one the oracle calls.

    Each is looked up through the compiled extension that links it, numpy's
    _multiarray_umath and scipy's _flapack (_LAPACK), which are opened with
    RTLD_NOLOAD: that returns the already loaded extension and never loads
    a library, and a symbol lookup on it also searches the libraries it
    depends on, wherever the package keeps them. An extension with none of
    the entry points adds nothing, so the result is empty where neither
    links OpenBLAS, and also where the platform has no RTLD_NOLOAD.
    """
    if not hasattr(os, "RTLD_NOLOAD"):
        return ()
    runtimes = []
    for path in (np._core._multiarray_umath.__file__, _LAPACK.__file__):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for set_name, get_name in _OPENBLAS_THREADS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                set_threads, get_threads = getattr(lib, set_name), getattr(lib, get_name)
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                runtimes.append((set_threads, get_threads))
                break
    return tuple(runtimes)


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with every OpenBLAS runtime on one thread, then restore each one's count.

    The last bits of an OpenBLAS eigensolve depend on its thread count, so
    a run's records would depend on the host; a scenario's products are
    also too small for BLAS threads to pay, and numpy's and scipy's pools
    compete for the same cores. On the way in a runtime is set only where
    it runs another count (see _pin_blas_threads). On the way out every
    count is set back, even an unchanged one: skipping that call on numpy's
    OpenBLAS raised the peak RSS of a process that alternates two-worker
    sparse_suite runs with 300 x 300 LAPACK calls from 45.4 to 46.4 MB.
    """
    runtimes = _openblas_runtimes()
    counts = [get_threads() for _, get_threads in runtimes]
    _pin_blas_threads()
    try:
        yield
    finally:
        for (set_threads, _), count in zip(runtimes, counts):
            set_threads(count)


def _pin_blas_threads() -> None:
    """Set every OpenBLAS runtime that runs another count to one thread.

    Setting a count starts the runtime's thread pool again in a forked
    child, whose pool the fork left behind, so a runtime already at one
    thread is left alone: a worker forked from a pinned run, set to one
    thread again, held a pool thread of numpy's and of scipy's OpenBLAS
    beside its own while its tasks ran.
    """
    for set_threads, get_threads in _openblas_runtimes():
        if get_threads() != 1:
            set_threads(1)


def _as_square(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"matrix must be square, got shape {a.shape}")
    return a


def _is_integer(value) -> bool:
    """True for a Python or numpy integer; a bool, a float or a string is none."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def attenuation(a) -> np.ndarray:
    """Row attenuation u_i = 1/(1 + sum_j a_ij) for a nonnegative matrix."""
    a = _as_square(a)
    if (a < 0).any():
        raise DomainError("attenuation is defined for nonnegative matrices only")
    return 1.0 / (1.0 + a.sum(axis=1))


def sym_part_lambda_min(a) -> float:
    """Smallest eigenvalue of (A + A^T)/2, the positive-definiteness screen."""
    a = _as_square(a)
    return float(np.linalg.eigvalsh((a + a.T) / 2.0)[0])


def factorize(a) -> tuple[np.ndarray, np.ndarray]:
    """LU factors of A with partial pivoting, guarded by a condition estimate.

    Returns (lu, piv) as scipy.linalg.lu_factor does. The guard is LAPACK's
    estimate of the 1-norm reciprocal condition number (xGECON, Higham's
    estimator): NumericalError is raised when A is singular or when the
    estimated 1-norm condition number is not finite or exceeds 1e12, which
    also rejects any A holding a NaN or an infinity.
    """
    a = _as_square(a)
    if a.size == 0:
        raise NumericalError("cannot factorize an empty matrix")
    lu, piv, info = _dgetrf(a)
    if info > 0:
        raise NumericalError(f"matrix is singular: pivot {info - 1} is exactly zero")
    rcond, _ = _dgecon(lu, float(np.abs(a).sum(axis=0).max()), norm="1")
    cond = 1.0 / rcond if rcond > 0 else math.inf
    if not cond <= _COND_LIMIT:
        raise NumericalError(f"matrix 1-norm condition estimate {cond:.3e} exceeds {_COND_LIMIT:.0e}")
    return lu, piv


def direct_solve(a, b, factors: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Reference solution of A x = b with residual and conditioning guards.

    b is one right-hand side of shape (n,) or a block of shape (n, k), and
    the C-ordered solution has the same shape. factors are the output of
    factorize(a) when the caller has them already; otherwise A is
    factorized here. Raises NumericalError when factorize rejects A (1-norm
    condition estimate above 1e12; cond_2 / n <= cond_1 <= n cond_2), or
    when any column fails the residual test
    ||Ax - b|| <= 1e-10 (||A|| ||x|| + ||b||), a non-finite residual
    included.
    """
    a = _as_square(a)
    b = np.asarray(b, dtype=float)
    if b.ndim not in (1, 2) or b.shape[0] != a.shape[0]:
        raise DomainError(f"rhs shape {b.shape} does not match matrix {a.shape}")
    if factors is None:
        factors = factorize(a)
    x, info = _dgetrs(*factors, b)
    if info != 0:
        raise NumericalError(f"dgetrs rejected argument {-info}")
    x = np.ascontiguousarray(x)
    resid = np.atleast_1d(np.linalg.norm(a @ x - b, axis=0))
    limit = np.atleast_1d(1e-10 * (np.linalg.norm(a) * np.linalg.norm(x, axis=0) + np.linalg.norm(b, axis=0)))
    bad = np.flatnonzero(~(resid <= limit))
    if bad.size:
        j = bad[0]
        where = f" in column {j}" if b.ndim == 2 else ""
        raise NumericalError(f"direct solve residual {resid[j]:.3e} exceeds {limit[j]:.3e}{where}")
    return x


def a_norm(a, x) -> float:
    """Energy norm sqrt(x^T A x); raises DomainError when the form is negative."""
    a = _as_square(a)
    x = np.asarray(x, dtype=float)
    q = float(x @ (a @ x))
    if q < 0:
        raise DomainError(f"x^T A x = {q:.3e} is negative; not a norm for this matrix")
    return math.sqrt(q)


def _check_estimate_args(n: int, s: int, lambda_max: float, lambda_min: float, epsilon: float) -> None:
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if not 1 <= s <= n:
        raise DomainError(f"s must satisfy 1 <= s <= n, got s={s}, n={n}")
    if not 0 < lambda_min <= lambda_max < math.inf:
        raise DomainError(f"need lambda_max >= lambda_min > 0, both finite, got {lambda_max}, {lambda_min}")
    if not 0 < epsilon < 1:
        raise DomainError(f"epsilon must lie in (0, 1), got {epsilon}")


def complexity_cg_estimate(n: int, s: int, lambda_max: float, lambda_min: float, epsilon: float) -> float:
    """Relative conjugate-gradient cost n * s * sqrt(kappa) * ln(1/eps).

    Unit-constant estimate (relative time units): iterations scale with
    sqrt(lambda_max/lambda_min) * ln(1/eps) and each costs n*s operations
    at s nonzeros per row.
    """
    _check_estimate_args(n, s, lambda_max, lambda_min, epsilon)
    return n * s * math.sqrt(lambda_max / lambda_min) * math.log(1.0 / epsilon)


def complexity_quantum_estimate(n: int, s: int, lambda_max: float, lambda_min: float, epsilon: float) -> float:
    """Relative quantum-solver cost s^2 * kappa^2 * (1/eps) * ln(n), unit constant."""
    _check_estimate_args(n, s, lambda_max, lambda_min, epsilon)
    kappa = lambda_max / lambda_min
    return s**2 * kappa**2 * (1.0 / epsilon) * math.log(n)


@dataclass
class ScalingFit:
    """Least-squares comparison of constant / logarithmic / linear growth.

    coefficients and r_squared hold one entry per candidate model;
    model_kind is the selected explanation of the data.
    """

    model_kind: str
    coefficients: dict[str, tuple[float, ...]]
    r_squared: dict[str, float]


def fit_scaling(points) -> ScalingFit:
    """Fit tau(n) against constant, a + b*ln(n), and a + b*n candidates.

    R^2 is computed about zero (1 - SS_res / sum(tau^2)) so the three
    candidates share one scale; a mean-centered R^2 would pin the constant
    model at zero by construction and make it unselectable. The chosen
    model is the simplest one whose R^2 is within 0.02 of the best
    (simplicity order: constant, logarithmic, linear). Exact fits of
    constant data therefore report R^2 = 1 and select "constant".

    Parameters
    ----------
    points : sequence of (n, tau)
        At least four distinct n values, all positive.
    """
    pts = [(float(n), float(t)) for n, t in points]
    ns = np.array([p[0] for p in pts])
    taus = np.array([p[1] for p in pts])
    if len(set(ns.tolist())) < 4:
        raise UsageError(f"need at least 4 distinct sizes, got {len(set(ns.tolist()))}")
    if (ns <= 0).any():
        raise DomainError("sizes must be positive")

    total = float((taus**2).sum())

    def r2_of(residual_ss: float) -> float:
        if total == 0.0:
            return 1.0
        return float(np.clip(1.0 - residual_ss / total, 0.0, 1.0))

    coeffs: dict[str, tuple[float, ...]] = {}
    r2: dict[str, float] = {}

    c = float(taus.mean())
    coeffs["constant"] = (c,)
    r2["constant"] = r2_of(float(((taus - c) ** 2).sum()))

    for kind, feature in (("logarithmic", np.log(ns)), ("linear", ns)):
        design = np.column_stack([np.ones_like(ns), feature])
        sol, *_ = np.linalg.lstsq(design, taus, rcond=None)
        resid = taus - design @ sol
        coeffs[kind] = (float(sol[0]), float(sol[1]))
        r2[kind] = r2_of(float((resid**2).sum()))

    best = max(r2.values())
    model_kind = next(kind for kind in _FIT_ORDER if r2[kind] >= best - _FIT_MARGIN)
    return ScalingFit(model_kind=model_kind, coefficients=coeffs, r_squared=r2)
