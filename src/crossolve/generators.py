"""Problem-instance generators for the experiment suites.

Three matrix families are used throughout: a covariance-style family with
polynomially decaying off-diagonals, random matrices whose entries come
from the discrete device level set, and random sparse positive-definite
matrices with an exactly placed smallest eigenvalue.
"""

from __future__ import annotations

import numpy as np

from .devices import _MEASURED_LEVELS_S
from .errors import DomainError, GenerationError

__all__ = [
    "covariance_matrix",
    "random_discrete_pd",
    "sparse_pd",
    "random_vector",
]


def covariance_matrix(n: int, beta: float) -> np.ndarray:
    """Covariance-style matrix: A_ij = 1/|i-j|^beta off the diagonal.

    Indices are 1-based, with diagonal A_ii = 1 + sqrt(i). beta = 1 gives
    slowly decaying correlations, beta = 2 nearly banded ones; both keep
    the smallest eigenvalue asymptotically flat in n.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if not beta > 0:
        raise DomainError(f"beta must be positive, got {beta}")
    idx = np.arange(1, n + 1, dtype=float)
    dist = np.abs(idx[:, None] - idx[None, :])
    with np.errstate(divide="ignore"):
        a = dist**-beta
    a[np.diag_indices(n)] = 1.0 + np.sqrt(idx)
    return a


# lambda_sweep's draw: _DIM x _DIM levels in units of _G0 (S), _TRIES draws a
# call, screened _SCREEN_DRAWS at a time (about 11 per accepted 3 x 3 matrix).
_DIM, _G0, _TRIES, _SCREEN_DRAWS = 3, 100e-6, 64, 16


def random_discrete_pd(seed: int = 0) -> tuple[np.ndarray, float]:
    """Random 3 x 3 matrix with entries drawn from the measured level set, PD-screened.

    Every entry is an independent uniform draw from the measured eight-level
    conductance set divided by g0 = 100 uS, so the result is generally not
    symmetric; draws are retried until the symmetric part (A + A^T)/2 is
    positive definite, which also guarantees every eigenvalue of the
    attenuated loop matrix has positive real part.

    Returns the accepted matrix together with its symmetric-part smallest
    eigenvalue. Raises GenerationError when all 64 draws fail.

    Draws are taken and screened 16 at a time, with one stacked eigvalsh;
    a call of 16 draws continues the generator's stream exactly as 16 calls
    of one draw would, and the first positive draw is returned, so the
    result is that of screening one draw at a time.
    """
    values = _MEASURED_LEVELS_S / _G0
    rng = np.random.default_rng(seed)
    for _ in range(_TRIES // _SCREEN_DRAWS):
        draws = values[rng.integers(0, values.size, size=(_SCREEN_DRAWS, _DIM, _DIM))]
        lams = np.linalg.eigvalsh((draws + draws.transpose(0, 2, 1)) / 2.0)[:, 0]
        hits = np.flatnonzero(lams > 0)
        if hits.size:
            return draws[hits[0]], float(lams[hits[0]])
    raise GenerationError(f"no positive-definite draw within {_TRIES} tries")


def sparse_pd(n: int, s: int = 10, lambda_target: float = 1.0, seed: int = 0) -> np.ndarray:
    """Random sparse symmetric PD n x n matrix with lambda_min placed exactly.

    s counts nonzeros per row including the diagonal (1 <= s <= n), and
    seed seeds every draw. A symmetric off-diagonal pattern with at most
    s-1 entries per row is filled with uniform (0, 1] values, the diagonal
    is set to the row sum (weak diagonal dominance, so the matrix starts
    positive semidefinite), and a uniform diagonal shift places the
    smallest eigenvalue at lambda_target > 0. All entries stay nonnegative
    because the shift can never exceed the smallest diagonal element.

    The pattern comes from 20 n (s-1) random (row, column) draws taken in
    order: a draw is placed unless it is diagonal, joins a pair already
    placed (a nonzero entry, since every value lies in (0, 1]), or touches
    a row that already holds s-1 entries. A full row never reopens, so each
    chunk of draws is first screened in numpy against the rows open when
    the chunk begins, and only the survivors go through the exact test and
    are written straight into the matrix. Placement ends once fewer than
    two rows are open, since no later draw could be placed.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if s < 1:
        raise DomainError(f"s must be >= 1, got {s}")
    if s > n:
        raise DomainError(f"s = {s} nonzeros per row is infeasible for n = {n}")
    if not 0 < lambda_target < np.inf:
        raise DomainError(f"lambda_target must be positive and finite, got {lambda_target}")
    want = s - 1
    rng = np.random.default_rng(seed)
    a = np.zeros((n, n))
    if want > 0 and n > 1:
        degree = [0] * n
        budget = 20 * n * want
        rows = rng.integers(0, n, size=budget)
        cols = rng.integers(0, n, size=budget)
        vals = 1.0 - rng.random(budget)  # uniform on (0, 1]
        is_open = np.ones(n, dtype=bool)
        still_open = n
        chunk = 4 * n
        for start in range(0, budget, chunk):
            r, c = rows[start : start + chunk], cols[start : start + chunk]
            live = np.flatnonzero((r != c) & is_open[r] & is_open[c])
            for i, j, v in zip(r[live].tolist(), c[live].tolist(), vals[live + start].tolist()):
                if degree[i] >= want or degree[j] >= want or a[i, j]:
                    continue
                a[i, j] = a[j, i] = v
                for row in (i, j):
                    degree[row] += 1
                    if degree[row] == want:
                        is_open[row] = False
                        still_open -= 1
            if still_open < 2:
                break
    np.fill_diagonal(a, a.sum(axis=1))
    lam0 = float(np.linalg.eigvalsh(a)[0])
    a[np.diag_indices(n)] += lambda_target - lam0
    return a


def random_vector(n: int, seed: int = 0) -> np.ndarray:
    """Vector of n independent uniform draws on [-1, 1)."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    return -1.0 + 2.0 * np.random.default_rng(seed).random(n)
