"""Digital baseline solver used for run-time comparisons.

A plain conjugate-gradient iteration whose iteration count is the
quantity of interest: the experiment suites compare the circuit's
computing time against iterations * n * s as the relative digital cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .spectral import _as_square

__all__ = ["CgResult", "conjugate_gradient"]


@dataclass
class CgResult:
    """Conjugate-gradient outcome: the iterate, its iteration count and whether it converged."""

    x: np.ndarray
    iterations: int
    converged: bool


_ITERS_PER_UNKNOWN = 10  # conjugate_gradient's cap on iterations, per unknown


def conjugate_gradient(a, b, tol: float = 1e-8) -> CgResult:
    """Solve A x = b for symmetric positive-definite A from x(0) = 0.

    Stops when ||A x - b||_2 <= tol * ||b||_2, or unconverged after 10 n
    iterations. The iteration updates its residual r by recurrence, which
    drifts from b - A x by rounding and can fall far below the accuracy x
    reaches (to 0 at tol = 0), so a stop the updated residual allows is
    confirmed on the true residual b - A x; where that one does not pass,
    the iteration restarts from it (residual replacement; van der Vorst and
    Ye, SIAM J. Sci. Comput. 22, 2000), and a tol below what rounding
    allows ends unconverged at the cap. Raises DomainError for a matrix that
    is not finite or not equal to its transpose bit for bit, and when an
    indefinite direction (p^T A p <= 0) is encountered.
    """
    a = _as_square(a)
    b = np.asarray(b, dtype=float)
    if b.shape != (a.shape[0],):
        raise DomainError(f"rhs shape {b.shape} does not match matrix {a.shape}")
    if not np.array_equal(a, a.T) or not np.isfinite(a).all():
        raise DomainError("conjugate gradient requires a finite symmetric matrix")
    if not tol >= 0:
        raise DomainError(f"tol must be nonnegative, got {tol}")

    n = b.size
    threshold = tol * float(np.linalg.norm(b))

    x = np.zeros(n)
    r = b.copy()
    if float(np.linalg.norm(r)) <= threshold:
        return CgResult(x=x, iterations=0, converged=True)

    p = r.copy()
    rs = float(r @ r)
    converged = False
    iterations = 0
    for iterations in range(1, _ITERS_PER_UNKNOWN * n + 1):
        ap = a @ p
        pap = float(p @ ap)
        if pap <= 0:
            raise DomainError(f"p^T A p = {pap:.3e} is not positive; matrix is not PD")
        gamma = rs / pap
        x += gamma * p
        r -= gamma * ap
        if float(np.linalg.norm(r)) <= threshold:
            r = b - a @ x
            if float(np.linalg.norm(r)) <= threshold:
                converged = True
                break
            p, rs = r.copy(), float(r @ r)
            continue
        rs_next = float(r @ r)
        p = r + (rs_next / rs) * p
        rs = rs_next
    return CgResult(x=x, iterations=iterations, converged=converged)
