"""Continuous-time oracle: the loop ODE's closed form by the matrix exponential.

The feedback loop dx/dt = -gbw (M x - U b) has the fixed point x* of
A x = b, so x(t) = x* + expm(-gbw M t) (x0 - x*). This holds for any M,
symmetric or not, and is independent of the forward-difference update the
transient engine steps.
"""

import numpy as np
import scipy.linalg

from crossolve import DomainError, NumericalError, OpAmpModel


def analytic_trajectory(system, b, x0, oa: OpAmpModel | None = None, t: float = 0.0) -> np.ndarray:
    """Continuous-time state x(t) = x* + expm(-gbw M t) (x0 - x*).

    x* is the system's guarded direct solve of b, so a b the system has just
    solved is not solved again. Singular systems have no fixed point and
    raise DomainError, and so does an x0 whose shape differs from b's.
    """
    if oa is None:
        oa = OpAmpModel()
    b = np.asarray(b, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    try:
        x_star = system.solve(b)
    except NumericalError as exc:
        raise DomainError(f"no fixed point: {exc}") from exc
    if x0.shape != x_star.shape:
        raise DomainError(f"x0 shape {x0.shape} does not match system size {x_star.shape}")
    decay = scipy.linalg.expm(-oa.gbw * float(t) * system.m)
    return x_star + decay @ (x0 - x_star)
