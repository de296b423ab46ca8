"""Modal oracle for symmetric transients: step counts from eigh, without stepping.

For symmetric positive-definite A, the loop's step matrix is
P = I - alpha U A = U^1/2 (I - alpha S) U^-1/2 with S = U^1/2 A U^1/2 =
V diag(mu) V^T. From x(0) = 0 the error after k steps is e_k = P^k (-x*), so

    ||e_k||_A^2 = sum_i mu_i w_i^2 (1 - alpha mu_i)^(2k),   w = V^T U^-1/2 x*.

Each factor lies in (0, 1) when alpha rho(M) < 1, so the form falls
monotonically in k and bisection finds its first crossing of epsilon^2 in
O(n) per probe. The continuous loop dx/dt = -gbw (M x - U b) has the same
form with exp(-2 mu_i s) for the factor, at s = gbw t. In l2,

    ||e_k||_2^2 = sum_ij (c_i c_j)^k w_i w_j G_ij,   c = 1 - alpha mu, G = V^T U V,

which need not fall monotonically in k, so its first crossing is found by
evaluating every k, at O(n^2) each. Nothing here calls the transient engine.
"""

from collections.abc import Callable

import numpy as np

from crossolve import direct_solve


def _modes(system, b) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The eigenvalues mu and eigenvectors V of U^1/2 A U^1/2, and w = V^T U^-1/2 x*."""
    root_u = np.sqrt(system.u)
    mu, v = np.linalg.eigh(root_u[:, None] * system.a * root_u[None, :])
    return mu, v, v.T @ (direct_solve(system.a, b) / root_u)


def energy_crossing(system, b, alpha: float, epsilon: float) -> tuple[int, Callable[[int], float]]:
    """First step at which the closed-form ||e_k||_A^2 drops to epsilon^2, and that form.

    b is one right-hand side of shape (n,); system is a FeedbackSystem over
    a symmetric positive-definite matrix, stepped with gain alpha.
    """
    mu, _, w = _modes(system, b)
    weight = mu * w * w
    decay = np.log1p(-alpha * mu)

    def energy(k: int) -> float:
        return float(np.sum(weight * np.exp(2 * k * decay)))

    target = epsilon * epsilon
    lo, hi = -1, 1  # energy(hi) <= target, and energy(lo) > target unless lo = -1
    while energy(hi) > target:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if energy(mid) > target:
            lo = mid
        else:
            hi = mid
    return hi, energy


def l2_crossing(system, b, alpha: float, epsilon: float) -> tuple[int, Callable[[int], float]]:
    """First step at which the closed-form ||e_k||_2^2 drops to epsilon^2, and that form.

    b is one right-hand side of shape (n,); system is a FeedbackSystem over
    a symmetric positive-definite matrix, stepped with gain alpha. The steps
    are evaluated in order, 256 at a time, up to the first crossing.
    """
    mu, v, w = _modes(system, b)
    gram = v.T @ (system.u[:, None] * v)
    decay = np.log1p(-alpha * mu)

    def forms(ks: np.ndarray) -> np.ndarray:
        scaled = np.exp(np.multiply.outer(ks, decay)) * w  # row k: c^k w
        return np.einsum("ki,ij,kj->k", scaled, gram, scaled)

    target = epsilon * epsilon
    start = 0
    while True:
        ks = np.arange(start, start + 256)
        hits = np.flatnonzero(forms(ks) <= target)
        if hits.size:
            return int(ks[hits[0]]), lambda k: float(forms(np.array([k]))[0])
        start += 256


def continuous_crossings(system, b, levels) -> list[float]:
    """gbw * tau_c: where the continuous loop's ||e||_A^2 drops to each of levels.

    b is one right-hand side of shape (n,). Each crossing comes from 60
    halvings of a bracket [s/2, s] on s = gbw t, or [0, 1] below s = 1.
    """
    mu, _, w = _modes(system, b)
    weight = mu * w * w

    def energy(s: float) -> float:
        return float(np.sum(weight * np.exp(-2.0 * s * mu)))

    crossings = []
    for target in levels:
        lo, hi = 0.0, 1.0
        while energy(hi) > target:
            lo, hi = hi, 2.0 * hi
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if energy(mid) > target:
                lo = mid
            else:
                hi = mid
        crossings.append(hi)
    return crossings
