"""Feedback-circuit dynamics: stability, transient simulation, inversion.

The circuit wires a crosspoint array carrying A into the feedback path of
one op amp per row. Each summing node attenuates its row by
u_i = 1/(1 + sum_j A_ij), so the closed loop relaxes as

    dx/dt = -gbw * (M x - U b),      M = diag(u) A,

whose fixed point is the solution of A x = b. The simulator advances the
explicit forward-difference form of that loop,

    x(t + dt) = alpha U b + (I - alpha M) x(t),      dt = alpha / gbw,

and reports the computing time tau = steps * alpha / gbw at which the
error against the direct-solve oracle first drops below epsilon. Poles
sit at -gbw * eig(M), so the circuit is stable exactly when every
eigenvalue of M has positive real part.

At small n each step is a few flops, and one Python round trip per step
would cost far more than the arithmetic. The simulator therefore evaluates
the same recurrence D steps per product, x(t + j dt) = P^j x(t) + c_j with
P = I - alpha M, from stacked powers of P of degree D (the matrix powers
kernel of s-step Krylov methods; Demmel, Hoemmen, Mohiyuddin and Yelick,
IPDPS 2008). D is chosen from n and the step count that eig(M) predicts:
at most 256, reached at n <= 16, and 1 (one step per product) at large n.
A block whose every column took a certified jump (below) chooses D again
from the steps its passes have left, so it builds no more powers than its
tail can use.
The loop settles in a time set by the smallest eigenvalue of M, not by n,
so even a 3 x 3 system takes hundreds of steps. Each pass of the loop
fills T states with T/D such products and runs the stopping tests once
over all T, so every step is still tested. T is D for a block; a single
right-hand side, whose stop ends the run, tests at least 16 steps per pass
with the same products, so that at large n the tests no longer cost as
much as the product on every step. The trace of a single right-hand side
reads its samples from the rows of each pass, so it changes neither D nor T.

Most of a run is the long approach to epsilon, where no step can stop. A
block with lambda_M,min > 0 on an exactly symmetric A, or under l2 on a
nonsymmetric A with a positive definite symmetric part, therefore first
skips those steps column by column, J per product, x <- P^J x + c_J, with
P^J from repeated squaring, keeping a column's jump only when a bound on
the powers of P proves that the column could not have stopped at a skipped
step (proof in simulate). Each column descends J, J/2, J/4, ..., jumping
on each rung from its own state while its own certificate holds, so it
leaves the ladder near its own reach, not where the block's first column
was refused. The recurrence does not depend on the step index, so the
passes then start every column at its own reach, in the same products,
and test it and every later step. tau and the step counts include the
skipped steps.

The states are stored one row per right-hand side, (k, T, n), so each
product is X^T [P^T ... (P^D)^T] of shape (k x n)(n x D n) rather than
[P; ...; P^D] X of shape (D n x n)(n x k). The two take the same flops, but
OpenBLAS packs and tiles the long side D n of the output better when it
runs along the rows: on one thread of a 2-vCPU x86-64 VM the first form
took 0.61-0.81 of the time of the second at n = 30-300 and k = 12-25, and
0.58-0.75 at n = 100, D = 6, k = 1, while at n = 200, D = 1, k = 1 the two
took the same time (the packing of Goto and van de Geijn, "Anatomy of
high-performance matrix multiplication", ACM TOMS 2008). The stopping
tests then reduce over the contiguous last axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    ConfigError,
    DomainError,
    InversionError,
    NumericalError,
    StabilityError,
    UsageError,
)
from .spectral import _as_square, _is_integer, attenuation, direct_solve, factorize, sym_part_lambda_min

__all__ = [
    "OpAmpModel",
    "FeedbackSystem",
    "StabilityReport",
    "SolveConfig",
    "Trace",
    "SolveResult",
    "build_feedback",
    "stability_report",
    "resolve_step",
    "simulate",
    "time_bound",
    "invert_matrix",
    "slew_check",
]


@dataclass(frozen=True)
class OpAmpModel:
    """Single-pole op-amp model: gain-bandwidth product gbw (rad/s), open-loop gain l0.

    gbw sets the loop's time scale, and l0 enters only the finite-gain
    correction I/l0. Default slew rate matches a general-purpose JFET
    amplifier (22 V/us).
    """

    gbw: float = 1e8
    l0: float = 1e5
    slew_rate: float = 2.2e7

    def __post_init__(self) -> None:
        if not 0 < self.gbw < math.inf:
            raise ConfigError(f"gbw must be positive and finite, got {self.gbw}")
        if not self.l0 > 1:
            raise ConfigError(f"open-loop gain must exceed 1, got {self.l0}")
        if not self.slew_rate > 0:
            raise ConfigError(f"slew_rate must be positive, got {self.slew_rate}")


@dataclass
class FeedbackSystem:
    """A realized feedback loop: matrix a, row attenuations u, and m = diag(u) a.

    Whether a is symmetric, the eigenvalues of m, the spectral numbers read
    from them and the guarded LU factors of a are computed on first use and
    kept, so every solve and report on the same system shares them. The
    last right-hand side solved is kept with its solution, so a transient
    and the time bound of the same block share one solve.
    """

    a: np.ndarray
    u: np.ndarray
    m: np.ndarray
    placed_lambda_min: float | None = field(default=None, repr=False, compare=False)
    _solved: tuple[np.ndarray, np.ndarray] | None = field(default=None, init=False, repr=False, compare=False)

    @cached_property
    def lu(self) -> tuple[np.ndarray, np.ndarray]:
        return factorize(self.a)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Guarded direct solve of a x = b: a fresh array, shaped like b.

        A right-hand side of shape (n,) is kept as its (n, 1) column, so a
        vector and its column share one solve.
        """
        b = np.asarray(b, dtype=float)
        block = b[:, None] if b.ndim == 1 else b
        solved = self._solved
        if solved is None or not np.array_equal(solved[0], block):
            x = direct_solve(self.a, b, self.lu)
            solved = self._solved = (block.copy(), x.reshape(block.shape))
        return solved[1].reshape(b.shape).copy()

    @cached_property
    def symmetric(self) -> bool:
        """Whether a equals its transpose bit for bit."""
        return np.array_equal(self.a, self.a.T)

    @cached_property
    def m_eigenvalues(self) -> np.ndarray:
        """Eigenvalues of m: real and ascending when a is symmetric, else complex.

        For symmetric a, m = U a is similar to the symmetric U^1/2 a U^1/2
        (U = diag(u) > 0), so the symmetric eigensolver gives its spectrum.
        """
        try:
            if self.symmetric:
                root_u = np.sqrt(self.u)
                # eigvals rejects the NaN that an infinite entry of a leaves; eigvalsh would return NaNs
                return np.linalg.eigvalsh(np.asarray_chkfinite(root_u[:, None] * self.a * root_u[None, :]))
            return np.linalg.eigvals(self.m)
        except (np.linalg.LinAlgError, ValueError) as exc:
            raise NumericalError(f"eigensolver failed on M: {exc}") from exc

    @cached_property
    def lambda_m_min(self) -> float:
        """Smallest real part of an eigenvalue of m: the slowest mode of the loop."""
        return float(self.m_eigenvalues.real.min())

    @cached_property
    def rho(self) -> float:
        """Spectral radius of m, which caps the step gain alpha."""
        return float(np.abs(self.m_eigenvalues).max())

    @cached_property
    def lambda_min(self) -> float:
        """Smallest eigenvalue of (a + a^T)/2: placed_lambda_min where build_feedback was handed it."""
        if self.placed_lambda_min is not None:
            return self.placed_lambda_min
        return sym_part_lambda_min(self.a)


def build_feedback(a, lambda_min: float | None = None) -> FeedbackSystem:
    """Wrap a nonnegative square matrix into its feedback-loop form.

    lambda_min, when given, is lambda_min((a + a^T)/2) as the caller already
    holds it, and the system reports it in place of a symmetric eigensolve.
    It must agree with that eigensolve to within its rounding, as the value
    sparse_pd places does: there a = a0 + t I with t = lambda - l0 and
    l0 = eigvalsh(a0)[0], for a nonnegative, diagonally dominant a0 with at
    most s nonzeros a row. Take the eigensolver to be exact for a matrix
    within n u of its own two-norm, u = 2^-53 (Weyl's inequality and the
    solver's backward stability; Golub and Van Loan, Matrix Computations,
    4th ed., 2013, 8.1). Then l0 errs by n u ||a0||_2, the shift and the
    diagonal add by u (|t| + ||a||_2), and a recomputed eigvalsh(a)[0] by
    n u ||a||_2. On the heaviest off-diagonal pair of a0, weight w, the
    vectors e_i +- e_j give lambda_max(a0) - lambda_min(a0) >= 2 w, while
    a0's diagonal is at most (s - 1) w; so lambda_min(a0) <=
    (1 - 2/s) lambda_max(a0). With t >= -lambda_min(a0) and t <= lambda <=
    ||a||_2, this gives ||a0||_2 and |t| at most max(1, s/2) ||a||_2. Up to
    terms in u^2, lambda and eigvalsh(a)[0] then differ by at most
    (max(1, s/2) + 1)(n + 1) u ||a||_2, which is 12 n u ||a||_2 at s <= 10.
    """
    a = _as_square(a)
    u = attenuation(a)
    return FeedbackSystem(a=a, u=u, m=u[:, None] * a, placed_lambda_min=None if lambda_min is None else float(lambda_min))


@dataclass
class StabilityReport:
    """The three spectral numbers of one feedback system that every experiment record reports.

    lambda_min is the smallest eigenvalue of (A + A^T)/2, lambda_m_min the
    smallest real part of an eigenvalue of M = diag(u) A, and u_min the
    smallest row attenuation. M's full spectrum is FeedbackSystem.m_eigenvalues.
    """

    lambda_min: float
    lambda_m_min: float
    u_min: float


def stability_report(system: FeedbackSystem) -> StabilityReport:
    """The system's lambda_min, lambda_m_min and u_min."""
    # M's spectrum comes first: its eigensolver rejects a non-finite A with
    # NumericalError before lambda_min(A) is tried.
    lambda_m_min = system.lambda_m_min
    return StabilityReport(lambda_min=system.lambda_min, lambda_m_min=lambda_m_min, u_min=float(system.u.min()))


@dataclass(frozen=True)
class SolveConfig:
    """Stopping rule and step-size policy for the transient simulation.

    epsilon is an absolute error threshold against the direct-solve
    oracle, measured in norm_kind ("l2" or "a_norm"). The dimensionless
    step gain is alpha = alpha_fraction / rho(M), or alpha_fraction itself
    where rho(M) is 0. include_gain_correction adds the finite-gain term
    I/l0 to M, modeling the op amp's finite open-loop gain; simulate then
    raises DomainError unless epsilon exceeds the error floor this leaves.
    A run times out after max_steps steps, and an unstable system runs only
    under allow_unstable. A column diverges once ||x||_2 exceeds
    1e6 max(1, ||x*||_2), and a trace keeps at most 10^4 samples.
    """

    epsilon: float = 1e-3
    norm_kind: str = "l2"
    alpha_fraction: float = 0.1
    max_steps: int = 1_000_000
    include_gain_correction: bool = False
    allow_unstable: bool = False

    def __post_init__(self) -> None:
        if not 0 < self.epsilon < math.inf:
            raise ConfigError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.norm_kind not in ("l2", "a_norm"):
            raise ConfigError(f"norm_kind must be 'l2' or 'a_norm', got {self.norm_kind!r}")
        if not self.alpha_fraction > 0:
            raise ConfigError(f"alpha_fraction must be positive, got {self.alpha_fraction}")
        if not _is_integer(self.max_steps) or self.max_steps < 1:
            raise ConfigError(f"max_steps must be an integer >= 1, got {self.max_steps!r}")


def resolve_step(system: FeedbackSystem, oa: OpAmpModel, cfg: SolveConfig) -> tuple[float, float]:
    """Resolve the step gain alpha and physical step dt = alpha / gbw.

    Raises StabilityError for an unstable system unless the config allows
    unstable runs, and ConfigError when alpha * rho(M) >= 1 (the update
    would not contract even for the fastest mode).
    """
    lam_min, rho = system.lambda_m_min, system.rho
    if lam_min <= 0 and not cfg.allow_unstable:
        raise StabilityError(
            f"system is unstable (min Re eig(M) = {lam_min:.3e}); "
            "set allow_unstable to simulate it anyway"
        )
    alpha = cfg.alpha_fraction / rho if rho > 0 else cfg.alpha_fraction
    if alpha * rho >= 1.0:
        raise ConfigError(f"alpha * rho(M) = {alpha * rho:.3f} must stay below 1")
    return alpha, alpha / oa.gbw


@dataclass
class Trace:
    """Decimated samples of a transient: times (s), states, error norms."""

    times: np.ndarray
    states: np.ndarray
    errors: np.ndarray


@dataclass
class SolveResult:
    """Outcome of one transient run over one right-hand side or a block.

    x_star is the guarded direct solve of A x = b that the run's error was
    measured against, with the same shape as x_final.

    For a single right-hand side b of shape (n,), x_final has shape (n,),
    tau is steps * alpha / gbw exactly, and converged and diverged are
    both False when the run hit max_steps (a timeout). trace holds the
    run's decimated samples, and max_slew is the largest
    |x_i(t + dt) - x_i(t)| / dt (V/s) over every step the run took, not
    only the sampled ones.

    For a block b of shape (n, k), x_final has shape (n, k) and tau,
    converged and diverged are length-k arrays, one entry per column.
    column_steps holds each column's integer step count and steps is their
    total. A block run records no trace and no max_slew (both None), so a
    single right-hand side runs untraced as the block of shape (n, 1).
    column_steps is None for a single right-hand side.
    """

    x_final: np.ndarray
    x_star: np.ndarray
    tau: float | np.ndarray
    converged: bool | np.ndarray
    diverged: bool | np.ndarray
    trace: Trace | None
    steps: int
    max_slew: float | None
    column_steps: np.ndarray | None = None


# A column diverges once ||x||_2 exceeds this multiple of max(1, ||x*||_2).
_DIVERGENCE_FACTOR = 1e6
# Relative slack of the divergence screen: a column is checked exactly once
# ||x - x*|| + ||x*|| comes within this fraction of the divergence threshold,
# far above the rounding error of the norms, so the verdict is the one an
# exact ||x|| test on every step would give.
_SCREEN_SLACK = 1e-9
# Most samples a trace keeps before the stop.
_TRACE_LIMIT = 10_000

# Cost model of the degree D of the stacked powers. One product and its
# round of stopping tests cost about _PASS_S of interpreter time whatever its
# D, and building the stacked powers of P costs about 2 D n^3 flops at
# _FLOP_S each (10 GFLOP/s, below what one x86-64 core's BLAS reaches on
# products of n = 100-300). Over a run of S steps the sum
# S _PASS_S / D + 2 D n^3 _FLOP_S is least at D = sqrt(S _PASS_S / (2 n^3 _FLOP_S)).
_PASS_S = 15e-6
_FLOP_S = 1e-10
_MAX_LOOKAHEAD = 256
# Cap on the D n^2 doubles of the stacked powers (512 KiB).
_STACK_DOUBLES = 1 << 16
# Matrix size from which _stack_powers sums the powers with whole-matrix adds.
_ACCUMULATE_BELOW = 16


def _lookahead(n: int, steps: float) -> int:
    """Degree D of the stacked powers: the steps one product advances an n x n system.

    steps is the step count the passes are predicted to take: the whole
    run's, or, where every column of a block took a certified jump, the
    run's less the smallest jump reach. D is the cost model's optimum,
    clamped to [1, _MAX_LOOKAHEAD] and to D n^2 <= _STACK_DOUBLES: up to
    256 at n <= 16, 1 at n > 181, and 1 wherever the steps left are too few
    for the powers to pay for themselves.

    At n = 3 the optimum is about 1400 and the cap binds. A block stops its
    columns only at the end of a pass, so past some D the steps computed
    after a column's stop cost more than the passes saved. On 240 warm
    lambda_sweep systems (3 x 3, 3 right-hand sides, one BLAS thread of a
    2-vCPU x86-64 VM, 12 interleaved rounds) simulate took a median of
    266, 217, 209, 209, 213 and 219 us per system at caps 64, 128, 192,
    256, 384 and 512, with the same step counts.
    """
    if not steps > 0:
        return 1
    best = int(math.sqrt(steps * _PASS_S / (2.0 * n**3 * _FLOP_S)))
    return max(1, min(best, _MAX_LOOKAHEAD, _STACK_DOUBLES // (n * n)))


# Largest certified jump J. At most _MAX_JUMP steps are skipped per product;
# 1 turns the jumps off.
_MAX_JUMP = 1 << 12
# Relative slack of the jump certificate: a skipped step's error exceeds
# epsilon by at least this fraction, far above the rounding that separates
# a jump's states from the one-step states.
_JUMP_SLACK = 1e-6
# A column takes rung 2^j only while n u C_j (1 + j) ||x*|| is at most this
# share of the slack _JUMP_SLACK epsilon (see simulate).
_ROUNDING_SHARE = 0.1
_UNIT_ROUNDOFF = np.finfo(float).eps / 2


def _costs(n: int, k: int, lookahead: int) -> tuple[float, float]:
    """Seconds of one jump of a (k x n) block, its product and round of tests, and of one step of its passes."""
    flops = 2.0 * k * n * n * _FLOP_S
    return flops + _PASS_S, flops + _PASS_S / lookahead


def _jump(n: int, k: int, steps: float, lookahead: int) -> int:
    """Steps J that one certified jump advances a block: a power of two, 1 for no jump.

    steps is the certificate's span, the steps the jumps may cover before
    some column's error nears its bar (0 for no jump), and lookahead the D
    the one-step passes would use. The squarings that give P^J cost
    log2(J) 2 n^3 flops and each jump one (k x n)(n x n) product and a round
    of tests, while each step a jump skips saves a step's 2 k n^2 flops and
    1/D of a pass. The count takes the first jump that fails its certificate
    as wasted and up to J steps before it as left to the one-step passes;
    each column then goes on down the lower rungs, jumping on each while its
    certificate holds (see _certified_jumps), and leaves the passes fewer,
    so the count errs towards a shorter J. J is the power of two, at most
    min(steps, _MAX_JUMP), that saves the most by this count, or 1 where
    none saves anything.
    """
    product, step = _costs(n, k, lookahead)
    best, saved, jump = 1, 0.0, 2
    while jump <= min(steps, _MAX_JUMP):
        gain = (steps - jump) * step - (steps / jump + 1) * product - math.log2(jump) * 2.0 * n**3 * _FLOP_S
        if gain > saved:
            best, saved = jump, gain
        jump *= 2
    return best


def _growth(system: FeedbackSystem, alpha: float, jump: int) -> list[float]:
    """[max(1, gamma)^2, max(1, gamma)^4, ..., max(1, gamma)^J] for J = jump: entry j - 1 bounds ||S^i||_2, i <= 2^j.

    S = I - alpha U^1/2 A U^1/2. With K = U^1/2 A U^1/2, gamma^2 = 1 - 2 mu +
    alpha^2 ||K||_1 ||K||_inf bounds ||S||_2^2 where mu = alpha u_min
    lambda_min((A + A^T)/2) (see simulate); it is formed once for all
    rungs. A is nonnegative, so K's largest row and column sums are its
    two norms. The eigensolver's lambda_min errs by a small multiple of
    n eps ||A||_2 for the machine epsilon eps, and u_min ||A||_2 <= ||K||_2
    because K >= u_min A entrywise, so mu is taken with alpha 4 n eps
    sqrt(||K||_1 ||K||_inf) off. gamma^2 is then rounded up by
    8 eps (2 + alpha^2 ||K||_1 ||K||_inf), more than the rounding of the
    operations that form it. A growth beyond the largest double is returned
    as inf, which leaves its rung no room.
    """
    u, a = system.u, system.a
    root = np.sqrt(u)
    k_sq = float((root * (a @ root)).max()) * float((root * (root @ a)).max())  # ||K||_inf ||K||_1 >= ||K||_2^2
    eps = np.finfo(float).eps
    mu = alpha * (float(u.min()) * system.lambda_min - 4.0 * a.shape[0] * eps * math.sqrt(k_sq))
    pull = alpha * alpha * k_sq
    gamma_sq = max(1.0, 1.0 - 2.0 * mu + pull + 8.0 * eps * (2.0 + pull))
    growth = []
    for rung in range(1, jump.bit_length()):
        try:
            growth.append(math.pow(gamma_sq, 1 << (rung - 1)))
        except OverflowError:
            growth.append(math.inf)
    return growth


def _certified_jumps(
    system: FeedbackSystem,
    block: np.ndarray,
    x_star: np.ndarray,
    alpha: float,
    propagate: np.ndarray,
    drive: np.ndarray,
    screen: np.ndarray,
    cfg: SolveConfig,
    star_norm: np.ndarray,
    spreads: list[float],
    bounds: list[float],
    cap: np.ndarray,
    lookahead: int,
    energy: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Advance each column of a block from x(0) = 0 down a ladder of certified jumps: 2^L, 2^(L-1), ..., each while it holds.

    Returns the state rows (k, n) and each column's reach s_i, the step of
    its last certified state, at which simulate's first pass starts it. A
    column that takes no jump keeps x(0) = 0 and s_i = 0, as does one whose
    step-0 error is epsilon or less, which its cap and certificate refuse.
    spreads and bounds hold C_2,j and C_j of the rungs 2, 4, ..., 2^L, cap
    each column's highest rung, and lookahead the passes' D. The ladder
    runs only where a jump at its top rung costs less than the steps of the
    passes it skips. Each column jumps by 2^j from its own state while its
    own certificate holds, then goes on at 2^(j-1), from the top rung down
    to the least that saves time; on each rung the columns still jumping
    share one product. P^(2^j) and c_(2^j) come from repeated squaring,
    P^2m = P^m P^m and c_2m = P^m c_m + c_m, from propagate = P = I - alpha M
    and drive = c_1; each rung is freed once used, or below the bottom once
    the next is formed. screen, star_norm and energy (A under "a_norm") are
    simulate's; see it for the proof.
    """
    n, k = block.shape
    x, reach = np.zeros((k, n)), np.zeros(k, dtype=np.int64)
    start_sq = star_norm * star_norm  # ||e_s||_2^2 of each column's next start: ||e_0||_2 = ||x*||_2
    drift = alpha * (system.u[:, None] * (block - system.a @ x_star))  # g = alpha U (b - A x*)
    drift_l2 = np.sqrt(np.vecdot(drift, drift, axis=0))
    drift_run = drift_l2 if energy is None else np.sqrt(np.vecdot(drift, energy @ drift, axis=0))

    def room_sq(rung: int) -> np.ndarray:
        # A start and end error within room keep every ||x||_2 of a jump of
        # 2^rung below the screen; a column past its cap gets none.
        room = np.where(cap >= rung, screen / spreads[rung - 1] - (1 << rung) * drift_l2, -1.0)
        return np.where(room > 0, room * room, -1.0)

    def bar_sq(rung: int) -> np.ndarray:
        # An end error above bar leaves every skipped error above epsilon (1 + slack).
        bar = bounds[rung - 1] * (cfg.epsilon * (1.0 + _JUMP_SLACK) + (1 << rung) * drift_run)
        return bar * bar

    # Squarings only up to the highest rung where some column's start fits,
    # and only where one jump there costs less than the steps of the passes
    # it skips (_jump's count).
    top = len(spreads)
    while top and not np.count_nonzero(start_sq <= room_sq(top)):
        top -= 1
    product, step = _costs(n, k, lookahead)
    if not (1 << top) * step > product:
        return x, reach
    # A rung below the top skips about half its 2^j steps per column before
    # a refusal sends the column lower: it pays where they cost the passes
    # more than its product and its setup, about two passes' interpreter time.
    bottom = min(top, math.floor(math.log2((product + 2.0 * _PASS_S) / step)) + 2)
    power, offset, ladder = propagate, drive, []
    for rung in range(1, top + 1):
        power, offset = power @ power, power @ offset + offset
        if rung >= bottom:
            ladder.append((power.T, offset.T))
    del power, offset  # so that each rung is freed once used
    target = np.ascontiguousarray(x_star.T)

    # Each rung, from the top down: the columns whose start fits it jump in
    # one product, gathered once per refusal. The columns that keep a
    # refused jump take it and go on; the refused ones try the next rung.
    for rung in range(top, bottom - 1, -1):
        power_t, shift = ladder.pop()
        size, bar, fit = 1 << rung, bar_sq(rung), room_sq(rung)
        live = np.flatnonzero((start_sq <= fit) & (reach + size < cfg.max_steps))
        while live.size:
            rows, plus, goal, high, wide = x[live], shift[live], target[live], bar[live], fit[live]
            y, d = np.empty_like(rows), np.empty_like(rows)
            room_jumps, taken = (cfg.max_steps - 1 - int(reach[live].max())) // size, 0
            while taken < room_jumps:
                np.matmul(rows, power_t, out=y)
                y += plus
                np.subtract(y, goal, out=d)
                sq = np.vecdot(d, d)
                q = sq if energy is None else np.vecdot(d, d @ energy)
                kept = (q > high) & (sq <= wide)
                if np.count_nonzero(kept) < live.size:
                    break
                rows, y, end_sq, taken = y, rows, sq, taken + 1
            if taken:
                x[live], reach[live], start_sq[live] = rows, reach[live] + taken * size, end_sq
            if taken < room_jumps:  # the columns kept by the refused jump take it
                live = live[kept]
                x[live], reach[live], start_sq[live] = y[kept], reach[live] + size, sq[kept]
            live = live[reach[live] + size < cfg.max_steps]
    return x, reach


def _propagator(m: np.ndarray, alpha: float) -> np.ndarray:
    """P = I - alpha M, bit for bit np.eye(n) - alpha * m, in one n x n array.

    Each entry is 0 - alpha m_ij, plus 1 on the diagonal, as the identity's
    entries give it; 1 + (-t) is 1 - t exactly, and 0 - t keeps a zero
    positive.
    """
    p = alpha * m
    np.subtract(0.0, p, out=p)
    p.flat[:: m.shape[0] + 1] += 1.0
    return p


def _stack_powers(propagate: np.ndarray, drive: np.ndarray, lookahead: int) -> tuple[np.ndarray, np.ndarray]:
    """Stacked powers [P; P^2; ...; P^D] of shape (D n, n) and offsets [c_1; ...; c_D] of shape (D, n, k).

    c_j = (I + P + ... + P^(j-1)) drive is the state j steps after x = 0, so
    the state j steps after x is P^j x + c_j. The powers double in one
    preallocated array [I; P; ...; P^D], P^(m+i) = P^i P^m for i = 1 ..
    min(m, D - m), one stacked product per doubling, and the sums of powers
    accumulate from the same array; D = 1 gives P itself and c_1 = drive.
    """
    n = propagate.shape[0]
    stack = np.empty((lookahead + 1, n, n))  # [I, P, ..., P^D]
    stack[0] = np.eye(n)
    stack[1] = propagate
    powers = stack[1:]
    m = 1  # powers[:m] hold P .. P^m
    while m < lookahead:
        j = min(m, lookahead - m)
        np.matmul(powers[:j], powers[m - 1], out=powers[m : m + j])
        m += j
    # sums[j - 1] = I + P + ... + P^j. numpy accumulates axis 0 one entry at a
    # time, which beats D - 1 whole-matrix adds only for a small matrix
    # (12 against 99 us at n = 3, 800 against 137 us at n = 30, D = 64). Both
    # make the same additions in the same order.
    if n < _ACCUMULATE_BELOW:
        sums = np.cumsum(stack[:-1], axis=0)[1:]
    else:
        sums = np.empty((lookahead - 1, n, n))
        total = stack[0]
        for j in range(lookahead - 1):
            total = np.add(total, powers[j], out=sums[j])
    offsets = np.empty((lookahead, *drive.shape))
    offsets[0] = drive
    np.matmul(sums.reshape(-1, n), drive, out=offsets[1:].reshape(-1, drive.shape[1]))
    return powers.reshape(-1, n), offsets


# Steps that one pass tests for a single right-hand side. One round of the
# stopping tests costs about the same interpreter time whatever its state
# count (about 9 us at n = 200, next to 12 us for one step's product), so
# 16 states per round cut that cost per step 16-fold, while a run computes
# at most 15 states past its stop.
_BATCH_STEPS = 16


def _batch(lookahead: int, columns: int) -> int:
    """Steps T that one pass of the transient loop tests, a multiple of lookahead.

    A single right-hand side ends the run at its stop, so it can test
    several products' states at once: T = D ceil(16 / D) for D = lookahead.
    A block keeps T = D, because a longer batch would keep its stopped
    columns in the product longer.
    """
    if columns > 1:
        return lookahead
    return lookahead * -(-_BATCH_STEPS // lookahead)


def _products(states: np.ndarray, last: np.ndarray, lookahead: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The (source, out, rows) views of each product that fills states in one pass.

    states has shape (k, T, n), one row of T states per right-hand side.
    Product i advances the state before step i D by 1 .. D steps into
    states i D .. i D + D - 1: source is that state for every column, (k, n)
    (the loop's carry last for i = 0), out is the D states flattened to the
    (k, D n) shape of X [P^T ... (P^D)^T], and rows the same states,
    (k, D, n), for adding the offsets. out and rows share memory with
    states, so the products write the states in place, along the rows of
    each product's long side D n, as BLAS runs fastest (module docstring).
    simulate's first pass starts in state 0 and runs no product 0.
    """
    k, n = states.shape[0], states.shape[2]
    return [
        (states[:, i - 1] if i else last, states[:, i : i + lookahead].reshape(k, lookahead * n), states[:, i : i + lookahead])
        for i in range(0, states.shape[1], lookahead)
    ]


def _thin(samples: list, stride: int) -> tuple[list, int]:
    """Drop every other sample, doubling the stride, until at most _TRACE_LIMIT are left.

    samples are the steps 0, stride, 2 stride, ... in order, so every other
    one of them is the steps that are multiples of the doubled stride.
    """
    while len(samples) > _TRACE_LIMIT:
        samples, stride = samples[::2], 2 * stride
    return samples, stride


def _square_limit(epsilon: float) -> float:
    """Largest double q with sqrt(q) <= epsilon.

    Square root is correctly rounded and therefore monotone, so for any
    q >= 0 the test q <= _square_limit(epsilon) gives the same verdict as
    sqrt(q) <= epsilon, without a square root per step. The math module
    steps past the largest double to inf without an overflow warning.
    """
    q = float(epsilon) * float(epsilon)
    while math.sqrt(q) > epsilon:
        q = math.nextafter(q, -math.inf)
    while math.sqrt(math.nextafter(q, math.inf)) <= epsilon:
        q = math.nextafter(q, math.inf)
    return q


def simulate(
    system: FeedbackSystem,
    b,
    oa: OpAmpModel | None = None,
    cfg: SolveConfig | None = None,
) -> SolveResult:
    """Run the forward-difference transient from x(0) = 0.

    b is one right-hand side of shape (n,) or a block of k right-hand
    sides of shape (n, k). A block steps all its columns together as
    X <- alpha U B + (I - alpha M) X and drops each column once it stops,
    so every column takes the steps it would take on its own.

    Each product evaluates the next D states of that recurrence at once, as
    [P; ...; P^D] X + [c_1; ...; c_D] with P = I - alpha M, computed in the
    transposed form X^T [P^T ... (P^D)^T] that BLAS runs fastest (see the
    module docstring). Each pass of the loop fills T states with T/D
    products and scans all T for the stopping tests, so every step is
    still tested. D comes from n and the step count that lambda_M,min
    predicts, less the smallest reach where every column jumped (below);
    it is 1 for large n, where the loop is the one-step recurrence. Under
    D > 1, x_final may differ in its last bits from one-at-a-time stepping.
    Where the rounding premise below holds, a stop within rounding of
    epsilon may move by one step; nearer the attainable accuracy the order
    of the products decides it (by up to 139 steps at epsilon = 1e-11; see
    ROADMAP.md, item 12). T is D for a block and
    at least 16 for a single column; T changes no bit of the result,
    because the products and their order do not depend on it.

    Certified jumps. A block with lambda_M,min > 0 and no
    include_gain_correction, on an exactly symmetric A (a == a.T bit for
    bit) or, under "l2" only, on a nonsymmetric A whose symmetric part is
    positive definite, first skips steps column by column, 2^j per product,
    x <- P^(2^j) x + c_(2^j). J, the top of this ladder of rungs 2^j, is a
    power of two that a cost model prices once over the span
    ln(min ||x*||_2 / (C epsilon)) / (alpha lambda_M,min), C without its
    growth below (1 means no jump, and a run priced out does no other jump
    work, not even lambda_min((A + A^T)/2)). A column's jump of 2^j from
    step s is kept only when s + 2^j < max_steps,
    ||e_(s+2^j)|| > C_j (epsilon (1 + 1e-6) + 2^j ||g||) in norm_kind, and
    ||e_s||_2 and ||e_(s+2^j)||_2 are at most screen / C_2,j - 2^j ||g||_2.
    Here e_t = x_t - x*, g = alpha U (b - A x*) is the drift the oracle's
    residual leaves, screen = 1e6 max(1, ||x*||_2)(1 - 1e-9) - ||x*||_2 the
    room before the divergence test, and C_2,j bounds ||P^i||_2 for
    i <= 2^j: sqrt(u_max / u_min) = C_2 for a symmetric A,
    C_2 max(1, gamma)^(2^j) for a nonsymmetric one. C_j is C_2,j under "l2"
    and 1 under "a_norm". Each column descends J, J/2, J/4, ..., jumping
    on each rung from its own state while its own certificate holds, and
    starts its passes at its own last certified step. A column takes a rung
    only while the rounding premise below holds for it and its ||x*||,
    decayed at alpha lambda_M,min over the jump, exceeds C_j epsilon; the
    top rung and those below it run only where they save time (see
    _certified_jumps). Every stop, tau, column_steps, divergence verdict and
    max_steps cut is decided on states computed step by step, and tau counts
    the skipped steps. A 1-D b takes no jump: its trace and max_slew read
    every step.

    Proof that no skipped step stops. e_(t+1) = P e_t + g. With
    K = U^1/2 A U^1/2 and S = I - alpha K, P = U^1/2 S U^-1/2, so
    ||P^i||_2 <= C_2 ||S^i||_2. For a symmetric A, S is symmetric with the
    eigenvalues 1 - alpha eig(M), in (0, 1) since 0 < alpha lambda_M,min and
    alpha rho(M) < 1, so ||S^i||_2 <= 1; and A^1/2 P A^-1/2 is symmetric
    with the same eigenvalues, so ||P^i||_A <= 1. For a nonsymmetric A (a
    logarithmic-norm bound; Soderlind, BIT 46, 2006),
    ||S x||^2 = ||x||^2 - 2 alpha x^T K_s x + alpha^2 ||K x||^2 with
    K_s = U^1/2 (A + A^T)/2 U^1/2, x^T K_s x >= u_min
    lambda_min((A + A^T)/2) ||x||^2 and ||K||_2^2 <= ||K||_1 ||K||_inf; so
    ||S||_2 <= gamma, gamma^2 = 1 - 2 alpha u_min lambda_min((A + A^T)/2)
    + alpha^2 ||K||_1 ||K||_inf (formed with an allowance for the
    eigensolver and rounded up), and ||S^i||_2 <= max(1, gamma)^(2^j) for
    i <= 2^j. The energy norm has no such bound, so a nonsymmetric A jumps
    under "l2" only. For a jump of J' = 2^j and 0 <= i <= J',
    e_(s+J') = P^(J'-i) e_(s+i) + (P^0 + ... + P^(J'-i-1)) g, so
    ||e_(s+J')|| <= C_j (||e_(s+i)|| + J' ||g||): a skipped step with
    ||e_(s+i)|| <= epsilon (1 + 1e-6) would leave the end at or below the
    bar, so a kept jump skips no converging step. The slack 1e-6 covers the
    rounding between jump and one-step states, and that of C_j, wherever
    the rounding premise holds. Likewise ||x_(s+i)||_2 <= ||x*||_2 +
    C_2,j (||e_s||_2 + J' ||g||_2) stays below the screen, and
    s + J' < max_steps keeps the cut out of the jump. The room shrinks as
    the rungs grow, so a kept end fits every lower rung as a start. A
    column's recurrence involves no other column, and row i of X^T [P^T ...]
    reads row i of X^T alone, so its certificate holds whatever the others
    do; and since the recurrence does not depend on the step index, the
    passes hold each column at its own step, s_i + (pass) T + t, the offset
    read only at a stop or the max_steps cut. The first pass tests each
    column's start, x(0) = 0 or its last certified state, so a column whose
    step-0 error is epsilon or less, refused every rung, stops at step 0
    while the others jump. As under D > 1, x_final may differ in its last
    bits, and a stop within rounding of epsilon may move by one step.

    Rounding premise. A computed P x + c errs by about n u (|P| |x| + |c|)
    entrywise for the unit roundoff u = 2^-53 (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., 2002, ch. 3), so a jump's
    state, with errors from its product and the j squarings that form
    P^(2^j), carried by powers bounded by C_j, differs from the one-step
    state by about n u C_j (1 + j) ||x*|| in norm_kind (||x*||_A^2 read as
    x*^T b), each column by its own. A column takes rung 2^j only while that
    is at most a tenth of the slack 1e-6 epsilon; far past it rounding, not
    the circuit, decides when an error crosses epsilon (Higham, ch. 17).

    A column converges when its error against the direct-solve oracle first
    drops to epsilon or below. Under include_gain_correction the loop settles
    at x_inf = (M + I/l0)^-1 U b instead of x*, so DomainError is raised,
    before any step, when some column's ||x_inf - x*|| in norm_kind is
    epsilon or more. Divergence is declared when ||x||_2 exceeds
    1e6 max(1, ||x*||_2). A single right-hand side always records its
    trace: the steps that are multiples of a stride, the least power of two
    that keeps at most 10^4 of them up to the stop, and then the stop itself.
    It is read from the rows each pass computes anyway, so the run's
    x_final, steps, tau and verdicts equal bit for bit those of its
    untraced twin, the block b[:, None], wherever that block takes no jump.
    tau, convergence and max_slew always use every step. See SolveResult
    for the shapes of a block result.
    """
    if oa is None:
        oa = OpAmpModel()
    if cfg is None:
        cfg = SolveConfig()
    b = np.asarray(b, dtype=float)
    n = system.a.shape[0]
    if b.ndim not in (1, 2) or b.shape[0] != n or b.size == 0:
        raise DomainError(f"rhs shape {b.shape} does not match system size {n}")
    block = b.reshape(n, -1)
    k = block.shape[1]

    x_star = system.solve(block)
    alpha, dt = resolve_step(system, oa, cfg)

    m_eff = system.m
    drive = alpha * (system.u[:, None] * block)
    energy = system.a if cfg.norm_kind == "a_norm" else None
    if cfg.include_gain_correction:
        m_eff = system.m + np.eye(n) / oa.l0
        # The corrected loop settles at (M + I/l0)^-1 U b, not at x*, so a
        # column whose floor ||x_inf - x*|| is epsilon or more would only time out.
        offset = direct_solve(m_eff, system.u[:, None] * block) - x_star
        floor = float(np.sqrt(np.vecdot(offset, offset if energy is None else energy @ offset, axis=0)).max())
        if floor >= cfg.epsilon:
            raise DomainError(
                f"epsilon {cfg.epsilon:.3e} does not exceed the finite-gain error floor {floor:.3e}; "
                "the loop with include_gain_correction settles at (M + I/l0)^-1 U b, not at x*"
            )
    limit = _square_limit(cfg.epsilon)

    star_norm = np.sqrt(np.vecdot(x_star, x_star, axis=0))
    blow_up = _DIVERGENCE_FACTOR * np.maximum(1.0, star_norm)
    screen = blow_up * (1.0 - _SCREEN_SLACK) - star_norm
    screen_sq = np.where(screen > 0, screen * screen, -1.0)

    max_steps = cfg.max_steps
    single = b.ndim == 1
    lam_min = system.lambda_m_min
    norms = star_norm.tolist()
    top, low = max(norms), min(norms)
    predicted = math.log(top / cfg.epsilon) / (alpha * lam_min) if lam_min > 0 and top > cfg.epsilon else 0.0
    lookahead = _lookahead(n, min(predicted, max_steps))
    # Each column's start, x(0) = 0 or its last certified state, its step and
    # the pass's first step: column i's state j of a pass is step lead[i] + base + j.
    last, lead, base = np.zeros((k, n)), np.zeros(k, dtype=np.int64), 0
    propagate = _propagator(m_eff, alpha)
    u = system.u.tolist()
    spread = math.sqrt(max(u) / min(u))  # C_2
    reach = spread if energy is None else 1.0  # C for a symmetric A
    span = 0.0
    if not single and lam_min > 0 and not cfg.include_gain_correction and low > reach * cfg.epsilon:
        span = math.log(low / (reach * cfg.epsilon)) / (alpha * lam_min)
    jump = _jump(n, k, span, lookahead)
    if jump > 1 and (system.symmetric or (energy is None and system.lambda_min > 0)):
        rungs = jump.bit_length() - 1
        # C_2,j of the rungs 2, 4, ..., J; l2 only for a nonsymmetric A: ||P^i||_2 <= C_2 max(1, gamma)^(2^j) for i <= 2^j
        spreads = [spread] * rungs if system.symmetric else [spread * growth for growth in _growth(system, alpha, jump)]
        bounds = spreads if energy is None else [reach] * rungs  # C_j of each rung
        # A column takes rung 2^j only while n u C_j (1 + j) ||x*|| (its own,
        # in norm_kind) fits the rounding share, and while its ||x*||, decayed
        # at the rate alpha lambda_M,min over 2^j steps, still exceeds C_j epsilon,
        # as _jump asks of J over the span. Both tests tighten as j grows, so
        # cap, each column's highest rung, counts the rungs that pass.
        run = star_norm if energy is None else np.sqrt(np.maximum(0.0, np.vecdot(x_star, block, axis=0)))
        scale = np.array(bounds)[:, None]
        rounding = n * _UNIT_ROUNDOFF * scale * np.arange(2, rungs + 2)[:, None] * run
        decay = np.exp(-alpha * lam_min * np.exp2(np.arange(1.0, rungs + 1.0)))[:, None]
        fits = (rounding <= _ROUNDING_SHARE * _JUMP_SLACK * cfg.epsilon) & (run * decay > scale * cfg.epsilon)
        cap = np.count_nonzero(fits, axis=0)
        usable = int(cap.max())
        if usable:
            last, lead = _certified_jumps(
                system, block, x_star, alpha, propagate, drive, screen, cfg, star_norm,
                spreads[:usable], bounds[:usable], cap, lookahead, energy,
            )
            if lead.min():  # every column jumped: D for the steps the passes have left
                lookahead = _lookahead(n, min(predicted, max_steps) - int(lead.min()))
    ahead = int(lead.max())  # the largest offset, against which each pass tests the max_steps cut
    batch = _batch(lookahead, k)
    powers, offsets = _stack_powers(propagate, drive, lookahead)
    powers_t = np.ascontiguousarray(powers.T)  # [P^T ... (P^D)^T], (n, D n)
    offsets = np.ascontiguousarray(offsets.transpose(2, 0, 1))  # (k, D, n)

    # One buffer holds each pass: the row of column i holds its states after
    # steps lead[i] + base .. lead[i] + base + T - 1, and last the state
    # before them, copied from the buffer's final states after every pass.
    # The first pass starts at last itself, in slot 0 where its tests see it;
    # one product with P .. P^(D-1) stands in for product 0 and, from
    # x(0) = 0, gives c_1, ..., c_(D-1) bit for bit.
    states = np.empty((k, batch, n))
    states[:, 0] = last
    states[:, 1:lookahead] = (last @ powers_t[:, : (lookahead - 1) * n]).reshape(k, -1, n) + offsets[:, :-1]
    products = _products(states, last, lookahead)
    # The oracle of the columns still in the block, repeated for every state
    # of a pass: a broadcast along the middle axis would cut the subtraction
    # into k T runs of n elements, 2-4 times slower at k = 25.
    target = np.empty((k, batch, n))
    target[...] = x_star.T[:, None]
    cols = np.arange(k)  # original index of each column still in the block
    x_final = np.empty((n, k))
    column_steps = np.zeros(k, dtype=np.int64)  # the steps after each column's offset, until the loop ends
    converged = np.zeros(k, dtype=bool)
    diverged = np.zeros(k, dtype=bool)
    max_dx = 0.0  # a single right-hand side's largest |dx_i| over the steps taken
    samples: list[tuple[int, np.ndarray, float]] = []  # trace (step, state, squared error)
    stride = 1

    while True:
        for source, out, rows in products if base else products[1:]:
            np.matmul(source, powers_t, out=out)
            rows += offsets
        d = states - target
        sq = np.vecdot(d, d)
        q = sq if energy is None else np.vecdot(d, (d.reshape(-1, n) @ energy.T).reshape(d.shape))
        conv = q <= limit
        near = sq > screen_sq[:, None]
        if single:  # |dx_i| of each step of this pass, from the state before it
            dx = np.abs(np.diff(states[0], axis=0, prepend=last))
            # the trace keeps the states of this pass whose step is a multiple of the stride
            samples, stride = _thin(samples, stride)
            first = -base % stride
            kept = slice(first, batch, stride)
            samples += zip(range(base + first, base + batch, stride), states[0, kept].copy(), q[0, kept])
        if np.count_nonzero(conv) or np.count_nonzero(near) or max_steps - base - ahead < batch:
            div = near & ~conv
            if np.count_nonzero(div):
                div &= np.sqrt(np.vecdot(states, states)) > blow_up[:, None]
            stop = conv | div
            if max_steps - base - ahead < batch:
                cut = max_steps - base - lead[cols]  # each column's state of step max_steps; later ones are never taken
                late = np.flatnonzero(cut < batch)
                stop[late, cut[late]] = True
            # each column's first stopping step in the pass, or T for a column that runs on
            stop_at = np.where(stop.any(axis=1), stop.argmax(axis=1), batch)
            if single:
                max_dx = max(max_dx, float(dx[: stop_at[0] + 1].max()))
            done = np.flatnonzero(stop_at < batch)
            if done.size:
                at = stop_at[done]
                if energy is not None and np.count_nonzero(q[done, at] < 0):
                    worst = q[done, at].min()
                    raise DomainError(f"x^T A x = {worst:.3e} is negative; not a norm for this matrix")
                idx = cols[done]
                x_final[:, idx] = states[done, at].T
                column_steps[idx] = base + at
                converged[idx] = conv[done, at]
                diverged[idx] = div[done, at]
                live = stop_at == batch
                if not np.count_nonzero(live):
                    break
                states, last, offsets = states[live], last[live], offsets[live]
                products = _products(states, last, lookahead)
                target = target[live]
                blow_up, screen_sq, cols = blow_up[live], screen_sq[live], cols[live]
        elif single:
            max_dx = max(max_dx, float(dx.max()))
        last[...] = states[:, -1]
        base += batch

    column_steps += lead
    tau = column_steps * alpha / oa.gbw
    if not single:
        return SolveResult(
            x_final=x_final,
            x_star=x_star,
            tau=tau,
            converged=converged,
            diverged=diverged,
            trace=None,
            steps=int(column_steps.sum()),
            max_slew=None,
            column_steps=column_steps,
        )
    end = int(column_steps[0])
    samples = _thin([sample for sample in samples if sample[0] <= end], stride)[0]
    if samples[-1][0] != end:
        samples.append((end, x_final[:, 0].copy(), q[0, end - base]))
    sample_steps, sample_states, sample_sq = zip(*samples)
    trace = Trace(
        times=np.asarray(sample_steps, dtype=float) * dt,
        states=np.vstack(sample_states),
        errors=np.sqrt(np.asarray(sample_sq)),
    )
    return SolveResult(
        x_final=x_final[:, 0],
        x_star=x_star[:, 0],
        tau=float(tau[0]),
        converged=bool(converged[0]),
        diverged=bool(diverged[0]),
        trace=trace,
        steps=int(column_steps[0]),
        max_slew=max_dx / dt,
    )


def time_bound(
    system: FeedbackSystem,
    b,
    oa: OpAmpModel | None = None,
    cfg: SolveConfig | None = None,
) -> float | np.ndarray:
    """Bound on the time simulate(system, b, oa, cfg) takes to reach cfg.epsilon in cfg.norm_kind.

    The bound is proven for symmetric positive-definite A and the loop
    without include_gain_correction; a nonsymmetric A (system.symmetric
    unset) or a cfg with include_gain_correction set raises DomainError
    before anything is solved.
    From x(0) = 0 the initial energy-norm error is sqrt(x*^T b), and each
    step contracts it by at least x = alpha * lambda_m_min, with alpha and
    dt = alpha / gbw from resolve_step. With norm_kind "a_norm" let
    L = ln(sqrt(x*^T b) / epsilon). With norm_kind "l2", since ||e||_2 <=
    ||e||_A / sqrt(lambda_min(A)) (Saad, Iterative Methods for Sparse Linear
    Systems), L adds ln(1 / sqrt(lambda_min(A))) where lambda_min(A) < 1, and
    nothing elsewhere. The bound is L / (lambda_m_min * gbw), plus dt where
    L < 2(2 + x); a negative L, whose run stops at step 0, counts as 0.

    Proof: the energy-norm error contracts each step by the eigenvalues of
    I - alpha U^1/2 A U^1/2, which lie in (0, 1 - x] because alpha rho(M) < 1.
    So the run stops within ceil(L / -ln(1 - x)) steps, and since
    -ln(1 - x) >= x + x^2 / 2 that is fewer than L/x - L/(2 + x) + 1. Hence L/x
    steps, the time L / (lambda_m_min * gbw), suffice whenever L >= 2 + x,
    with one step to spare for a stop that rounding delays whenever
    L >= 2(2 + x); below that, L/x + 1 steps suffice. The proof does not
    cover include_gain_correction: that loop settles at (M + I/l0)^-1 U b
    rather than at x*, so its error has a floor of order
    ||x*|| / (l0 lambda_m_min) and may never reach epsilon.

    b is one right-hand side of shape (n,), which gives a float, or a block
    of shape (n, k), which gives one bound per column from one guarded
    solve. DomainError names the first column with x*^T b <= 0.
    """
    if oa is None:
        oa = OpAmpModel()
    if cfg is None:
        cfg = SolveConfig()
    if not system.symmetric:
        raise DomainError("the computing-time bound is proven only for a symmetric A")
    if cfg.include_gain_correction:
        raise DomainError("the computing-time bound is proven only without include_gain_correction")
    b = np.asarray(b, dtype=float)
    x_star = system.solve(b)
    energy = np.atleast_1d(np.vecdot(x_star, b, axis=0))
    bad = np.flatnonzero(energy <= 0)
    if bad.size:
        j = bad[0]
        where = f" in column {j}" if b.ndim == 2 else ""
        raise DomainError(f"x*^T b = {energy[j]:.3e}{where} must be positive for the energy bound")
    lam_min = system.lambda_m_min
    if lam_min <= 0:
        raise StabilityError(f"bound undefined: min Re eig(M) = {lam_min:.3e} is not positive")
    shift = 0.0
    if cfg.norm_kind == "l2":
        if system.lambda_min <= 0:
            raise StabilityError(f"l2 bound undefined: lambda_min(A) = {system.lambda_min:.3e} is not positive")
        shift = max(0.0, -0.5 * math.log(system.lambda_min))
    alpha, dt = resolve_step(system, oa, cfg)
    spare = 2 * (2 + alpha * lam_min)
    bounds = []
    for e in energy.tolist():
        ln_ratio = max(0.0, math.log(math.sqrt(e) / cfg.epsilon) + shift)
        bound = ln_ratio / (lam_min * oa.gbw)
        bounds.append(bound + dt if ln_ratio < spare else bound)
    return np.array(bounds) if b.ndim == 2 else bounds[0]


def invert_matrix(
    system: FeedbackSystem,
    oa: OpAmpModel | None = None,
    cfg: SolveConfig | None = None,
) -> SolveResult:
    """Invert the system's matrix with one block transient over the identity columns.

    Returns the block SolveResult: x_final is the computed inverse, x_star
    the direct-solve inverse it was measured against, and tau and
    column_steps hold each column's time and integer step count. Any column
    whose transient fails to converge raises InversionError naming the
    first such column; a silent partial inverse is never returned.
    """
    result = simulate(system, np.eye(system.a.shape[0]), oa, cfg)
    failed = np.flatnonzero(~result.converged)
    if failed.size:
        j = failed[0]
        outcome = "diverged" if result.diverged[j] else "timed out"
        raise InversionError(f"column {j} {outcome} after {result.column_steps[j]} steps")
    return result


def slew_check(result: SolveResult, oa: OpAmpModel | None = None) -> bool:
    """True when no step of a single-right-hand-side transient exceeds the slew rate.

    Reads result.max_slew, the largest |x_i(t + dt) - x_i(t)| / dt over
    every step the run took, so the verdict does not depend on whether or
    how a trace was recorded. A block result carries no max_slew.
    """
    if oa is None:
        oa = OpAmpModel()
    if result.max_slew is None:
        raise UsageError("slew_check needs the result of a single right-hand side")
    return result.max_slew <= oa.slew_rate
