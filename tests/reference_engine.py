"""One-step reference engine: the loop x <- P x + c, P = I - alpha M, one product per step.

crossolve.dynamics.simulate evaluates this recurrence D steps per product,
tests T steps per pass, skips certified stretches by P^J and samples its
trace from the rows of each pass. reference_transient does none of that: it
shares with the engine only resolve_step, the direct solve and the result
types, and reads simulate's documented stop rules, trace rule and max_slew
from its docstring. Running both on the same inputs and comparing is a
differential test (McKeeman, "Differential testing for software", Digital
Technical Journal 10(1), 1998).
"""

import numpy as np

from crossolve import OpAmpModel, SolveConfig, SolveResult, Trace, direct_solve, resolve_step

# simulate's documented constants: the divergence factor and the trace's sample cap.
DIVERGENCE_FACTOR = 1e6
TRACE_LIMIT = 10_000


def reference_transient(system, b, oa: OpAmpModel | None = None, cfg: SolveConfig | None = None) -> SolveResult:
    """simulate(system, b, oa, cfg) by one-step stepping from x(0) = 0, as a SolveResult of the same shape.

    A column stops at the first step t at which its error against the
    direct solve, in cfg.norm_kind, is at most epsilon (converged), else at
    which ||x_t||_2 exceeds 1e6 max(1, ||x*||_2) (diverged), else at
    t = max_steps (neither). A 1-D b also gets the trace, the steps that are
    multiples of the least power-of-two stride keeping at most 10^4 of them
    up to the stop and then the stop, and max_slew over every step taken.
    """
    oa = OpAmpModel() if oa is None else oa
    cfg = SolveConfig() if cfg is None else cfg
    b = np.asarray(b, dtype=float)
    n = system.a.shape[0]
    block = b.reshape(n, -1)
    k = block.shape[1]
    alpha, dt = resolve_step(system, oa, cfg)
    m = system.m + np.eye(n) / oa.l0 if cfg.include_gain_correction else system.m
    p, c = np.eye(n) - alpha * m, alpha * (system.u[:, None] * block)
    x_star = direct_solve(system.a, block)
    blow_up = DIVERGENCE_FACTOR * np.maximum(1.0, np.linalg.norm(x_star, axis=0))
    steps, x_final = np.zeros(k, dtype=np.int64), np.empty((n, k))
    converged, diverged = np.zeros(k, dtype=bool), np.zeros(k, dtype=bool)
    live, x = np.arange(k), np.zeros((n, k))  # the columns still running and their states
    history, max_dx = [], 0.0  # a 1-D b's (step, state, error) of every step, and its largest |dx_i|
    for step in range(cfg.max_steps + 1):
        e = x - x_star[:, live]
        err = np.sqrt(np.sum(e * (e if cfg.norm_kind == "l2" else system.a @ e), axis=0))
        if b.ndim == 1:
            history.append((step, x[:, 0].copy(), err[0]))
        conv = err <= cfg.epsilon
        div = ~conv & (np.linalg.norm(x, axis=0) > blow_up[live])
        stop = conv | div | (step == cfg.max_steps)
        done = live[stop]
        steps[done], x_final[:, done], converged[done], diverged[done] = step, x[:, stop], conv[stop], div[stop]
        live, x = live[~stop], x[:, ~stop]
        if not live.size:
            break
        x_next = p @ x + c[:, live]
        if b.ndim == 1:
            max_dx = max(max_dx, float(np.abs(x_next - x).max()))
        x = x_next
    tau = steps * alpha / oa.gbw
    if b.ndim == 2:
        return SolveResult(x_final, x_star, tau, converged, diverged, None, int(steps.sum()), None, steps)
    end, stride = int(steps[0]), 1
    while end // stride + 1 > TRACE_LIMIT:
        stride *= 2
    samples = history[: end + 1 : stride] + ([history[end]] if end % stride else [])
    times, states, errors = zip(*samples)
    trace = Trace(np.asarray(times, dtype=float) * dt, np.vstack(states), np.asarray(errors))
    return SolveResult(
        x_final[:, 0], x_star[:, 0], float(tau[0]), bool(converged[0]), bool(diverged[0]), trace, end, max_dx / dt
    )
