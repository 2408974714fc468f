"""Basic trust-region loop over the L-BFGS model.

One minimize() call owns its iterate, radius and pair memory.  Each
iteration solves the subproblem with the configured solver, evaluates the
trial point, accepts or rejects on the actual-over-predicted reduction
ratio, adjusts the radius, and offers the pair (s, y) = (p, g_trial - g)
to the memory whether or not the step was accepted (the curvature gate
alone decides storage).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ModelInconsistencyError
from .memory import EPS, PairMemory
from .problems import ProblemInstance
from .subproblem import Subproblem, mss_solve, steihaug_solve

CONVERGED = "converged"
RADIUS_TOO_SMALL = "radius_too_small"
FE_BUDGET_EXHAUSTED = "fe_budget_exhausted"

SOLVERS = ("mss", "steihaug")


@dataclass
class TrConfig:
    """Driver constants.

    Defaults are the standard practical choices: memory 5, radius growth
    2.0 and shrink 0.5, initial radius 1, acceptance thresholds
    eta1 = 0.01 and eta2 = 0.95, radius cap 1/(100 eps), termination
    scale tau = 1e-6.  max_fe = None means max(1000, n) at run time.
    """

    memory: int = 5
    gamma1: float = 2.0
    gamma2: float = 0.5
    delta0: float = 1.0
    delta_hat: float = 1.0 / (100.0 * EPS)
    eta1: float = 0.01
    eta2: float = 0.95
    tau: float = 1e-6
    max_fe: int | None = None
    min_delta: float = 1e-13
    solver: str = "mss"

    def __post_init__(self):
        if self.memory < 1:
            raise ValueError("memory must be >= 1")
        if not 0.0 < self.eta1 < self.eta2 < 1.0:
            raise ValueError("need 0 < eta1 < eta2 < 1")
        if not self.gamma1 > 1.0:
            raise ValueError("gamma1 must exceed 1")
        if not 0.0 < self.gamma2 < 1.0:
            raise ValueError("gamma2 must lie in (0, 1)")
        if not self.delta_hat > self.delta0 > self.min_delta > 0.0:
            raise ValueError("need delta_hat > delta0 > min_delta > 0")
        if self.solver not in SOLVERS:
            raise ValueError(f"unknown solver {self.solver!r}, expected one of {SOLVERS}")


@dataclass
class TrResult:
    """Outcome of one minimization run."""

    x_final: np.ndarray
    f_final: float
    gnorm_final: float
    status: str
    fe_count: int
    inner_iterations_total: int
    subproblem_time: float
    accepted_steps: int
    rejected_steps: int


def rho(f_x: float, f_trial: float, predicted: float) -> float:
    """Actual-over-predicted reduction ratio for one trial step.

    ``predicted`` is the model reduction -g^T p - 0.5 p^T B p, which the
    subproblem solvers return as ``model_reduction``.  It must be positive
    for a descent solver on an SPD model, so a nonpositive value raises
    ModelInconsistencyError.
    """
    predicted = float(predicted)
    if not predicted > 0.0:
        raise ModelInconsistencyError(
            f"predicted reduction {predicted:.3e} is not positive"
        )
    return (f_x - f_trial) / predicted


def minimize(
    problem: ProblemInstance,
    config: TrConfig | None = None,
    callback: Callable[[dict], None] | None = None,
) -> TrResult:
    """Minimize a problem instance with the trust-region loop.

    Terminates successfully when ||g|| < max(tau*|f(x0)|, tau*||g(x0)||,
    1e-5), and unsuccessfully when the radius falls under min_delta or the
    evaluation count exceeds its budget.  ``callback``, if given, receives
    a dict per iteration (iteration, x, f, gnorm, delta, rho, accepted,
    pair_stored, memory_size) after the bookkeeping for that iteration.
    """
    if config is None:
        config = TrConfig()
    n = problem.n
    max_fe = config.max_fe if config.max_fe is not None else max(1000, n)

    x = np.asarray(problem.x0, dtype=float).copy()
    f, g = problem.eval(x)
    f = float(f)
    g = np.asarray(g, dtype=float)
    fe_count = 1
    threshold = max(config.tau * abs(f), config.tau * float(np.linalg.norm(g)), 1e-5)

    mem = PairMemory(n, config.memory)
    delta = config.delta0
    inner_total = 0
    subproblem_time = 0.0
    accepted_steps = 0
    rejected_steps = 0
    iteration = 0
    # Bound per minimize() call, so a solver patched onto this module is used.
    solve = mss_solve if config.solver == "mss" else steihaug_solve

    while True:
        gnorm = float(np.linalg.norm(g))
        if gnorm < threshold:
            status = CONVERGED
            break
        if delta < config.min_delta:
            status = RADIUS_TOO_SMALL
            break
        if fe_count > max_fe:
            status = FE_BUDGET_EXHAUSTED
            break

        iteration += 1
        t0 = time.perf_counter()
        result = solve(mem, Subproblem(g=g, delta=delta))
        subproblem_time += time.perf_counter() - t0
        inner_total += result.inner_iterations
        p = result.p

        f_trial, g_trial = problem.eval(x + p)
        f_trial = float(f_trial)
        g_trial = np.asarray(g_trial, dtype=float)
        fe_count += 1

        trial_finite = math.isfinite(f_trial) and bool(np.all(np.isfinite(g_trial)))
        if trial_finite:
            ratio = rho(f, f_trial, result.model_reduction)
        else:
            ratio = -math.inf  # reject and shrink on non-finite trials
        accepted = ratio >= config.eta1

        p_norm = float(np.linalg.norm(p))
        if ratio >= config.eta2:
            delta = min(config.gamma1 * p_norm, config.delta_hat)
        elif accepted:
            delta = p_norm
        else:
            delta = config.gamma2 * delta

        # The pair is offered every iteration; only the curvature gate
        # decides storage, never the acceptance test.
        pair_stored = mem.try_update(p, g_trial - g)

        if accepted:
            x = x + p
            f = f_trial
            g = g_trial
            accepted_steps += 1
        else:
            rejected_steps += 1

        if callback is not None:
            callback(
                {
                    "iteration": iteration,
                    "x": x.copy(),
                    "f": f,
                    "gnorm": float(np.linalg.norm(g)),
                    "delta": delta,
                    "rho": ratio,
                    "accepted": accepted,
                    "pair_stored": pair_stored,
                    "memory_size": mem.m,
                }
            )

    return TrResult(
        x_final=x,
        f_final=f,
        gnorm_final=float(np.linalg.norm(g)),
        status=status,
        fe_count=fe_count,
        inner_iterations_total=inner_total,
        subproblem_time=subproblem_time,
        accepted_steps=accepted_steps,
        rejected_steps=rejected_steps,
    )
