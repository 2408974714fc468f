"""Basic trust-region loop over the L-BFGS model.

One minimize() call owns its iterate, radius and pair memory.  Each
iteration solves the subproblem with the configured solver, evaluates the
trial point, accepts or rejects on the actual-over-predicted reduction
ratio, adjusts the radius, and offers the pair (s, y) = (p, g_trial - g)
of every finite trial to the memory whether or not the step was accepted
(the curvature gate alone decides storage).

Cost per iteration at large n: the solver's pass P' x that forms p, and
the memory's two passes P s and P y when it stores a pair.  The solver's
pass u = P g is skipped when the driver can carry u from the previous
iteration: after a rejected step that stored no pair (g and P are
unchanged), and after an accepted step whose pair was stored, as
P g_trial = P g + P y (:meth:`PairMemory.carry`).  The product holds its
own rounding bound, and ``carry`` returns None once that bound is too
large, so the next solve forms u afresh.
"""

from __future__ import annotations

import math
import numbers
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

# Trust-region constants (see TrConfig).
GAMMA1 = 2.0
GAMMA2 = 0.5
DELTA0 = 1.0
DELTA_HAT = 1.0 / (100.0 * EPS)
ETA1 = 0.01
ETA2 = 0.95
MIN_DELTA = 1e-13
MAX_FE = 1000


@dataclass
class TrConfig:
    """The settings a run may choose: pair capacity, termination scale
    and subproblem solver.

    Everything else is a module constant: radius growth GAMMA1 = 2.0 and
    shrink GAMMA2 = 0.5, initial radius DELTA0 = 1, radius cap
    DELTA_HAT = 1/(100 eps), acceptance thresholds ETA1 = 0.01 and
    ETA2 = 0.95, radius floor MIN_DELTA = 1e-13 and the evaluation budget
    max(MAX_FE, n) with MAX_FE = 1000.
    """

    memory: int = 5
    tau: float = 1e-6
    solver: str = "mss"

    def __post_init__(self):
        if not isinstance(self.memory, numbers.Integral) or self.memory < 1:
            raise ValueError(f"memory must be an integer >= 1, got {self.memory!r}")
        if not 0.0 < self.tau < math.inf:
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
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


def _evaluate(problem: ProblemInstance, x: np.ndarray) -> tuple[float, np.ndarray, float]:
    """f, g and g'g at x, for the start and every trial of :func:`minimize`.

    A point is usable only when f and g'g are both finite: a gradient with
    a NaN or inf entry, or whose g'g overflows, could not be a solver's g.
    """
    f, g = problem.eval(x)
    g = np.asarray(g, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        gg = float(g @ g)
    return float(f), g, gg


def minimize(
    problem: ProblemInstance,
    config: TrConfig | None = None,
    callback: Callable[[dict], None] | None = None,
) -> TrResult:
    """Minimize a problem instance with the trust-region loop.

    Terminates successfully when ||g|| < max(tau*|f(x0)|, tau*||g(x0)||,
    1e-5), and unsuccessfully when the radius falls under MIN_DELTA or the
    evaluation count exceeds max(MAX_FE, n).  ``callback``, if given, receives
    a dict per iteration (iteration, x, f, gnorm, delta, rho, accepted,
    pair_stored, memory_size) after the bookkeeping for that iteration.
    Raises ValueError after one evaluation if f or g'g is not finite at x0.
    """
    if config is None:
        config = TrConfig()
    n = problem.n
    max_fe = max(MAX_FE, n)

    x = np.asarray(problem.x0, dtype=float).copy()
    f, g, gg = _evaluate(problem, x)
    fe_count = 1
    if not (math.isfinite(f) and math.isfinite(gg)):
        raise ValueError(f"f and g'g must be finite at x0, got f = {f}, g'g = {gg}")
    gnorm = math.sqrt(gg)
    threshold = max(config.tau * abs(f), config.tau * gnorm, 1e-5)

    mem = PairMemory(n, config.memory)
    delta = DELTA0
    inner_total = 0
    subproblem_time = 0.0
    accepted_steps = 0
    rejected_steps = 0
    pg = None  # P g at mem's current version, when carried; else the solver forms it
    # Bound per minimize() call, so a solver patched onto this module is used.
    solve = mss_solve if config.solver == "mss" else steihaug_solve

    while True:
        if gnorm < threshold:
            status = CONVERGED
            break
        if delta < MIN_DELTA:
            status = RADIUS_TOO_SMALL
            break
        if fe_count > max_fe:
            status = FE_BUDGET_EXHAUSTED
            break

        t0 = time.perf_counter()
        result = solve(mem, Subproblem(g=g, delta=delta, pg=pg, gg=gg))
        subproblem_time += time.perf_counter() - t0
        inner_total += result.inner_iterations
        pg = result.pg

        x_trial = x + result.p
        f_trial, g_trial, gg_trial = _evaluate(problem, x_trial)
        fe_count += 1
        trial_finite = math.isfinite(f_trial) and math.isfinite(gg_trial)
        # A non-finite trial is rejected, and the radius shrinks.
        ratio = rho(f, f_trial, result.model_reduction) if trial_finite else -math.inf
        accepted = ratio >= ETA1

        # A finite trial's pair is offered whether or not the step is
        # accepted: only the curvature gate decides storage.  A non-finite
        # trial measures no curvature, so its pair is never offered.
        y = g_trial - g if trial_finite else None
        pair_stored = trial_finite and mem.try_update(result.p, y)

        # pg stays valid while g and the memory stay put, or is carried to
        # P g_trial over an accepted step that stored a pair, bound allowing.
        if accepted:
            delta = min(GAMMA1 * result.p_norm, DELTA_HAT) if ratio >= ETA2 else result.p_norm
            gnorm_trial = math.sqrt(gg_trial)
            pg = mem.carry(pg, g, gnorm_trial) if pair_stored else None
            x, f, g, gg, gnorm = x_trial, f_trial, g_trial, gg_trial, gnorm_trial
            accepted_steps += 1
        else:
            delta = GAMMA2 * delta
            if pair_stored:
                pg = None
            rejected_steps += 1

        if callback is not None:
            callback(
                {
                    "iteration": accepted_steps + rejected_steps,
                    "x": x.copy(),
                    "f": f,
                    "gnorm": gnorm,
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
        gnorm_final=gnorm,
        status=status,
        fe_count=fe_count,
        inner_iterations_total=inner_total,
        subproblem_time=subproblem_time,
        accepted_steps=accepted_steps,
        rejected_steps=rejected_steps,
    )
