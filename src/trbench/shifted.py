"""Matrix-free solves with (B + sigma I) for an L-BFGS matrix B.

Writing B + sigma I = C0 + sum_k E_k with C0 = (gamma^{-1} + sigma) I and
the rank-one terms E_{2i} = +b_i b_i^T, E_{2i+1} = -a_i a_i^T, the inverse
is built by folding one E_k at a time:

    C_{k+1}^{-1} = C_k^{-1} - v_k C_k^{-1} E_k C_k^{-1},
    v_k = 1 / (1 + trace(C_k^{-1} E_k)).

With r_k = C_k^{-1} c_k (c_k the b or a vector inside E_k) this reduces to
rank-one corrections: even k consumes b_{k/2} with sign -1, odd k consumes
a_{(k-1)/2} with sign +1, so

    (B + sigma I)^{-1} y = (gamma^{-1}+sigma)^{-1} y
                           + sum_k (-1)^{k+1} v_k (r_k^T y) r_k.

Each pair's b-term is folded before its a-term, so every intermediate
matrix is B_i + b_i b_i^T + sigma I or B_{i+1} + sigma I: SPD for every
sigma >= 0, since each B_i is.  No partial sum is singular at sigma = 0
(folding a_i first would pass through B_i - a_i a_i^T + sigma I, and
(B_i - a_i a_i^T) s_i = 0), so sigma = 0 needs no special case.  The
error does not follow the conditioning of B + sigma I alone, though:
when gamma is large (a newest pair of tiny curvature y^T y / s^T y) it
grows roughly like cond(B + sigma I)^2 eps.  With gamma near 6e7, the
lower edge of the curvature gate, small shifts were measured 5e4 times
further off than a rounding bound proportional to cond(B + sigma I).

Every c_k, and hence every r_k, lies in the span of the memory's panel P,
so the recursion runs on coefficient rows over P with each inner product
read from the Gram matrix G = P P^T.  ``prepare`` forms each r_k, and
each solve applies the r_k, through the memory's one coefficient kernel
:func:`~trbench.memory.fold` with weights (-1)^{k+1} v_k.  Preparing a shift costs O(M^3) with no n-length work;
each solve is base * y + P^T fold(r, weights, P y)
(:func:`~trbench.memory.panel_apply`), O(M n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalBreakdownError
from .memory import EPS, PairMemory, fold, panel_apply

# Denominators 1 + (-1)^k r_k^T c_k below this magnitude are treated as
# breakdown rather than propagated as huge v_k.
DENOM_GUARD = 1e3 * EPS


@dataclass(frozen=True)
class ShiftedRecursionState:
    """Precomputed r_k / v_k data for one (memory, sigma) combination.

    ``r_coef`` holds the coefficients of each r_k over the memory's panel
    (r_k = r_coef[k] @ mem.panel) and ``weights`` the (-1)^{k+1} v_k.
    Building the state costs O(M^3); each solve against it costs O(M n),
    so repeated right-hand sides at the same shift are cheap.  ``mem`` is
    the memory the state solves against, ``mem_version`` its version then.
    """

    base: float  # (gamma^{-1} + sigma)^{-1}
    r_coef: np.ndarray  # (2m, 2m)
    weights: np.ndarray  # (2m,), (-1)^{k+1} v_k
    mem: PairMemory = field(repr=False)
    mem_version: int


def prepare(mem: PairMemory, sigma: float) -> ShiftedRecursionState:
    """Build the recursion state for solves with (B + sigma I), sigma >= 0.

    Each pair's +b_i b_i^T term is folded before its -a_i a_i^T term, so
    every intermediate matrix is SPD down to sigma = 0 (for the accuracy
    at large gamma, see the module docstring).  Raises ValueError for a
    negative or non-finite sigma and NumericalBreakdownError when a v_k
    denominator falls under the guard.
    """
    sigma = float(sigma)
    if not 0.0 <= sigma < math.inf:
        raise ValueError(f"shift must be finite and nonnegative, got {sigma}")
    ab = mem.ab_vectors()
    base = 1.0 / (1.0 / mem.gamma + sigma)
    c = ab.rows  # coefficient rows of c_k: b_0, a_0, b_1, ...
    gc = c @ mem.gram  # row k: inner products of c_k with every panel row
    r = np.zeros(c.shape)
    weights = np.zeros(c.shape[0])  # (-1)^{k+1} v_k
    for k in range(c.shape[0]):
        rk = base * c[k] + fold(r[:k], weights[:k], gc[k])
        denom = 1.0 + ab.weights[k] * float(rk @ gc[k])  # (-1)^k r_k^T c_k
        if abs(denom) < DENOM_GUARD:
            raise NumericalBreakdownError(
                f"recursion denominator {denom:.3e} at step {k}"
            )
        r[k] = rk
        weights[k] = -ab.weights[k] / denom
    return ShiftedRecursionState(
        base=base, r_coef=r, weights=weights, mem=mem, mem_version=mem.version,
    )


def apply(state: ShiftedRecursionState, y) -> np.ndarray:
    """Return x with (B + sigma I) x = y for the state's memory and sigma.

    A state from before an update of its memory is rejected.
    """
    mem = state.mem
    if state.mem_version != mem.version:
        raise ValueError("state is stale: memory changed after prepare()")
    y = mem._check_dim(y, "y")
    return panel_apply(mem.panel, state.base, state.r_coef, state.weights, y)


def solve_shifted(mem: PairMemory, sigma: float, y) -> np.ndarray:
    """One-shot convenience: prepare at sigma and solve a single system."""
    return apply(prepare(mem, sigma), y)
