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
(B_i - a_i a_i^T) s_i = 0), so rounding grows with the conditioning of
these L-BFGS systems themselves rather than like 1/sigma, and sigma = 0
needs no special case.

Every c_k, and hence every r_k, lies in the span of the memory's panel P,
so the recursion runs on coefficient rows over P with each inner product
read from the Gram matrix G = P P^T.  Preparing a shift costs O(M^3) with
no n-length work; each solve is base * y + P^T K_sigma (P y), O(M n), with
K_sigma = sum_k (-1)^{k+1} v_k w_k^T w_k for the coefficient rows w_k of
r_k, applied through those factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalBreakdownError
from .memory import EPS, PairMemory

# Denominators 1 + (-1)^k r_k^T c_k below this magnitude are treated as
# breakdown rather than propagated as huge v_k.
DENOM_GUARD = 1e3 * EPS


@dataclass(frozen=True)
class ShiftedRecursionState:
    """Precomputed r_k / v_k data for one (memory, sigma) combination.

    ``r_coef`` holds the coefficients of each r_k over the memory's panel
    (r_k = r_coef[k] @ mem.panel).  Building the state costs O(M^3); each
    solve against it costs O(M n), so repeated right-hand sides at the
    same shift are cheap.  ``mem`` and ``mem_version`` name the memory and
    the version of it the state was prepared from.
    """

    sigma: float
    base: float  # (gamma^{-1} + sigma)^{-1}
    r_coef: np.ndarray  # (2m, 2m)
    v: np.ndarray  # (2m,)
    signs: np.ndarray  # (2m,), (-1)^{k+1}
    mem: PairMemory = field(repr=False)
    mem_version: int


def prepare(mem: PairMemory, sigma: float) -> ShiftedRecursionState:
    """Build the recursion state for solves with (B + sigma I), sigma >= 0.

    Each pair's +b_i b_i^T term is folded before its -a_i a_i^T term, so
    every intermediate matrix is SPD and the result is as accurate as the
    conditioning of those L-BFGS systems allows, down to sigma = 0.
    Raises ValueError for a negative or non-finite sigma and
    NumericalBreakdownError when a v_k denominator falls under the guard.
    """
    sigma = float(sigma)
    if not 0.0 <= sigma < math.inf:
        raise ValueError(f"shift must be finite and nonnegative, got {sigma}")
    ab = mem.ab_vectors()
    base = 1.0 / (1.0 / mem.gamma + sigma)
    k_total = 2 * ab.m
    c = np.empty((k_total, k_total))  # coefficient rows of c_k: b_0, a_0, b_1, ...
    c[0::2] = ab.b_coef
    c[1::2] = ab.a_coef
    gc = c @ mem.gram  # row k: inner products of c_k with every panel row
    r = np.zeros((k_total, k_total))
    v = np.zeros(k_total)
    signs = np.where(np.arange(k_total) % 2 == 0, -1.0, 1.0)  # (-1)^{k+1}
    sv = np.zeros(k_total)  # (-1)^{i+1} v_i, the weights used while building
    for k in range(k_total):
        rk = base * c[k]
        if k:
            rk = rk + (sv[:k] * (r[:k] @ gc[k])) @ r[:k]
        denom = 1.0 + (-signs[k]) * float(rk @ gc[k])  # (-1)^k r_k^T c_k
        if abs(denom) < DENOM_GUARD:
            raise NumericalBreakdownError(
                f"recursion denominator {denom:.3e} at step {k}"
            )
        r[k] = rk
        v[k] = 1.0 / denom
        sv[k] = signs[k] * v[k]
    return ShiftedRecursionState(
        sigma=sigma, base=base, r_coef=r, v=v, signs=signs,
        mem=mem, mem_version=mem.version,
    )


def apply(state: ShiftedRecursionState, mem: PairMemory, y) -> np.ndarray:
    """Return x with (B + sigma I) x = y using a prepared state.

    The state must have been prepared from ``mem`` in its current form;
    a state from another memory, or from before an update, is rejected.
    """
    if state.mem is not mem:
        raise ValueError("state was prepared from a different memory")
    if state.mem_version != mem.version:
        raise ValueError("state is stale: memory changed after prepare()")
    y = np.asarray(y, dtype=float)
    if y.shape != (mem.n,):
        raise ValueError(f"y has shape {y.shape}, expected ({mem.n},)")
    x = state.base * y
    if state.r_coef.size:
        panel = mem.panel
        weights = (state.signs * state.v) * (state.r_coef @ (panel @ y))
        x += panel.T @ (weights @ state.r_coef)
    return x


def solve_shifted(mem: PairMemory, sigma: float, y) -> np.ndarray:
    """One-shot convenience: prepare at sigma and solve a single system."""
    return apply(prepare(mem, sigma), mem, y)
