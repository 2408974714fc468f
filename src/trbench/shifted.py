"""Matrix-free solves with (B + sigma I) for an L-BFGS matrix B.

Writing B + sigma I = C0 + sum_k E_k with C0 = (gamma^{-1} + sigma) I and
the rank-one terms E_{2i} = -a_i a_i^T, E_{2i+1} = +b_i b_i^T, the inverse
is built by folding one E_k at a time:

    C_{k+1}^{-1} = C_k^{-1} - v_k C_k^{-1} E_k C_k^{-1},
    v_k = 1 / (1 + trace(C_k^{-1} E_k)).

With r_k = C_k^{-1} c_k (c_k the a or b vector inside E_k) this reduces to
rank-one corrections: even k consumes a_{k/2} with sign -1, odd k consumes
b_{(k-1)/2} with sign +1, so

    (B + sigma I)^{-1} y = (gamma^{-1}+sigma)^{-1} y
                           + sum_k (-1)^k v_k (r_k^T y) r_k.

Every c_k, and hence every r_k, lies in the span of the memory's panel P,
so the recursion runs on coefficient rows over P with each inner product
read from the Gram matrix G = P P^T.  Preparing a shift costs O(M^3) with
no n-length work; each solve is base * y + P^T K_sigma (P y), O(M n), with
K_sigma = sum_k (-1)^k v_k w_k^T w_k for the coefficient rows w_k of r_k,
applied through those factors.

Stability requires gamma * sigma bounded away from zero; callers must route
tiny shifts to the unshifted inverse product instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalBreakdownError, ShiftTooSmallError
from .memory import EPS, PairMemory

# Denominators 1 + (-1)^{k+1} r_k^T c below this magnitude are treated as
# breakdown rather than propagated as huge v_k.
DENOM_GUARD = 1e3 * EPS


@dataclass(frozen=True)
class ShiftedRecursionState:
    """Precomputed r_k / v_k data for one (memory, sigma) combination.

    ``r_coef`` holds the coefficients of each r_k over the memory's panel
    (r_k = r_coef[k] @ mem.panel).  Building the state costs O(M^3); each
    solve against it costs O(M n), so repeated right-hand sides at the
    same shift are cheap.
    """

    sigma: float
    base: float  # (gamma^{-1} + sigma)^{-1}
    r_coef: np.ndarray  # (2m, 2m)
    v: np.ndarray  # (2m,)
    signs: np.ndarray  # (2m,), (-1)^k
    mem_version: int
    n: int


def prepare(mem: PairMemory, sigma: float) -> ShiftedRecursionState:
    """Build the recursion state for solves with (B + sigma I).

    Raises ShiftTooSmallError when gamma * sigma <= eps (the recursion is
    only stable with the product bounded away from zero) and
    NumericalBreakdownError when a v_k denominator falls under the guard.
    """
    sigma = float(sigma)
    if sigma < 0.0:
        raise ValueError(f"shift must be nonnegative, got {sigma}")
    if mem.gamma * sigma <= EPS:
        raise ShiftTooSmallError(
            f"gamma*sigma = {mem.gamma * sigma:.3e} <= eps; "
            "use the unshifted inverse product instead"
        )
    ab = mem.ab_vectors()
    base = 1.0 / (1.0 / mem.gamma + sigma)
    k_total = 2 * ab.m
    c = np.empty((k_total, k_total))  # coefficient rows of c_k: a_0, b_0, a_1, ...
    c[0::2] = ab.a_coef
    c[1::2] = ab.b_coef
    gc = c @ mem.gram  # row k: inner products of c_k with every panel row
    r = np.zeros((k_total, k_total))
    v = np.zeros(k_total)
    signs = np.where(np.arange(k_total) % 2 == 0, 1.0, -1.0)  # (-1)^k
    sv = np.zeros(k_total)  # (-1)^i v_i, the weights used while building
    for k in range(k_total):
        rk = base * c[k]
        if k:
            rk = rk + (sv[:k] * (r[:k] @ gc[k])) @ r[:k]
        denom = 1.0 + (-signs[k]) * float(rk @ gc[k])  # (-1)^{k+1} r_k^T c_k
        if abs(denom) < DENOM_GUARD:
            raise NumericalBreakdownError(
                f"recursion denominator {denom:.3e} at step {k}"
            )
        r[k] = rk
        v[k] = 1.0 / denom
        sv[k] = signs[k] * v[k]
    return ShiftedRecursionState(
        sigma=sigma, base=base, r_coef=r, v=v, signs=signs,
        mem_version=mem.version, n=mem.n,
    )


def apply(state: ShiftedRecursionState, mem: PairMemory, y) -> np.ndarray:
    """Return x with (B + sigma I) x = y using a prepared state.

    The state must have been prepared from ``mem`` in its current form.
    """
    if state.mem_version != mem.version or state.n != mem.n:
        raise ValueError("state is stale: memory changed after prepare()")
    y = np.asarray(y, dtype=float)
    if y.shape != (state.n,):
        raise ValueError(f"y has shape {y.shape}, expected ({state.n},)")
    x = state.base * y
    if state.r_coef.size:
        panel = mem.panel
        weights = (state.signs * state.v) * (state.r_coef @ (panel @ y))
        x += panel.T @ (weights @ state.r_coef)
    return x


def solve_shifted(mem: PairMemory, sigma: float, y) -> np.ndarray:
    """One-shot convenience: prepare at sigma and solve a single system."""
    return apply(prepare(mem, sigma), mem, y)
