"""The shifted recursion: the Gram-space kernel of (B + sigma I)^{-1} for an L-BFGS B.

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
so (B + sigma I)^{-1} = base I + P^T K P with base = (gamma^{-1} + sigma)^{-1}
and K = R^T diag(w) R over the r_k's coefficient rows R and weights
w_k = (-1)^{k+1} v_k.  ``prepare`` forms R and w in O(M^3), reading every
inner product from the Gram matrix G = P P^T, with no n-length work, into
a :class:`~trbench.memory.FoldedOperator`, the type of B and B^{-1} too;
:func:`apply` is the product K v, O(M^2), through the memory's one
coefficient kernel :func:`~trbench.memory.fold`.  Its one consumer is
mss's Gram-space Newton iterate (:func:`~trbench.subproblem.gram_iterate`).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalBreakdownError
from .memory import EPS, FoldedOperator, PairMemory, fold

# Denominators 1 + (-1)^k r_k^T c_k below this magnitude are treated as
# breakdown rather than propagated as huge v_k.
DENOM_GUARD = 1e3 * EPS


def prepare(mem: PairMemory, sigma: float) -> FoldedOperator:
    """Return (B + sigma I)^{-1}, sigma >= 0, as a folded operator.

    Its rows are the r_k's coefficients (r_k = rows[k] @ mem.panel) and its
    weights the (-1)^{k+1} v_k.  Each pair's +b_i b_i^T term is folded
    before its -a_i a_i^T term, so every intermediate matrix is SPD down to
    sigma = 0 (for the accuracy at large gamma, see the module docstring).
    Raises ValueError for a negative or non-finite sigma and
    NumericalBreakdownError when a v_k denominator falls under the guard.
    """
    sigma = float(sigma)
    if not 0.0 <= sigma < math.inf:
        raise ValueError(f"shift must be finite and nonnegative, got {sigma}")
    ab = mem.ab_vectors()
    base = 1.0 / (ab.base + sigma)
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
    return FoldedOperator(base=base, rows=r, weights=weights)


def apply(op: FoldedOperator, v: np.ndarray) -> np.ndarray:
    """Return K v for the kernel K of (B + sigma I)^{-1} = base I + P^T K P.

    v has length 2m, a vector of panel coordinates such as P y, so the
    solve (B + sigma I)^{-1} y is op.base y + P^T apply(op, P y).
    """
    return fold(op.rows, op.weights, v)
