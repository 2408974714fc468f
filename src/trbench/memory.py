"""Limited-memory BFGS pair storage and implicit products with B.

The Hessian approximation B is never formed.  It is defined by at most
``capacity`` stored curvature pairs (s, y) together with a scalar gamma
giving the base matrix B0 = gamma^{-1} I:

    B = B0 - sum_i a_i a_i^T + sum_i b_i b_i^T

with a_i = B_i s_i / sqrt(s_i^T B_i s_i) and b_i = y_i / sqrt(y_i^T s_i),
where B_i is the matrix after the first i updates.

The pairs live in one ring-buffered panel P whose rows are s and y of
each slot, next to its Gram matrix G = P P^T.  Every a_i and b_i is a
coefficient row over P (a row of C, with weight w = +1 for b_i and -1
for a_i), so both products take the compact form of Byrd, Nocedal &
Schnabel (1994):

    B v      = gamma^{-1} v + P^T C^T diag(w) C (P v),
    B^{-1} v = gamma v      + P^T K_H (P v).

One coefficient kernel, :func:`fold` (sum_k w_k (r_k . v) r_k over
coefficient rows r_k), serves every sum of rank-one terms in the
package: the build of C itself, ``B v``, the shifted recursion's r_k and
its kernel products, and both solvers' Gram-space iterations.

Costs: one O(M n) pass over the updated panel, P [s y] in column
blocks, to refresh G per accepted pair; O(M^3) per factor, C (with w) or
K_H, built from G on its first read after a mutation (no n-length
work); O(M n) per product.  P y is also the step from P g to
P g_trial = P (g + y) for the driver's next solve
(:meth:`PairMemory.carry`), so an accepted step whose pair was stored
needs no fresh pass u = P g_trial.  The product carries its rounding
bound, and ``carry`` declines once it passes CARRY_BOUND ||g_trial||.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import NumericalBreakdownError

EPS = float(np.finfo(float).eps)
SQRT_EPS = math.sqrt(EPS)
# A carried u = P g is used while its rounding bound, in units of
# n eps ||panel row||, stays within CARRY_BOUND ||g||: a fresh product
# stands at ||g||.  Chosen for accuracy, not for evaluation counts:
# unguarded, nondia at n = 1e5 (a gradient falling 1.7e4-fold in one
# step) left the carried u off by 7.9e-9 ||row|| ||g||; with the bound
# the worst handed to a solve over the n = 1e5 grid is 1.0e-11.
CARRY_BOUND = 64.0
# try_update sums a new pair's Gram columns P [s y] over blocks of this
# many panel columns: one pass over the panel.  Xeon, 2 MiB L2 per core,
# one BLAS thread, n = 1e5, 2m = 10: 0.43 ms, against 0.76 ms for two
# matrix-vector passes and 1.10 ms unblocked.  8192 keeps a 2m = 20 block
# (1.3 MiB) in L2; at 32768 it spilled and doubled (BENCH_gram_column.json).
GRAM_BLOCK = 8192


def fold(rows, weights, v) -> np.ndarray:
    """Return sum_k weights[k] (rows[k] . v) rows[k], the one coefficient kernel.

    It is applied through its factors, never as an assembled
    R^T diag(w) R: when panel rows are nearly dependent the coefficients
    grow, and assembling would square that growth where the factors only
    carry it once.  Empty rows give zeros.
    """
    return (weights * (rows @ v)) @ rows


@dataclass(frozen=True)
class PanelProduct:
    """u = P v for a memory's panel P at one ``version`` of the memory.

    ``error`` bounds the rounding of every entry of u in units of
    n eps ||panel row||, as a length-n dot product rounds: ||v|| for a
    direct product, plus what each :meth:`PairMemory.carry` adds.
    Solvers accept the product in place of their own pass over the panel
    and reject it once the memory has changed.
    """

    u: np.ndarray
    version: int
    error: float


@dataclass(frozen=True)
class AbVectors:
    """The rank-one terms of a pair memory as coefficient rows over its panel.

    ``rows`` (2m x 2m) holds b_0, a_0, b_1, a_1, ... (oldest pair first,
    the fold order of the shifted recursion) over the rows of
    :attr:`PairMemory.panel`: b_i = rows[2i] @ panel, a_i = rows[2i + 1]
    @ panel.  ``weights`` (+1, -1, ...) are their signs in B.  Both are
    read-only.  The inverse product's kernel K_H is a separate factor,
    :meth:`PairMemory.inverse_kernel`.
    """

    rows: np.ndarray
    weights: np.ndarray


class PairMemory:
    """FIFO store of L-BFGS curvature pairs with implicit-matrix products.

    Pairs enter through :meth:`try_update`, which enforces the curvature
    gate sqrt(eps) < s^T y < 1/sqrt(eps); accepted pairs overwrite the
    oldest slot once ``capacity`` is reached.  gamma is refreshed from the
    newest pair as s^T y / ||y||^2 and thresholded from below by
    sqrt(eps), which bounds ||B0|| by 1/sqrt(eps).  Nothing bounds gamma
    from above: s = 1e10 e_0, y = 1e-17 e_0 passes the gate and sets
    gamma = 1e27.  Before any update B is the identity (gamma = 1).

    Slot j occupies panel rows 2j (s) and 2j + 1 (y).  Slots fill in
    order and then wrap, so the stored pairs always occupy the leading
    2m rows.  All operations except ``try_update`` are read-only.  Each
    factor, the a/b rows (:meth:`ab_vectors`) and K_H
    (:meth:`inverse_kernel`), is built on its first read after a mutation
    and cached until the next one, so a solver pays only for the factor it
    reads.
    """

    def __init__(self, n: int, capacity: int = 5):
        for name, size in (("dimension", n), ("capacity", capacity)):
            if not isinstance(size, numbers.Integral) or isinstance(size, bool):
                raise ValueError(f"{name} must be an integer, got {size!r}")
            if size < 1:
                raise ValueError(f"{name} must be >= 1, got {size}")
        self.n = n
        self.capacity = capacity
        self._panel = np.zeros((2 * capacity, n))
        self._gram = np.zeros((2 * capacity, 2 * capacity))
        self._m = 0
        self._head = 0  # slot of the oldest pair
        self._gamma = 1.0
        self._ab: AbVectors | None = None
        self._k_h: np.ndarray | None = None
        self._version = 0

    @property
    def m(self) -> int:
        """Number of stored pairs."""
        return self._m

    @property
    def gamma(self) -> float:
        """Scale of the base matrix B0 = gamma^{-1} I (1 while empty)."""
        return self._gamma

    @property
    def version(self) -> int:
        """Mutation counter; bumps on every accepted update."""
        return self._version

    @property
    def panel(self) -> np.ndarray:
        """Read-only view of the (2m, n) panel rows that hold pairs."""
        view = self._panel[: 2 * self._m]
        view.flags.writeable = False
        return view

    @property
    def gram(self) -> np.ndarray:
        """Read-only view of the (2m, 2m) Gram matrix panel @ panel.T."""
        k = 2 * self._m
        view = self._gram[:k, :k]
        view.flags.writeable = False
        return view

    def _slots(self) -> list[int]:
        """Slot indices, oldest pair first."""
        return [(self._head + i) % self.capacity for i in range(self._m)]

    @property
    def pairs(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Stored (s, y) pairs, oldest first (copies)."""
        return [
            (self._panel[2 * j].copy(), self._panel[2 * j + 1].copy())
            for j in self._slots()
        ]

    def _check_dim(self, v: np.ndarray, name: str) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n,):
            raise ValueError(f"{name} has shape {v.shape}, expected ({self.n},)")
        return v

    def try_update(self, s_plus, y_plus) -> bool:
        """Offer a new pair; store it only if the curvature gate passes.

        Returns True iff sqrt(eps) < s^T y < 1/sqrt(eps) and s^T s and
        y^T y are finite.  All three are tested before anything is
        written, so on rejection the memory is untouched.  On acceptance
        the pair overwrites the oldest slot when full, and its two Gram
        columns P [s y] over the updated panel are summed in blocks of
        GRAM_BLOCK columns, one pass over the panel.  The slot's own 2x2
        block takes the three tested dots, so each is formed once and G
        stays exactly symmetric; gamma is recomputed from them.
        """
        s = self._check_dim(s_plus, "s_plus")
        y = self._check_dim(y_plus, "y_plus")
        sy = float(s @ y)
        # NaN compares false on both sides, so non-finite data is rejected.
        if not (SQRT_EPS < sy < 1.0 / SQRT_EPS):
            return False
        # By Cauchy-Schwarz each new Gram entry is at most the larger of
        # two squared row norms, so finite s^T s and y^T y keep G finite.
        with np.errstate(over="ignore"):
            ss, yy = float(s @ s), float(y @ y)
        if not (math.isfinite(ss) and math.isfinite(yy)):
            return False
        if self._m < self.capacity:
            slot = self._m
            self._m += 1
        else:
            slot = self._head
            self._head = (slot + 1) % self.capacity
        rows = slice(2 * slot, 2 * slot + 2)  # s, then y
        pair = self._panel[rows]
        pair[0], pair[1] = s, y
        k = 2 * self._m
        column = np.zeros((k, 2))
        for a in range(0, self.n, GRAM_BLOCK):
            column += self._panel[:k, a : a + GRAM_BLOCK] @ pair[:, a : a + GRAM_BLOCK].T
        self._gram[:k, rows] = column
        self._gram[rows, :k] = column.T
        self._gram[rows, rows] = ((ss, sy), (sy, yy))
        self._gamma = max(SQRT_EPS, sy / yy)
        self._ab = self._k_h = None
        self._version += 1
        return True

    def carry(self, pg: PanelProduct, g, gnorm_trial: float) -> PanelProduct | None:
        """Bring pg = P g across an accepted step that stored the newest pair (s, y).

        ``pg`` must be from the version just before that update, else
        ValueError.  Returns P (g + y), the product with the trial
        gradient g + y of norm ``gnorm_trial``, with no pass over the
        panel: the entries for the other slots are kept, the newest
        slot's two become the direct products s^T g and y^T g, and the
        newest pair's Gram column P y is added.  Each carried entry adds
        the rounding of one product with y and of one addition, so the
        bound grows by ||y|| + ||g_trial|| in units of n eps ||panel row||,
        ||y|| read from the diagonal of G.  Returns None, forming nothing,
        once that bound passes CARRY_BOUND ||g_trial||: the next solve
        forms u afresh.
        """
        if pg.version != self._version - 1:
            raise ValueError("product is not from the version before the last update")
        k = 2 * self._m
        slot = (self._head + self._m - 1) % self.capacity  # the newest pair
        s_row, y_row = 2 * slot, 2 * slot + 1
        error = pg.error + (math.sqrt(self._gram[y_row, y_row]) + gnorm_trial)
        if error > CARRY_BOUND * gnorm_trial:
            return None
        u = np.empty(k)
        u[: pg.u.size] = pg.u  # when the memory grew, the new slot is last
        u[s_row] = self._panel[s_row] @ g
        u[y_row] = self._panel[y_row] @ g
        u += self._gram[:k, y_row]
        return PanelProduct(u, self._version, error)

    def inv_multiply(self, z) -> np.ndarray:
        """Return B^{-1} z = gamma z + P^T K_H (P z), K_H from :meth:`inverse_kernel`."""
        z = self._check_dim(z, "z")
        panel = self._panel[: 2 * self._m]
        return self._gamma * z + panel.T @ (self.inverse_kernel() @ (panel @ z))

    def multiply(self, v) -> np.ndarray:
        """Return B v = v / gamma - sum a_i (a_i^T v) + sum b_i (b_i^T v)."""
        v = self._check_dim(v, "v")
        ab = self.ab_vectors()
        panel = self._panel[: 2 * self._m]
        return (1.0 / self._gamma) * v + panel.T @ fold(ab.rows, ab.weights, panel @ v)

    def ab_vectors(self) -> AbVectors:
        """Return the a/b rows and weights, built on the first read after a mutation.

        Raises NumericalBreakdownError when some s_i^T B_i s_i is not
        positive, which signals loss of positive definiteness despite the
        curvature gate.
        """
        if self._ab is None:
            self._ab = self._build_ab()
        return self._ab

    def inverse_kernel(self) -> np.ndarray:
        """Return K_H of B^{-1} = gamma I + P^T K_H P, built on the first read after a mutation.

        The (2m, 2m) array is read-only and indexed like the panel rows.
        """
        if self._k_h is None:
            self._k_h = self._build_k_h()
        return self._k_h

    def _build_ab(self) -> AbVectors:
        m, k = self._m, 2 * self._m
        gram = self._gram[:k, :k]
        rows = np.zeros((k, k))
        weights = np.tile([1.0, -1.0], m)
        for i, j in enumerate(self._slots()):
            si, yi = 2 * j, 2 * j + 1
            # Coefficients of B_i s_i, with every inner product read from G.
            bs = fold(rows[: 2 * i], weights[: 2 * i], gram[:, si])
            bs[si] += 1.0 / self._gamma
            sbs = float(bs @ gram[:, si])
            if not np.isfinite(sbs) or sbs <= 0.0:
                raise NumericalBreakdownError(
                    f"s^T B s = {sbs:.3e} for pair {i}; B lost positive definiteness"
                )
            rows[2 * i, yi] = 1.0 / math.sqrt(gram[si, yi])  # b_i
            rows[2 * i + 1] = bs / math.sqrt(sbs)  # a_i
        rows.flags.writeable = weights.flags.writeable = False
        return AbVectors(rows=rows, weights=weights)

    def _build_k_h(self) -> np.ndarray:
        """The compact inverse (Byrd, Nocedal & Schnabel 1994, eq. 2.6).

        With R = triu(S^T Y) and D = diag(S^T Y), both oldest pair first,
        K_H = [[R^-T (D + gamma Y^T Y) R^-1, -gamma R^-T], [-gamma R^-1, 0]]
        over (S, Y).  G is gathered once in that order and the blocks are
        scattered once back to the panel's rows.
        """
        m, slots = self._m, self._slots()
        panel_rows = [2 * j for j in slots] + [2 * j + 1 for j in slots]  # S, then Y
        order = np.ix_(panel_rows, panel_rows)
        gram = self._gram[order]
        sy, yy = gram[:m, m:], gram[m:, m:]
        r_inv = np.linalg.inv(np.triu(sy))
        blocks = np.zeros((2 * m, 2 * m))
        blocks[:m, :m] = r_inv.T @ (np.diag(np.diag(sy)) + self._gamma * yy) @ r_inv
        blocks[:m, m:] = -self._gamma * r_inv.T
        blocks[m:, :m] = -self._gamma * r_inv
        k_h = np.empty_like(blocks)
        k_h[order] = blocks  # order is a permutation of the 2m rows
        k_h.flags.writeable = False
        return k_h

    def materialize_dense(self) -> np.ndarray:
        """Form B explicitly.  Test oracle, small n only.

        B is built by the dense BFGS update
        B <- B - (B s)(B s)^T / (s^T B s) + y y^T / (y^T s) from I / gamma
        over the stored pairs, oldest first.  It shares no coefficient with
        the a/b rows of :meth:`ab_vectors`, so a fault in those rows shows
        as a disagreement instead of moving the oracle with it.
        """
        b = np.eye(self.n) / self._gamma
        for s, y in self.pairs:
            bs = b @ s
            b += np.outer(y, y) / (y @ s) - np.outer(bs, bs) / (s @ bs)
        return b
