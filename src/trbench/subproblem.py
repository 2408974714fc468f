"""Trust-region subproblem solvers over an implicit L-BFGS model.

Solves min_p g^T p + 0.5 p^T B p subject to ||p|| <= delta, where B is a
positive-definite pair memory.  Two production solvers are provided:

* :func:`mss_solve` drives the boundary multiplier sigma with Newton's
  method on the pole function phi(sigma) = 1/||p(sigma)|| - 1/delta,
  replacing the Cholesky solves of the classic More-Sorensen iteration
  with the matrix-free shifted recursion.  It solves to any requested
  boundary accuracy.
* :func:`steihaug_solve` is the Steihaug-Toint truncated conjugate
  gradient method, which stops at the boundary and does not polish.

Both solvers keep every iterate in one frame, span{g} + range(P^T) for
the memory's panel P, as coordinates x of p = x[0] g + P^T x[1:].
:func:`frame` makes the frame's Gram matrix F = [[g^T g, u^T], [u, G]]
from u = P g, the one O(M n) pass of a solve, which a caller that
already knows u (the trust-region driver, see :meth:`PairMemory.carry`)
passes in as ``Subproblem.pg``; every inner product is then x^T F y.
A Newton iteration (:func:`gram_iterate`) costs one O(M^3) recursion
``prepare`` plus O(M^2) work, a CG iteration (:func:`steihaug_solve`)
O(M^2) with no product with B, and neither does n-length work.
:func:`frame_step` forms p once, at exit, with one pass P^T x.

:func:`dense_reference_solve` (eigendecomposition plus bisection) and
:func:`check_optimality` exist for verification at desk scale.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDerivativeError, NumericalBreakdownError
from .memory import EPS, SQRT_EPS, PairMemory, PanelProduct, fold
from .shifted import apply as shifted_apply
from .shifted import prepare as shifted_prepare

INTERIOR = "interior"
BOUNDARY = "boundary"
MAX_ITERATIONS = "max_iterations"
BREAKDOWN = "breakdown"

# Iteration caps: flat for mss's Newton steps in sigma, which do not grow
# with n; min(n, STEIHAUG_MAX_ITERATIONS) for CG, which ends in n steps.
MSS_MAX_ITERATIONS = 100
STEIHAUG_MAX_ITERATIONS = 100
# Relative boundary accuracy of :func:`dense_reference_solve`.
REFERENCE_TOL = 1e-10
# mss's default relative boundary accuracy (``MssOptions.tau_ms``), also
# the slack of :func:`check_optimality`'s feasibility test.
TAU_MS = SQRT_EPS


def steihaug_tolerance(gnorm: float) -> float:
    """The residual norm ||g|| min(0.1, ||g||^0.1) at which steihaug's CG stops, gnorm = ||g||.

    :func:`steihaug_solve` looks it up when it runs, so a caller may
    patch it to run CG to another accuracy.
    """
    return gnorm * min(0.1, gnorm**0.1)


@dataclass(frozen=True)
class Subproblem:
    """Gradient and radius defining one trust-region subproblem.

    ``gg`` is g^T g, the corner of both solvers' Gram frame, formed here
    unless given.  It is finite exactly when every entry of g is finite
    and the sum does not overflow, so one check rejects both.  ``pg``,
    when given, is P g for the panel P of the memory at its current
    version, and the solver skips that pass; the caller vouches that a
    given ``gg`` or ``pg`` belongs to this g.
    """

    g: np.ndarray
    delta: float
    pg: PanelProduct | None = None
    gg: float | None = field(default=None, repr=False)

    def __post_init__(self):
        g = np.asarray(self.g, dtype=float)
        delta = float(self.delta)
        if g.ndim != 1:
            raise ValueError("g must be a vector")
        with np.errstate(over="ignore", invalid="ignore"):
            gg = float(g @ g if self.gg is None else self.gg)
        if not math.isfinite(gg):
            raise ValueError(f"g must be finite with finite g^T g, got g^T g = {gg}")
        if not delta > 0.0:
            raise ValueError(f"delta must be positive, got {delta}")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "gg", gg)


@dataclass
class MssOptions:
    """Boundary accuracy for :func:`mss_solve`.

    tau_ms is the relative boundary tolerance |(||p|| - delta)| <= tau_ms*delta,
    finite and at least 4 eps: below that the rounding of ||p|| can
    keep Newton from settling, and at 1e-16 half of random boundary
    solves end "max_iterations".  The Newton iteration cap is the constant
    MSS_MAX_ITERATIONS = 100.
    """

    tau_ms: float = TAU_MS

    def __post_init__(self):
        if not 4.0 * EPS <= self.tau_ms < math.inf:
            raise ValueError(f"tau_ms must be finite and at least 4 eps = {4.0 * EPS:.3g}, got {self.tau_ms}")


@dataclass
class SubproblemResult:
    """Solver output: step, multiplier, exit status and counters.

    ``p_norm`` is ||p||, taken in n-space from the returned p.  ``pg`` is
    the P g the solve used, for a caller to carry to the next one: the
    given ``Subproblem.pg`` unchanged, else the product the solve formed,
    whose rounding bound is ||g||.
    """

    p: np.ndarray
    p_norm: float
    sigma: float
    status: str
    inner_iterations: int
    model_reduction: float
    pg: PanelProduct


@dataclass
class OptimalityReport:
    """Measured violations of the global-optimality conditions, and whether they pass."""

    residual: float
    complementarity: float
    feasibility: float
    passed: bool


def phi(p_norm: float, delta: float) -> float:
    """Pole function 1/p_norm - 1/delta whose root puts p on the boundary."""
    p_norm = float(p_norm)
    delta = float(delta)
    if p_norm <= 0.0:
        raise ValueError(f"p_norm must be positive, got {p_norm}")
    if delta <= 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    return 1.0 / p_norm - 1.0 / delta


def _exponent_clamp(x: float, bound: int) -> float:
    """The power of two that brings x's binary exponent into [-bound, bound], 1 inside."""
    exponent = math.frexp(float(x))[1]
    return math.ldexp(1.0, min(max(exponent, -bound), bound) - exponent)


def newton_sigma_update(
    sigma: float, p_norm: float, curvature: float, delta: float
) -> float:
    """One Newton step sigma - phi/phi' for the boundary multiplier.

    ``curvature`` is p^T (B + sigma I)^{-1} p for the step p of norm
    ``p_norm`` solved at sigma, which makes phi'(sigma) = curvature /
    ||p||^3 without any factorization.

    phi/phi' is unchanged when ||p|| scales by 2^-k and curvature by
    2^-2k, and scaling by a power of two is exact, so an ||p|| outside
    2^-300..2^300 is scaled into it before it is cubed (k = 0, the plain
    formula, inside): the cube neither overflows nor underflows.
    """
    value = phi(p_norm, delta)
    scale = _exponent_clamp(p_norm, 300)
    slope = float(curvature) * scale * scale / (float(p_norm) * scale) ** 3  # phi'/scale
    if slope == 0.0:
        raise DegenerateDerivativeError("phi'(sigma) = 0")
    return float(sigma) - value / slope / scale


def frame(mem: PairMemory, sp: Subproblem) -> np.ndarray:
    """Return the Gram matrix F = [[g^T g, u^T], [u, G]] of the frame.

    The frame is span{g} + range(P^T) for the memory's panel P, with
    u = P g its one O(M n) pass, skipped when ``sp.pg`` gives u; a ``pg``
    from an older version of the memory raises ValueError.  An iterate
    with coordinates x is p = x[0] g + P^T x[1:] (:func:`frame_step`), so
    ||p||^2 = x^T F x and P p = (F x)[1:].
    """
    mem._check_dim(sp.g, "g")
    if sp.pg is None:
        u = mem.panel @ sp.g
    elif sp.pg.version != mem.version:
        raise ValueError("pg is stale: memory changed after it was formed")
    else:
        u = sp.pg.u
    f = np.empty((u.size + 1, u.size + 1))
    f[0, 0] = sp.gg
    f[0, 1:] = f[1:, 0] = u
    f[1:, 1:] = mem.gram
    return f


def frame_step(mem: PairMemory, g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Form p = x[0] g + P^T x[1:] in n-space: one pass over the panel, none with no pairs."""
    if mem.m == 0:
        return x[0] * g
    return x[0] * g + np.dot(mem.panel.T, x[1:])


def _norm(p: np.ndarray) -> float:
    """Both solvers' n-space ||p||, taken of 2^600 p when it reads below 2^-511.

    Above 2^-511, the root of the least normal, a square that underflows is
    off by at most 2^-1075 <= eps ||p||^2 / 2, inside the dot product's own
    rounding.  Below it every entry is below 2^-511, so 2^600 p has no
    subnormal or overflowing square; both scalings are exact.
    """
    norm = float(np.linalg.norm(p))
    if norm < 2.0**-511:
        norm = float(np.linalg.norm(p * 2.0**600)) * 2.0**-600
    return norm


def _result(mem, sp, f, p, p_norm, sigma, status, iterations, reduction) -> SubproblemResult:
    """Both solvers' result from the step p, its n-space norm and the frame f.

    A boundary exit whose ||p|| is not > 0 (p underflowed to 0) is not on
    the sphere and becomes a breakdown.  ``pg`` is ``sp.pg``, else the u = P g
    read from f, with the rounding bound ||g|| of a direct product.
    """
    if status == BOUNDARY and not p_norm > 0.0:
        status = BREAKDOWN
    pg = sp.pg or PanelProduct(f[0, 1:], mem.version, math.sqrt(sp.gg))
    return SubproblemResult(p=p, p_norm=p_norm, sigma=sigma, status=status,
                            inner_iterations=iterations, model_reduction=reduction, pg=pg)


@dataclass(frozen=True)
class GramIterate:
    """The solution p of (B + sigma I) p = -g, held as frame coordinates x.

    ``p_norm`` is ||p|| and ``curvature`` is p^T (B + sigma I)^{-1} p,
    both read from the frame's Gram matrix without forming p.
    """

    sigma: float
    x: np.ndarray
    p_norm: float
    curvature: float


def gram_iterate(mem: PairMemory, f: np.ndarray, sigma: float) -> GramIterate:
    """Solve (B + sigma I) p = -g in Gram space, given the frame's Gram matrix f.

    (B + sigma I)^{-1} = base I + P^T K P: at sigma = 0, base = gamma and
    K is the compact inverse's K_H; at sigma > 0 both come from
    ``shifted_prepare(mem, sigma)``, and ``shifted_apply`` applies K
    through its factors, twice per call.  With u = P g, p has the
    coordinates x = -[base; K u], so

        ||p||^2 = x^T F x,  q = P p = (F x)[1:],
        p^T (B + sigma I)^{-1} p = base ||p||^2 + q^T K q,

    an O(M^2) cost on top of the O(M^3) ``prepare``.  Raises
    NumericalBreakdownError when the recursion does.
    """
    if sigma == 0.0:
        base = mem.gamma
        kernel = functools.partial(np.matmul, mem.ab_vectors().k_h)
    else:
        state = shifted_prepare(mem, sigma)
        base = state.base
        kernel = functools.partial(shifted_apply, state)
    x = -np.concatenate(([base], kernel(f[0, 1:])))
    fx = f @ x
    pp = max(float(x @ fx), 0.0)
    q = fx[1:]
    curvature = base * pp + float(q @ kernel(q))
    return GramIterate(sigma=sigma, x=x, p_norm=math.sqrt(pp), curvature=curvature)


def mss_solve(
    mem: PairMemory, sp: Subproblem, opts: MssOptions | None = None
) -> SubproblemResult:
    """Solve the subproblem to boundary accuracy tau_ms via sigma-Newton.

    Starts from the unconstrained step p = -B^{-1} g (returned directly
    when inside the region).  Otherwise takes Newton steps in sigma on
    the pole function, each at the price of one recursion ``prepare``:
    the iterates are held in Gram space (:func:`gram_iterate`), so after
    one O(M n) pass u = P g (none when ``sp.pg`` gives u) the loop costs
    O(M^3) per iteration and does no n-length work.  p is formed once, at
    exit (one pass P^T x), and the interior and boundary tests are
    decided on the n-space norm of
    the returned p; if that norm misses the test the Gram-space norm
    passed, the iteration continues from it.  No forward product with B
    is made: since (B + sigma I) p = -g holds for the returned pair, the
    model reduction is (sigma ||p||^2 - g^T p)/2, a sum of two
    nonnegative terms.

    Returns a result with status "interior", "boundary", "max_iterations"
    (MSS_MAX_ITERATIONS = 100 Newton steps taken, whatever n is; the last
    iterate returned) or "breakdown" (recursion failure or a negative
    Newton step, both pathological for SPD B, or an ||p|| that underflows).
    """
    if opts is None:
        opts = MssOptions()
    g, delta = sp.g, sp.delta
    f = frame(mem, sp)
    it = gram_iterate(mem, f, 0.0)
    p_norm = it.p_norm
    p = None  # the iterate in n-space, formed only when it may be returned
    iterations = 0

    def settled(norm: float) -> str | None:
        if iterations == 0 and norm <= delta:
            return INTERIOR
        if abs(norm - delta) <= opts.tau_ms * delta:
            return BOUNDARY
        return None

    while True:
        # A Gram-space norm that cancelled to zero cannot drive Newton;
        # the n-space norm replaces it as it does at an exit, and one that
        # is zero (every entry of p underflowed) is a breakdown.
        if settled(p_norm) is not None or not p_norm > 0.0:
            p = frame_step(mem, g, it.x)
            p_norm = _norm(p)
            status = settled(p_norm) or (None if p_norm > 0.0 else BREAKDOWN)
            if status is not None:
                break
        if iterations >= MSS_MAX_ITERATIONS:
            status = MAX_ITERATIONS
            break
        iterations += 1
        try:
            sigma_new = newton_sigma_update(it.sigma, p_norm, it.curvature, delta)
            if not math.isfinite(sigma_new) or sigma_new < 0.0:
                # Newton stays in [0, sigma*] for SPD B; a negative step
                # means the iteration has lost its footing.
                status = BREAKDOWN
                break
            # The iterate changes only once it is solved, so a breakdown
            # returns a pair (sigma, p) that solves the system.
            it = gram_iterate(mem, f, sigma_new)
        except (NumericalBreakdownError, DegenerateDerivativeError):
            status = BREAKDOWN
            break
        p, p_norm = None, it.p_norm

    if p is None:
        p = frame_step(mem, g, it.x)
        p_norm = _norm(p)
    reduction = 0.5 * (it.sigma * p_norm**2 - float(g @ p))
    return _result(mem, sp, f, p, p_norm, it.sigma, status, iterations, reduction)


def _boundary_step(pp: float, pd: float, dd: float, delta: float) -> float:
    """Positive tau with ||p + tau d|| = delta, given p^T p, p^T d and d^T d.

    For ||p|| <= delta and d != 0; a rest delta^2 - p^T p that rounds
    negative counts as 0, and so does d^T d when it rounds to 0.  tau is
    unchanged when p, d and delta scale alike, so a delta outside
    2^-100..2^100 is scaled into it by an exact power of two first: no
    product below under- or overflows, and no bit moves inside.
    """
    scale = _exponent_clamp(delta, 100)
    pp, pd, dd, delta = pp * scale * scale, pd * scale * scale, dd * scale * scale, delta * scale
    rest = max(delta**2 - pp, 0.0)
    disc = math.sqrt(pd**2 + dd * rest)
    if pd >= 0.0:
        return rest / (pd + disc) if (pd + disc) > 0.0 else 0.0
    return (disc - pd) / dd if dd > 0.0 else 0.0


def steihaug_solve(mem: PairMemory, sp: Subproblem) -> SubproblemResult:
    """Truncated conjugate gradients on B p = -g inside the region.

    CG starts from p = 0 and stops at the first of: a residual norm at
    most :func:`steihaug_tolerance` of ||g||, an iterate crossing the
    boundary (step truncated to the sphere), non-positive or NaN
    curvature (cannot occur for SPD B, guarded anyway), or the iteration
    cap min(n, 100) (STEIHAUG_MAX_ITERATIONS = 100).

    CG runs on frame coordinates x of v = x[0] g + P^T x[1:], of length
    2m + 1: v^T w = x^T F y, and B v has the coordinates
    c x + [0; fold(C, w, (F x)[1:])] for the memory's coefficient rows C,
    weights w and c = 1/gamma.  A solve makes one O(M n) pass u = P g
    (none when ``sp.pg`` gives u), O(M^2) work per CG iteration with no
    n-length work, and one pass P^T x at exit to form p.  Squared norms
    read from F are clamped at 0, as in :func:`gram_iterate`.  No product
    with B is made: the model value g^T p + 0.5 p^T B p is advanced along
    each step t d from r^T d and the curvature d^T B d already at hand.

    The multiplier is always reported as 0; a boundary exit carries
    status "boundary" without polishing the boundary equation, and
    "breakdown" when its n-space ||p|| underflows to zero.
    """
    f = frame(mem, sp)
    ab = mem.ab_vectors()
    c = 1.0 / mem.gamma
    max_iterations = min(mem.n, STEIHAUG_MAX_ITERATIONS)
    rr = float(f[0, 0])  # ||r||^2 = g^T g at p = 0
    gnorm = math.sqrt(rr)
    tolerance = steihaug_tolerance(gnorm)

    x = np.zeros(f.shape[0])  # the coordinates of p
    pp = 0.0  # ||p||^2
    r = np.zeros(f.shape[0])  # the residual g + B p
    r[0] = 1.0
    q = 0.0  # model value g^T p + 0.5 p^T B p at the current p
    iterations = 0
    status = MAX_ITERATIONS
    if gnorm <= tolerance:
        status = INTERIOR  # zero gradient: p = 0 is optimal
    else:
        d = -r
        while iterations < max_iterations:
            fd = f @ d
            bd = c * d  # the coordinates of B d
            bd[1:] += fold(ab.rows, ab.weights, fd[1:])
            iterations += 1
            curvature = float(fd @ bd)
            rd = float(fd @ r)
            pd = float(fd @ x)
            dd = max(float(fd @ d), 0.0)
            if curvature > 0.0:
                alpha = rr / curvature
                pp_trial = max(pp + alpha * (2.0 * pd + alpha * dd), 0.0)
            if not curvature > 0.0 or math.sqrt(pp_trial) > sp.delta:
                # Non-positive or NaN curvature, or a step out of the
                # region: stop on the sphere.
                t = _boundary_step(pp, pd, dd, sp.delta)
                q += t * rd + 0.5 * t**2 * curvature
                x = x + t * d
                status = BOUNDARY
                break
            q += alpha * rd + 0.5 * alpha**2 * curvature
            x = x + alpha * d
            pp = pp_trial
            r = r + alpha * bd
            rr_new = max(float(r @ (f @ r)), 0.0)
            if math.sqrt(rr_new) <= tolerance:
                status = INTERIOR
                break
            d = -r + (rr_new / rr) * d
            rr = rr_new

    p = frame_step(mem, sp.g, x)
    return _result(mem, sp, f, p, _norm(p), 0.0, status, iterations, -q)


def dense_reference_solve(b_dense, g, delta: float) -> tuple[np.ndarray, float]:
    """Reference solver on an explicit SPD matrix (test oracle, small n).

    Uses an eigendecomposition B = Q diag(lam) Q^T.  If the unconstrained
    minimizer fits inside the region it is returned with sigma = 0;
    otherwise sigma solves sum_i (q_i^T g)^2 / (lam_i + sigma)^2 = delta^2
    by bisection on the pole function, to
    |(||p|| - delta)| <= REFERENCE_TOL * delta with REFERENCE_TOL = 1e-10.
    """
    b_dense = np.asarray(b_dense, dtype=float)
    g = np.asarray(g, dtype=float)
    delta = float(delta)
    n = g.size
    if b_dense.shape != (n, n):
        raise ValueError("B and g have inconsistent shapes")
    if not np.allclose(b_dense, b_dense.T, rtol=0.0, atol=1e-12 * max(1.0, float(np.abs(b_dense).max()))):
        raise ValueError("B must be symmetric")
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    lam, q = np.linalg.eigh(b_dense)
    if lam[0] <= 0.0:
        raise ValueError(f"B must be positive definite (min eigenvalue {lam[0]:.3e})")
    coeff = q.T @ g

    def p_norm(sigma: float) -> float:
        return float(np.linalg.norm(coeff / (lam + sigma)))

    if p_norm(0.0) <= delta:
        return -q @ (coeff / lam), 0.0

    lo = 0.0
    hi = max(float(np.linalg.norm(g)) / delta - float(lam[0]), SQRT_EPS)
    while p_norm(hi) > delta:
        hi *= 2.0
    sigma = hi
    for _ in range(300):
        sigma = 0.5 * (lo + hi)
        norm = p_norm(sigma)
        if abs(norm - delta) <= REFERENCE_TOL * delta:
            break
        if norm > delta:
            lo = sigma
        else:
            hi = sigma
        if hi - lo <= EPS * max(1.0, sigma):
            break
    return -q @ (coeff / (lam + sigma)), sigma


def check_optimality(
    mem: PairMemory, result: SubproblemResult, sp: Subproblem, tol: float
) -> OptimalityReport:
    """Certify a result against the global-optimality conditions.

    Measures the stationarity residual ||B p + sigma p + g|| / ||g||, the
    complementarity |sigma * (delta - ||p||)| and the feasibility excess
    ||p|| - delta (1 + TAU_MS), TAU_MS being mss's default boundary
    tolerance.  Passing requires residual <= tol,
    complementarity <= tol * max(1, sigma*delta) and no feasibility excess.
    """
    p = result.p
    sigma = result.sigma
    g = sp.g
    delta = sp.delta
    gnorm = float(np.linalg.norm(g))
    p_norm = float(np.linalg.norm(p))
    residual = float(np.linalg.norm(mem.multiply(p) + sigma * p + g))
    residual /= gnorm if gnorm > 0.0 else 1.0
    complementarity = abs(sigma * (delta - p_norm))
    feasibility = p_norm - delta * (1.0 + TAU_MS)
    passed = residual <= tol and complementarity <= tol * max(1.0, sigma * delta) and feasibility <= 0.0
    return OptimalityReport(residual, complementarity, feasibility, passed)
