"""Trust-region subproblem solvers over an implicit L-BFGS model.

Solves min_p g^T p + 0.5 p^T B p subject to ||p|| <= delta, where B is a
positive-definite pair memory.  Two production solvers are provided:

* :func:`mss_solve` drives the boundary multiplier sigma with Newton's
  method on the pole function phi(sigma) = 1/||p(sigma)|| - 1/delta,
  replacing the Cholesky solves of the classic More-Sorensen iteration
  with the matrix-free shifted recursion.  It solves to any requested
  boundary accuracy.  Every iterate lies in g + span(P) for the
  memory's panel P, so the Newton loop runs in Gram space
  (:func:`gram_iterate`): one O(M n) pass forms P g per solve, each
  Newton iteration costs one O(M^3) recursion ``prepare`` plus O(M^2)
  work with no n-length vector, and the step is formed once at exit
  with one pass P^T z and one n-space norm.
* :func:`steihaug_solve` is the Steihaug-Toint truncated conjugate
  gradient method, which stops at the boundary and does not polish.

:func:`dense_reference_solve` (eigendecomposition plus bisection) and
:func:`check_optimality` exist for verification at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDerivativeError, NumericalBreakdownError
from .memory import EPS, SQRT_EPS, PairMemory
from .shifted import apply as shifted_apply  # noqa: F401  (public module attribute)
from .shifted import prepare as shifted_prepare

INTERIOR = "interior"
BOUNDARY = "boundary"
MAX_ITERATIONS = "max_iterations"
BREAKDOWN = "breakdown"


@dataclass
class Subproblem:
    """Gradient and radius defining one trust-region subproblem."""

    g: np.ndarray
    delta: float

    def __post_init__(self):
        self.g = np.asarray(self.g, dtype=float)
        self.delta = float(self.delta)
        if self.g.ndim != 1:
            raise ValueError("g must be a vector")
        if not np.all(np.isfinite(self.g)):
            raise ValueError("g must be finite")
        if not self.delta > 0.0:
            raise ValueError(f"delta must be positive, got {self.delta}")


@dataclass
class MssOptions:
    """Stopping controls for :func:`mss_solve`.

    tau_ms is the relative boundary tolerance |(||p|| - delta)| <= tau_ms*delta.
    max_iterations defaults to min(n, 100) at solve time.
    """

    tau_ms: float = SQRT_EPS
    max_iterations: int | None = None


@dataclass
class SubproblemResult:
    """Solver output: step, multiplier, exit status and counters."""

    p: np.ndarray
    sigma: float
    status: str
    inner_iterations: int
    model_reduction: float


@dataclass
class OptimalityReport:
    """Measured violations of the global-optimality conditions."""

    residual: float
    complementarity: float
    feasibility: float
    residual_ok: bool
    complementarity_ok: bool
    feasibility_ok: bool
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = (
            self.residual_ok and self.complementarity_ok and self.feasibility_ok
        )


def phi(p_norm: float, delta: float) -> float:
    """Pole function 1/p_norm - 1/delta whose root puts p on the boundary."""
    p_norm = float(p_norm)
    delta = float(delta)
    if p_norm <= 0.0:
        raise ValueError(f"p_norm must be positive, got {p_norm}")
    if delta <= 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    return 1.0 / p_norm - 1.0 / delta


def newton_sigma_update(
    sigma: float, p_norm: float, curvature: float, delta: float
) -> float:
    """One Newton step sigma - phi/phi' for the boundary multiplier.

    ``curvature`` is p^T (B + sigma I)^{-1} p for the step p of norm
    ``p_norm`` solved at sigma, which makes phi'(sigma) = curvature /
    ||p||^3 without any factorization.
    """
    value = phi(p_norm, delta)
    slope = float(curvature) / float(p_norm) ** 3
    if slope == 0.0:
        raise DegenerateDerivativeError("phi'(sigma) = 0")
    return float(sigma) - value / slope


@dataclass(frozen=True)
class GramIterate:
    """The solution p = -(base g + P^T z) of (B + sigma I) p = -g.

    ``z`` holds the coefficients over the memory's panel P; ``p_norm`` is
    ||p|| and ``curvature`` is p^T (B + sigma I)^{-1} p, both read from
    the Gram matrix without forming p.
    """

    sigma: float
    base: float
    z: np.ndarray
    p_norm: float
    curvature: float

    def step(self, g: np.ndarray, panel: np.ndarray) -> np.ndarray:
        """Form p in n-space: one pass over the panel."""
        return -(self.base * g + panel.T @ self.z)


def gram_iterate(mem: PairMemory, u, gg: float, sigma: float) -> GramIterate:
    """Solve (B + sigma I) p = -g in Gram space, given u = P g and gg = g^T g.

    (B + sigma I)^{-1} = base I + P^T K P: at sigma = 0, base = gamma and
    K is the compact inverse's K_H; at sigma > 0 both come from
    ``shifted_prepare(mem, sigma)``, K = R^T diag(w) R applied through its
    factors.  With z = K u and q = P p = -(base u + G z),

        ||p||^2 = base^2 g^T g + 2 base u^T z + z^T G z,
        p^T (B + sigma I)^{-1} p = base ||p||^2 + q^T K q,

    an O(M^2) cost on top of the O(M^3) ``prepare``.  Raises
    NumericalBreakdownError when the recursion does.
    """
    if sigma == 0.0:
        base = mem.gamma
        k_h = mem.ab_vectors().k_h

        def kernel(v):
            return k_h @ v
    else:
        state = shifted_prepare(mem, sigma)
        base = state.base

        def kernel(v):
            return (state.weights * (state.r_coef @ v)) @ state.r_coef

    z = kernel(u)
    gz = mem.gram @ z
    pp = max(base * base * gg + 2.0 * base * float(u @ z) + float(z @ gz), 0.0)
    q = -(base * u + gz)
    curvature = base * pp + float(q @ kernel(q))
    return GramIterate(
        sigma=sigma, base=base, z=z, p_norm=math.sqrt(pp), curvature=curvature
    )


def mss_solve(
    mem: PairMemory, sp: Subproblem, opts: MssOptions | None = None
) -> SubproblemResult:
    """Solve the subproblem to boundary accuracy tau_ms via sigma-Newton.

    Starts from the unconstrained step p = -B^{-1} g (returned directly
    when inside the region).  Otherwise takes Newton steps in sigma on
    the pole function, each at the price of one recursion ``prepare``:
    the iterates are held in Gram space (:func:`gram_iterate`), so after
    one O(M n) pass u = P g the loop costs O(M^3) per iteration and does
    no n-length work.  p is formed once, at exit (one pass P^T z), and
    the interior and boundary tests are decided on the n-space norm of
    the returned p; if that norm misses the test the Gram-space norm
    passed, the iteration continues from it.  No forward product with B
    is made: since (B + sigma I) p = -g holds for the returned pair, the
    model reduction is (sigma ||p||^2 - g^T p)/2, a sum of two
    nonnegative terms.

    Returns a result with status "interior", "boundary", "max_iterations"
    (iteration cap hit, best iterate returned) or "breakdown" (recursion
    failure or a negative Newton step, both pathological for SPD B).
    """
    if opts is None:
        opts = MssOptions()
    g = sp.g
    if g.shape != (mem.n,):
        raise ValueError(f"g has shape {g.shape}, expected ({mem.n},)")
    delta = sp.delta
    max_iterations = (
        opts.max_iterations if opts.max_iterations is not None else min(mem.n, 100)
    )

    panel = mem.panel
    u = panel @ g
    gg = float(g @ g)
    it = gram_iterate(mem, u, gg, 0.0)
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
        # the n-space norm replaces it as it does at an exit.
        if settled(p_norm) is not None or not p_norm > 0.0:
            p = it.step(g, panel)
            p_norm = float(np.linalg.norm(p))
            status = settled(p_norm)
            if status is not None:
                break
        if iterations >= max_iterations:
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
            it = gram_iterate(mem, u, gg, sigma_new)
        except (NumericalBreakdownError, DegenerateDerivativeError):
            status = BREAKDOWN
            break
        p, p_norm = None, it.p_norm

    if p is None:
        p = it.step(g, panel)
        p_norm = float(np.linalg.norm(p))
    return SubproblemResult(
        p=p,
        sigma=it.sigma,
        status=status,
        inner_iterations=iterations,
        model_reduction=0.5 * (it.sigma * p_norm**2 - float(g @ p)),
    )


def _boundary_step(p: np.ndarray, d: np.ndarray, delta: float) -> float:
    """Positive tau with ||p + tau d|| = delta, for ||p|| <= delta, d != 0."""
    dd = float(d @ d)
    pd = float(p @ d)
    pp = float(p @ p)
    rest = delta**2 - pp  # >= 0 inside the region
    disc = math.sqrt(max(pd**2 + dd * max(rest, 0.0), 0.0))
    if pd >= 0.0:
        return rest / (pd + disc) if (pd + disc) > 0.0 else 0.0
    return (disc - pd) / dd


def steihaug_solve(
    mem: PairMemory,
    sp: Subproblem,
    max_iterations: int | None = None,
) -> SubproblemResult:
    """Truncated conjugate gradients on B p = -g inside the region.

    CG starts from p = 0 and stops at the first of: residual small enough
    (||r|| <= ||g|| * min(0.1, ||g||^0.1)), an iterate crossing the
    boundary (step truncated to the sphere), negative curvature (cannot
    occur for SPD B, guarded anyway), or the iteration cap
    (default min(n, 100)).  Costs one product with B per iteration; the
    model value g^T p + 0.5 p^T B p is advanced along each step t d from
    the residual r = g + B p and the curvature d^T B d already at hand.

    The multiplier is always reported as 0; a boundary exit carries
    status "boundary" without polishing the boundary equation.
    """
    g = sp.g
    if g.shape != (mem.n,):
        raise ValueError(f"g has shape {g.shape}, expected ({mem.n},)")
    delta = sp.delta
    if max_iterations is None:
        max_iterations = min(mem.n, 100)
    gnorm = float(np.linalg.norm(g))
    tolerance = gnorm * min(0.1, gnorm**0.1) if gnorm > 0.0 else 0.0

    p = np.zeros(mem.n)
    r = g.copy()
    rr = float(r @ r)
    q = 0.0  # model value g^T p + 0.5 p^T B p at the current p
    iterations = 0
    status = MAX_ITERATIONS
    if math.sqrt(rr) <= tolerance:
        status = INTERIOR  # zero gradient: p = 0 is optimal
    else:
        d = -g
        while iterations < max_iterations:
            bd = mem.multiply(d)
            iterations += 1
            curvature = float(d @ bd)
            if curvature > 0.0:
                alpha = rr / curvature
                p_trial = p + alpha * d
            if curvature <= 0.0 or float(np.linalg.norm(p_trial)) > delta:
                # Negative curvature or a step out of the region: stop on the sphere.
                t = _boundary_step(p, d, delta)
                q += t * float(r @ d) + 0.5 * t**2 * curvature
                p = p + t * d
                status = BOUNDARY
                break
            q += alpha * float(r @ d) + 0.5 * alpha**2 * curvature
            p = p_trial
            r = r + alpha * bd
            rr_new = float(r @ r)
            if math.sqrt(rr_new) <= tolerance:
                status = INTERIOR
                break
            d = -r + (rr_new / rr) * d
            rr = rr_new

    return SubproblemResult(
        p=p,
        sigma=0.0,
        status=status,
        inner_iterations=iterations,
        model_reduction=-q,
    )


def dense_reference_solve(
    b_dense, g, delta: float, tol: float = 1e-10
) -> tuple[np.ndarray, float]:
    """Reference solver on an explicit SPD matrix (test oracle, small n).

    Uses an eigendecomposition B = Q diag(lam) Q^T.  If the unconstrained
    minimizer fits inside the region it is returned with sigma = 0;
    otherwise sigma solves sum_i (q_i^T g)^2 / (lam_i + sigma)^2 = delta^2
    by bisection on the pole function, to |(||p|| - delta)| <= tol*delta.
    """
    b_dense = np.asarray(b_dense, dtype=float)
    g = np.asarray(g, dtype=float)
    delta = float(delta)
    n = g.size
    if b_dense.shape != (n, n):
        raise ValueError("B and g have inconsistent shapes")
    if not np.allclose(b_dense, b_dense.T, rtol=0.0, atol=1e-12 * max(1.0, float(np.abs(b_dense).max()))):
        raise ValueError("B must be symmetric")
    if delta <= 0.0:
        raise ValueError("delta must be positive")
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
        if abs(norm - delta) <= tol * delta:
            break
        if norm > delta:
            lo = sigma
        else:
            hi = sigma
        if hi - lo <= EPS * max(1.0, sigma):
            break
    return -q @ (coeff / (lam + sigma)), sigma


def check_optimality(
    mem: PairMemory,
    result: SubproblemResult,
    sp: Subproblem,
    tol: float,
    tau_ms: float = SQRT_EPS,
) -> OptimalityReport:
    """Certify a result against the global-optimality conditions.

    Measures the stationarity residual ||B p + sigma p + g|| / ||g||, the
    complementarity |sigma * (delta - ||p||)| and the feasibility excess
    ||p|| - delta (1 + tau_ms).  Passing requires residual <= tol,
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
    feasibility = p_norm - delta * (1.0 + tau_ms)
    return OptimalityReport(
        residual=residual,
        complementarity=complementarity,
        feasibility=feasibility,
        residual_ok=residual <= tol,
        complementarity_ok=complementarity <= tol * max(1.0, sigma * delta),
        feasibility_ok=feasibility <= 0.0,
    )
