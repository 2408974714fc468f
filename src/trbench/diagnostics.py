"""Self-check suite: gradient integrity and cross-oracle agreement.

Backs the ``trbench check`` command.  Every check compares an optimized
code path against an independent dense or analytic oracle on seeded
random instances, so a silent regression in the matrix-free kernels
turns into a visible failure here.  Each check has its own fixed seed
and, apart from the gradient check, draws TRIALS instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .memory import PairMemory
from .problems import PROBLEM_NAMES, fd_gradient_check, make
from .shifted import solve_shifted
from .subproblem import (
    BOUNDARY,
    MssOptions,
    Subproblem,
    check_optimality,
    dense_reference_solve,
    frame,
    gram_iterate,
    mss_solve,
    newton_sigma_update,
)

TRIALS = 20


@dataclass
class CheckResult:
    name: str
    passed: bool
    worst: float
    threshold: float

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] {self.name}: worst {self.worst:.3e} (threshold {self.threshold:.1e})"


def random_memory(
    rng: np.random.Generator, n: int, m: int, capacity: int | None = None
) -> PairMemory:
    """Memory filled with m pairs sampled from a random SPD quadratic.

    Steps are standard normal and y = H s for a fixed random SPD matrix H
    with eigenvalues in [0.5, 5], so every pair passes the curvature gate
    and the resulting B stays well conditioned.
    """
    mem = PairMemory(n, capacity if capacity is not None else max(m, 1))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = rng.uniform(0.5, 5.0, size=n)
    h = (q * lam) @ q.T
    accepted = 0
    while accepted < m:
        s = rng.standard_normal(n)
        if mem.try_update(s, h @ s):
            accepted += 1
    return mem


def _rel_err(got: np.ndarray, want: np.ndarray) -> float:
    scale = float(np.linalg.norm(want))
    return float(np.linalg.norm(got - want)) / (scale if scale > 0.0 else 1.0)


def check_gradients() -> CheckResult:
    """Every problem at n = 100, at x0 and five random points around it."""
    n = 100
    rng = np.random.default_rng(0)
    worst = 0.0
    for name in PROBLEM_NAMES:
        problem = make(name, n)
        worst = max(worst, fd_gradient_check(problem, problem.x0))
        for _ in range(5):
            x = problem.x0 + 0.5 * rng.standard_normal(n)
            worst = max(worst, fd_gradient_check(problem, x))
    return CheckResult("gradients vs central differences", worst <= 1e-5, worst, 1e-5)


def check_products() -> CheckResult:
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(TRIALS):
        n = int(rng.integers(5, 40))
        m = int(rng.integers(0, 8))
        mem = random_memory(rng, n, m)
        z = rng.standard_normal(n)
        dense = mem.materialize_dense()
        worst = max(worst, _rel_err(mem.inv_multiply(z), np.linalg.solve(dense, z)))
        worst = max(worst, _rel_err(mem.multiply(z), dense @ z))
    return CheckResult("compact products vs dense", worst <= 1e-10, worst, 1e-10)


def check_shifted() -> CheckResult:
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(TRIALS):
        n = int(rng.integers(5, 40))
        m = int(rng.integers(1, 8))
        mem = random_memory(rng, n, m)
        dense = mem.materialize_dense()
        y = rng.standard_normal(n)
        for sigma in (0.0, 1e-4, 1.0, 1e2, 1e4):
            want = np.linalg.solve(dense + sigma * np.eye(n), y)
            worst = max(worst, _rel_err(solve_shifted(mem, sigma, y), want))
    return CheckResult("shifted recursion vs dense LU", worst <= 1e-8, worst, 1e-8)


def check_mss() -> CheckResult:
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(TRIALS):
        n = int(rng.integers(10, 40))
        m = int(rng.integers(0, 6))
        mem = random_memory(rng, n, m)
        g = rng.standard_normal(n)
        g *= 10.0 / float(np.linalg.norm(g))
        sp = Subproblem(g=g, delta=0.1)
        result = mss_solve(mem, sp)
        report = check_optimality(mem, result, sp, tol=1e-6)
        worst = max(worst, report.residual, report.complementarity)
        if not report.passed:
            worst = max(worst, 1.0)
        p_ref, sigma_ref = dense_reference_solve(mem.materialize_dense(), g, sp.delta)
        worst = max(worst, _rel_err(result.p, p_ref))
        worst = max(worst, abs(result.sigma - sigma_ref) / max(1.0, sigma_ref))
    return CheckResult("mss_solve optimality and dense reference", worst <= 1e-6, worst, 1e-6)


def check_newton_update() -> CheckResult:
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(TRIALS):
        n = int(rng.integers(5, 30))
        mem = random_memory(rng, n, int(rng.integers(1, 6)))
        dense = mem.materialize_dense()
        g = rng.standard_normal(n)
        sigma = float(rng.uniform(0.0, 5.0))
        shifted = dense + sigma * np.eye(n)
        p = np.linalg.solve(shifted, -g)
        delta = 0.5 * float(np.linalg.norm(p))
        it = gram_iterate(mem, frame(mem, Subproblem(g=g, delta=delta)), sigma)
        got = newton_sigma_update(sigma, it.p_norm, it.curvature, delta)
        root = np.linalg.cholesky(shifted)  # shifted = root @ root.T
        qvec = np.linalg.solve(root, p)
        p_norm = float(np.linalg.norm(p))
        q_norm = float(np.linalg.norm(qvec))
        want = sigma + (p_norm**2 / q_norm**2) * (p_norm - delta) / delta
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    return CheckResult("Gram-space Newton sigma step vs Cholesky form", worst <= 1e-10, worst, 1e-10)


def check_boundary_accuracy() -> CheckResult:
    rng = np.random.default_rng(5)
    worst = 0.0
    opts = MssOptions()
    for _ in range(TRIALS):
        n = int(rng.integers(10, 40))
        mem = random_memory(rng, n, int(rng.integers(0, 6)))
        g = rng.standard_normal(n)
        g *= 5.0 / float(np.linalg.norm(g))
        result = mss_solve(mem, Subproblem(g=g, delta=0.05), opts)
        if result.status == BOUNDARY:
            worst = max(worst, abs(float(np.linalg.norm(result.p)) - 0.05) / 0.05)
    return CheckResult("mss boundary accuracy", worst <= opts.tau_ms, worst, opts.tau_ms)


def run_all_checks() -> list[CheckResult]:
    return [
        check_gradients(),
        check_products(),
        check_shifted(),
        check_mss(),
        check_newton_update(),
        check_boundary_accuracy(),
    ]
