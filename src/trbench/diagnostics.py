"""The oracle checks of the acceptance gate: criteria 1-5 and 9.

Backs ``trbench check``, and the tests of those criteria in
``tests/test_acceptance.py`` call these functions, so each check exists
once.  Every check compares an optimized code path with an independent
oracle (dense LU, the dense BFGS matrix of
:meth:`~trbench.memory.PairMemory.materialize_dense`,
:func:`~trbench.subproblem.dense_reference_solve`, the Cholesky form,
central differences) on its criterion's seeded instances, so a silent
regression in the matrix-free kernels turns into a visible failure.

A check returns one :class:`CheckResult` per quantity it measures, each
against its own threshold; a per-instance yes/no rule counts its failing
instances against a threshold of 0.  Criteria 6-8 (the n = 1000 grid and
the profile fuzz) are tests only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .memory import PairMemory
from .problems import PROBLEM_NAMES, fd_gradient_check, make
from .subproblem import (BOUNDARY, INTERIOR, TAU_MS, Subproblem, check_optimality,
                         dense_reference_solve, frame, frame_step, gram_iterate, mss_solve,
                         newton_sigma_update, steihaug_solve, steihaug_tolerance)


@dataclass(frozen=True)
class CheckResult:
    """The worst value of one quantity over a criterion's instances."""

    name: str
    worst: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.worst <= self.threshold  # NaN fails

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] {self.name}: worst {self.worst:.3g} (threshold {self.threshold:.3g})"


def _worst(name: str, values: list[float], threshold: float) -> CheckResult:
    # np.max, unlike max, keeps a NaN, so a NaN value fails.
    return CheckResult(name, float(np.max(values, initial=0.0)), threshold)


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


def shifted_solves() -> list[CheckResult]:
    """Criterion 1: (B + sigma I)^{-1} y on mss's Gram path (g = -y) against dense LU, 200 instances."""
    rng = np.random.default_rng(101)
    sigmas = (0.0, 1e-4, 1.0, 1e2, 1e4)
    errors = []
    for i in range(200):
        n = int(rng.integers(5, 51))
        mem = random_memory(rng, n, int(rng.integers(1, 8)))
        sigma = sigmas[i % len(sigmas)]
        y = rng.standard_normal(n)
        want = np.linalg.solve(mem.materialize_dense() + sigma * np.eye(n), y)
        x = gram_iterate(mem, frame(mem, Subproblem(g=-y, delta=1.0)), sigma).x
        errors.append(_rel_err(frame_step(mem, -y, x), want))
    return [_worst("criterion 1: shifted solves vs dense LU", errors, 1e-8)]


def mss_certificates() -> list[CheckResult]:
    """Criterion 2: 200 mss results against the certificate and the dense reference.

    An instance fails the certificate when its status is neither interior
    nor boundary or :func:`check_optimality` rejects it; on every exit
    with sigma > 0 the boundary gap | ||p|| - delta | / delta is measured
    against mss's default accuracy TAU_MS.
    """
    rng = np.random.default_rng(202)
    deltas = (1e-3, 1.0, 1e3)
    failures = 0
    gaps, p_errors, sigma_errors = [], [], []
    for i in range(200):
        n = int(rng.integers(10, 101))
        mem = random_memory(rng, n, int(rng.integers(0, 8)))
        delta = deltas[i % len(deltas)]
        g = rng.standard_normal(n)
        # Mix interior (small gradient) and boundary (large gradient) cases.
        scale = delta * (0.2 if i % 5 == 0 else float(rng.uniform(5.0, 50.0)))
        g *= scale / np.linalg.norm(g)
        sp = Subproblem(g=g, delta=delta)
        result = mss_solve(mem, sp)
        failures += not (
            result.status in (INTERIOR, BOUNDARY)
            and check_optimality(mem, result, sp, tol=1e-6).passed
        )
        if result.sigma > 0.0:
            gaps.append(abs(float(np.linalg.norm(result.p)) - delta) / delta)
        p_ref, sigma_ref = dense_reference_solve(mem.materialize_dense(), g, delta)
        p_errors.append(_rel_err(result.p, p_ref))
        sigma_errors.append(abs(result.sigma - sigma_ref) / max(1.0, sigma_ref))
    return [
        CheckResult("criterion 2: mss results failing the certificate", float(failures), 0.0),
        _worst("criterion 2: mss boundary gap where sigma > 0", gaps, TAU_MS),
        _worst("criterion 2: mss p vs dense reference", p_errors, 1e-6),
        _worst("criterion 2: mss sigma vs dense reference", sigma_errors, 1e-6),
    ]


def newton_step() -> list[CheckResult]:
    """Criterion 3: the Gram-space Newton sigma step against the Cholesky form, 50 instances."""
    rng = np.random.default_rng(303)
    errors = []
    for _ in range(50):
        n = int(rng.integers(4, 30))
        mem = random_memory(rng, n, int(rng.integers(1, 6)))
        sigma = float(rng.uniform(0.0, 5.0))
        shifted = mem.materialize_dense() + sigma * np.eye(n)
        g = rng.standard_normal(n)
        p = np.linalg.solve(shifted, -g)
        delta = float(np.linalg.norm(p)) * float(rng.uniform(0.2, 0.9))
        it = gram_iterate(mem, frame(mem, Subproblem(g=g, delta=delta)), sigma)
        got = newton_sigma_update(sigma, it.p_norm, it.curvature, delta)
        q = np.linalg.solve(np.linalg.cholesky(shifted), p)
        p_norm = float(np.linalg.norm(p))
        want = sigma + (p_norm**2 / float(q @ q)) * (p_norm - delta) / delta
        errors.append(abs(got - want) / max(1.0, abs(want)))
    return [_worst("criterion 3: Gram-space Newton sigma step vs Cholesky form", errors, 1e-10)]


def product_round_trip() -> list[CheckResult]:
    """Criterion 4: inv_multiply(multiply(v)) = v, and each product against the dense B, 200 memories."""
    rng = np.random.default_rng(404)
    trips, forward, inverse = [], [], []
    for _ in range(200):
        n = int(rng.integers(2, 101))
        m = int(rng.integers(0, 8))
        mem = random_memory(rng, n, min(m, n))
        v = rng.standard_normal(n)
        dense = mem.materialize_dense()
        bv = mem.multiply(v)
        trips.append(_rel_err(mem.inv_multiply(bv), v))
        forward.append(_rel_err(bv, dense @ v))
        inverse.append(_rel_err(mem.inv_multiply(v), np.linalg.solve(dense, v)))
    return [
        _worst("criterion 4: inv_multiply(multiply(v)) vs v", trips, 1e-9),
        _worst("criterion 4: multiply vs dense B", forward, 1e-10),
        _worst("criterion 4: inv_multiply vs dense LU", inverse, 1e-10),
    ]


def steihaug_decrease() -> list[CheckResult]:
    """Criterion 5: steihaug's Cauchy decrease, and its CG stop on interior exits, 100 instances.

    g^T B g and ||B p + g|| are read from the dense B, not from the a/b rows steihaug reads.
    """
    rng = np.random.default_rng(505)
    short_of_cauchy = 0
    residual_misses = 0
    for _ in range(100):
        n = int(rng.integers(5, 60))
        mem = random_memory(rng, n, int(rng.integers(0, 7)))
        g = rng.standard_normal(n)
        g *= float(rng.uniform(0.1, 20.0)) / np.linalg.norm(g)
        delta = float(rng.uniform(0.05, 5.0))
        result = steihaug_solve(mem, Subproblem(g=g, delta=delta))
        gnorm = float(np.linalg.norm(g))
        dense = mem.materialize_dense()
        curvature = float(g @ dense @ g)
        t = min(gnorm**2 / curvature, delta / gnorm)
        cauchy = t * gnorm**2 - 0.5 * t**2 * curvature
        short_of_cauchy += not result.model_reduction >= cauchy * (1.0 - 1e-10) - 1e-12
        if result.status == INTERIOR:
            residual = float(np.linalg.norm(dense @ result.p + g))
            residual_misses += not residual <= steihaug_tolerance(gnorm) * (1.0 + 1e-9)
    return [
        CheckResult("criterion 5: steihaug results short of the Cauchy decrease",
                    float(short_of_cauchy), 0.0),
        CheckResult("criterion 5: steihaug interior exits missing the residual rule",
                    float(residual_misses), 0.0),
    ]


def gradients() -> list[CheckResult]:
    """Criterion 9: all twelve gradients against central differences at n in {10, 100, 1000}.

    Each problem is checked at x0 and at five random points around it;
    woods takes the smallest multiple of 4 at or above each n.
    """
    rng = np.random.default_rng(909)
    errors = []
    for requested in (10, 100, 1000):
        for name in PROBLEM_NAMES:
            n = requested
            if name == "woods" and n % 4:
                n = requested + 4 - requested % 4
            problem = make(name, n)
            errors.append(fd_gradient_check(problem, problem.x0))
            for _ in range(5):
                x = problem.x0 + 0.5 * rng.standard_normal(n)
                errors.append(fd_gradient_check(problem, x))
    return [_worst("criterion 9: gradients vs central differences", errors, 1e-5)]


def run_all_checks() -> list[CheckResult]:
    checks = (shifted_solves, mss_certificates, newton_step, product_round_trip,
              steihaug_decrease, gradients)
    return [result for check in checks for result in check()]
