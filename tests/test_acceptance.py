"""Acceptance gate: one test per release criterion, each printing a
single PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).
"""

import time
import warnings

import numpy as np
import pytest

from trbench import (
    BOUNDARY,
    INTERIOR,
    SQRT_EPS,
    PROBLEM_NAMES,
    RunRecord,
    Subproblem,
    TrConfig,
    check_optimality,
    fd_gradient_check,
    gram_iterate,
    make,
    mss_solve,
    newton_sigma_update,
    performance_profile,
    run_suite,
    solve_shifted,
    steihaug_solve,
)
from trbench.diagnostics import random_memory


def report(number, label, passed, detail=""):
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] criterion {number}: {label}" + (f" ({detail})" if detail else ""))
    assert passed, f"criterion {number} failed: {label} {detail}"


@pytest.fixture(scope="module")
def suite_records():
    """The 12-problem, two-solver benchmark at n = 1000, run once."""
    start = time.perf_counter()
    records = run_suite(
        ["mss", "steihaug"], [(name, 1000) for name in PROBLEM_NAMES], TrConfig()
    )
    return records, time.perf_counter() - start


def test_criterion_1_shifted_solve_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    sigmas = (0.0, 1e-4, 1.0, 1e2, 1e4)
    worst = 0.0
    for i in range(200):
        n = int(rng.integers(5, 51))
        m = int(rng.integers(1, 8))
        mem = random_memory(rng, n, m)
        sigma = sigmas[i % len(sigmas)]
        dense = mem.materialize_dense() + sigma * np.eye(n)
        y = rng.standard_normal(n)
        want = np.linalg.solve(dense, y)
        got = solve_shifted(mem, sigma, y)
        worst = max(worst, np.linalg.norm(got - want) / np.linalg.norm(want))
    elapsed = time.perf_counter() - start
    report(
        1,
        "shifted solves match dense LU on 200 instances",
        worst <= 1e-8 and elapsed < 10.0,
        f"worst rel err {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_optimality_certificates():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    deltas = (1e-3, 1.0, 1e3)
    worst_boundary_gap = 0.0
    failures = 0
    for i in range(200):
        n = int(rng.integers(10, 101))
        m = int(rng.integers(0, 8))
        mem = random_memory(rng, n, m)
        delta = deltas[i % len(deltas)]
        g = rng.standard_normal(n)
        # Mix interior (small gradient) and boundary (large gradient) cases.
        scale = delta * (0.2 if i % 5 == 0 else float(rng.uniform(5.0, 50.0)))
        g *= scale / np.linalg.norm(g)
        sp = Subproblem(g=g, delta=delta)
        result = mss_solve(mem, sp)
        ok = result.status in (INTERIOR, BOUNDARY)
        ok = ok and check_optimality(mem, result, sp, tol=1e-6).passed
        if result.sigma > 0.0:
            gap = abs(np.linalg.norm(result.p) - delta) / delta
            worst_boundary_gap = max(worst_boundary_gap, gap)
            ok = ok and gap <= SQRT_EPS
        failures += not ok
    elapsed = time.perf_counter() - start
    report(
        2,
        "200 mss results pass the optimality certificate",
        failures == 0 and elapsed < 10.0,
        f"failures {failures}, worst boundary gap {worst_boundary_gap:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_newton_update_matches_cholesky_form():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(4, 30))
        mem = random_memory(rng, n, int(rng.integers(1, 6)))
        sigma = float(rng.uniform(0.0, 5.0))
        shifted = mem.materialize_dense() + sigma * np.eye(n)
        g = rng.standard_normal(n)
        p = np.linalg.solve(shifted, -g)
        delta = float(np.linalg.norm(p)) * float(rng.uniform(0.2, 0.9))
        it = gram_iterate(mem, mem.panel @ g, float(g @ g), sigma)
        got = newton_sigma_update(sigma, it.p_norm, it.curvature, delta)
        lower = np.linalg.cholesky(shifted)
        q = np.linalg.solve(lower, p)
        p_norm = float(np.linalg.norm(p))
        want = sigma + (p_norm**2 / float(q @ q)) * (p_norm - delta) / delta
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    report(
        3,
        "Gram-space Newton sigma step equals the Cholesky form on 50 instances",
        worst <= 1e-10,
        f"worst rel err {worst:.2e}",
    )


def test_criterion_4_two_loop_unrolling_round_trip():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 101))
        m = int(rng.integers(0, 8))
        mem = random_memory(rng, n, min(m, n))
        v = rng.standard_normal(n)
        back = mem.inv_multiply(mem.multiply(v))
        worst = max(worst, np.linalg.norm(back - v) / np.linalg.norm(v))
    report(
        4,
        "inv_multiply(multiply(v)) returns v on 200 memories",
        worst <= 1e-9,
        f"worst rel err {worst:.2e}",
    )


def test_criterion_5_steihaug_properties():
    rng = np.random.default_rng(505)
    reduction_ok = True
    residual_ok = True
    for _ in range(100):
        n = int(rng.integers(5, 60))
        mem = random_memory(rng, n, int(rng.integers(0, 7)))
        g = rng.standard_normal(n)
        g *= float(rng.uniform(0.1, 20.0)) / np.linalg.norm(g)
        delta = float(rng.uniform(0.05, 5.0))
        sp = Subproblem(g=g, delta=delta)
        result = steihaug_solve(mem, sp)

        gnorm = float(np.linalg.norm(g))
        curvature = float(g @ mem.multiply(g))
        t = min(gnorm**2 / curvature, delta / gnorm)
        cauchy = t * gnorm**2 - 0.5 * t**2 * curvature
        reduction_ok &= result.model_reduction >= cauchy * (1.0 - 1e-10) - 1e-12

        if result.status == INTERIOR:
            residual = np.linalg.norm(mem.multiply(result.p) + g)
            residual_ok &= residual <= gnorm * min(0.1, gnorm**0.1) * (1.0 + 1e-9)
    report(
        5,
        "Steihaug beats the Cauchy point and meets the residual rule",
        reduction_ok and residual_ok,
        f"reduction_ok {reduction_ok}, residual_ok {residual_ok}",
    )


def test_criterion_6_end_to_end_convergence(suite_records):
    records, elapsed = suite_records
    bad = [
        (r.problem, r.solver, r.status, r.fe)
        for r in records
        if r.status != "converged" or r.fe > max(1000, r.n)
    ]
    report(
        6,
        "both solvers converge on all 12 problems at n=1000 within budget",
        not bad and elapsed < 120.0,
        f"failures {bad or 'none'}, {elapsed:.2f}s",
    )


def test_criterion_7_directional_function_evaluation_totals(suite_records):
    records, _ = suite_records
    mss_total = sum(r.fe for r in records if r.solver == "mss")
    st_total = sum(r.fe for r in records if r.solver == "steihaug")
    direction = mss_total <= st_total
    within_10pct = mss_total <= 1.10 * st_total
    report(
        7,
        "total FEs: mss <= steihaug (or within 10%)",
        within_10pct,
        f"mss {mss_total} vs steihaug {st_total}, strict direction {direction}",
    )


def test_criterion_8_profile_correctness():
    records = [
        RunRecord("p1", 10, "a", "converged", 0.1, 10, 1, 0.0, 0.0),
        RunRecord("p1", 10, "b", "converged", 0.1, 20, 1, 0.0, 0.0),
        RunRecord("p2", 10, "a", "converged", 0.1, 20, 1, 0.0, 0.0),
        RunRecord("p2", 10, "b", "converged", 0.1, 10, 1, 0.0, 0.0),
    ]
    curves = performance_profile(records)
    exact = all(c.points == [(0.0, 0.5), (1.0, 1.0)] for c in curves)

    rng = np.random.default_rng(808)
    monotone = True
    checked = 0
    attempts = 0
    while checked < 1000 and attempts < 5000:
        attempts += 1
        n_problems = int(rng.integers(1, 10))
        n_solvers = int(rng.integers(1, 5))
        fuzz = []
        for p in range(n_problems):
            for s in range(n_solvers):
                status = "converged" if rng.random() < 0.75 else "fe_budget_exhausted"
                fuzz.append(
                    RunRecord(
                        f"p{p}", 10, f"s{s}", status, float(rng.random()),
                        int(rng.integers(1, 500)), 1, 0.0, 0.0,
                    )
                )
        if not any(r.status == "converged" for r in fuzz):
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            curves = performance_profile(fuzz)
        for curve in curves:
            fractions = [f for _, f in curve.points]
            monotone &= all(b >= a for a, b in zip(fractions, fractions[1:]))
        checked += 1
    report(
        8,
        "hand-computed breakpoints exact; 1000 fuzzed profiles monotone",
        exact and monotone and checked == 1000,
        f"exact {exact}, monotone {monotone}, cases {checked}",
    )


def test_criterion_9_gradient_integrity():
    rng = np.random.default_rng(909)
    worst = 0.0
    for requested in (10, 100, 1000):
        for name in PROBLEM_NAMES:
            n = requested
            if name == "woods" and n % 4:
                n = requested + 4 - requested % 4  # smallest valid size above
            problem = make(name, n)
            worst = max(worst, fd_gradient_check(problem, problem.x0))
            for _ in range(5):
                x = problem.x0 + 0.5 * rng.standard_normal(n)
                worst = max(worst, fd_gradient_check(problem, x))
    report(
        9,
        "all 12 gradients pass finite-difference checks at n in {10,100,1000}",
        worst <= 1e-5,
        f"worst scaled error {worst:.2e}",
    )
