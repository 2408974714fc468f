"""Acceptance gate: one test per release criterion, each printing its
PASS/FAIL lines (run with `pytest tests/test_acceptance.py -v -s`).
Criteria 1-5 and 9 run the oracle checks of `trbench.diagnostics`, the
same code `trbench check` runs.
"""

import time
import warnings

import numpy as np
import pytest

from trbench import PROBLEM_NAMES, RunRecord, TrConfig, performance_profile, run_suite
from trbench import diagnostics


def report(number, label, passed, detail=""):
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] criterion {number}: {label}" + (f" ({detail})" if detail else ""))
    assert passed, f"criterion {number} failed: {label} {detail}"


def run_check(number, check, budget=None):
    """Print and assert every result of a diagnostics check, and its time budget."""
    start = time.perf_counter()
    results = check()
    elapsed = time.perf_counter() - start
    for result in results:
        print(result.line())
    assert all(r.passed for r in results), f"criterion {number} failed"
    if budget is not None:
        report(number, f"checks finish within {budget:g} s", elapsed < budget, f"{elapsed:.2f}s")


@pytest.fixture(scope="module")
def suite_records():
    """The 12-problem, two-solver benchmark at n = 1000, run once."""
    start = time.perf_counter()
    records = run_suite(
        ["mss", "steihaug"], [(name, 1000) for name in PROBLEM_NAMES], TrConfig()
    )
    return records, time.perf_counter() - start


def test_criterion_1_shifted_solve_oracle_equivalence():
    run_check(1, diagnostics.shifted_solves, budget=10.0)


def test_criterion_2_optimality_certificates():
    run_check(2, diagnostics.mss_certificates, budget=10.0)


def test_criterion_3_newton_update_matches_cholesky_form():
    run_check(3, diagnostics.newton_step)


def test_criterion_4_two_loop_unrolling_round_trip():
    run_check(4, diagnostics.product_round_trip)


def test_criterion_5_steihaug_properties():
    run_check(5, diagnostics.steihaug_decrease)


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
    run_check(9, diagnostics.gradients)
