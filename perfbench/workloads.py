"""The benchmark's workloads and the runs that measure them.

Each workload builds its inputs in set-up and then repeats a *pass* over
them: the grids run every problem with each solver through the
trust-region driver; the stream solves a fixed list of subproblems with
each solver directly.  Outputs are checked outside the timed regions.
"""

from __future__ import annotations

import math
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from unittest import mock

import numpy as np

import trbench
from spans import SOLVERS, Tracer
from trbench import driver, subproblem

SETUP_REPEATS = 5
CERTIFICATE_TOL = 1e-6  # relative stationarity residual for check_optimality
TAU_MS = subproblem.MssOptions().tau_ms

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import trbench; print(time.perf_counter() - t)"
)


@dataclass
class Tally:
    """What one solver did in one pass."""

    wall_s: float = 0.0
    subproblem_s: float = 0.0
    fe: int = 0
    latencies: list[float] = field(default_factory=list)  # seconds per solve


@dataclass
class Pass:
    """One pass: a tally per solver, plus the fingerprint rows of a grid."""

    tallies: dict[str, Tally]
    fingerprint: list[list] = field(default_factory=list)


@dataclass
class Run:
    """Operations attempted and failed over a whole run."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def fail(self, what: str, why: str) -> None:
        self.failures.append(f"{what}: {why}")


def _timed(fn, sink):
    def call(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            sink.append(time.perf_counter() - start)

    return call


@dataclass(frozen=True)
class Grid:
    """All twelve problems x both solvers at dimension n, default TrConfig.

    The grid is deterministic; the seed is not used.
    """

    n: int

    def build(self, seed: int):
        return [trbench.make(name, self.n) for name in trbench.PROBLEM_NAMES]

    def run_pass(self, problems, run: Run, tracer: Tracer | None = None) -> Pass:
        if tracer is not None:
            problems = [tracer.wrap_problem(p) for p in problems]
        tallies, results = {}, []
        for solver in SOLVERS:
            tally = tallies[solver] = Tally()
            config = driver.TrConfig(solver=solver)
            solve = f"{solver}_solve"
            if tracer is not None:
                tracer.prefix = solver + "."
            with mock.patch.object(driver, solve, _timed(getattr(driver, solve), tally.latencies)):
                start = time.perf_counter()
                for problem in problems:
                    run.attempted += 1
                    try:
                        result = driver.minimize(problem, config)
                    except Exception as exc:  # a raise is a failed run, never a fast one
                        run.fail(f"{problem.name}/{solver}", type(exc).__name__)
                        continue
                    results.append((problem.name, solver, result))
                tally.wall_s = time.perf_counter() - start
        fingerprint = []
        for name, solver, result in results:
            tallies[solver].subproblem_s += result.subproblem_time
            tallies[solver].fe += result.fe_count
            fingerprint.append(
                [name, solver, result.status, result.fe_count, result.inner_iterations_total])
            if result.status != driver.CONVERGED:
                run.fail(f"{name}/{solver}", result.status)
        return Pass(tallies, fingerprint)


@dataclass(frozen=True)
class Stream:
    """Subproblems solved by both solvers against fixed pair memories.

    Each memory holds ``pairs`` pairs (s, D s) for a random SPD diagonal D
    with spectrum in [1e-2, 1e2].  Gradients lie mostly in the span of
    the stored steps, as an optimizer's do, plus isotropic noise; each
    memory has a pool of ``gradients`` of them.  Radii are
    delta = c ||B^{-1} g|| with c log-uniform in [0.05, 1.5], one c per
    stratum, so every seed has the same share of interior solves (c >= 1).
    """

    n: int
    pairs: int
    memories: int
    gradients: int
    solves: int

    def build(self, seed: int):
        rng = np.random.default_rng(seed)
        memories, pools = [], []
        for _ in range(self.memories):
            d = np.exp(rng.uniform(math.log(1e-2), math.log(1e2), self.n))
            mem = trbench.PairMemory(self.n, self.pairs)
            steps = rng.standard_normal((self.pairs, self.n))
            for s in steps:
                if not mem.try_update(s, d * s):
                    raise RuntimeError("the curvature gate rejected a stream pair")
            mem.ab_vectors()  # built here, so the timed loop only reads the memory
            memories.append(mem)
            pools.append(
                rng.standard_normal((self.gradients, self.pairs)) @ steps
                + rng.standard_normal((self.gradients, self.n)))
        lo, hi = math.log(0.05), math.log(1.5)
        c = np.exp(lo + (np.arange(self.solves) + rng.uniform(size=self.solves))
                   / self.solves * (hi - lo))
        rng.shuffle(c)
        norms, problems = {}, []
        for i in range(self.solves):
            m, j = i % self.memories, (i // self.memories) % self.gradients
            g = pools[m][j]
            if (m, j) not in norms:
                norms[m, j] = float(np.linalg.norm(memories[m].inv_multiply(g)))
            problems.append((memories[m], trbench.Subproblem(g=g, delta=c[i] * norms[m, j])))
        return problems

    def run_pass(self, problems, run: Run, tracer: Tracer | None = None) -> Pass:
        tallies = {solver: Tally() for solver in SOLVERS}
        untraced = tracer.paused if tracer is not None else nullcontext
        for i, (mem, sp) in enumerate(problems):
            for solver in SOLVERS:
                tally = tallies[solver]
                if tracer is not None:
                    tracer.prefix = solver + "."
                solve = getattr(subproblem, f"{solver}_solve")  # looked up so a tracer can wrap it
                run.attempted += 1
                start = time.perf_counter()
                try:
                    result = solve(mem, sp)
                except Exception as exc:
                    run.fail(f"subproblem {i}/{solver}", type(exc).__name__)
                    continue
                elapsed = time.perf_counter() - start
                tally.latencies.append(elapsed)
                tally.wall_s += elapsed
                tally.fe += 1
                with untraced():
                    problem = _check(solver, mem, sp, result)
                if problem:
                    run.fail(f"subproblem {i}/{solver}", problem)
        for tally in tallies.values():
            tally.subproblem_s = tally.wall_s
        return Pass(tallies)


def _check(solver, mem, sp, result) -> str | None:
    """Why a stream result is wrong, or None when it passes."""
    if solver == "mss":
        report = subproblem.check_optimality(mem, result, sp, tol=CERTIFICATE_TOL)
        if not report.passed:
            return (f"certificate failed: residual {report.residual:.2e}, "
                    f"complementarity {report.complementarity:.2e}, "
                    f"feasibility {report.feasibility:.2e}")
        return None
    if float(np.linalg.norm(result.p)) > sp.delta * (1.0 + TAU_MS):
        return "step leaves the trust region"
    if not result.model_reduction > 0.0:
        return f"model reduction {result.model_reduction:.3e} is not positive"
    return None


WORKLOADS = {
    "grid-1e3": Grid(n=1000),
    "grid-1e5": Grid(n=100_000),
    "stream-1e5": Stream(n=100_000, pairs=10, memories=4, gradients=10, solves=200),
}


def _passes(seconds, one_pass):
    """Repeat ``one_pass`` while another is expected to end before the deadline."""
    deadline = time.perf_counter() + seconds
    done = []
    while True:
        start = time.perf_counter()
        done.append(one_pass())
        now = time.perf_counter()
        if now + (now - start) > deadline:
            return done


def import_seconds(src) -> float:
    """Time ``import trbench`` in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(src)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout)


def _percentile_95(samples):
    return statistics.quantiles(samples, n=20)[18]


def measure(workload, seed: int, seconds: float, src) -> dict:
    """Untraced run: set-up time, then the end-to-end metrics of repeated passes."""
    setups = []
    for _ in range(SETUP_REPEATS):
        inputs = None  # let the previous set go, so only one is held while building
        imported = import_seconds(src)
        start = time.perf_counter()
        inputs = workload.build(seed)
        setups.append(imported + time.perf_counter() - start)

    run = Run()
    passes = _passes(seconds, lambda: workload.run_pass(inputs, run))

    metrics = {"setup_s": (statistics.median(setups), "s")}
    samples = {}
    for solver in SOLVERS:
        tallies = [p.tallies[solver] for p in passes]
        latencies_ms = [t * 1e3 for tally in tallies for t in tally.latencies]
        samples[solver] = len(latencies_ms)
        metrics[f"{solver}.wall_s"] = (statistics.median(t.wall_s for t in tallies), "s")
        metrics[f"{solver}.subproblem_s"] = (
            statistics.median(t.subproblem_s for t in tallies), "s")
        metrics[f"{solver}.fe"] = (statistics.median(t.fe for t in tallies), "count")
        metrics[f"{solver}.solve_ms.p50"] = (statistics.median(latencies_ms), "ms")
        metrics[f"{solver}.solve_ms.p95"] = (_percentile_95(latencies_ms), "ms")
    # ru_maxrss is in KiB on Linux
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
    return {
        "run": run,
        "metrics": metrics,
        "passes": len(passes),
        "solve_samples": samples,
        "fingerprint": passes[0].fingerprint,
    }


def measure_layers(workload, seed: int, seconds: float) -> dict:
    """Traced run: alternate untraced and traced passes; per-layer metrics.

    The tracer is installed during set-up too, so factors built there are
    not counted as builds in the timed loop.
    """
    tracer = Tracer()
    with tracer.installed():
        inputs = workload.build(seed)
    tracer.reset()

    run = Run()
    plain, traced = [], []

    def pair():
        plain.append(workload.run_pass(inputs, run))
        with tracer.installed():
            traced.append(workload.run_pass(inputs, run, tracer))

    _passes(seconds, pair)
    metrics = tracer.layer_metrics(len(traced))
    overhead = sum(
        statistics.median(p.tallies[s].wall_s for p in traced)
        - statistics.median(p.tallies[s].wall_s for p in plain)
        for s in SOLVERS)
    metrics["trace.overhead_s"] = (overhead, "s")
    return {
        "run": run,
        "metrics": metrics,
        "passes": len(traced),
        "fingerprint": traced[0].fingerprint,
    }
