"""Spans around the calls into trbench's layers, installed at run time.

The tracer wraps public entry points of the package while it is installed
(class attributes of ``PairMemory``, module attributes that ``subproblem``
and ``driver`` call through, and each problem's ``eval``) and restores
them on exit.  Nothing under ``src/`` is edited.

A span's self time is its duration minus the time covered by the spans
it encloses, so the self times of all spans add up to the time spent
inside the outermost spans.  Every key carries the tracer's current
prefix, which the benchmark sets to the solver being measured.
"""

from __future__ import annotations

import dataclasses
import time
import weakref
from collections import Counter, defaultdict
from contextlib import ExitStack, contextmanager
from unittest import mock

from trbench import driver, subproblem
from trbench.memory import PairMemory

SOLVERS = driver.SOLVERS

# Span names for the per-layer metrics; each gets `.calls` and `.s`.
TIMED_SPANS = (
    "shifted.prepare",
    "shifted.apply",
    "memory.ab_vectors",
    "memory.multiply",
    "memory.inv_multiply",
    "memory.try_update",
    "problems.eval",
    "driver.rho",
)
STATUSES = (
    subproblem.INTERIOR,
    subproblem.BOUNDARY,
    subproblem.MAX_ITERATIONS,
    subproblem.BREAKDOWN,
)
INNER_ITERS = {"mss": "newton_iters", "steihaug": "cg_iters"}


class Tracer:
    """Call counts, self times and outcome counts per layer, in memory."""

    def __init__(self):
        self.prefix = ""
        self.active = True
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.top_s = 0.0  # summed duration of spans opened outside any span
        self._open: list[float] = []  # child time covered so far, per open span
        # memory -> the version whose a/b factors were last built
        self._built: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def reset(self) -> None:
        """Zero the counters; remember which factors were already built."""
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()
        self.top_s = 0.0

    @contextmanager
    def paused(self):
        """Let calls through untraced, e.g. while outputs are checked."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def span(self, name, fn, note=None):
        """Return ``fn`` wrapped in a span; ``note(args, result)`` counts outcomes."""

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            key = self.prefix + name
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.self_s[key] += elapsed - self._open.pop()
                self.calls[key] += 1
                if self._open:
                    self._open[-1] += elapsed
                else:
                    self.top_s += elapsed
            if note is not None:
                note(args, result)
            return result

        return traced

    def wrap_problem(self, problem):
        """A copy of a problem instance whose evaluations are traced."""
        return dataclasses.replace(problem, eval=self.span("problems.eval", problem.eval))

    def _count(self, name, amount=1):
        self.counts[self.prefix + name] += amount

    def _note_build(self, args, _result):
        mem = args[0]
        if self._built.get(mem) != mem.version:
            self._built[mem] = mem.version
            self._count("memory.ab_vectors.builds")

    def _note_update(self, _args, accepted):
        if accepted:
            self._count("memory.try_update.accepted")

    def _note_minimize(self, _args, result):
        self._count("driver.steps.accepted", result.accepted_steps)
        self._count("driver.steps.rejected", result.rejected_steps)

    def _solve_note(self, solver):
        def note(_args, result):
            self._count(f"subproblem.{solver}.status.{result.status}")
            self._count(f"subproblem.{solver}.{INNER_ITERS[solver]}", result.inner_iterations)

        return note

    @contextmanager
    def installed(self):
        """Wrap the layer entry points for the duration of the block."""
        with ExitStack() as stack:

            def patch(owner, attr, name, note=None):
                wrapped = self.span(name, getattr(owner, attr), note)
                stack.enter_context(mock.patch.object(owner, attr, wrapped))
                return wrapped

            patch(PairMemory, "multiply", "memory.multiply")
            patch(PairMemory, "inv_multiply", "memory.inv_multiply")
            patch(PairMemory, "ab_vectors", "memory.ab_vectors", self._note_build)
            patch(PairMemory, "try_update", "memory.try_update", self._note_update)
            patch(subproblem, "shifted_prepare", "shifted.prepare")
            patch(subproblem, "shifted_apply", "shifted.apply")
            for solver in SOLVERS:
                attr = f"{solver}_solve"
                wrapped = patch(subproblem, attr, f"subproblem.{solver}", self._solve_note(solver))
                stack.enter_context(mock.patch.object(driver, attr, wrapped))
            patch(driver, "rho", "driver.rho")
            patch(driver, "minimize", "driver.minimize", self._note_minimize)
            yield self

    def layer_metrics(self, passes: int) -> dict:
        """Per-layer metrics per solver, averaged over ``passes`` traced passes."""
        metrics = {}
        for solver in SOLVERS:
            p = solver + "."

            def per_pass(name, value, unit):
                metrics[p + name] = (value / passes, unit)

            for span in TIMED_SPANS + (f"subproblem.{solver}",):
                per_pass(span + ".calls", self.calls[p + span], "count")
                per_pass(span + ".s", self.self_s[p + span], "s")
            per_pass("driver.minimize.s", self.self_s[p + "driver.minimize"], "s")
            for name in (
                "memory.ab_vectors.builds",
                "memory.try_update.accepted",
                "driver.steps.accepted",
                "driver.steps.rejected",
                f"subproblem.{solver}.{INNER_ITERS[solver]}",
            ):
                per_pass(name, self.counts[p + name], "count")
            for status in STATUSES:
                name = f"subproblem.{solver}.status.{status}"
                per_pass(name, self.counts[p + name], "count")

            calls = self.calls[p + "memory.ab_vectors"]
            builds = self.counts[p + "memory.ab_vectors.builds"]
            metrics[p + "memory.ab_vectors.hit_ratio"] = (
                (1.0 - builds / calls) if calls else 0.0, "ratio")
            calls = self.calls[p + "memory.try_update"]
            accepted = self.counts[p + "memory.try_update.accepted"]
            metrics[p + "memory.try_update.accept_ratio"] = (
                (accepted / calls) if calls else 0.0, "ratio")
        return metrics
