"""Fast self-test of the benchmark on tiny versions of its workloads.

    python3 perfbench/selftest.py

Checks that an untraced run emits exactly the end-to-end metrics listed
in BENCHMARK.json and a traced run exactly the per-layer ones, each with
its unit; that the tiny runs pass their output checks; that in a traced
pass the self times of all spans plus the untraced remainder add up to
the traced wall time; and that the stream builds no factors and
steihaug prepares no shifts in its timed loop.  Exits 1 on any failure.
"""

from __future__ import annotations

import json
import sys

import run

run.prepare_import()

import workloads  # noqa: E402  (needs the pinned BLAS and the path set above)
from spans import SOLVERS, Tracer  # noqa: E402

TINY = {
    "grid": workloads.Grid(n=40),
    "stream": workloads.Stream(n=300, pairs=3, memories=2, gradients=2, solves=8),
}
SEED = 7

failures = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def declared(kind: str) -> dict:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


def units(metrics: dict) -> dict:
    return {name: unit for name, (_, unit) in metrics.items()}


def self_times_add_up(name: str, workload) -> None:
    tracer = Tracer()
    with tracer.installed():
        inputs = workload.build(SEED)
    tracer.reset()
    with tracer.installed():
        done = workload.run_pass(inputs, workloads.Run(), tracer)
    wall = sum(tally.wall_s for tally in done.tallies.values())
    remainder = wall - tracer.top_s
    total = sum(tracer.self_s.values()) + remainder
    check(remainder >= 0.0 and abs(total - wall) <= 1e-9 * wall,
          f"{name}: self times {total:.6f} s plus remainder = traced wall {wall:.6f} s")
    check(min(tracer.self_s.values()) >= 0.0, f"{name}: no span has negative self time")


def main() -> int:
    end_to_end, per_layer = declared("end_to_end"), declared("per_layer")
    for name, workload in TINY.items():
        result = workloads.measure(workload, SEED, 0.0, run.SRC)
        check(units(result["metrics"]) == end_to_end,
              f"{name}: untraced run emits the end-to-end metrics with their units")
        check(all(value > 0 for value, _ in result["metrics"].values()),
              f"{name}: every end-to-end metric is positive")
        check(not result["run"].failures,
              f"{name}: outputs pass their checks {result['run'].failures or ''}")

        traced = workloads.measure_layers(workload, SEED, 0.0)
        check(units(traced["metrics"]) == per_layer,
              f"{name}: traced run emits the per-layer metrics with their units")
        check(not traced["run"].failures, f"{name}: traced outputs pass their checks")
        self_times_add_up(name, workload)

    traced = workloads.measure_layers(TINY["stream"], SEED, 0.0)["metrics"]
    for solver in SOLVERS:
        check(traced[f"{solver}.memory.ab_vectors.builds"][0] == 0,
              f"stream: {solver} builds no a/b factors in the timed loop")
    check(traced["steihaug.shifted.prepare.calls"][0] == 0,
          "stream: steihaug prepares no shifted recursion")

    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
