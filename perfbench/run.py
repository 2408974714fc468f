"""Run one workload of the trbench benchmark and print its metrics.

    python3 perfbench/run.py --workload grid-1e3 --seed 1 --seconds 60 --trace 0

Run it from the root of a trbench checkout; the package is imported from
that checkout's ``src/``, never from an installed copy.  ``--trace 0``
measures the end-to-end metrics with nothing wrapped but the solvers'
latency timers; ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
with the machine description, the failures and the grid fingerprint,
is written to ``.perfbench_out/<workload>-seed<seed>-trace<trace>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints"
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def prepare_import() -> None:
    """Pin BLAS to one thread and put the checkout's ``src/`` first on the path.

    Must run before numpy is imported: BLAS reads its thread count once, at
    load, and function-evaluation counts depend on it.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before BLAS could be pinned to one thread")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "trbench" / "__init__.py").is_file():
        raise SystemExit(f"error: no trbench package under {SRC}")
    sys.path.insert(0, str(SRC))
    import trbench

    if Path(trbench.__file__).resolve().parent != SRC / "trbench":
        raise SystemExit(f"error: imported trbench from {trbench.__file__}, not {SRC}")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout read from ``.git`` itself, or "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_info() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "commit": _git_commit(),
    }


def fingerprint_diff(workload: str, rows: list) -> tuple[int, int] | None:
    """(rows that differ from the recorded reference, reference size), if any."""
    path = FINGERPRINTS / f"{workload}.json"
    if not path.is_file():
        return None
    reference = {tuple(r[:2]): r for r in json.loads(path.read_text())}
    current = {tuple(r[:2]): r for r in rows}
    differ = sum(current.get(key) != row for key, row in reference.items())
    differ += sum(key not in reference for key in current)
    return differ, len(reference)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    prepare_import()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    if args.trace:
        result = workloads.measure_layers(workload, args.seed, args.seconds)
    else:
        result = workloads.measure(workload, args.seed, args.seconds, SRC)

    run = result.pop("run")
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in result.pop("metrics").items()}
    summary = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }
    diff = fingerprint_diff(args.workload, result["fingerprint"])
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **summary,
        "failed_frac": len(run.failures) / run.attempted,
        "failures": run.failures,
        "fingerprint_differs": None if diff is None else diff[0],
        **result,
        "machine": machine_info(),
    }
    OUT.mkdir(exist_ok=True)
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    for failure in run.failures:
        print(f"failed: {failure}")
    if diff is not None:
        print(f"fingerprint: {diff[0]} of {diff[1]} grid runs differ from the reference")
    if "solve_samples" in result:
        print("solve latency samples: " + ", ".join(
            f"{solver} {count}" for solver, count in result["solve_samples"].items()))
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"passes: {result['passes']}; full result in {out.relative_to(ROOT)}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
