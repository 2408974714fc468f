"""Command line interface: run benchmark grids, build profiles, run the oracle checks.

Exit codes: 0 on success, 1 when any benchmark run failed to converge or
a check failed, 2 on usage errors and on files that cannot be read,
parsed or written.
"""

from __future__ import annotations

import argparse
import os
import sys

from .bench import METRICS, performance_profile, read_csv, run_suite, write_csv, write_profile
from .diagnostics import run_all_checks
from .driver import CONVERGED, SOLVERS, TrConfig
from .problems import PROBLEM_NAMES


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trbench",
        description="Trust-region solver benchmarks over L-BFGS models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = TrConfig()

    run_p = sub.add_parser("run", help="run a solver x problem grid")
    run_p.add_argument("--solver", default=",".join(SOLVERS),
                       help="comma-separated subset of: " + ", ".join(SOLVERS))
    run_p.add_argument("--problems", default="all",
                       help="'all' or comma-separated problem names")
    run_p.add_argument("--n", type=int, default=1000, help="dimension for every problem")
    run_p.add_argument("--memory", type=int, default=defaults.memory,
                       help="L-BFGS pair capacity")
    run_p.add_argument("--tau", type=float, default=defaults.tau, help="termination scale")
    run_p.add_argument("--out", default="results.csv", help="output CSV path")

    prof_p = sub.add_parser("profile", help="performance profile from a results CSV")
    prof_p.add_argument("--in", dest="input", required=True, help="results CSV path")
    prof_p.add_argument("--metric", choices=METRICS, default="fe")
    prof_p.add_argument("--out", required=True, help="profile CSV path")
    prof_p.add_argument("--svg", default=None, help="optional SVG plot path")

    sub.add_parser("check", help="the oracle checks of acceptance criteria 1-5 and 9")
    return parser


def _cmd_run(args) -> int:
    solvers = [s.strip() for s in args.solver.split(",") if s.strip()]
    names = (list(PROBLEM_NAMES) if args.problems == "all"
             else [p.strip() for p in args.problems.split(",") if p.strip()])
    config = TrConfig(memory=args.memory, tau=args.tau)
    # An output that cannot be opened for writing fails here, before the grid runs.
    existed = os.path.exists(args.out)
    open(args.out, "a").close()
    if not existed:
        os.remove(args.out)
    records = run_suite(solvers, [(name, args.n) for name in names], config)
    write_csv(records, args.out)
    failed = 0
    for r in records:
        marker = "" if r.status == CONVERGED else "  <-- not converged"
        print(f"{r.problem:<10} n={r.n:<6} {r.solver:<9} {r.status:<20} "
              f"fe={r.fe:<5} inner={r.inner_iters:<6} time={r.time_sec:.3e}{marker}")
        failed += r.status != CONVERGED
    print(f"wrote {len(records)} records to {args.out}")
    return 1 if failed else 0


def _cmd_profile(args) -> int:
    records = read_csv(args.input)
    curves = performance_profile(records, metric=args.metric)
    write_profile(curves, args.out, svg_path=args.svg)
    for curve in curves:
        final = curve.points[-1][1] if curve.points else 0.0
        print(f"{curve.solver}: solved fraction {final:.3f}, r_max {curve.r_max:.3f}")
    print(f"wrote profile to {args.out}" + (f" and {args.svg}" if args.svg else ""))
    return 0


def _cmd_check(_args) -> int:
    results = run_all_checks()
    for result in results:
        print(result.line())
    return 0 if all(r.passed for r in results) else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "check":
        return _cmd_check(args)
    command = _cmd_run if args.command == "run" else _cmd_profile
    try:
        return command(args)
    except (ValueError, OSError) as exc:
        # A bad setting, a bad or missing input file, an unwritable output.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
