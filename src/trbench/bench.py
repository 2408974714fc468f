"""Benchmark orchestration: solver x problem grids, CSV persistence and
Dolan-More performance profiles.
"""

from __future__ import annotations

import csv
import math
import warnings
from bisect import bisect_right
from dataclasses import astuple, dataclass, fields, replace

from .driver import CONVERGED, TrConfig, minimize
from .errors import CsvFormatError
from .problems import ProblemInstance, make

# Status of a run that ended in an exception, as distinct from the
# driver's own exits (converged, radius_too_small, fe_budget_exhausted).
ERROR = "error"

# Profile metrics, each the RunRecord field it reads.
METRICS = {"fe": "fe", "time": "time_sec"}


@dataclass
class RunRecord:
    """One benchmark row: a solver applied to one problem instance."""

    problem: str
    n: int
    solver: str
    status: str
    time_sec: float
    fe: int
    inner_iters: int
    f_final: float
    gnorm_final: float


# The CSV schema is RunRecord's fields: one column each, in field order,
# parsed by the field's type (a string under postponed annotations).
_COLUMNS = fields(RunRecord)
CSV_HEADER = [column.name for column in _COLUMNS]
_PARSERS = {"str": str, "int": int, "float": float}


@dataclass
class ProfileCurve:
    """Right-continuous step function of one solver's performance ratios.

    ``points`` holds (tau, fraction) breakpoints on the log2-ratio axis;
    ``r_max`` is the largest finite log2 ratio over the whole record set.
    ``n_dropped`` counts problems no solver converged on (excluded from
    the denominator); it is the same for every curve of one profile.
    """

    solver: str
    points: list[tuple[float, float]]
    r_max: float
    n_dropped: int


def _count_eval(problem: ProblemInstance):
    """Wrap a problem so evaluations are counted even if one raises."""
    counter = {"fe": 0}

    def evaluate(x):
        counter["fe"] += 1
        return problem.eval(x)

    return replace(problem, eval=evaluate), counter


def _run_one(problem: ProblemInstance, config: TrConfig) -> RunRecord:
    counted, counter = _count_eval(problem)
    try:
        result = minimize(counted, config)
    except Exception:
        # A raise from the problem or the solver ends the run; keep the
        # counts, and leave the time unknown rather than zero.
        return RunRecord(
            problem=problem.name, n=problem.n, solver=config.solver, status=ERROR,
            time_sec=math.nan, fe=counter["fe"], inner_iters=0,
            f_final=math.nan, gnorm_final=math.nan,
        )
    return RunRecord(
        problem=problem.name, n=problem.n, solver=config.solver, status=result.status,
        time_sec=result.subproblem_time, fe=result.fe_count,
        inner_iters=result.inner_iterations_total, f_final=result.f_final,
        gnorm_final=result.gnorm_final,
    )


def run_suite(
    solvers: list[str],
    problems: list[tuple[str, int]],
    config: TrConfig | None = None,
) -> list[RunRecord]:
    """Run every solver on every (name, n) problem, one run at a time, so
    each run's ``time_sec`` measures that run alone; rows sorted by
    (problem, n, solver).

    Each entry of ``solvers`` replaces ``config.solver`` in a copy of
    ``config``.  Every solver's config and every problem instance (one
    for all solvers) is built before the first run, so an empty list, a
    repeated solver or (name, n), an unknown solver (:class:`TrConfig`)
    or a bad name or dimension (:func:`make`) raises ValueError and
    nothing runs.  A raise during a run is recorded with status ``error``.
    """
    if not solvers or not problems:
        raise ValueError("run_suite needs at least one solver and one problem")
    for what, keys in (("solver", solvers), ("problem", problems)):
        repeated = [key for i, key in enumerate(keys) if key in keys[:i]]
        if repeated:
            raise ValueError(f"run_suite runs each {what} once, got {repeated[0]!r} twice")
    if config is None:
        config = TrConfig()
    configs = [replace(config, solver=solver) for solver in solvers]
    instances = [make(name, n) for name, n in problems]
    records = [_run_one(problem, c) for problem in instances for c in configs]
    records.sort(key=lambda r: (r.problem, r.n, r.solver))
    return records


def performance_profile(
    records: list[RunRecord], metric: str = "fe"
) -> list[ProfileCurve]:
    """Dolan-More profiles on a log2 ratio axis.

    The records form one table, (problem, n) -> {solver: metric}, in
    which a run that did not converge holds None.  Each converged run's
    metric is divided by its row's best; a solver that failed or did not
    run a problem never counts on it.  Problems that no solver converged
    on are dropped from the denominator (a warning reports how many).
    An unknown ``metric`` (see :data:`METRICS`) raises ValueError at
    entry, and so does a second run of one solver on one problem.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}, expected one of {tuple(METRICS)}")
    column = METRICS[metric]
    if not records:
        raise ValueError("no records")
    table: dict[tuple[str, int], dict[str, float | None]] = {}
    for r in records:
        row = table.setdefault((r.problem, r.n), {})
        if r.solver in row:
            raise ValueError(f"solver {r.solver!r} ran {r.problem!r} at n = {r.n} twice")
        row[r.solver] = float(getattr(r, column)) if r.status == CONVERGED else None

    taus: dict[str, list[float]] = {r.solver: [] for r in records}
    dropped = 0
    for row in table.values():
        solved = {solver: value for solver, value in row.items() if value is not None}
        if not solved:
            dropped += 1
            continue
        best = min(solved.values())
        for solver, value in solved.items():
            if best > 0.0:
                ratio = value / best
            else:
                ratio = 1.0 if value == 0.0 else math.inf
            if math.isfinite(ratio):
                taus[solver].append(math.log2(ratio))
    if dropped:
        warnings.warn(f"{dropped} problem(s) solved by no solver were dropped")

    total = len(table) - dropped
    if total == 0:
        raise ValueError("every problem was unsolved; no profile to build")
    r_max = max((max(ts) for ts in taus.values() if ts), default=0.0)
    curves = []
    for solver, ts in taus.items():
        ts.sort()
        # One breakpoint per distinct tau: the share of problems at or below it.
        points = [(tau, bisect_right(ts, tau) / total) for tau in sorted(set(ts))]
        curves.append(ProfileCurve(solver, points, r_max, dropped))
    return curves


def write_csv(records: list[RunRecord], path) -> None:
    """Write records with the fixed schema; floats keep full precision.

    Rows end in CRLF (RFC 4180), so the writer quotes any field holding a
    carriage return or a newline and a problem name stays one field.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for r in records:
            writer.writerow(
                repr(float(v)) if c.type == "float" else v
                for c, v in zip(_COLUMNS, astuple(r))
            )


def read_csv(path) -> list[RunRecord]:
    """Read records written by :func:`write_csv`."""
    records = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_HEADER:
            raise CsvFormatError(f"line 1: bad header {header!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(CSV_HEADER):
                raise CsvFormatError(f"line {lineno}: expected {len(CSV_HEADER)} fields, got {len(row)}")
            try:
                records.append(
                    RunRecord(*(_PARSERS[c.type](cell) for c, cell in zip(_COLUMNS, row)))
                )
            except ValueError as exc:
                raise CsvFormatError(f"line {lineno}: {exc}") from exc
    return records


def write_profile(curves: list[ProfileCurve], data_path, svg_path=None) -> None:
    """Write profile breakpoints as CSV and optionally a standalone SVG.

    Each curve contributes its breakpoints plus one terminal row at r_max
    carrying its final fraction, so the step function can be drawn to the
    right edge directly from the file.
    """
    with open(data_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["solver", "tau", "fraction"])
        for curve in curves:
            final = curve.points[-1][1] if curve.points else 0.0
            for tau, fraction in curve.points:
                writer.writerow([curve.solver, repr(float(tau)), repr(float(fraction))])
            writer.writerow([curve.solver, repr(float(curve.r_max)), repr(float(final))])
    if svg_path is not None:
        with open(svg_path, "w", encoding="utf-8") as fh:
            fh.write(render_profile_svg(curves))


_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _xml_text(text: str) -> str:
    """Escape &, < and > for XML character data.

    What xml.sax.saxutils.escape does by default, without the import:
    loading xml.sax.saxutils pulls in urllib, http.client, email and ssl.
    """
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_profile_svg(curves: list[ProfileCurve]) -> str:
    """Render profile curves as a self-contained 800x500 SVG line plot."""
    width, height = 800, 500
    left, right, top, bottom = 70, 30, 40, 60
    plot_w = width - left - right
    plot_h = height - top - bottom
    x_max = max([c.r_max for c in curves] + [1e-9])

    def sx(tau: float) -> float:
        return left + plot_w * (tau / x_max if x_max > 0 else 0.0)

    def sy(fraction: float) -> float:
        return top + plot_h * (1.0 - fraction)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333" stroke-width="1"/>',
        f'<text x="{left + plot_w / 2:.1f}" y="{height - 15}" text-anchor="middle" '
        'font-family="sans-serif" font-size="14">log2 performance ratio</text>',
        f'<text x="18" y="{top + plot_h / 2:.1f}" text-anchor="middle" '
        'font-family="sans-serif" font-size="14" '
        f'transform="rotate(-90 18 {top + plot_h / 2:.1f})">fraction of problems</text>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = sy(frac)
        parts.append(
            f'<line x1="{left}" y1="{y:.1f}" x2="{left + plot_w}" y2="{y:.1f}" '
            'stroke="#ddd" stroke-width="0.5"/>'
        )
        parts.append(
            f'<text x="{left - 8}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">{frac:g}</text>'
        )
    n_ticks = min(int(math.ceil(x_max)), 10) or 1
    for k in range(n_ticks + 1):
        tau = x_max * k / n_ticks
        x = sx(tau)
        parts.append(
            f'<line x1="{x:.1f}" y1="{top + plot_h}" x2="{x:.1f}" '
            f'y2="{top + plot_h + 5}" stroke="#333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{top + plot_h + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{tau:.2g}</text>'
        )
    for idx, curve in enumerate(curves):
        color = _PALETTE[idx % len(_PALETTE)]
        coords = [(sx(0.0), sy(0.0))]
        level = 0.0
        for tau, fraction in curve.points:
            coords.append((sx(tau), sy(level)))
            coords.append((sx(tau), sy(fraction)))
            level = fraction
        coords.append((sx(x_max), sy(level)))
        path = " ".join(f"{x:.2f},{y:.2f}" for x, y in coords)
        parts.append(
            f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        ly = top + 18 + 18 * idx
        parts.append(
            f'<line x1="{left + plot_w - 150}" y1="{ly}" x2="{left + plot_w - 120}" '
            f'y2="{ly}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{left + plot_w - 112}" y="{ly + 4}" font-family="sans-serif" '
            f'font-size="13">{_xml_text(curve.solver)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
