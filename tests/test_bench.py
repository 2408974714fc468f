import math
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from trbench import (
    CsvFormatError,
    NumericalBreakdownError,
    RunRecord,
    TrConfig,
    performance_profile,
    read_csv,
    render_profile_svg,
    run_suite,
    write_csv,
    write_profile,
)
from trbench.bench import CSV_HEADER
from trbench.cli import main


def record(problem="p1", n=10, solver="a", status="converged", fe=10, **kw):
    defaults = dict(
        time_sec=0.5, inner_iters=3, f_final=1.25, gnorm_final=1e-6
    )
    defaults.update(kw)
    return RunRecord(problem=problem, n=n, solver=solver, status=status, fe=fe, **defaults)


def hand_case_records():
    # Two solvers, two problems, FEs {10, 20} and {20, 10}: each solver wins
    # one problem with log2 ratios {0, 1}.
    return [
        record(problem="p1", solver="a", fe=10),
        record(problem="p1", solver="b", fe=20),
        record(problem="p2", solver="a", fe=20),
        record(problem="p2", solver="b", fe=10),
    ]


class TestRunSuite:
    def test_single_cell(self):
        records = run_suite(["mss"], [("srosenbr", 10)])
        assert len(records) == 1
        assert records[0].problem == "srosenbr"
        assert records[0].solver == "mss"
        assert records[0].status == "converged"
        assert records[0].fe >= 1

    def test_grid_ordering_and_counts(self):
        records = run_suite(
            ["mss", "steihaug"], [("dqdrtic", 12), ("srosenbr", 10)]
        )
        assert len(records) == 4
        keys = [(r.problem, r.solver) for r in records]
        assert keys == sorted(keys)
        assert all(r.fe >= 1 for r in records)
        assert all(r.status == "converged" for r in records)

    def test_deterministic_except_time(self):
        first = run_suite(["mss"], [("woods", 12), ("cosine", 10)])
        second = run_suite(["mss"], [("woods", 12), ("cosine", 10)])
        for a, b in zip(first, second):
            assert (a.problem, a.n, a.solver, a.status, a.fe, a.inner_iters) == (
                b.problem, b.n, b.solver, b.status, b.fe, b.inner_iters
            )
            assert a.f_final == b.f_final
            assert a.gnorm_final == b.gnorm_final

    def test_raising_evaluation_recorded_not_raised(self, monkeypatch):
        import trbench.bench as bench_mod

        real_make = bench_mod.make

        def exploding_make(name, n):
            problem = real_make(name, n)

            def evaluate(x):
                f, g = problem.eval(x)
                if f < 24.0:  # blow up once the run makes progress
                    raise FloatingPointError("synthetic failure")
                return f, g

            return type(problem)(
                name=problem.name, n=problem.n, eval=evaluate, x0=problem.x0
            )

        monkeypatch.setattr(bench_mod, "make", exploding_make)
        records = run_suite(["mss"], [("srosenbr", 10)])
        assert len(records) == 1
        assert records[0].status == "error"
        assert records[0].fe >= 1
        assert math.isnan(records[0].f_final)
        assert math.isnan(records[0].time_sec)  # unknown, never a fast zero

    def test_raising_solver_recorded_as_error(self, monkeypatch):
        import trbench.driver as driver_mod

        def broken_solve(mem, sp, opts=None):
            raise NumericalBreakdownError("synthetic solver bug")

        monkeypatch.setattr(driver_mod, "mss_solve", broken_solve)
        records = run_suite(["mss"], [("srosenbr", 10)])
        assert [r.status for r in records] == ["error"]
        assert records[0].fe == 1  # only the starting point was evaluated
        assert math.isnan(records[0].time_sec)

    @pytest.fixture
    def runs(self, monkeypatch):
        """The problem of every minimize() call run_suite makes."""
        import trbench.bench as bench_mod

        calls = []
        real_minimize = bench_mod.minimize

        def counting_minimize(problem, config):
            calls.append(problem.name)
            return real_minimize(problem, config)

        monkeypatch.setattr(bench_mod, "minimize", counting_minimize)
        return calls

    def test_unknown_solver_raises_before_any_run(self, runs):
        # A usage error, not a failed run: no error row with 0 evaluations.
        with pytest.raises(ValueError, match="unknown solver 'bogus'"):
            run_suite(["mss", "bogus"], [("srosenbr", 10)])
        assert runs == []

    def test_bad_problem_late_in_list_runs_nothing(self, runs):
        with pytest.raises(ValueError, match="woods needs n >= 4 divisible by 4"):
            run_suite(["mss"], [("srosenbr", 10), ("woods", 10)])
        assert runs == []

    @pytest.mark.parametrize("solvers, problems, message", [
        (["mss", "steihaug", "mss"], [("srosenbr", 10)], "each solver once, got 'mss' twice"),
        (["mss"], [("srosenbr", 10), ("woods", 12), ("srosenbr", 10)],
         "each problem once, got ('srosenbr', 10) twice"),
    ], ids=["solver", "problem"])
    def test_repeated_run_raises_before_any_run(self, runs, solvers, problems, message):
        # A second run of one (problem, n, solver) would profile a solver
        # against itself.
        with pytest.raises(ValueError, match=re.escape(message)):
            run_suite(solvers, problems)
        assert runs == []

    @pytest.mark.parametrize("solvers, problems", [([], [("srosenbr", 10)]), (["mss"], [])])
    def test_empty_grid_raises(self, solvers, problems):
        with pytest.raises(ValueError, match="at least one solver and one problem"):
            run_suite(solvers, problems)

    def test_each_instance_built_once(self, monkeypatch, runs):
        import trbench.bench as bench_mod

        built = []
        real_make = bench_mod.make

        def counting_make(name, n):
            built.append(name)
            return real_make(name, n)

        monkeypatch.setattr(bench_mod, "make", counting_make)
        records = run_suite(["mss", "steihaug"], [("srosenbr", 10), ("dqdrtic", 12)])
        assert built == ["srosenbr", "dqdrtic"]
        assert runs == ["srosenbr", "srosenbr", "dqdrtic", "dqdrtic"]
        assert all(r.fe >= 1 for r in records)


class TestPerformanceProfile:
    def test_single_solver_all_solved(self):
        records = [record(problem=f"p{i}", fe=10 + i) for i in range(4)]
        curves = performance_profile(records)
        assert len(curves) == 1
        assert curves[0].points == [(0.0, 1.0)]
        assert curves[0].r_max == 0.0

    def test_two_solver_hand_case(self):
        curves = performance_profile(hand_case_records())
        by_solver = {c.solver: c for c in curves}
        for solver in ("a", "b"):
            assert by_solver[solver].points == [(0.0, 0.5), (1.0, 1.0)]
            assert by_solver[solver].r_max == 1.0

    def test_failed_solver_caps_below_one(self):
        # Solver b fails one of three problems and wins none.
        records = []
        for i in range(3):
            records.append(record(problem=f"p{i}", solver="a", fe=10))
        records.append(record(problem="p0", solver="b", fe=20))
        records.append(record(problem="p1", solver="b", fe=20))
        records.append(
            record(problem="p2", solver="b", fe=20, status="fe_budget_exhausted")
        )
        curves = {c.solver: c for c in performance_profile(records)}
        assert curves["a"].points == [(0.0, 1.0)]
        assert curves["b"].points == [(1.0, pytest.approx(2.0 / 3.0))]
        final = curves["b"].points[-1][1]
        assert final == pytest.approx(2.0 / 3.0)

    def test_unsolved_problem_dropped_with_warning(self):
        records = [
            record(problem="p1", solver="a", fe=10),
            record(problem="p2", solver="a", fe=10, status="radius_too_small"),
        ]
        with pytest.warns(UserWarning, match="1 problem"):
            curves = performance_profile(records)
        assert curves[0].n_dropped == 1
        assert curves[0].points == [(0.0, 1.0)]  # denominator excludes p2
        with pytest.warns(UserWarning), pytest.raises(ValueError, match="every problem"):
            performance_profile(records[1:])

    def test_tie_credits_both_solvers(self):
        records = [
            record(problem="p1", solver="a", fe=10),
            record(problem="p1", solver="b", fe=10),
        ]
        curves = performance_profile(records)
        assert all(c.points == [(0.0, 1.0)] for c in curves)

    def test_time_metric(self):
        records = [
            record(problem="p1", solver="a", time_sec=1.0),
            record(problem="p1", solver="b", time_sec=4.0),
        ]
        curves = {c.solver: c for c in performance_profile(records, metric="time")}
        assert curves["b"].points == [(2.0, 1.0)]

    def test_time_metric_zero_best(self):
        # A run that converges at x0 spends 0 s in subproblems (dqrtic at
        # n = 1e5): a zero time ties with the best zero and loses to it
        # otherwise.
        records = [
            record(problem="p1", solver="a", time_sec=0.0),
            record(problem="p1", solver="b", time_sec=0.0),
            record(problem="p2", solver="a", time_sec=0.0),
            record(problem="p2", solver="b", time_sec=0.5),
        ]
        curves = {c.solver: c for c in performance_profile(records, metric="time")}
        assert curves["a"].points == [(0.0, 1.0)]
        assert curves["b"].points == [(0.0, 0.5)]

    @pytest.mark.parametrize("status", ["converged", "radius_too_small"])
    def test_second_run_of_a_solver_raises(self, status):
        # Repeats are refused whatever their status: the profile has one
        # cell per (problem, n, solver).
        records = hand_case_records() + [record(problem="p2", solver="b", status=status)]
        with pytest.raises(ValueError, match="solver 'b' ran 'p2' at n = 10 twice"):
            performance_profile(records)

    def test_unknown_metric_raises_at_entry(self):
        # Checked before the records, which here hold no solved problem.
        records = [record(status="radius_too_small")]
        with pytest.raises(ValueError, match="unknown metric 'bogus'"):
            performance_profile(records, metric="bogus")

    def test_monotone_fractions_fuzzed(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n_problems = int(rng.integers(1, 8))
            n_solvers = int(rng.integers(1, 4))
            records = []
            for p in range(n_problems):
                for s in range(n_solvers):
                    status = "converged" if rng.random() < 0.8 else "radius_too_small"
                    records.append(
                        record(
                            problem=f"p{p}", solver=f"s{s}", status=status,
                            fe=int(rng.integers(1, 200)),
                        )
                    )
            if not any(r.status == "converged" for r in records):
                continue
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                curves = performance_profile(records)
            for curve in curves:
                fractions = [f for _, f in curve.points]
                assert all(b >= a for a, b in zip(fractions, fractions[1:]))
                assert all(0.0 <= f <= 1.0 for f in fractions)
            # Every problem has a best solver (ties credit all of them).
            total = n_problems - curves[0].n_dropped
            wins = sum(
                round(next((f for t, f in c.points if t == 0.0), 0.0) * total)
                for c in curves
            )
            assert wins >= total


class TestCsvRoundTrip:
    def test_empty_records_write_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv([], path)
        text = path.read_text(encoding="utf-8")
        assert text == "problem,n,solver,status,time_sec,fe,inner_iters,f_final,gnorm_final\n"
        assert read_csv(path) == []

    def test_round_trip_field_exact(self, tmp_path):
        records = run_suite(["mss", "steihaug"], [("srosenbr", 10), ("eg2", 10)])
        path = tmp_path / "suite.csv"
        write_csv(records, path)
        assert read_csv(path) == records

    def test_blank_row_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        header = "problem,n,solver,status,time_sec,fe,inner_iters,f_final,gnorm_final\n"
        path.write_text(header + "\n" + "p,10,mss,converged,0.1,5,3,1.0,1e-9\n", encoding="utf-8")
        assert [r.problem for r in read_csv(path)] == ["p"]

    def test_round_trip_awkward_floats(self, tmp_path):
        records = [
            record(time_sec=0.1 + 0.2, f_final=1e-300, gnorm_final=math.pi),
            record(problem="p2", status="fe_budget_exhausted", fe=17),
        ]
        path = tmp_path / "floats.csv"
        write_csv(records, path)
        back = read_csv(path)
        assert back == records
        assert back[1].status == "fe_budget_exhausted"
        assert back[1].fe == 17

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope,really\n1,2\n", encoding="utf-8")
        with pytest.raises(CsvFormatError, match="line 1"):
            read_csv(path)

    def test_old_header_with_ge_rejected(self, tmp_path):
        # The schema before the ge column, which always equaled fe, was dropped.
        path = tmp_path / "old.csv"
        header = "problem,n,solver,status,time_sec,fe,ge,inner_iters,f_final,gnorm_final\n"
        path.write_text(header + "p,10,mss,converged,0.1,5,5,3,1.0,1e-9\n", encoding="utf-8")
        with pytest.raises(CsvFormatError, match="line 1"):
            read_csv(path)

    def test_malformed_row_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        good = "p,10,mss,converged,0.1,5,3,1.0,1e-9\n"
        header = "problem,n,solver,status,time_sec,fe,inner_iters,f_final,gnorm_final\n"
        path.write_text(header + good + "p,xx,mss,converged,0.1,5,3,1.0,1e-9\n",
                        encoding="utf-8")
        with pytest.raises(CsvFormatError, match="line 3"):
            read_csv(path)

    def test_wrong_field_count_reports_line_number(self, tmp_path):
        path = tmp_path / "short.csv"
        header = "problem,n,solver,status,time_sec,fe,inner_iters,f_final,gnorm_final\n"
        path.write_text(header + "p,10,mss,converged,0.1,5,3,1.0\n", encoding="utf-8")
        with pytest.raises(CsvFormatError, match="line 2: expected 9 fields, got 8"):
            read_csv(path)


class TestWriteProfile:
    def test_trivial_curve_rows(self, tmp_path):
        curves = performance_profile([record()])
        path = tmp_path / "profile.csv"
        write_profile(curves, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "solver,tau,fraction"
        assert len(lines) == 3  # one breakpoint plus the terminal row
        assert lines[1] == "a,0.0,1.0"
        assert lines[2] == "a,0.0,1.0"

    def test_hand_case_rows(self, tmp_path):
        curves = performance_profile(hand_case_records())
        path = tmp_path / "profile.csv"
        write_profile(curves, path)
        lines = path.read_text(encoding="utf-8").splitlines()[1:]
        assert len(lines) == 6  # 4 breakpoints + 2 terminal rows
        assert "a,0.0,0.5" in lines and "b,0.0,0.5" in lines
        assert lines.count("a,1.0,1.0") == 2  # breakpoint and terminal coincide

    def test_svg_is_wellformed_xml(self, tmp_path):
        curves = performance_profile(hand_case_records())
        svg_path = tmp_path / "profile.svg"
        write_profile(curves, tmp_path / "profile.csv", svg_path=svg_path)
        root = ET.parse(svg_path).getroot()
        assert root.tag.endswith("svg")
        assert root.get("width") == "800"
        assert root.get("height") == "500"
        # A solver name with XML markup characters is escaped, not markup.
        records = [replace(r, solver="<a & b>") if r.solver == "a" else r
                   for r in hand_case_records()]
        root = ET.fromstring(render_profile_svg(performance_profile(records)))
        assert "<a & b>" in [el.text for el in root.iter() if el.tag.endswith("text")]

    def test_svg_renders_empty_curve(self):
        text = render_profile_svg(
            [type("C", (), {"solver": "x", "points": [], "r_max": 0.0})()]
        )
        ET.fromstring(text)


class TestCli:
    def test_run_profile_check_pipeline(self, tmp_path, capsys):
        out_csv = tmp_path / "results.csv"
        code = main(
            [
                "run", "--solver", "mss,steihaug", "--problems", "srosenbr,dqdrtic",
                "--n", "12", "--out", str(out_csv),
            ]
        )
        assert code == 0
        assert "wrote 4 records" in capsys.readouterr().out
        prof_csv = tmp_path / "profile.csv"
        prof_svg = tmp_path / "profile.svg"
        code = main(
            [
                "profile", "--in", str(out_csv), "--metric", "fe",
                "--out", str(prof_csv), "--svg", str(prof_svg),
            ]
        )
        assert code == 0
        assert prof_csv.exists()
        ET.parse(prof_svg)

    def test_run_reports_failures_with_exit_one(self, tmp_path, monkeypatch):
        import trbench.cli as cli_mod

        def fake_run_suite(solvers, problems, config):
            return [record(status="fe_budget_exhausted")]

        monkeypatch.setattr(cli_mod, "run_suite", fake_run_suite)
        code = main(["run", "--problems", "srosenbr", "--n", "10",
                     "--out", str(tmp_path / "r.csv")])
        assert code == 1

    def test_usage_errors_exit_two(self, tmp_path):
        assert main(["run", "--solver", "newton", "--out", str(tmp_path / "x.csv")]) == 2
        assert main(["run", "--problems", "nosuch", "--out", str(tmp_path / "x.csv")]) == 2
        assert main(["run", "--problems", "woods", "--n", "10",
                     "--out", str(tmp_path / "x.csv")]) == 2  # invalid block size
        for tau in ("nan", "inf", "0", "-1e-6"):
            assert main(["run", "--problems", "srosenbr", "--n", "10", f"--tau={tau}",
                         "--out", str(tmp_path / "x.csv")]) == 2
        for argv in (["frobnicate"], ["run", "--n", "wat"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2

    def test_run_default_grid(self, tmp_path, capsys):
        # --problems defaults to all twelve problems and --solver to both.
        out_csv = tmp_path / "results.csv"
        assert main(["run", "--n", "12", "--out", str(out_csv)]) == 0
        assert "wrote 24 records" in capsys.readouterr().out
        records = read_csv(out_csv)
        assert len(records) == 24
        assert {r.solver for r in records} == {"mss", "steihaug"}

    def test_usage_errors_print_the_owners_message(self, tmp_path, capsys):
        out = str(tmp_path / "x.csv")
        assert main(["run", "--solver", "mss,stiehaug", "--out", out]) == 2
        assert "unknown solver 'stiehaug'" in capsys.readouterr().err
        assert main(["run", "--problems", "srosenbr,nosuch", "--out", out]) == 2
        assert "unknown problem 'nosuch'" in capsys.readouterr().err
        assert main(["run", "--problems", ",", "--out", out]) == 2
        assert "at least one solver and one problem" in capsys.readouterr().err
        assert main(["run", "--solver", "mss,mss", "--out", out]) == 2
        assert "each solver once, got 'mss' twice" in capsys.readouterr().err
        assert main(["run", "--problems", "eg2,srosenbr,eg2", "--out", out]) == 2
        assert "each problem once, got ('eg2', 1000) twice" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("content, message", [
        (",".join(CSV_HEADER) + "\r\n", "no records"),
        (None, "No such file"),
        ("a,b\r\n", "bad header"),
    ], ids=["header-only", "missing", "bad-header"])
    def test_profile_input_errors_exit_two(self, tmp_path, capsys, content, message):
        path = tmp_path / "in.csv"
        if content is not None:
            path.write_text(content, encoding="utf-8")
        out = tmp_path / "p.csv"
        assert main(["profile", "--in", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    def test_profile_of_a_repeated_run_exits_two(self, tmp_path, capsys):
        path = tmp_path / "in.csv"
        write_csv(hand_case_records() + [record(problem="p1", solver="a", fe=30)], path)
        out = tmp_path / "p.csv"
        assert main(["profile", "--in", str(path), "--out", str(out)]) == 2
        assert "error: solver 'a' ran 'p1' at n = 10 twice" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_run_output_exits_two(self, tmp_path, capsys, monkeypatch):
        import trbench.cli as cli_mod

        def no_grid(*_args):
            pytest.fail("the grid ran before the output was found unwritable")

        monkeypatch.setattr(cli_mod, "run_suite", no_grid)
        out = tmp_path / "nodir" / "r.csv"
        assert main(["run", "--problems", "srosenbr", "--n", "10", "--out", str(out)]) == 2
        assert "No such file" in capsys.readouterr().err

    def test_check_command_passes(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 12
        assert "[FAIL]" not in out

    def test_check_command_reports_a_failing_check(self, capsys, monkeypatch):
        import trbench.diagnostics as diagnostics

        failing = diagnostics.CheckResult("planted fault", 1.0, 0.0)
        monkeypatch.setattr(diagnostics, "gradients", lambda: [failing])
        assert main(["check"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] planted fault" in out
        assert out.count("[PASS]") == 11


def test_import_loads_no_network_modules():
    # xml.sax.saxutils pulls in urllib.request, http.client, email and ssl
    # (numpy itself loads urllib.parse, so that one is allowed).
    src = Path(__file__).resolve().parent.parent / "src"
    heavy = ("urllib.request", "http", "email", "ssl")
    probe = (f"import sys; sys.path.insert(0, {str(src)!r}); import trbench; "
             f"print(sorted(m for m in sys.modules if m.startswith({heavy!r})))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "[]"
