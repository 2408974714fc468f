import math

import numpy as np
import pytest

from trbench import (
    BOUNDARY,
    CONVERGED,
    EPS,
    INTERIOR,
    MAX_ITERATIONS,
    ModelInconsistencyError,
    PairMemory,
    ProblemInstance,
    Subproblem,
    TrConfig,
    make,
    minimize,
    mss_solve,
    rho,
    steihaug_solve,
)
from trbench import driver, subproblem
from trbench.diagnostics import random_memory


def quadratic_problem(x0):
    x0 = np.asarray(x0, dtype=float)

    def evaluate(x):
        return 0.5 * float(x @ x), x.copy()

    return ProblemInstance(name="halfnormsq", n=x0.size, eval=evaluate, x0=x0)


def table_problem(table, n=1):
    """1-D problem whose (f, g) values come from a lookup on round(x, 6)."""

    def evaluate(x):
        f, g = table[round(float(x[0]), 6)]
        return f, np.array([g], dtype=float)

    return ProblemInstance(name="table", n=n, eval=evaluate, x0=np.zeros(n))


def predicted_reduction(mem, g, p):
    """The model reduction -g^T p - 0.5 p^T B p, as the solvers report it."""
    return float(-(g @ p) - 0.5 * (p @ mem.multiply(p)))


class TestRho:
    def test_exact_quadratic_model(self, rng):
        mem = random_memory(rng, 10, 3)
        x = rng.standard_normal(10)
        g = mem.multiply(x)  # pretend f is the model itself around x

        def f(v):
            return 0.5 * float(v @ mem.multiply(v))

        p = -0.1 * g
        predicted = predicted_reduction(mem, g, p)
        assert rho(f(x), f(x + p), predicted) == pytest.approx(1.0, rel=1e-10)

    def test_no_actual_reduction(self, rng):
        mem = random_memory(rng, 5, 2)
        g = rng.standard_normal(5)
        p = -0.1 * g
        assert rho(1.0, 1.0, predicted_reduction(mem, g, p)) == 0.0

    @pytest.mark.parametrize("status", [INTERIOR, BOUNDARY, MAX_ITERATIONS])
    @pytest.mark.parametrize("solver", ["mss", "steihaug"])
    def test_denominator_matches_dense_model(self, rng, monkeypatch, solver, status):
        # The driver divides by the solver's model_reduction; it must be
        # the dense model's prediction for the returned step, on every exit.
        mem = random_memory(rng, 12, 4)
        g = rng.standard_normal(12)
        # A cap of one iteration stops mss on its way to the boundary and
        # steihaug on its way to the interior minimizer.
        wide = status == INTERIOR or (status == MAX_ITERATIONS and solver == "steihaug")
        sp = Subproblem(g=g, delta=(1e3 if wide else 0.05) * float(np.linalg.norm(g)))
        if status == MAX_ITERATIONS:
            monkeypatch.setattr(subproblem, "MSS_MAX_ITERATIONS", 1)
            monkeypatch.setattr(subproblem, "STEIHAUG_MAX_ITERATIONS", 1)
        result = (mss_solve if solver == "mss" else steihaug_solve)(mem, sp)
        assert result.status == status
        p = result.p
        dense = mem.materialize_dense()
        predicted = float(-(g @ p) - 0.5 * (p @ dense @ p))
        # Feeding a numerator of exactly `predicted` isolates the denominator.
        assert rho(predicted, 0.0, result.model_reduction) == pytest.approx(1.0, rel=1e-10)

    def test_nonpositive_prediction_raises(self, rng):
        mem = random_memory(rng, 5, 2)
        g = rng.standard_normal(5)
        with pytest.raises(ModelInconsistencyError):
            rho(1.0, 0.0, predicted_reduction(mem, g, 0.1 * g))  # ascent direction


class TestMinimize:
    def test_converged_at_start_costs_one_evaluation(self):
        result = minimize(quadratic_problem(np.zeros(5)))
        assert result.status == CONVERGED
        assert result.fe_count == 1
        assert result.accepted_steps == 0

    @pytest.mark.parametrize("solver", driver.SOLVERS)
    @pytest.mark.parametrize("fault", ["f=inf", "f=nan", "g[3]=inf"])
    def test_nonfinite_start_raises_after_one_evaluation(self, solver, fault):
        # The start is judged by the rule every trial is: a non-finite f,
        # or a g whose g'g is not finite, raises ValueError naming both
        # values before any solve, after the one evaluation at x0.
        problem = make("srosenbr", 10)
        calls = 0

        def evaluate(x):
            nonlocal calls
            calls += 1
            f, g = problem.eval(x)
            if fault == "f=inf":
                f = math.inf
            elif fault == "f=nan":
                f = math.nan
            else:
                g = np.array(g, dtype=float)
                g[3] = math.inf
            return f, g

        faulty = ProblemInstance(name="bad_start", n=10, eval=evaluate, x0=problem.x0)
        with pytest.raises(ValueError, match=r"x0, got f = .*, g'g = "):
            minimize(faulty, TrConfig(solver=solver))
        assert calls == 1

    def test_quadratic_converges_quickly(self):
        result = minimize(quadratic_problem(10.0 * np.eye(6)[0]))
        assert result.status == CONVERGED
        assert result.fe_count <= 6  # radius doubling reaches the minimizer fast
        assert result.gnorm_final < 1e-5

    def test_both_solvers_on_rosenbrock(self):
        for solver in ("mss", "steihaug"):
            result = minimize(make("srosenbr", 100), TrConfig(solver=solver))
            assert result.status == CONVERGED
            assert result.fe_count <= 1000

    def test_monotone_objective_and_radius_bounds(self):
        config = TrConfig(solver="mss")
        trace = []
        result = minimize(make("woods", 40), config, callback=trace.append)
        assert result.status == CONVERGED
        f_values = [info["f"] for info in trace if info["accepted"]]
        assert all(b < a for a, b in zip(f_values, f_values[1:]))
        assert all(
            driver.MIN_DELTA <= info["delta"] <= driver.DELTA_HAT for info in trace
        )

    def test_fe_accounting(self):
        trace = []
        result = minimize(make("srosenbr", 20), callback=trace.append)
        assert result.fe_count == 1 + len(trace)
        assert result.accepted_steps + result.rejected_steps == len(trace)

    def test_determinism(self):
        runs = []
        for _ in range(2):
            trace = []
            result = minimize(
                make("liarwhd", 30), TrConfig(solver="mss"), callback=trace.append
            )
            runs.append((result, [info["x"] for info in trace]))
        first, second = runs
        assert first[0].fe_count == second[0].fe_count
        assert first[0].f_final == second[0].f_final
        for xa, xb in zip(first[1], second[1]):
            np.testing.assert_array_equal(xa, xb)

    def test_rejected_step_can_still_store_pair(self, monkeypatch):
        # f jumps up at the first trial point (step rejected) while the
        # gradient difference still has healthy curvature (pair stored).
        # g stays but the panel has grown, so the next solve gets no
        # carried P g and forms it itself.
        table = {
            0.0: (0.0, -1.0),
            1.0: (5.0, 1.0),
            0.5: (-1.0, 1e-9),
        }
        seen = []

        def solve(mem, sp):
            seen.append((mem.m, sp.pg))
            return mss_solve(mem, sp)

        monkeypatch.setattr(driver, "mss_solve", solve)
        trace = []
        result = minimize(table_problem(table), callback=trace.append)
        assert seen[1] == (1, None)
        assert result.status == CONVERGED
        first = trace[0]
        assert not first["accepted"]
        assert first["pair_stored"]
        assert first["memory_size"] == 1
        assert result.rejected_steps == 1
        assert result.accepted_steps == 1
        assert result.fe_count == 3

    def test_nonfinite_trial_is_rejected_with_shrink(self):
        # First trial explodes; radius halves and the second succeeds.
        table = {
            0.0: (0.0, -1.0),
            1.0: (math.inf, math.nan),
            0.5: (-1.0, 1e-9),
        }
        trace = []
        result = minimize(table_problem(table), callback=trace.append)
        assert result.status == CONVERGED
        assert not trace[0]["accepted"]
        assert not trace[0]["pair_stored"]  # NaN curvature fails the gate
        assert trace[0]["rho"] == -math.inf
        assert trace[0]["delta"] == pytest.approx(0.5)

    def test_overflowing_trial_gradient_is_rejected_with_shrink(self):
        # Every entry of the first trial's gradient is finite, but g'g
        # overflows.  The trial counts as non-finite (rejected, radius
        # halved, no pair offered) instead of being accepted and then
        # refused by the next Subproblem.
        table = {
            0.0: (0.0, -1.0),
            1.0: (-5.0, 1e160),
            0.5: (-1.0, 1e-9),
        }
        trace = []
        result = minimize(table_problem(table), callback=trace.append)
        assert result.status == CONVERGED
        assert not trace[0]["accepted"]
        assert not trace[0]["pair_stored"]
        assert trace[0]["rho"] == -math.inf
        assert trace[0]["delta"] == pytest.approx(0.5)

    @pytest.mark.parametrize("drop, carried", [(2.0, True), (1e8, False)])
    def test_panel_product_carried_unless_gradient_drops(self, monkeypatch, drop, carried):
        # One accepted step from x = 0 to x = -1 stores its pair, and the
        # gradient falls from 1e4 by ``drop``.  The next solve gets P g
        # carried across the step unless the drop makes the carried
        # rounding too large next to ||g||; then it forms P g itself.
        def evaluate(x):
            if x[0] == 0.0:
                return 0.0, np.array([1e4])
            return -1e4, np.array([1e4 / drop])

        seen = []

        def solve(mem, sp):
            if sp.pg is not None and mem.m:
                np.testing.assert_allclose(sp.pg.u, mem.panel @ sp.g, rtol=1e-14)
            seen.append((mem.m, sp.pg is not None))
            return mss_solve(mem, sp)

        monkeypatch.setattr(driver, "mss_solve", solve)
        problem = ProblemInstance(name="drop", n=1, eval=evaluate, x0=np.zeros(1))
        trace = []
        minimize(problem, TrConfig(tau=1e-12), callback=trace.append)
        assert trace[0]["accepted"] and trace[0]["pair_stored"]
        assert seen[1] == (1, carried)

    @pytest.mark.parametrize("solver", ["mss", "steihaug"])
    def test_solver_gets_the_drivers_gg(self, monkeypatch, solver):
        # minimize passes its own g'g, formed once per gradient, to every
        # solve; it must be the g'g of that solve's g.
        seen = []
        solve = getattr(driver, f"{solver}_solve")

        def spy(mem, sp):
            seen.append(sp.gg == float(sp.g @ sp.g))
            return solve(mem, sp)

        monkeypatch.setattr(driver, f"{solver}_solve", spy)
        result = minimize(make("srosenbr", 10), TrConfig(solver=solver))
        assert result.accepted_steps and result.rejected_steps
        assert len(seen) == result.accepted_steps + result.rejected_steps
        assert all(seen)

    def test_factors_built_only_for_their_readers(self, monkeypatch):
        # Each factor is built on its first read after an accepted pair:
        # steihaug reads only the a/b rows, an mss solve that ends interior
        # only B^{-1}, and no factor is built twice at one memory version.
        builds = []
        for name in ("_build_ab", "_build_inverse"):
            build = getattr(PairMemory, name)

            def spy(mem, build=build, name=name):
                builds.append((name, mem, mem.version))  # holds mem, so no id is reused
                return build(mem)

            monkeypatch.setattr(PairMemory, name, spy)
        interior_builds = []
        for solver in ("mss", "steihaug"):
            solve = getattr(driver, f"{solver}_solve")

            def traced(mem, sp, solve=solve):
                start = len(builds)
                result = solve(mem, sp)
                if result.status == INTERIOR:
                    interior_builds.extend(builds[start:])
                return result

            monkeypatch.setattr(driver, f"{solver}_solve", traced)
        for solver in ("mss", "steihaug"):
            builds.clear()
            interior_builds.clear()
            for name in ("tridia", "srosenbr"):
                minimize(make(name, 60), TrConfig(solver=solver))
            assert max(version for _, _, version in builds) > TrConfig().memory  # the ring wraps
            kinds = {name for name, _, _ in builds}
            if solver == "steihaug":
                assert kinds == {"_build_ab"}
            else:
                assert kinds == {"_build_ab", "_build_inverse"}
                assert len(set(builds)) == len(builds)
                assert interior_builds
                assert all(name == "_build_inverse" for name, _, _ in interior_builds)

    def test_radius_too_small_exit(self):
        # Constant f with nonzero reported gradient: every step is rejected
        # and the radius halves from DELTA0 = 1 to the floor MIN_DELTA = 1e-13.
        def evaluate(x):
            return 1.0, np.ones(2)

        problem = ProblemInstance(name="stuck", n=2, eval=evaluate, x0=np.zeros(2))
        result = minimize(problem)
        assert result.status == "radius_too_small"
        assert result.accepted_steps == 0
        assert result.fe_count == 1 + math.ceil(math.log2(driver.DELTA0 / driver.MIN_DELTA))

    def test_fe_budget_exit(self):
        # f = -x is unbounded below with a constant gradient, so every step
        # is accepted and the run ends only on the budget max(MAX_FE, n).
        def evaluate(x):
            return -float(x[0]), -np.ones(1)

        problem = ProblemInstance(name="slope", n=1, eval=evaluate, x0=np.zeros(1))
        result = minimize(problem)
        assert result.status == "fe_budget_exhausted"
        assert result.fe_count == driver.MAX_FE + 1  # budget checked once exceeded

    def test_pair_gate_is_independent_of_rho(self):
        # Over a real run, at least one rejected iteration stores its pair,
        # and stored/skip decisions track the curvature gate only.
        trace = []
        minimize(make("cosine", 50), TrConfig(solver="mss"), callback=trace.append)
        rejected_and_stored = [
            info for info in trace if not info["accepted"] and info["pair_stored"]
        ]
        assert rejected_and_stored, "expected a rejected step with a stored pair"


class TestTrConfig:
    def test_defaults(self):
        config = TrConfig()
        assert (config.memory, config.tau, config.solver) == (5, 1e-6, "mss")
        assert (driver.GAMMA1, driver.GAMMA2, driver.DELTA0) == (2.0, 0.5, 1.0)
        assert (driver.ETA1, driver.ETA2) == (0.01, 0.95)
        assert driver.DELTA_HAT == 1.0 / (100.0 * EPS)
        assert (driver.MIN_DELTA, driver.MAX_FE) == (1e-13, 1000)

    def test_validation(self):
        with pytest.raises(ValueError):
            TrConfig(solver="dogleg")
        with pytest.raises(ValueError):
            TrConfig(memory=0)
        for memory in (2.5, True):
            with pytest.raises(ValueError, match="integer"):
                TrConfig(memory=memory)
        assert TrConfig(memory=np.int64(3)).memory == 3
        for tau in (math.nan, math.inf, 0.0, -1e-6, True):
            with pytest.raises(ValueError, match="tau"):
                TrConfig(tau=tau)
