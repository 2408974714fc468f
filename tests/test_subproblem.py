import numpy as np
import pytest

from trbench import (
    BOUNDARY,
    BREAKDOWN,
    INTERIOR,
    MAX_ITERATIONS,
    SQRT_EPS,
    DegenerateDerivativeError,
    MssOptions,
    NumericalBreakdownError,
    PairMemory,
    Subproblem,
    check_optimality,
    dense_reference_solve,
    gram_iterate,
    mss_solve,
    newton_sigma_update,
    phi,
    steihaug_solve,
)
from trbench.diagnostics import random_memory


def e(i, n):
    v = np.zeros(n)
    v[i] = 1.0
    return v


def cauchy_reduction(mem, g, delta):
    """Best model decrease along -g inside the region (computed directly)."""
    gnorm = np.linalg.norm(g)
    if gnorm == 0.0:
        return 0.0
    curvature = float(g @ mem.multiply(g))
    t = gnorm**2 / curvature
    t = min(t, delta / gnorm)
    return float(t * gnorm**2 - 0.5 * t**2 * curvature)


def boundary_instance(rng, n, m, delta=0.1, scale=10.0):
    """Random memory and gradient whose unconstrained step leaves the region."""
    mem = random_memory(rng, n, m)
    g = rng.standard_normal(n)
    g *= scale / np.linalg.norm(g)
    return mem, Subproblem(g=g, delta=delta)


class TestPhi:
    def test_root_on_boundary(self):
        assert phi(1.0, 1.0) == 0.0

    def test_outside(self):
        assert phi(2.0, 1.0) == pytest.approx(-0.5)

    def test_inside(self):
        assert phi(0.5, 1.0) == pytest.approx(1.0)

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError):
            phi(0.0, 1.0)


class TestNewtonSigmaUpdate:
    def test_hand_case_identity_model(self):
        # B = I (empty memory), g = 3 e1, sigma = 0: p = -3 e1, so
        # ||p|| = 3 and p^T B^{-1} p = 9; phi = 1/3 - 1, phi' = 9/27, and
        # the update lands on sigma = 2 in one step.
        mem = PairMemory(4)
        g = 3.0 * e(0, 4)
        it = gram_iterate(mem, mem.panel @ g, float(g @ g), 0.0)
        assert (it.p_norm, it.curvature) == (3.0, 9.0)
        np.testing.assert_array_equal(it.step(g, mem.panel), -g)
        got = newton_sigma_update(0.0, it.p_norm, it.curvature, 1.0)
        assert got == pytest.approx(2.0, abs=1e-14)

    def test_on_boundary_is_fixed_point(self):
        assert newton_sigma_update(3.5, 1.0, 1.0, 1.0) == 3.5  # ||p|| = delta: phi = 0

    def test_degenerate_derivative(self):
        with pytest.raises(DegenerateDerivativeError):
            newton_sigma_update(1.0, 1.0, 0.0, 1.0)

    def test_matches_cholesky_form(self, rng):
        # The Newton step from the Gram-space ||p|| and p^T (B + sigma I)^{-1} p
        # must agree with the factored update
        # sigma + (||p||^2/||q||^2)(||p|| - delta)/delta, q = R^{-T} p.
        for _ in range(25):
            n = int(rng.integers(4, 25))
            mem = random_memory(rng, n, int(rng.integers(1, 6)))
            sigma = float(rng.uniform(0.0, 4.0))
            shifted = mem.materialize_dense() + sigma * np.eye(n)
            g = rng.standard_normal(n)
            p = np.linalg.solve(shifted, -g)
            delta = 0.5 * float(np.linalg.norm(p))
            it = gram_iterate(mem, mem.panel @ g, float(g @ g), sigma)
            got = newton_sigma_update(sigma, it.p_norm, it.curvature, delta)
            lower = np.linalg.cholesky(shifted)
            q = np.linalg.solve(lower, p)
            p_norm = float(np.linalg.norm(p))
            want = sigma + (p_norm**2 / float(q @ q)) * (p_norm - delta) / delta
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


class TestMssSolve:
    def test_interior_fast_path(self):
        mem = PairMemory(4)  # B = I
        g = 0.5 * e(0, 4)
        result = mss_solve(mem, Subproblem(g=g, delta=1.0))
        np.testing.assert_allclose(result.p, -g)
        assert result.sigma == 0.0
        assert result.status == INTERIOR
        assert result.inner_iterations == 0

    def test_scalar_secular_equation(self):
        # B = I, g = 3 e1, delta = 1: (1 + sigma) p = -g on the boundary
        # forces sigma = ||g||/delta - 1 = 2 and p = -e1.
        mem = PairMemory(3)
        result = mss_solve(mem, Subproblem(g=3.0 * e(0, 3), delta=1.0))
        assert result.status == BOUNDARY
        np.testing.assert_allclose(result.p, -e(0, 3), atol=1e-8)
        assert result.sigma == pytest.approx(2.0, abs=1e-6)

    def test_matches_dense_reference(self, rng):
        mem, sp = boundary_instance(rng, 30, 5)
        result = mss_solve(mem, sp)
        p_ref, sigma_ref = dense_reference_solve(
            mem.materialize_dense(), sp.g, sp.delta
        )
        assert np.linalg.norm(result.p - p_ref) <= 1e-6 * np.linalg.norm(p_ref)
        assert abs(result.sigma - sigma_ref) <= 1e-6 * max(1.0, sigma_ref)

    def test_cross_oracle_agreement_batch(self, rng):
        for _ in range(100):
            mem, sp = boundary_instance(
                rng, 30, 5, delta=float(rng.uniform(0.02, 0.5))
            )
            result = mss_solve(mem, sp)
            p_ref, sigma_ref = dense_reference_solve(
                mem.materialize_dense(), sp.g, sp.delta
            )
            assert result.status in (INTERIOR, BOUNDARY)
            assert np.linalg.norm(result.p - p_ref) <= 1e-6 * np.linalg.norm(p_ref)
            assert abs(result.sigma - sigma_ref) <= 1e-6 * max(1.0, sigma_ref)

    def test_boundary_accuracy_and_sigma_reset_domain(self, rng):
        # Boundary exits respect the tau_ms tolerance, and every result,
        # whatever its sigma, passes the optimality certificate.
        for delta in (1e-3, 1.0, 1e3):
            for _ in range(10):
                n = int(rng.integers(10, 80))
                mem = random_memory(rng, n, int(rng.integers(0, 8)))
                g = rng.standard_normal(n)
                g *= (20.0 * delta) / np.linalg.norm(g)
                result = mss_solve(mem, Subproblem(g=g, delta=delta))
                if result.status == BOUNDARY:
                    assert abs(np.linalg.norm(result.p) - delta) <= SQRT_EPS * delta
                report = check_optimality(
                    mem, result, Subproblem(g=g, delta=delta), tol=1e-6
                )
                assert report.passed

    def test_model_reduction_nonnegative(self, rng):
        mem, sp = boundary_instance(rng, 20, 4)
        assert mss_solve(mem, sp).model_reduction > 0.0

    def test_iteration_cap_returns_best_iterate(self, rng):
        mem, sp = boundary_instance(rng, 30, 5)
        result = mss_solve(mem, sp, MssOptions(max_iterations=1))
        assert result.status == "max_iterations"
        assert result.inner_iterations == 1
        assert np.all(np.isfinite(result.p))

    def test_cancelled_gram_norm_never_raises(self, rng):
        # gamma = 1e27 (s = 1e10 e_0, y = 1e-17 e_0 passes the gate) and g
        # in B's stiff directions: p = -(base g + P^T z) cancels so far
        # that the Gram-space ||p||^2 often rounds to zero or below.  mss
        # must then take the n-space norm, never hand phi a zero norm.
        for _ in range(10):
            mem = PairMemory(3, 3)
            for _ in range(2):
                s = rng.standard_normal(3)
                assert mem.try_update(s, np.diag(rng.uniform(0.5, 2.0, 3)) @ s)
            assert mem.try_update(1e10 * e(0, 3), 1e-17 * e(0, 3))
            v = rng.standard_normal(3)
            v[0] = 0.0
            g = mem.multiply(v)
            for delta in (1e-3, 1.0, 1e3):
                result = mss_solve(mem, Subproblem(g=g, delta=delta))
                assert result.status in (INTERIOR, BOUNDARY, MAX_ITERATIONS, BREAKDOWN)
                assert np.all(np.isfinite(result.p))

    def test_breakdown_returns_sigma_that_p_solves(self, rng, monkeypatch):
        # The recursion fails while preparing the second shift: the result
        # must pair the last p with the sigma it was solved at, not with the
        # Newton step that could not be prepared.
        import trbench.subproblem as subproblem_mod

        real_prepare = subproblem_mod.shifted_prepare
        calls = []

        def failing_prepare(mem, sigma):
            calls.append(sigma)
            if len(calls) == 2:
                raise NumericalBreakdownError("synthetic recursion failure")
            return real_prepare(mem, sigma)

        monkeypatch.setattr(subproblem_mod, "shifted_prepare", failing_prepare)
        mem, sp = boundary_instance(rng, 30, 5)
        result = mss_solve(mem, sp)
        assert result.status == BREAKDOWN
        assert len(calls) == 2
        assert result.sigma == calls[0]
        report = check_optimality(mem, result, sp, tol=1e-10)
        assert report.residual <= 1e-10
        p = result.p
        dense = float(-(sp.g @ p) - 0.5 * (p @ mem.materialize_dense() @ p))
        assert result.model_reduction == pytest.approx(dense, rel=1e-10)


class TestSteihaug:
    def test_identity_interior_one_iteration(self):
        mem = PairMemory(4)
        g = 0.5 * e(0, 4)
        result = steihaug_solve(mem, Subproblem(g=g, delta=1.0))
        assert result.status == INTERIOR
        assert result.inner_iterations == 1
        np.testing.assert_allclose(result.p, -g, atol=1e-15)
        assert result.sigma == 0.0

    def test_identity_truncated_at_boundary(self):
        mem = PairMemory(3)
        result = steihaug_solve(mem, Subproblem(g=3.0 * e(0, 3), delta=1.0))
        assert result.status == BOUNDARY
        np.testing.assert_allclose(result.p, -e(0, 3), atol=1e-15)
        assert np.linalg.norm(result.p) == pytest.approx(1.0, abs=1e-14)

    def test_interior_matches_dense_solve_to_cg_tolerance(self, rng):
        mem = random_memory(rng, 25, 4)
        g = rng.standard_normal(25)
        g *= 0.05 / np.linalg.norm(g)
        sp = Subproblem(g=g, delta=1e3)  # solution far inside
        result = steihaug_solve(mem, sp)
        assert result.status == INTERIOR
        gnorm = np.linalg.norm(g)
        tolerance = gnorm * min(0.1, gnorm**0.1)
        residual = mem.multiply(result.p) + g
        assert np.linalg.norm(residual) <= tolerance * (1.0 + 1e-9)
        want = np.linalg.solve(mem.materialize_dense(), -g)
        # CG stops early, so only tolerance-level agreement is expected.
        assert np.linalg.norm(result.p - want) <= tolerance / gnorm * np.linalg.norm(want) * 10

    def test_reduction_beats_half_cauchy(self, rng):
        for _ in range(20):
            n = int(rng.integers(5, 40))
            mem = random_memory(rng, n, int(rng.integers(0, 6)))
            g = rng.standard_normal(n)
            delta = float(rng.uniform(0.05, 2.0))
            result = steihaug_solve(mem, Subproblem(g=g, delta=delta))
            assert result.model_reduction >= 0.5 * cauchy_reduction(mem, g, delta)

    def test_model_decrease_monotone_in_iteration_cap(self, rng):
        # Prefixes of the same CG trajectory: the reduction must be
        # nondecreasing as the cap grows, strictly until convergence.
        mem = random_memory(rng, 30, 5)
        g = rng.standard_normal(30)
        sp = Subproblem(g=g, delta=10.0)
        full = steihaug_solve(mem, sp)
        reductions = []
        for cap in range(1, full.inner_iterations + 1):
            reductions.append(
                steihaug_solve(mem, sp, max_iterations=cap).model_reduction
            )
        assert all(b > a for a, b in zip(reductions, reductions[1:]))

    def test_zero_gradient(self):
        mem = PairMemory(3)
        result = steihaug_solve(mem, Subproblem(g=np.zeros(3) + 0.0, delta=1.0))
        assert result.status == INTERIOR
        np.testing.assert_array_equal(result.p, np.zeros(3))


class TestDenseReference:
    def test_identity_boundary(self):
        p, sigma = dense_reference_solve(np.eye(3), 3.0 * e(0, 3), 1.0)
        np.testing.assert_allclose(p, -e(0, 3), atol=1e-9)
        assert sigma == pytest.approx(2.0, abs=1e-8)

    def test_decoupled_diagonal(self):
        p, sigma = dense_reference_solve(np.diag([1.0, 2.0]), np.array([3.0, 0.0]), 1.0)
        np.testing.assert_allclose(p, [-1.0, 0.0], atol=1e-9)
        assert sigma == pytest.approx(2.0, abs=1e-8)

    def test_interior(self):
        p, sigma = dense_reference_solve(np.eye(2), np.array([0.3, 0.4]), 1.0)
        np.testing.assert_allclose(p, [-0.3, -0.4])
        assert sigma == 0.0

    def test_non_spd_rejected(self):
        with pytest.raises(ValueError):
            dense_reference_solve(np.diag([1.0, -1.0]), np.ones(2), 1.0)
        with pytest.raises(ValueError):
            dense_reference_solve(np.array([[1.0, 2.0], [0.0, 1.0]]), np.ones(2), 1.0)


class TestCheckOptimality:
    def test_interior_exact(self):
        mem = PairMemory(3)
        g = 0.5 * e(0, 3)
        result = mss_solve(mem, Subproblem(g=g, delta=1.0))
        report = check_optimality(mem, result, Subproblem(g=g, delta=1.0), tol=1e-6)
        assert report.residual == 0.0
        assert report.complementarity == 0.0
        assert report.passed

    def test_boundary_randomized(self, rng):
        mem, sp = boundary_instance(rng, 25, 5)
        result = mss_solve(mem, sp)
        assert check_optimality(mem, result, sp, tol=1e-6).passed

    def test_perturbed_step_fails(self, rng):
        mem, sp = boundary_instance(rng, 25, 5)
        result = mss_solve(mem, sp)
        result.p = result.p + 0.1 * e(0, 25)
        report = check_optimality(mem, result, sp, tol=1e-6)
        assert not report.residual_ok
        assert not report.passed


def test_subproblem_validation():
    with pytest.raises(ValueError):
        Subproblem(g=np.ones(3), delta=0.0)
    with pytest.raises(ValueError):
        Subproblem(g=np.array([1.0, np.inf]), delta=1.0)
