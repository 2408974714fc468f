import math

import numpy as np
import pytest

from trbench import (
    BOUNDARY,
    BREAKDOWN,
    EPS,
    INTERIOR,
    MAX_ITERATIONS,
    DegenerateDerivativeError,
    MssOptions,
    NumericalBreakdownError,
    PairMemory,
    PanelProduct,
    Subproblem,
    check_optimality,
    dense_reference_solve,
    frame,
    frame_step,
    gram_iterate,
    mss_solve,
    newton_sigma_update,
    phi,
    steihaug_solve,
    subproblem,
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
        with pytest.raises(ValueError, match="delta"):
            phi(1.0, 0.0)


class TestNewtonSigmaUpdate:
    def test_hand_case_identity_model(self):
        # B = I (empty memory), g = 3 e1, sigma = 0: p = -3 e1, so
        # ||p|| = 3 and p^T B^{-1} p = 9; phi = 1/3 - 1, phi' = 9/27, and
        # the update lands on sigma = 2 in one step.
        mem = PairMemory(4)
        g = 3.0 * e(0, 4)
        it = gram_iterate(mem, frame(mem, Subproblem(g=g, delta=1.0)), 0.0)
        assert (it.p_norm, it.curvature) == (3.0, 9.0)
        np.testing.assert_array_equal(frame_step(mem, g, it.x), -g)
        got = newton_sigma_update(0.0, it.p_norm, it.curvature, 1.0)
        assert got == pytest.approx(2.0, abs=1e-14)

    def test_on_boundary_is_fixed_point(self):
        assert newton_sigma_update(3.5, 1.0, 1.0, 1.0) == 3.5  # ||p|| = delta: phi = 0

    def test_degenerate_derivative(self):
        with pytest.raises(DegenerateDerivativeError):
            newton_sigma_update(1.0, 1.0, 0.0, 1.0)

    def test_huge_norm_is_not_cubed(self):
        # B = I and g = 3e120 e1 at sigma = 0: ||p|| = 3e120, whose cube
        # overflows a double, and p^T B^{-1} p = 9e240.  The step lands on
        # sigma = ||g||/delta - 1 as in the hand case above.
        assert newton_sigma_update(0.0, 3e120, 9e240, 1.0) == pytest.approx(3e120, rel=1e-15)

    def test_tiny_norm_is_not_cubed(self):
        # B = 1e-100 I and ||g|| = 1e-300 at sigma = 0: ||p|| = 1e-200,
        # whose cube underflows to 0, and p^T B^{-1} p = 1e-300.  phi is
        # linear in sigma, so the step lands on ||g||/delta - 1e-100.
        got = newton_sigma_update(0.0, 1e-200, 1e-300, 0.5e-200)
        assert got == pytest.approx(1e-100, rel=1e-15)

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
            it = gram_iterate(mem, frame(mem, Subproblem(g=g, delta=delta)), sigma)
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
                    assert abs(np.linalg.norm(result.p) - delta) <= subproblem.TAU_MS * delta
                report = check_optimality(
                    mem, result, Subproblem(g=g, delta=delta), tol=1e-6
                )
                assert report.passed

    def test_model_reduction_nonnegative(self, rng):
        mem, sp = boundary_instance(rng, 20, 4)
        assert mss_solve(mem, sp).model_reduction > 0.0

    def test_iteration_cap_returns_best_iterate(self, rng, monkeypatch):
        monkeypatch.setattr(subproblem, "MSS_MAX_ITERATIONS", 1)
        mem, sp = boundary_instance(rng, 30, 5)
        result = mss_solve(mem, sp)
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

    def test_underflowing_step_norm_is_a_breakdown(self):
        # With no pairs and delta = 1e-170, one step gives p with entries
        # near 3e-171, whose squares underflow: the n-space ||p|| is taken
        # scaled, so both solvers end on the sphere.  At delta = 5e-324,
        # the least subnormal, a step on the sphere in n = 100 has entries
        # that round to 0: that is no boundary exit, and both solvers still
        # return a finite p.
        for solve in (mss_solve, steihaug_solve):
            result = solve(PairMemory(10, 3), Subproblem(g=np.ones(10), delta=1e-170))
            assert result.status == BOUNDARY
            assert result.p_norm == pytest.approx(1e-170, rel=4.0 * EPS, abs=0.0)
            result = solve(PairMemory(100, 3), Subproblem(g=np.ones(100), delta=5e-324))
            assert result.status == BREAKDOWN
            assert result.inner_iterations == 1
            assert np.all(np.isfinite(result.p))

    def test_huge_gradient_reaches_boundary(self):
        # g scaled by 1e140 puts ||p|| near 5.6e102 at sigma = 0, past the
        # point where ||p||^3 overflows; the step must still solve.
        mem = random_memory(np.random.default_rng(0), 20, 4)
        sp = Subproblem(g=1e140 * np.random.default_rng(1).standard_normal(20), delta=1.0)
        result = mss_solve(mem, sp)
        assert result.status == BOUNDARY
        assert check_optimality(mem, result, sp, tol=1e-6).passed

    @pytest.mark.parametrize("tau_ms", [np.nan, np.inf, -1.0, 0.0, 1e-16, 3e-16])
    def test_tau_ms_must_be_positive_and_finite(self, tau_ms):
        # Below the floor of 4 eps mss cannot meet the tolerance reliably.
        with pytest.raises(ValueError):
            MssOptions(tau_ms=tau_ms)

    def test_tau_ms_floor_is_met(self):
        # At the least accepted tau_ms, every boundary instance still ends
        # on the sphere within it; at 3e-16 some end max_iterations instead.
        rng = np.random.default_rng(11)
        opts = MssOptions(tau_ms=4.0 * EPS)
        for _ in range(100):
            n = int(rng.integers(10, 200))
            mem = random_memory(rng, n, int(rng.integers(1, 8)))
            g = rng.standard_normal(n)
            g *= rng.uniform(5.0, 50.0) / np.linalg.norm(g)
            result = mss_solve(mem, Subproblem(g=g, delta=1.0), opts)
            assert result.status == BOUNDARY
            assert abs(np.linalg.norm(result.p) - 1.0) <= 4.0 * EPS

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
        tolerance = subproblem.steihaug_tolerance(gnorm)
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

    def test_model_decrease_monotone_in_iteration_cap(self, rng, monkeypatch):
        # Prefixes of the same CG trajectory: the reduction must be
        # nondecreasing as the cap grows, strictly until convergence.
        mem = random_memory(rng, 30, 5)
        g = rng.standard_normal(30)
        sp = Subproblem(g=g, delta=10.0)
        full = steihaug_solve(mem, sp)
        reductions = []
        for cap in range(1, full.inner_iterations + 1):
            monkeypatch.setattr(subproblem, "STEIHAUG_MAX_ITERATIONS", cap)
            reductions.append(steihaug_solve(mem, sp).model_reduction)
        assert all(b > a for a, b in zip(reductions, reductions[1:]))

    def test_patched_stop_runs_cg_further(self, rng, monkeypatch):
        # steihaug_solve looks its CG stop up when it runs: a stop 1e-3
        # times the rule, patched in, takes more iterations and ends under it.
        mem = random_memory(rng, 25, 4)
        g = rng.standard_normal(25)
        g *= 0.05 / np.linalg.norm(g)
        sp = Subproblem(g=g, delta=1e3)  # solution far inside
        rule = subproblem.steihaug_tolerance
        loose = steihaug_solve(mem, sp)
        monkeypatch.setattr(subproblem, "steihaug_tolerance", lambda gnorm: 1e-3 * rule(gnorm))
        tight = steihaug_solve(mem, sp)
        assert loose.status == tight.status == INTERIOR
        assert tight.inner_iterations > loose.inner_iterations
        residual = np.linalg.norm(mem.multiply(tight.p) + g)
        assert residual <= 1e-3 * rule(np.linalg.norm(g)) * (1.0 + 1e-9)

    def test_zero_gradient(self):
        mem = PairMemory(3)
        result = steihaug_solve(mem, Subproblem(g=np.zeros(3) + 0.0, delta=1.0))
        assert result.status == INTERIOR
        np.testing.assert_array_equal(result.p, np.zeros(3))

    def test_no_product_with_b(self, rng, monkeypatch):
        # CG runs in Gram space: a solve reads the panel twice (P g and
        # P^T x) and never calls the n-space product.
        def refuse(self, v):
            raise AssertionError("steihaug_solve called PairMemory.multiply")

        mem = random_memory(rng, 30, 5)
        monkeypatch.setattr(PairMemory, "multiply", refuse)
        for delta in (1e-2, 1e3):
            result = steihaug_solve(mem, Subproblem(g=rng.standard_normal(30), delta=delta))
            assert result.inner_iterations >= 1

    def test_huge_gradient_reaches_boundary(self):
        mem = random_memory(np.random.default_rng(0), 20, 4)
        g = 1e140 * np.random.default_rng(1).standard_normal(20)
        result = steihaug_solve(mem, Subproblem(g=g, delta=1.0))
        assert result.status == BOUNDARY
        assert np.linalg.norm(result.p) <= 1.0 + subproblem.TAU_MS
        assert 0.0 < result.model_reduction < np.inf


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

    @pytest.mark.parametrize("delta", [0.0, -1.0, np.nan])
    def test_radius_must_be_positive(self, delta):
        with pytest.raises(ValueError, match="delta"):
            dense_reference_solve(np.eye(2), np.ones(2), delta)

    def test_non_spd_rejected(self):
        with pytest.raises(ValueError):
            dense_reference_solve(np.diag([1.0, -1.0]), np.ones(2), 1.0)
        with pytest.raises(ValueError, match="shapes"):
            dense_reference_solve(np.eye(3), np.ones(2), 1.0)
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
        assert report.residual > 1e-6
        assert not report.passed


@pytest.mark.parametrize("scale", [1e-150, 1e-120, 1e-100, 1e-80, 1e80, 1e100, 1e120, 1e150])
def test_extreme_gradient_scales(scale):
    # Both solvers are scale-free: g and delta scaled alike scale p.  mss
    # raised ZeroDivisionError once ||p||^3 underflowed (||p|| < ~1e-108);
    # steihaug's boundary step underflowed to t = 0 below ~1e-80 and
    # overflowed squaring p^T d above ~1e80.
    for seed in range(5):
        rng = np.random.default_rng(seed)
        mem = random_memory(rng, 20, 4)
        g = scale * rng.standard_normal(20)
        for shrink in (0.05, 0.5):
            sp = Subproblem(g=g, delta=shrink * float(np.linalg.norm(mem.inv_multiply(g))))
            result = mss_solve(mem, sp)
            assert result.status == BOUNDARY
            assert check_optimality(mem, result, sp, tol=1e-6).passed
            result = steihaug_solve(mem, sp)
            assert result.status == BOUNDARY
            assert abs(np.linalg.norm(result.p) - sp.delta) <= 1e-10 * sp.delta
            assert result.model_reduction > 0.0


def test_subproblem_validation():
    with pytest.raises(ValueError):
        Subproblem(g=np.ones(3), delta=0.0)
    with pytest.raises(ValueError, match="vector"):
        Subproblem(g=np.ones((3, 1)), delta=1.0)
    with pytest.raises(ValueError):
        Subproblem(g=np.array([1.0, np.inf]), delta=1.0)
    with pytest.raises(ValueError):
        Subproblem(g=np.array([1.0, np.nan]), delta=1.0)


def test_settings_defined_once():
    # mss's default accuracy and steihaug's CG stop, whose values every
    # solver, certificate and check reads from these two names.
    assert subproblem.TAU_MS == math.sqrt(EPS) == MssOptions().tau_ms
    tolerance = subproblem.steihaug_tolerance
    assert tolerance(0.0) == 0.0
    assert tolerance(1.0) == 0.1
    assert tolerance(100.0) == pytest.approx(10.0, rel=1e-15)  # 0.1 ||g||
    assert tolerance(1e-20) == pytest.approx(1e-22, rel=1e-14)  # ||g||^1.1


def test_subproblem_rejects_overflowing_gg():
    # Every entry is finite, but g^T g overflows: the solvers' Gram frames
    # need it finite, and without it steihaug returned "interior" with
    # p = 0 and mss "breakdown" with an infinite p.
    g = 1e155 * np.random.default_rng(1).standard_normal(20)
    with pytest.raises(ValueError, match="g\\^T g"):
        Subproblem(g=g, delta=1.0)
    h = 1e-3 * g
    assert Subproblem(g=h, delta=1.0).gg == float(h @ h)


def test_given_gg_is_used_and_checked():
    g = np.array([3.0, 4.0])
    assert Subproblem(g=g, delta=1.0, gg=25.0).gg == 25.0
    with pytest.raises(ValueError, match="g\\^T g"):
        Subproblem(g=g, delta=1.0, gg=math.inf)


@pytest.mark.parametrize("solve", [mss_solve, steihaug_solve])
def test_tiny_radius_norm_survives_subnormal_squares(solve):
    # Near delta = 1e-159 the squares of p's entries are subnormal, and the
    # plain ||p|| read steihaug's boundary exits up to 1.6e-4 off delta.
    # Every reported p_norm is ||p|| to rounding, and a steihaug boundary
    # exit lies on the sphere.
    rng = np.random.default_rng(7)
    boundary = 0
    for _ in range(400):
        n = int(rng.integers(2, 41))
        mem = random_memory(rng, n, int(rng.integers(1, 6)))
        g = rng.standard_normal(n)
        delta = 10.0 ** -rng.uniform(150, 170)
        result = solve(mem, Subproblem(g=g / np.linalg.norm(g), delta=delta))
        big = float(np.max(np.abs(result.p)))
        if big > 0.0:
            scaled = big * np.linalg.norm(result.p / big)
            assert result.p_norm == pytest.approx(scaled, rel=1e-14, abs=0.0)
        if solve is steihaug_solve and result.status == BOUNDARY:
            boundary += 1
            assert result.p_norm == pytest.approx(delta, rel=1e-12, abs=0.0)
    assert solve is mss_solve or boundary >= 100


@pytest.mark.parametrize("solve", [mss_solve, steihaug_solve])
def test_known_panel_product_is_used_and_checked(rng, solve):
    # A solver given P g uses it in place of its own pass and returns the
    # same step; a product from before an update of the memory is stale.
    mem, sp = boundary_instance(rng, 30, 3)
    direct = solve(mem, sp)
    np.testing.assert_array_equal(direct.pg.u, mem.panel @ sp.g)
    assert direct.pg.error == math.sqrt(sp.gg)  # a direct product's bound is ||g||
    assert direct.p_norm == np.linalg.norm(direct.p)
    given = solve(mem, Subproblem(g=sp.g, delta=sp.delta, pg=direct.pg))
    np.testing.assert_array_equal(given.p, direct.p)
    assert given.pg is direct.pg  # a given product comes back unchanged
    doubled = PanelProduct(2.0 * direct.pg.u, mem.version, direct.pg.error)
    used = solve(mem, Subproblem(g=sp.g, delta=sp.delta, pg=doubled))
    assert used.pg is doubled
    s = rng.standard_normal(30)
    assert mem.try_update(s, 2.0 * s)
    with pytest.raises(ValueError, match="stale"):
        solve(mem, Subproblem(g=sp.g, delta=sp.delta, pg=direct.pg))
    with pytest.raises(ValueError, match="stale"):
        solve(mem, Subproblem(g=sp.g, delta=sp.delta,
                              pg=PanelProduct(np.zeros(2 * mem.m), mem.version - 1, 0.0)))


def test_boundary_step_with_negative_pd_lands_on_sphere():
    # p^T d < 0 takes the (disc - pd) / dd branch, which no test solve reaches.
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 20))
        p, d = rng.standard_normal(n), rng.standard_normal(n)
        if p @ d >= 0.0:
            d = -d
        if p @ d == 0.0:
            continue
        delta = np.linalg.norm(p) * (1.0 + rng.uniform(1e-3, 10.0))
        tau = subproblem._boundary_step(float(p @ p), float(p @ d), float(d @ d), delta)
        assert tau > 0.0
        worst = max(worst, abs(np.linalg.norm(p + tau * d) - delta) / delta)
    assert worst <= 1e-14


def test_wrong_length_vector_rejected_with_its_shape(rng):
    mem = random_memory(rng, 6, 2)
    with pytest.raises(ValueError, match=r"g has shape \(7,\), expected \(6,\)"):
        frame(mem, Subproblem(g=np.ones(7), delta=1.0))
