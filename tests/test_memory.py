import math

import numpy as np
import pytest

from trbench import EPS, SQRT_EPS, NumericalBreakdownError, PairMemory, PanelProduct
from trbench.diagnostics import random_memory
from trbench.memory import CARRY_BOUND, GRAM_BLOCK

from conftest import dense_bfgs


def e(i, n):
    v = np.zeros(n)
    v[i] = 1.0
    return v


class TestTryUpdate:
    def test_identity_pair_accepted(self):
        mem = PairMemory(3)
        assert mem.try_update(e(0, 3), e(0, 3))
        assert mem.m == 1
        assert mem.gamma == 1.0

    def test_zero_curvature_rejected(self):
        mem = PairMemory(3)
        assert not mem.try_update(e(0, 3), np.zeros(3))
        assert mem.m == 0

    def test_upper_curvature_bound_rejected(self):
        mem = PairMemory(3)
        s = (2.0 / SQRT_EPS) * e(0, 3)
        assert not mem.try_update(s, e(0, 3))
        assert mem.m == 0

    def test_nan_rejected(self):
        mem = PairMemory(2)
        assert not mem.try_update(np.array([np.nan, 0.0]), np.ones(2))

    def test_dimension_mismatch(self):
        mem = PairMemory(3)
        with pytest.raises(ValueError):
            mem.try_update(np.ones(2), np.ones(3))
        with pytest.raises(ValueError):
            mem.try_update(np.ones(3), np.ones(4))

    def test_overflowing_gram_entry_rejected(self, rng):
        # Each pair passes the gate but overflows one squared norm:
        # s^T y = 4.8e4 with y^T y = inf, then s^T y = 1 with
        # s^T s = 1e320.  Both are refused before the Gram column pass
        # writes a block of the oldest slot of the full memory, so G never
        # holds inf.
        mem = random_memory(rng, 4, 2)
        before = (mem.m, mem.version, mem.gamma)
        panel, gram = mem.panel.copy(), mem.gram.copy()
        g = 6e153 * np.ones(4)
        assert math.isfinite(float(g @ g))
        for s, y in [(-1e-150 * np.ones(4), -g - g), (1e160 * e(0, 4), 1e-160 * e(0, 4))]:
            assert not mem.try_update(s, y)
            assert (mem.m, mem.version, mem.gamma) == before
            np.testing.assert_array_equal(mem.panel, panel)
            np.testing.assert_array_equal(mem.gram, gram)

    def test_gamma_thresholded_from_below(self):
        mem = PairMemory(2)
        # s^T y passes the gate but y is huge, so the raw ratio is tiny.
        s = np.array([1e-4, 0.0])
        y = np.array([1e4, 0.0])
        assert mem.try_update(s, y)
        assert mem.gamma == SQRT_EPS

    def test_eviction_keeps_last_m_in_order(self, rng):
        capacity = 3
        mem = PairMemory(4, capacity=capacity)
        offered = []
        for k in range(capacity + 4):
            s = rng.standard_normal(4)
            y = s + 0.1 * rng.standard_normal(4)
            if mem.try_update(s, y):
                offered.append((s, y))
        assert mem.m == capacity
        for (s_kept, y_kept), (s_want, y_want) in zip(mem.pairs, offered[-capacity:]):
            np.testing.assert_array_equal(s_kept, s_want)
            np.testing.assert_array_equal(y_kept, y_want)

    def test_rejected_update_leaves_outputs_bit_identical(self, rng):
        mem = random_memory(rng, 8, 3)
        z = rng.standard_normal(8)
        before_inv = mem.inv_multiply(z)
        before_mul = mem.multiply(z)
        before_gamma = mem.gamma
        assert not mem.try_update(np.ones(8), np.zeros(8))
        np.testing.assert_array_equal(mem.inv_multiply(z), before_inv)
        np.testing.assert_array_equal(mem.multiply(z), before_mul)
        assert mem.gamma == before_gamma


class TestGamma:
    def test_empty_memory_defaults_to_one(self):
        assert PairMemory(5).gamma == 1.0

    def test_ratio_from_newest_pair(self):
        mem = PairMemory(3)
        y = np.array([1.0, 1.0, 0.0])
        assert mem.try_update(2.0 * y, y)  # s^T y / ||y||^2 = 2
        assert mem.gamma == pytest.approx(2.0, rel=1e-15)

    def test_orthogonal_pair_unreachable(self):
        # s = e1, y = e2 would give gamma = 0, but the gate rejects it first.
        mem = PairMemory(2)
        assert not mem.try_update(e(0, 2), e(1, 2))
        assert mem.gamma == 1.0


class TestProducts:
    def test_inv_multiply_scales_by_gamma_when_empty(self):
        mem = PairMemory(3)
        mem._gamma = 2.0  # empty memory with a nondefault base scale
        np.testing.assert_allclose(mem.inv_multiply(e(0, 3)), 2.0 * e(0, 3))

    def test_multiply_scales_by_inverse_gamma_when_empty(self):
        mem = PairMemory(3)
        mem._gamma = 0.5
        np.testing.assert_allclose(mem.multiply(e(0, 3)), 2.0 * e(0, 3))

    def test_inv_multiply_matches_dense_lu(self, rng):
        mem = random_memory(rng, 20, 5)
        dense = mem.materialize_dense()
        z = rng.standard_normal(20)
        want = np.linalg.solve(dense, z)
        got = mem.inv_multiply(z)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_multiply_matches_dense(self, rng):
        mem = random_memory(rng, 20, 5)
        dense = mem.materialize_dense()
        v = rng.standard_normal(20)
        want = dense @ v
        assert np.linalg.norm(mem.multiply(v) - want) <= 1e-10 * np.linalg.norm(want)

    def test_round_trip_identity(self, rng):
        for n, m in [(10, 3), (50, 5), (100, 7)]:
            mem = random_memory(rng, n, m)
            v = rng.standard_normal(n)
            back = mem.inv_multiply(mem.multiply(v))
            assert np.linalg.norm(back - v) <= 1e-9 * np.linalg.norm(v)

    def test_positive_definiteness_probe(self, rng):
        mem = random_memory(rng, 20, 5)
        for _ in range(100):
            v = rng.standard_normal(20)
            assert float(v @ mem.multiply(v)) > 0.0

    def test_dimension_mismatch(self, rng):
        mem = random_memory(rng, 5, 2)
        with pytest.raises(ValueError):
            mem.multiply(np.ones(4))
        with pytest.raises(ValueError):
            mem.inv_multiply(np.ones(6))


class TestAbVectors:
    def test_single_identity_pair(self):
        mem = PairMemory(3)
        mem.try_update(e(0, 3), e(0, 3))
        ab = mem.ab_vectors()
        np.testing.assert_allclose(ab.rows[1] @ mem.panel, e(0, 3))  # a_0
        np.testing.assert_allclose(ab.rows[0] @ mem.panel, e(0, 3))  # b_0

    def test_matches_recursive_bfgs_oracle(self, rng):
        # The oracle runs the recursion in extended precision where the
        # platform has it, so it is not the float64 code of materialize_dense.
        mem = random_memory(rng, 10, 2)
        want, _ = dense_bfgs(mem.pairs, mem.gamma, 10)
        got = mem.materialize_dense()
        assert float(np.linalg.norm(got - want)) <= 1e-12 * float(np.linalg.norm(want))

    def test_b_norm_identity(self, rng):
        mem = random_memory(rng, 12, 4)
        ab = mem.ab_vectors()
        b = ab.rows[0::2] @ mem.panel
        for i, (s, y) in enumerate(mem.pairs):
            want = float(y @ y) / float(y @ s)
            assert float(b[i] @ b[i]) == pytest.approx(want, rel=1e-12)

    def test_lengths_match_pair_count(self, rng):
        mem = random_memory(rng, 6, 4)
        ab = mem.ab_vectors()
        assert mem.m == 4
        assert ab.rows.shape == (8, 8)  # 2m terms over 2m panel rows
        assert ab.weights.shape == (8,)
        assert (ab.rows @ mem.panel).shape == (8, 6)

    def test_cache_invalidated_by_update(self, rng):
        mem = random_memory(rng, 6, 2)
        first, first_inv = mem.ab_vectors(), mem.inverse_operator()
        assert mem.ab_vectors() is first  # cached while unchanged
        assert mem.inverse_operator() is first_inv
        s = rng.standard_normal(6)
        assert mem.try_update(s, s)
        assert mem.ab_vectors() is not first
        inv = mem.inverse_operator()
        assert inv is not first_inv
        assert not mem.try_update(s, -s)  # rejected: the memory is unchanged
        assert mem.inverse_operator() is inv

    def test_breakdown_surfaces_as_error(self):
        # Valid pairs cannot produce s^T B s <= 0, nor the inverse update's
        # alpha = rho (1 + rho y^T H y) <= 0, exactly, so corrupt the base
        # scale to exercise the guard on each: at gamma = -1 with the pair
        # (e_0, e_0), s^T B s = -1 and alpha = 0.
        mem = PairMemory(2)
        assert mem.try_update(e(0, 2), e(0, 2))
        mem._gamma = -1.0
        mem._ab = mem._inv = None
        for factor in (mem.ab_vectors, mem.inverse_operator):
            with pytest.raises(NumericalBreakdownError):
                factor()


class TestMaterializeDense:
    def test_empty_memory_is_identity(self):
        mem = PairMemory(3)
        np.testing.assert_array_equal(mem.materialize_dense(), np.eye(3))

    def test_exactly_symmetric(self, rng):
        mem = random_memory(rng, 15, 5)
        dense = mem.materialize_dense()
        assert np.linalg.norm(dense - dense.T) == 0.0

    def test_eigenvalues_positive(self, rng):
        mem = random_memory(rng, 30, 5)
        assert np.linalg.eigvalsh(mem.materialize_dense())[0] > 0.0


def test_stored_pairs_respect_curvature_gate(rng):
    mem = random_memory(rng, 10, 6, capacity=6)
    for s, y in mem.pairs:
        assert SQRT_EPS < float(s @ y) < 1.0 / SQRT_EPS
    assert mem.gamma >= SQRT_EPS


def test_oracle_equivalence_sweep(rng):
    # multiply / inv_multiply vs the dense matrix and its LU solve.
    for n, m in [(10, 1), (30, 4), (50, 7)]:
        mem = random_memory(rng, n, m)
        dense = mem.materialize_dense()
        for _ in range(5):
            z = rng.standard_normal(n)
            fwd = mem.multiply(z)
            assert np.linalg.norm(fwd - dense @ z) <= 1e-10 * np.linalg.norm(fwd)
            inv = mem.inv_multiply(z)
            want = np.linalg.solve(dense, z)
            assert np.linalg.norm(inv - want) <= 1e-10 * np.linalg.norm(want)


def test_panel_and_gram_are_read_only(rng):
    # The cached factors too: a write would change B at that version.
    mem = random_memory(rng, 6, 2)
    ab = mem.ab_vectors()
    assert mem.panel.shape == (4, 6)
    assert mem.gram.shape == (4, 4)
    inv = mem.inverse_operator()
    assert inv.rows.shape == (4, 4)
    for array in (mem.panel, mem.gram, ab.rows, ab.weights, inv.rows, inv.weights):
        with pytest.raises(ValueError):
            array[0] = 5.0


@pytest.mark.parametrize("capacity", [3, 1])
def test_gram_column_pass_spans_blocks_through_wrap_around(rng, capacity):
    # n = 2 GRAM_BLOCK + 3: the column pass takes two full blocks and a
    # partial one, and 7 pairs into capacity 3 wrap the ring twice.  At
    # capacity 1 every update stores a lone pair, skips the pass and wraps.
    n = 2 * GRAM_BLOCK + 3
    mem = PairMemory(n, capacity=capacity)
    # Any summation order of a length-n dot product lies within
    # gamma_n |p_i|.|p_j| of the exact value (Higham 2002, eq. 3.5), so
    # two such orders differ by at most twice that.
    gamma_n = n * EPS / (1.0 - n * EPS)
    for count in range(7):
        s = rng.standard_normal(n)
        y = s + 0.1 * rng.standard_normal(n)
        assert mem.try_update(s, y)
        gram, panel = mem.gram, mem.panel
        np.testing.assert_array_equal(gram, gram.T)
        rows = slice(2 * (count % capacity), 2 * (count % capacity) + 2)
        np.testing.assert_array_equal(gram[rows, rows], [[s @ s, s @ y], [s @ y, y @ y]])
        bound = 2.0 * gamma_n * (np.abs(panel) @ np.abs(panel).T)
        np.testing.assert_array_less(np.abs(gram - panel @ panel.T), bound)
    assert mem.m == capacity


@pytest.mark.parametrize("capacity", [3, 1])
def test_carry_matches_direct_product_through_wrap_around(rng, capacity):
    # 5 updates: the memory grows, fills and then wraps (from the second
    # update on at capacity 1, where no Gram column pass runs).
    n = 12
    mem = PairMemory(n, capacity=capacity)
    for _ in range(5):
        g = rng.standard_normal(n)
        s = rng.standard_normal(n)
        y = rng.uniform(0.5, 2.0, n) * s
        pg = PanelProduct(mem.panel @ g, mem.version, float(np.linalg.norm(g)))
        assert mem.try_update(s, y)
        moved = mem.carry(pg, g, float(np.linalg.norm(g + y)))
        assert moved.version == mem.version
        scale = np.linalg.norm(mem.panel, axis=1) * (np.linalg.norm(g) + np.linalg.norm(y))
        np.testing.assert_array_less(np.abs(moved.u - mem.panel @ (g + y)), 4 * n * EPS * scale)
    assert mem.m == capacity


def test_carry_rejects_a_product_not_one_update_old(rng):
    mem = random_memory(rng, 6, 2)
    g = rng.standard_normal(6)
    gnorm = float(np.linalg.norm(g))
    current = PanelProduct(mem.panel @ g, mem.version, gnorm)
    with pytest.raises(ValueError):
        mem.carry(current, g, gnorm)  # no update since: nothing to carry across
    s = rng.standard_normal(6)
    assert mem.try_update(s, 2.0 * s)
    assert mem.try_update(s, 3.0 * s)
    with pytest.raises(ValueError):
        mem.carry(current, g, gnorm)  # two updates old


def test_carry_refuses_past_its_bound(rng):
    # carry adds ||y|| + ||g_trial|| to the product's bound, with ||y||
    # read from G's diagonal; a sum past CARRY_BOUND ||g_trial|| returns
    # None, forms nothing and leaves the memory as it was.
    n = 6
    mem = random_memory(rng, n, 2)
    g = rng.standard_normal(n)
    u, before = mem.panel @ g, mem.version
    assert mem.try_update(e(0, n), 2.0 * e(0, n))  # ||y|| = 2 exactly
    panel, gram, version = mem.panel.copy(), mem.gram.copy(), mem.version
    gnorm_trial = 1.0
    at_bound = CARRY_BOUND * gnorm_trial - (2.0 + gnorm_trial)
    kept = mem.carry(PanelProduct(u, before, at_bound), g, gnorm_trial)
    assert kept.error == CARRY_BOUND * gnorm_trial
    assert mem.carry(PanelProduct(u, before, at_bound + 1.0), g, gnorm_trial) is None
    assert mem.version == version
    np.testing.assert_array_equal(mem.panel, panel)
    np.testing.assert_array_equal(mem.gram, gram)


def test_sizes_must_be_positive():
    with pytest.raises(ValueError, match="dimension"):
        PairMemory(0)
    with pytest.raises(ValueError, match="capacity"):
        PairMemory(3, capacity=0)
    # Sizes are integers: a bool or a float is refused by name, not
    # taken as 1 or left to fail inside numpy.
    for n, capacity, name in [(4.0, 2, "dimension"), (True, 2, "dimension"),
                              (4, 2.5, "capacity"), (4, True, "capacity")]:
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            PairMemory(n, capacity)
    mem = PairMemory(np.int64(4), np.int64(3))
    assert (mem.n, mem.capacity) == (4, 3)
