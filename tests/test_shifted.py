import dataclasses
import math

import numpy as np
import pytest

from trbench import NumericalBreakdownError, PairMemory, Subproblem, apply, mss_solve, prepare
from trbench import subproblem
from trbench.diagnostics import random_memory

from conftest import shifted_solve


def e(i, n):
    v = np.zeros(n)
    v[i] = 1.0
    return v


def identity_pair_memory(n=3):
    mem = PairMemory(n)
    assert mem.try_update(e(0, n), e(0, n))  # gamma = 1, B = I
    return mem


def test_empty_memory_state():
    mem = PairMemory(4)
    state = prepare(mem, 1.0)
    assert (state.rows @ mem.panel).shape == (0, 4)
    assert state.weights.shape == (0,)
    assert state.base == pytest.approx(0.5)
    assert apply(state, np.zeros(0)).shape == (0,)
    np.testing.assert_allclose(shifted_solve(mem, 1.0, e(0, 4)), 0.5 * e(0, 4))


def test_hand_trace_single_pair():
    # s = y = e1, gamma = 1 gives a = b = e1 and B = I, so (B + I)^{-1}
    # halves e1.  Executing the recursion by hand for k = 0, 1:
    #   r0 = e1/2,   v0 = 1/(1 + 1/2)  = 2/3    (even k, b-vector, sign -1)
    #   r1 = e1/3,   v1 = 1/(1 - 1/3)  = 3/2    (odd k, a-vector, sign +1)
    # The operator keeps the signed weights (-1)^{k+1} v_k.
    mem = identity_pair_memory()
    state = prepare(mem, 1.0)
    r = state.rows @ mem.panel
    np.testing.assert_allclose(r[0], 0.5 * e(0, 3))
    assert state.weights[0] == pytest.approx(-2.0 / 3.0)
    np.testing.assert_allclose(r[1], e(0, 3) / 3.0)
    assert state.weights[1] == pytest.approx(1.5)
    np.testing.assert_allclose(shifted_solve(mem, 1.0, e(0, 3)), 0.5 * e(0, 3))


def test_matches_dense_solve(rng):
    mem = random_memory(rng, 20, 5)
    dense = mem.materialize_dense()
    sigma = 0.7
    y = rng.standard_normal(20)
    want = np.linalg.solve(dense + sigma * np.eye(20), y)
    got = shifted_solve(mem, sigma, y)
    assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


def test_huge_shift_dominates(rng):
    mem = random_memory(rng, 8, 3)
    sigma = 1e6
    y = rng.standard_normal(8)
    x = shifted_solve(mem, sigma, y)
    assert np.linalg.norm(x - y / sigma) <= 1e-4 * np.linalg.norm(y / sigma)
    want = np.linalg.solve(mem.materialize_dense() + sigma * np.eye(8), y)
    assert np.linalg.norm(x - want) <= 1e-10 * np.linalg.norm(want)


def test_forward_residual(rng):
    mem = random_memory(rng, 50, 7)
    gamma_inv = 1.0 / mem.gamma
    for sigma in (1e-4 * gamma_inv + 1e-4, 1.0, 100.0):
        for _ in range(3):
            y = rng.standard_normal(50)
            x = shifted_solve(mem, sigma, y)
            residual = mem.multiply(x) + sigma * x - y
            assert np.linalg.norm(residual) <= 1e-9 * np.linalg.norm(y)


def test_residual_does_not_degrade_with_shift(rng):
    mem = random_memory(rng, 30, 6)
    y = rng.standard_normal(30)
    for sigma in (1e-2, 1.0, 1e2, 1e4):
        x = shifted_solve(mem, sigma, y)
        residual = mem.multiply(x) + sigma * x - y
        assert np.linalg.norm(residual) <= 1e-8 * np.linalg.norm(y)


def test_small_shift_continuity(rng):
    # As sigma shrinks, the shifted solution approaches the unshifted one
    # linearly in sigma, so the gap should drop ~10x from 1e-6 to 1e-7.
    mem = random_memory(rng, 15, 4)
    y = rng.standard_normal(15)
    unshifted = mem.inv_multiply(y)
    gaps = {}
    for sigma in (1e-6, 1e-7):
        gaps[sigma] = np.linalg.norm(shifted_solve(mem, sigma, y) - unshifted)
    ratio = gaps[1e-6] / gaps[1e-7]
    assert 3.0 < ratio < 30.0
    kappa = gaps[1e-6] / 1e-6
    assert gaps[1e-7] <= 2.0 * kappa * 1e-7


@pytest.mark.parametrize("sigma", [-1.0, math.nan, math.inf])
def test_negative_shift_rejected(sigma):
    with pytest.raises(ValueError):
        prepare(identity_pair_memory(), sigma)


def test_denominator_guard_trips():
    # Scaling a_0 by sqrt(3) makes the a-term 3 e1 e1^T, all that
    # B0 + b_0 b_0^T + I holds along e1: r_1 = sqrt(3) e1 / 3 and the k = 1
    # denominator 1 - r_1^T a_0 is zero up to rounding (about 1e-16), so
    # the 1e3*eps guard must report breakdown rather than divide.
    mem = identity_pair_memory()
    ab = mem.ab_vectors()
    rows = ab.rows.copy()
    rows[1::2] *= math.sqrt(3.0)  # the a-rows
    mem._ab = dataclasses.replace(ab, rows=rows)
    with pytest.raises(NumericalBreakdownError):
        prepare(mem, 1.0)


def test_oracle_equivalence_sweep(rng):
    for n, m in [(10, 2), (30, 5), (50, 7)]:
        mem = random_memory(rng, n, m)
        dense = mem.materialize_dense()
        y = rng.standard_normal(n)
        for sigma in (0.0, 1e-2, 1.0, 1e2, 1e4):
            want = np.linalg.solve(dense + sigma * np.eye(n), y)
            got = shifted_solve(mem, sigma, y)
            assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)


def test_state_reuse_is_exact(rng):
    # Repeated right-hand sides against one prepared state, as
    # base y + P^T K (P y), must agree with one-shot solves bit for bit.
    mem = random_memory(rng, 12, 4)
    state = prepare(mem, 2.5)
    for _ in range(4):
        y = rng.standard_normal(12)
        np.testing.assert_array_equal(
            state.base * y + mem.panel.T @ apply(state, mem.panel @ y),
            shifted_solve(mem, 2.5, y),
        )


def test_mss_applies_the_kernel_twice_per_newton_step(rng, monkeypatch):
    # The benchmark's tracer counts kernel products through this name: two
    # per Gram iterate, the sigma = 0 start's B^{-1} included.
    calls = []

    def counted(state, v):
        calls.append(v.shape)
        return apply(state, v)

    monkeypatch.setattr(subproblem, "shifted_apply", counted)
    mem = random_memory(rng, 30, 5)
    g = rng.standard_normal(30)
    delta = 0.1 * float(np.linalg.norm(mem.inv_multiply(g)))
    result = mss_solve(mem, Subproblem(g=g, delta=delta))
    assert result.inner_iterations > 0
    assert calls == [(10,)] * (2 * (result.inner_iterations + 1))
