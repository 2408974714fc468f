"""Property tests: the compact-panel kernels against dense oracles.

Every memory here is built by offering pairs one at a time, and the
oracle is the recursive dense BFGS update over the pairs the memory
reports, so the checks cover ring wrap-around and gate rejections as well
as the algebra.  Shifted solves run on the Gram path mss runs
(``shifted_solve`` in ``conftest.py``).  The Gram-space Newton iterates
of mss are checked against their n-space norms, steihaug's Gram-space CG
against a plain n-space CG and the dense model, the driver against
non-finite evaluations and the CSV schema against awkward records.
Examples are derandomized so the suite is repeatable.
"""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from trbench import (
    BOUNDARY,
    BREAKDOWN,
    CONVERGED,
    EPS,
    FE_BUDGET_EXHAUSTED,
    INTERIOR,
    MAX_ITERATIONS,
    PROBLEM_NAMES,
    RADIUS_TOO_SMALL,
    SQRT_EPS,
    NumericalBreakdownError,
    PairMemory,
    ProblemInstance,
    RunRecord,
    Subproblem,
    TrConfig,
    check_optimality,
    frame,
    gram_iterate,
    make,
    minimize,
    mss_solve,
    read_csv,
    steihaug_solve,
    subproblem,
    write_csv,
)
from trbench import driver
from trbench.bench import ERROR
from trbench.driver import SOLVERS
from trbench.memory import CARRY_BOUND

from conftest import dense_bfgs, shifted_solve

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

# B is a sum of terms (B0 and the rank-one updates) that may cancel, and
# the kernels round at the size of the largest term, the ``scale`` that
# ``dense_bfgs`` (``conftest.py``) returns; the
# term a_i a_i^T = B_i s_i s_i^T B_i / (s_i^T B_i s_i) is formed from B_i s_i,
# whose rounding error ||B_i|| ||s_i|| eps is amplified by
# ||B_i s_i|| / (s_i^T B_i s_i).  Forward products are therefore compared
# relative to scale ||v||, and solves with A = B or B + sigma I relative
# to ||A^{-1}|| (scale + sigma) ||x||, for every sigma >= 0 down to zero:
# the shifted recursion folds each b_i before its a_i, so every matrix it
# passes through is an SPD L-BFGS partial sum plus sigma I.  That bound is
# not a property of the recursion at every gamma: with gamma large (a
# newest pair of tiny curvature near the lower gate) its error grows
# roughly like cond(A)^2 eps and breaks the bound at small sigma, which is
# why the lower gate edge below is only checked at sigma >= 1e-2.  The
# tolerance allows a few thousand rounding errors, far below what a wrong
# kernel produces.
TOL = 1e-12

seeds = st.integers(0, 2**32 - 1)


def spd_matrix(rng, n, lo=1e-2, hi=1e2):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.exp(rng.uniform(math.log(lo), math.log(hi), n))
    return (q * lam) @ q.T


def rejected_pair(rng, n, kind):
    """A pair the curvature gate must refuse."""
    s = rng.standard_normal(n)
    if kind == 0:
        return s, -s  # negative curvature
    if kind == 1:
        return s, np.zeros(n)  # zero curvature
    if kind == 2:
        return s, np.full(n, np.nan)  # non-finite
    return s, (2.0 / (SQRT_EPS * float(s @ s))) * s  # s^T y above 1/sqrt(eps)


def assert_products_match(mem, rng, sigmas=(), tol=TOL):
    """multiply, inv_multiply and shifted solves agree with the dense oracle."""
    n = mem.n
    exact, scale = dense_bfgs(mem.pairs, mem.gamma, n)
    v = rng.standard_normal(n)
    error = (mem.multiply(v) - exact @ v).astype(float)
    assert np.linalg.norm(error) <= tol * scale * np.linalg.norm(v)

    dense = exact.astype(float)
    want = np.linalg.solve(dense, v)
    kappa = np.linalg.norm(np.linalg.inv(dense), 2) * scale
    assert np.linalg.norm(mem.inv_multiply(v) - want) <= tol * kappa * np.linalg.norm(want)

    for sigma in sigmas:
        shifted = dense + sigma * np.eye(n)
        want = np.linalg.solve(shifted, v)
        kappa = np.linalg.norm(np.linalg.inv(shifted), 2) * (scale + sigma)
        got = shifted_solve(mem, sigma, v)
        assert np.linalg.norm(got - want) <= tol * kappa * np.linalg.norm(want)


@PROPERTY
@given(
    seed=seeds,
    n=st.integers(2, 12),
    capacity=st.integers(1, 4),
    extra=st.integers(1, 6),
    reject_every=st.integers(2, 5),
)
def test_ring_wraparound_with_rejections(seed, n, capacity, extra, reject_every):
    rng = np.random.default_rng(seed)
    h = spd_matrix(rng, n)
    mem = PairMemory(n, capacity)
    accepted = []
    offers = 3 * capacity + extra
    for k in range(offers):
        if k % reject_every == reject_every - 1:
            version = mem.version
            assert not mem.try_update(*rejected_pair(rng, n, k % 4))
            assert mem.version == version
        s = rng.standard_normal(n) * 10.0 ** rng.uniform(-2, 1)
        assert mem.try_update(s, h @ s)
        accepted.append((s, h @ s))
    assert mem.m == capacity
    for (s_got, y_got), (s_want, y_want) in zip(mem.pairs, accepted[-capacity:]):
        np.testing.assert_array_equal(s_got, s_want)
        np.testing.assert_array_equal(y_got, y_want)

    panel = mem.panel
    fresh = panel @ panel.T
    assert np.abs(mem.gram - fresh).max() <= 1e-13 * np.abs(fresh).max()
    np.testing.assert_array_equal(mem.gram, mem.gram.T)

    sigmas = [0.0, 1e-14] + [10.0 ** rng.uniform(-3, 3) for _ in range(2)]
    assert_products_match(mem, rng, sigmas)


@PROPERTY
@given(seed=seeds, n=st.integers(2, 10), scale=st.floats(1e4, 1e6))
def test_gamma_at_floor(seed, n, scale):
    # s^T y = 1 passes the gate, while ||y||^2 = scale^2 >= 1e8 drives
    # s^T y / ||y||^2 under sqrt(eps) for every drawn scale.
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(n)
    u /= np.linalg.norm(u)
    mem = PairMemory(n, 3)
    for _ in range(2):
        s = rng.standard_normal(n)
        assert mem.try_update(s, spd_matrix(rng, n, 0.5, 2.0) @ s)
    assert mem.try_update(u / scale, scale * u)
    assert mem.gamma == SQRT_EPS
    assert_products_match(mem, rng, sigmas=(0.0, 1e-14, 1.0, 1e4))


@PROPERTY
@given(seed=seeds, n=st.integers(2, 10), m=st.integers(1, 4))
def test_tiny_shifts(seed, n, m):
    # Zero, 1e-300 and gamma*sigma at or under eps: with each b_i folded
    # before its a_i no intermediate matrix of the recursion is singular
    # at sigma = 0, so these shifts need no floor and solve as accurately
    # as any other.
    rng = np.random.default_rng(seed)
    h = spd_matrix(rng, n)
    mem = PairMemory(n, m)
    while mem.m < m:
        s = rng.standard_normal(n)
        mem.try_update(s, h @ s)
    gamma = mem.gamma
    assert_products_match(mem, rng, sigmas=(0.0, 1e-300, EPS / gamma, EPS / (2.0 * gamma)))


@PROPERTY
@given(seed=seeds, n=st.integers(2, 10), upper=st.booleans())
def test_curvature_gate_edges(seed, n, upper):
    # With s = e_0 and y = t e_0 the product s^T y is exactly t, so the
    # pair sits on the gate to the last bit; it also sets gamma = 1/t,
    # the extreme base scale at each edge.
    rng = np.random.default_rng(seed)
    mem = PairMemory(n, 3)
    for _ in range(2):
        s = rng.standard_normal(n)
        assert mem.try_update(s, spd_matrix(rng, n, 0.5, 2.0) @ s)
    edge = 1.0 / SQRT_EPS if upper else SQRT_EPS
    s = np.zeros(n)
    s[0] = 1.0

    version = mem.version
    assert not mem.try_update(s, edge * s)
    assert mem.version == version

    inside = np.nextafter(edge, 1.0)
    assert mem.try_update(s, inside * s)
    assert mem.pairs[-1][1][0] == inside
    assert_products_match(mem, rng, sigmas=(1e-2, 1.0, 1e2))


@PROPERTY
@given(
    seed=seeds,
    n=st.integers(3, 10),
    log_eps=st.floats(-16.0, -4.0),
    consistent=st.booleans(),
    sigma=st.sampled_from([0.0, 1e-14, 1e-6, 1e-2, 1.0, 1e2]),
)
def test_near_collinear_pairs_raise_or_match(seed, n, log_eps, consistent, sigma):
    # A second step within 10^log_eps of the first (down to identical
    # bits), with curvature from the same quadratic or a conflicting one:
    # the panel is nearly rank-deficient, and the kernels must either
    # raise the named breakdown or still agree with the dense oracle.
    rng = np.random.default_rng(seed)
    h = spd_matrix(rng, n)
    h2 = h if consistent else spd_matrix(rng, n)
    s = rng.standard_normal(n)
    mem = PairMemory(n, 3)
    assert mem.try_update(s, h @ s)
    s2 = s + 10.0**log_eps * rng.standard_normal(n)
    assert mem.try_update(s2, h2 @ s2)
    try:
        assert_products_match(mem, rng, sigmas=(sigma,))
    except NumericalBreakdownError:
        pass


@PROPERTY
@given(
    name=st.sampled_from(PROBLEM_NAMES),
    solver=st.sampled_from(SOLVERS),
    period=st.integers(1, 4),
    in_f=st.booleans(),
    bad=st.sampled_from([math.nan, math.inf, -math.inf]),
    entry=st.integers(0, 19),
)
def test_nonfinite_evaluations_never_raise(name, solver, period, in_f, bad, entry):
    # Every period-th trial evaluation reports a non-finite f or gradient
    # entry (never the one at x0, which raises: see test_driver.py's
    # test_nonfinite_start_raises_after_one_evaluation).  The driver must
    # reject those trials and end with one of its own statuses at a finite
    # iterate.
    problem = make(name, 20)
    calls = 0

    def evaluate(x):
        nonlocal calls
        calls += 1
        f, g = problem.eval(x)
        g = np.array(g, dtype=float)
        if calls > 1 and (calls - 1) % period == 0:
            if in_f:
                f = bad
            else:
                g[entry] = bad
        return f, g

    faulty = ProblemInstance(name=name, n=20, eval=evaluate, x0=problem.x0)
    result = minimize(faulty, TrConfig(solver=solver))
    assert result.status in (CONVERGED, RADIUS_TOO_SMALL, FE_BUDGET_EXHAUSTED)
    assert math.isfinite(result.f_final)
    assert math.isfinite(result.gnorm_final)
    assert np.all(np.isfinite(result.x_final))


@PROPERTY
@given(
    name=st.sampled_from(PROBLEM_NAMES),
    n=st.sampled_from([4, 8, 20, 40]),
    memory=st.integers(1, 6),
    solver=st.sampled_from(SOLVERS),
)
def test_carried_panel_product_within_its_bound(name, n, memory, solver):
    # At every solve of a run, a P g the driver carried matches the direct
    # product to the rounding bound the carry keeps: each entry of a
    # length-n product of a panel row r with a vector v rounds by at most
    # c eps ||r|| ||v|| with c = n.  PairMemory.carry carries while the
    # bound, in units of c eps ||r||, is at most CARRY_BOUND ||g||; the
    # direct product compared against adds one ||g|| more.
    solve = getattr(driver, f"{solver}_solve")

    def checked(mem, sp):
        if sp.pg is not None and mem.m:
            rows = np.linalg.norm(mem.panel, axis=1)
            bound = n * EPS * (CARRY_BOUND + 1.0) * float(np.linalg.norm(sp.g)) * rows
            assert np.all(np.abs(sp.pg.u - mem.panel @ sp.g) <= bound)
        return solve(mem, sp)

    with mock.patch.object(driver, f"{solver}_solve", checked):
        result = minimize(make(name, n), TrConfig(memory=memory, solver=solver))
    assert result.status in (CONVERGED, RADIUS_TOO_SMALL, FE_BUDGET_EXHAUSTED)


FAMILIES = ("random", "near_collinear", "gamma_floor", "gate_edge")


def family_memory(rng, n, family):
    """A memory from one of four families that stress the kernels.

    random: 1-7 pairs y = H s; near_collinear: two steps 1e-12..1e-4 apart
    with conflicting curvature; gamma_floor: y = H s with eig H in
    [1, 1e9] and ||s|| ~ 1e-3, which drives gamma towards its floor;
    gate_edge: two pairs y = H s, eig H in [0.5, 2], then s = e_0 and
    y = e_0 / 6.2e7, just inside the lower curvature gate.
    """
    if family == "random":
        h = spd_matrix(rng, n)
        mem = PairMemory(n, int(rng.integers(1, 8)))
        while mem.m < mem.capacity:
            s = rng.standard_normal(n)
            assert mem.try_update(s, h @ s)
    elif family == "near_collinear":
        mem = PairMemory(n, 3)
        s = rng.standard_normal(n)
        assert mem.try_update(s, spd_matrix(rng, n) @ s)
        s = s + 10.0 ** rng.uniform(-12, -4) * rng.standard_normal(n)
        assert mem.try_update(s, spd_matrix(rng, n) @ s)
    elif family == "gamma_floor":
        h = spd_matrix(rng, n, 1.0, 1e9)
        mem = PairMemory(n, 3)
        while mem.m < 3:
            s = 1e-3 * rng.standard_normal(n) / math.sqrt(n)
            assert mem.try_update(s, h @ s)
    else:
        mem = PairMemory(n, 3)
        for _ in range(2):
            s = rng.standard_normal(n)
            assert mem.try_update(s, spd_matrix(rng, n, 0.5, 2.0) @ s)
        s = np.zeros(n)
        s[0] = 1.0
        assert mem.try_update(s, s / 6.2e7)
    return mem


@PROPERTY
@given(
    seed=seeds,
    n=st.integers(2, 12),
    family=st.sampled_from(FAMILIES),
    sigma=st.sampled_from([0.0, 1e-14, 1e-8, 1e-4, 1.0, 1e3]),
)
def test_gram_iterate_matches_n_space(seed, n, family, sigma):
    # ||p|| and p^T (B + sigma I)^{-1} p read from the Gram matrix must
    # equal their values in n-space: from inv_multiply's products (B^{-1})
    # at sigma = 0, and otherwise from the p that frame_step forms and a
    # second Gram solve against that p.  Both sides use the same kernels,
    # so only the order of operations differs,
    # except that p = x[0] g + P^T x[1:] may cancel: by a factor kappa in
    # n-space, and by kappa^2 once the sum is squared out in Gram space.
    # kappa stays under 4 on every family but the gate edge with n <= 2m,
    # where the panel spans g and gamma ~ 6e7; there it reached 70, with
    # errors up to 8 kappa^2 eps (5.4e-12) against 2e-14 in n-space.
    rng = np.random.default_rng(seed)
    mem = family_memory(rng, n, family)
    g = rng.standard_normal(n)
    try:
        it = gram_iterate(mem, frame(mem, Subproblem(g=g, delta=1.0)), sigma)
    except NumericalBreakdownError:
        return  # the named breakdown of a nearly rank-deficient panel
    if sigma == 0.0:
        p = -mem.inv_multiply(g)
        curvature = float(p @ mem.inv_multiply(p))
    else:
        p = -shifted_solve(mem, sigma, g)
        curvature = float(p @ shifted_solve(mem, sigma, p))
    p_norm = float(np.linalg.norm(p))
    kappa = (abs(it.x[0]) * np.linalg.norm(g) + np.linalg.norm(mem.panel.T @ it.x[1:])) / p_norm
    tol = 1e-12 * kappa**2
    assert abs(it.p_norm - p_norm) <= tol * p_norm
    assert abs(it.curvature - curvature) <= tol * curvature


@PROPERTY
@given(
    seed=seeds,
    n=st.integers(2, 12),
    family=st.sampled_from(FAMILIES),
    shrink=st.floats(0.05, 0.95),
)
def test_mss_boundary_step_is_the_recursion_solve(seed, n, family, shrink):
    # A boundary exit returns the recursion's own solve at the returned
    # sigma, though the Newton loop never formed p before the exit.
    rng = np.random.default_rng(seed)
    mem = family_memory(rng, n, family)
    g = rng.standard_normal(n)
    try:
        delta = shrink * float(np.linalg.norm(mem.inv_multiply(g)))
        result = mss_solve(mem, Subproblem(g=g, delta=delta))
    except NumericalBreakdownError:
        return
    if result.status == BOUNDARY:
        want = shifted_solve(mem, result.sigma, -g)
        assert np.linalg.norm(result.p - want) <= 1e-12 * np.linalg.norm(want)


@PROPERTY
@given(
    seed=seeds,
    n=st.integers(2, 12),
    family=st.sampled_from(("random", "near_collinear", "gamma_floor")),
    shrink=st.floats(0.01, 0.99),
)
def test_mss_reaches_boundary_at_small_n(seed, n, family, shrink):
    # Newton in sigma needs a handful of steps whatever n is, so a radius
    # inside ||B^{-1} g|| ends on the boundary, certified, even at n = 2:
    # a cap of min(n, 100) Newton steps stopped some of these solves short.
    rng = np.random.default_rng(seed)
    mem = family_memory(rng, n, family)
    g = rng.standard_normal(n)
    sp = Subproblem(g=g, delta=shrink * float(np.linalg.norm(mem.inv_multiply(g))))
    result = mss_solve(mem, sp)
    assert result.status == BOUNDARY
    assert check_optimality(mem, result, sp, tol=1e-6).passed


def n_space_cg(mem, g, delta):
    """Steihaug-Toint CG on n-length vectors, one product with B per step.

    The oracle for :func:`steihaug_solve`: same stopping rules, written
    with plain vectors, ``mem.multiply`` and n-space norms.
    """
    gnorm = float(np.linalg.norm(g))
    tolerance = subproblem.steihaug_tolerance(gnorm)
    p, r = np.zeros(mem.n), g.copy()
    rr = float(r @ r)
    if math.sqrt(rr) <= tolerance:
        return p, INTERIOR, 0
    d = -g
    for iterations in range(1, min(mem.n, subproblem.STEIHAUG_MAX_ITERATIONS) + 1):
        bd = mem.multiply(d)
        curvature = float(d @ bd)
        alpha = rr / curvature
        if np.linalg.norm(p + alpha * d) > delta:
            pd, dd = float(p @ d), float(d @ d)
            t = (-pd + math.sqrt(pd**2 + dd * (delta**2 - float(p @ p)))) / dd
            return p + t * d, BOUNDARY, iterations
        p, r = p + alpha * d, r + alpha * bd
        rr, rr_old = float(r @ r), rr
        if math.sqrt(rr) <= tolerance:
            return p, INTERIOR, iterations
        d = -r + (rr / rr_old) * d
    return p, MAX_ITERATIONS, iterations


@PROPERTY
@given(
    seed=seeds,
    n=st.integers(2, 40),
    family=st.sampled_from(FAMILIES),
    shrink=st.sampled_from([0.1, 0.7, 5.0]),
)
def test_steihaug_matches_n_space_cg_and_dense_model(seed, n, family, shrink):
    # The Gram-space CG takes the n-space CG's path (same status and
    # iteration count), stays in the region, ends on the sphere when it
    # says so, reports the dense model's reduction, and its reduction
    # never falls as the iteration cap grows.  The model is compared on
    # the rounding scale ||g|| ||p|| + scale ||p||^2 of its two terms,
    # times kappa^2 for the cancellation in p = x[0] g + P^T x[1:], which
    # Gram-space inner products square as in
    # test_gram_iterate_matches_n_space.  kappa stays under 5 when
    # n >= 2m + 1, where the worst error measured was 1.7 eps on that
    # scale, as for the n-space CG.  On rank-deficient frames (n < 2m + 1)
    # the coordinates may grow (kappa up to 4e5) while p does not; the
    # worst there was 96 kappa^2 eps.
    rng = np.random.default_rng(seed)
    mem = family_memory(rng, n, family)
    g = rng.standard_normal(n)
    try:
        sp = Subproblem(g=g, delta=shrink * float(np.linalg.norm(mem.inv_multiply(g))))
        # The exit's one frame_step call forms p from the CG coordinates x.
        with mock.patch.object(subproblem, "frame_step", wraps=subproblem.frame_step) as step:
            result = steihaug_solve(mem, sp)
    except NumericalBreakdownError:
        return
    p = result.p
    want_p, want_status, want_iterations = n_space_cg(mem, g, sp.delta)
    assert (result.status, result.inner_iterations) == (want_status, want_iterations)
    p_norm = float(np.linalg.norm(p))
    assert p_norm <= sp.delta * (1.0 + subproblem.TAU_MS)

    exact, scale = dense_bfgs(mem.pairs, mem.gamma, n)
    wide = p.astype(np.longdouble)
    model = -float(g.astype(np.longdouble) @ wide + 0.5 * (wide @ exact @ wide))
    x = step.call_args.args[2]
    kappa = (abs(x[0]) * np.linalg.norm(g) + np.linalg.norm(mem.panel.T @ x[1:])) / p_norm
    bound = TOL * kappa**2 * (np.linalg.norm(g) * p_norm + scale * p_norm**2)
    assert abs(result.model_reduction - model) <= bound
    if result.status == BOUNDARY:
        assert abs(p_norm - sp.delta) <= TOL * kappa**2 * sp.delta

    reductions = []
    for cap in range(1, result.inner_iterations + 1):
        with mock.patch.object(subproblem, "STEIHAUG_MAX_ITERATIONS", cap):
            reductions.append(steihaug_solve(mem, sp).model_reduction)
    assert reductions[-1] == result.model_reduction
    assert all(b >= a > 0.0 for a, b in zip(reductions, reductions[1:]))


def huge_gamma_subproblem(seed, n, delta):
    # gamma = 1e27 (s = 1e10 e_0, y = 1e-17 e_0 passes the gate) beside
    # two ordinary pairs, and g = B v with v_0 = 0: the frame's Gram
    # matrix spans twenty-odd orders of magnitude.
    rng = np.random.default_rng(seed)
    mem = PairMemory(n, 3)
    for _ in range(2):
        s = rng.standard_normal(n)
        assert mem.try_update(s, rng.uniform(0.5, 2.0, n) * s)
    s, y = np.zeros(n), np.zeros(n)
    s[0], y[0] = 1e10, 1e-17
    assert mem.try_update(s, y)
    v = rng.standard_normal(n)
    v[0] = 0.0
    return mem, Subproblem(g=mem.multiply(v), delta=delta)


@PROPERTY
@given(seed=seeds, n=st.integers(2, 40), delta=st.sampled_from([1e-3, 1.0, 1e3]))
def test_steihaug_at_huge_gamma_never_raises(seed, n, delta):
    # CG must still end with a status of its own and a finite step in the region.
    mem, sp = huge_gamma_subproblem(seed, n, delta)
    result = steihaug_solve(mem, sp)
    assert result.status in (INTERIOR, BOUNDARY, MAX_ITERATIONS)
    assert np.all(np.isfinite(result.p))
    assert np.linalg.norm(result.p) <= delta * (1.0 + subproblem.TAU_MS)


@PROPERTY
@given(seed=seeds, n=st.integers(2, 40), delta=st.sampled_from([1e-3, 1.0, 1e3]))
def test_mss_at_huge_gamma_never_raises(seed, n, delta):
    # mss may give up here (breakdown or max_iterations, with a finite
    # step); an exit that claims a solution must pass the certificate.
    mem, sp = huge_gamma_subproblem(seed, n, delta)
    result = mss_solve(mem, sp)
    assert result.status in (INTERIOR, BOUNDARY, MAX_ITERATIONS, BREAKDOWN)
    assert np.all(np.isfinite(result.p))
    if result.status in (INTERIOR, BOUNDARY):
        assert check_optimality(mem, result, sp, 1e-6).passed


def exact_inverse_product(mem, v):
    """B^{-1} v in rational arithmetic, rounded once to floats at the end.

    B comes from the dense BFGS update over ``mem.pairs`` from I / gamma
    (the update ``materialize_dense`` makes in floats), and the solve is
    Gauss-Jordan elimination on the augmented matrix [B | v].
    """
    n = mem.n
    b = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        b[i][i] = 1 / Fraction(mem.gamma)
    for s, y in mem.pairs:
        s, y = [Fraction(x) for x in s], [Fraction(x) for x in y]
        bs = [sum(r * c for r, c in zip(row, s)) for row in b]
        sbs = sum(r * c for r, c in zip(s, bs))
        sy = sum(r * c for r, c in zip(s, y))
        b = [[b[i][j] - bs[i] * bs[j] / sbs + y[i] * y[j] / sy for j in range(n)]
             for i in range(n)]
    a = [row + [Fraction(x)] for row, x in zip(b, v)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col] / a[col][col]
                a[r] = [x - f * z for x, z in zip(a[r], a[col])]
    return np.array([float(a[i][n] / a[i][i]) for i in range(n)])


def test_inv_multiply_against_exact_arithmetic():
    # An accuracy check that does not scale with cond(B), as the
    # tolerances of assert_products_match do.  On this loop the worst
    # relative error was 5.8e-15 for B^{-1}'s kernel as a dense 2m x 2m
    # matrix (from the compact inverse of Byrd, Nocedal & Schnabel (1994)
    # or the inverse BFGS update) and 7.0e-15 for its folded rows.  Over
    # 1000 other draws per family all stayed under 2.2e-14 except
    # near_collinear, whose worst draw reached 7.3e-13.
    rng = np.random.default_rng(31)
    for family in FAMILIES + ("huge_gamma",):
        for _ in range(25):
            n = int(rng.integers(2, 9))
            if family == "huge_gamma":
                mem, _ = huge_gamma_subproblem(int(rng.integers(2**32)), n, 1.0)
            else:
                mem = family_memory(rng, n, family)
            v = rng.standard_normal(n)
            want = exact_inverse_product(mem, v)
            error = np.linalg.norm(mem.inv_multiply(v) - want) / np.linalg.norm(want)
            assert error <= 1e-12, (family, n, error)


def test_inv_multiply_meets_the_newest_secant_equation():
    # The inverse update ends on the newest pair, so H y = s holds there
    # in exact arithmetic.  The product rounds at ||H|| ||y|| (H from the
    # dense update in floats), which exceeds ||s|| up to 1.4e7-fold on
    # gamma_floor: over seeds 0-11 of this loop the error reached
    # 1.1e-9 ||s|| there, but stayed under 0.64 TOL ||H|| ||y|| on every
    # family (near_collinear; the rest under 1e-3).  On this seed the worst
    # is 0.22 TOL ||H|| ||y||, near_collinear again.
    rng = np.random.default_rng(37)
    for family in FAMILIES + ("huge_gamma",):
        for _ in range(300):
            n = int(rng.integers(2, 40))
            if family == "huge_gamma":
                mem, _ = huge_gamma_subproblem(int(rng.integers(2**32)), n, 1.0)
            else:
                mem = family_memory(rng, n, family)
            h = mem.gamma * np.eye(n)
            for s, y in mem.pairs:
                rho = 1.0 / float(s @ y)
                v = np.eye(n) - rho * np.outer(y, s)
                h = v.T @ h @ v + rho * np.outer(s, s)
            error = np.linalg.norm(mem.inv_multiply(y) - s)
            assert error <= TOL * np.linalg.norm(h, 2) * np.linalg.norm(y), (family, n)


def awkward_floats():
    return st.floats() | st.sampled_from(
        [math.nan, math.inf, -math.inf, 5e-324, -2.2e-308, 1.7976931348623157e308, -0.0])


@PROPERTY
@given(
    records=st.lists(
        st.builds(
            RunRecord,
            problem=st.text(alphabet='ab1 ,"\'\n\r', max_size=12),
            n=st.integers(0, 2**63),
            solver=st.sampled_from(SOLVERS),
            status=st.sampled_from([CONVERGED, RADIUS_TOO_SMALL, FE_BUDGET_EXHAUSTED, ERROR]),
            time_sec=awkward_floats(),
            fe=st.integers(0, 2**63),
            inner_iters=st.integers(0, 2**63),
            f_final=awkward_floats(),
            gnorm_final=awkward_floats(),
        ),
        max_size=5,
    )
)
def test_csv_round_trip_any_record(tmp_path_factory, records):
    # Every field survives write_csv/read_csv, nan included (compared as
    # nan), and names with commas, quotes, newlines and carriage returns
    # stay one field.
    path = tmp_path_factory.mktemp("csv") / "records.csv"
    write_csv(records, path)
    back = read_csv(path)
    assert len(back) == len(records)
    for got, want in zip(back, records):
        for name in ("problem", "n", "solver", "status", "fe", "inner_iters"):
            assert getattr(got, name) == getattr(want, name)
        for name in ("time_sec", "f_final", "gnorm_final"):
            a, b = getattr(got, name), getattr(want, name)
            if math.isnan(b):
                assert math.isnan(a)
            else:
                assert a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
