"""Property tests: the compact-panel kernels against dense oracles.

Every memory here is built by offering pairs one at a time, and the
oracle is the recursive dense BFGS update over the pairs the memory
reports, so the checks cover ring wrap-around and gate rejections as well
as the algebra.  The Gram-space Newton iterates of mss are checked
against the n-space solves they replace, the driver against non-finite
evaluations and the CSV schema against awkward records.  Examples are
derandomized so the suite is repeatable.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from trbench import (
    BOUNDARY,
    CONVERGED,
    EPS,
    FE_BUDGET_EXHAUSTED,
    PROBLEM_NAMES,
    RADIUS_TOO_SMALL,
    SQRT_EPS,
    NumericalBreakdownError,
    PairMemory,
    ProblemInstance,
    RunRecord,
    Subproblem,
    TrConfig,
    apply,
    gram_iterate,
    make,
    minimize,
    mss_solve,
    prepare,
    read_csv,
    solve_shifted,
    write_csv,
)
from trbench.bench import ERROR
from trbench.driver import SOLVERS

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

# B is a sum of terms (B0 and the rank-one updates) that may cancel, and
# the kernels round at the size of the largest term, ``scale`` below; the
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


def dense_bfgs(pairs, gamma, n):
    """Dense recursive BFGS update starting from gamma^{-1} I.

    Runs in extended precision where the platform has it, so the oracle's
    own rounding stays below the kernels'.  Returns B and the rounding
    scale of the recursion (see above).
    """
    b = np.eye(n, dtype=np.longdouble) / np.longdouble(gamma)
    scale = 1.0 / gamma
    for s, y in pairs:
        s = s.astype(np.longdouble)
        y = y.astype(np.longdouble)
        bs = b @ s
        yy = np.outer(y, y) / (y @ s)
        a_term = np.linalg.norm(b.astype(float), 2) * float(
            np.linalg.norm(s) * np.linalg.norm(bs) / (s @ bs))
        scale = max(scale, a_term, np.linalg.norm(yy.astype(float), 2))
        b = b - np.outer(bs, bs) / (s @ bs) + yy
    return b, scale


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
        got = solve_shifted(mem, sigma, v)
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
    # Every period-th trial evaluation (never the one at x0) reports a
    # non-finite f or gradient entry.  The driver must reject those trials
    # and end with one of its own statuses at a finite iterate.
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
    # equal the values of the n-space solves they replace in mss: the
    # compact inverse at sigma = 0, the shifted recursion otherwise.  Both
    # sides use the same kernels, so only the order of operations differs,
    # except that p = -(base g + P^T z) may cancel: by a factor kappa in
    # n-space, and by kappa^2 once the sum is squared out in Gram space.
    # kappa stays under 4 on every family but the gate edge with n <= 2m,
    # where the panel spans g and gamma ~ 6e7; there it reached 70, with
    # errors up to 8 kappa^2 eps (5.4e-12) against 2e-14 in n-space.
    rng = np.random.default_rng(seed)
    mem = family_memory(rng, n, family)
    g = rng.standard_normal(n)
    try:
        it = gram_iterate(mem, mem.panel @ g, float(g @ g), sigma)
    except NumericalBreakdownError:
        return  # the named breakdown of a nearly rank-deficient panel
    if sigma == 0.0:
        p = -mem.inv_multiply(g)
        curvature = float(p @ mem.inv_multiply(p))
    else:
        p = -solve_shifted(mem, sigma, g)
        curvature = float(p @ solve_shifted(mem, sigma, p))
    p_norm = float(np.linalg.norm(p))
    kappa = (it.base * np.linalg.norm(g) + np.linalg.norm(mem.panel.T @ it.z)) / p_norm
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
        want = apply(prepare(mem, result.sigma), -g)
        assert np.linalg.norm(result.p - want) <= 1e-12 * np.linalg.norm(want)


def awkward_floats():
    return st.floats() | st.sampled_from(
        [math.nan, math.inf, -math.inf, 5e-324, -2.2e-308, 1.7976931348623157e308, -0.0])


@PROPERTY
@given(
    records=st.lists(
        st.builds(
            RunRecord,
            problem=st.text(alphabet='ab1 ,"\'\n', max_size=12),
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
    # nan), and names with commas, quotes and newlines stay one field.
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
