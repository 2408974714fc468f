import numpy as np
import pytest

from trbench import PROBLEM_NAMES, ProblemInstance, fd_gradient_check, make, problems


def test_supported_names():
    assert set(PROBLEM_NAMES) == {
        "srosenbr", "arwhead", "dqdrtic", "dqrtic", "eg2", "cosine",
        "nondia", "liarwhd", "power", "tridia", "woods", "engval1",
    }


def test_unknown_name_rejected():
    with pytest.raises(ValueError):
        make("rosenbrock")


@pytest.mark.parametrize(
    "name,bad_n",
    [("srosenbr", 3), ("srosenbr", 0), ("woods", 10), ("woods", 2), ("dqdrtic", 2),
     ("srosenbr", 10.7), ("srosenbr", "12")],
)
def test_structural_dimension_constraints(name, bad_n):
    with pytest.raises(ValueError):
        make(name, bad_n)


def test_srosenbr_minimizer_and_start():
    problem = make("srosenbr", 2)
    f, g = problem.eval(np.array([1.0, 1.0]))
    assert f == 0.0
    np.testing.assert_array_equal(g, np.zeros(2))
    f0, _ = problem.eval(problem.x0)
    np.testing.assert_array_equal(problem.x0, [-1.2, 1.0])
    # 100 (1 - 1.44)^2 + (1 + 1.2)^2 = 19.36 + 4.84
    assert f0 == pytest.approx(24.2, rel=1e-15)


def test_dqdrtic_minimum_at_origin():
    problem = make("dqdrtic", 12)
    f, g = problem.eval(np.zeros(12))
    assert f == 0.0
    np.testing.assert_array_equal(g, np.zeros(12))


def test_default_dimension_is_1000():
    assert make("arwhead").n == 1000


def test_default_starts():
    assert np.all(make("arwhead", 5).x0 == 1.0)
    assert np.all(make("dqdrtic", 5).x0 == 3.0)
    assert np.all(make("dqrtic", 5).x0 == 2.0)
    assert np.all(make("eg2", 5).x0 == 0.0)
    assert np.all(make("cosine", 5).x0 == 1.0)
    assert np.all(make("nondia", 5).x0 == -1.0)
    assert np.all(make("liarwhd", 5).x0 == 4.0)
    assert np.all(make("power", 5).x0 == 1.0)
    assert np.all(make("tridia", 5).x0 == 1.0)
    assert np.all(make("engval1", 5).x0 == 2.0)
    np.testing.assert_array_equal(make("woods", 8).x0, [-3, -1, -3, -1] * 2)


def test_fd_check_exact_on_quadratic():
    def evaluate(x):
        return 0.5 * float(x @ x), x.copy()

    problem = ProblemInstance(name="halfnormsq", n=6, eval=evaluate, x0=np.ones(6))
    assert fd_gradient_check(problem, np.linspace(-1, 2, 6)) <= 1e-10


def test_fd_check_on_srosenbr_start():
    problem = make("srosenbr", 2)
    assert fd_gradient_check(problem, problem.x0) <= 1e-6


def test_fd_check_catches_corrupted_gradient():
    base = make("srosenbr", 4)

    def corrupted(x):
        f, g = base.eval(x)
        g = g.copy()
        g[0] += 1.0
        return f, g

    problem = ProblemInstance(name="bad", n=4, eval=corrupted, x0=base.x0)
    assert fd_gradient_check(problem, base.x0) > 1e-3


def test_fd_check_reports_nonfinite_as_failure():
    def evaluate(x):
        return float("inf") if x[0] > 1.0 else float(x @ x), 2.0 * x

    problem = ProblemInstance(name="blowup", n=2, eval=evaluate, x0=np.ones(2))
    assert fd_gradient_check(problem, np.array([1.0, 0.0])) == np.inf


@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_gradients_at_start_and_perturbations(name):
    n = 12 if name == "woods" else 10
    problem = make(name, n)
    assert fd_gradient_check(problem, problem.x0) <= 1e-5
    rng = np.random.default_rng(7)
    for _ in range(5):
        x = problem.x0 + 0.5 * rng.standard_normal(n)
        assert fd_gradient_check(problem, x) <= 1e-5


@pytest.mark.parametrize("name", ["dqdrtic", "tridia", "power"])
def test_convex_members_finite_and_deterministic_on_segment(name):
    problem = make(name, 30)
    target = np.zeros(30)  # coarse minimizer estimate; finiteness is the point
    for t in np.linspace(0.0, 1.0, 100):
        x = (1.0 - t) * problem.x0 + t * target
        f1, g1 = problem.eval(x)
        f2, g2 = problem.eval(x)
        assert np.isfinite(f1) and np.all(np.isfinite(g1))
        assert f1 == f2
        np.testing.assert_array_equal(g1, g2)


def test_eval_validates_dimension():
    problem = make("power", 10)
    with pytest.raises(ValueError):
        problem.eval(np.ones(11))


# Reference formulas that build their weights with a fresh arange on
# every evaluation: the shared read-only weights must give the same bits.
def _dqrtic_inline(x):
    t = x - np.arange(1.0, x.size + 1.0)
    t2 = t * t
    return float(np.sum(t2 * t2)), 4.0 * t2 * t


def _power_inline(x):
    idx = np.arange(1.0, x.size + 1.0)
    return float(np.sum((idx * x) ** 2)), 2.0 * idx**2 * x


def _tridia_inline(x):
    w = np.arange(2.0, x.size + 1.0)
    t = 2.0 * x[1:] - x[:-1]
    f = (x[0] - 1.0) ** 2 + np.sum(w * t**2)
    g = np.zeros_like(x)
    g[1:] += 4.0 * w * t
    g[:-1] += -2.0 * w * t
    g[0] += 2.0 * (x[0] - 1.0)
    return float(f), g


def _liarwhd_inline(x):
    t = x**2 - x[0]
    f = np.sum(4.0 * t**2 + (x - 1.0) ** 2)
    g = 16.0 * x * t + 2.0 * (x - 1.0)
    g[0] += -8.0 * np.sum(t)
    return float(f), g


def assert_same_bits(got, want):
    (f, g), (f_want, g_want) = got, want
    assert f.hex() == f_want.hex()
    np.testing.assert_array_equal(g, g_want)
    np.testing.assert_array_equal(np.signbit(g), np.signbit(g_want))


@pytest.mark.parametrize("name, inline", [
    ("dqrtic", _dqrtic_inline), ("power", _power_inline),
    ("tridia", _tridia_inline), ("liarwhd", _liarwhd_inline),
])
def test_shared_weights_keep_every_bit(name, inline):
    rng = np.random.default_rng(11)
    for n in (7, 1000, 7):  # the weights are rebuilt when n changes
        problem = make(name, n)
        tiny = rng.standard_normal(n) * 1e-310  # subnormal entries
        mixed = np.where(rng.uniform(size=n) < 0.5, tiny, rng.standard_normal(n))
        points = [np.array(problem.x0), tiny, -tiny, mixed]
        points += [problem.x0 + rng.standard_normal(n) for _ in range(3)]
        for x in points:
            assert_same_bits(problem.eval(x), inline(x))


@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_start_is_read_only_and_evaluates_as_its_copy(name):
    _, pattern, _ = problems._REGISTRY[name]
    n = 24
    problem = make(name, n)
    x0 = problem.x0
    np.testing.assert_array_equal(x0, np.tile(pattern, n // len(pattern)))
    assert not x0.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        x0[0] = 0.0
    if len(pattern) == 1:
        assert x0.strides == (0,)  # one value, n views of it
    f, g = problem.eval(x0)
    assert_same_bits((f, g), problem.eval(np.array(x0)))
    assert g.flags.c_contiguous and g.flags.writeable
