import numpy as np
import pytest

from trbench import PROBLEM_NAMES, ProblemInstance, fd_gradient_check, make


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
