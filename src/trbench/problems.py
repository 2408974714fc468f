"""Native, dependency-free test problems with analytic gradients.

A representative subset of classic scalable unconstrained problems, each
implemented directly from its standard published formula: quadratics
(dqdrtic, tridia, power), a quartic (dqrtic), classic nonconvex valleys
(srosenbr, woods), block-separable families (arwhead, engval1, liarwhd,
nondia) and trigonometric ones (cosine, eg2).  All evaluations are
vectorized; the finite-difference checker below is the ground truth for
every gradient.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .memory import EPS

_FD_STEP = EPS ** (1.0 / 3.0)
_FD_COORDS = 50


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """A named objective: dimension, (f, g) evaluation, default start (read-only from :func:`make`)."""

    name: str
    n: int
    eval: Callable[[np.ndarray], tuple[float, np.ndarray]]
    x0: np.ndarray


@functools.lru_cache(maxsize=1)  # the latest n only: 0.8 MB at n = 1e5
def _indices(n: int) -> np.ndarray:
    """The read-only floats 1..n, shared by every evaluation at this n."""
    idx = np.arange(1.0, n + 1.0)
    idx.flags.writeable = False
    return idx


def _srosenbr(x):
    """Extended Rosenbrock: sum over pairs of 100 (x2 - x1^2)^2 + (1 - x1)^2."""
    x1 = x[0::2]
    x2 = x[1::2]
    t = x2 - x1**2
    f = np.sum(100.0 * t**2 + (1.0 - x1) ** 2)
    g = np.empty_like(x)
    g[0::2] = -400.0 * x1 * t - 2.0 * (1.0 - x1)
    g[1::2] = 200.0 * t
    return float(f), g


def _arwhead(x):
    """sum_{i<n} (x_i^2 + x_n^2)^2 - 4 x_i + 3."""
    head = x[:-1]
    u = head**2 + x[-1] ** 2
    f = np.sum(u**2 - 4.0 * head + 3.0)
    g = np.empty_like(x)
    g[:-1] = 4.0 * head * u - 4.0
    g[-1] = 4.0 * x[-1] * np.sum(u)
    return float(f), g


def _dqdrtic(x):
    """sum_{i<=n-2} x_i^2 + 100 x_{i+1}^2 + 100 x_{i+2}^2 (diagonal quadratic)."""
    f = np.sum(x[:-2] ** 2 + 100.0 * x[1:-1] ** 2 + 100.0 * x[2:] ** 2)
    g = np.zeros_like(x)
    g[:-2] += 2.0 * x[:-2]
    g[1:-1] += 200.0 * x[1:-1]
    g[2:] += 200.0 * x[2:]
    return float(f), g


def _dqrtic(x):
    """sum_i (x_i - i)^4 with 1-based i."""
    t = x - _indices(x.size)
    t2 = t * t  # products, not **: numpy takes t**4 through pow, many times slower
    return float(np.sum(t2 * t2)), 4.0 * t2 * t


def _eg2(x):
    """sum_{i<n} sin(x_1 + x_i^2 - 1) + 0.5 sin(x_n^2)."""
    head = x[:-1]
    theta = x[0] + head**2 - 1.0
    c = np.cos(theta)
    f = np.sum(np.sin(theta)) + 0.5 * np.sin(x[-1] ** 2)
    g = np.zeros_like(x)
    g[0] = np.sum(c)
    g[:-1] += 2.0 * head * c
    g[-1] += x[-1] * np.cos(x[-1] ** 2)
    return float(f), g


def _cosine(x):
    """sum_{i<n} cos(x_i^2 - 0.5 x_{i+1})."""
    theta = x[:-1] ** 2 - 0.5 * x[1:]
    s = np.sin(theta)
    f = np.sum(np.cos(theta))
    g = np.zeros_like(x)
    g[:-1] += -2.0 * x[:-1] * s
    g[1:] += 0.5 * s
    return float(f), g


def _nondia(x):
    """(x_1 - 1)^2 + sum_{i<n} 100 (x_1 - x_i^2)^2 (nondiagonal Rosenbrock)."""
    head = x[:-1]
    t = x[0] - head**2
    f = (x[0] - 1.0) ** 2 + np.sum(100.0 * t**2)
    g = np.zeros_like(x)
    g[:-1] += -400.0 * head * t
    g[0] += 2.0 * (x[0] - 1.0) + 200.0 * np.sum(t)
    return float(f), g


def _liarwhd(x):
    """sum_i 4 (x_i^2 - x_1)^2 + (x_i - 1)^2."""
    t = x**2 - x[0]
    u = x - 1.0
    f = np.sum(4.0 * t**2 + u**2)
    g = 16.0 * x * t + 2.0 * u
    g[0] += -8.0 * np.sum(t)
    return float(f), g


def _power(x):
    """sum_i (i x_i)^2 with 1-based i (ill-conditioned diagonal quadratic)."""
    idx = _indices(x.size)
    f = np.sum((idx * x) ** 2)
    return float(f), 2.0 * idx**2 * x


def _tridia(x):
    """(x_1 - 1)^2 + sum_{i>=2} i (2 x_i - x_{i-1})^2."""
    w = _indices(x.size)[1:]  # 2..n
    t = 2.0 * x[1:] - x[:-1]
    f = (x[0] - 1.0) ** 2 + np.sum(w * t**2)
    g = np.zeros_like(x)
    g[1:] += 4.0 * w * t
    g[:-1] += -2.0 * w * t
    g[0] += 2.0 * (x[0] - 1.0)
    return float(f), g


def _woods(x):
    """Extended Woods function over blocks (a, b, c, d) of four variables:

    100 (b - a^2)^2 + (1 - a)^2 + 90 (d - c^2)^2 + (1 - c)^2
    + 10 (b + d - 2)^2 + 0.1 (b - d)^2.
    """
    a = x[0::4]
    b = x[1::4]
    c = x[2::4]
    d = x[3::4]
    ta = b - a**2
    tc = d - c**2
    u = b + d - 2.0
    v = b - d
    f = np.sum(
        100.0 * ta**2 + (1.0 - a) ** 2 + 90.0 * tc**2 + (1.0 - c) ** 2
        + 10.0 * u**2 + 0.1 * v**2
    )
    g = np.empty_like(x)
    g[0::4] = -400.0 * a * ta - 2.0 * (1.0 - a)
    g[1::4] = 200.0 * ta + 20.0 * u + 0.2 * v
    g[2::4] = -360.0 * c * tc - 2.0 * (1.0 - c)
    g[3::4] = 180.0 * tc + 20.0 * u - 0.2 * v
    return float(f), g


def _engval1(x):
    """sum_{i<n} (x_i^2 + x_{i+1}^2)^2 - 4 x_i + 3."""
    u = x[:-1] ** 2 + x[1:] ** 2
    f = np.sum(u**2 - 4.0 * x[:-1] + 3.0)
    g = np.zeros_like(x)
    g[:-1] += 4.0 * x[:-1] * u - 4.0
    g[1:] += 4.0 * x[1:] * u
    return float(f), g


# name -> (eval, start pattern, min_n).  The start repeats the pattern, so
# n must also be a multiple of its length: one block of srosenbr or woods.
_REGISTRY = {
    "srosenbr": (_srosenbr, (-1.2, 1.0), 2),
    "arwhead": (_arwhead, (1.0,), 2),
    "dqdrtic": (_dqdrtic, (3.0,), 3),
    "dqrtic": (_dqrtic, (2.0,), 2),
    "eg2": (_eg2, (0.0,), 2),
    "cosine": (_cosine, (1.0,), 2),
    "nondia": (_nondia, (-1.0,), 2),
    "liarwhd": (_liarwhd, (4.0,), 2),
    "power": (_power, (1.0,), 2),
    "tridia": (_tridia, (1.0,), 2),
    "woods": (_woods, (-3.0, -1.0, -3.0, -1.0), 4),
    "engval1": (_engval1, (2.0,), 2),
}

PROBLEM_NAMES = tuple(_REGISTRY)


def make(name: str, n: int = 1000) -> ProblemInstance:
    """Build a problem instance by name at dimension n (default 1000).

    ``x0`` is read-only: a zero-stride view of a one-value start pattern, else its tile.
    """
    if name not in _REGISTRY:
        raise ValueError(
            f"unknown problem {name!r}; supported: {', '.join(PROBLEM_NAMES)}"
        )
    fn, pattern, min_n = _REGISTRY[name]
    if not isinstance(n, numbers.Integral):
        raise ValueError(f"{name} needs an integer n, got {n!r}")
    n = int(n)
    block = len(pattern)
    if n < min_n or n % block:
        divisible = f" divisible by {block}" if block > 1 else ""
        raise ValueError(f"{name} needs n >= {min_n}{divisible}, got {n}")

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        if x.shape != (n,):
            raise ValueError(f"x has shape {x.shape}, expected ({n},)")
        return fn(x)

    x0 = np.broadcast_to(pattern[0], (n,)) if block == 1 else np.tile(pattern, n // block)
    x0.flags.writeable = False
    return ProblemInstance(name=name, n=n, eval=evaluate, x0=x0)


def fd_gradient_check(problem: ProblemInstance, x) -> float:
    """Worst scaled deviation between analytic and central-difference gradient.

    Per coordinate i the step is h = eps^(1/3) * max(1, |x_i|); deviations
    are scaled by max(1, ||g||_inf) so the result is comparable across
    problems of very different gradient magnitude.  All coordinates are
    checked for n <= 200, otherwise _FD_COORDS = 50 coordinates drawn with
    seed 0.  Returns inf if any probe evaluates non-finite.
    """
    x = np.asarray(x, dtype=float)
    _, g = problem.eval(x)
    n = x.size
    if n <= 200:
        coords = np.arange(n)
    else:
        coords = np.random.default_rng(0).choice(n, size=_FD_COORDS, replace=False)
    scale = max(1.0, float(np.max(np.abs(g))))
    worst = 0.0
    for i in coords:
        h = _FD_STEP * max(1.0, abs(x[i]))
        xp = x.copy()
        xp[i] += h
        xm = x.copy()
        xm[i] -= h
        fp, _ = problem.eval(xp)
        fm, _ = problem.eval(xm)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            return float("inf")
        fd = (fp - fm) / (xp[i] - xm[i])  # denominator uses the realized step
        worst = max(worst, abs(fd - g[i]) / scale)
    return worst
