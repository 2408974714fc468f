import numpy as np
import pytest

from trbench import Subproblem, frame, frame_step, gram_iterate
from trbench.diagnostics import random_memory

__all__ = ["dense_bfgs", "random_memory", "shifted_solve"]


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def shifted_solve(mem, sigma, y):
    """(B + sigma I)^{-1} y on the Gram path mss runs: its iterate for g = -y.

    The memory's B^{-1} (the inverse BFGS update) at sigma = 0, the
    shifted recursion at sigma > 0: both folded operators that
    ``shifted.apply`` applies.
    """
    y = np.asarray(y, dtype=float)
    it = gram_iterate(mem, frame(mem, Subproblem(g=-y, delta=1.0)), sigma)
    return frame_step(mem, -y, it.x)


def dense_bfgs(pairs, gamma, n):
    """Dense recursive BFGS update starting from gamma^{-1} I.

    Runs in extended precision where the platform has it, so the oracle's
    own rounding stays below the kernels'.  Returns B and the rounding
    scale of the recursion (see ``test_properties.py``).
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
