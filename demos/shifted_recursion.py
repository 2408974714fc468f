#!/usr/bin/env python3
# Accuracy of the shifted-system recursion across shift magnitudes.
#
# Each solve runs as mss runs it: gram_iterate on the frame of g = -y
# gives the coordinates of p = (B + sigma I)^{-1} y (the memory's B^{-1},
# a folded operator built by the inverse BFGS update, at sigma = 0, the
# recursion's otherwise) and frame_step forms p.
# Residuals are measured through the forward product (no dense matrix
# needed) and, at this small size, against a dense LU solve as well.
import numpy as np

from trbench import PairMemory, Subproblem, frame, frame_step, gram_iterate

rng = np.random.default_rng(11)
n = 40

q, _ = np.linalg.qr(rng.standard_normal((n, n)))
hess = (q * rng.uniform(0.5, 5.0, size=n)) @ q.T
mem = PairMemory(n, capacity=7)
while mem.m < 7:
    s = rng.standard_normal(n)
    mem.try_update(s, hess @ s)

dense = mem.materialize_dense()
print(f"memory: n={n}, m={mem.m}, gamma={mem.gamma:.4f}")
print(f"{'sigma':>10} {'forward residual':>18} {'vs dense LU':>14}")
for sigma in (0.0, 1e-6, 1e-3, 1e-1, 1.0, 1e2, 1e4, 1e6):
    worst_fwd = 0.0
    worst_lu = 0.0
    for _ in range(5):
        y = rng.standard_normal(n)
        f = frame(mem, Subproblem(g=-y, delta=1.0))  # one O(M n) pass
        x = frame_step(mem, -y, gram_iterate(mem, f, sigma).x)  # O(M^3), then O(M n)
        worst_fwd = max(
            worst_fwd,
            np.linalg.norm(mem.multiply(x) + sigma * x - y) / np.linalg.norm(y),
        )
        ref = np.linalg.solve(dense + sigma * np.eye(n), y)
        worst_lu = max(worst_lu, np.linalg.norm(x - ref) / np.linalg.norm(ref))
    print(f"{sigma:>10.0e} {worst_fwd:>18.3e} {worst_lu:>14.3e}")
