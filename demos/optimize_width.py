"""Ascent of the mean width over inscribed tetrahedra.

Starts from random inscribed tetrahedra and runs the Riemannian BFGS ascent
on the exact width objective.  Every run lands on the regular tetrahedron,
whose mean width (6/pi) arccos(1/sqrt 3) sqrt(2/3) ~ 1.4897 is the maximum.
"""

import numpy as np

from mwkit import (mean_width_exact3d, optimize_width, regular_simplex,
                   regular_tetrahedron_width, regularity_metric)

w_star = regular_tetrahedron_width()
closed = (6 / np.pi) * np.arccos(1 / np.sqrt(3)) * np.sqrt(2 / 3)
print(f"regular tetrahedron width: {w_star:.12f} (closed form {closed:.12f})\n")

print("seed   start width   final width     gap          regularity  iters")
for seed in range(5):
    trace = optimize_width(3, "random", seed=seed, max_iter=500)
    first, last = trace[0], trace[-1]
    print(f"{seed:4d}   {first.width.value:.6f}      {last.width.value:.10f}"
          f"  {w_star - last.width.value:10.2e}  {last.regularity:.2e}"
          f"   {last.iteration}")

print("\nsmall perturbations of the maximizer always lose width:")
rng = np.random.default_rng(1)
V0 = regular_simplex(3).vertices
for eps in (1e-2, 1e-3, 1e-4):
    V = V0 + eps * rng.standard_normal(V0.shape)
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    from mwkit import InscribedSimplex
    S = InscribedSimplex(V)
    print(f"  eps = {eps:.0e}: width deficit {w_star - mean_width_exact3d(S).value:.3e}, "
          f"regularity {regularity_metric(S):.2e}")
