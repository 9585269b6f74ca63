"""Independent references the benchmark checks mwkit's outputs against.

Nothing here calls mwkit: each reference re-derives its number by a different
route, so an output that agrees with it is not just agreeing with itself.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# (6/pi) arccos(1/sqrt 3) sqrt(2/3): mean width of the regular inscribed
# tetrahedron, the d = 3 maximizer.
REGULAR_WIDTH_D3 = (6.0 / math.pi) * math.acos(1.0 / math.sqrt(3.0)) * math.sqrt(2.0 / 3.0)

_MC_CHUNK = 50_000  # keeps the oracle's memory below that of the ops it checks


def edge_width_d3(V: np.ndarray) -> float:
    """Mean width of a tetrahedron from its six edges (Steiner formula):
    w = (1/4pi) sum_e len(e) (pi - theta_e), theta_e the interior dihedral angle.
    """
    V = np.asarray(V, dtype=float)
    total = 0.0
    for i, j in itertools.combinations(range(4), 2):
        k, l = (x for x in range(4) if x not in (i, j))
        e = V[j] - V[i]
        e_hat = e / np.linalg.norm(e)
        a = V[k] - V[i]
        b = V[l] - V[i]
        a = a - np.dot(a, e_hat) * e_hat
        b = b - np.dot(b, e_hat) * e_hat
        cos_t = np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
        theta = math.acos(min(1.0, max(-1.0, float(cos_t))))
        total += float(np.linalg.norm(e)) * (math.pi - theta)
    return total / (4.0 * math.pi)


def regularity(V: np.ndarray) -> float:
    """Max deviation of the pairwise vertex dot products from -1/d."""
    V = np.asarray(V, dtype=float)
    d = V.shape[1]
    G = V @ V.T
    return float(np.max(np.abs(G[~np.eye(d + 1, dtype=bool)] + 1.0 / d)))


def _directions(rng: np.random.Generator, m: int, d: int) -> np.ndarray:
    u = rng.standard_normal((m, d))
    return u / np.linalg.norm(u, axis=1, keepdims=True)


def mc_width(V: np.ndarray, n: int, seed: int) -> tuple[float, float]:
    """(value, std error) of 2 E[max_i u . v_i] over n uniform directions."""
    return mc_width_pair(V, V, n, seed)[0]


def mc_width_pair(V0: np.ndarray, V1: np.ndarray, n: int, seed: int):
    """Widths of two simplices on common directions, plus the difference
    w(V1) - w(V0) with its (much smaller) std error.

    Returns ((w0, se0), (w1, se1), (diff, se_diff)).
    """
    d = V0.shape[1]
    rng = np.random.default_rng(seed)
    sums = np.zeros(3)
    sq = np.zeros(3)
    left = n
    while left > 0:
        m = min(left, _MC_CHUNK)
        u = _directions(rng, m, d)
        h0 = np.max(u @ V0.T, axis=1)
        h1 = np.max(u @ V1.T, axis=1)
        for k, h in enumerate((h0, h1, h1 - h0)):
            sums[k] += h.sum()
            sq[k] += np.square(h).sum()
        left -= m
    out = []
    for k in range(3):
        mean = sums[k] / n
        var = max(sq[k] / n - mean ** 2, 0.0)
        out.append((2.0 * mean, 2.0 * math.sqrt(var / n)))
    return tuple(out)


def vertex_solid_angle_fraction(P: np.ndarray) -> float:
    """Share of the unit 2-sphere taken by the tangent cone of the spherical
    tetrahedron P (4 unit vectors in R^4) at its first vertex.

    Van Oosterom-Strackee on the unit tangent directions t1..t3 at p0:
    tan(omega/2) = |det[p0, t1, t2, t3]| / (1 + t1.t2 + t2.t3 + t3.t1).
    """
    P = np.asarray(P, dtype=float)
    if P.shape != (4, 4):
        raise ValueError("need a spherical tetrahedron in R^4")
    p0 = P[0]
    T = P[1:] - np.outer(P[1:] @ p0, p0)
    T /= np.linalg.norm(T, axis=1, keepdims=True)
    det = abs(float(np.linalg.det(np.vstack([p0, T]))))
    den = 1.0 + float(T[0] @ T[1] + T[1] @ T[2] + T[2] @ T[0])
    return 2.0 * math.atan2(det, den) / (4.0 * math.pi)


def random_feasible_simplex(rng: np.random.Generator, d: int) -> np.ndarray:
    """d+1 uniform unit vectors whose convex hull holds the origin."""
    while True:
        V = _directions(rng, d + 1, d)
        A = np.vstack([V.T, np.ones(d + 1)])
        rhs = np.zeros(d + 1)
        rhs[-1] = 1.0
        try:
            lam = np.linalg.solve(A, rhs)
        except np.linalg.LinAlgError:
            continue
        if np.min(lam) > 0.0:
            return V
