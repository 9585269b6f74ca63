"""Mean width of inscribed simplices and the ascent to the regular maximizer.

Three evaluation routes: the exact d = 3 closed form through the 24-triangle
complex, plain Monte Carlo over the sphere for any d, and the reduced-integral
route that sums cell marginal means over the signed path-simplex complex.
The d = 3 ascent evaluates the same exact width by the edge (Steiner)
formula from the four facet normals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cells import (DegeneracyError, InscribedSimplex, _chain_orders,
                    _chain_path, _complex24_core, random_simplex)
from .cells import cell_vertex  # noqa: F401  the benchmark's trace test wraps it
from .measures import (HalfspaceCell, _mat_prefactor, _reduced_cell,
                       _reduced_directions, _reduced_integrand)
from .sphere import _unit_normals

__all__ = [
    "WidthEstimate",
    "support_function",
    "mean_width_mc",
    "mean_width_exact3d",
    "mean_width_mat",
    "regular_simplex",
    "regular_tetrahedron_width",
    "regularity_metric",
    "OptimizerState",
    "optimize_width",
]

_MC_BATCH = 1_000_000


@dataclass(frozen=True)
class WidthEstimate:
    value: float
    std_error: float
    method: str  # exact3d | monte_carlo | mat_quadrature

    def __post_init__(self):
        if not (0.0 <= self.value <= 2.0 + 1e-9):
            raise ValueError("mean width of a body inside the unit ball is in [0, 2]")
        if not self.std_error >= 0.0:
            raise ValueError("std_error must be nonnegative")
        if self.method == "exact3d" and self.std_error != 0.0:
            raise ValueError("exact3d is deterministic")


def support_function(S: InscribedSimplex, u: np.ndarray) -> float:
    """h(u) = max_i u . v_i."""
    u = np.asarray(u, dtype=float)
    if u.shape[-1] != S.d:
        raise ValueError("dimension mismatch between u and the simplex")
    return float(np.max(S.vertices @ u))


def _sphere_samples(d: int, n: int, seed: int):
    """n seeded uniform points on S^{d-1}, in batches of <= _MC_BATCH rows.

    The one sampler behind the Monte Carlo width and its gradient, so both
    see the same points for the same (n, seed).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    left = n
    while left > 0:
        m = min(left, _MC_BATCH)
        u = rng.standard_normal((m, d))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        yield u
        left -= m


def mean_width_mc(S: InscribedSimplex, n: int, seed: int) -> WidthEstimate:
    """2 * E[max_i X . v_i] by uniform sphere sampling (seeded, batched)."""
    V = S.vertices
    total = 0.0
    total_sq = 0.0
    for u in _sphere_samples(S.d, n, seed):
        h = np.max(u @ V.T, axis=1)
        total += h.sum()
        total_sq += np.square(h).sum()
    mean = total / n
    var = max(total_sq / n - mean ** 2, 0.0)
    se = 2.0 * math.sqrt(var / n) if n > 1 else 2.0 * math.sqrt(var)
    return WidthEstimate(2.0 * mean, se, "monte_carlo")


def _mc_width_and_gradient(S: InscribedSimplex, n: int, seed: int):
    """The fixed-seed Monte Carlo width 2/n sum_s max_j u_s . v_j and its exact
    derivative G_i = 2/n sum_s u_s 1{argmax_j u_s . v_j = i}, projected onto
    the sphere tangents; same samples as ``mean_width_mc``."""
    V = S.vertices
    total = 0.0
    G = np.zeros_like(V)
    for u in _sphere_samples(V.shape[1], n, seed):
        P = u @ V.T
        best = np.argmax(P, axis=1)
        total += P[np.arange(len(P)), best].sum()
        for c in range(V.shape[1]):
            G[:, c] += np.bincount(best, weights=u[:, c], minlength=len(V))
    return 2.0 * (total / n), _tangent(2.0 * G / n, V)


def _tangent(G: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Row-wise projection of G onto the tangent spaces of the sphere at V."""
    return G - np.sum(G * V, axis=1, keepdims=True) * V


def _complex24_width(sigma, a, b) -> float:
    """w = (1/4pi) sum sigma a sin b over the 24 signed right triangles."""
    return float(np.sum(sigma * a * np.sin(b)) / (4.0 * np.pi))


def _exact3d_value(V: np.ndarray) -> float:
    return _complex24_width(*_complex24_core(InscribedSimplex(V)._faces)[:3])


_PAIR_A, _PAIR_B = np.triu_indices(4, 1)  # the six pairs i < j in lexicographic order
# the two indices outside each pair: the Voronoi edge of pair (i, j) is the
# arc between the facet normals n_k, k not in {i, j}
_PAIR_OTH = np.array([[x for x in range(4) if x not in p] for p in zip(_PAIR_A, _PAIR_B)])
# +1 at the first and -1 at the second vertex of each of the six pairs
_PAIR_SIGN = np.zeros((4, 6))
_PAIR_SIGN[_PAIR_A, np.arange(6)] = 1.0
_PAIR_SIGN[_PAIR_B, np.arange(6)] = -1.0


def _exact3d_width_and_gradient(S: InscribedSimplex):
    """The exact d = 3 width and its tangential gradient from the four facet
    normals of S (Steiner formula; Schneider, Convex Bodies, section 4.2).

    The mean width is a multiple of the first intrinsic volume; in d = 3,
    w = (1/4pi) sum_edges |v_i - v_j| l_ij with l_ij = pi - theta_ij =
    arc(n_k, n_l), the exterior angle at edge ij between the outward normals
    of the two facets that meet there ({k, l} the complement of {i, j}).
    That arc is also the Voronoi edge shared by cells i and j, so with
    dw/dv_i = 2 E[u 1{u in cell i}] and the divergence theorem on S^2,
    grad_i w = (1/4pi) sum_j l_ij (v_i - v_j)/|v_i - v_j|.  Only a flat
    tetrahedron lacks these normals, and it fails validation as S.
    """
    V, n = S.vertices, S._outward_normals
    cos_ell = (n @ n.T)[_PAIR_OTH[:, 0], _PAIR_OTH[:, 1]]
    ell = np.arccos(np.clip(cos_ell, -1.0, 1.0))
    diff = V[_PAIR_A] - V[_PAIR_B]
    length = np.linalg.norm(diff, axis=1)
    w = float(ell @ length) / (4.0 * np.pi)
    edge = (ell / length)[:, None] * diff
    return w, _tangent(_PAIR_SIGN @ edge / (4.0 * np.pi), V)


def mean_width_exact3d(S: InscribedSimplex) -> WidthEstimate:
    """Exact mean width for d = 3 via the signed complex of 24 right triangles:
    w = (1/4pi) sum sigma(T) a_T sin b_T.

    Valid for any inscribed simplex in general position (the signed indicator
    identity does not need the hemisphere cover).
    """
    if S.d != 3:
        raise ValueError("exact3d needs ambient dimension 3")
    value = _complex24_width(*_complex24_core(S._faces)[:3])
    return WidthEstimate(value, 0.0, "exact3d")


def _rotation_to_e1(v: np.ndarray) -> np.ndarray:
    """Orthogonal map sending v to e1 (Householder reflection, or identity)."""
    d = v.shape[0]
    e1 = np.zeros(d)
    e1[0] = 1.0
    w = v - e1
    nw = np.linalg.norm(w)
    if nw < 1e-14:
        return np.eye(d)
    w = w / nw
    return np.eye(d) - 2.0 * np.outer(w, w)


def mean_width_mat(S: InscribedSimplex, n: int, seed: int) -> WidthEstimate:
    """Mean width by the reduced-integral marginal means.

    Each Voronoi cell i is cut into the d! signed path simplices of the
    maximal chains that start at {i}, block i of ``_chain_orders(d + 1)``,
    read by one stacked ``_chain_path`` call; the pieces are rotated together
    so v_i sits at e1, where each reduced simplex lies in the same S^{d-2}.
    So the cell draws one set of n directions on S^{d-2}, cell i with
    seed + i, and every piece adds sign * g_k(theta) 1{theta in T~_k} to one
    per-direction sum G (common random numbers).  The cell's marginal
    mean is c_d mean(G), with std error c_d std(G)/sqrt(n) taken from those
    per-direction cell sums; the cells are independent, so w = 2 sum_i of
    the cell means and its se is 2 sqrt(sum of the cell variances).  A piece
    that no direction hits adds 0 and leaves the estimate unbiased.
    """
    if S.d < 3:
        raise ValueError("the reduced-integral route needs d >= 3")
    d = S.d
    V = S.vertices
    pref = _mat_prefactor(d)
    total = 0.0
    var = 0.0
    for i, orders in enumerate(_chain_orders(d + 1).reshape(d + 1, -1, d)):
        paths, signs = _chain_path(S._faces, orders)
        P = paths @ _rotation_to_e1(V[i]).T  # rotated path vertices, first is e1
        N = _unit_normals(P.transpose(0, 2, 1))
        theta = _reduced_directions(d, n, seed + i)
        G = np.zeros(n)
        for Nk, sign in zip(N, signs):
            try:
                h, H_red = _reduced_cell(HalfspaceCell(Nk))
            except ValueError as exc:
                raise ValueError(f"cell {i}: {exc}") from exc
            inside, g = _reduced_integrand(theta, h, H_red)
            G[inside] += sign * g
        total += G.mean()
        if n > 1:
            var += G.var(ddof=1) / n
    return WidthEstimate(float(2.0 * pref * total), 2.0 * pref * math.sqrt(var),
                         "mat_quadrature")


def regular_simplex(d: int) -> InscribedSimplex:
    """The inscribed regular simplex: pairwise vertex dot products -1/d."""
    if d < 2:
        raise ValueError("d must be >= 2")
    ones = np.ones((1, d + 1))
    _, _, vt = np.linalg.svd(ones)
    V = vt[1:].T  # rows: images of the standard basis in the hyperplane
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    return InscribedSimplex(V)


@lru_cache(maxsize=None)
def regular_tetrahedron_width() -> float:
    """Mean width of the regular inscribed tetrahedron, from the exact
    complex (equals (6/pi) arccos(1/sqrt 3) sqrt(2/3))."""
    return mean_width_exact3d(regular_simplex(3)).value


def regularity_metric(S: InscribedSimplex) -> float:
    """Isometry-invariant distance from regularity: max deviation of the
    pairwise vertex dot products from -1/d."""
    V = S.vertices
    G = V @ V.T
    off = G[~np.eye(len(G), dtype=bool)]
    return float(np.max(np.abs(off + 1.0 / S.d)))


# ---------------------------------------------------------------------------
# Ascent on the product of spheres
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OptimizerState:
    """One accepted ascent state.  width.std_error is 0: an exact width in
    d = 3, and in d >= 4 the fixed-seed objective value, not an exact width.
    In d = 3 step_size is the accepted Armijo step (0 at the start), and
    converged marks |grad| < tol or a stop at round-off (optimize_width)."""

    simplex: InscribedSimplex
    width: WidthEstimate
    iteration: int
    step_size: float
    regularity: float
    converged: bool
    grad_norm: float  # norm of the projected gradient at this simplex


def _normalize_rows(V: np.ndarray) -> np.ndarray:
    return V / np.linalg.norm(V, axis=1, keepdims=True)


_STEP0 = 0.2       # the first step along the gradient; MC steps grow to at most 10 * _STEP0
_MIN_STEP = 1e-13  # MC route: backtracking below this step ends the ascent
_ARMIJO = 1e-4     # exact route: the line search's sufficient-increase constant
_EPS = float(np.finfo(float).eps)


def optimize_width(d: int, init="random", *, max_iter: int = 1000,
                   tol: float = 1e-10, seed: int = 0,
                   mc_samples: int = 100_000) -> list[OptimizerState]:
    """Ascent of the mean width over inscribed simplices; returns the trace
    of accepted states.

    d = 3 uses the exact width from the edge (Steiner) formula
    w = (1/4pi) sum_edges |v_i - v_j| l_ij, l_ij = pi - theta_ij the arc
    between the outward normals of the two facets at edge ij (Schneider,
    Convex Bodies, section 4.2), and its closed-form gradient
    (1/4pi) sum_j l_ij (v_i - v_j)/|v_i - v_j|, in a Riemannian BFGS ascent
    (``_bfgs_ascent``) that stops when |grad| < tol, so tol bounds the
    gradient there, or when no Armijo step raises w measurably.  Higher d
    uses common-random-numbers Monte Carlo with a fixed seed and the exact
    derivative of that fixed-seed objective from the same samples, in a
    step-growing gradient ascent that stops when the gain falls below tol.
    Each point is validated once, as the InscribedSimplex its state keeps
    (the start as given), and evaluated once for value and gradient.
    """
    if mc_samples < 1:
        raise ValueError("mc_samples must be >= 1")
    rng = np.random.default_rng(seed)
    if isinstance(init, InscribedSimplex):
        if init.d != d:
            raise ValueError("init simplex has the wrong dimension")
        S = init
    elif init == "random":
        S = random_simplex(d, rng)
    else:
        raise ValueError("init must be an InscribedSimplex or 'random'")

    method = "exact3d" if d == 3 else "monte_carlo"
    obj_seed = None if d == 3 else int(rng.integers(2 ** 31))

    evaluate = (_exact3d_width_and_gradient if d == 3 else
                lambda S: _mc_width_and_gradient(S, mc_samples, obj_seed))

    def trial(W):
        S = InscribedSimplex(W)  # a flat trial raises DegeneracyError
        return (S, *evaluate(S))

    def make_state(S, w, grad, it, step, converged):
        return OptimizerState(
            simplex=S, width=WidthEstimate(w, 0.0, method), iteration=it,
            step_size=step, regularity=regularity_metric(S), converged=converged,
            grad_norm=float(np.linalg.norm(grad)))

    w, grad = evaluate(S)  # the start is already validated
    if d == 3:
        return _bfgs_ascent(trial, make_state, S, w, grad, max_iter, tol)
    step = _STEP0
    trace = [make_state(S, w, grad, 0, step, False)]
    for it in range(1, max_iter + 1):
        while step >= _MIN_STEP:
            try:
                S_try, w_try, grad_try = trial(_normalize_rows(S.vertices + step * grad))
                if w_try > w:
                    break
            except DegeneracyError:
                pass
            step /= 2.0
        else:
            trace.append(make_state(S, w, grad, it, step, True))
            break
        converged = bool(w_try - w < tol)  # numpy bool in d >= 4 breaks JSON output
        S, w, grad = S_try, w_try, grad_try
        step = min(step * 1.5, 10.0 * _STEP0)
        trace.append(make_state(S, w, grad, it, step, converged))
        if converged:
            break
    return trace


def _bfgs_ascent(trial, make_state, S, w, grad, max_iter, tol):
    """BFGS on the product of spheres (Absil, Mahony and Sepulchre, ch. 8;
    Nocedal and Wright, section 6.1) from the evaluated start S: direction
    H g, or _STEP0 g at the start and whenever H g is no ascent direction
    (which resets H); Armijo steps from t = 1, halved only while the
    predicted gain t g.p exceeds round-off, eps w; tangent projection P at
    the new point as the vector transport (H <- P H P, s and y projected);
    the first H is (s.y / y.y) P, and a pair with s.y <= 0 is skipped."""
    n, d = grad.shape
    eye, blocks = np.eye(n * d), np.kron(np.eye(n), np.ones((d, d)))
    H, converged = None, bool(np.linalg.norm(grad) < tol)
    trace = [make_state(S, w, grad, 0, 0.0, converged)]
    for it in range(1, max_iter + 1):
        if converged:
            break
        g = grad.ravel()
        p = _STEP0 * g if H is None else H @ g
        if g @ p <= 0.0:  # no ascent direction: reset H
            H, p = None, _STEP0 * g
        slope, t = float(g @ p), 1.0
        while t * slope > _EPS * w:
            try:
                S_try, w_try, grad_try = trial(_normalize_rows(S.vertices + t * p.reshape(n, d)))
                if w_try >= w + _ARMIJO * t * slope:
                    break
            except DegeneracyError:
                pass
            t /= 2.0
        else:  # at round-off: no step raises w measurably
            trace.append(make_state(S, w, grad, it, t, True))
            break
        x = S_try.vertices.ravel()
        P = eye - blocks * (x[:, None] * x)  # tangent projection at the new point
        s, y = P @ (x - S.vertices.ravel()), P @ (g - grad_try.ravel())
        sy = float(s @ y)
        H = None if H is None else P @ H @ P
        if sy > 0.0:
            H = (sy / float(y @ y)) * P if H is None else H
            Hy = H @ y
            u = (sy + y @ Hy) / (2.0 * sy) * s - Hy
            H = H + (s[:, None] * u + u[:, None] * s) / sy
        S, w, grad = S_try, w_try, grad_try
        converged = bool(np.linalg.norm(grad) < tol)
        trace.append(make_state(S, w, grad, it, t, converged))
    return trace
