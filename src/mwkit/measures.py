"""Spherical measure theory: Wallis integrals, cap measures, marginal means.

Conventions.  ``mu`` always denotes the uniform *probability* measure on the
sphere; every marginal-mean routine here is normalized against mu.  The one
exception is ``centroid_brock``, which is stated for the steradian surface
measure on S^2 (the two differ by a factor 4*pi).

The closed forms for spherical triangles come from one moment identity, the
spherical Minkowski relation: for a spherical simplex P in S^{d-1},
int_P u dA = (1/(d-1)) sum_F vol_{d-2}(F) n_F with n_F the inward unit normal
of facet F (the divergence theorem, since Delta u = -(d-1) u for linear u).
``_moment`` evaluates it; ``triangle_marginal_mean`` and ``centroid_brock``
read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

from .config import GLOBAL_EPS
from .sphere import (_check_nondegenerate_triangle, _unit_normals, arc_length,
                     spherical_triangle_area)

__all__ = [
    "wallis_complete",
    "wallis_table",
    "wallis_incomplete",
    "cap_measure",
    "MarginalMean",
    "cap_marginal_mean",
    "right_triangle_marginal_mean",
    "triangle_marginal_mean",
    "centroid_brock",
    "HalfspaceCell",
    "cell_marginal_mean_MAT",
]


# ---------------------------------------------------------------------------
# Wallis integrals and cap measures
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def wallis_complete(d: int) -> float:
    """Complete Wallis integral W^d = int_0^pi sin^d t dt.

    Computed from the recursion W^d = ((d-1)/d) W^{d-2} with W^0 = pi,
    W^1 = 2.
    """
    if d < 0:
        raise ValueError("d must be nonnegative")
    if d == 0:
        return float(np.pi)
    if d == 1:
        return 2.0
    return (d - 1) / d * wallis_complete(d - 2)


def wallis_table(d_max: int) -> np.ndarray:
    """Array of W^d for d = 0..d_max."""
    return np.array([wallis_complete(d) for d in range(d_max + 1)])


def wallis_incomplete(d: int, r: float) -> float:
    """Incomplete Wallis integral int_0^r sin^d t dt via the stable recursion.

    W^d(r) = ((d-1)/d) W^{d-2}(r) - (1/d) cos r sin^{d-1} r, with
    W^0(r) = r and W^1(r) = 1 - cos r.
    """
    if d < 0:
        raise ValueError("d must be nonnegative")
    if not (0.0 <= r <= np.pi):
        raise ValueError("r must lie in [0, pi]")
    if d == 0:
        return float(r)
    if d == 1:
        return float(1.0 - np.cos(r))
    return float((d - 1) / d * wallis_incomplete(d - 2, r)
                 - np.cos(r) * np.sin(r) ** (d - 1) / d)


def cap_measure(d: int, r: float) -> float:
    """Probability mass of a geodesic cap of radius r in S^{d-1}."""
    if d < 2:
        raise ValueError("cap_measure needs ambient dimension d >= 2")
    if not (0.0 <= r <= np.pi):
        raise ValueError("r must lie in [0, pi]")
    return wallis_incomplete(d - 2, r) / wallis_complete(d - 2)


# ---------------------------------------------------------------------------
# Marginal means
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MarginalMean:
    """Average of X . axis over a region, weighted by the sub-probability mass.

    ``std_error`` is zero for closed-form results and the Monte Carlo standard
    error otherwise.
    """

    value: float
    std_error: float = 0.0
    region: str = ""

    def __post_init__(self):
        if not abs(self.value) <= 1.0 + GLOBAL_EPS:
            raise ValueError("a marginal mean cannot exceed 1 in absolute value")


def cap_marginal_mean(d: int, r: float) -> MarginalMean:
    """M_{e1} of a cap of radius r in S^{d-1}: sin^{d-1} r / ((d-1) W^{d-2})."""
    if d < 2:
        raise ValueError("need ambient dimension d >= 2")
    if not (0.0 <= r <= np.pi):
        raise ValueError("r must lie in [0, pi]")
    val = np.sin(r) ** (d - 1) / ((d - 1) * wallis_complete(d - 2))
    return MarginalMean(float(val), 0.0, region=f"cap(d={d}, r={r})")


def _right_marginal_value(a: float, b: float) -> float:
    # a sin(b) / (8 pi); valid for a in (0, pi), b in (0, pi/2]
    return a * np.sin(b) / (8.0 * np.pi)


def right_triangle_marginal_mean(a: float, b: float) -> MarginalMean:
    """M_A of the right triangle with legs a (opposite A) and b, at sigma=+1.

    Under the uniform probability measure the value is a sin(b) / (8 pi).
    """
    if not (0.0 < a <= np.pi / 2) or not (0.0 < b <= np.pi / 2):
        raise ValueError("legs must lie in (0, pi/2]")
    return MarginalMean(_right_marginal_value(a, b), 0.0,
                        region=f"right_triangle(a={a}, b={b})")


def _moment(T: np.ndarray, face_volumes: np.ndarray) -> np.ndarray:
    """int_T u dA (surface measure) of the spherical simplex with vertex rows
    T in S^{d-1} by the moment identity: face_volumes @ N / (d - 1), N the
    inward unit facet normals and face_volumes[i] the (d-2)-volume of the
    facet opposite row i.  No degeneracy guard."""
    return face_volumes @ _unit_normals(T.T) / (T.shape[0] - 1)


def triangle_marginal_mean(A: np.ndarray, B: np.ndarray, C: np.ndarray) -> MarginalMean:
    """M_A of a general spherical triangle, A . _moment / (4 pi).

    Equals a sin(b) sin(C) / (8 pi), with sides a = BC, b = CA and C the
    angle at C.
    """
    T = np.array([A, B, C], dtype=float)
    _check_nondegenerate_triangle(*T)
    m = _moment(T, arc_length(T[[1, 2, 0]], T[[2, 0, 1]]))  # sides a, b, c
    return MarginalMean(float(T[0] @ m) / (4.0 * np.pi), 0.0, region="triangle")


def centroid_brock(A: np.ndarray, B: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Spherical centroid G (not unit) of triangle ABC, steradian measure.

    2 [ABC] G = sigma sum_cyc (B x C) a / sin a (Brock), with [ABC] the
    Girard area and sigma the sign of det[A B C]; G = (integral of X dA) /
    [ABC], read from ``_moment``.
    """
    T = np.array([A, B, C], dtype=float)
    area = spherical_triangle_area(*T)
    return _moment(T, arc_length(T[[1, 2, 0]], T[[2, 0, 1]])) / area


# ---------------------------------------------------------------------------
# Halfspace cells and the reduced-integral marginal mean
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HalfspaceCell:
    """A spherical simplex cell {u in S^{d-1} : H u >= 0}.

    Rows of H are the inward hemisphere normals (unit vectors); H is square
    and invertible for a proper simplex cell.
    """

    H: np.ndarray

    def __post_init__(self):
        H = np.asarray(self.H, dtype=float)
        object.__setattr__(self, "H", H)
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise ValueError("H must be square (d rows of inward normals)")
        norms = np.linalg.norm(H, axis=1)
        if not np.max(np.abs(norms - 1.0)) <= GLOBAL_EPS:
            raise ValueError("rows of H must be unit vectors")
        if not abs(np.linalg.det(H)) >= GLOBAL_EPS:
            raise ValueError("H is singular: not a proper simplex cell")

    @property
    def d(self) -> int:
        return self.H.shape[0]

    def contains(self, u: np.ndarray) -> np.ndarray:
        """Membership H u >= 0; u may be a single point or an (n, d) array."""
        u = np.asarray(u, dtype=float)
        return np.all(u @ self.H.T >= 0.0, axis=-1)


@cache
def _check_mat_prefactor() -> None:
    # octant regression, run once per process: with prefactor
    # 1/((d-1) W^{d-2}) the octant cell in S^2 gives
    # prefactor * mu(quarter circle) = (1/4)(1/4) = 1/16, the value of the
    # closed form a sin b / (8 pi) at a = b = pi/2
    pref = 1.0 / ((3 - 1) * wallis_complete(3 - 2))
    closed = _right_marginal_value(np.pi / 2, np.pi / 2)
    if abs(pref * 0.25 - closed) > GLOBAL_EPS:
        raise AssertionError(
            "MAT prefactor self-test failed: 1/((d-1) W^{d-2}) does not "
            "reproduce the d=3 closed form on the octant")


def _mat_prefactor(d: int, denominator: str = "d-1") -> float:
    """c_d = 1/((d-1) W^{d-2}), after the one-time octant self-test."""
    _check_mat_prefactor()
    if denominator == "d-1":
        return 1.0 / ((d - 1) * wallis_complete(d - 2))
    if denominator == "d-2":
        return 1.0 / ((d - 2) * wallis_complete(d - 2))
    raise ValueError("prefactor_denominator must be 'd-1' or 'd-2'")


def _reduced_cell(cell: HalfspaceCell) -> np.ndarray:
    """H with the row of largest |first entry| moved first: the facet of a
    cell with vertex e1 that does not pass through e1."""
    k = int(np.argmax(np.abs(cell.H[:, 0])))
    return cell.H[[k] + [i for i in range(cell.d) if i != k]]


def _reduced_directions(d: int, n: int, seed: int) -> np.ndarray:
    """n seeded uniform directions theta on S^{d-2}, the columns of a
    (d-1, n) array."""
    if n < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    theta = np.ascontiguousarray(rng.standard_normal((n, d - 1)).T)
    theta /= np.linalg.norm(theta, axis=0)
    return theta


# |first entry| bound of a piece's rows through e1; row 0 lies above it
_E1_TOL = 1e-9


def _reduced_sum(N: np.ndarray, signs, theta: np.ndarray) -> np.ndarray:
    """Per-direction signed sum G = sum_k signs[k] g_k(theta) 1{theta in T~_k}
    over a (pieces, d, d) stack N of inward unit-normal matrices of cells
    with vertex e1, row 0 the facet opposite e1; theta holds n directions on
    S^{d-2} as the columns of a (d-1, n) array.  T~_k is
    {theta : N[k, 1:, 1:] theta >= 0} and g_k = (1 + (theta . h_k)^2)^{(1-d)/2}
    with h_k = N[k, 0, 1:] / N[k, 0, 0].  Raises ValueError unless every
    piece has |det| >= GLOBAL_EPS and a first column that is a positive
    multiple of e1.  Adds one piece at a time: memory is one (d, n) product.
    """
    d = N.shape[-1]
    if d < 3:
        raise ValueError("the reduced integral needs ambient dimension d >= 3")
    first = N[:, :, 0]
    if not np.all(np.abs(np.linalg.det(N)) >= GLOBAL_EPS):
        raise ValueError("a piece is singular: not a proper simplex cell")
    if not (np.all(first[:, 0] > _E1_TOL) and np.all(np.abs(first[:, 1:]) <= _E1_TOL)):
        raise ValueError("a piece does not have e1 as a vertex (its first column "
                         "of normals is not a positive multiple of e1)")
    # per piece the rows of N[k, 1:, 1:], then h_k: one product gives both
    A = np.concatenate([N[:, 1:, 1:], (N[:, 0, 1:] / first[:, :1])[:, None]], axis=1)
    G = np.zeros(theta.shape[1])
    for Ak, sign in zip(A, signs):
        P = Ak @ theta
        inside = np.flatnonzero(P[:-1].min(axis=0) >= 0.0)
        G[inside] += sign * (1.0 + P[-1, inside] ** 2) ** ((1 - d) / 2.0)
    return G


# cell_marginal_mean_MAT raises below this share of directions inside T~
_MIN_ACCEPTANCE = 1e-6


def cell_marginal_mean_MAT(cell: HalfspaceCell, n_samples: int, seed: int,
                           *, prefactor_denominator: str = "d-1") -> MarginalMean:
    """M_{e1} of a simplex cell with vertex e1, by the reduced integral.

    Evaluates c_d * int_{T~} (1 + (theta . h)^2)^{(1-d)/2} dmu(theta) by
    rejection Monte Carlo: n_samples uniform directions on S^{d-2} drawn from
    ``seed``, the integrand counted as 0 outside the reduced simplex T~
    (sub-matrix of H with first row and column removed), h the normalized
    off-axis part of the facet opposite e1 and c_d = 1/((d-1) W^{d-2}).
    Raises ValueError when fewer than ``_MIN_ACCEPTANCE * n_samples``
    directions land in T~.  The cell, its facet opposite e1 moved first, is
    a stack of one piece for ``_reduced_sum``; ``mean_width_mat`` runs the
    same kernel on all the pieces of a Voronoi cell with one draw.

    ``prefactor_denominator`` exists only as a regression hook: passing
    "d-2" selects the (provably wrong) alternative normalization so tests can
    show it fails the octant check.
    """
    pref = _mat_prefactor(cell.d, prefactor_denominator)
    theta = _reduced_directions(cell.d, n_samples, seed)
    g = _reduced_sum(_reduced_cell(cell)[None], (1.0,), theta)
    # the integrand is positive, so g is nonzero exactly on the hits
    if np.count_nonzero(g) < _MIN_ACCEPTANCE * n_samples:
        raise ValueError("rejection acceptance rate below threshold: "
                         "cell too thin for naive sampling")
    se = g.std(ddof=1) / np.sqrt(n_samples) if n_samples > 1 else 0.0
    return MarginalMean(float(pref * g.mean()), float(pref * se), region="cell(MAT)")
