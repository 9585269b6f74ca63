"""Voronoi cells of an inscribed simplex and signed path-simplex decompositions.

The subset-lattice correspondence drives everything: faces of the Voronoi
complex correspond to nonempty vertex subsets of size 1..d, maximal chains
index path simplices (orthoschemes), and each cell splits into d! signed
path simplices by recursive altitude dropping.  One table per simplex holds
the face point of every subset and the side tests that orient it and sign
the chains.  One chain engine reads it: ``_chain_orders`` enumerates the
maximal chains and ``_chain_path`` turns any stack of them into signed path
simplices, so ``maximal_chains``, the path simplex of a chain, the d = 3
complex of 24 right triangles with its angle-sum audit and the pieces of
``width.mean_width_mat`` are the same objects.  A validated
``InscribedSimplex`` decides flatness once and inverts [[V^t], [1^t]] once;
that inverse is the one source of its outward facet normals (the table's
size-d layer, the feasibility cover and the d = 3 edge formula) and of
origin-in-hull.  One normalized inverse, ``sphere._unit_normals``, gives the
facet normals of a path simplex or of a stack of them, so ``gram_matrix``,
``adjacent_dihedral_angles``, the audit's angles and cell areas and MAT's
pieces read the same normals.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .config import DEGENERACY_EPS, GLOBAL_EPS, INGEST_NORM_TOL
from .measures import HalfspaceCell
from .sphere import _unit_normals

__all__ = [
    "DegeneracyError",
    "InscribedSimplex",
    "random_simplex",
    "VoronoiCell",
    "voronoi_cells",
    "equidistant_point",
    "cell_vertex",
    "maximal_chains",
    "SignedPathSimplex",
    "path_simplex_from_chain",
    "decompose_simplex",
    "gram_matrix",
    "adjacent_dihedral_angles",
    "ComplexAudit",
    "right_triangle_complex",
    "FeasibilityReport",
    "feasibility_checks",
]


class DegeneracyError(ValueError):
    """Raised when an input violates the general-position assumptions."""


# ---------------------------------------------------------------------------
# Inscribed simplices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InscribedSimplex:
    """d+1 unit vectors in R^d spanning a full-dimensional simplex."""

    vertices: np.ndarray  # shape (d+1, d), rows are vertices

    def __post_init__(self):
        V = np.asarray(self.vertices, dtype=float)
        object.__setattr__(self, "vertices", V)
        if V.ndim != 2 or V.shape[0] != V.shape[1] + 1 or V.shape[1] < 2:
            raise ValueError("vertices must be a (d+1, d) array with d >= 2")
        norms = np.linalg.norm(V, axis=1)
        if not np.max(np.abs(norms - 1.0)) <= INGEST_NORM_TOL:
            raise ValueError("all vertices must lie on the unit sphere")
        _check_full_dimensional(V)

    @property
    def d(self) -> int:
        return self.vertices.shape[1]

    @cached_property
    def _barycentric_inverse(self) -> np.ndarray:
        """inv([[V^t], [1^t]]): row k holds the gradient of the k-th
        barycentric coordinate in its first d entries, and the last column
        holds the barycentric coordinates of the origin."""
        n, d = self.vertices.shape
        A = np.ones((n, n))
        A[:d] = self.vertices.T
        return np.linalg.inv(A)

    @cached_property
    def _outward_normals(self) -> np.ndarray:
        """Outward unit facet normals, row k opposite v_k (the gradient of
        the k-th barycentric coordinate points from that facet toward v_k);
        the size-d face points of ``_face_table``."""
        N = -self._barycentric_inverse[:, :self.d]
        return N / np.linalg.norm(N, axis=1, keepdims=True)

    @cached_property
    def _contains_origin(self) -> bool:
        """The origin lies in the convex hull: no barycentric coordinate of
        it is negative beyond GLOBAL_EPS."""
        return bool(np.min(self._barycentric_inverse[:, -1]) >= -GLOBAL_EPS)

    @cached_property
    def _faces(self) -> "_Faces":
        # one table per simplex, shared by every face-point and chain query
        return _face_table(self)


def _check_full_dimensional(V: np.ndarray) -> None:
    """Raise DegeneracyError when the d+1 rows of V span a flat simplex."""
    if not abs(np.linalg.det(V[1:] - V[0])) >= DEGENERACY_EPS:
        raise DegeneracyError("vertices are affinely dependent")


def random_simplex(d: int, rng: np.random.Generator,
                   feasible: bool = False) -> InscribedSimplex:
    """Random inscribed simplex; with ``feasible`` rejection-sample until the
    origin lies in the convex hull (which implies hemisphere cover)."""
    if d < 2:
        raise ValueError("d must be >= 2")
    for _ in range(10_000):
        V = rng.standard_normal((d + 1, d))
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        try:
            S = InscribedSimplex(V)
        except ValueError:  # DegeneracyError too
            continue
        if not feasible or S._contains_origin:
            return S
    raise RuntimeError("failed to sample a simplex")


# ---------------------------------------------------------------------------
# Voronoi cells and subset faces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VoronoiCell:
    owner: int
    cell: HalfspaceCell


def voronoi_cells(S: InscribedSimplex) -> list[VoronoiCell]:
    """One halfspace cell per vertex, rows (v_i - v_j)/|v_i - v_j| for j != i."""
    V = S.vertices
    cells = []
    for i in range(S.d + 1):
        rows = []
        for j in range(S.d + 1):
            if j == i:
                continue
            diff = V[i] - V[j]
            n = np.linalg.norm(diff)
            if n < DEGENERACY_EPS:
                raise DegeneracyError(f"vertices {i} and {j} coincide")
            rows.append(diff / n)
        cells.append(VoronoiCell(owner=i, cell=HalfspaceCell(np.array(rows))))
    return cells


class _Faces(NamedTuple):
    """Face points of every vertex subset Q with 1 <= |Q| <= d, indexed by the
    bitmask of Q (rows of the empty and the full set are NaN)."""

    points: np.ndarray  # (2^(d+1), d): oriented face point p(Q)
    side: np.ndarray    # (2^(d+1), d+1): p(Q).(v_q - v_x)/|v_q - v_x|, NaN for x in Q


@lru_cache(maxsize=None)
def _subsets(n: int):
    """Per size k = 1..n-1: bitmasks of the k-subsets of range(n), their
    members in ascending order, and their membership rows."""
    out = []
    for k in range(1, n):
        members = np.array(list(itertools.combinations(range(n), k)))
        masks = np.sum(1 << members, axis=1)
        out.append((masks, members, (masks[:, None] >> np.arange(n)) & 1 == 1))
    return tuple(out)


def _face_table(S: InscribedSimplex) -> _Faces:
    """Every face point of the simplex S, oriented by one closeness test.

    p(Q) is the unit vector of span(V_Q) equidistant from the vertices of Q,
    normalize(V_Q^t (V_Q V_Q^t)^-1 1) (v_q itself when Q = {q}, and the
    facet normal from ``S._outward_normals`` when |Q| = d, which stays
    defined where the facet plane passes through the origin).  It is
    replaced by its antipode exactly when every vertex outside Q is nearer to
    it than Q is, i.e. side[Q, x] < 0 for all x outside Q.  For |Q| = d this
    is the cell-membership sign of the complex vertex.  For smaller Q it is
    the altitude-foot choice of ``_choose_foot``: the coefficient of the
    corner p(all but y) in p(Q) has the sign of side[Q, y], because that
    corner is equidistant from v_q and every v_x with x != y.  The sign of a
    maximal chain Q_1 < ... < Q_d is the product of side[Q_k, x] over its
    levels, with x the vertex Q_{k+1} adds.
    """
    V = S.vertices
    n, d = V.shape
    points = np.full((1 << n, d), np.nan)
    side = np.full((1 << n, n), np.nan)
    dist = np.linalg.norm(V[:, None] - V[None], axis=2)
    np.fill_diagonal(dist, 1.0)
    for masks, members, inside in _subsets(n):
        VQ = V[members]
        if members.shape[1] == 1:
            p = VQ[:, 0]
        elif members.shape[1] == d:
            # the facet normals, row x opposite v_x; a facet plane through
            # the origin leaves them well defined
            p = S._outward_normals[np.argmin(inside, axis=1)]
        else:
            G = VQ @ VQ.transpose(0, 2, 1)
            try:
                c = np.linalg.solve(G, np.ones((*G.shape[:2], 1)))
            except np.linalg.LinAlgError:
                raise DegeneracyError("vertex subset is linearly dependent") from None
            x = np.einsum("mk,mkd->md", c[..., 0], VQ)
            xn = np.linalg.norm(x, axis=1)
            # 1/|x| is the distance from the origin to the affine hull of V_Q;
            # a linearly dependent V_Q can also cancel x to exactly 0
            if not np.all((xn > 0.0) & (xn * DEGENERACY_EPS < 1.0)):
                raise DegeneracyError("equidistance subspace orthogonal to the vertices")
            p = x / xn[:, None]
        q = members[:, 0]
        D = (np.einsum("md,md->m", p, V[q])[:, None] - p @ V.T) / dist[q]
        D[inside] = np.nan
        if not np.all(np.abs(D[~inside]) >= DEGENERACY_EPS):
            raise DegeneracyError("face point equidistant from a vertex outside its subset")
        s = np.where(np.all((D < 0) | inside, axis=1), -1.0, 1.0)[:, None]
        points[masks] = s * p
        side[masks] = s * D
    return _Faces(points, side)


def _subset_mask(S: InscribedSimplex, subset) -> int:
    idx = set(int(i) for i in subset)
    if not (1 <= len(idx) <= S.d):
        raise ValueError("subset size must be between 1 and d")
    if not idx <= set(range(S.d + 1)):
        raise ValueError("subset indices out of range")
    return sum(1 << i for i in idx)


def equidistant_point(S: InscribedSimplex, subset) -> np.ndarray:
    """The face point p(F): unit vector equidistant from the subset's vertices,
    closest to them in arclength."""
    mask = _subset_mask(S, subset)
    p = S._faces.points[mask]
    q = (mask & -mask).bit_length() - 1  # a member of the subset
    return p.copy() if p @ S.vertices[q] > 0 else -p


def cell_vertex(S: InscribedSimplex, subset) -> np.ndarray:
    """Vertex of the Voronoi complex for a size-d subset.

    Same equidistance locus as ``equidistant_point``, but the sign is fixed by
    cell membership (the subset's vertices must beat the excluded one), which
    picks the antipode of the closest equidistant point whenever the excluded
    vertex is nearer than the subset.
    """
    mask = _subset_mask(S, subset)
    if mask.bit_count() != S.d:
        raise ValueError("cell vertices correspond to subsets of size d")
    return S._faces.points[mask].copy()


@lru_cache(maxsize=None)
def _chain_orders(n: int) -> np.ndarray:
    """The (n-1)-permutations of range(n) in lexicographic order, one row per
    maximal chain Q_k = row[:k] of the simplex with n vertices; block i of
    (n-1)! rows holds the chains that start at {i}.  Read-only."""
    orders = np.array(list(itertools.permutations(range(n), n - 1)))
    orders.flags.writeable = False
    return orders


def maximal_chains(d: int) -> list[tuple[frozenset, ...]]:
    """All maximal chains of vertex subsets, sizes 1 through d; (d+1)! of them."""
    return [tuple(frozenset(row[: k + 1]) for k in range(d))
            for row in _chain_orders(d + 1).tolist()]


# ---------------------------------------------------------------------------
# Path simplices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SignedPathSimplex:
    """Ordered path vertices p_1..p_m on the sphere plus a sign in {-1, +1}."""

    vertices: np.ndarray  # shape (m, D), rows in path order
    sign: int

    def __post_init__(self):
        V = np.asarray(self.vertices, dtype=float)
        object.__setattr__(self, "vertices", V)
        if self.sign not in (-1, 1):
            raise ValueError("sign must be -1 or +1")


def gram_matrix(P) -> np.ndarray:
    """Angle Gram matrix N N^t for the unit inward facet normals of a simplex.

    Accepts a SignedPathSimplex, an (m, D) vertex array or an (..., m, D)
    stack of them; normals are the rows of the inverse vertex matrix rescaled
    to unit norm (so each has positive dot product with its opposite vertex).
    Tridiagonal exactly when the vertices form a path simplex.
    """
    V = P.vertices if isinstance(P, SignedPathSimplex) else np.asarray(P, dtype=float)
    m, D = V.shape[-2:]
    M = V.swapaxes(-1, -2)  # columns are vertices
    if D > m:
        # express in an orthonormal basis of the span; Gram is basis-invariant
        M = np.linalg.qr(M)[1]
    det = abs(np.linalg.det(M))
    if (det.min() if det.ndim else det) < GLOBAL_EPS:
        raise DegeneracyError("vertex matrix is singular")
    N = _unit_normals(M)
    return N @ N.swapaxes(-1, -2)


def adjacent_dihedral_angles(P) -> np.ndarray:
    """Dihedral angles between consecutive facets in path order, per simplex
    of what ``gram_matrix`` accepts: theta_{i,i+1} = arccos(-G_{i,i+1})."""
    return _dihedral_angles(gram_matrix(P))


def _dihedral_angles(G: np.ndarray) -> np.ndarray:
    return np.arccos(np.clip(-G.diagonal(1, -2, -1), -1.0, 1.0))


def _side_sign(value: float, what: str) -> int:
    if abs(value) < DEGENERACY_EPS:
        raise DegeneracyError(f"measure-zero configuration: {what}")
    return 1 if value > 0 else -1


def _choose_foot(O_F: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Pick the altitude foot (O_F or its antipode) outside -cone(F).

    The perpendicular great circle from O meets span(F) at two antipodal
    feet.  The signed indicator identity for the sub-decomposition fails
    (by a whole hemisphere) exactly when the foot lies in the antipode of
    the facet, so in that case the construction must use the other foot.
    """
    c, *_ = np.linalg.lstsq(F.T, -O_F, rcond=None)
    if np.min(c) > DEGENERACY_EPS:
        return -O_F
    if np.min(c) > -DEGENERACY_EPS:
        raise DegeneracyError("altitude foot on the antipodal facet boundary")
    return O_F


def _decompose(verts: np.ndarray, O: np.ndarray,
               O_top: np.ndarray) -> list[tuple[int, list[np.ndarray]]]:
    # O is the current path head; O_top is the original end vertex.  Because
    # the facet spans are nested, every altitude foot equals +-(normalized
    # projection of O_top), so projecting O_top keeps the foot choice
    # canonical across recursion orders (decompositions of the same complex
    # agree vertex-for-vertex).
    m = len(verts)
    if m == 2:
        out = []
        for k in range(2):
            x, other = verts[k], verts[1 - k]
            nvec = other - np.dot(other, x) * x
            nn = np.linalg.norm(nvec)
            if nn < DEGENERACY_EPS:
                raise DegeneracyError("arc endpoints coincide or are antipodal")
            s = _side_sign(np.dot(nvec / nn, O), "point on an arc endpoint")
            out.append((s, [O, x]))
        return out
    out = []
    for k in range(m):
        F = np.delete(verts, k, axis=0)
        x = verts[k]
        Q, _ = np.linalg.qr(F.T)  # orthonormal basis of span(F)
        foot = Q @ (Q.T @ O_top)
        fn = np.linalg.norm(foot)
        if fn < DEGENERACY_EPS:
            raise DegeneracyError("altitude foot at the origin")
        O_F = _choose_foot(foot / fn, F)
        nvec = x - Q @ (Q.T @ x)
        nn = np.linalg.norm(nvec)
        if nn < DEGENERACY_EPS:
            raise DegeneracyError("facet spans the whole simplex")
        s = _side_sign(np.dot(nvec / nn, O), "point on a facet span")
        for ssub, path in _decompose(F, O_F, O_top):
            out.append((s * ssub, [O] + path))
    return out


def decompose_simplex(T_vertices: np.ndarray, O: np.ndarray) -> list[SignedPathSimplex]:
    """Signed decomposition of a spherical simplex into m! path simplices
    with end vertex O, by recursive altitude dropping.

    The signed indicator identity sum sigma(T) 1_T = 1_triangle holds almost
    everywhere provided O is not in the antipodal simplex -T; the sign of each
    piece is -1 exactly when the altitude overshoots (O and the opposite
    vertex on opposite sides of the facet span).  At every recursion level
    the foot is chosen among the two antipodal candidates so it avoids the
    antipode of its facet, which is what keeps the identity exact.
    """
    T = np.asarray(T_vertices, dtype=float)
    O = np.asarray(O, dtype=float)
    if T.ndim != 2 or T.shape[0] < 2:
        raise ValueError("need at least two vertices")
    pieces = _decompose(T, O, O)
    if len(pieces) != math.factorial(T.shape[0]):
        raise RuntimeError(f"decomposition produced {len(pieces)} pieces, "
                           f"expected {math.factorial(T.shape[0])}")
    return [SignedPathSimplex(np.array(path), s) for s, path in pieces]


def path_simplex_from_chain(S: InscribedSimplex, chain) -> SignedPathSimplex:
    """Path simplex of a maximal chain: vertices p(Q_1)..p(Q_d) in chain order,
    with the decomposition sign from per-level side tests."""
    d = S.d
    chain = tuple(frozenset(int(i) for i in Q) for Q in chain)
    if len(chain) != d or any(len(Q) != k + 1 for k, Q in enumerate(chain)):
        raise ValueError("chain must have subset sizes 1 through d")
    for small, big in zip(chain, chain[1:]):
        if not small < big:
            raise ValueError("chain must be strictly increasing under inclusion")
    if not chain[-1] <= frozenset(range(d + 1)):
        raise ValueError("chain indices out of range")
    order = [*chain[0]] + [x for small, big in zip(chain, chain[1:]) for x in big - small]
    pts, sign = _chain_path(S._faces, order)
    return SignedPathSimplex(pts, int(sign))


def _chain_path(faces: _Faces, orders) -> tuple[np.ndarray, np.ndarray]:
    """Path vertices p(Q_1)..p(Q_d) and sign of the chain Q_k = order[:k], for
    one order or a stack of them (the last axis runs along the chain).

    Returns the points, shape (..., d, d), and the signs, shape (...), as
    +-1.0.  The sign multiplies side[Q_k, x] over the levels, x = order[k]
    the vertex the next subset adds; the first level is always positive.
    """
    orders = np.asarray(orders)
    masks = np.cumsum(1 << orders, axis=-1)
    signs = np.prod(np.sign(faces.side[masks[..., :-1], orders[..., 1:]]), axis=-1)
    return faces.points[masks], signs


# ---------------------------------------------------------------------------
# The d = 3 complex of 24 right triangles
# ---------------------------------------------------------------------------

def _complex24_core(faces: _Faces):
    """Vectorized 24-triangle complex of a d=3 inscribed simplex, read from
    its face table.

    The triangles are the path simplices (v_i, m_ij, q) of the 24 maximal
    chains {i} < {i, j} < {i, j, k}, in ``_chain_orders(4)`` order: m_ij the
    altitude foot of cell i toward v_j and q the triple point of {i, j, k}.
    Returns (sigma, a, b, paths) with, per triangle, the decomposition sign,
    the leg a = arc(m_ij, q) opposite the apex v_i, the leg
    b = arc(v_i, m_ij) along the altitude, and the path vertices (24, 3, 3).
    """
    paths, sigma = _chain_path(faces, _chain_orders(4))
    v, m, q = paths[:, 0], paths[:, 1], paths[:, 2]
    b = np.arccos(np.clip(np.einsum("kd,kd->k", v, m), -1.0, 1.0))
    a = np.arccos(np.clip(np.einsum("kd,kd->k", m, q), -1.0, 1.0))
    if np.min(a) < DEGENERACY_EPS or np.min(b) < DEGENERACY_EPS:
        raise DegeneracyError("degenerate right triangle in the complex")
    return sigma, a, b, paths


def _triangle_angles(T: np.ndarray) -> np.ndarray:
    """Interior angles of a stack of spherical triangles, vertex rows T: the
    angle at vertex k is the angle between the unit inward normals n_i and
    -n_j, {i, j, k} = {0, 1, 2}, taken as 2 atan2(|n_i + n_j|, |n_i - n_j|)
    (Kahan), which keeps full precision near 0 and pi where
    arccos(-n_i . n_j) does not.  No singularity guard."""
    N = _unit_normals(T.swapaxes(-1, -2))
    a, b = N[..., [1, 0, 0], :], N[..., [2, 2, 1], :]
    return 2.0 * np.arctan2(np.linalg.norm(a + b, axis=-1),
                            np.linalg.norm(a - b, axis=-1))


@dataclass(frozen=True)
class ComplexAudit:
    """Angle bookkeeping for the 24-triangle complex (Girard-style audit)."""

    vertex_angle_sums: np.ndarray      # signed sums at each v_i, target 2*pi
    total_vertex_angle_sum: float      # target 8*pi
    other_angle_sum: float             # signed sum of the 24 non-right angles
    other_angle_target: float          # Girard closure, see right_triangle_complex
    cell_area_sum: float               # Girard areas of the 4 cells, target 4*pi
    sign_total: int                    # sum of the 24 signs (24 iff no overshoot)
    max_angle: float                   # largest unsigned angle in the complex
    cover_holds: bool
    vertex_sums_ok: bool
    total_ok: bool
    other_ok: bool
    angles_ok: bool                    # no angle beyond pi/2 (only when covered)

    @property
    def all_ok(self) -> bool:
        checks = [self.vertex_sums_ok, self.total_ok, self.other_ok]
        if self.cover_holds:
            checks.append(self.angles_ok)
        return all(checks)


_AUDIT_TOL = 1e-9  # the audit's tolerance on its angle sums


def right_triangle_complex(S: InscribedSimplex):
    """The 24 signed right triangles of a d = 3 inscribed simplex plus audit.

    Each Voronoi cell S_i contributes the six triangles (v_i, m_ij, p_ijk)
    from its altitude decomposition, the path simplices of the chains
    ``maximal_chains(3)`` in that order.  The audit checks the signed angle
    sums (2*pi per vertex, 8*pi total), the Girard bookkeeping for the
    non-right angles, and, when the hemisphere cover holds, that no angle
    exceeds pi/2.

    The non-right-angle check is the Girard closure of the signed area
    identity sum sigma(T) area(T) = sum_i area(S_i): the steradian cell areas
    always total 4*pi, so the target for the signed sum of the 24 non-right
    angles is cell_area_sum + (pi/2) * sign_total - total_vertex_angle_sum.
    When every sign is +1 (no altitude overshoots) this reduces to
    4*pi + cell_area_sum, i.e. 4*pi + 4*pi.
    """
    if S.d != 3:
        raise ValueError("the 24-triangle complex is a d = 3 construction")
    sigma, _, _, paths = _complex24_core(S._faces)
    triangles = [SignedPathSimplex(P, int(s)) for P, s in zip(paths, sigma)]
    return triangles, _complex24_audit(S, sigma, paths)


def _complex24_audit(S: InscribedSimplex, sigma, paths) -> ComplexAudit:
    """The audit of ``right_triangle_complex`` from the signs and paths that
    ``_complex24_core`` returns for S."""
    q = S._outward_normals  # q_l, the triple point excluding v_l

    # per triangle (v_i, m_ij, q): the angles at v_i, at m_ij (right) and at q
    angles = _triangle_angles(paths)
    vertex_sums = np.zeros(4)
    np.add.at(vertex_sums, _chain_orders(4)[:, 0], sigma * angles[:, 0])
    other_sum = float(np.sum(sigma * angles[:, 2]))
    # cell i is the triangle of the q_l with l != i; Girard: angle sum - pi
    corners = np.stack([np.delete(q, i, axis=0) for i in range(4)])
    cell_area_sum = float(np.sum(_triangle_angles(corners)) - 4 * np.pi)

    cover = feasibility_checks(S).hemisphere_cover
    max_angle = float(angles.max())
    sign_total = int(np.sum(sigma))
    total_vertex = float(vertex_sums.sum())
    other_target = cell_area_sum + (np.pi / 2) * sign_total - total_vertex

    return ComplexAudit(
        vertex_angle_sums=vertex_sums,
        total_vertex_angle_sum=total_vertex,
        other_angle_sum=other_sum,
        other_angle_target=float(other_target),
        cell_area_sum=cell_area_sum,
        sign_total=sign_total,
        max_angle=max_angle,
        cover_holds=cover,
        vertex_sums_ok=bool(np.max(np.abs(vertex_sums - 2 * np.pi)) < _AUDIT_TOL),
        total_ok=abs(total_vertex - 8 * np.pi) < _AUDIT_TOL,
        other_ok=abs(other_sum - other_target) < _AUDIT_TOL,
        angles_ok=max_angle <= np.pi / 2 + _AUDIT_TOL,
    )


# ---------------------------------------------------------------------------
# Feasibility
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeasibilityReport:
    origin_in_hull: bool
    vertices_on_sphere: bool
    hemisphere_cover: bool

    @property
    def all_ok(self) -> bool:
        return self.origin_in_hull and self.vertices_on_sphere and self.hemisphere_cover


def feasibility_checks(S: InscribedSimplex) -> FeasibilityReport:
    """Necessary conditions for a mean-width maximizer: origin in the hull,
    vertices on the sphere, and the closed hemispheres at the vertices
    covering the sphere.

    The cover is decided exactly at the outward facet normals, which are the
    complex vertices p(Q), |Q| = d, so no face table is built and nothing
    raises.  The cells tile the sphere, cell i is the cone generated by its d
    complex vertices q, and u . v_i is linear, so u . v_i >= 0 on the whole
    cell once q . v_i >= 0 at every generator.  By Gordan's theorem the cover
    holds exactly when the origin is in the hull.
    """
    V = S.vertices
    on_sphere = bool(np.max(np.abs(np.linalg.norm(V, axis=1) - 1.0))
                     <= INGEST_NORM_TOL)
    cover = bool(np.min(np.max(S._outward_normals @ V.T, axis=1)) >= -GLOBAL_EPS)
    return FeasibilityReport(origin_in_hull=S._contains_origin,
                             vertices_on_sphere=on_sphere, hemisphere_cover=cover)
