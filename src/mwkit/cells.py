"""Voronoi cells of an inscribed simplex and signed path-simplex decompositions.

The subset-lattice correspondence drives everything: faces of the Voronoi
complex correspond to nonempty vertex subsets of size 1..d, maximal chains
index path simplices (orthoschemes), and each cell splits into d! signed
path simplices by recursive altitude dropping.  Dimension 3 gets a fast
vectorized path producing the complex of 24 right triangles with its
angle-sum audit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .config import DEGENERACY_EPS, GLOBAL_EPS, INGEST_NORM_TOL
from .measures import HalfspaceCell
from .sphere import arc_length, vertex_angle

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
        if np.max(np.abs(norms - 1.0)) > INGEST_NORM_TOL:
            raise ValueError("all vertices must lie on the unit sphere")
        diffs = V[1:] - V[0]
        if abs(np.linalg.det(diffs)) < DEGENERACY_EPS:
            raise DegeneracyError("vertices are affinely dependent")

    @property
    def d(self) -> int:
        return self.vertices.shape[1]


def random_simplex(d: int, rng: np.random.Generator,
                   feasible: bool = False, max_tries: int = 10_000) -> InscribedSimplex:
    """Random inscribed simplex; with ``feasible`` rejection-sample until the
    origin lies in the convex hull (which implies hemisphere cover)."""
    for _ in range(max_tries):
        V = rng.standard_normal((d + 1, d))
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        try:
            S = InscribedSimplex(V)
        except (ValueError, DegeneracyError):
            continue
        if not feasible or _origin_in_hull(V):
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


def equidistant_point(S: InscribedSimplex, subset) -> np.ndarray:
    """The face point p(F): unit vector equidistant from the subset's vertices,
    closest to them in arclength.

    Computed by projecting a member vertex onto the subspace orthogonal to the
    pairwise differences and normalizing.
    """
    idx = sorted(set(int(i) for i in subset))
    if not (1 <= len(idx) <= S.d):
        raise ValueError("subset size must be between 1 and d")
    if any(i < 0 or i > S.d for i in idx):
        raise ValueError("subset indices out of range")
    v0 = S.vertices[idx[0]]
    if len(idx) == 1:
        return v0.copy()
    diffs = S.vertices[idx[1:]] - v0
    _, _, vt = np.linalg.svd(diffs, full_matrices=False)
    B = vt[: len(idx) - 1]  # orthonormal basis of the difference span
    p = v0 - B.T @ (B @ v0)
    n = np.linalg.norm(p)
    if n < GLOBAL_EPS:
        raise DegeneracyError("equidistance subspace orthogonal to the vertex")
    return p / n


def cell_vertex(S: InscribedSimplex, subset) -> np.ndarray:
    """Vertex of the Voronoi complex for a size-d subset.

    Same equidistance locus as ``equidistant_point``, but the sign is fixed by
    cell membership (the subset's vertices must beat the excluded one), which
    picks the antipode of the closest equidistant point whenever the excluded
    vertex is nearer than the subset.
    """
    idx = sorted(set(int(i) for i in subset))
    if len(idx) != S.d:
        raise ValueError("cell vertices correspond to subsets of size d")
    (excl,) = set(range(S.d + 1)) - set(idx)
    q = equidistant_point(S, idx)
    s = np.dot(q, S.vertices[idx[0]] - S.vertices[excl])
    if abs(s) < DEGENERACY_EPS:
        raise DegeneracyError("complex vertex equidistant from all d+1 vertices")
    return q if s > 0 else -q


def maximal_chains(d: int) -> list[tuple[frozenset, ...]]:
    """All maximal chains of vertex subsets, sizes 1 through d; (d+1)! of them."""
    chains = []
    for seq in itertools.permutations(range(d + 1), d):
        chains.append(tuple(frozenset(seq[: k + 1]) for k in range(d)))
    return chains


# ---------------------------------------------------------------------------
# Path simplices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SignedPathSimplex:
    """Ordered path vertices p_1..p_m on the sphere plus a sign in {-1, +1}."""

    vertices: np.ndarray  # shape (m, D), rows in path order
    sign: int
    chain: tuple[frozenset, ...] | None = None

    def __post_init__(self):
        V = np.asarray(self.vertices, dtype=float)
        object.__setattr__(self, "vertices", V)
        if self.sign not in (-1, 1):
            raise ValueError("sign must be -1 or +1")


def gram_matrix(P) -> np.ndarray:
    """Angle Gram matrix N N^t for the unit inward facet normals of a simplex.

    Accepts a SignedPathSimplex or an (m, D) vertex array; normals are the
    rows of the inverse vertex matrix rescaled to unit norm (so each has
    positive dot product with its opposite vertex).  Tridiagonal exactly when
    the vertices form a path simplex.
    """
    V = P.vertices if isinstance(P, SignedPathSimplex) else np.asarray(P, dtype=float)
    m, D = V.shape
    M = V.T  # columns are vertices
    if D > m:
        # express in an orthonormal basis of the span; Gram is basis-invariant
        q, r = np.linalg.qr(M)
        M = r
    if abs(np.linalg.det(M)) < GLOBAL_EPS:
        raise DegeneracyError("vertex matrix is singular")
    N = np.linalg.inv(M)  # row i is normal to the facet opposite p_i
    N /= np.linalg.norm(N, axis=1, keepdims=True)
    return N @ N.T


def adjacent_dihedral_angles(P) -> np.ndarray:
    """Dihedral angles between consecutive facets in path order,
    theta_{i,i+1} = arccos(-G_{i,i+1}); m-1 values in (0, pi)."""
    G = gram_matrix(P)
    off = np.diagonal(G, offset=1)
    return np.arccos(np.clip(-off, -1.0, 1.0))


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
    # faces of size < d are iterated altitude feet with the foot chosen away
    # from the antipode of the complex face; the top face of size d is a
    # complex vertex, whose sign is fixed by cell membership instead
    all_idx = frozenset(range(d + 1))
    pts = [S.vertices[next(iter(chain[0]))].copy()]
    for Q in chain[1:-1]:
        corners = np.array([
            cell_vertex(S, Q | frozenset(extra))
            for extra in itertools.combinations(sorted(all_idx - Q), d - len(Q))
        ])
        pts.append(_choose_foot(equidistant_point(S, Q), corners))
    pts.append(cell_vertex(S, chain[-1]))
    sign = 1
    for lvl in range(d - 1):
        Q_next = chain[lvl + 1]
        (x,) = Q_next - chain[lvl]
        # corners of the complex face for Q_next: size-d supersets
        facet_pts = [cell_vertex(S, Q_next | frozenset(extra))
                     for extra in itertools.combinations(sorted(all_idx - Q_next),
                                                         d - len(Q_next))]
        opp = cell_vertex(S, all_idx - {x})
        F = np.array(facet_pts)
        Q_basis, _ = np.linalg.qr(F.T)
        nvec = opp - Q_basis @ (Q_basis.T @ opp)
        nn = np.linalg.norm(nvec)
        if nn < DEGENERACY_EPS:
            raise DegeneracyError("opposite face point lies in the facet span")
        sign *= _side_sign(np.dot(nvec / nn, pts[lvl]), "chain point on a facet span")
    return SignedPathSimplex(np.array(pts), sign, chain=chain)


# ---------------------------------------------------------------------------
# The d = 3 complex of 24 right triangles
# ---------------------------------------------------------------------------

# static index tables for the 24 records (cell i, neighbor j, endpoint c)
_OTH = [tuple(x for x in range(4) if x != l) for l in range(4)]
_PAIRS = list(itertools.combinations(range(4), 2))
_PAIR_IDX = {p: k for k, p in enumerate(_PAIRS)}

_REC = []
for _i in range(4):
    for _j in range(4):
        if _j == _i:
            continue
        for _c in range(4):
            if _c in (_i, _j):
                continue
            _c2 = next(x for x in range(4) if x not in (_i, _j, _c))
            _REC.append((_i, _j, _c, _c2, _PAIR_IDX[tuple(sorted((_i, _j)))]))
_R_I = np.array([r[0] for r in _REC])
_R_J = np.array([r[1] for r in _REC])
_R_C = np.array([r[2] for r in _REC])
_R_C2 = np.array([r[3] for r in _REC])
_R_P = np.array([r[4] for r in _REC])
_PAIR_A = np.array([p[0] for p in _PAIRS])
_PAIR_B = np.array([p[1] for p in _PAIRS])
# the two indices outside each pair: the complex face of pair (i, j) is the
# arc between the triple points q_k, k not in {i, j}
_PAIR_OTH = np.array([[x for x in range(4) if x not in p] for p in _PAIRS])


def _triple_points(V: np.ndarray) -> np.ndarray:
    """q[l]: the complex vertex of the vertex triple excluding l (d = 3).

    Sign chosen by cell membership, q . (v_a - v_l) > 0, not by closeness to
    the triple: when the excluded vertex beats the triple the complex vertex
    sits at the antipode of the nearest equidistant point.
    """
    q = np.empty((4, 3))
    for l in range(4):
        a_, b_, c_ = _OTH[l]
        n = np.cross(V[a_] - V[b_], V[a_] - V[c_])
        nn = np.linalg.norm(n)
        if nn < DEGENERACY_EPS:
            raise DegeneracyError("three vertices on a common great circle")
        n = n / nn
        s = np.dot(n, V[a_] - V[l])
        if abs(s) < DEGENERACY_EPS:
            raise DegeneracyError("complex vertex equidistant from all four vertices")
        q[l] = n if s > 0 else -n
    return q


def _complex24_core(V: np.ndarray):
    """Vectorized 24-triangle complex of a d=3 inscribed simplex.

    Returns (sigma, a, b, q, mids) with, per record, the decomposition sign,
    the leg a = arc(m_ij, q_c) opposite the apex v_i, and the leg
    b = arc(v_i, m_ij) along the altitude.
    """
    q = _triple_points(V)
    mids = V[_PAIR_A] + V[_PAIR_B]
    mn = np.linalg.norm(mids, axis=1)
    if np.min(mn) < DEGENERACY_EPS:
        raise DegeneracyError("antipodal vertex pair")
    mids /= mn[:, None]
    # foot choice: the shared altitude foot of pair (i, j) must avoid the
    # antipode of the complex face arc between its two triple points
    for t in range(6):
        mids[t] = _choose_foot(mids[t], q[_PAIR_OTH[t]])

    vi = V[_R_I]
    m = mids[_R_P]
    qc = q[_R_C]
    qc2 = q[_R_C2]
    # side test 1: opposite cell vertex q_j versus the bisector plane of (i, j);
    # v_i is always on the positive side
    t1 = np.einsum("kd,kd->k", q[_R_J], V[_R_I] - V[_R_J])
    # side test 2: within the bisector plane, m_ij versus span{q_c}, with the
    # other endpoint q_c2 on the positive side
    n2 = qc2 - np.einsum("kd,kd->k", qc2, qc)[:, None] * qc
    t2 = np.einsum("kd,kd->k", n2, m)
    if np.min(np.abs(t1)) < DEGENERACY_EPS or np.min(np.abs(t2)) < DEGENERACY_EPS:
        raise DegeneracyError("altitude foot on a facet boundary")
    sigma = np.sign(t1) * np.sign(t2)

    b = np.arccos(np.clip(np.einsum("kd,kd->k", vi, m), -1.0, 1.0))
    a = np.arccos(np.clip(np.einsum("kd,kd->k", m, qc), -1.0, 1.0))
    if np.min(a) < DEGENERACY_EPS or np.min(b) < DEGENERACY_EPS:
        raise DegeneracyError("degenerate right triangle in the complex")
    return sigma, a, b, q, mids


def _angles_between(at: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Vectorized interior angle at ``at`` between arcs toward y and z."""
    t1 = y - np.einsum("kd,kd->k", y, at)[:, None] * at
    t2 = z - np.einsum("kd,kd->k", z, at)[:, None] * at
    t1 /= np.linalg.norm(t1, axis=1, keepdims=True)
    t2 /= np.linalg.norm(t2, axis=1, keepdims=True)
    return np.arccos(np.clip(np.einsum("kd,kd->k", t1, t2), -1.0, 1.0))


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


def right_triangle_complex(S: InscribedSimplex, tol: float = 1e-9):
    """The 24 signed right triangles of a d = 3 inscribed simplex plus audit.

    Each Voronoi cell S_i contributes the six triangles (v_i, m_ij, p_ijk)
    from its altitude decomposition.  The audit checks the signed angle sums
    (2*pi per vertex, 8*pi total), the Girard bookkeeping for the non-right
    angles, and, when the hemisphere cover holds, that no angle exceeds pi/2.

    The non-right-angle check is the Girard closure of the signed area
    identity sum sigma(T) area(T) = sum_i area(S_i): the steradian cell areas
    always total 4*pi, so the target for the signed sum of the 24 non-right
    angles is cell_area_sum + (pi/2) * sign_total - total_vertex_angle_sum.
    When every sign is +1 (no altitude overshoots) this reduces to
    4*pi + cell_area_sum, i.e. 4*pi + 4*pi.
    """
    if S.d != 3:
        raise ValueError("the 24-triangle complex is a d = 3 construction")
    V = S.vertices
    sigma, a, b, q, mids = _complex24_core(V)

    vi = V[_R_I]
    m = mids[_R_P]
    qc = q[_R_C]
    ang_vertex = _angles_between(vi, m, qc)
    ang_right = _angles_between(m, vi, qc)
    ang_other = _angles_between(qc, m, vi)

    triangles = [
        SignedPathSimplex(np.array([V[i], mids[p], q[c]]), int(s))
        for i, p, c, s in zip(_R_I, _R_P, _R_C, sigma.astype(int))
    ]

    vertex_sums = np.zeros(4)
    np.add.at(vertex_sums, _R_I, sigma * ang_vertex)
    other_sum = float(np.sum(sigma * ang_other))
    cell_areas = []
    for i in range(4):
        qa, qb, qcix = (q[x] for x in _OTH[i])
        s = vertex_angle(qa, qb, qcix) + vertex_angle(qb, qcix, qa) + vertex_angle(qcix, qa, qb)
        cell_areas.append(s - np.pi)
    cell_area_sum = float(sum(cell_areas))

    cover = bool(np.min(np.max(q @ V.T, axis=1)) >= -GLOBAL_EPS)
    max_angle = float(max(ang_vertex.max(), ang_right.max(), ang_other.max()))
    sign_total = int(np.sum(sigma))
    total_vertex = float(vertex_sums.sum())
    other_target = cell_area_sum + (np.pi / 2) * sign_total - total_vertex

    audit = ComplexAudit(
        vertex_angle_sums=vertex_sums,
        total_vertex_angle_sum=total_vertex,
        other_angle_sum=other_sum,
        other_angle_target=float(other_target),
        cell_area_sum=cell_area_sum,
        sign_total=sign_total,
        max_angle=max_angle,
        cover_holds=cover,
        vertex_sums_ok=bool(np.max(np.abs(vertex_sums - 2 * np.pi)) < tol),
        total_ok=abs(total_vertex - 8 * np.pi) < tol,
        other_ok=abs(other_sum - other_target) < tol,
        angles_ok=max_angle <= np.pi / 2 + tol,
    )
    return triangles, audit


# ---------------------------------------------------------------------------
# Feasibility
# ---------------------------------------------------------------------------

def _origin_in_hull(V: np.ndarray, tol: float = GLOBAL_EPS) -> bool:
    A = np.vstack([V.T, np.ones(V.shape[0])])
    rhs = np.zeros(V.shape[0])
    rhs[-1] = 1.0
    try:
        lam = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError:
        return False
    return bool(np.min(lam) >= -tol)


@dataclass(frozen=True)
class FeasibilityReport:
    origin_in_hull: bool
    vertices_on_sphere: bool
    hemisphere_cover: bool

    @property
    def all_ok(self) -> bool:
        return self.origin_in_hull and self.vertices_on_sphere and self.hemisphere_cover


def feasibility_checks(S: InscribedSimplex, n_samples: int = 100_000,
                       seed: int = 0) -> FeasibilityReport:
    """Necessary conditions for a mean-width maximizer: origin in the hull,
    vertices on the sphere, and the closed hemispheres at the vertices
    covering the sphere (checked at sampled points and at all cell vertices).
    """
    V = S.vertices
    d = S.d
    in_hull = _origin_in_hull(V)
    on_sphere = bool(np.max(np.abs(np.linalg.norm(V, axis=1) - 1.0))
                     <= INGEST_NORM_TOL)

    rng = np.random.default_rng(seed)
    u = rng.standard_normal((n_samples, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    cover = bool(np.min(np.max(u @ V.T, axis=1)) >= 0.0)
    if cover:
        # exact check at the complex vertices, |F| = d, where the min of the
        # max marginal is attained
        for subset in itertools.combinations(range(d + 1), d):
            p = cell_vertex(S, subset)
            if np.max(p @ V.T) < -GLOBAL_EPS:
                cover = False
                break
    return FeasibilityReport(origin_in_hull=in_hull, vertices_on_sphere=on_sphere,
                             hemisphere_cover=cover)
