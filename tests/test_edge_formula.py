"""The edge (Steiner) formula for the mean width: the d = 3 ascent evaluator
checked against the 24-triangle complex and for its symmetries, the facet
normals against the face table, and an exact d = 4 reference for the
sampling routes.

Steiner formula: the mean width is 2 kappa_{d-1} / (d kappa_d) times the
first intrinsic volume sum_edges |e| gamma(e), gamma(e) the external angle
at edge e (Schneider, Convex Bodies, section 4.2).
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mwkit import (DegeneracyError, InscribedSimplex, arc_length,
                   mean_width_exact3d, mean_width_mat, mean_width_mc,
                   random_simplex, regular_simplex, width)
from mwkit import cells
from mwkit.measures import _moment

# A fixed example sequence, so the suite gives the same verdict on every run.
# Coordinate draws favour structured values (zeros, axis vectors), which is
# how they find degenerate configurations; the strategies reject those the
# routes are not required to handle, hence the many filtered draws.
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.filter_too_much])

REGULAR_WIDTH_D4 = 1.3832486424

coords = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


def svd_facet_normals(V: np.ndarray) -> list:
    """Outward unit facet normals, entry k opposite v_k, each from the null
    space of its facet's edge vectors (no mwkit geometry)."""
    normals = []
    for k in range(len(V)):
        F = np.delete(V, k, axis=0)
        nk = np.linalg.svd(F[1:] - F[0])[2][-1]
        normals.append(-nk if nk @ (V[k] - F[0]) > 0 else nk)
    return normals


def well_shaped(V: np.ndarray) -> bool:
    """No two vertices nearly equal or antipodal and not close to flat:
    inputs on which every route keeps ~1e-13 accuracy.  A facet plane may
    pass through or near the origin."""
    pairs = np.triu_indices(len(V), 1)
    dist = np.linalg.norm(V[:, None] - V[None], axis=2)[pairs]
    close = np.linalg.norm(V[:, None] + V[None], axis=2)[pairs]
    return (dist.min() > 0.1 and close.min() > 0.1
            and np.linalg.svd(V[1:] - V[0], compute_uv=False).min() > 0.05)


@st.composite
def simplices(draw, d=3, feasible=None):
    """Inscribed d-simplices; feasible=True puts the origin strictly inside
    (the last vertex opposite a positive combination of the others),
    feasible=False outside, None either."""
    raw = draw(arrays(float, (d + 1, d), elements=coords))
    norms = np.linalg.norm(raw, axis=1)
    assume(norms.min() > 0.1)
    V = raw / norms[:, None]
    if feasible:
        lam = draw(arrays(float, d, elements=st.floats(0.1, 1.0)))
        last = -(lam @ V[:d])
        assume(np.linalg.norm(last) > 0.1)
        V[d] = last / np.linalg.norm(last)
    assume(well_shaped(V))
    if feasible is False:
        assume(not InscribedSimplex(V)._contains_origin)
    return V


@st.composite
def orthogonal(draw, d=3):
    """Rotations and reflections of R^d."""
    M = draw(arrays(float, (d, d), elements=coords))
    Q, R = np.linalg.qr(M)
    assume(np.abs(np.diag(R)).min() > 0.1)
    return Q


def edge_value(V):
    return width._exact3d_width_and_gradient(InscribedSimplex(V))[0]


class TestEdgeFormulaD3:
    @pytest.mark.parametrize("feasible", [True, False], ids=["feasible", "infeasible"])
    @PROPERTY
    @given(data=st.data())
    def test_matches_the_complex(self, feasible, data):
        V = data.draw(simplices(feasible=feasible))
        try:
            reference = width._exact3d_value(V)
        except DegeneracyError:
            assume(False)
        assert abs(edge_value(V) - reference) < 1e-12

    @PROPERTY
    @given(V=simplices(), Q=orthogonal(), perm=st.permutations(range(4)))
    def test_value_invariant(self, V, Q, perm):
        w = edge_value(V)
        assert abs(edge_value(V @ Q.T) - w) < 1e-13
        assert abs(edge_value(V[list(perm)]) - w) < 1e-13

    @PROPERTY
    @given(V=simplices(), Q=orthogonal(), perm=st.permutations(range(4)))
    def test_gradient_equivariant(self, V, Q, perm):
        _, G = width._exact3d_width_and_gradient(InscribedSimplex(V))
        _, G_rot = width._exact3d_width_and_gradient(InscribedSimplex(V @ Q.T))
        _, G_perm = width._exact3d_width_and_gradient(InscribedSimplex(V[list(perm)]))
        assert np.max(np.abs(G_rot - G @ Q.T)) < 1e-13
        assert np.max(np.abs(G_perm - G[list(perm)])) < 1e-13

    def test_gradient_is_the_cell_moment(self):
        # dw/dv_i = (1/2pi) int_{cell i} u dA in the tangent space at v_i; a
        # Voronoi cell is a normal cone, so a convex triangle of three corners
        rng = np.random.default_rng(26)
        for _ in range(200):
            S = random_simplex(3, rng)
            _, G = width._exact3d_width_and_gradient(S)
            corners = S._faces.points[cells._top_masks(4)]
            for i, v in enumerate(S.vertices):
                T = np.delete(corners, i, axis=0)
                m = _moment(T, arc_length(T[[1, 2, 0]], T[[2, 0, 1]]))
                assert np.max(np.abs(G[i] - (m - (m @ v) * v) / (2.0 * np.pi))) < 1e-13


class TestFacetNormals:
    @pytest.mark.parametrize("d", [3, 4, 5])
    @PROPERTY
    @given(data=st.data())
    def test_are_the_top_face_points(self, d, data):
        V = data.draw(simplices(d))
        S = InscribedSimplex(V)
        try:
            faces = cells._face_table(S)
        except DegeneracyError:
            assume(False)
        top = faces.points[cells._top_masks(d + 1)]
        normals = S._outward_normals
        assert np.max(np.abs(normals - top)) < 1e-12
        # the table reads its size-d layer from these normals, so check them
        # against the null spaces of the facets too
        assert np.max(np.abs(normals - np.array(svd_facet_normals(V)))) < 1e-12


def reference_width_d4(V: np.ndarray) -> float:
    """Exact mean width of a 4-simplex, w = (4/(3 pi)) sum_e |e| Omega_e/(4 pi),
    with no mwkit geometry.

    The normal cone at edge {i, j} is spanned by the outward normals of the
    three facets through it (those opposite the other vertices); its solid
    angle Omega_e within the 3-space orthogonal to the edge is the Van
    Oosterom-Strackee formula, tan(Omega/2) = |det[a b c]| / (1 + a.b + b.c + c.a).
    """
    n = len(V)
    normals = svd_facet_normals(V)
    total = 0.0
    for i, j in itertools.combinations(range(n), 2):
        a, b, c = (normals[k] for k in range(n) if k not in (i, j))
        N = np.array([a, b, c])
        volume = math.sqrt(max(np.linalg.det(N @ N.T), 0.0))
        omega = 2.0 * math.atan2(volume, 1.0 + a @ b + b @ c + c @ a)
        total += np.linalg.norm(V[i] - V[j]) * omega / (4.0 * math.pi)
    return 4.0 / (3.0 * math.pi) * total


class TestExactReferenceD4:
    def test_regular_simplex(self):
        assert abs(reference_width_d4(regular_simplex(4).vertices)
                   - REGULAR_WIDTH_D4) < 1e-10

    def test_monte_carlo_lands_on_it(self):
        rng = np.random.default_rng(40)
        simplices4 = [regular_simplex(4)] + [random_simplex(4, rng, feasible=True)
                                             for _ in range(5)]
        for k, S in enumerate(simplices4):
            est = mean_width_mc(S, 200_000, seed=41 + k)
            assert abs(est.value - reference_width_d4(S.vertices)) < 4 * est.std_error

    def test_mat_lands_on_it(self):
        est = mean_width_mat(regular_simplex(4), 30_000, seed=6)
        assert abs(est.value - REGULAR_WIDTH_D4) < 4 * est.std_error

    def test_mat_lands_on_it_on_random_simplices(self):
        # the 3rd and 5th have a piece that one 3e4-direction draw per piece
        # misses; one draw shared by the cell's pieces counts it as 0
        rng = np.random.default_rng(48)
        for k in range(10):
            S = random_simplex(4, rng, feasible=True)
            est = mean_width_mat(S, 30_000, seed=k)
            assert abs(est.value - reference_width_d4(S.vertices)) < 4 * est.std_error


class TestFacetPlaneThroughTheOrigin:
    """The facet {v_0, v_2, v_3} lies in a plane through the origin: the Gram
    matrix of its vertices is singular, and its face point is the facet
    normal."""

    a, c = math.sqrt(0.5), math.sqrt(1.0 / 3.0)
    V = np.array([[0.0, 1.0, 0.0], [0.0, a, a], [a, 0.0, a], [c, c, c]])

    def test_exact3d_is_the_edge_formula(self):
        S = InscribedSimplex(self.V)
        assert abs(mean_width_exact3d(S).value - edge_value(self.V)) < 1e-12

    def test_mat_lands_on_the_edge_formula(self):
        est = mean_width_mat(InscribedSimplex(self.V), 100_000, seed=1)
        assert abs(est.value - edge_value(self.V)) < 4 * est.std_error
