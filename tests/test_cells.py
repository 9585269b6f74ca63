"""Voronoi cells of inscribed simplices, signed path-simplex decompositions,
the 24-triangle complex and its angle audit, and feasibility checks."""

import itertools
import math

import numpy as np
import pytest

from mwkit import (DegeneracyError, InscribedSimplex, SignedPathSimplex,
                   adjacent_dihedral_angles, cell_vertex, decompose_simplex,
                   equidistant_point, feasibility_checks, gram_matrix,
                   maximal_chains, path_simplex_from_chain, random_simplex,
                   right_triangle_complex, vertex_angle, voronoi_cells)
from mwkit import cells as mwcells
from mwkit.width import regular_simplex


def sample_sphere(rng, n, d):
    u = rng.standard_normal((n, d))
    return u / np.linalg.norm(u, axis=1, keepdims=True)


def random_rotation(rng, d):
    """A Haar-random orthogonal map of R^d."""
    Q, R = np.linalg.qr(rng.standard_normal((d, d)))
    return Q * np.sign(np.diag(R))


# a valid simplex (origin in the hull, det -1.52) whose face point p({0, 1})
# is equidistant from v_2: feasible, but its face table raises
EQUIDISTANT_FACE_POINT = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                          [0.5, 0.5, 0.7071067811865476],
                          [-0.5773502691896258, -0.5773502691896258, -0.5773502691896258]]


def cone_membership(points, verts):
    """Indicator of membership in the spherical simplex spanned by verts."""
    lam = np.linalg.solve(verts.T, points.T)  # verts rows are the generators
    return np.all(lam >= -1e-12, axis=0)


class TestInscribedSimplex:
    def test_off_sphere_rejected(self):
        V = np.eye(3) * 1.01
        V = np.vstack([V, -np.ones(3) / np.sqrt(3.0)])
        with pytest.raises(ValueError):
            InscribedSimplex(V)

    def test_degenerate_rejected(self):
        V = np.vstack([np.eye(3)[:2], np.eye(3)[:2][::-1]])
        with pytest.raises((ValueError, DegeneracyError)):
            InscribedSimplex(V)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        # the norm test runs before the determinant, so no numpy warning first
        V = regular_simplex(3).vertices.copy()
        V[0, 0] = bad
        for W in (V, np.full((4, 3), bad)):
            with pytest.raises(ValueError, match="unit sphere"):
                InscribedSimplex(W)

    @pytest.mark.parametrize("d", [1, 0, -1])
    def test_random_simplex_needs_d_at_least_2(self, d):
        with pytest.raises(ValueError, match="d must be >= 2"):
            random_simplex(d, np.random.default_rng(0))

    def test_shape(self):
        S = regular_simplex(3)
        assert S.d == 3
        assert S.vertices.shape == (4, 3)
        with pytest.raises(ValueError, match=r"\(d\+1, d\) array"):
            InscribedSimplex(np.eye(3))


class TestVoronoiCells:
    def test_membership(self):
        # each sampled point belongs to the cell of its nearest vertex
        rng = np.random.default_rng(0)
        S = random_simplex(3, rng)
        cells = voronoi_cells(S)
        u = sample_sphere(rng, 2000, 3)
        owner = np.argmax(u @ S.vertices.T, axis=1)
        for vc in cells:
            mine = u[owner == vc.owner]
            assert np.all(mine @ vc.cell.H.T >= -1e-12)

    def test_tiling(self):
        # cells cover the sphere with total measure 1 (they always tile)
        rng = np.random.default_rng(1)
        S = random_simplex(3, rng)
        cells = voronoi_cells(S)
        u = sample_sphere(rng, 20_000, 3)
        member = np.zeros(len(u), dtype=int)
        for vc in cells:
            H = vc.cell.H
            member += np.all(u @ H.T >= -1e-12, axis=1)
        assert np.all(member >= 1)
        # interiors are disjoint: double-membership only near boundaries
        assert np.mean(member > 1) < 0.01


class TestFacePoints:
    def test_equidistant(self):
        rng = np.random.default_rng(2)
        S = random_simplex(3, rng)
        for size in (2, 3):
            for subset in itertools.combinations(range(4), size):
                p = equidistant_point(S, subset)
                dots = S.vertices[list(subset)] @ p
                assert np.max(np.abs(dots - dots[0])) < 1e-10

    def test_cell_vertex_membership_sign(self):
        # the complex vertex is on the owners' side of the excluded vertex
        rng = np.random.default_rng(3)
        for _ in range(20):
            S = random_simplex(3, rng)
            for subset in itertools.combinations(range(4), 3):
                q = cell_vertex(S, subset)
                excl = [j for j in range(4) if j not in subset][0]
                assert q @ (S.vertices[subset[0]] - S.vertices[excl]) > 0

    @pytest.mark.parametrize("face, subset, match", [
        (equidistant_point, (), "between 1 and d"),
        (equidistant_point, (0, 4), "out of range"),
        (cell_vertex, (0, 1), "subsets of size d"),
    ])
    def test_subset_checks(self, face, subset, match):
        with pytest.raises(ValueError, match=match):
            face(regular_simplex(3), subset)

    @pytest.mark.filterwarnings("error")
    def test_dependent_subset_raises_without_a_numpy_warning(self):
        # v_0, v_1 and v_4 lie on one great circle, so {0, 1, 4} has no face
        # point; its solve cancels to an exact 0 instead of blowing up
        V = np.array([[0.6675765034180379, -0.744541209124214, 0.0, 0.0],
                      [0.0, -1.0, 0.0, 0.0],
                      [-2.3182889256863497e-20, -0.707103245626125, -0.7071103167292923, 0.0],
                      [0.674695147668185, 0.0, 0.0, 0.7380965097553343],
                      [1.0, 0.0, 0.0, 0.0]])
        with pytest.raises(DegeneracyError, match="equidistance subspace"):
            equidistant_point(InscribedSimplex(V), (0, 1, 4))


class TestChains:
    def test_count(self):
        for d in (2, 3, 4):
            assert len(maximal_chains(d)) == math.factorial(d + 1)

    def test_nested(self):
        for chain in maximal_chains(3):
            assert [len(Q) for Q in chain] == [1, 2, 3]
            for small, big in zip(chain, chain[1:]):
                assert small < big

    @pytest.mark.parametrize("chain, match", [
        ([{0}, {0, 1}], "sizes 1 through d"),
        ([{0}, {1, 2}, {1, 2, 3}], "increasing under inclusion"),
        ([{0}, {0, 1}, {0, 1, 4}], "out of range"),
    ])
    def test_invalid_chain_rejected(self, chain, match):
        with pytest.raises(ValueError, match=match):
            path_simplex_from_chain(regular_simplex(3), chain)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_read_from_the_chain_orders(self, d):
        # the chains Q_k = seq[:k] of the d-permutations of range(d + 1), in
        # lexicographic order; block i of the orders starts at {i}
        orders = mwcells._chain_orders(d + 1)
        seqs = list(itertools.permutations(range(d + 1), d))
        assert orders.tolist() == [list(seq) for seq in seqs]
        assert maximal_chains(d) == [tuple(frozenset(seq[:k + 1]) for k in range(d))
                                     for seq in seqs]
        block = math.factorial(d)
        assert np.array_equal(orders[:, 0], np.repeat(np.arange(d + 1), block))


class TestDecomposeSimplex:
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_count(self, m):
        rng = np.random.default_rng(m)
        d = max(m, 3)
        T = sample_sphere(rng, m, d)
        O = sample_sphere(rng, 1, d)[0]
        pieces = decompose_simplex(T, O)
        assert len(pieces) == math.factorial(m)

    def test_input_checks(self):
        with pytest.raises(ValueError, match="at least two vertices"):
            decompose_simplex(np.eye(3)[:1], np.eye(3)[1])
        with pytest.raises(ValueError, match="sign must be"):
            SignedPathSimplex(np.eye(3), 0)

    def test_signed_indicator_d3(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            T = sample_sphere(rng, 3, 3)
            O = sample_sphere(rng, 1, 3)[0]
            if np.min(np.linalg.solve(T.T, -O)) > 0:
                continue  # O in the antipodal simplex: identity does not apply
            pieces = decompose_simplex(T, O)
            u = sample_sphere(rng, 4000, 3)
            target = cone_membership(u, T).astype(int)
            signed = np.zeros(len(u), dtype=int)
            for p in pieces:
                signed += p.sign * cone_membership(u, p.vertices).astype(int)
            assert np.mean(signed == target) >= 0.999

    def test_gram_tridiagonal(self):
        rng = np.random.default_rng(6)
        T = sample_sphere(rng, 4, 4)
        O = sample_sphere(rng, 1, 4)[0]
        for p in decompose_simplex(T, O):
            G = gram_matrix(p)
            off = G - np.tril(np.triu(G, -1), 1)
            assert np.max(np.abs(off)) < 1e-9

    def test_dihedral_angles_in_range(self):
        rng = np.random.default_rng(7)
        T = sample_sphere(rng, 4, 4)
        O = sample_sphere(rng, 1, 4)[0]
        for p in decompose_simplex(T, O):
            th = adjacent_dihedral_angles(p)
            assert th.shape == (3,)
            assert np.all(th > 0) and np.all(th < np.pi)


def cell_pieces(S):
    """Per-cell altitude decompositions: decompose_simplex on each cell's
    complex vertices with end vertex v_i."""
    d = S.d
    pieces = []
    for i in range(d + 1):
        corners = np.array([
            cell_vertex(S, tuple(sorted((i,) + rest)))
            for rest in itertools.combinations([j for j in range(d + 1) if j != i], d - 1)
        ])
        pieces += decompose_simplex(corners, S.vertices[i])
    return pieces


class TestChainConsistency:
    def test_matches_cell_decomposition_d3(self):
        # chain-built path simplices = union of per-cell decompositions
        rng = np.random.default_rng(8)
        S = random_simplex(3, rng, feasible=True)
        from_chains = {}
        for chain in maximal_chains(3):
            P = path_simplex_from_chain(S, chain)
            key = tuple(np.round(P.vertices, 8).ravel())
            from_chains[key] = P.sign

        from_cells = {}
        for p in cell_pieces(S):
            key = tuple(np.round(p.vertices, 8).ravel())
            from_cells[key] = p.sign

        assert set(from_chains) == set(from_cells)
        assert all(from_chains[k] == from_cells[k] for k in from_chains)

    @pytest.mark.parametrize("d", [3, 4, 5])
    @pytest.mark.parametrize("feasible", [True, False])
    def test_matches_cell_decomposition(self, d, feasible):
        # the face table's chain pieces are the generic engine's pieces, sign
        # for sign, with and without the hemisphere cover (without it, some
        # altitude feet sit at the antipode of the nearest equidistant point)
        rng = np.random.default_rng(80 + d)
        for _ in range(4):
            S = random_simplex(d, rng, feasible=feasible)
            while not feasible and feasibility_checks(S).origin_in_hull:
                S = random_simplex(d, rng)
            chains = [path_simplex_from_chain(S, c) for c in maximal_chains(d)]
            cells = cell_pieces(S)
            assert len(chains) == len(cells) == math.factorial(d + 1)
            B = np.array([p.vertices for p in cells])
            matched = []
            for P in chains:
                gap = np.max(np.abs(B - P.vertices), axis=(1, 2))
                k = int(np.argmin(gap))
                assert gap[k] < 1e-9
                assert P.sign == cells[k].sign
                matched.append(k)
            assert sorted(matched) == list(range(len(cells)))

    def test_complex24_is_the_chain_decomposition(self):
        # the vectorized d = 3 complex: the path simplices of the chains, in
        # the order of maximal_chains(3), vertex for vertex and sign for sign
        rng = np.random.default_rng(81)
        negative = 0
        for feasible in (True, False) * 10:
            S = random_simplex(3, rng, feasible=feasible)
            triangles, _ = right_triangle_complex(S)
            chains = maximal_chains(3)
            assert len(triangles) == len(chains) == 24
            for T, chain in zip(triangles, chains):
                P = path_simplex_from_chain(S, chain)
                assert np.array_equal(T.vertices, P.vertices)
                assert T.sign == P.sign
                negative += T.sign < 0
        assert negative > 0

    @pytest.mark.parametrize("d", [3, 4, 5])
    @pytest.mark.parametrize("feasible", [True, False])
    def test_stacked_chain_path_is_row_by_row(self, d, feasible):
        # one call over a stack of orders gives, bit for bit, what one call
        # per order gives
        rng = np.random.default_rng(90 + d)
        S = random_simplex(d, rng, feasible=feasible)
        while not feasible and feasibility_checks(S).origin_in_hull:
            S = random_simplex(d, rng)
        orders = mwcells._chain_orders(d + 1)
        paths, signs = mwcells._chain_path(S._faces, orders)
        assert paths.shape == (len(orders), d, d) and signs.shape == (len(orders),)
        for order, P, s in zip(orders, paths, signs):
            P1, s1 = mwcells._chain_path(S._faces, order)
            assert np.array_equal(P1, P) and s1 == s
        blocks = orders.reshape(d + 1, -1, d)
        stacked, stacked_signs = mwcells._chain_path(S._faces, blocks)
        assert np.array_equal(stacked.reshape(paths.shape), paths)
        assert np.array_equal(stacked_signs.ravel(), signs)


class TestRotationInvariance:
    """Every degeneracy check reads rotation-invariant objects (face points,
    side tests, Gram matrices), so a rotated simplex has the rotated face
    points, the same chain signs and the same Gram matrices, and a rotation
    never escapes a degeneracy."""

    @pytest.mark.parametrize("d", [4, 5])
    @pytest.mark.parametrize("feasible", [True, False])
    def test_face_points_signs_and_grams(self, d, feasible):
        rng = np.random.default_rng(110 + d)
        orders = mwcells._chain_orders(d + 1)
        for _ in range(5):
            S = random_simplex(d, rng, feasible=feasible)
            while not feasible and S._contains_origin:
                S = random_simplex(d, rng)
            Q = random_rotation(rng, d)
            T = InscribedSimplex(S.vertices @ Q.T)
            # rows 0 and -1, the empty and the full set, are NaN
            points, points_T = S._faces.points[1:-1], T._faces.points[1:-1]
            assert np.max(np.abs(points_T - points @ Q.T)) < 1e-12
            paths, signs = mwcells._chain_path(S._faces, orders)
            paths_T, signs_T = mwcells._chain_path(T._faces, orders)
            assert np.array_equal(signs_T, signs)
            assert np.max(np.abs(gram_matrix(paths_T) - gram_matrix(paths))) < 1e-12

    def test_degenerate_stays_degenerate(self):
        for seed in range(20):
            Q = random_rotation(np.random.default_rng(seed), 3)
            S = InscribedSimplex(np.array(EQUIDISTANT_FACE_POINT) @ Q.T)
            assert feasibility_checks(S).all_ok  # reads no face table
            with pytest.raises(DegeneracyError, match="face point equidistant"):
                S._faces


class TestStackedGram:
    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_stack_is_path_by_path(self, d):
        # one call over a stack of path simplices gives, bit for bit, what one
        # call per path gives
        S = random_simplex(d, np.random.default_rng(70 + d))
        paths, _ = mwcells._chain_path(S._faces, mwcells._chain_orders(d + 1))
        G = gram_matrix(paths)
        theta = adjacent_dihedral_angles(paths)
        assert G.shape == (len(paths), d, d) and theta.shape == (len(paths), d - 1)
        for P, G1, theta1 in zip(paths, G, theta):
            assert np.array_equal(gram_matrix(P), G1)
            assert np.array_equal(adjacent_dihedral_angles(P), theta1)
        blocks = paths.reshape(d + 1, -1, d, d)
        assert np.array_equal(gram_matrix(blocks).reshape(G.shape), G)
        assert np.array_equal(adjacent_dihedral_angles(blocks).reshape(theta.shape),
                              theta)

    def test_stack_in_a_larger_space(self):
        # m = 3 path vertices in R^4 take the QR branch
        rng = np.random.default_rng(76)
        pieces = decompose_simplex(sample_sphere(rng, 3, 4), sample_sphere(rng, 1, 4)[0])
        G = gram_matrix(np.array([p.vertices for p in pieces]))
        assert G.shape == (6, 3, 3)
        for p, G1 in zip(pieces, G):
            assert np.array_equal(gram_matrix(p), G1)

    def test_singular_member_raises(self):
        S = random_simplex(4, np.random.default_rng(77))
        paths, _ = mwcells._chain_path(S._faces, mwcells._chain_orders(5))
        paths[7, 2] = paths[7, 1]
        with pytest.raises(DegeneracyError):
            gram_matrix(paths)
        with pytest.raises(DegeneracyError):
            adjacent_dihedral_angles(paths)


class TestRightTriangleComplex:
    def test_regular_tetrahedron(self):
        # all 24 triangles congruent: vertex angle pi/3, legs arccos(1/sqrt 3)
        S = regular_simplex(3)
        triangles, audit = right_triangle_complex(S)
        assert len(triangles) == 24
        assert audit.all_ok
        assert audit.sign_total == 24
        from mwkit import arc_length
        leg = np.arccos(1.0 / np.sqrt(3.0))
        for T in triangles:
            v, m, q = T.vertices
            assert abs(arc_length(v, m) - leg) < 1e-10
            assert abs(arc_length(m, q) - leg) < 1e-10
            # hypotenuse from the spherical pythagorean theorem
            assert abs(np.cos(arc_length(v, q)) - np.cos(leg) ** 2) < 1e-10

    def test_random_feasible_audits(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            S = random_simplex(3, rng, feasible=True)
            _, audit = right_triangle_complex(S)
            assert audit.cover_holds
            assert audit.all_ok
            assert np.max(np.abs(audit.vertex_angle_sums - 2 * np.pi)) < 1e-9
            assert abs(audit.total_vertex_angle_sum - 8 * np.pi) < 1e-9

    def test_angles_and_areas_are_vertex_angles(self):
        # the normal-vector angles of the audit against tangent-vector angles,
        # on simplices with and without overshooting (negative) triangles
        rng = np.random.default_rng(31)
        negative = 0
        for feasible in (True, False) * 10:
            S = random_simplex(3, rng, feasible=feasible)
            triangles, audit = right_triangle_complex(S)
            T = np.array([t.vertices for t in triangles])
            sigma = np.array([t.sign for t in triangles])
            negative += np.sum(sigma < 0)
            ref = np.array([[vertex_angle(v, m, q), vertex_angle(m, q, v),
                             vertex_angle(q, v, m)] for v, m, q in T])
            assert np.max(np.abs(mwcells._triangle_angles(T) - ref)) < 1e-12
            sums = [np.sum(sigma[6 * i:6 * i + 6] * ref[6 * i:6 * i + 6, 0])
                    for i in range(4)]
            assert np.max(np.abs(audit.vertex_angle_sums - sums)) < 1e-12
            assert abs(audit.other_angle_sum - np.sum(sigma * ref[:, 2])) < 1e-12
            assert abs(audit.max_angle - ref.max()) < 1e-12
            area = 0.0
            for i in range(4):
                a, b, c = (cell_vertex(S, Q) for Q in itertools.combinations(range(4), 3)
                           if i in Q)
                area += vertex_angle(a, b, c) + vertex_angle(b, c, a) \
                    + vertex_angle(c, a, b) - np.pi
            assert abs(audit.cell_area_sum - area) < 1e-12
        assert negative > 0

    def test_near_pi_angle_keeps_full_precision(self):
        # the widest triangle of the seed-31 complexes above, (v, m, q) with
        # m and q nearly antipodal: its angle at v is pi - 1.3e-4.  The
        # reference is a 40-digit mpmath value for these float rows; an arccos
        # of the Gram entry is 1.2e-12 off it
        T = np.array([
            [-0.9997823253554238, -0.01595504094908998, 0.013443904760695282],
            [-0.22079569212523467, 0.881068832362197, -0.41829053895450874],
            [0.22079635685045204, -0.8810145431538419, 0.4184045214299135]])
        assert abs(mwcells._triangle_angles(T)[0] - 3.1414637686636295) < 1e-14

    def test_squeezed_tetrahedron_fails_cover(self):
        # all vertices inside a small cap: hemisphere cover impossible
        base = np.array([0.0, 0.0, 1.0])
        V = []
        for k in range(4):
            t = 0.3 * (k + 1)
            ph = 1.7 * k
            V.append([np.sin(t) * np.cos(ph), np.sin(t) * np.sin(ph), np.cos(t)])
        S = InscribedSimplex(np.array(V) / np.linalg.norm(V, axis=1, keepdims=True))
        _, audit = right_triangle_complex(S)
        assert not audit.cover_holds

    def test_wrong_dimension(self):
        with pytest.raises(ValueError):
            right_triangle_complex(regular_simplex(4))


class TestFeasibility:
    def test_regular(self):
        for d in (2, 3, 4):
            rep = feasibility_checks(regular_simplex(d))
            assert rep.all_ok

    def test_hemisphere_cluster(self):
        rng = np.random.default_rng(10)
        # all vertices with positive last coordinate: open hemisphere
        V = sample_sphere(rng, 4, 3)
        V[:, 2] = np.abs(V[:, 2]) + 0.1
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        rep = feasibility_checks(InscribedSimplex(V))
        assert not rep.origin_in_hull
        assert not rep.hemisphere_cover
        assert rep.vertices_on_sphere

    @pytest.mark.parametrize("d", [3, 4])
    def test_cover_is_origin_in_hull(self, d):
        # Gordan: the closed hemispheres cover the sphere exactly when the
        # origin is in the hull; a densely sampled uncovered point must agree
        rng = np.random.default_rng(20 + d)
        u = sample_sphere(rng, 20_000, d)
        seen = set()
        for k in range(200):
            S = random_simplex(d, rng, feasible=k % 2 == 0)
            rep = feasibility_checks(S)
            assert rep.hemisphere_cover == rep.origin_in_hull
            if np.min(np.max(u @ S.vertices.T, axis=1)) < 0.0:
                assert not rep.hemisphere_cover
            seen.add(rep.hemisphere_cover)
        assert seen == {True, False}
