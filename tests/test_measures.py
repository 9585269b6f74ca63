"""Wallis integrals, cap measures, marginal means, the Brock centroid, the
moment identity behind them, and the reduced-integral cell evaluator."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from mwkit import (HalfspaceCell, MarginalMean, arc_length, cap_marginal_mean,
                   cap_measure, cell_marginal_mean_MAT, centroid_brock,
                   right_triangle_marginal_mean, solve_right_triangle,
                   spherical_triangle_area, triangle_marginal_mean,
                   wallis_complete, wallis_incomplete, wallis_table)
from mwkit.config import GLOBAL_EPS
from mwkit.measures import _moment, _right_marginal_value


def sample_sphere(rng, n, d=3):
    u = rng.standard_normal((n, d))
    return u / np.linalg.norm(u, axis=1, keepdims=True)


def triangle_marginal_mc(A, B, C, axis, n, seed):
    """Direct MC oracle for M_axis over the spherical triangle ABC (d=3)."""
    N = np.linalg.inv(np.column_stack([A, B, C]))
    u = sample_sphere(np.random.default_rng(seed), n)
    g = np.where(np.all(u @ N.T >= 0.0, axis=1), u @ axis, 0.0)
    return g.mean(), g.std(ddof=1) / np.sqrt(n)


def altitude_split_marginal(A, B, C):
    """M_A of a spherical triangle by signed altitude splitting, the reference
    for ``triangle_marginal_mean``: drops the altitude from A onto the great
    circle of side a = BC and sums the two signed right-triangle
    contributions.  Raises ValueError when the right angle of a right
    triangle sits at B or C (the foot coincides with a vertex)."""
    A, B, C = (np.asarray(v, dtype=float) for v in (A, B, C))
    n = np.cross(B, C)
    nn = np.linalg.norm(n)
    if nn < GLOBAL_EPS:
        raise ValueError("side BC degenerate")
    n = n / nn
    foot = A - np.dot(A, n) * n
    fn = np.linalg.norm(foot)
    if fn < GLOBAL_EPS:
        # A is a pole of the BC circle: every foot works, take the side midpoint
        mid = B + C
        mn = np.linalg.norm(mid)
        if mn < GLOBAL_EPS:
            raise ValueError("side BC degenerate (antipodal endpoints)")
        D = mid / mn
    else:
        D = foot / fn
    h = arc_length(A, D)
    if h < GLOBAL_EPS:
        raise ValueError("degenerate: A lies on the great circle of BC")
    # signed positions of B and C along the great circle, measured from D
    t = np.cross(n, D)
    ang_B = np.arctan2(np.dot(B, t), np.dot(B, D))
    ang_C = np.arctan2(np.dot(C, t), np.dot(C, D))
    if min(abs(ang_B), abs(ang_C)) < 1e-10:
        raise ValueError("altitude foot coincides with B or C (measure-zero split)")
    # the two right triangles ABD and ADC; signs opposite iff B, C on the
    # same side of D (difference configuration)
    s_B, s_C = np.sign(ang_B), np.sign(ang_C)
    if s_B * s_C < 0 and abs(ang_B) + abs(ang_C) > np.pi:
        # the minor arc BC contains the antipodal foot -D, not D: split there
        # instead (altitude pi - h, base angles measured from -D)
        m_B = _right_marginal_value(np.pi - abs(ang_B), np.pi - h)
        m_C = _right_marginal_value(np.pi - abs(ang_C), np.pi - h)
        total = m_B + m_C
    else:
        m_B = _right_marginal_value(abs(ang_B), h)
        m_C = _right_marginal_value(abs(ang_C), h)
        total = m_B + m_C if s_B * s_C < 0 else abs(m_B - m_C)
    return MarginalMean(float(total), 0.0, region="triangle")


def random_triangles(seed, count, min_det=1e-3):
    """``count`` seeded random spherical triangles (3, 3) with |det| >= min_det."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        T = sample_sphere(rng, 3)
        if abs(np.linalg.det(T)) >= min_det:
            out.append(T)
    return out


class TestWallis:
    def test_bases(self):
        assert wallis_complete(0) == np.pi
        assert wallis_complete(1) == 2.0

    def test_d2_quadrature(self):
        val, _ = quad(lambda t: np.sin(t) ** 2, 0.0, np.pi)
        assert abs(wallis_complete(2) - val) < 1e-12

    def test_negative(self):
        with pytest.raises(ValueError):
            wallis_complete(-1)

    def test_product_identity(self):
        W = wallis_table(50)
        for d in range(1, 51):
            assert abs(d * W[d] * W[d - 1] - 2 * np.pi) < 1e-12

    def test_bounds(self):
        W = wallis_table(50)
        for d in range(1, 51):
            assert np.sqrt(2 * np.pi / (d + 1)) < W[d] < np.sqrt(2 * np.pi / d)


class TestWallisIncomplete:
    def test_order_zero(self):
        assert abs(wallis_incomplete(0, 0.7) - 0.7) < 1e-15

    def test_order_one(self):
        assert abs(wallis_incomplete(1, np.pi / 3) - 0.5) < 1e-15

    def test_order_two(self):
        assert abs(wallis_incomplete(2, np.pi / 2) - np.pi / 4) < 1e-12

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            wallis_incomplete(2, -0.1)
        with pytest.raises(ValueError):
            wallis_incomplete(2, np.pi + 0.1)

    @pytest.mark.parametrize("d", [3, 7, 12])
    def test_vs_quadrature(self, d):
        for r in np.linspace(0.05, np.pi, 20):
            val, _ = quad(lambda t: np.sin(t) ** d, 0.0, r)
            assert abs(wallis_incomplete(d, r) - val) < 1e-10


class TestCapMeasure:
    @pytest.mark.parametrize("d", range(2, 9))
    def test_endpoints(self, d):
        assert abs(cap_measure(d, np.pi) - 1.0) < 1e-12
        assert abs(cap_measure(d, np.pi / 2) - 0.5) < 1e-12
        assert cap_measure(d, 0.0) == 0.0

    def test_third_sphere(self):
        # d=3: (1 - cos r)/2
        assert abs(cap_measure(3, np.pi / 3) - 0.25) < 1e-12

    def test_monotone(self):
        grid = np.linspace(0.0, np.pi, 100)
        for d in (2, 4, 6):
            vals = [cap_measure(d, r) for r in grid]
            assert np.all(np.diff(vals) >= -1e-15)

    def test_low_dimension(self):
        with pytest.raises(ValueError):
            cap_measure(1, 0.5)


class TestCapMarginalMean:
    def test_full_sphere(self):
        assert abs(cap_marginal_mean(3, np.pi).value) < 1e-15

    def test_hemisphere_d3(self):
        assert abs(cap_marginal_mean(3, np.pi / 2).value - 0.25) < 1e-12

    def test_hemisphere_d4(self):
        assert abs(cap_marginal_mean(4, np.pi / 2).value - 2.0 / (3.0 * np.pi)) < 1e-12

    def test_d4_monte_carlo(self):
        # cap of radius pi/2 in S^3: average first coordinate over a hemisphere
        rng = np.random.default_rng(0)
        u = sample_sphere(rng, 400_000, d=4)
        g = np.where(u[:, 0] >= 0.0, u[:, 0], 0.0)
        se = g.std(ddof=1) / np.sqrt(len(g))
        assert abs(cap_marginal_mean(4, np.pi / 2).value - g.mean()) < 3 * se


class TestRightTriangleMarginal:
    def test_octant(self):
        assert abs(right_triangle_marginal_mean(np.pi / 2, np.pi / 2).value - 1.0 / 16.0) < 1e-12

    def test_vanishing(self):
        assert right_triangle_marginal_mean(1e-9, 0.5).value < 1e-9

    def test_sixty_sixty_closed_form(self):
        # (pi/3) sin(pi/3) / (8 pi) = sqrt(3)/48
        v = right_triangle_marginal_mean(np.pi / 3, np.pi / 3).value
        assert abs(v - np.sqrt(3.0) / 48.0) < 1e-15

    def test_sixty_sixty_monte_carlo(self):
        T = solve_right_triangle(np.pi / 3, np.pi / 3)
        mc, se = triangle_marginal_mc(T.A, T.B, T.C, T.A, 400_000, seed=1)
        assert abs(right_triangle_marginal_mean(np.pi / 3, np.pi / 3).value - mc) < 3 * se

    def test_leg_domain(self):
        with pytest.raises(ValueError):
            right_triangle_marginal_mean(2.0, 0.5)


class TestTriangleMarginal:
    def test_octant_consistency(self):
        e = np.eye(3)
        v = triangle_marginal_mean(e[0], e[1], e[2]).value
        assert abs(v - 1.0 / 16.0) < 1e-12

    def test_identity_a_sinb_sinC(self):
        # 8 pi M_A = a sin b sin C for random triangles
        from mwkit import vertex_angle
        rng = np.random.default_rng(4)
        count = 0
        while count < 100:
            A, B, C = sample_sphere(rng, 3)
            if abs(np.linalg.det(np.column_stack([A, B, C]))) < 1e-2:
                continue
            m = triangle_marginal_mean(A, B, C).value
            a = arc_length(B, C)
            b = arc_length(C, A)
            gamma = vertex_angle(C, A, B)
            assert abs(8 * np.pi * m - a * np.sin(b) * np.sin(gamma)) < 1e-9
            count += 1

    def test_obtuse_vs_monte_carlo(self):
        # foot of the altitude from A lands outside segment BC
        A = np.array([0.0, 0.0, 1.0])
        B = np.array([np.sin(0.4), 0.0, np.cos(0.4)])
        th = 2.6
        C = np.array([np.sin(1.2) * np.cos(th), np.sin(1.2) * np.sin(th), np.cos(1.2)])
        m = triangle_marginal_mean(A, B, C).value
        mc, se = triangle_marginal_mc(A, B, C, A, 500_000, seed=2)
        assert abs(m - mc) < 3 * se

    def test_equilateral_vs_monte_carlo(self):
        e = np.eye(3)
        m = triangle_marginal_mean(e[2], e[0], e[1]).value
        mc, se = triangle_marginal_mc(e[2], e[0], e[1], e[2], 500_000, seed=3)
        assert abs(m - mc) < 3 * se

    @pytest.mark.parametrize("a, b", [(np.pi / 2, np.pi / 2), (np.pi / 3, np.pi / 3),
                                      (0.7, 0.5), (1.2, 0.4)])
    def test_right_angle_at_B_or_C(self, a, b):
        # the right angle at C, then at B: a sin b sin C / (8 pi) with sin C = 1
        T = solve_right_triangle(a, b)
        exact = right_triangle_marginal_mean(a, b).value
        assert abs(triangle_marginal_mean(T.A, T.B, T.C).value - exact) < 1e-15
        assert abs(triangle_marginal_mean(T.A, T.C, T.B).value - exact) < 1e-15

    def test_matches_altitude_splitting(self):
        for T in random_triangles(seed=26, count=1000):
            m = triangle_marginal_mean(*T).value
            assert abs(m - altitude_split_marginal(*T).value) < 1e-13


class TestCentroidBrock:
    def test_octant(self):
        e = np.eye(3)
        G = centroid_brock(e[0], e[1], e[2])
        assert np.max(np.abs(G - 0.5)) < 1e-10

    def test_symmetry_axis(self):
        # equilateral triangle centered on the e3 axis
        pts = [np.array([np.sin(0.8) * np.cos(t), np.sin(0.8) * np.sin(t), np.cos(0.8)])
               for t in (0.0, 2 * np.pi / 3, 4 * np.pi / 3)]
        G = centroid_brock(*pts)
        assert np.max(np.abs(G[:2])) < 1e-10

    def test_vs_monte_carlo(self):
        rng = np.random.default_rng(6)
        A, B, C = sample_sphere(rng, 3)
        while abs(np.linalg.det(np.column_stack([A, B, C]))) < 0.3:
            A, B, C = sample_sphere(rng, 3)
        G = centroid_brock(A, B, C)
        N = np.linalg.inv(np.column_stack([A, B, C]))
        u = sample_sphere(rng, 500_000)
        hit = np.all(u @ N.T >= 0.0, axis=1)
        mc = u[hit].mean(axis=0)
        se = u[hit].std(axis=0, ddof=1) / np.sqrt(hit.sum())
        assert np.all(np.abs(G - mc) < 3 * se)

    def test_matches_brock_sum(self):
        # 2 [ABC] G = sigma sum_cyc (B x C) a / sin a, sigma the orientation
        for T in random_triangles(seed=27, count=1000):
            total = sum(np.cross(Y, Z) * arc_length(Y, Z) / np.sin(arc_length(Y, Z))
                        for Y, Z in (T[[1, 2]], T[[2, 0]], T[[0, 1]]))
            brock = np.sign(np.linalg.det(T)) * total / (2.0 * spherical_triangle_area(*T))
            assert np.max(np.abs(centroid_brock(*T) - brock)) < 1e-12

    def test_degenerate(self):
        e = np.eye(3)
        with pytest.raises(ValueError):
            centroid_brock(e[0], e[1], (e[0] + e[1]) / np.sqrt(2.0))


def facet_volumes(T):
    """(d-2)-volumes of the facets of the spherical simplex with vertex rows T
    in d = 3 or 4, entry i opposite row i: arcs, or triangle areas by Van
    Oosterom-Strackee on the facet's Gram matrix G,
    2 atan2(sqrt(det G), 1 + G01 + G02 + G12)."""
    F = np.array([np.delete(T, i, axis=0) for i in range(len(T))])
    G = F @ F.transpose(0, 2, 1)
    if len(T) == 3:
        return np.arccos(G[:, 0, 1])
    return 2.0 * np.arctan2(np.sqrt(np.linalg.det(G)),
                            1.0 + G[:, 0, 1] + G[:, 0, 2] + G[:, 1, 2])


class TestMoment:
    @pytest.mark.parametrize("d, seed", [(3, 1), (3, 2), (4, 1), (4, 2), (4, 3)])
    def test_vs_monte_carlo(self, d, seed):
        # direct MC mean of sigma_{d-1} u 1{u in T}, per coordinate
        rng = np.random.default_rng(seed)
        T = sample_sphere(rng, d, d)
        while abs(np.linalg.det(T)) < 0.1:
            T = sample_sphere(rng, d, d)
        n = 400_000
        u = sample_sphere(rng, n, d)
        sigma = 2.0 * np.pi ** (d / 2) / math.gamma(d / 2)
        g = sigma * u * np.all(u @ np.linalg.inv(T) >= 0.0, axis=1)[:, None]
        se = g.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(_moment(T, facet_volumes(T)) - g.mean(axis=0)) < 4 * se)


class TestHalfspaceCell:
    def test_row_norm_enforced(self):
        with pytest.raises(ValueError):
            HalfspaceCell(2.0 * np.eye(3))

    def test_singular_rejected(self):
        H = np.eye(3)
        H[2] = H[1]
        with pytest.raises(ValueError):
            HalfspaceCell(H)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        H = np.eye(3)
        H[1, 2] = bad
        for G in (H, np.full((3, 3), bad)):
            with pytest.raises(ValueError, match="unit vectors"):
                HalfspaceCell(G)

    def test_non_finite_marginal_mean_rejected(self):
        with pytest.raises(ValueError):
            MarginalMean(float("nan"))

    def test_contains(self):
        cell = HalfspaceCell(np.eye(3))
        assert cell.contains(np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0))
        assert not cell.contains(np.array([-1.0, 0.0, 0.0]))


# cell_marginal_mean_MAT's (value, std_error) on the cells of
# test_matches_closed_form_d3, in order, as computed before its reduced cell,
# direction draw and integrand became helpers shared with mean_width_mat
MAT_RIGHT_TRIANGLES = [
    (0.034762176246636564, 0.0002121750375145183),
    (0.04797668566921895, 0.0002963508801536656),
    (0.057296456945210614, 0.00032867978311729433),
    (0.01005094166102563, 0.0001170770446789894),
    (0.0138338429443809, 9.978832984985411e-05),
    (0.0540109505929261, 0.00032530215993641586),
    (0.03336628078597422, 0.00020743330728015516),
    (0.02553370890030959, 0.00022709898502796933),
    (0.025065353715874424, 0.00022874541933860532),
    (0.06187395718392563, 0.00033865123672754017),
    (0.05454791040116983, 0.00031145889191370394),
    (0.023596670917936227, 0.0001649031998850324),
    (0.027135021834981517, 0.00021811994050886243),
    (0.02718057004563316, 0.00017618963826341707),
    (0.00667321418839138, 5.89912880764023e-05),
    (0.010343929335163402, 9.017611282943872e-05),
    (0.027623592175207445, 0.00022221044509679192),
    (0.016023457000945165, 0.00019287885807199698),
    (0.033008439504465366, 0.00020603940855617255),
    (0.036442904077342415, 0.00024966618388964494),
]


class TestCellMarginalMAT:
    def test_octant(self):
        mm = cell_marginal_mean_MAT(HalfspaceCell(np.eye(3)), 400_000, seed=0)
        assert abs(mm.value - 1.0 / 16.0) < 4 * mm.std_error

    def test_wrong_prefactor_fails_octant(self):
        mm = cell_marginal_mean_MAT(HalfspaceCell(np.eye(3)), 400_000, seed=0,
                                    prefactor_denominator="d-2")
        # the alternative normalization lands at 1/8, far outside MC error
        assert abs(mm.value - 1.0 / 16.0) > 10 * mm.std_error
        assert abs(mm.value - 1.0 / 8.0) < 4 * mm.std_error

    def test_matches_closed_form_d3(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            a, b = rng.uniform(0.3, np.pi / 2, size=2)
            T = solve_right_triangle(a, b)
            # the triangle as a halfspace cell; vertex A is already e1
            N = np.linalg.inv(np.column_stack([T.A, T.B, T.C]))
            N /= np.linalg.norm(N, axis=1, keepdims=True)
            mm = cell_marginal_mean_MAT(HalfspaceCell(N), 100_000,
                                        seed=int(rng.integers(2 ** 31)))
            exact = right_triangle_marginal_mean(a, b).value
            assert abs(mm.value - exact) < 4 * mm.std_error

    def test_deterministic(self):
        cell = HalfspaceCell(np.eye(3))
        m1 = cell_marginal_mean_MAT(cell, 10_000, seed=42)
        m2 = cell_marginal_mean_MAT(cell, 10_000, seed=42)
        assert m1.value == m2.value

    def test_requires_e1_vertex(self):
        # valid cell, but rotated so no single facet avoids e1
        Q = np.linalg.qr(np.ones((3, 3)) + np.eye(3))[0]
        with pytest.raises(ValueError):
            cell_marginal_mean_MAT(HalfspaceCell(Q), 1000, seed=0)

    def test_octant_as_before(self):
        for pref, value, se in (("d-1", 0.06248875, 0.00017115324213164783),
                                ("d-2", 0.1249775, 0.00034230648426329565)):
            mm = cell_marginal_mean_MAT(HalfspaceCell(np.eye(3)), 400_000, seed=0,
                                        prefactor_denominator=pref)
            assert abs(mm.value - value) < 1e-14
            assert abs(mm.std_error - se) < 1e-14

    def test_right_triangles_as_before(self):
        rng = np.random.default_rng(9)
        for value, se in MAT_RIGHT_TRIANGLES:
            a, b = rng.uniform(0.3, np.pi / 2, size=2)
            T = solve_right_triangle(a, b)
            N = np.linalg.inv(np.column_stack([T.A, T.B, T.C]))
            N /= np.linalg.norm(N, axis=1, keepdims=True)
            mm = cell_marginal_mean_MAT(HalfspaceCell(N), 100_000,
                                        seed=int(rng.integers(2 ** 31)))
            assert abs(mm.value - value) < 1e-14
            assert abs(mm.std_error - se) < 1e-14

    def test_one_sample_has_a_finite_std_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # seed 1 draws a direction inside the quarter circle
            mm = cell_marginal_mean_MAT(HalfspaceCell(np.eye(3)), 1, seed=1)
        assert mm.std_error == 0.0
