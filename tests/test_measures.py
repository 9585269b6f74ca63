"""Wallis integrals, cap measures, marginal means, the Brock centroid, and
the reduced-integral cell evaluator."""

import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from mwkit import (HalfspaceCell, cap_marginal_mean, cap_measure,
                   cell_marginal_mean_MAT, centroid_brock,
                   right_triangle_marginal_mean, solve_right_triangle,
                   triangle_marginal_mean, wallis_complete, wallis_incomplete,
                   wallis_table)


def sample_sphere(rng, n, d=3):
    u = rng.standard_normal((n, d))
    return u / np.linalg.norm(u, axis=1, keepdims=True)


def triangle_marginal_mc(A, B, C, axis, n, seed):
    """Direct MC oracle for M_axis over the spherical triangle ABC (d=3)."""
    N = np.linalg.inv(np.column_stack([A, B, C]))
    u = sample_sphere(np.random.default_rng(seed), n)
    g = np.where(np.all(u @ N.T >= 0.0, axis=1), u @ axis, 0.0)
    return g.mean(), g.std(ddof=1) / np.sqrt(n)


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
        from mwkit import arc_length, vertex_angle
        rng = np.random.default_rng(4)
        count = 0
        while count < 100:
            A, B, C = sample_sphere(rng, 3)
            if abs(np.linalg.det(np.column_stack([A, B, C]))) < 1e-2:
                continue
            try:
                m = triangle_marginal_mean(A, B, C).value
            except ValueError:
                continue
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

    def test_degenerate(self):
        e = np.eye(3)
        with pytest.raises(ValueError):
            centroid_brock(e[0], e[1], (e[0] + e[1]) / np.sqrt(2.0))


class TestHalfspaceCell:
    def test_row_norm_enforced(self):
        with pytest.raises(ValueError):
            HalfspaceCell(2.0 * np.eye(3))

    def test_singular_rejected(self):
        H = np.eye(3)
        H[2] = H[1]
        with pytest.raises(ValueError):
            HalfspaceCell(H)

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
