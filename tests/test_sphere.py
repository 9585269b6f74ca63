"""Spherical trigonometry primitives: arc lengths, right triangles built in
the canonical frame, Napier's rules, the Phi parametrization, and the
law-of-sines / Girard oracles."""

import numpy as np
import pytest

from mwkit import (arc_length, law_of_sines_residual, napier_angle,
                   orientation, phi_param, solve_right_triangle,
                   spherical_triangle_area, unit_vector, vertex_angle)

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])


def random_unit(rng, d=3):
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)


class TestArcLength:
    def test_identical(self):
        assert arc_length(E1, E1) == 0.0

    def test_orthogonal(self):
        assert abs(arc_length(E1, E2) - np.pi / 2) < 1e-15

    def test_antipodal(self):
        assert abs(arc_length(E1, -E1) - np.pi) < 1e-15

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            arc_length(E1, np.array([1.0, 0.0]))

    def test_triangle_inequality(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            x, y, z = (random_unit(rng) for _ in range(3))
            assert arc_length(x, z) <= arc_length(x, y) + arc_length(y, z) + 1e-12


class TestOrientation:
    def test_standard_basis(self):
        assert orientation(E1, E2, E3) == 1

    def test_swap_flips(self):
        assert orientation(E2, E1, E3) == -1

    def test_coplanar(self):
        mid = (E1 + E2) / np.sqrt(2.0)
        assert orientation(E1, E2, mid) == 0


class TestSolveRightTriangle:
    def test_octant(self):
        T = solve_right_triangle(np.pi / 2, np.pi / 2)
        assert abs(T.c - np.pi / 2) < 1e-12
        assert abs(T.alpha - np.pi / 2) < 1e-12
        assert abs(T.beta - np.pi / 2) < 1e-12

    def test_sixty_degree_legs(self):
        # equal legs pi/3: hypotenuse arccos(1/4), angle at A arctan 2
        T = solve_right_triangle(np.pi / 3, np.pi / 3)
        assert abs(T.c - np.arccos(0.25)) < 1e-12
        assert abs(T.alpha - np.arctan(2.0)) < 1e-12

    def test_degenerate_limit(self):
        T = solve_right_triangle(1e-6, 0.9)
        assert abs(T.c - 0.9) < 1e-9
        assert T.alpha < 1e-5

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (1.0, 0.0), (2.0, 1.0), (1.0, -0.3)])
    def test_leg_domain(self, a, b):
        with pytest.raises(ValueError):
            solve_right_triangle(a, b)

    def test_invariants_random(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(500):
            # keep tan a well-conditioned (the identity involves tan of a leg)
            a, b = rng.uniform(0.05, 1.5, size=2)
            T = solve_right_triangle(a, b)
            worst = max(worst, T.max_invariant_residual())
            # pythagorean + both Napier angle rules, straight from the fields
            assert abs(np.cos(T.c) - np.cos(T.a) * np.cos(T.b)) < 1e-10
            assert abs(np.cos(T.alpha) - np.cos(T.a) * np.sin(T.beta)) < 1e-10
            assert abs(np.tan(T.a) - np.tan(T.alpha) * np.sin(T.b)) < 1e-10
        assert worst < 1e-10

    def test_right_angle_at_C(self):
        T = solve_right_triangle(0.7, 1.1)
        assert abs(vertex_angle(T.C, T.A, T.B) - np.pi / 2) < 1e-10


class TestNapierAngle:
    def test_quarter_leg(self):
        assert abs(napier_angle(np.pi / 2, 0.3) - np.pi / 2) < 1e-15

    def test_right_opposite(self):
        assert abs(napier_angle(np.pi / 3, np.pi / 2) - np.pi / 3) < 1e-15

    def test_sixty_sixty(self):
        assert abs(napier_angle(np.pi / 3, np.pi / 3) - np.arccos(np.sqrt(3) / 4)) < 1e-15

    def test_consistent_with_builder(self):
        T = solve_right_triangle(np.pi / 3, np.pi / 3)
        assert abs(napier_angle(T.a, T.beta) - T.alpha) < 1e-10

    def test_range(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            A = napier_angle(rng.uniform(0, np.pi), rng.uniform(0, np.pi))
            assert 0.0 <= A <= np.pi


class TestPhiParam:
    def test_at_zero(self):
        assert abs(phi_param(0.0, 0.8) - 0.8) < 1e-12

    def test_at_quarter(self):
        assert abs(phi_param(np.pi / 2, 0.8) - np.pi / 2) < 1e-12

    def test_midpoint_value(self):
        assert abs(phi_param(np.pi / 4, np.pi / 4) - np.arcsin(np.sqrt(2.0 / 3.0))) < 1e-12

    def test_defining_relation(self):
        for theta in np.linspace(0.0, np.pi / 2 - 1e-3, 25):
            for b in (0.2, 0.7, 1.3):
                phi = phi_param(theta, b)
                assert abs(np.cos(theta) - np.tan(b) / np.tan(phi)) < 1e-10

    def test_monotone_in_theta(self):
        grid = np.linspace(0.0, np.pi / 2 - 1e-6, 200)
        vals = [phi_param(t, 0.6) for t in grid]
        assert np.all(np.diff(vals) > 0)

    def test_b_singular(self):
        with pytest.raises(ValueError):
            phi_param(0.3, np.pi / 2)


class TestTriangleOracles:
    def test_octant_residual_zero(self):
        assert law_of_sines_residual(E1, E2, E3) < 1e-14

    def test_random_residual(self):
        rng = np.random.default_rng(3)
        count = 0
        while count < 1000:
            A, B, C = (random_unit(rng) for _ in range(3))
            # the residual oracle is only sharp away from near-degenerate
            # triangles, where sin(angle) in the denominator loses digits
            if abs(np.linalg.det(np.column_stack([A, B, C]))) < 1e-2:
                continue
            assert law_of_sines_residual(A, B, C) < 1e-10
            count += 1

    def test_equilateral_quarter_side(self):
        # three mutually orthogonal vertices form an equilateral side-pi/2 triangle
        assert law_of_sines_residual(E3, E1, E2) < 1e-10

    def test_octant_area(self):
        assert abs(spherical_triangle_area(E1, E2, E3) - np.pi / 2) < 1e-12

    def test_degenerate_area(self):
        with pytest.raises(ValueError):
            spherical_triangle_area(E1, E2, (E1 + E2) / np.sqrt(2.0))

    def test_area_vs_monte_carlo(self):
        rng = np.random.default_rng(5)
        A, B, C = (random_unit(rng) for _ in range(3))
        area = spherical_triangle_area(A, B, C)
        # hit-or-miss with the cone membership test
        N = np.linalg.inv(np.column_stack([A, B, C]))
        n = 200_000
        u = rng.standard_normal((n, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        hit = np.all(u @ N.T >= 0.0, axis=1)
        p = hit.mean()
        se = np.sqrt(p * (1 - p) / n)
        assert abs(area / (4 * np.pi) - p) < 3 * se


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_unit_vector_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        unit_vector([bad, 0.0])


def test_unit_vector_rejects_off_sphere():
    with pytest.raises(ValueError):
        unit_vector([1.0, 1.0, 1.0])
    v = unit_vector([0.6, 0.8, 0.0])
    assert v.shape == (3,)
