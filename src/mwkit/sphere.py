"""Unit-sphere primitives and the S^2 right-triangle trigonometry toolkit.

Points are plain numpy arrays of unit Euclidean norm; ``unit_vector`` is the
validating constructor.  All angle-valued results are in radians, areas in
steradians.  Everything here is a pure function of its inputs.
``_unit_normals`` is the one normalized inverse: the inward unit facet
normals of a spherical simplex, or of a stack of them, for ``measures``,
``cells`` and ``width``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import GLOBAL_EPS

__all__ = [
    "unit_vector",
    "arc_length",
    "orientation",
    "RightSphericalTriangle",
    "solve_right_triangle",
    "napier_angle",
    "phi_param",
    "tangent_at",
    "vertex_angle",
    "law_of_sines_residual",
    "spherical_triangle_area",
]


def unit_vector(coords) -> np.ndarray:
    """Validate and return a point on S^{d-1} as a float ndarray."""
    v = np.asarray(coords, dtype=float)
    if v.ndim != 1 or v.size < 2:
        raise ValueError("unit vector needs a 1-d coordinate array with d >= 2")
    if not abs(np.linalg.norm(v) - 1.0) <= GLOBAL_EPS:
        raise ValueError(f"vector norm {np.linalg.norm(v)!r} is not 1 within {GLOBAL_EPS}")
    return v


def _clamp(x):
    return np.clip(x, -1.0, 1.0)


def _check_same_dim(*vs):
    dims = {v.shape[-1] for v in vs}
    if len(dims) != 1:
        raise ValueError(f"dimension mismatch: {sorted(dims)}")


def arc_length(x: np.ndarray, y: np.ndarray):
    """Geodesic distance on the sphere, arccos of the clamped dot product."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    _check_same_dim(x, y)
    return np.arccos(_clamp(np.sum(x * y, axis=-1)))


def orientation(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> int:
    """Sign of det[a b c] for three points of S^2; 0 below the global epsilon."""
    a, b, c = (np.asarray(v, dtype=float) for v in (a, b, c))
    _check_same_dim(a, b, c)
    if a.shape[-1] != 3:
        raise ValueError("orientation is defined for S^2 (ambient dimension 3)")
    det = np.linalg.det(np.column_stack([a, b, c]))
    if abs(det) < GLOBAL_EPS:
        return 0
    return 1 if det > 0 else -1


@dataclass(frozen=True)
class RightSphericalTriangle:
    """A right spherical triangle on S^2 with the right angle at C.

    Legs ``a`` (opposite A, from B to C) and ``b`` (from A to C), hypotenuse
    ``c``, and the non-right angles ``alpha`` at A, ``beta`` at B.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    a: float
    b: float
    c: float
    alpha: float
    beta: float

    def max_invariant_residual(self) -> float:
        """Worst violation of the defining identities, used by tests."""
        res = [
            abs(np.cos(self.c) - np.cos(self.a) * np.cos(self.b)),
            abs(self.a - arc_length(self.B, self.C)),
            abs(self.b - arc_length(self.A, self.C)),
            abs(self.c - arc_length(self.A, self.B)),
            abs(np.cos(self.alpha) - np.cos(self.a) * np.sin(self.beta)),
            abs(np.tan(self.a) - np.tan(self.alpha) * np.sin(self.b)),
        ]
        return max(res)


def solve_right_triangle(a: float, b: float) -> RightSphericalTriangle:
    """Build the canonical right triangle with legs ``a``, ``b`` in (0, pi/2].

    Vertices: A = e1, C = (cos b, sin b, 0), and B lifted out of the plane so
    that arc(B, C) = a and the angle at C is pi/2.
    """
    if not (0.0 < a <= np.pi / 2) or not (0.0 < b <= np.pi / 2):
        raise ValueError("legs must lie in (0, pi/2] for the canonical builder")
    A = np.array([1.0, 0.0, 0.0])
    C = np.array([np.cos(b), np.sin(b), 0.0])
    # the tangent at C perpendicular to arc CA with nonnegative z is e3
    B = np.cos(a) * C + np.sin(a) * np.array([0.0, 0.0, 1.0])
    c = float(arc_length(A, B))
    alpha = float(np.arctan2(np.sin(a), np.cos(a) * np.sin(b)))
    beta = float(np.arctan2(np.sin(b), np.cos(b) * np.sin(a)))
    return RightSphericalTriangle(A=A, B=B, C=C, a=a, b=b, c=c, alpha=alpha, beta=beta)


def napier_angle(a: float, B_angle: float) -> float:
    """Angle A of a right triangle from leg a and angle B: A = arccos(cos a sin B)."""
    val = np.cos(a) * np.sin(B_angle)
    if abs(val) > 1.0:
        raise ValueError(f"cos a * sin B = {val} outside [-1, 1]")
    return float(np.arccos(val))

def phi_param(theta: float, b: float) -> float:
    """Arc parametrization Phi(theta) of the side opposite A, for leg b.

    Solves sin^2 Phi = tan^2 b / (tan^2 b + cos^2 theta), equivalently
    cos theta = tan b * cot Phi, with Phi in (0, pi/2].
    """
    if not (0.0 < b < np.pi / 2):
        raise ValueError("b must lie in (0, pi/2); the quarter-circle case b = pi/2 "
                         "is singular here and must be handled by the caller")
    if not (0.0 <= theta <= np.pi / 2):
        raise ValueError("theta must lie in [0, pi/2]")
    t2 = np.tan(b) ** 2
    s2 = t2 / (t2 + np.cos(theta) ** 2)
    return float(np.arcsin(np.sqrt(s2)))


def tangent_at(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Unit tangent vector at x pointing along the arc toward y."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    t = y - np.dot(y, x) * x
    n = np.linalg.norm(t)
    if n < GLOBAL_EPS:
        raise ValueError("tangent undefined: points identical or antipodal")
    return t / n


def vertex_angle(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> float:
    """Interior angle at vertex x of the spherical triangle xyz."""
    return float(np.arccos(_clamp(np.dot(tangent_at(x, y), tangent_at(x, z)))))


def _check_nondegenerate_triangle(A, B, C):
    for x, y in ((A, B), (B, C), (C, A)):
        d = arc_length(x, y)
        if d < 1e-9 or d > np.pi - 1e-9:
            raise ValueError("degenerate triangle: coincident or antipodal vertices")
    if abs(np.linalg.det(np.column_stack([A, B, C]))) < GLOBAL_EPS:
        raise ValueError("degenerate triangle: vertices on a common great circle")


def law_of_sines_residual(A: np.ndarray, B: np.ndarray, C: np.ndarray) -> float:
    """Max pairwise deviation of sin(side)/sin(angle) over the three pairs.

    Serves as a test oracle: the spherical law of sines makes the three
    ratios equal for any nondegenerate triangle.
    """
    A, B, C = (np.asarray(v, dtype=float) for v in (A, B, C))
    _check_nondegenerate_triangle(A, B, C)
    a, b, c = arc_length(B, C), arc_length(C, A), arc_length(A, B)
    alpha = vertex_angle(A, B, C)
    beta = vertex_angle(B, C, A)
    gamma = vertex_angle(C, A, B)
    ratios = [np.sin(a) / np.sin(alpha), np.sin(b) / np.sin(beta), np.sin(c) / np.sin(gamma)]
    return float(max(ratios) - min(ratios))


def spherical_triangle_area(A: np.ndarray, B: np.ndarray, C: np.ndarray) -> float:
    """Girard area in steradians: interior angle sum minus pi."""
    A, B, C = (np.asarray(v, dtype=float) for v in (A, B, C))
    _check_nondegenerate_triangle(A, B, C)
    s = vertex_angle(A, B, C) + vertex_angle(B, C, A) + vertex_angle(C, A, B)
    return float(s - np.pi)


def _unit_normals(M: np.ndarray) -> np.ndarray:
    """Rows of inv(M) at unit norm, one matrix or a stack: row i is the inward
    normal of the facet opposite column i.  No singularity guard."""
    N = np.linalg.inv(M)
    N /= np.linalg.norm(N, axis=-1, keepdims=True)
    return N
