"""The two-angle objective f(A,B) = a sin b of a right spherical triangle,
its analytic derivatives, and negative-definiteness checks over the region

    R = {|A|, |B| <= pi/2} intersect {cos^2 A + cos^2 B < 1}.

Intermediate variables: a = arccos(cos B / sin A), b = arccos(cos A / sin B).
All evaluators are numpy-vectorized; scan output serializes to CSV.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

__all__ = [
    "in_region",
    "intermediate_ab",
    "f_value",
    "gradient",
    "pqr",
    "HessianReport",
    "hessian_analytic",
    "ReducedDetReport",
    "reduced_det_positive",
    "ScanReport",
    "region_scan",
]


def in_region(A, B) -> np.ndarray:
    """Membership in R (the |A| = pi/2 boundary is admitted; the curved
    boundary cos^2 A + cos^2 B = 1 is not, since a vanishes there)."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    return ((np.abs(A) <= np.pi / 2) & (np.abs(B) <= np.pi / 2)
            & (np.cos(A) ** 2 + np.cos(B) ** 2 < 1.0))


def _require_region(A, B):
    if not np.all(in_region(A, B)):
        raise ValueError("point outside the region R")


def intermediate_ab(A, B):
    """Legs (a, b) of the right triangle with non-right angles A, B;
    a is opposite A (Napier: cos A = cos a sin B) and b opposite B."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    _require_region(A, B)
    a = np.arccos(np.cos(A) / np.sin(B))
    b = np.arccos(np.cos(B) / np.sin(A))
    return a, b


def f_value(A, B):
    """f(A, B) = a sin b = arccos(cos A / sin B) * sqrt(1 - cos^2 B / sin^2 A)."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    _require_region(A, B)
    a = np.arccos(np.cos(A) / np.sin(B))
    sinb = np.sqrt(1.0 - np.cos(B) ** 2 / np.sin(A) ** 2)
    return a * sinb


def _f_unchecked(A, B):
    # nan-propagating variant for finite-difference probes near the boundary
    with np.errstate(invalid="ignore"):
        a = np.arccos(np.clip(np.cos(A) / np.sin(B), -1.0, 1.0))
        s2 = 1.0 - np.cos(B) ** 2 / np.sin(A) ** 2
        return a * np.sqrt(np.where(s2 > 0, s2, np.nan))


def gradient(A, B):
    """Analytic first partials (f_A, f_B)."""
    return _first_partials(*intermediate_ab(A, B))


def _first_partials(a, b):
    sa, ca = np.sin(a), np.cos(a)
    sb, cb = np.sin(b), np.cos(b)
    f_A = 1.0 + a * ca * cb ** 2 / sa
    f_B = cb * (ca + a / sa)
    return f_A, f_B


def _second_partials(a, b):
    # the three scaled forms with the overall cos a distributed inside, so
    # nothing divides by cos a and the octant line cos a = 0 is a plain limit
    sa, ca = np.sin(a), np.cos(a)
    sb, cb = np.sin(b), np.cos(b)
    r = a / sa
    f_AA = ca * cb ** 2 / (sa * sb) - cb ** 2 * (2.0 * sb * ca ** 2 + 1.0 / sb) * r / sa
    f_BB = (ca / sa) * (-sb + ca ** 2 * cb ** 2 / sb) \
        - (sb + cb ** 2 * ca ** 2 / sb) * r / sa
    f_AB = (ca * cb / sa) * (cb ** 2 * ca / sb - (1.0 + sb ** 2) / sb * r)
    return f_AA, f_AB, f_BB


def pqr(x, y, check_raw: bool = False):
    """The rational functions P, Q, R at (x, y) = (sin a, sin b).

    Simplified closed forms:
        P = (1-x^2)(1-y^2) - 1
        Q = 2 (1 - (1-x^2)(1-y^2))
        R = (2x^2-1) (y^2 - 1 + 1/(1-x^2))

    With ``check_raw`` the unsimplified products of second-partial factors are
    evaluated as well and must agree to 1e-12 (a check on the algebra).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(x >= 1.0) or np.any(x <= 0.0) or np.any(y <= 0.0):
        raise ValueError("need 0 < x < 1 (the 1/(1-x^2) term) and y > 0")
    u = (1.0 - x ** 2) * (1.0 - y ** 2)
    P = u - 1.0
    Q = 2.0 * (1.0 - u)
    R = (2.0 * x ** 2 - 1.0) * (y ** 2 - 1.0 + 1.0 / (1.0 - x ** 2))
    if check_raw:
        x2, y2 = x ** 2, y ** 2
        P_raw = (1.0 / y) * (-y + (1.0 - x2) * (1.0 - y2) / y) \
            - ((1.0 - y2) ** 2 / y2) * (1.0 - x2)
        Q_raw = (-1.0 / y) * (y / (1.0 - x2) + (1.0 - y2) / y) \
            - (2.0 * y + 1.0 / (y * (1.0 - x2))) * (-y + (1.0 - x2) * (1.0 - y2) / y) \
            + 2.0 * ((1.0 - y2) / y) * ((1.0 + y2) / y)
        R_raw = (2.0 * y + 1.0 / (y * (1.0 - x2))) * (y + (1.0 - y2) * (1.0 - x2) / y) \
            - (y + 1.0 / y) ** 2
        worst = max(np.max(np.abs(P - P_raw)), np.max(np.abs(Q - Q_raw)),
                    np.max(np.abs(R - R_raw)))
        if worst > 1e-12:
            raise AssertionError(f"raw and simplified P/Q/R disagree by {worst}")
    return P, Q, R


def reduced_det_value(a):
    """The y-free reduced determinant a^2 tan^2 a - (1 - a cot a)^2."""
    a = np.asarray(a, dtype=float)
    return (a * np.tan(a)) ** 2 - (1.0 - a / np.tan(a)) ** 2


@dataclass(frozen=True)
class ReducedDetReport:
    value: float
    factor_sin: float   # 1 - 2a/sin 2a, negative on (0, pi/2)
    factor_tan: float   # 1 - 2a/tan 2a, positive on (0, pi/2)
    positive: bool

    def __bool__(self) -> bool:
        return self.positive


def reduced_det_positive(a: float) -> ReducedDetReport:
    """Positivity of the reduced determinant on (0, pi/2), with the two
    chain factors exposed: their product is -(1 - a cot a)^2 + a^2 tan^2 a
    up to sign bookkeeping and must be negative."""
    if not (0.0 < a < np.pi / 2):
        raise ValueError("a must lie in (0, pi/2)")
    val = float(reduced_det_value(a))
    return ReducedDetReport(
        value=val,
        factor_sin=float(1.0 - 2.0 * a / np.sin(2.0 * a)),
        factor_tan=float(1.0 - 2.0 * a / np.tan(2.0 * a)),
        positive=val > 0.0,
    )


@dataclass(frozen=True)
class HessianReport:
    """Everything the second-order analysis produces at one point (A, B)."""

    A: float
    B: float
    a: float
    b: float
    f: float
    f_A: float
    f_B: float
    f_AA: float
    f_AB: float
    f_BB: float
    P: float
    Q: float
    R_val: float
    det_hess: float
    reduced_det: float
    negative_definite: bool


def _hessian_arrays(A, B):
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    a, b = intermediate_ab(A, B)
    f = a * np.sin(b)
    f_A, f_B = _first_partials(a, b)
    f_AA, f_AB, f_BB = _second_partials(a, b)
    det = f_AA * f_BB - f_AB ** 2
    red = reduced_det_value(a)
    return dict(A=A, B=B, a=a, b=b, f=f, f_A=f_A, f_B=f_B,
                f_AA=f_AA, f_AB=f_AB, f_BB=f_BB, det_hess=det, reduced_det=red)


def hessian_analytic(A: float, B: float) -> HessianReport:
    """Full second-order report at a single point of R.

    P, Q, R are evaluated at (x, y) = (sin a, sin b) when cos a != 0; on the
    octant line sin a = 1 they are taken as the (1-x^2) -> 0 limits
    P = -1, Q = 2, with R undefined (nan).
    """
    vals = {k: float(v) for k, v in _hessian_arrays(A, B).items()}
    x, y = np.sin(vals["a"]), np.sin(vals["b"])
    if x < 1.0 - 1e-12:
        P, Q, R = (float(t) for t in pqr(x, y))
    else:
        P, Q, R = -1.0, 2.0, float("nan")
    neg_def = bool(vals["f_AA"] < 0.0 and vals["det_hess"] > 0.0)
    return HessianReport(P=P, Q=Q, R_val=R, negative_definite=neg_def, **vals)


# ---------------------------------------------------------------------------
# Region scan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanReport:
    """Grid evaluation of the Hessian over the open positive quadrant of R."""

    A: np.ndarray
    B: np.ndarray
    f: np.ndarray
    f_AA: np.ndarray
    det_hess: np.ndarray
    reduced_det: np.ndarray
    fd_gap: np.ndarray           # nan where the FD stencil would leave R
    n_points: int
    min_neg_f_AA: float          # min of (-f_AA); positive iff f_AA < 0 holds
    min_det_hess: float
    max_fd_gap: float
    violations_f_AA: int
    violations_det: int

    @property
    def ok(self) -> bool:
        return self.violations_f_AA == 0 and self.violations_det == 0

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["A", "B", "f", "f_AA", "det_hess", "reduced_det", "fd_gap"])
            for row in zip(self.A, self.B, self.f, self.f_AA,
                           self.det_hess, self.reduced_det, self.fd_gap):
                w.writerow([f"{v:.17g}" for v in row])


def _fd_hessian_entries(A, B, h):
    # Richardson-extrapolated central second differences of f, vectorized
    def hess(step):
        fpp = _f_unchecked(A + step, B) + _f_unchecked(A - step, B)
        f0 = _f_unchecked(A, B)
        hAA = (fpp - 2 * f0) / step ** 2
        fqq = _f_unchecked(A, B + step) + _f_unchecked(A, B - step)
        hBB = (fqq - 2 * f0) / step ** 2
        hAB = (_f_unchecked(A + step, B + step) - _f_unchecked(A + step, B - step)
               - _f_unchecked(A - step, B + step) + _f_unchecked(A - step, B - step)) \
            / (4 * step ** 2)
        return hAA, hAB, hBB
    c1 = hess(h)
    c2 = hess(h / 2)
    return tuple((4 * b - a) / 3 for a, b in zip(c1, c2))


_SCAN_MARGIN = 1e-4  # the grid's distance from the boundary of R
_FD_STEP = 1e-4      # finite-difference step of the Hessian comparison
_FD_MARGIN = 0.02    # distance from the boundary where the stencil stays in R


def region_scan(grid_n: int) -> ScanReport:
    """Evaluate the analytic Hessian on a grid over the open positive quadrant
    of R and count sign violations; finite-difference comparison is done on
    the subset at distance _FD_MARGIN from the boundary where the stencil is
    valid."""
    if grid_n < 2:
        raise ValueError("grid_n must be >= 2")
    ax = np.linspace(_SCAN_MARGIN, np.pi / 2 - _SCAN_MARGIN, grid_n)
    A, B = (c.ravel() for c in np.meshgrid(ax, ax))
    keep = np.cos(A) ** 2 + np.cos(B) ** 2 < 1.0 - _SCAN_MARGIN
    A, B = A[keep], B[keep]
    vals = _hessian_arrays(A, B)

    safe = ((np.cos(A) ** 2 + np.cos(B) ** 2 < 1.0 - _FD_MARGIN)
            & (A < np.pi / 2 - _FD_MARGIN) & (B < np.pi / 2 - _FD_MARGIN)
            & (A > _FD_MARGIN) & (B > _FD_MARGIN))
    fd_gap = np.full(A.shape, np.nan)
    if np.any(safe):
        hAA, hAB, hBB = _fd_hessian_entries(A[safe], B[safe], _FD_STEP)
        gap = np.maximum.reduce([np.abs(hAA - vals["f_AA"][safe]),
                                 np.abs(hAB - vals["f_AB"][safe]),
                                 np.abs(hBB - vals["f_BB"][safe])])
        fd_gap[safe] = gap

    return ScanReport(
        A=A, B=B, f=vals["f"], f_AA=vals["f_AA"], det_hess=vals["det_hess"],
        reduced_det=vals["reduced_det"], fd_gap=fd_gap,
        n_points=int(A.size),
        min_neg_f_AA=float(np.min(-vals["f_AA"])),
        min_det_hess=float(np.min(vals["det_hess"])),
        max_fd_gap=float(np.nanmax(fd_gap)) if np.any(safe) else float("nan"),
        violations_f_AA=int(np.sum(vals["f_AA"] >= 0.0)),
        violations_det=int(np.sum(vals["det_hess"] <= 0.0)),
    )
