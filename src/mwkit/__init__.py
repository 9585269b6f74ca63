"""mwkit: mean width of inscribed simplices via spherical geometry.

Spherical trigonometry, cap/Wallis measures, Voronoi and path-simplex
(orthoscheme) decompositions, exact and Monte Carlo mean-width evaluation,
the two-angle Hessian analysis, and an ascent of the width (BFGS in d = 3)
that recovers the regular simplex as the maximizer in dimension 3.
"""

from .sphere import (unit_vector, arc_length, orientation,
                     RightSphericalTriangle, solve_right_triangle,
                     napier_angle, phi_param, law_of_sines_residual,
                     spherical_triangle_area, vertex_angle, tangent_at)
from .measures import (wallis_complete, wallis_table, wallis_incomplete,
                       cap_measure, MarginalMean, cap_marginal_mean,
                       right_triangle_marginal_mean, triangle_marginal_mean,
                       centroid_brock, HalfspaceCell, cell_marginal_mean_MAT)
from .cells import (DegeneracyError, InscribedSimplex, random_simplex,
                    VoronoiCell, voronoi_cells, equidistant_point, cell_vertex,
                    maximal_chains, SignedPathSimplex, path_simplex_from_chain,
                    decompose_simplex, gram_matrix, adjacent_dihedral_angles,
                    ComplexAudit, right_triangle_complex, FeasibilityReport,
                    feasibility_checks)
from .hessian import (in_region, intermediate_ab, f_value, gradient, pqr,
                      HessianReport, hessian_analytic, ReducedDetReport,
                      reduced_det_positive, ScanReport, region_scan)
from .width import (WidthEstimate, support_function, mean_width_mc,
                    mean_width_exact3d, mean_width_mat, regular_simplex,
                    regular_tetrahedron_width, regularity_metric,
                    OptimizerState, optimize_width)

__version__ = "0.1.0"
