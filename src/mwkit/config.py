"""Numerical tolerances shared across mwkit."""

# Degeneracy tolerance for dot products, determinants and projections that
# should be exactly zero/one in exact arithmetic.
GLOBAL_EPS = 1e-12

# Looser tolerance used for "is this configuration in general position" tests
# (determinants of vertex matrices, altitude feet near facet boundaries).
DEGENERACY_EPS = 1e-10

# Unit-norm tolerance accepted when ingesting externally produced vertices.
INGEST_NORM_TOL = 1e-9

