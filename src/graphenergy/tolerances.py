"""Numerical tolerances, collected in one place.

Everything that compares floating-point results anywhere in the package
reads its threshold from here, so a tolerance change is a one-line edit.
"""

# Jacobi eigensolver: stop once off(A) = sqrt(sum of squared off-diagonal
# entries) drops below JACOBI_OFF_TOL_PER_N * n; give up after the sweep cap.
JACOBI_OFF_TOL_PER_N = 1e-12
JACOBI_MAX_SWEEPS = 100

# Spectrum sanity: |sum of eigenvalues| and |sum of squares - 2m|.
TRACE_TOL = 1e-8
TRACE_SQ_TOL = 1e-6

# Energy comparisons under relabeling and block-diagonal disjoint union.
ENERGY_INVARIANCE_TOL = 1e-8

# Entrywise agreement between the eigensolver and a closed-form spectrum.
CLOSED_SPECTRUM_TOL = 1e-7

# Slack on one-sided bound checks (energy <= e0, edge-deletion inequality,
# spectral-radius interlacing).
BOUND_SLACK = 1e-8

# Internal consistency of a ratio row (ratio vs energy/e0).
RATIO_FIELD_TOL = 1e-12

# Agreement between numeric and closed-form ratio-table rows.
MODE_AGREEMENT_TOL = 1e-7

# Largest vertex count a dense graph may have. Jacobi's float64 working set
# is about 24 n^2 bytes, about 400 MB at this size.
MAX_DENSE_N = 4096
