"""fueterlab: exact and numerical workbench for axial monogenic functions.

Clifford algebra arithmetic with exact rational or binary64 coefficients,
polynomials with Clifford coefficients (Dirac operator, Cauchy-Kowalevski
extension, generalized Hermite polynomials), an exact term algebra for
functions of (x0, r), transforms of holomorphic seeds into axial monogenic
pairs, and numerical oracles (finite differences, series evaluation, decay
scans) that cross-check the symbolic layer.

The package root re-exports only the functions the benchmark reads through
it (`perfbench/workloads.py`); everything else is imported from its module.
"""

from .axial import d_lower, d_upper
from .cliffpoly import ck_extend_poly, coeff_c, cr_apply, cr_conj_apply, dirac, hermite_closed, hermite_rec, laplacian
from .fueter import (
    axial_to_poly,
    closed_form,
    fueter,
    fueter_via_laplacian,
    gauss_ck_pair,
    gauss_fund_pair,
    seed,
    triangle_check,
    vekua_ok,
)
from .numeric import ck_gauss_series, decay_scan, entire_part_probe, eval_axial, fd_cr_residual

__version__ = "0.1.0"
