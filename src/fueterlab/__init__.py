"""fueterlab: exact and numerical workbench for axial monogenic functions.

Clifford algebra arithmetic with exact rational or binary64 coefficients,
polynomials with Clifford coefficients (Dirac operator, Cauchy-Kowalevski
extension, generalized Hermite polynomials), an exact term algebra for
functions of (x0, r), transforms of holomorphic seeds into axial monogenic
pairs, and numerical oracles (finite differences, series evaluation, decay
scans) that cross-check the symbolic layer.
"""

from .axial import AxialExpr, d_lower, d_upper, format_axial, parse_axial
from .clifford import Multivector, format_multivector, gp, parse_multivector
from .cliffpoly import (
    CliffPoly,
    HermiteResult,
    ck_extend_poly,
    coeff_c,
    cr_apply,
    cr_conj_apply,
    dirac,
    format_poly,
    hermite_closed,
    hermite_rec,
    laplacian,
    parse_poly,
    poly_mul,
    require_homogeneous_monogenic,
    sample_p0,
    sample_p1,
)
from .fueter import (
    AxialPair,
    HoloSeed,
    axial_to_poly,
    closed_form,
    coeff_a,
    double_factorial,
    fueter,
    fueter_via_laplacian,
    gauss_ck_pair,
    gauss_fund_pair,
    seed,
    triangle_check,
    vekua_ok,
    vekua_residual,
)
from .numeric import (
    DecayReport,
    EvalPoint,
    FDConfig,
    ProbeReport,
    ck_gauss_restriction,
    ck_gauss_series,
    decay_scan,
    entire_part_probe,
    eval_axial,
    fd_cr_residual,
)

__version__ = "0.1.0"
