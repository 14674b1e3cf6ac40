import random
from fractions import Fraction

import pytest

from fueterlab.clifford import MixedVariantError, Multivector
from fueterlab.cliffpoly import (
    CliffPoly,
    ck_extend_poly,
    coeff_c,
    cr_apply,
    cr_conj_apply,
    dirac,
    format_poly,
    hermite_closed,
    hermite_rec,
    is_homogeneous_monogenic,
    laplacian,
    parse_poly,
    poly_mul,
    radius_sq_poly,
    sample_p1,
    vector_power,
)
from fueterlab.sampling import random_poly


def x_(m):
    return CliffPoly.vector_variable(m)


def var(m, j):
    return CliffPoly.variable(m, j)


def test_poly_mul_examples():
    m = 2
    x1e1 = var(m, 1).coeff_mul_left(Multivector.basis(m, 1))
    sq = poly_mul(x1e1, x1e1)
    assert sq == -poly_mul(var(m, 1), var(m, 1))
    assert poly_mul(x_(m), x_(m)) == -radius_sq_poly(m)
    p = parse_poly("3*x0 x1*e12 - 2*x2", m)
    assert poly_mul(p, CliffPoly.one(m)) == p


def test_scale_rejects_floats():
    for p in (CliffPoly.zero(2), var(2, 1)):
        with pytest.raises(MixedVariantError):
            p.scale(0.5)


def test_poly_mul_noncommutative():
    m = 2
    e1p = CliffPoly.constant(m, Multivector.basis(m, 1))
    e2p = CliffPoly.constant(m, Multivector.basis(m, 2))
    assert poly_mul(e1p, e2p) == -poly_mul(e2p, e1p)


def test_dirac_examples():
    m = 2
    assert dirac(var(m, 1)) == CliffPoly.constant(m, Multivector.basis(m, 1))
    # x1 e1 - x2 e2: e1*e1 + e2*(-e2) = -1 + 1 = 0
    assert dirac(sample_p1(m)).is_zero()
    # x_^2 = -(x1^2+...+xm^2), termwise derivative gives -2 x_
    assert dirac(vector_power(m, 2)) == x_(m).scale(-2)


def test_cr_examples():
    m = 3
    assert cr_apply(var(m, 0)) == CliffPoly.one(m)
    p = var(m, 1) - var(m, 0).coeff_mul_left(Multivector.basis(m, 1))
    assert cr_apply(p).is_zero()
    assert cr_apply(var(m, 0).scale(m) + x_(m)).is_zero()


def test_laplacian_examples():
    m = 2
    p = poly_mul(var(m, 1), var(m, 1))
    assert laplacian(p, include_x0=False) == CliffPoly.constant(m, 2)


def test_factorizations_random():
    rng = random.Random(31)
    for _ in range(200):
        m = rng.randint(1, 5)
        p = random_poly(rng, m, max_degree=3, with_x0=False)
        assert dirac(dirac(p)) == -laplacian(p, include_x0=False)
        q = random_poly(rng, m, max_degree=3, with_x0=True)
        lap = laplacian(q, include_x0=True)
        assert cr_apply(cr_conj_apply(q)) == lap
        assert cr_conj_apply(cr_apply(q)) == lap


def test_ck_extension_examples():
    m = 3
    assert ck_extend_poly(CliffPoly.one(m)) == CliffPoly.one(m)
    # dirac(x1) = e1, so CK adds -x0 e1
    expect = var(m, 1) - var(m, 0).coeff_mul_left(Multivector.basis(m, 1))
    assert ck_extend_poly(var(m, 1)) == expect
    # dirac(x_) = -m, so CK adds +m x0
    assert ck_extend_poly(x_(m)) == x_(m) + var(m, 0).scale(m)


def test_ck_extension_is_monogenic_and_restricts():
    rng = random.Random(37)
    for _ in range(100):
        m = rng.randint(1, 5)
        f = random_poly(rng, m, max_degree=6, n_terms=3, with_x0=False)
        ck = ck_extend_poly(f)
        assert cr_apply(ck).is_zero()
        assert ck.restrict_x0() == f


def test_ck_rejects_x0_dependence():
    with pytest.raises(ValueError):
        ck_extend_poly(CliffPoly.variable(3, 0))


def test_is_homogeneous_monogenic():
    m = 2
    assert is_homogeneous_monogenic(CliffPoly.one(m), 0).ok
    assert is_homogeneous_monogenic(sample_p1(m), 1).ok
    bad = var(m, 1).coeff_mul_left(Multivector.basis(m, 2))
    report = is_homogeneous_monogenic(bad, 1)
    assert not report.ok
    assert "e12" in report.witness
    assert not is_homogeneous_monogenic(var(m, 1) + CliffPoly.one(m), 1).ok
    assert not is_homogeneous_monogenic(var(m, 0), 1).ok


def test_coeff_c():
    assert coeff_c(1, 1, 3) == 3
    assert coeff_c(5, 0, 3) == 1
    assert coeff_c(2, 2, 3) == 15
    assert coeff_c(2, 1, 5) == 7
    with pytest.raises(ValueError):
        coeff_c(2, 3, 3)


def test_hermite_small_closed_forms():
    for m in (1, 2, 3, 5):
        r2 = radius_sq_poly(m)
        assert hermite_rec(0, m).poly == CliffPoly.one(m)
        assert hermite_rec(1, m).poly == x_(m)
        assert hermite_rec(2, m).poly == -r2 + CliffPoly.constant(m, m)
        assert hermite_rec(3, m).poly == -poly_mul(r2, x_(m)) + x_(m).scale(m + 2)


def test_hermite_rec_equals_closed():
    for m in (1, 2, 3):
        for n in range(9):
            assert hermite_rec(n, m).poly == hermite_closed(n, m).poly


def test_hermite_grade_structure():
    for m in (1, 3):
        for n in range(9):
            grades = hermite_rec(n, m).poly.grades()
            assert grades == ({0} if n % 2 == 0 else {1})


def test_vector_power_parity_identity():
    for m in (1, 2, 3, 5):
        r2 = radius_sq_poly(m)
        acc = CliffPoly.one(m)
        for s in range(6):
            assert vector_power(m, 2 * s) == acc.scale((-1) ** s)
            acc = poly_mul(acc, r2)


def test_text_roundtrip():
    rng = random.Random(41)
    for _ in range(40):
        m = rng.randint(1, 4)
        p = random_poly(rng, m, max_degree=3)
        assert parse_poly(format_poly(p), m) == p
        assert CliffPoly(m, p.terms) == p
        assert (p - p).coeffs == {}
    m = 3
    # one monomial carrying two blades
    two = CliffPoly(m, {(0, 2, 0, 0): Multivector(m, {0b001: 3, 0b110: Fraction(-1, 2)})})
    assert two + two == two.scale(2)
    assert two.diff(1) == CliffPoly(m, {(0, 1, 0, 0): Multivector(m, {0b001: 6, 0b110: -1})})
    assert all(type(v) is int for v in two.diff(1).coeffs.values())  # -1/2 * 2 is stored as int
    assert format_poly(two) == "3*x1^2*e1 - 1/2*x1^2*e23"
    assert parse_poly(format_poly(two), m) == two
    h2 = hermite_rec(2, m).poly
    assert format_poly(h2) == "-1*x1^2 - 1*x2^2 - 1*x3^2 + 3"
    assert parse_poly("0", m).is_zero()


def test_sample_p1_requires_two_generators():
    with pytest.raises(ValueError):
        sample_p1(1)
