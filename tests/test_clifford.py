import math
import random
import re
from fractions import Fraction

import pytest

from fueterlab.axial import AxialExpr, parse_axial
from fueterlab.clifford import (
    DimensionMismatchError,
    MixedVariantError,
    Multivector,
    blade_product,
    blade_product_naive,
    format_multivector,
    gp,
    indices_from_mask,
    parse_multivector,
)
from fueterlab.cliffpoly import CliffPoly, parse_poly
from fueterlab.sampling import random_multivector, random_vector


def mv(m, text):
    return parse_multivector(text, m)


def test_generator_relations():
    m = 4
    for j in range(1, m + 1):
        ej = Multivector.basis(m, j)
        assert ej * ej == Multivector.scalar(m, -1)
    for j in range(1, m + 1):
        for k in range(1, m + 1):
            if j != k:
                ej, ek = Multivector.basis(m, j), Multivector.basis(m, k)
                assert ej * ek + ek * ej == Multivector.zero(m)


def test_blade_product_examples():
    m = 3
    e1 = Multivector.basis(m, 1)
    e2 = Multivector.basis(m, 2)
    e12 = Multivector.basis(m, 1, 2)
    assert e1 * e2 == e12
    assert e2 * e1 == -e12
    assert e12 * e2 == -e1


def test_blade_sign_matches_naive_oracle_exhaustive():
    # blade_product is memoized: the cached answers must equal the oracle on every pair
    assert blade_product.cache_info().maxsize is not None  # bounded, so memory stays capped
    for m in range(1, 6):
        for ma in range(1 << m):
            for mb in range(1 << m):
                sign, mask = blade_product(ma, mb)
                nsign, idx = blade_product_naive(indices_from_mask(ma), indices_from_mask(mb))
                assert (sign, indices_from_mask(mask)) == (nsign, idx)


def test_blade_sign_matches_naive_oracle_random_m6():
    rng = random.Random(7)
    for _ in range(500):
        ma = rng.randrange(64)
        mb = rng.randrange(64)
        sign, mask = blade_product(ma, mb)
        nsign, idx = blade_product_naive(indices_from_mask(ma), indices_from_mask(mb))
        assert (sign, indices_from_mask(mask)) == (nsign, idx)


def test_associativity_random():
    rng = random.Random(11)
    for _ in range(200):
        m = rng.randint(1, 6)
        a, b, c = (random_multivector(rng, m) for _ in range(3))
        assert gp(gp(a, b), c) == gp(a, gp(b, c))


def test_vector_square_is_minus_norm():
    rng = random.Random(13)
    for _ in range(200):
        m = rng.randint(1, 6)
        v = random_vector(rng, m)
        assert gp(v, v) == Multivector.scalar(m, -v.norm_sq())


def test_conjugate_signs_by_grade():
    m = 4
    assert Multivector.scalar(m, 1).conjugate() == Multivector.scalar(m, 1)
    assert Multivector.basis(m, 1).conjugate() == -Multivector.basis(m, 1)
    assert Multivector.basis(m, 1, 2).conjugate() == -Multivector.basis(m, 1, 2)
    assert Multivector.basis(m, 1, 2, 3).conjugate() == Multivector.basis(m, 1, 2, 3)
    assert Multivector.basis(m, 1, 2, 3, 4).conjugate() == Multivector.basis(m, 1, 2, 3, 4)


def test_conjugate_antihomomorphism_and_involution():
    rng = random.Random(17)
    for _ in range(200):
        m = rng.randint(1, 6)
        a = random_multivector(rng, m)
        b = random_multivector(rng, m)
        assert gp(a, b).conjugate() == gp(b.conjugate(), a.conjugate())
        assert a.conjugate().conjugate() == a


def test_grade_projection():
    m = 3
    a = mv(m, "3 + 2*e1")
    assert a.grade(0) == Multivector.scalar(m, 3)
    assert a.grade(1) == mv(m, "2*e1")
    assert Multivector.basis(m, 1, 2).grade(1) == Multivector.zero(m)
    with pytest.raises(ValueError):
        a.grade(4)


def test_grade_decomposition_random():
    rng = random.Random(19)
    for _ in range(200):
        m = rng.randint(1, 6)
        a = random_multivector(rng, m)
        total = Multivector.zero(m)
        for k in range(m + 1):
            total = total + a.grade(k)
        assert total == a


def test_norm_sq():
    m = 3
    assert mv(m, "1*e1 + 1*e2").norm_sq() == 2
    assert Multivector.zero(m).norm_sq() == 0
    v = Multivector.vector(m, [Fraction(1, 2), Fraction(-2), Fraction(3)])
    assert v.norm_sq() == Fraction(1, 4) + 4 + 9
    assert gp(v, v)[0] == -v.norm_sq()


def test_norm_sq_equals_grade0_of_a_conj_a():
    rng = random.Random(23)
    for _ in range(200):
        m = rng.randint(1, 6)
        a = random_multivector(rng, m)
        expect = Multivector.scalar(m, a.norm_sq())
        assert gp(a, a.conjugate()).grade(0) == expect


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        gp(Multivector.basis(2, 1), Multivector.basis(3, 1))


def test_dimension_bounds():
    with pytest.raises(ValueError):
        Multivector.zero(0)
    with pytest.raises(ValueError):
        Multivector.zero(17)
    assert Multivector.basis(16, 16) * Multivector.basis(16, 16) == Multivector.scalar(16, -1)
    with pytest.raises(ValueError):
        Multivector(2, {4: 1})  # mask needs three generators


def test_variant_mixing_is_explicit():
    a = Multivector.scalar(3, 2)
    b = Multivector.scalar(3, 2.0, exact=False)
    with pytest.raises(MixedVariantError):
        gp(a, b)
    with pytest.raises(MixedVariantError):
        a.scale(0.5)
    with pytest.raises(MixedVariantError):
        Multivector(3, {0: 0.1})  # would store Fraction(0.1) = 3602879701896397/2**55
    assert gp(a.to_float(), b) == Multivector.scalar(3, 4.0, exact=False)


def test_trusted_constructor_drops_zeros_keeps_nan():
    a = Multivector._of(3, {0: 0.0, 1: -0.0, 2: math.nan, 5: 1.5, 6: -2.0}, False)
    assert list(a.coeffs) == [2, 5, 6] and math.isnan(a[2])
    assert a.exact is False and a.m == 3
    # the same coefficients, in the same order, as the public constructor
    b = Multivector(3, {0: 0.0, 1: -0.0, 2: math.nan, 5: 1.5, 6: -2.0}, exact=False)
    assert list(b.coeffs) == list(a.coeffs) and str(b) == str(a)
    assert Multivector._of(3, {0: Fraction(0), 5: Fraction(1, 3)}, True) == Multivector(3, {5: Fraction(1, 3)})


def test_public_constructor_still_validates():
    with pytest.raises(ValueError):
        Multivector(3, {8: 1.0}, exact=False)  # mask needs four generators
    with pytest.raises(ValueError):
        Multivector(3, {-1: 1})
    with pytest.raises(MixedVariantError):
        Multivector(3, {1: Fraction(1, 2), 2: 0.25}, exact=True)  # a float in the exact variant


def test_float_arithmetic_keeps_values_and_blade_order():
    # IEEE a - b equals a + (-b), and zeros leave the dict either way
    rng = random.Random(43)
    for _ in range(200):
        m = rng.randint(1, 5)
        a = Multivector(m, {rng.randrange(1 << m): rng.uniform(-2.0, 2.0) for _ in range(4)}, exact=False)
        b = Multivector(m, {rng.randrange(1 << m): rng.uniform(-2.0, 2.0) for _ in range(4)}, exact=False)
        b = b + a.grade(rng.randint(0, m))  # some blades cancel exactly in a - b
        assert list((a - b).coeffs.items()) == list((a + (-b)).coeffs.items())
        want = {}
        for ma, va in a.coeffs.items():
            for mb, vb in b.coeffs.items():
                sign, mask = blade_product_naive(indices_from_mask(ma), indices_from_mask(mb))
                mask = sum(1 << (j - 1) for j in mask)
                want[mask] = want.get(mask, 0) + (va * vb if sign > 0 else -(va * vb))
        assert list(gp(a, b).coeffs.items()) == [(k, v) for k, v in want.items() if v]
        assert all(type(v) is float for v in (a + b).coeffs.values())


@pytest.mark.parametrize(
    "value",
    [Multivector.scalar(3, 2), AxialExpr.term(3, a=1), CliffPoly.one(3)],
    ids=["multivector", "axial_expr", "cliff_poly"],
)
def test_values_refuse_attribute_assignment(value):
    # the seed, P_k and vector_power memos hand the same object to every caller
    text = str(value)
    for name in ("m", "coeffs", "_num", "_den", "other"):
        with pytest.raises(AttributeError, match=f"^{type(value).__name__} is immutable$"):
            setattr(value, name, None)
    assert str(value) == text


@pytest.mark.parametrize(
    "value",
    [Multivector.scalar(3, 2), AxialExpr.term(2), CliffPoly.constant(3, 2)],
    ids=["multivector", "axial_expr", "cliff_poly"],
)
def test_foreign_operands(value):
    # == with another type is False, not an error; + and - with another type raise TypeError
    assert value != 2 and not value == 2 and value != "2"
    with pytest.raises(TypeError):
        value + 2
    with pytest.raises(TypeError):
        value - 2


@pytest.mark.parametrize(
    "value, text",
    [
        (Multivector.scalar(3, 2), "Multivector(m=3, '2', exact=True)"),
        (AxialExpr.term(3, a=1), "AxialExpr('3*x0')"),
        (CliffPoly.constant(3, 2), "CliffPoly(m=3, '2')"),
    ],
    ids=["multivector", "axial_expr", "cliff_poly"],
)
def test_repr_names_the_type_and_the_text(value, text):
    assert repr(value) == text


def test_multivector_truth_scalar_product_and_float_conversion():
    # a multivector is true iff some part is nonzero; a scalar factor scales every part, on either side
    a = mv(3, "3 - 2*e1 + 1*e12")
    assert a and not Multivector.zero(3)
    assert a * 2 == 2 * a == mv(3, "6 - 4*e1 + 2*e12")
    # a binary64 value converts to itself
    f = a.to_float()
    assert f.to_float() is f and f * 0.5 == Multivector(3, {0: 1.5, 1: -1.0, 3: 0.5}, exact=False)


def test_text_roundtrip_exact():
    m = 3
    a = mv(m, "3 - 2*e1 + 1*e12")
    assert format_multivector(a) == "3 - 2*e1 + 1*e12"
    rng = random.Random(29)
    for _ in range(50):
        mm = rng.randint(1, 6)
        x = random_multivector(rng, mm)
        assert parse_multivector(format_multivector(x), mm) == x
    assert parse_multivector("0", m) == Multivector.zero(m)
    assert format_multivector(mv(m, "1/2 + 5/3*e2")) == "1/2 + 5/3*e2"
    # above m = 9 blade indices are '_'-separated
    for _ in range(20):
        mm = rng.randint(10, 16)
        x = random_multivector(rng, mm)
        assert parse_multivector(format_multivector(x), mm) == x


def test_text_roundtrip_numeric():
    m = 3
    a = Multivector(m, {0: 0.125, 1: -2e-05, 3: 3.5}, exact=False)
    s = format_multivector(a)
    assert parse_multivector(s, m, exact=False) == a


@pytest.mark.parametrize(
    "text, m, exact, exc",
    [
        ("1.5", 3, True, MixedVariantError),
        ("1.5*e1 - 2", 3, True, MixedVariantError),
        ("x1", 3, True, ValueError),
        ("1.5*x1", 3, True, ValueError),
        ("2*r*e1", 3, False, ValueError),
        ("E*e1", 3, True, ValueError),
        ("cos", 3, True, ValueError),
        ("e11", 3, True, ValueError),
        ("e4", 3, True, ValueError),
        ("e1_11", 10, True, ValueError),
        ("1 # 2", 3, True, ValueError),
    ],
)
def test_text_malformed(text, m, exact, exc):
    with pytest.raises(exc):
        parse_multivector(text, m, exact)


@pytest.mark.parametrize("exact", [True, False])
def test_text_zero_denominator_is_a_value_error(exact):
    # Fraction("1/0") raises ZeroDivisionError, which is not a ValueError
    with pytest.raises(ValueError, match="zero denominator"):
        parse_multivector("1/0*e1", 3, exact)


def test_text_high_dimension_labels():
    a = Multivector.basis(12, 1, 10, 12)
    s = format_multivector(a)
    assert "e1_10_12" in s
    assert parse_multivector(s, 12) == a


def test_subtraction_equals_adding_the_negation():
    # a blade that cancels leaves the dict, and a zero input (+0.0 or -0.0) is never stored
    a = Multivector(3, {0: 1.5, 1: -0.0, 2: 0.25, 4: 0.0, 7: -3.0}, exact=False)
    b = Multivector(3, {0: 1.5, 1: 0.0, 2: -0.5, 5: -0.0, 7: 1e-300}, exact=False)
    for x, y in ((a, b), (b, a), (a, a), (a, -a)):
        diff = x - y
        assert list(diff.coeffs.items()) == list((x + (-y)).coeffs.items())
        assert all(v for v in diff.coeffs.values())
    assert list((a - b).coeffs.items()) == [(2, 0.75), (7, -3.0)]
    assert not (a - a).coeffs and not (-a - -a).coeffs
    # exact: the same values, coefficient types and blade order
    rng = random.Random(47)
    for _ in range(100):
        m = rng.randint(1, 5)
        x = random_multivector(rng, m)
        y = random_multivector(rng, m) + x.grade(rng.randint(0, m))
        want = list((x + (-y)).coeffs.items())
        got = list((x - y).coeffs.items())
        assert got == want
        assert [type(v) for _, v in got] == [type(v) for _, v in want]


# --- the exact store shared by CliffPoly and AxialExpr ---------------------------


def test_store_sum_refuses_the_other_kind_and_dimension():
    a = parse_axial("1/2*x0*r^-1*E + 3*cos")
    p3, p5 = parse_poly("1/2*x1*e1 + 3*x0", 3), parse_poly("1/2*x1*e1 + 3*x0", 5)
    for x, y in ((a, p3), (p3, a)):
        with pytest.raises(TypeError):
            x + y
        with pytest.raises(TypeError):
            x - y
    for x, y in ((p3, p5), (p5, p3)):
        with pytest.raises(DimensionMismatchError):
            x + y
        with pytest.raises(DimensionMismatchError):
            x - y
        assert not x == y and x != y
    for x in (a, p3):
        with pytest.raises(MixedVariantError):
            x.scale(1.5)
        with pytest.raises(MixedVariantError):
            1.5 * x


def _store(x):
    return [(key, type(n), n) for key, n in x._num.items()], x._den


def test_store_int_scale_equals_fraction_scale():
    # an int scalar takes the store's int path: the same int numerators over the same denominator
    for x in (parse_axial("2*x0*r^-1*E - 5*sin + 1"), parse_axial("1/2*x0*r^-1*E - 5/3*sin"), AxialExpr.zero()):
        for c in (3, -4, 0):
            assert _store(x.scale(c)) == _store(x.scale(Fraction(c)))
            assert all(t is int for _, t, _ in _store(x.scale(c))[0])
    p = parse_poly("1/6*x1^2*e12 - 3/4*x0", 2)
    assert _store(p.scale(3)) == _store(p.scale(Fraction(3)))
    assert p.scale(3)._den == 4


class _Float(float):
    """A float subclass, as numpy.float64 is one."""


def test_float_subclass_is_refused_in_exact_arithmetic():
    # the constructor once tested `type(val) is float` and stored Fraction(0.1) = 3602879701896397/2**55
    x = _Float(0.1)
    for call in (
        lambda: Multivector(3, {0: x}),
        lambda: Multivector(3, {1: 1, 2: x}),
        lambda: Multivector.scalar(3, 2).scale(x),
        lambda: x * Multivector.scalar(3, 2),
        lambda: AxialExpr.term(x),
    ):
        with pytest.raises(MixedVariantError, match=re.escape("float 0.1 in exact arithmetic")):
            call()
    assert Multivector(3, {0: x}, exact=False) == Multivector.scalar(3, 0.1, exact=False)


@pytest.mark.parametrize(
    "call, error, message",
    [(lambda: Multivector.vector(3, (1, 2)), ValueError, "expected 3 vector components, got 2")],
    ids=["vector_length"],
)
def test_refusals_name_their_cause(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()
