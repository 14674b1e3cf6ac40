import math
import random
import re
from fractions import Fraction

import pytest

from fueterlab import cliffpoly
from fueterlab.clifford import MixedVariantError, Multivector, blade_product
from fueterlab.cliffpoly import (
    EXP_LIMIT,
    CliffPoly,
    InvalidPkError,
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
    poly_sum,
    radius_sq_poly,
    require_homogeneous_monogenic,
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
    x1e1 = poly_mul(CliffPoly.constant(m, Multivector.basis(m, 1)), var(m, 1))
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
    p = var(m, 1) - poly_mul(CliffPoly.constant(m, Multivector.basis(m, 1)), var(m, 0))
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
    expect = var(m, 1) - poly_mul(CliffPoly.constant(m, Multivector.basis(m, 1)), var(m, 0))
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


def test_require_homogeneous_monogenic():
    m = 2
    one, p1 = CliffPoly.one(m), sample_p1(m)
    assert require_homogeneous_monogenic(one, 0) is one
    assert require_homogeneous_monogenic(p1, 1) is p1
    bad = poly_mul(CliffPoly.constant(m, Multivector.basis(m, 2)), var(m, 1))
    with pytest.raises(InvalidPkError, match=r"^invalid P_k: not monogenic dirac term .*e12"):
        require_homogeneous_monogenic(bad, 1)
    with pytest.raises(InvalidPkError, match=r"^invalid P_k: not homogeneous \(0, 0, 0\)$"):
        require_homogeneous_monogenic(var(m, 1) + CliffPoly.one(m), 1)
    with pytest.raises(InvalidPkError, match=r"^invalid P_k: depends on x0$"):
        require_homogeneous_monogenic(var(m, 0), 1)
    with pytest.raises(InvalidPkError, match=r"^invalid P_k: zero polynomial$"):
        require_homogeneous_monogenic(CliffPoly.zero(m), 1)


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


def test_vector_power_closed_form_equals_the_repeated_product(monkeypatch):
    monkeypatch.setattr(cliffpoly, "_XPOW_CACHE", {})
    for m in range(1, 10):
        acc = CliffPoly.one(m)
        for n in range(12 if m <= 7 else 9):
            got = vector_power(m, n)
            assert got._num == acc._num and got._den == 1, (m, n)
            assert vector_power(m, n) is got
            acc = poly_mul(x_(m), acc)
    assert len(vector_power(1, EXP_LIMIT - 1)._num) == 1
    for m, n in ((1, EXP_LIMIT), (3, -1), (0, 2), (17, 2)):
        with pytest.raises(ValueError):
            vector_power(m, n)


@pytest.mark.parametrize("m", [0, 17, -1])
def test_constructor_checks_the_dimension(m):
    with pytest.raises(ValueError, match=rf"^dimension m must be in 1\.\.16, got {m}$"):
        CliffPoly.zero(m)
    assert CliffPoly.zero(16).is_zero()


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
    # above m = 9 blade indices are '_'-separated
    texts = []
    for _ in range(10):
        mm = rng.randint(10, 12)
        p = random_poly(rng, mm, max_degree=2)
        texts.append(format_poly(p))
        assert parse_poly(texts[-1], mm) == p
    assert any("_" in text for text in texts)
    assert parse_poly("2*x10 x12^2*e1_11", 12) == CliffPoly(12, {(0,) * 10 + (1, 0, 2): 2 * Multivector.basis(12, 1, 11)})


@pytest.mark.parametrize(
    "text, m",
    [("x4", 3), ("x1^-1", 3), ("r", 3), ("1*x1*Q^-1", 3), ("E*x1", 3), ("cos", 3), ("1.5*x1", 3), ("e11", 3), ("x1 #", 3)],
)
def test_text_malformed(text, m):
    with pytest.raises(ValueError):
        parse_poly(text, m)


def test_text_zero_denominator_is_a_value_error():
    # Fraction("1/0") raises ZeroDivisionError, which is not a ValueError
    with pytest.raises(ValueError, match="zero denominator"):
        parse_poly("1/0*x1*e1", 3)


def test_eval_drops_a_cancelled_blade():
    # x1 e1 - x2 e1 cancels at x1 = x2, so e1 leaves the sum and comes back after e2 with x1^2 e1
    p = parse_poly("1*x1*e1 - 1*x2*e1 + 1*x3*e2 + 1*x1^2*e1", 3)
    value = p.eval(0.0, (1.0, 1.0, 1.0))
    assert list(value.coeffs.items()) == [(0b10, 1.0), (0b01, 1.0)]
    assert list(p.eval(0.0, (2.0, 1.0, 1.0)).coeffs.items()) == [(0b01, 5.0), (0b10, 1.0)]


def test_sample_p1_requires_two_generators():
    with pytest.raises(ValueError):
        sample_p1(1)


# --- packed store against a plain reference kernel ----------------------------
#
# The reference keeps {(exps tuple, mask): c} and builds each result the way
# the tuple-keyed kernel did: one operation at a time, sums through `+`.
# Dict order is part of the contract, since eval rounds in it.


def _ref_of(d):
    out = {}
    for key, v in d.items():
        if v:
            out[key] = v.numerator if type(v) is not int and v.denominator == 1 else v
    return out


def _ref_add(a, b):
    out = dict(a)
    for key, v in b.items():
        out[key] = out.get(key, 0) + v
    return _ref_of(out)


def _ref_neg(a):
    return {key: -v for key, v in a.items()}


def _ref_scale(a, c):
    c = Fraction(c)
    return _ref_of({key: c * v for key, v in a.items()})


def _ref_mul(a, b):
    out = {}
    for (ep, mp), vp in a.items():
        for (eq, mq), vq in b.items():
            sign, mask = blade_product(mp, mq)
            key = tuple(x + y for x, y in zip(ep, eq)), mask
            out[key] = out.get(key, 0) + sign * vp * vq
    return _ref_of(out)


def _ref_diff(a, j):
    out = {}
    for (exps, mask), v in a.items():
        if exps[j]:
            out[exps[:j] + (exps[j] - 1,) + exps[j + 1 :], mask] = exps[j] * v
    return _ref_of(out)


def _ref_dirac(a, m):
    out = {}
    for (exps, mask), v in a.items():
        for j in range(1, m + 1):
            if exps[j]:
                sign, blade = blade_product(1 << (j - 1), mask)
                key = exps[:j] + (exps[j] - 1,) + exps[j + 1 :], blade
                out[key] = out.get(key, 0) + sign * exps[j] * v
    return _ref_of(out)


def _ref_laplacian(a, m, include_x0):
    out = {}
    for (exps, mask), v in a.items():
        for j in range(0 if include_x0 else 1, m + 1):
            e = exps[j]
            if e > 1:
                key = exps[:j] + (e - 2,) + exps[j + 1 :], mask
                out[key] = out.get(key, 0) + e * (e - 1) * v
    return _ref_of(out)


def _ref_shift(a, n):
    return {((exps[0] + n,) + exps[1:], mask): v for (exps, mask), v in a.items()}


def _ref_ck(a, m):
    out, g, n = {}, a, 0
    while g:
        out = _ref_add(out, _ref_scale(_ref_shift(g, n), Fraction((-1) ** n, math.factorial(n))))
        g = _ref_dirac(g, m)
        n += 1
    return out


def _ref_eval(a, m, x0, xs):
    total = {}
    for (exps, mask), c in a.items():
        mono = x0 ** exps[0] if exps[0] else 1.0
        for x, e in zip(xs, exps[1:]):
            if e:
                mono *= x**e
        v = mono * float(c)
        if v:
            total[mask] = total.get(mask, 0) + v
            if not total[mask]:
                del total[mask]
    return total


def _assert_matches(p, ref, m):
    assert [(k, type(v), v) for k, v in p.coeffs.items()] == [(k, type(v), v) for k, v in ref.items()]
    xs = [0.3 - 0.17 * j for j in range(m)]
    for x0 in (-0.7, 1.9):  # the second call reuses the coeffs view the first one built
        got = p.eval(x0, xs).coeffs
        want = _ref_eval(ref, m, x0, xs)
        assert [(k, float.hex(v)) for k, v in got.items()] == [(k, float.hex(v)) for k, v in want.items()]


def test_packed_store_matches_reference_kernel():
    rng = random.Random(20240611)
    for walk in range(40):
        m = 1 + walk % 5
        p = random_poly(rng, m, max_degree=3, with_x0=walk % 2 == 0)
        ref = dict(p.coeffs)
        for step in range(12):
            q = random_poly(rng, m, max_degree=2, n_terms=3, with_x0=True)
            q_ref = dict(q.coeffs)
            op = rng.randrange(13)
            if op == 0:
                p, ref = p + q, _ref_add(ref, q_ref)
            elif op == 1:
                p, ref = p - q, _ref_add(ref, _ref_neg(q_ref))
            elif op == 2:
                p, ref = -p, _ref_neg(ref)
            elif op == 3:
                c = rng.choice([rng.randint(-3, 3), Fraction(rng.randint(-5, 5), rng.randint(1, 4))])
                p, ref = p.scale(c), _ref_scale(ref, c)
            elif op == 4:
                p, ref = (poly_mul(p, q), _ref_mul(ref, q_ref)) if rng.random() < 0.5 else (poly_mul(q, p), _ref_mul(q_ref, ref))
            elif op == 5:
                j = rng.randint(0, m)
                p, ref = p.diff(j), _ref_diff(ref, j)
            elif op == 6:
                p, ref = dirac(p), _ref_dirac(ref, m)
            elif op == 7:
                include_x0 = rng.random() < 0.5
                p, ref = laplacian(p, include_x0), _ref_laplacian(ref, m, include_x0)
            elif op == 8:
                p, ref = cr_apply(p), _ref_add(_ref_diff(ref, 0), _ref_dirac(ref, m))
            elif op == 9:
                p, ref = cr_conj_apply(p), _ref_add(_ref_diff(ref, 0), _ref_neg(_ref_dirac(ref, m)))
            elif op == 10:
                n = rng.randint(0, 3)
                p, ref = poly_sum(m, [(1, n, p)]), _ref_shift(ref, n)
            elif op == 11:
                p, ref = p.restrict_x0(), {k: v for k, v in ref.items() if k[0][0] == 0}
            else:
                f = p.restrict_x0()
                f_ref = {k: v for k, v in ref.items() if k[0][0] == 0}
                p, ref = ck_extend_poly(f), _ref_ck(f_ref, m)
            _assert_matches(p, ref, m)
            # the text form sorts by degree; parsing it back must give the same polynomial
            back = parse_poly(format_poly(p), m)
            assert back == p
            assert list(back.coeffs) == sorted(ref, key=lambda k: (-sum(k[0]), tuple(-e for e in k[0]), k[1]))
            assert (p == q) == (ref == q_ref)
            assert (p + q == q + p) and (p - p).is_zero()
            if len(ref) > 40:
                p = random_poly(rng, m, max_degree=3)
                ref = dict(p.coeffs)


def test_coeffs_view_is_read_only_and_kept():
    assert CliffPoly.one(3).is_one() and not CliffPoly.zero(3).is_one()
    assert not any(p.is_one() for p in (CliffPoly.constant(3, 2), CliffPoly.constant(3, Multivector.basis(3, 1)), var(3, 1)))
    p = parse_poly("3*x0 x1*e12 - 1/2*x2", 2)
    assert p.coeffs is p.coeffs
    assert dict(p.coeffs) == {((1, 1, 0), 3): 3, ((0, 0, 1), 0): Fraction(-1, 2)}
    with pytest.raises(TypeError):
        p.coeffs[(0, 0, 0), 0] = 1


def _assert_int_store(p):
    # nonzero int numerators over one positive int denominator: no Fraction in the store
    assert all(type(n) is int and n for n in p._num.values())
    assert type(p._den) is int and p._den > 0


def test_store_is_int_numerators_over_one_denominator():
    rng = random.Random(2111)
    for _ in range(30):
        m = rng.randint(1, 4)
        p = random_poly(rng, m, max_degree=3)
        q = random_poly(rng, m, max_degree=2, n_terms=3, with_x0=True)
        for r in (p, p + q, p - p, poly_mul(p, q), dirac(p), laplacian(q), ck_extend_poly(p.restrict_x0())):
            _assert_int_store(r)
        assert p.scale(Fraction(1, 6)).scale(6) == p
        assert p.scale(Fraction(-2, 3)).scale(Fraction(-3, 2)) == p
        # the same values held over another denominator compare equal to p, both ways
        twin = CliffPoly._of(m, {key: 6 * n for key, n in p._num.items()}, 6 * p._den)
        assert twin == p and p == twin
        _assert_int_store(twin)
        if p:
            assert twin != p.scale(2) and twin != p + var(m, 1) and twin != CliffPoly.zero(m)
    half = parse_poly("1/2*x1^2*e1 + 3/2*x2", 2)
    assert half._den == 2
    # derivatives keep the denominator: 2/2 x1 e1 is held over 2 and equals its int twin
    d = half.diff(1)
    assert d._den == 2 and d == parse_poly("1*x1*e1", 2) and parse_poly("1*x1*e1", 2) == d
    assert dict(d.coeffs) == {((0, 1, 0), 1): 1} and d != parse_poly("1/2*x1*e1", 2)
    assert half.scale(2) == parse_poly("1*x1^2*e1 + 3*x2", 2)
    assert half + half.scale(-1) == CliffPoly.zero(2)


def test_is_one_for_one_held_as_n_over_n():
    m = 3
    for n in (1, 2, 7, 10**30):
        assert CliffPoly._of(m, {(0, 0): n}, n).is_one()
        assert not CliffPoly._of(m, {(0, 0): n}, n + 1).is_one()
    assert CliffPoly.one(m).scale(Fraction(1, 3)).scale(3).is_one()
    assert CliffPoly.constant(m, Fraction(5, 5)).is_one()
    assert not CliffPoly.constant(m, Fraction(1, 5)).is_one()


def test_coeffs_types_and_order_after_ck_and_poly_mul():
    # values are int when integral and reduced Fractions otherwise, in the order of the Fraction kernels
    rng = random.Random(2112)
    for i in range(40):
        m = 1 + i % 5
        f = random_poly(rng, m, max_degree=4, with_x0=False)
        g = random_poly(rng, m, max_degree=2, n_terms=3, with_x0=True)
        for p, ref in (
            (ck_extend_poly(f), _ref_ck(dict(f.coeffs), m)),
            (poly_mul(f, g), _ref_mul(dict(f.coeffs), dict(g.coeffs))),
            (poly_mul(g, ck_extend_poly(f)), _ref_mul(dict(g.coeffs), _ref_ck(dict(f.coeffs), m))),
        ):
            _assert_matches(p, ref, m)
    # a rational input whose CK extension mixes both types: 1/2 x1^2 -> 1/2 x1^2 - x0 x1 e1 - 1/2 x0^2
    ck = ck_extend_poly(parse_poly("1/2*x1^2", 1))
    assert list(ck.coeffs.items()) == [(((0, 2), 0), Fraction(1, 2)), (((1, 1), 1), -1), (((2, 0), 0), Fraction(-1, 2))]
    assert [type(v) for v in ck.coeffs.values()] == [Fraction, int, Fraction]


def test_exponent_limit():
    m = 2
    p = var(m, 1)
    e = 1
    while e < EXP_LIMIT // 2:
        p = poly_mul(p, p)
        e *= 2
    assert p == CliffPoly(m, {(0, e, 0): Multivector.scalar(m, 1)})
    # one more squaring would reach the limit in the x1 slot: it raises instead of carrying into x2
    with pytest.raises(ValueError):
        poly_mul(p, p)
    top = poly_mul(p, CliffPoly(m, {(0, e - 1, 0): Multivector.scalar(m, 1)}))
    assert top.coeffs == {((0, EXP_LIMIT - 1, 0), 0): 1}
    with pytest.raises(ValueError):
        poly_mul(top, var(m, 1))
    assert poly_sum(m, [(1, EXP_LIMIT - 2, var(m, 0))]).coeffs == {((EXP_LIMIT - 1, 0, 0), 0): 1}
    for n in (EXP_LIMIT - 1, EXP_LIMIT, -1):
        with pytest.raises(ValueError):
            poly_sum(m, [(1, n, var(m, 0))])
    with pytest.raises(ValueError):
        CliffPoly(m, {(0, EXP_LIMIT, 0): Multivector.scalar(m, 1)})
    CliffPoly(m, {(0, EXP_LIMIT - 1, 0): Multivector.scalar(m, 1)})
    with pytest.raises(ValueError):
        parse_poly(f"x1^{EXP_LIMIT}", m)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: CliffPoly(3, {(0, 0, 0): Multivector.scalar(3, 1)}), ValueError, "exponent vector (0, 0, 0) invalid for m=3"),
        (lambda: CliffPoly(3, {(0, 0, 0, 0): 1}), TypeError, "CliffPoly coefficients must be exact Multivectors"),
        (lambda: CliffPoly(3, {(0, 0, 0, 0): Multivector.scalar(2, 1)}), ValueError, "coefficient m=2 vs poly m=3"),
        (lambda: CliffPoly.variable(3, 4), ValueError, "variable index 4 outside 0..3"),
        (lambda: CliffPoly.one(3).diff(-1), ValueError, "variable index -1 outside 0..3"),
        (lambda: CliffPoly.one(3).eval(0.5, (1.0, 2.0)), ValueError, "expected 3 coordinates, got 2"),
        (lambda: poly_mul(CliffPoly.one(3), CliffPoly.one(2)), ValueError, "m=3 vs m=2"),
        (lambda: poly_sum(3, [(1, 0, CliffPoly.one(2))]), ValueError, "m=2 vs m=3"),
        (lambda: hermite_closed(-1, 3), ValueError, "Hermite index must be nonnegative"),
    ],
    ids=["short_exponents", "bare_coefficient", "coefficient_dimension", "variable", "diff", "eval", "poly_mul", "poly_sum", "hermite_closed"],
)
def test_refusals_name_their_cause(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()
