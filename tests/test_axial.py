import math
import random
import re
from fractions import Fraction

import pytest

from fueterlab import axial
from fueterlab.axial import (
    COS,
    E,
    ONE,
    R,
    SIN,
    X0,
    AlgebraClosureError,
    AxialExpr,
    EvalDomainError,
    d_lower,
    d_upper,
    format_axial,
    parse_axial,
    q_inv,
    trig_shift,
)
from fueterlab.clifford import MixedVariantError
from fueterlab.fueter import SEED_NAMES, AxialPair, closed_form, coeff_a, fueter, gauss_fund_pair, seed, vekua_residual
from fueterlab.sampling import random_axial

term = AxialExpr.term
# gauss_fund at radial order k + (m-1)/2 from 1 to 10
VEKUA_LADDER = ((3, 0), (3, 1), (5, 1), (7, 1), (9, 1), (11, 1), (13, 1), (13, 2), (13, 3), (13, 4))


def test_diff_basics():
    r2 = term(1, b=2)
    assert r2.diff("r") == term(2, b=1)
    assert E.diff("r") == term(-1, b=1, g=1)
    assert E.diff("x0") == term(1, a=1, g=1)
    assert COS.diff("x0") == term(-1, b=1, t="sin")
    assert COS.diff("r") == term(-1, a=1, t="sin")
    assert q_inv().diff("r") == term(-2, b=1, p=2)
    assert q_inv().diff("x0") == term(-2, a=1, p=2)


def test_diff_matches_finite_differences():
    """Independent numerical oracle for the symbolic derivative."""
    rng = random.Random(43)
    h = 1e-6
    for _ in range(40):
        expr = random_axial(rng)
        x0 = rng.uniform(0.4, 1.4)
        r = rng.uniform(0.6, 1.6)
        for var in ("x0", "r"):
            sym = expr.diff(var).evaluate(x0, r)
            if var == "x0":
                fd = (expr.evaluate(x0 + h, r) - expr.evaluate(x0 - h, r)) / (2 * h)
            else:
                fd = (expr.evaluate(x0, r + h) - expr.evaluate(x0, r - h)) / (2 * h)
            scale = max(1.0, abs(expr.evaluate(x0, r)), abs(sym))
            assert abs(sym - fd) <= 2e-7 * scale


def test_mixed_partials_commute():
    rng = random.Random(47)
    for _ in range(50):
        f = random_axial(rng)
        assert f.diff("x0").diff("r") == f.diff("r").diff("x0")


def test_radial_operators_small_cases():
    assert d_lower(0, COS) == COS
    assert d_upper(0, E) == E
    assert d_lower(1, R) == term(1, b=-1)
    assert d_lower(2, R) == term(-1, b=-3)
    assert d_upper(1, X0) == term(-1, a=1, b=-2)
    # d/dr(sin/r) = x0 cos / r - sin / r^2
    assert d_upper(1, SIN) == term(1, a=1, b=-1, t="cos") - term(1, b=-2, t="sin")
    with pytest.raises(ValueError):
        d_lower(-1, R)


def test_operator_identity_properties():
    rng = random.Random(53)
    for _ in range(30):
        n = rng.randint(0, 5)
        f = random_axial(rng)
        assert d_upper(n, f.diff("r")) == d_lower(n, f).diff("r")
        lhs = d_lower(n, f.diff("r")) - d_upper(n, f).diff("r")
        assert lhs == d_upper(n, f).scale(2 * n).div_r()


def test_operator_leibniz_properties():
    rng = random.Random(59)
    for _ in range(25):
        n = rng.randint(0, 4)
        f = random_axial(rng, trig=False, exp_flag=False)
        g = random_axial(rng)
        lower = AxialExpr.zero()
        upper = AxialExpr.zero()
        for nu in range(n + 1):
            c = math.comb(n, nu)
            lower = lower + d_lower(n - nu, f).scale(c) * d_lower(nu, g)
            upper = upper + d_lower(n - nu, f).scale(c) * d_upper(nu, g)
        assert d_lower(n, f * g) == lower
        assert d_upper(n, f * g) == upper


def test_equality_through_q_relation():
    lhs = term(1, a=2, p=1) + term(1, b=2, p=1)
    assert lhs == ONE
    assert term(1, b=-1) == R.div_r(2)
    assert not (COS == SIN)
    assert not (E * COS == COS)
    assert (q_inv(2) * (term(1, a=2) + term(1, b=2)) - q_inv(1)).is_zero()


def test_closure_violations():
    with pytest.raises(AlgebraClosureError):
        _ = COS * SIN
    with pytest.raises(AlgebraClosureError):
        _ = E * E
    with pytest.raises(AlgebraClosureError):
        term(1, a=-1)


def test_eval_examples():
    assert term(1, b=-1).evaluate(0.0, 2.0) == 0.5
    assert E.evaluate(0.0, 0.0) == 1.0
    # -2 x0 Q^-2 at (1, 1): -2/4
    assert term(-2, a=1, p=2).evaluate(1.0, 1.0) == -0.5
    val = (E * COS).evaluate(0.5, 1.5)
    assert val == pytest.approx(math.exp((0.25 - 2.25) / 2) * math.cos(0.75), rel=1e-15)


def test_eval_domain_errors():
    with pytest.raises(EvalDomainError):
        term(1, b=-1).evaluate(1.0, 0.0)
    with pytest.raises(EvalDomainError):
        q_inv().evaluate(0.0, 0.0)
    with pytest.raises(EvalDomainError):
        R.evaluate(1.0, -1.0)
    # evaluate_mp runs the same term loop, so it makes the same domain checks
    for expr, x0, r in ((term(1, b=-1), 0, 0), (q_inv(), 0, 0), (R, 1, -1)):
        with pytest.raises(EvalDomainError):
            expr.evaluate_mp(x0, r)


def test_restriction_matches_eval_at_zero():
    rng = random.Random(61)
    for _ in range(30):
        expr = random_axial(rng, min_b=0)
        restricted = expr.restrict_x0()
        for r in (0.3, 0.9, 1.7):
            assert restricted.evaluate(0.0, r) == pytest.approx(expr.evaluate(0.0, r), rel=1e-13, abs=1e-13)


def test_trig_shift_table():
    assert trig_shift("cos", 0) == (1, "cos")
    assert trig_shift("cos", 1) == (-1, "sin")
    assert trig_shift("cos", 2) == (-1, "cos")
    assert trig_shift("cos", 3) == (1, "sin")
    assert trig_shift("sin", 1) == (1, "cos")
    assert trig_shift("sin", 6) == (-1, "sin")


def test_text_roundtrip():
    rng = random.Random(67)
    for _ in range(50):
        expr = random_axial(rng)
        parsed = parse_axial(format_axial(expr))
        assert parsed.terms == expr.terms
    expr = term(-4, a=1, p=2)
    assert format_axial(expr) == "-4*x0*Q^-2"
    assert parse_axial("-4*x0*Q^-2").terms == expr.terms
    combo = term(Fraction(1, 2), a=2, b=-3, p=1, g=1, t="sin")
    assert format_axial(combo) == "1/2*x0^2*r^-3*Q^-1*E*sin"
    assert parse_axial(format_axial(combo)).terms == combo.terms
    assert not parse_axial("0").terms
    # E's long form reads as E
    long_form = "-1/2*x0*exp((x0^2-r^2)/2)*sin + 3*r^-1*Q^-2*exp((x0^2-r^2)/2)"
    assert parse_axial(long_form).terms == parse_axial("-1/2*x0*E*sin + 3*r^-1*Q^-2*E").terms
    for _ in range(20):
        expr = random_axial(rng)
        assert parse_axial(format_axial(expr).replace("E", "exp((x0^2-r^2)/2)")).terms == expr.terms


@pytest.mark.parametrize(
    "text, exc",
    [
        ("cos*cos", AlgebraClosureError),
        ("cos*sin", AlgebraClosureError),
        ("2*x0*sin*r*cos", AlgebraClosureError),
        ("E*E", ValueError),
        ("Q", ValueError),
        ("Q^2", ValueError),
        ("1*x1", ValueError),
        ("1*e1", ValueError),
        ("1.5*x0", ValueError),
        ("x0^-1", AlgebraClosureError),
        ("cos^2", ValueError),
        ("E^2", ValueError),
        ("x0 #", ValueError),
    ],
)
def test_text_malformed(text, exc):
    with pytest.raises(exc):
        parse_axial(text)


def test_text_zero_denominator_is_a_value_error():
    # Fraction("1/0") raises ZeroDivisionError, which is not a ValueError
    with pytest.raises(ValueError, match="zero denominator"):
        parse_axial("1/0*x0")


def test_structural_vs_semantic_zero():
    expr = term(1, a=2, p=1) + term(1, b=2, p=1) - ONE
    assert expr.terms
    assert expr.is_zero()


def test_rejects_float_coefficients():
    for value in (0.1, 0.0, float("inf")):
        with pytest.raises(MixedVariantError):
            term(value, b=1)
        with pytest.raises(MixedVariantError):
            AxialExpr({(1, 0, 0, 0, "cos"): value})
    for expr in (AxialExpr.zero(), X0 * COS):
        with pytest.raises(MixedVariantError):
            expr.scale(0.1)
        with pytest.raises(MixedVariantError):
            0.1 * expr
    with pytest.raises(MixedVariantError):
        gauss_fund_pair(3).scaled(0.5)
    with pytest.raises(MixedVariantError):
        seed("iz").scaled(0.5)
    assert term(Fraction(1, 10)).terms == {(0, 0, 0, 0, ""): Fraction(1, 10)}
    assert seed("iz").scaled("3/2").name == "(3/2)*iz"


def test_integral_coefficients_are_int():
    def integral_values_are_int(expr):
        return all(type(q) is int or q.denominator != 1 for q in expr.terms.values())

    half = term(Fraction(1, 2), a=2, b=2) + term(Fraction(3, 2), b=3, p=1, g=1, t="sin")
    results = [
        half.diff("x0"),
        half.diff("r"),
        d_lower(2, half),
        d_upper(2, half),
        half * term(2, b=-1),
        half.scale(Fraction(6, 3)),
        half.scale(4),
        parse_axial("4/2*x0 - 1/2*r + 3/3*E*cos"),
    ]
    for expr in results:
        assert expr.terms and integral_values_are_int(expr), expr
    assert half.diff("x0").terms[(1, 2, 0, 0, "")] == 1
    assert type(half.scale(4).terms[(2, 2, 0, 0, "")]) is int
    for expr in (half, gauss_fund_pair(7).A):
        assert (expr - expr).terms == {}
        assert integral_values_are_int(expr)
    assert term(3, b=1) == term(Fraction(6, 2), b=1)
    assert term(Fraction(1, 2), b=1) * 2 == term(1, b=1)
    big = gauss_fund_pair(7).A
    assert parse_axial(format_axial(big)).terms == big.terms


def test_rejects_exponents_that_are_not_int():
    # a float exponent once evaluated as x0^1.5, or failed only later inside diff; True was kept as a key
    for key in ((1.5, 0, 0, 0, ""), (1, 2.0, 0, 0, ""), (0, 0, 0, True, ""), (0, 0, Fraction(1), 0, "")):
        with pytest.raises(TypeError, match=re.escape(repr(key))):
            AxialExpr({key: 1})
    with pytest.raises(TypeError):
        term(1, b=2.0)


def test_terms_is_a_read_only_view():
    expr = term(Fraction(1, 2), a=1) + term(3, b=2)
    assert expr.terms is expr.terms
    for view in (expr.terms, (expr * 2).terms):
        with pytest.raises(TypeError):
            view[(0, 0, 0, 0, "")] = 1
        with pytest.raises(TypeError):
            del view[(1, 0, 0, 0, "")]
    assert expr.terms == {(1, 0, 0, 0, ""): Fraction(1, 2), (0, 2, 0, 0, ""): 3}


# --- the integer kernel against a plain Fraction reference -----------------------
#
# The reference keeps {key: int or Fraction} and computes each operation
# term by term in Fraction arithmetic, as the algebra is defined.


def _ref_of(terms):
    return {key: q.numerator if q.denominator == 1 else q for key, q in terms.items() if q}


def _ref_add(x, y, sign=1):
    out = dict(x)
    for key, q in y.items():
        out[key] = out.get(key, 0) + sign * q
    return _ref_of(out)


def _ref_mul(x, y):
    out = {}
    for (a1, b1, p1, g1, t1), q1 in x.items():
        for (a2, b2, p2, g2, t2), q2 in y.items():
            key = (a1 + a2, b1 + b2, p1 + p2, g1 + g2, t1 or t2)
            out[key] = out.get(key, 0) + Fraction(q1) * q2
    return _ref_of(out)


def _ref_diff(x, var):
    """Product rule on q x0^a r^b Q^-p E^g T(x0 r), factor by factor."""
    out = {}
    for (a, b, p, g, t), q in x.items():
        if var == "x0":
            parts = [(a, (a - 1, b, p, g, t)), (-2 * p, (a + 1, b, p + 1, g, t)), (g, (a + 1, b, p, g, t))]
        else:
            parts = [(b, (a, b - 1, p, g, t)), (-2 * p, (a, b + 1, p + 1, g, t)), (-g, (a, b + 1, p, g, t))]
        if t:
            sign, tag = {"cos": (-1, "sin"), "sin": (1, "cos")}[t]
            parts.append((sign, (a, b + 1, p, g, tag) if var == "x0" else (a + 1, b, p, g, tag)))
        for c, key in parts:
            if c:
                out[key] = out.get(key, 0) + c * Fraction(q)
    return _ref_of(out)


def _ref_shift(x, s):
    """x times r^s."""
    return _ref_of({(a, b + s, p, g, t): q for (a, b, p, g, t), q in x.items()})


def _ref_restrict_x0(x):
    out = {}
    for (a, b, p, g, t), q in x.items():
        if a == 0 and t != "sin":
            key = (0, b - 2 * p, 0, g, "")
            out[key] = out.get(key, 0) + q
    return _ref_of(out)


def _ref_is_zero(x):
    """Clear r^B Q^P in each (exp, trig) class and expand: zero iff every polynomial is."""
    for cls in {(g, t) for _, _, _, g, t in x}:
        items = [(a, b, p, q) for (a, b, p, g, t), q in x.items() if (g, t) == cls]
        pmax, bmin = max(p for *_, p, _ in items), min(b for _, b, _, _ in items)
        poly = {}
        for a, b, p, q in items:
            e = pmax - p
            for i in range(e + 1):
                key = (a + 2 * i, b - bmin + 2 * (e - i))
                poly[key] = poly.get(key, 0) + q * math.comb(e, i)
        if any(poly.values()):
            return False
    return True


def _coeff(rng):
    q = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 12))
    return q.numerator if q.denominator == 1 and rng.random() < 0.5 else q


def _rand_terms(rng, rational=False, cancel=None):
    """One to four random terms; with cancel, also some of that dict's terms negated."""
    terms = {}
    for key, q in (cancel or {}).items():
        if rng.random() < 0.6:
            terms[key] = -q
    for _ in range(rng.randint(1, 4) if cancel is None or rng.random() < 0.5 else 0):
        key = (rng.randint(0, 3), rng.randint(-3, 3), rng.randint(0, 2), 0, "")
        if not rational:
            key = key[:3] + (rng.randint(0, 1), rng.choice(("", "cos", "sin")))
        terms[key] = _coeff(rng)
    return terms


def _assert_matches(expr, ref):
    assert list(expr.terms.items()) == list(ref.items())
    assert [type(q) for q in expr.terms.values()] == [type(q) for q in ref.values()]
    assert bool(expr) == bool(ref)
    assert expr.is_zero() == _ref_is_zero(ref)


def test_integer_kernel_matches_fraction_reference():
    rng = random.Random(2009)
    semantic_zero = term(1, a=2, p=1) + term(1, b=2, p=1) - ONE
    zeros = 0
    for _ in range(80):
        ref = _ref_of(_rand_terms(rng))
        expr = AxialExpr(ref)
        _assert_matches(expr, ref)
        for _ in range(10):
            op = rng.randrange(11)
            if op in (0, 1):
                other = _rand_terms(rng, cancel=ref if rng.random() < 0.7 else None)
                if rng.random() < 0.1:
                    other = {key: -q for key, q in ref.items()}  # the whole sum cancels
                if op == 0:
                    expr, ref = expr + AxialExpr(other), _ref_add(ref, _ref_of(other))
                else:
                    expr, ref = expr - AxialExpr(other), _ref_add(ref, _ref_of(other), -1)
            elif op == 2:
                expr, ref = -expr, _ref_of({key: -q for key, q in ref.items()})
            elif op == 3:
                c = rng.choice([rng.randint(-6, 6), Fraction(rng.randint(-9, 9), rng.randint(1, 12))])
                expr, ref = expr.scale(c), _ref_of({key: c * q for key, q in ref.items()})
            elif op == 4 and len(ref) < 40:
                other = _ref_of(_rand_terms(rng, rational=True))
                expr, ref = expr * AxialExpr(other), _ref_mul(ref, other)
            elif op in (5, 6):
                var = "x0" if op == 5 else "r"
                expr, ref = expr.diff(var), _ref_diff(ref, var)
            elif op == 7:
                n = rng.randint(-1, 2)
                expr, ref = expr.div_r(n), _ref_shift(ref, -n)
            elif op == 8:
                expr, ref = expr.restrict_x0(), _ref_restrict_x0(ref)
            elif op == 10:
                n, lower = rng.randint(0, 4), rng.random() < 0.5
                expr = (d_lower if lower else d_upper)(n, expr)
                for _ in range(n):
                    ref = _ref_shift(_ref_diff(ref, "r"), -1) if lower else _ref_diff(_ref_shift(ref, -1), "r")
            else:
                vanishing = expr * semantic_zero
                assert vanishing.is_zero() and _ref_is_zero(_ref_mul(ref, semantic_zero.terms))
                assert expr + vanishing == expr
            _assert_matches(expr, ref)
            zeros += not ref
    assert zeros  # some walks cancelled to zero


def test_seeds_are_built_once():
    for name, n in (("iz", None), ("gauss_fund", None), ("z_pow", 4)):
        assert seed(name, n) is seed(name, n)
    for _ in range(2):  # a failed build is not memoized
        for n in (None, -1):
            with pytest.raises(ValueError, match="n >= 0"):
                seed("z_pow", n)


def _store(expr):
    """The stored numerators in dict order with their types, and the denominator."""
    return [(key, type(n), n) for key, n in expr._num.items()], expr._den


def test_term_sums_built_in_one_dict_match_repeated_addition():
    # z^n's parts and the trig sums of e5-e7 are built as one term dict; the keys are distinct,
    # so term order and denominator are those of adding one term at a time
    def added(terms):
        out = AxialExpr.zero()
        for key, q in terms:
            out = out + AxialExpr({key: q})
        return out

    for n in range(12):
        s = seed("z_pow", n)
        for part, parity in ((s.u, 0), (s.v, 1)):
            ref = added(
                ((n - nu, nu, 0, 0, ""), Fraction((-1) ** (nu // 2) * math.comb(n, nu)))
                for nu in range(parity, n + 1, 2)
            )
            assert list(part.terms.items()) == list(ref.terms.items()) and _store(part) == _store(ref), (n, parity)
        for ident, base, coeffs in (
            ("e5", "cos", [(coeff_a(n, nu), nu) for nu in range(1, n + 1)]),
            ("e6", "sin", [(coeff_a(n, nu), nu) for nu in range(1, n + 1)]),
            ("e7", "sin", [(coeff_a(n + 1, nu + 1), nu) for nu in range(n + 1)]),
        ):
            shifted = (trig_shift(base, nu) + (c, nu) for c, nu in coeffs)
            ref = added(((nu, nu - 2 * n, 0, 0, tag), Fraction(sign) * c) for sign, tag, c, nu in shifted)
            expr = closed_form(ident, n)
            assert list(expr.terms.items()) == list(ref.terms.items()) and _store(expr) == _store(ref), (ident, n)


def test_radial_operators_equal_the_composed_chain():
    # one pass per order builds what diff("r").div_r() and div_r().diff("r") build: same store, same order
    for name in SEED_NAMES:
        for n in (0, 3, 7) if name == "z_pow" else (None,):
            s = seed(name, n)
            for f in (s.u, s.v, s.u.scale(Fraction(3, 14)) + s.v.div_r(-2)):
                lower = upper = f
                for order in range(11):
                    assert _store(d_lower(order, f)) == _store(lower), (name, n, order)
                    assert _store(d_upper(order, f)) == _store(upper), (name, n, order)
                    lower, upper = lower.diff("r").div_r(), upper.div_r().diff("r")


# --- the kept iterate chains of _radial -------------------------------------------------

MEMO_ORDERS = 9


def _seed_parts():
    for name in SEED_NAMES:
        for n in (0, 3, 7) if name == "z_pow" else (None,):
            s = seed(name, n)
            yield name, n, s.u, s.v


def _composed(f, lower):
    """[f, D f, ..., D^8 f] built by diff and div_r, D = 1/r d/dr or d/dr(./r)."""
    chain = [f]
    for _ in range(MEMO_ORDERS - 1):
        chain.append(chain[-1].diff("r").div_r() if lower else chain[-1].div_r().diff("r"))
    return chain


def test_radial_memo_gives_the_composed_chain_in_any_call_order():
    for name, n, u, v in _seed_parts():
        for op, lower in ((d_lower, True), (d_upper, False)):
            for f in (u, v):
                want = [_store(x) for x in _composed(f, lower)]
                for order in range(MEMO_ORDERS):  # nothing kept
                    axial._ITERATES.clear()
                    assert _store(op(order, f)) == want[order], (name, n, order)
                axial._ITERATES.clear()
                for order in range(MEMO_ORDERS):  # each call one pass past the kept chain
                    assert _store(op(order, f)) == want[order], (name, n, order)
                axial._ITERATES.clear()
                for order in reversed(range(MEMO_ORDERS)):  # the first call builds the chain
                    assert _store(op(order, f)) == want[order], (name, n, order)
            # a Leibniz sum reads D^(n-nu) u and D^nu v in turn, so the two chains alternate
            axial._ITERATES.clear()
            want_u = [_store(x) for x in _composed(u, lower)]
            want_v = [_store(x) for x in _composed(v, lower)]
            top = MEMO_ORDERS - 1
            for nu in range(top + 1):
                assert _store(op(top - nu, u)) == want_u[top - nu], (name, n, nu)
                assert _store(op(nu, v)) == want_v[nu], (name, n, nu)
                assert len(axial._ITERATES) <= 2


def test_radial_memo_keeps_at_most_two_chains():
    axial._ITERATES.clear()
    rng = random.Random(22)
    exprs = [random_axial(rng) for _ in range(5)]
    for _ in range(60):
        f = rng.choice(exprs)
        (d_lower if rng.random() < 0.5 else d_upper)(rng.randint(0, 4), f)
        assert len(axial._ITERATES) <= 2
    # the last call's chain is the newest entry, and each chain starts at its expression
    d_upper(2, exprs[0])
    assert next(reversed(axial._ITERATES)) == (id(exprs[0]), -1, 0)
    assert all(key[0] == id(chain[0]) for key, chain in axial._ITERATES.items())


def test_radial_memo_extends_the_kept_chain(monkeypatch):
    passes = []
    real = axial._add_diff

    def counted(*args, **kwargs):
        passes.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(axial, "_add_diff", counted)
    axial._ITERATES.clear()
    f = seed("gauss_fund").u
    d_lower(5, f)
    assert len(passes) == 5
    passes.clear()
    d_lower(8, f)
    assert passes == ["r"] * 3
    passes.clear()
    d_lower(6, f)  # already kept
    d_upper(0, f)  # order 0 is f itself
    assert passes == []
    d_upper(2, f)  # another operator is another chain
    assert len(passes) == 2


def test_radial_memo_untouched_by_a_bad_order():
    axial._ITERATES.clear()
    f = seed("gauss").u
    d_lower(3, f)

    def kept():
        return {key: [id(x) for x in chain] for key, chain in axial._ITERATES.items()}

    before = kept()
    for op in (d_lower, d_upper):
        with pytest.raises(TypeError):
            op(2.0, f)
        with pytest.raises(ValueError, match="nonnegative"):
            op(-1, f)
        assert kept() == before


def test_is_zero_matches_reference_on_vekua_ladder():
    # the residuals of the gauss_fund ladder vanish; a bumped coefficient leaves some that do not
    rng = random.Random(14)
    for m, k in VEKUA_LADDER:
        pair = fueter(seed("gauss_fund"), k, m)
        keys = sorted(pair.A.terms)
        bumped = AxialPair(m, k, pair.A + term(Fraction(rng.randint(1, 9), 4), *keys[rng.randrange(len(keys))]), pair.B)
        for res in (*vekua_residual(pair), *vekua_residual(bumped)):
            assert res.is_zero() == _ref_is_zero(dict(res.terms)), (m, k)
        assert not all(res.is_zero() for res in vekua_residual(bumped)), (m, k)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: AxialExpr({(0, 0, 0, 0, "tan"): 1}), "unknown trig tag 'tan'"),
        (lambda: X0.diff("y"), "unknown variable 'y'"),
        (lambda: trig_shift("tan", 1), "base must be cos or sin, got 'tan'"),
    ],
    ids=["trig_tag", "diff_variable", "trig_shift_base"],
)
def test_refusals_name_their_cause(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
