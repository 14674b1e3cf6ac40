import random
import re
import sys
from fractions import Fraction

import pytest

from fueterlab.axial import COS, E, R, SIN, X0, AxialExpr, q_inv
from fueterlab.clifford import Multivector
from fueterlab.cliffpoly import CliffPoly, ck_extend_poly, poly_mul, sample_p1, vector_power
from fueterlab.fueter import (
    GAUSS_M3,
    AxialPair,
    EvenDimensionError,
    HoloSeed,
    InvalidPkError,
    axial_to_poly,
    closed_form,
    coeff_a,
    default_pk,
    double_factorial,
    entire_remainder_pair,
    fueter,
    fueter_via_laplacian,
    gauss_ck_pair,
    gauss_fund_pair,
    pole_pair,
    seed,
    transform_closed_form,
    triangle_check,
    vekua_ok,
    vekua_residual,
)

term = AxialExpr.term


def test_double_factorial():
    assert double_factorial(-1) == 1
    assert double_factorial(0) == 1
    assert double_factorial(2) == 2
    assert double_factorial(5) == 15
    assert double_factorial(8) == 384
    with pytest.raises(ValueError):
        double_factorial(-3)


def test_coeff_a_table():
    assert coeff_a(1, 1) == 1
    assert coeff_a(2, 1) == -1
    assert coeff_a(2, 2) == 1
    assert (coeff_a(3, 1), coeff_a(3, 2), coeff_a(3, 3)) == (3, -3, 1)
    for n in range(1, 11):
        assert coeff_a(n, n) == 1
        assert coeff_a(n, 1) == (-1) ** (n + 1) * double_factorial(2 * n - 3)
    # rows are built by a loop, so a high order raises no RecursionError
    assert coeff_a(1200, 1) == -double_factorial(2 * 1200 - 3) and coeff_a(1200, 1200) == 1
    with pytest.raises(ValueError):
        coeff_a(3, 0)
    with pytest.raises(ValueError):
        coeff_a(3, 4)


def test_seed_components():
    s = seed("iz")
    assert s.u == -R and s.v == X0
    s = seed("inv_z")
    assert s.u == X0 * q_inv() and s.v == -(R * q_inv())
    s = seed("z_pow", 2)
    assert s.u == term(1, a=2) - term(1, b=2)
    assert s.v == term(2, a=1, b=1)
    s = seed("gauss")
    assert s.u == E * COS and s.v == E * SIN
    s = seed("gauss_fund")
    assert s.u == (term(1, a=1, p=1, g=1, t="cos") + term(1, b=1, p=1, g=1, t="sin"))
    assert s.v == (term(1, a=1, p=1, g=1, t="sin") - term(1, b=1, p=1, g=1, t="cos"))
    with pytest.raises(ValueError):
        seed("nope")
    with pytest.raises(ValueError):
        seed("z_pow")


@pytest.mark.parametrize(
    "u, v",
    [(X0, X0), (R, AxialExpr.zero())],
    ids=["first_equation", "second_equation_only"],
)
def test_seed_rejects_non_holomorphic_parts(u, v):
    # (X0, X0) breaks du/dx0 = dv/dr; (R, 0) keeps it and breaks only du/dr = -dv/dx0
    with pytest.raises(ValueError, match="Cauchy-Riemann"):
        HoloSeed("bad", u, v)


def test_seed_linear_combinations():
    s = seed("iz").scaled(Fraction(3, 2)) + seed("inv_z")
    assert s.u == -R.scale(Fraction(3, 2)) + X0 * q_inv()


def test_fueter_inv_z_m3():
    pair = fueter(seed("inv_z"), 0, 3)
    assert pair.A == term(-4, a=1, p=2)
    assert pair.B == term(4, b=1, p=2)
    assert vekua_ok(pair)


def test_fueter_iz_m1_identity_order():
    pair = fueter(seed("iz"), 0, 1)
    assert pair.A == -R and pair.B == X0


def test_fueter_gauss_m3():
    pair = fueter(seed("gauss"), 0, 3)
    # 2 * (1/r d/dr){E cos} and 2 * d/dr{E sin / r}, derived by hand
    assert pair.A == term(-2, g=1, t="cos") - term(2, a=1, b=-1, g=1, t="sin")
    assert pair.B == (
        term(-2, g=1, t="sin") + term(2, a=1, b=-1, g=1, t="cos") - term(2, b=-2, g=1, t="sin")
    )


def test_fueter_rejects_even_m():
    with pytest.raises(EvenDimensionError):
        fueter(seed("gauss"), 0, 4)


def test_fueter_rejects_invalid_pk():
    bad = poly_mul(CliffPoly.constant(3, Multivector.basis(3, 2)), CliffPoly.variable(3, 1))
    with pytest.raises(InvalidPkError):
        fueter(seed("iz"), 1, 3, bad)


def test_default_pk_built_once():
    for k, m in ((0, 3), (1, 3), (1, 5)):
        pk = default_pk(k, m)
        assert default_pk(k, m) is pk
        assert fueter(seed("iz"), k, m).pk is pk
    assert default_pk(2, 3) is None
    # a P_k the caller passes is still checked, also one equal to a shipped sample
    assert fueter(seed("iz"), 1, 3, sample_p1(3)).pk == default_pk(1, 3)
    with pytest.raises(InvalidPkError):
        fueter(seed("iz"), 0, 3, sample_p1(3))


@pytest.mark.parametrize("m", [17, 21, 31, 41])
def test_gauss_ck_pair_above_max_dimension(m):
    # the Vekua residual and the x0 = 0 restriction form no Clifford number, so they are decided
    # past MAX_DIMENSION, where the pair carries a generic P_0
    assert default_pk(0, m) is None and default_pk(1, m) is None
    pair = gauss_ck_pair(m)
    assert pair.pk is None and vekua_ok(pair)
    assert pair.A.restrict_x0() == E and pair.B.restrict_x0().is_zero()


@pytest.mark.parametrize("m", [17, 21])
def test_fundamental_pairs_above_max_dimension(m):
    assert vekua_ok(gauss_fund_pair(m)) and vekua_ok(entire_remainder_pair(m))


def test_fueter_abstract_pk_for_higher_degree():
    pair = fueter(seed("gauss"), 2, 3)
    assert pair.pk is None
    assert vekua_ok(pair)


def test_vekua_counterexample():
    pair = AxialPair(3, 0, X0, AxialExpr.zero(), CliffPoly.one(3))
    r1, r2 = vekua_residual(pair)
    assert r1 == AxialExpr.term(1)
    assert r2.is_zero()
    assert not vekua_ok(pair)


def test_vekua_grid_sample():
    for name, n in (("iz", None), ("inv_z", None), ("z_pow", 4), ("gauss", None), ("gauss_fund", None)):
        for m in (3, 5):
            for k in (0, 1):
                assert vekua_ok(fueter(seed(name, n), k, m))


def test_closed_form_values():
    assert closed_form("e2", 2) == term(8, a=1, p=3)
    assert closed_form("e5", 1) == term(-1, a=1, b=-1, t="sin")
    assert closed_form("e4", 3) == term(-1, g=1)
    assert closed_form("e7", 0) == SIN
    assert GAUSS_M3[0] == E * COS + term(1, a=1, b=-1, g=1, t="sin")
    with pytest.raises(ValueError, match="double factorial undefined"):
        closed_form("e1", 0)
    with pytest.raises(ValueError):
        closed_form("nope", 1)


def test_closed_form_ex1_rejects_undefined_constant():
    # the iz constant (2k+m-4)!! is undefined at (m, k) = (1, 0) and defined from 2k+m-4 = -1 on
    assert transform_closed_form("iz", 1, 0) is None
    a_part, b_part = transform_closed_form("iz", 3, 0)
    assert a_part == term(-2, b=-1)
    assert b_part == term(-2, a=1, b=-2)
    assert transform_closed_form("iz", 1, 1) == (a_part, b_part)


def test_example1_matches_transform():
    # the paper's display, against the closed form read off e1 and the d_upper rule for x0
    for m in (1, 3, 5, 7):
        for k in (0, 1, 2):
            if 2 * k + m - 4 < -1:
                continue
            c = (-1) ** (k + (m - 1) // 2) * double_factorial(2 * k + m - 1) * double_factorial(2 * k + m - 4)
            display = term(c, b=-(2 * k + m - 2)), term(c * (2 * k + m - 2), a=1, b=-(2 * k + m - 1))
            pair = fueter(seed("iz"), k, m)
            assert transform_closed_form("iz", m, k) == display == (pair.A, pair.B), (m, k)


def test_example2_matches_transform():
    # the paper's display, against the closed form read off e2 and e3
    for m in (1, 3, 5, 7):
        for k in (0, 1, 2):
            c = (-1) ** (k + (m - 1) // 2) * double_factorial(2 * k + m - 1) ** 2
            p = (2 * k + m + 1) // 2
            display = term(c, a=1, p=p), term(-c, b=1, p=p)
            pair = fueter(seed("inv_z"), k, m)
            assert transform_closed_form("inv_z", m, k) == display == (pair.A, pair.B), (m, k)


def test_gauss_closed_form_is_the_m3_pair_at_m3():
    # gauss_ck_pair(3) is the transform at k = 0 times (-1)^1 / 2!!
    a, b = transform_closed_form("gauss", 3, 0)
    assert (a.scale(Fraction(-1, 2)), b.scale(Fraction(-1, 2))) == GAUSS_M3


def test_axial_to_poly_examples():
    m = 3
    pair = AxialPair(m, 0, X0, R, CliffPoly.one(m))
    assert axial_to_poly(pair) == CliffPoly.variable(m, 0) + CliffPoly.vector_variable(m)
    pair = AxialPair(m, 0, term(-1, b=2), AxialExpr.zero(), CliffPoly.one(m))
    assert axial_to_poly(pair) == vector_power(m, 2)
    with pytest.raises(ValueError):
        axial_to_poly(AxialPair(m, 0, q_inv(), AxialExpr.zero(), CliffPoly.one(m)))


def test_triangle_hand_case():
    # z^3, k=0, m=3: transform is -12 x0 - 4 x_, i.e. -4 * CK[x_]
    pair = fueter(seed("z_pow", 3), 0, 3)
    assert pair.A == term(-12, a=1)
    assert pair.B == term(-4, b=1)
    res = triangle_check(3, 0, 3)
    assert res.ok and res.constant == -4
    direct = fueter_via_laplacian(3, 0, 3, CliffPoly.one(3))
    expect = ck_extend_poly(CliffPoly.vector_variable(3)).scale(-4)
    assert direct == expect


def test_triangle_below_threshold_is_zero():
    res = triangle_check(1, 0, 3)
    assert res.ok and res.constant is None
    assert fueter_via_laplacian(1, 0, 3, CliffPoly.one(3)).is_zero()


def test_triangle_no_laplacian_case():
    # k + (m-1)/2 = 0: the transform is the seed polynomial itself
    res = triangle_check(2, 0, 1)
    assert res.ok
    w = fueter_via_laplacian(2, 0, 1, CliffPoly.one(1))
    x0p = CliffPoly.variable(1, 0)
    x_ = CliffPoly.vector_variable(1)
    expect = poly_mul(x0p, x0p) + poly_mul(x0p, x_).scale(2) + vector_power(1, 2)
    assert w == expect


def test_triangle_with_degree_one_pk():
    for n in (4, 7):
        res = triangle_check(n, 1, 3, sample_p1(3))
        assert res.ok
        assert res.constant is not None


def test_triangle_restriction_without_the_base_monomial(monkeypatch):
    # a transform whose x0 = 0 restriction lacks the first monomial of x_^d P_k has no constant to read off;
    # the package root's `fueter` is the function, so the module is patched through sys.modules
    module = sys.modules["fueterlab.fueter"]
    monkeypatch.setattr(module, "axial_to_poly", lambda pair: CliffPoly.zero(pair.m))
    res = triangle_check(5, 0, 3)
    assert (res.routes_equal, res.ck_equal, res.constant) == (False, False, None)


def test_gauss_pair_restriction():
    for m in (3, 5, 7):
        pair = gauss_ck_pair(m)
        assert pair.A.restrict_x0() == E
        assert pair.B.restrict_x0().is_zero()


def test_entire_remainder_is_monogenic():
    for m in (3, 5):
        assert vekua_ok(entire_remainder_pair(m))
        assert vekua_ok(pole_pair(m))


def test_transform_linearity():
    s1, s2 = seed("iz"), seed("inv_z")
    combo = fueter(s1.scaled(Fraction(2, 3)) + s2.scaled(-1), 0, 5)
    p1 = fueter(s1, 0, 5)
    p2 = fueter(s2, 0, 5)
    assert combo.A == p1.A.scale(Fraction(2, 3)) - p2.A
    assert combo.B == p1.B.scale(Fraction(2, 3)) - p2.B


def _composed_residual(pair):
    """The Vekua residuals built operation by operation."""
    r1 = pair.A.diff("x0") - pair.B.diff("r") - pair.B.scale(pair.kappa).div_r()
    r2 = pair.B.diff("x0") + pair.A.diff("r")
    return r1, r2


def test_vekua_residual_equals_composed_form():
    # the whole vekua.grid, then gauss_fund at radial order k + (m-1)/2 from 1 to 10; a pair with one
    # non-constant term of A bumped (or x0 added to an empty A) fails, with the same residuals as composed
    seeds = [seed(name) for name in ("iz", "inv_z", "gauss", "gauss_fund")] + [seed("z_pow", n) for n in range(11)]
    pairs = [fueter(s, k, m) for s in seeds for m in (3, 5, 7) for k in (0, 1, 2)]
    ladder = ((3, 0), (3, 1), (5, 1), (7, 1), (9, 1), (11, 1), (13, 1), (13, 2), (13, 3), (13, 4))
    pairs += [fueter(seed("gauss_fund"), k, m) for m, k in ladder]
    rng = random.Random(1414)
    for pair in pairs:
        keys = sorted(key for key in pair.A.terms if key != (0, 0, 0, 0, ""))
        key = rng.choice(keys) if keys else (1, 0, 0, 0, "")
        bump = term(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4)), *key)
        bumped = AxialPair(pair.m, pair.k, pair.A + bump, pair.B, pair.pk)
        for p, ok in ((pair, True), (bumped, False)):
            r1, r2 = vekua_residual(p)
            c1, c2 = _composed_residual(p)
            assert r1 == c1 and r2 == c2, (p.m, p.k)
            assert vekua_ok(p) is ok and (r1.is_zero() and r2.is_zero()) is ok, (p.m, p.k)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: fueter(seed("iz"), -1, 3), "degree k must be nonnegative"),
        (lambda: fueter(seed("iz"), 0, 3) - fueter(seed("iz"), 1, 3), "axial pairs of different type"),
        (lambda: fueter_via_laplacian(2, 0, 3, None), "this route needs a concrete P_k"),
        (lambda: axial_to_poly(fueter(seed("iz"), 2, 3)), "axial_to_poly needs a concrete P_k"),  # no shipped P_2
        (lambda: closed_form("e2", -1), "e2 needs n >= 0"),
        (lambda: closed_form("ex1_full", 0), "unknown closed form 'ex1_full'"),
        (lambda: transform_closed_form("z_pow", 3, 0), "no transform closed form for seed 'z_pow'"),
    ],
    ids=[
        "negative_k",
        "pair_difference",
        "laplacian_route",
        "axial_to_poly",
        "e2_negative_n",
        "unknown_closed_form",
        "unknown_transform_seed",
    ],
)
def test_refusals_name_their_cause(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
