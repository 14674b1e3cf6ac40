import cmath
import csv
import decimal
import importlib.util
import inspect
import io
import math
import random
import re
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from fueterlab import numeric, verify
from fueterlab.axial import EvalDomainError, EvalPlan
from fueterlab.clifford import DimensionMismatchError, MixedVariantError, Multivector, sum_squares
from fueterlab.cliffpoly import CliffPoly, coeff_c, hermite_rec, vector_power
from fueterlab.fueter import (
    SEED_NAMES,
    EvenDimensionError,
    axis_split,
    default_pk,
    entire_remainder_pair,
    fueter,
    gauss_ck_pair,
    gauss_fund_pair,
    normalized_gauss_fund_pair,
    seed,
    vekua_ok,
)
from fueterlab.numeric import (
    EvalPoint,
    FDConfig,
    axial_evaluator,
    ck_gauss_restriction,
    ck_gauss_series,
    decay_scan,
    entire_part_probe,
    eval_axial,
    fd_convergence_factor,
    fd_cr_residual,
    hermite_radial_coeffs,
    lin_range,
    read_sample_csv,
    restriction_taylor_coeff,
    sample_rows,
    verify_sample_csv,
    write_sample_csv,
)


def test_eval_axial_inv_z_closed_point():
    # scaled 1/z transform equals conj(x)/|x|^4 at x = 1 + e1 for m = 3
    pair = fueter(seed("inv_z"), 0, 3).scaled(Fraction(-1, 4))
    val = eval_axial(pair, EvalPoint(1.0, (1.0, 0.0, 0.0)))
    assert val[0] == pytest.approx(0.25, rel=1e-14)
    assert val[1] == pytest.approx(-0.25, rel=1e-14)
    assert val[2] == 0.0 and val[4] == 0.0


def test_eval_axial_gauss_restriction_plane():
    pair = gauss_ck_pair(3)
    for r in (0.5, 1.0, 2.0):
        val = eval_axial(pair, EvalPoint(0.0, (0.0, r, 0.0)))
        assert val[0] == pytest.approx(math.exp(-r * r / 2), rel=1e-14)
        assert val.norm() == pytest.approx(math.exp(-r * r / 2), rel=1e-13)


def test_eval_axial_rejects_origin_axis():
    pair = gauss_ck_pair(3)
    with pytest.raises(EvalDomainError):
        eval_axial(pair, EvalPoint(1.0, (0.0, 0.0, 0.0)))


def test_eval_axial_needs_concrete_pk():
    pair = fueter(seed("gauss"), 2, 3)
    with pytest.raises(ValueError):
        eval_axial(pair, EvalPoint(0.5, (1.0, 0.0, 0.0)))


def test_hermite_radial_matches_polynomial_route():
    for m in (1, 3, 5):
        for n in range(0, 13):
            coeffs = hermite_radial_coeffs(n, m)
            poly = hermite_rec(n, m).poly
            rebuilt = None
            for j, c in enumerate(coeffs):
                if c:
                    part = vector_power(m, j).scale(c)
                    rebuilt = part if rebuilt is None else rebuilt + part
            assert rebuilt == poly


def test_series_restriction_axis():
    # only H_0 survives at x0 = 0
    pt = EvalPoint(0.0, (0.6, -0.8, 0.0))
    val = ck_gauss_series(pt, 3)
    assert val[0] == pytest.approx(math.exp(-0.5), rel=1e-14)
    # on the x_=0 axis at m=3 the extension is exp(x0^2/2)(1+x0^2)
    pt = EvalPoint(1.0, (0.0, 0.0, 0.0))
    val = ck_gauss_series(pt, 3, trunc=40)
    assert val[0] == pytest.approx(math.exp(0.5) * 2.0, rel=1e-12)
    assert all(val[1 << j] == 0.0 for j in range(3))


def test_series_matches_closed_form():
    rng = random.Random(71)
    for m in (3, 5):
        pair = gauss_ck_pair(m)
        for _ in range(50):
            x0 = rng.uniform(-1, 1)
            r = rng.uniform(0.3, 2.0)
            xs = [rng.gauss(0, 1) for _ in range(m)]
            norm = math.sqrt(sum(x * x for x in xs)) or 1.0
            pt = EvalPoint(x0, tuple(r * x / norm for x in xs))
            series = ck_gauss_series(pt, m, trunc=60)
            closed = eval_axial(pair, pt)
            assert (series - closed).norm() <= 1e-10 * closed.norm()
            # one order further adds the first omitted term
            assert (ck_gauss_series(pt, m, trunc=61) - series).norm() < 1e-14 * series.norm()


def test_restriction_formula():
    assert ck_gauss_restriction(0.0, 3) == 1.0
    x0 = 1.0
    assert ck_gauss_restriction(x0, 3) == pytest.approx(math.exp(0.5) * 2.0, rel=1e-15)
    assert ck_gauss_restriction(1.0, 5) == pytest.approx(math.exp(0.5) * (1 + 2 + Fraction(1, 3)), rel=1e-15)
    with pytest.raises(EvenDimensionError):
        ck_gauss_restriction(1.0, 4)


def test_restriction_taylor_coefficients_exact():
    for m in (3, 5, 7):
        for n in range(0, 41):
            assert restriction_taylor_coeff(n, m) == coeff_c(n, n, m) / math.factorial(2 * n)


def test_fd_residual_monogenic_and_not():
    f = axial_evaluator(gauss_fund_pair(3))
    pt = EvalPoint(0.4, (0.9, 0.5, -0.3))
    for side in ("left", "right"):
        assert fd_cr_residual(f, pt, FDConfig(), side) <= 1e-6

    def broken(x0, xs):
        return Multivector.scalar(3, x0, exact=False)

    assert fd_cr_residual(broken, pt) == pytest.approx(1.0, rel=1e-6)


def test_fd_convergence_order():
    f = axial_evaluator(gauss_fund_pair(3))
    pt = EvalPoint(-0.3, (1.1, 0.2, 0.4))
    factor = fd_convergence_factor(f, pt)
    assert 3.5 <= factor <= 4.5


def test_fd_convergence_factor_is_inf_when_the_finer_residual_is_zero():
    # a constant has a zero residual at every step: no ratio, so the factor reads inf
    const = lambda x0, xs: Multivector.scalar(3, 1.0, exact=False)
    assert fd_convergence_factor(const, EvalPoint(0.5, (1.0, 0.0, 0.0))) == math.inf


def test_fd_left_right_agree_for_degree_zero_outputs():
    """Degree-0 transforms are two-sided monogenic: both residuals vanish."""
    rng = random.Random(73)
    for name in ("iz", "inv_z", "gauss", "gauss_fund"):
        f = axial_evaluator(fueter(seed(name), 0, 3))
        for _ in range(3):
            pt = EvalPoint(rng.uniform(-1, 1), (rng.uniform(0.6, 1.4), rng.uniform(-0.5, 0.5), 0.1))
            left = fd_cr_residual(f, pt, FDConfig(), "left")
            right = fd_cr_residual(f, pt, FDConfig(), "right")
            assert left <= 1e-5 and right <= 1e-5
            assert abs(left - right) <= 1e-5


def test_fd_rejects_bad_side():
    f = axial_evaluator(gauss_fund_pair(3))
    with pytest.raises(ValueError):
        fd_cr_residual(f, EvalPoint(0.0, (1.0, 0.0, 0.0)), side="middle")


def test_fd_rejects_exact_or_mismatched_values():
    pt = EvalPoint(0.5, (1.0, 0.0, 0.0))
    with pytest.raises(MixedVariantError):
        fd_cr_residual(lambda x0, xs: Multivector.scalar(3, 1), pt)
    with pytest.raises(DimensionMismatchError):
        fd_cr_residual(lambda x0, xs: Multivector.scalar(4, x0, exact=False), pt)


def _ref_fd_total(f, pt, h, side):
    """The float Multivector sum of e_j (f(x + h u_j) - f(x - h u_j)) / (2h), e_j on the given side."""
    m = pt.m
    coords = (pt.x0, *pt.xs)

    def shifted(j, step):
        c = list(coords)
        c[j] += step
        return f(c[0], tuple(c[1:]))

    total = None
    for j in range(m + 1):
        deriv = (shifted(j, h) - shifted(j, -h)).scale(1.0 / (2.0 * h))
        if j > 0:
            ej = Multivector.basis(m, j, exact=False)
            deriv = ej * deriv if side == "left" else deriv * ej
        total = deriv if total is None else total + deriv
    return total


# (side, factor of the step): both sides at one step, then left h, left h/2, right h, right h/2
_FD_ORDERS = ((("left", 1.0), ("right", 1.0)), (("left", 1.0), ("left", 0.5), ("right", 1.0), ("right", 0.5)))


def test_fd_residual_bit_identical_to_multivector_formula():
    rng = random.Random(61)
    steps = (1e-8, 1e-6, 1e-5, 1e-4, 2e-3)
    for name in SEED_NAMES:
        for m in (3, 5, 7):
            for k in (0, 1):
                f = axial_evaluator(fueter(seed(name, 5 if name == "z_pow" else None), k, m, default_pk(k, m)))
                for i in range(2):
                    r = rng.uniform(0.3, 2.0)
                    d = [rng.gauss(0.0, 1.0) if j == 0 or rng.random() < 0.6 else 0.0 for j in range(m)]
                    norm = math.sqrt(sum(c * c for c in d))
                    pt = EvalPoint(rng.uniform(-1.5, 1.5), tuple(r * c / norm for c in d))
                    h = steps[(i + m + k) % len(steps)]
                    # one side after the other, then interleaved as the benchmark's h-halving runs them
                    for side, step in _FD_ORDERS[0] + _FD_ORDERS[1]:
                        want = _ref_fd_total(f, pt, FDConfig(h * step).step(pt), side).norm()
                        assert fd_cr_residual(f, pt, FDConfig(h * step), side) == want, (name, m, k, pt, h, side)


def test_fd_residual_keeps_order_when_a_blade_cancels():
    # x0 e2 gives the partial e2, e1 * (x1 e12) gives -e2: the e2 entry cancels exactly at j = 1
    # and comes back at j = 2 from e2 * 0.06, so it sums last, as in the Multivector sum
    def f(x0, xs):
        return Multivector(3, {2: x0, 1: 0.55 * x0, 0: 0.57 * x0 + 0.06 * xs[1], 3: xs[0]}, exact=False)

    pt = EvalPoint(0.25, (0.5, -0.375, 0.125))
    h = 2.0**-10  # dyadic point and step: the e2 differences are exact
    total = _ref_fd_total(f, pt, FDConfig(h).step(pt), "left")
    assert list(total.coeffs) == [1, 0, 2]
    got = fd_cr_residual(f, pt, FDConfig(h), "left")
    assert got == total.norm()
    vals = list(total.coeffs.values())
    rotated = 0.0  # summed left to right, as the library sums, on every Python version
    for v in vals[-1:] + vals[:-1]:
        rotated += v * v
    assert got != math.sqrt(rotated)  # the order shows in the last bit
    for m in (5, 7):

        def g(x0, xs, m=m):
            coeffs = {2: x0, 1: 0.55 * x0, 0: 0.57 * x0 + 0.06 * xs[1], 3: xs[0], 1 << (m - 1): xs[-1]}
            return Multivector(m, coeffs, exact=False)

        ptm = EvalPoint(0.25, (0.5, -0.375, 0.0) + (0.125,) * (m - 3))
        for step in (1e-8, 1e-5, 2e-3):
            for side in ("left", "right"):
                want = _ref_fd_total(g, ptm, FDConfig(step).step(ptm), side).norm()
                assert fd_cr_residual(g, ptm, FDConfig(step), side) == want


class _Counting:
    """A pure f that counts its evaluations; `c` scales it, so two of them differ."""

    def __init__(self, m, c=1.0):
        self.m, self.c, self.calls = m, c, 0

    def __call__(self, x0, xs):
        self.calls += 1
        c = self.c
        coeffs = {0: c * x0 * xs[0], 1: c * (x0 - xs[1] * xs[1]), 3: math.copysign(c, xs[1]) * x0 + xs[0] ** 3}
        return Multivector(self.m, coeffs, exact=False)


def test_fd_sides_share_one_stencil():
    m, h = 3, 2e-3
    pt = EvalPoint(0.3, (0.7, -0.4, 0.2))
    ref = _Counting(m)
    for order, stencils in zip(_FD_ORDERS, (1, 2)):
        f = _Counting(m)
        for side, step in order:
            want = _ref_fd_total(ref, pt, FDConfig(h * step).step(pt), side).norm()
            assert fd_cr_residual(f, pt, FDConfig(h * step), side) == want, (side, step)
        assert f.calls == stencils * 2 * (m + 1), order


def test_fd_stencils_apart_by_bits_type_and_function():
    m, h = 3, 1e-3

    def fresh_residual(f, pt, side="left"):
        before = f.calls
        got = fd_cr_residual(f, pt, FDConfig(h), side)
        evaluated = f.calls - before
        assert got == _ref_fd_total(f, pt, FDConfig(h).step(pt), side).norm(), (pt, side)
        assert len(numeric._FD_PARTIALS) <= 2
        return evaluated

    # the memo is keyed on the point object: each new point gets its own stencil, which its
    # left and right residuals share, also when a coordinate is an int
    # -0.0 and 0.0 in one coordinate: f reads the sign of xs[1]
    for zeros in ((-0.0, 0.0), (0.0, -0.0)):
        f = _Counting(m)
        for zero in zeros:
            pt = EvalPoint(0.3, (0.7, zero, 0.2))
            assert fresh_residual(f, pt) == 2 * (m + 1)
            assert fresh_residual(f, pt, "right") == 0
    # an int coordinate and the same float
    for ones in ((1, 1.0), (1.0, 1)):
        f = _Counting(m)
        for one in ones:
            pt = EvalPoint(0.5, (one, 0.25, 0.5))
            assert fresh_residual(f, pt) == 2 * (m + 1)
            assert fresh_residual(f, pt, "right") == 0
    # distinct functions at one point, also ones made and dropped in turn
    pt = EvalPoint(0.3, (0.7, -0.4, 0.2))
    kept = [_Counting(m, 1.0), _Counting(m, 2.0)]
    for f in kept + kept[::-1]:
        fresh_residual(f, pt, "right")
    for i in range(20):
        f = _Counting(m, 1.0 + i)
        assert fresh_residual(f, pt) == 2 * (m + 1)
        assert fresh_residual(f, pt, "right") == 0


def test_fd_stencil_memo_holds_two_entries():
    rng = random.Random(17)
    f = _Counting(3)
    for _ in range(200):
        pt = EvalPoint(rng.uniform(-1, 1), tuple(rng.uniform(0.2, 1) for _ in range(3)))
        for side, step in _FD_ORDERS[1]:
            fd_cr_residual(f, pt, FDConfig(1e-3 * step), side)
        assert len(numeric._FD_PARTIALS) <= 2
    assert f.calls == 200 * 4 * 4


@pytest.mark.parametrize("h", [0.0, -0.0, -1e-5, math.nan, math.inf, -math.inf], ids=str)
def test_fd_config_refuses_a_step_that_is_not_finite_and_positive(h):
    with pytest.raises(ValueError) as info:
        FDConfig(h)
    assert str(info.value) == f"finite-difference step h must be finite and > 0, got {h!r}"


def test_fd_refuses_a_step_that_rounds_back_onto_the_point():
    m, calls = 3, []

    def scalar_x0(x0, xs):
        calls.append((x0, xs))
        return Multivector.scalar(m, x0, exact=False)  # residual 1 everywhere

    pt = EvalPoint(0.4, (0.9, 0.5, -0.3))
    assert fd_cr_residual(scalar_x0, pt, FDConfig(1e-5)) == pytest.approx(1.0, rel=1e-9)
    # (point, h, the coordinate named): 0.4 + 1.14e-17 == 0.4; 1.5 + 7.5e-17 == 1.5 with
    # x0 = 0 shifting; at -1.0 only x - step rounds back, at 1.0 only x + step
    cases = [
        (pt, 1e-17, "x0=0.4"),
        (pt, 1e-300, "x0=0.4"),
        (EvalPoint(0.0, (1.5, 0.0, 0.0)), 5e-17, "x1=1.5"),
        (EvalPoint(0.0, (0.0, 0.0, -1.0)), 6e-17, "x3=-1.0"),
        (EvalPoint(0.0, (0.0, 1.0, 0.0)), 6e-17, "x2=1.0"),
    ]
    assert -1.0 + 6e-17 != -1.0 == -1.0 - 6e-17 and 1.0 + 6e-17 == 1.0 != 1.0 - 6e-17
    for point, h, named in cases:
        calls.clear()
        step = FDConfig(h).step(point)
        for side in ("left", "right"):
            with pytest.raises(ValueError) as info:
                fd_cr_residual(scalar_x0, point, FDConfig(h), side)
            assert str(info.value) == f"finite-difference step {step!r} is lost at {named}: x + step or x - step rounds to x"
        assert calls == []


def test_fd_refuses_a_step_whose_stencil_leaves_binary64():
    # from h ~ 9e307 on, 2 * step overflows and 1 / (2 step) reads 0: the residual read NaN for the
    # scalar x0, and the adapter raised a bare OverflowError from its powers of x0 +- step
    m, calls = 3, []
    pair_f = axial_evaluator(gauss_fund_pair(m))

    def scalar_x0(x0, xs):
        calls.append((x0, xs))
        return Multivector.scalar(m, x0, exact=False)

    def gauss_fund(x0, xs):
        calls.append((x0, xs))
        return pair_f(x0, xs)

    pt = EvalPoint(0.4, (0.9, 0.5, -0.3))
    cases = [
        (pt, 1e308, "x0=0.4"),  # x0 +- step finite, their distance not
        (pt, 8.98e307, "x0=0.4"),
        (EvalPoint(1.5e308, (1.0, 0.0, 0.0)), 1e-10, "x0=1.5e+308"),  # x0 + step itself overflows
    ]
    assert 1.5e308 + FDConfig(1e-10).step(cases[2][0]) == math.inf
    for f in (scalar_x0, gauss_fund):
        for point, h, named in cases:
            step = FDConfig(h).step(point)
            for side in ("left", "right"):
                with pytest.raises(ValueError) as info:
                    fd_cr_residual(f, point, FDConfig(h), side)
                assert str(info.value) == (
                    f"finite-difference step {step!r} leaves binary64 at {named}: "
                    "x + step, x - step or 2 * step is not finite"
                )
        assert calls == []


def test_fd_names_the_stencil_point_at_which_f_fails():
    # the stencil is finite at h = 1e200, but the pair's powers of x0 + step leave binary64 inside f
    pt = EvalPoint(0.4, (0.9, 0.5, -0.3))
    step = FDConfig(1e200).step(pt)
    with pytest.raises(OverflowError) as info:
        fd_cr_residual(axial_evaluator(gauss_fund_pair(3)), pt, FDConfig(1e200))
    assert str(info.value) == (
        f"f failed at the finite-difference stencil point x0 + step = (x0={0.4 + step!r}, xs=(0.9, 0.5, -0.3)) "
        f"with step {step!r}: (34, 'Numerical result out of range')"
    )

    # an error of f's own keeps its type and is named by the shifted coordinate
    def below(x0, xs):
        if xs[1] < 0.5:
            raise ValueError("x2 below 0.5")
        return Multivector.scalar(3, x0, exact=False)

    step = FDConfig().step(pt)
    with pytest.raises(ValueError) as info:
        fd_cr_residual(below, pt)
    assert str(info.value) == (
        f"f failed at the finite-difference stencil point x2 - step = (x0=0.4, xs=(0.9, {0.5 - step!r}, -0.3)) "
        f"with step {step!r}: x2 below 0.5"
    )


def _coord_bits(x):
    """A coordinate by its type and bits: an int stays an int, -0.0 differs from 0.0."""
    return (type(x).__name__, x.hex() if type(x) is float else repr(x))


class _Recording:
    """An f that records each point it is handed, by its bits."""

    def __init__(self, m):
        self.m, self.points = m, []

    def __call__(self, x0, xs):
        self.points.append((_coord_bits(x0), type(xs).__name__, tuple(map(_coord_bits, xs))))
        return Multivector(self.m, {0: 1.0 + x0, 1: x0 * xs[0], 1 << (self.m - 1): xs[-1] - 0.5}, exact=False)


def test_fd_stencil_hands_f_the_points_of_the_list_copy_construction():
    points = [
        (0.3, (0.7, -0.4, 0.2)),
        (-0.0, (1, -0.0, 0.0)),
        (0.0, (-0.0, 2, -0.0)),
        (1, (0.25, -0.0, 3)),
        (-0.0, (-0.0,)),
        (2, (0, 0.0, -0.0, 1.5, -3)),
    ]
    for x0, xs in points:
        for h in (1e-3, 2.0**-10):
            for side in ("left", "right"):
                pt = EvalPoint(x0, xs)
                got, want = _Recording(pt.m), _Recording(pt.m)
                residual = fd_cr_residual(got, pt, FDConfig(h), side)
                assert residual == _ref_fd_total(want, pt, FDConfig(h).step(pt), side).norm()
                assert len(got.points) == 2 * (pt.m + 1)
                assert got.points == want.points, (x0, xs, h, side)


@pytest.mark.parametrize("k", [0, 1])
def test_axial_value_drops_zero_parts_as_multivector_of(k):
    # gauss_fund has A = 0 exactly at x0 = ±0; x_j = ±5e-324 gives B x_j / r = ±0.0
    for m in (3, 5):
        for pk in (default_pk(k, m), _non_unit_pk(k, m)):
            pair = fueter(seed("gauss_fund"), k, m, pk)
            f = axial_evaluator(pair)
            for x0 in (0.0, -0.0, 0.7):
                for tiny in (5e-324, -5e-324):
                    xs = (2.0, tiny, -0.0, 0.75, tiny)[:m]
                    pt = EvalPoint(x0, xs)
                    a_val, b_val = pair.plan.values(x0, pt.r)
                    raw = {0: a_val, **{1 << j: b_val * (x / pt.r) for j, x in enumerate(xs) if x}}
                    assert raw[2] == 0.0 and (a_val == 0.0) == (x0 == 0.0)
                    want = Multivector._of(m, raw, False)
                    if not pk.is_one():
                        want = want * pk.eval(x0, xs)
                    want = [(key, v.hex()) for key, v in want.coeffs.items()]
                    for got in (eval_axial(pair, pt), f(x0, xs), f(x0, list(xs))):
                        assert [(key, v.hex()) for key, v in got.coeffs.items()] == want, (m, pk, x0, tiny)


def test_axial_evaluator_bit_identical_to_eval_axial():
    rng = random.Random(29)
    for name in SEED_NAMES:
        for m in (3, 5, 7):
            for k in (0, 1):
                for pk in (default_pk(k, m), _non_unit_pk(k, m)):
                    pair = fueter(seed(name, 5 if name == "z_pow" else None), k, m, pk)
                    f = axial_evaluator(pair)
                    for i in range(6):
                        # x_1 nonzero, each later component nonzero or a signed zero
                        xs = [rng.uniform(-2.0, 2.0) if j == 0 or rng.random() < 0.5 else (0.0, -0.0)[j % 2] for j in range(m)]
                        x0 = rng.uniform(-2.0, 2.0) if i else 0.0
                        got = f(x0, xs if i % 2 else tuple(xs))
                        want = eval_axial(pair, EvalPoint(x0, tuple(xs)))
                        assert [(key, v.hex()) for key, v in got.coeffs.items()] == [
                            (key, v.hex()) for key, v in want.coeffs.items()
                        ], (name, m, k, x0, xs)


def _non_unit_pk(k, m):
    """3 - e12/2 for k = 0, x1 e2 + x2 e1 for k = 1."""
    if k == 0:
        return CliffPoly.constant(m, Multivector(m, {0: 3, 0b11: Fraction(-1, 2)}))
    e1, e2 = (CliffPoly.constant(m, Multivector.basis(m, j)) for j in (1, 2))
    return CliffPoly.variable(m, 1) * e2 + CliffPoly.variable(m, 2) * e1


def test_axial_evaluator_raises_as_eval_axial():
    generic = fueter(seed("iz"), 2, 3)
    assert generic.pk is None
    pair = gauss_fund_pair(3)
    cases = [
        (generic, 0.5, (1.0, 0.0, 0.0), ValueError, "evaluation needs a concrete P_k"),
        (pair, 0.5, (1.0, 0.0, 0.0, 0.0), ValueError, "point dimension 4 vs pair dimension 3"),
        (pair, 0.5, (0.0, -0.0, 0.0), EvalDomainError, "axial evaluation needs r > 0; use the restriction formulas at x_ = 0"),
    ]
    for p, x0, xs, exc, msg in cases:
        for call in (lambda: eval_axial(p, EvalPoint(x0, xs)), lambda: axial_evaluator(p)(x0, xs)):
            with pytest.raises(exc) as info:
                call()
            assert str(info.value) == msg


def test_pair_plan_is_lazy_and_built_once(monkeypatch):
    pair = gauss_fund_pair(5)
    assert vekua_ok(pair)
    # the exact checks never compile the pair for evaluation
    assert "plan" not in pair.__dict__
    eval_axial(pair, EvalPoint(0.5, (1.0, 0.0, 0.0, 0.0, 0.0)))
    plan = pair.plan
    assert pair.plan is plan and pair.__dict__["plan"] is plan
    # decay_scan evaluates its grid, and axial_evaluator its point, through that same plan
    users = []

    def spy(name):
        method = getattr(EvalPlan, name)

        def record(self, *args):
            users.append((name, self))
            return method(self, *args)

        monkeypatch.setattr(EvalPlan, name, record)

    spy("values")
    spy("grid")
    decay_scan(pair, K=1.0, r_min=0.5, r_max=2.0, nx0=3, nr=3)
    axial_evaluator(pair)(0.5, (1.0, 0.0, 0.0, 0.0, 0.0))
    assert [name for name, _ in users] == ["grid", "values"] and all(user is plan for _, user in users)


def test_pair_plan_matches_per_expression_evaluation():
    rng = random.Random(61)
    for pair_of in (gauss_ck_pair, gauss_fund_pair):
        for m in (3, 5, 7):
            pair = pair_of(m)
            for _ in range(8):
                x0, r = rng.uniform(-3.0, 3.0), rng.uniform(1e-4, 5.0)
                got = pair.plan.values(x0, r)
                assert [v.hex() for v in got] == [pair.A.evaluate(x0, r).hex(), pair.B.evaluate(x0, r).hex()], (m, x0, r)
                with mpmath.workdps(60):
                    assert pair.plan.values(mpmath.mpf(x0), mpmath.mpf(r), mpmath) == [
                        pair.A.evaluate_mp(x0, r),
                        pair.B.evaluate_mp(x0, r),
                    ]


def _ref_mp_values(term_dicts, x0, r):
    """Each expression's value as a term-by-term mpmath sum: mpf(numerator) / denominator times the factors."""
    x0, r = mpmath.mpf(x0), mpmath.mpf(r)
    q_val = x0 * x0 + r * r
    e_val = mpmath.exp((x0 * x0 - r * r) / 2)
    trig = {"": 1, "cos": mpmath.cos(x0 * r), "sin": mpmath.sin(x0 * r)}
    out = []
    for terms in term_dicts:
        total = mpmath.mpf(0)
        for (a, b, p, g, t), q in terms.items():
            q = Fraction(q)
            total += mpmath.mpf(q.numerator) / q.denominator * x0**a * r**b * q_val**-p * e_val**g * trig[t]
        out.append(total)
    return out


def test_mpmath_values_match_the_term_by_term_sum():
    rng = random.Random(67)
    points = [(rng.uniform(-3.0, 3.0), rng.uniform(1e-3, 5.0)) for _ in range(20)]
    cases = [gauss_fund_pair(m) for m in (3, 5, 7, 9)] + [gauss_ck_pair(m) for m in (3, 7, 11)]
    with mpmath.workdps(60):
        for pair in cases:
            plan = EvalPlan(pair.A.terms, pair.B.terms)
            for x0, r in points:
                got = plan.values(mpmath.mpf(x0), mpmath.mpf(r), mpmath)
                assert got == _ref_mp_values((pair.A.terms, pair.B.terms), x0, r), (pair.m, x0, r)
                assert all(isinstance(v, mpmath.mpf) for v in got)
        # a plan whose terms are all constants still sums in r's number type
        got = EvalPlan({(0, 0, 0, 0, ""): 3}, {}).values(mpmath.mpf(0.5), mpmath.mpf(2), mpmath)
        assert got == [3, 0] and all(isinstance(v, mpmath.mpf) for v in got)


@pytest.mark.parametrize("pair_of", [gauss_fund_pair, gauss_ck_pair])
@pytest.mark.parametrize("m", [3, 5, 7])
def test_complex_step_matches_the_exact_derivatives(pair_of, m):
    """Im values(x0 + ih, r, cmath) / h, and the same in r, against the binary64 plans of the exact diffs."""
    h = 1e-30
    pair = pair_of(m)
    plan = EvalPlan(pair.A.terms, pair.B.terms)
    rng = random.Random(71)
    points = [(0.0, 0.5), (0.7, 0.5)] + [(rng.uniform(-2.0, 2.0), rng.uniform(0.5, 3.0)) for _ in range(10)]
    for var in ("x0", "r"):
        exact = EvalPlan(pair.A.diff(var).terms, pair.B.diff(var).terms)
        for x0, r in points:
            step = plan.values(x0 + 1j * h, r, cmath) if var == "x0" else plan.values(x0, r + 1j * h, cmath)
            want = exact.values(x0, r)
            scale = max(map(abs, want))
            for got, w in zip(step, want):
                assert abs(got.imag / h - w) <= 1e-11 * scale, (var, x0, r)


def _point_outcome(evaluate):
    """The hex of each value, or the type and message of the exception raised."""
    try:
        return [v.hex() for v in evaluate()]
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def _values_outcomes(plan, x0s, rs):
    """`plan.values` at each point in row-major order, up to and including the first failure."""
    out = []
    for x0 in x0s:
        for r in rs:
            out.append(_point_outcome(lambda: plan.values(x0, r)))
            if isinstance(out[-1], tuple):
                return out
    return out


def _grid_outcomes(plan, x0s, rs):
    """`plan.grid` asked point by point, up to and including the first failure."""
    grid = plan.grid(x0s, rs)
    out = []
    for _ in range(len(x0s) * len(rs)):
        out.append(_point_outcome(lambda: next(grid)))
        if isinstance(out[-1], tuple):
            break
    return out


def _grid_pairs():
    for m in (1, 3, 5, 7, 9):
        yield f"ck-gauss-{m}", gauss_ck_pair(m)
        yield f"gauss-fund-{m}", gauss_fund_pair(m)
    for name in ("iz", "inv_z"):
        for m in (3, 5, 7):
            yield f"{name}-{m}", fueter(seed(name), 0, m)


def test_plan_grid_bit_identical_to_values():
    x0s = [-0.0, 0.0, -1.7, 25.0]
    rs = [1e-3, 0.02, 0.7, 1.0, 3.3, 12.0, 40.0]
    for name, pair in _grid_pairs():
        got = _grid_outcomes(pair.plan, x0s, rs)
        assert len(got) == len(x0s) * len(rs) and all(isinstance(v, list) for v in got), name
        assert got == _values_outcomes(pair.plan, x0s, rs), name


@pytest.mark.parametrize(
    "x0s, rs",
    [
        ([0.5, 1e200], [1.0, 2.0]),  # x0^a overflows
        ([0.5], [1.0, 1e-160]),  # r^b overflows
        ([1e200, 0.5], [1.0, 1e-160]),
        ([0.5, 1e200], [1e-160, 1.0]),
        ([0.5, 0.0], [2.0, 0.0]),  # r = 0: refused where r has negative powers, Q = 0 at the origin
        ([0.5], [2.0, -1.0]),
        ([0.0], [1.0, 1e-170]),  # r * r underflows, so Q = 0
        ([1e200], [-1.0, 1.0]),  # the domain is checked before any power
        ([0.3, math.nan], [1.0, math.nan]),
        ([0.5, 40.0], [1.0, 2.0]),  # E overflows
        ([1e-100], [1.0, 1e-100]),  # Q^-p overflows where r has no negative power
    ],
)
def test_plan_grid_fails_where_values_fails(x0s, rs):
    for name, pair in _grid_pairs():
        assert _grid_outcomes(pair.plan, x0s, rs) == _values_outcomes(pair.plan, x0s, rs), name


def test_decay_scan_gauss_fund():
    pair = gauss_fund_pair(3)
    report = decay_scan(pair, K=2.0, r_min=3.0, r_max=8.0, nx0=41, nr=41)
    assert math.isfinite(report.sup_value)
    refined = decay_scan(pair, K=2.0, r_min=3.0, r_max=8.0, nx0=81, nr=81)
    assert abs(refined.sup_value - report.sup_value) <= 0.05 * report.sup_value
    assert report.K == 2.0 and report.nx0 == 41


def test_decay_scan_reports_boundary_argmax():
    # the scan of gauss_fund.decay_sup_stable: its sup sits at the corner (2, 3)
    report = decay_scan(gauss_fund_pair(3), K=2.0, r_min=3.0, r_max=8.0, nx0=101, nr=101)
    assert (report.argmax_x0, report.argmax_r) == (2.0, 3.0)
    assert report.on_boundary is True
    assert not replace(report, argmax_x0=0.5, argmax_r=5.0).on_boundary
    assert replace(report, argmax_x0=-2.0, argmax_r=5.0).on_boundary
    assert replace(report, argmax_x0=0.5, argmax_r=8.0).on_boundary


def test_decay_scan_flags_inverse_power():
    pair = fueter(seed("inv_z"), 0, 3)
    near = decay_scan(pair, K=1.0, r_min=3.0, r_max=8.0, nx0=11, nr=21)
    far = decay_scan(pair, K=1.0, r_min=3.0, r_max=12.0, nx0=11, nr=21)
    assert far.sup_value > 10 * near.sup_value


def test_decay_scan_validation():
    pair = gauss_fund_pair(3)
    with pytest.raises(ValueError):
        decay_scan(pair, K=0.0, r_min=3.0, r_max=8.0)
    with pytest.raises(ValueError):
        decay_scan(pair, K=1.0, r_min=8.0, r_max=3.0)
    # the scan reads |F| on the ray, which holds only for P_k = 1
    with pytest.raises(ValueError, match=r"^decay scan needs a pair with P_k = 1, got k=1$"):
        decay_scan(fueter(seed("gauss"), 1, 3, default_pk(1, 3)), 1.0, 0.5, 3.0, 9, 9)


def test_decay_scan_rejects_nan():
    # z^200 transform: at (-30, 20) terms overflow to +inf and -inf, so the sum is NaN
    pair = fueter(seed("z_pow", 200), 0, 3)
    with pytest.raises(ValueError, match=r"NaN at \(x0=-30.0, r=20.0\)"):
        decay_scan(pair, K=30, r_min=20, r_max=30, nx0=7, nr=7)


def test_entire_part_probe_bounded():
    radii = (1e-1, 1e-2, 1e-3, 1e-4)
    for m in (3, 5):
        report = entire_part_probe(m, radii)
        assert report.bounded
        assert max(report.values) <= 1.0


def test_entire_part_probe_control_grows_like_pole():
    radii = (1e-1, 1e-2, 1e-3)
    for m in (3, 5):
        report = entire_part_probe(m, radii, subtract_pole=False)
        assert not report.bounded
        # |value| ~ r^-m
        ratio = report.values[-1] / report.values[-2]
        assert ratio == pytest.approx(10 ** m, rel=0.2)


def _probe_reference(m: int, r: float, subtract_pole: bool) -> float:
    """|A + w B| at (0, r) from `values` under mpmath at 40 + (m+1) max(1, |log10 r|) digits, which covers
    the cancellation."""
    pair = entire_remainder_pair(m) if subtract_pole else normalized_gauss_fund_pair(m)
    plan = EvalPlan(pair.A.restrict_x0().terms, pair.B.restrict_x0().terms)
    with mpmath.workdps(40 + (m + 1) * max(1, abs(math.log10(r)))):
        av, bv = plan.values(mpmath.mpf(0), mpmath.mpf(r), mpmath)
        return float(mpmath.sqrt(av * av + bv * bv))


# radii between 0.3 and 8, where x = r^2/2 is not exact in binary64 and exp(-x) is far from 1
_INEXACT_SQUARE_RADII = tuple(sorted((random.Random(5).uniform(0.3, 8.0) for _ in range(16)), reverse=True))


@pytest.mark.parametrize("subtract_pole", [True, False])
@pytest.mark.parametrize("m", range(3, 16, 2))
def test_entire_part_probe_matches_high_precision_reference(m, subtract_pole):
    for radii in (
        (0.15, 1.5e-2, 1.5e-3, 1.5e-4),
        verify.PROBE_RADII,
        (1e3, 40.0, 5.0, 1.0),
        (1e-30, 1e-100, 1e-300),
        _INEXACT_SQUARE_RADII,
    ):
        got = entire_part_probe(m, radii, subtract_pole=subtract_pole).values
        for r, value in zip(radii, got):
            want = _probe_reference(m, r, subtract_pole)
            if want == 0 or math.isinf(want):  # the reference leaves binary64
                assert value == want, (r, value, want)
            else:
                assert abs(value - want) <= 5e-16 * want, (r, value, want)


def test_axis_split_closed_form():
    # on the axis the remainder is exactly r^-m P((m+1)/2, r^2/2), and the control keeps its pole in M
    for m in range(3, 42, 2):
        K = (m + 1) // 2
        a_split, b_split = axis_split(entire_remainder_pair(m))
        assert (a_split.M, a_split.P, a_split.K) == ({}, {}, 0)
        assert (b_split.M, b_split.P, b_split.K) == ({}, {-m: 1}, K)
        a_split, b_split = axis_split(normalized_gauss_fund_pair(m))
        assert (a_split.M, a_split.P, a_split.K) == ({}, {}, 0)
        want = {2 * k - m: -Fraction(1, 2**k * math.factorial(k)) for k in range(K)}
        assert (b_split.M, b_split.P, b_split.K) == (want, {}, 0)


def test_entire_part_probe_ignores_dps():
    radii = (0.15, 1.5e-2, 1.5e-3, 1.5e-4)
    for m in (3, 9, 15):
        for sp in (True, False):
            low = entire_part_probe(m, radii, subtract_pole=sp, dps=10).values
            high = entire_part_probe(m, radii, subtract_pole=sp, dps=60).values
            assert [v.hex() for v in low] == [v.hex() for v in high], (m, sp)


def test_entire_part_probe_at_tiny_radii():
    # r^-m P(K, r^2/2) with K = (m+1)/2, where the closed form cancels by about (m+1) |log10 r| digits
    radii = (1e-30, 1e-100, 1e-300)
    for m in range(3, 16, 2):
        report = entire_part_probe(m, radii)
        assert report.bounded
        for r, value in zip(radii, report.values):
            with mpmath.workdps(60):
                want = float(mpmath.mpf(r) ** -m * mpmath.gammainc((m + 1) // 2, 0, mpmath.mpf(r) ** 2 / 2, regularized=True))
            assert abs(value - want) <= 5e-16 * want, (m, r, value, want)


def test_entire_part_probe_control_reads_inf_past_binary64():
    # r^-11 leaves binary64 at r = 1e-30: the value reads inf, and no OverflowError escapes
    report = entire_part_probe(11, (0.1, 1e-30), subtract_pole=False)
    assert report.values[0] == pytest.approx(1e11, rel=1e-15) and report.values[1] == math.inf
    assert not report.bounded


def test_entire_part_probe_infinite_control_reads_unbounded():
    # r^-11 leaves binary64 at both radii: the cap 10 x inf would pass every value, but no inf is bounded
    report = entire_part_probe(11, (1e-30, 1e-40), subtract_pole=False)
    assert report.values == (math.inf, math.inf)
    assert not report.bounded


def test_entire_part_probe_ignores_the_callers_decimal_context():
    radii = (0.15, 1.5e-2, 1.5e-3, 1.5e-4)
    want = {(m, sp): entire_part_probe(m, radii, subtract_pole=sp).values for m in (3, 5) for sp in (True, False)}
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.rounding = 5, decimal.ROUND_FLOOR
        before = repr(ctx)
        for (m, sp), values in want.items():
            got = entire_part_probe(m, radii, subtract_pole=sp).values
            assert [v.hex() for v in got] == [v.hex() for v in values], (m, sp)
        assert decimal.getcontext() is ctx and repr(ctx) == before


def test_entire_part_probe_validation():
    with pytest.raises(ValueError):
        entire_part_probe(3, ())
    with pytest.raises(ValueError):
        entire_part_probe(3, (1e-3, 1e-2))
    with pytest.raises(ValueError):
        entire_part_probe(3, (-1.0,))
    # one radius gives no trend to judge, and a radius that is not finite gives no value
    for radii in ((1e-5,), (0.1, math.nan), (math.inf, 0.1), (0.1, 0.0)):
        with pytest.raises(ValueError, match="at least two finite numbers > 0"):
            entire_part_probe(3, radii, subtract_pole=False)


def test_lin_range():
    assert lin_range(0.0, 1.0, 1) == [0.0]
    vals = lin_range(-2.0, 2.0, 41)
    assert len(vals) == 41 and vals[0] == -2.0 and vals[-1] == 2.0
    for lo, hi, count in ((-2.0, 2.0, 41), (0.1, 0.7, 13), (3.0, 8.0, 201), (-1e300, 1e300, 5), (1.0, 1.0, 3)):
        step = (hi - lo) / (count - 1)
        assert lin_range(lo, hi, count) == [lo + i * step for i in range(count - 1)] + [hi]


@pytest.mark.parametrize(
    "lo, hi, count",
    [
        (-1e308, 1e308, 2),
        (1e308, -1e308, 3),
        (0.0, math.inf, 3),
        (math.nan, 1.0, 3),
        (math.nan, 1.0, 1),
        (-math.inf, 0.0, 1),
    ],
)
def test_lin_range_rejects_non_finite(lo, hi, count):
    # the span of [-1e308, 1e308] overflows: the step is inf, and lo + 0 * inf is NaN
    with pytest.raises(ValueError, match="not finite"):
        lin_range(lo, hi, count)


def test_decay_scan_rejects_overflowing_strip():
    # fails at the grid, before any point is evaluated, instead of hitting NaN at x0 = nan
    with pytest.raises(ValueError, match="not finite"):
        decay_scan(gauss_fund_pair(3), 1e308, 3.0, 8.0, 3, 3)


def test_eval_point_radius_once():
    rng = random.Random(3)
    for m in (1, 3, 5, 7):
        xs = tuple(rng.uniform(-2.0, 2.0) if rng.random() < 0.7 else 0.0 for _ in range(m))
        pt = EvalPoint(0.5, xs)
        assert pt.r == math.sqrt(math.fsum(x * x for x in xs))
        # r takes no part in equality, hashing or repr
        assert pt == EvalPoint(0.5, xs) and hash(pt) == hash(EvalPoint(0.5, xs))
        assert repr(pt) == f"EvalPoint(x0=0.5, xs={xs!r})"
    assert EvalPoint(0.0, (3.0, 4.0)).r == 5.0
    assert replace(EvalPoint(0.0, (3.0, 4.0)), xs=(6.0, 8.0)).r == 10.0


def test_sample_rows_and_csv_roundtrip(tmp_path):
    path = tmp_path / "g.csv"
    x0_vals = [0.0]
    r_vals = lin_range(0.1, 3.0, 100)
    n = write_sample_csv(path, "ck-gauss", 3, x0_vals, r_vals)
    assert n == 100
    m, header, rows = read_sample_csv(path)
    assert m == 3
    assert header == ["x0", "x1", "x2", "x3", "r", "scalar", "e1", "e2", "e3", "|value|"]
    direct = sample_rows("ck-gauss", 3, x0_vals, r_vals)
    assert rows == direct
    for row in rows:
        assert row[5] == math.exp(-row[4] * row[4] / 2.0)
    ok, count = verify_sample_csv(path, "ck-gauss")
    assert ok and count == 100


def test_verify_sample_csv_detects_tampering(tmp_path):
    path = tmp_path / "g.csv"
    write_sample_csv(path, "gauss-fund", 3, [0.5], lin_range(3.0, 4.0, 5))
    good = path.read_text().splitlines()
    # the scalar, and the r cell, which is compared with the radius recomputed from x1..xm
    for col in (5, 4):
        lines = good[:]
        cells = lines[1].split(",")
        cells[col] = repr(float(cells[col]) + 1e-9)
        lines[1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        ok, _ = verify_sample_csv(path, "gauss-fund")
        assert not ok


@pytest.mark.parametrize(
    "name, target",
    [("sample_gauss_fund_m3.csv", "gauss-fund"), ("sample_ck_gauss_m5.csv", "ck-gauss")],
)
def test_verify_sample_csv_reads_pinned_files(name, target):
    """5x5 grids written at an earlier commit still re-verify bit for bit.

    The files come from `fueterlab sample --target gauss-fund --m 3 --x0 -1:1:5
    --r 0.5:2.5:5` and `--target ck-gauss --m 5 --x0 -1:1:5 --r 0.01:2:5`, run
    before the binary64 term loop and `eval_axial` were restructured.  So the
    bit-exact round trip covers CSVs from earlier commits, on the same
    platform's libm: the values go through its exp, cos and sin.
    """
    assert verify_sample_csv(Path(__file__).parent / "data" / name, target) == (True, 25)


@pytest.mark.parametrize(
    "name, target, m, x0_vals, r_vals",
    [
        ("sample_gauss_fund_m3.csv", "gauss-fund", 3, lin_range(-1.0, 1.0, 5), lin_range(0.5, 2.5, 5)),
        ("sample_ck_gauss_m5.csv", "ck-gauss", 5, lin_range(-1.0, 1.0, 5), lin_range(0.01, 2.0, 5)),
    ],
)
def test_write_sample_csv_reproduces_pinned_files(tmp_path, name, target, m, x0_vals, r_vals):
    # the commands named in test_verify_sample_csv_reads_pinned_files, byte for byte: this pins the text format too
    path = tmp_path / name
    assert write_sample_csv(path, target, m, x0_vals, r_vals) == 25
    assert path.read_bytes() == (Path(__file__).parent / "data" / name).read_bytes()


def test_sample_rows_rejects_nan_rows(tmp_path):
    # from r ~ 1.34e154 on, r * r overflows: r reads inf and the values NaN, which `verify --from` cannot match
    with pytest.raises(ValueError, match=r"NaN at \(x0=0.0, r=1e\+200\)"):
        sample_rows("ck-gauss", 3, [0.0], [1.0, 1e200, 1e300])
    with pytest.raises(ValueError, match="NaN"):
        write_sample_csv(tmp_path / "g.csv", "ck-gauss", 3, [0.0], [1e200])
    assert not (tmp_path / "g.csv").exists()
    # an inf value is not NaN, and it still round-trips; B = -inf there, yet e2 and e3 read 0.0, not -inf * 0.0
    inf = math.inf
    assert sample_rows("ck-gauss", 3, [38.0], [5.0]) == [[38.0, 5.0, 0.0, 0.0, 5.0, inf, -inf, 0.0, 0.0, inf]]
    write_sample_csv(tmp_path / "g.csv", "ck-gauss", 3, [38.0], [5.0])
    assert verify_sample_csv(tmp_path / "g.csv", "ck-gauss") == (True, 1)


def test_sample_rows_names_the_first_failing_point_in_row_major_order():
    # r^b is computed once per r, yet an x0 whose powers overflow still fails first when its row comes first
    for target in numeric.SAMPLE_TARGETS:
        with pytest.raises(OverflowError, match=r"at \(x0=1e\+200, r=1\.0\)$"):
            sample_rows(target, 5, [1e200, 0.5], [1.0, 1e-160])
        for r_vals in ([1e-160, 1.0], [1.0, 1e-160]):
            with pytest.raises(OverflowError, match=r"at \(x0=0\.5, r=1e-160\)$"):
                sample_rows(target, 5, [0.5, 1e200], r_vals)


def test_verify_sample_csv_reads_rows_in_any_order(tmp_path):
    path = tmp_path / "g.csv"
    n = write_sample_csv(path, "gauss-fund", 3, [-0.0, 0.0, -1.2, 0.7], lin_range(0.5, 4.0, 9))
    header, *lines = path.read_text().splitlines()
    # by r, so each run of one x0 is one row long and the x0 = -0.0 and 0.0 rows meet; then shuffled
    by_r = sorted(lines, key=lambda line: float(line.split(",")[4]))
    shuffled = lines[:]
    random.Random(25).shuffle(shuffled)
    for order in (by_r, shuffled):
        path.write_text("\n".join([header, *order]) + "\n")
        assert verify_sample_csv(path, "gauss-fund") == (True, n)
        # one ulp off in one value fails
        cells = order[n // 2].split(",")
        cells[5] = repr(math.nextafter(float(cells[5]), math.inf))
        path.write_text("\n".join([header, *order[: n // 2], ",".join(cells), *order[n // 2 + 1 :]]) + "\n")
        assert verify_sample_csv(path, "gauss-fund") == (False, n)


def test_verify_sample_csv_compares_bits(tmp_path):
    # float == takes -0.0 for 0.0, so a file whose e2 reads -0.0 where the value is 0.0 must fail by its bits
    path = tmp_path / "g.csv"
    assert write_sample_csv(path, "gauss-fund", 3, [-0.5, 0.5], [1.0, 2.0]) == 4
    assert verify_sample_csv(path, "gauss-fund") == (True, 4)
    header, *lines = path.read_text().splitlines()
    e2 = header.split(",").index("e2")
    cells = lines[2].split(",")
    assert cells[e2] == "0.0"
    cells[e2] = "-0.0"
    path.write_text("\n".join([header, *lines[:2], ",".join(cells), *lines[3:]]) + "\n")
    assert verify_sample_csv(path, "gauss-fund") == (False, 4)


def _csv_writer_bytes(target, m, x0_vals, r_vals) -> bytes:
    """The reference text: the csv module's default writer on the header and `sample_rows`."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(numeric.sample_header(m))
    writer.writerows(sample_rows(target, m, x0_vals, r_vals))
    return buf.getvalue().encode()


@pytest.mark.parametrize("target", numeric.SAMPLE_TARGETS)
@pytest.mark.parametrize("m", range(1, 16, 2))
def test_write_sample_csv_equals_csv_writer(tmp_path, target, m):
    # the writer formats each x0 once per grid row and each point once per radius; its bytes must be csv.writer's
    rng = random.Random(2800 + m)
    grids = [
        ([-0.0, 0.0], [0.5, 2.0]),
        ([0.0, -0.0, 0.0], [1.0]),
        ([0.3], [1.2]),
        ([38.0], [5.0]),  # inf values at m <= 3, NaN from m = 5 on
        *(
            (
                lin_range(lo, lo + rng.uniform(0.1, 3.0), rng.randint(1, 6)),
                lin_range(r, r + rng.uniform(0.1, 6.0), rng.randint(1, 6)),
            )
            for lo, r in [(rng.uniform(-3.0, 1.0), rng.uniform(0.01, 2.0)) for _ in range(4)]
        ),
        ([0.0, 0.5], [1.0, 1e200]),  # NaN at the first grid row's second point, from 0 * inf
        ([0.5, 1e200], [1.0]),  # x0 ** a overflows in the second grid row from m = 3 on; inf values at m = 1
        ([0.5], [1.0, 1e-200]),  # r * r is 0 in binary64
    ]
    failed = 0
    for i, (x0_vals, r_vals) in enumerate(grids):
        path = tmp_path / f"g{i}.csv"
        try:
            want = _csv_writer_bytes(target, m, x0_vals, r_vals)
        except (OverflowError, ValueError) as exc:
            failed += 1
            with pytest.raises(type(exc)) as got:
                write_sample_csv(path, target, m, x0_vals, r_vals)
            assert str(got.value) == str(exc) and not path.exists()
            continue
        assert write_sample_csv(path, target, m, x0_vals, r_vals) == len(x0_vals) * len(r_vals)
        assert path.read_bytes() == want, (target, m, x0_vals, r_vals)
    assert failed >= 2


def test_numeric_entries_refuse_dimensions_above_the_cap(tmp_path):
    # the pairs build past MAX_DIMENSION with a generic P_0; no float evaluation runs there
    pair = gauss_ck_pair(17)
    pt = EvalPoint(0.3, (0.1,) * 17)
    for call in (
        lambda: eval_axial(pair, pt),
        lambda: fd_cr_residual(axial_evaluator(pair), pt),
        lambda: decay_scan(gauss_fund_pair(17), 1.0, 1.0, 2.0, 3, 3),
    ):
        with pytest.raises(ValueError, match="concrete P_k"):
            call()
    for call in (
        lambda: ck_gauss_series(pt, 17),
        lambda: entire_part_probe(17, (0.1, 0.01)),
        lambda: entire_part_probe(17, (0.1, 0.01), subtract_pole=False),
        lambda: sample_rows("ck-gauss", 17, [0.0], [1.0]),
        lambda: write_sample_csv(tmp_path / "g.csv", "gauss-fund", 17, [0.0], [1.0]),
    ):
        with pytest.raises(ValueError, match=r"1\.\.16, got 17"):
            call()
    assert not (tmp_path / "g.csv").exists()


def test_read_sample_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "g.csv"
    write_sample_csv(path, "gauss-fund", 3, [0.5], [3.0])
    good = path.read_text()
    for text in (good.replace("|value|", "norm"), ""):
        path.write_text(text)
        with pytest.raises(ValueError, match="header"):
            read_sample_csv(path)
    # a row whose column count differs from the header's is named by its line
    short = good.splitlines()[1].rsplit(",", 1)[0]
    for text, line in ((good + "\n", 3), (good + short + "\n", 3), (good.replace("\n", "\n\n", 1), 2)):
        path.write_text(text)
        with pytest.raises(ValueError, match=f"line {line}:"):
            read_sample_csv(path)


def test_verify_sample_csv_reads_lf_crlf_and_mixed_line_ends(tmp_path):
    path = tmp_path / "g.csv"
    n = write_sample_csv(path, "gauss-fund", 3, [-0.7, 0.0, 1.1], lin_range(0.5, 3.0, 4))
    crlf = path.read_bytes()
    lines = crlf.split(b"\r\n")[:-1]
    assert len(lines) == n + 1
    lf = b"\n".join(lines) + b"\n"
    mixed = b"".join(line + (b"\r\n", b"\n")[i % 2] for i, line in enumerate(lines))
    assert mixed.endswith(b"\r\n") and (mixed.count(b"\n"), mixed.count(b"\r\n")) == (n + 1, n // 2 + 1)
    for text in (crlf, lf, mixed, mixed[:-2], lf[:-1]):  # the last line may also lack its end
        path.write_bytes(text)
        assert verify_sample_csv(path, "gauss-fund") == (True, n)
        assert read_sample_csv(path)[2] == sample_rows("gauss-fund", 3, [-0.7, 0.0, 1.1], lin_range(0.5, 3.0, 4))


@pytest.mark.parametrize(
    "cell, message",
    [
        ("1_0.0", "cell text not written by sample: '1_0.0'"),
        (" 0.5 ", "cell text not written by sample: ' 0.5 '"),
        ("Infinity", "cell text not written by sample: 'Infinity'"),
        ("0.5\r", "cell text not written by sample: '0.5\\r'"),
        ("\u0661", "cell text not written by sample: '\u0661'"),  # an Arabic-Indic digit one, which float reads
        ('"0.5"', "could not convert string to float: '\"0.5\"'"),
        ("abc", "could not convert string to float: 'abc'"),
    ],
)
def test_read_sample_csv_refuses_text_sample_does_not_write(tmp_path, cell, message):
    # each cell but the quoted one and abc parses as a float; only text `sample` could have written reads
    path = tmp_path / "g.csv"
    write_sample_csv(path, "gauss-fund", 3, [0.5], [1.0, 2.0, 3.0])
    header, *lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[1] = cell
    for end in ("\r\n", "\n"):
        path.write_text(end.join([header, lines[0], ",".join(cells), *lines[2:]]) + end, encoding="utf-8")
        for read in (read_sample_csv, lambda p: verify_sample_csv(p, "gauss-fund")):
            with pytest.raises(ValueError) as info:
                read(path)
            assert str(info.value) == f"sample CSV line 3: {message}"
    # parsing runs first: a cell that does not convert on a later line is named before foreign text
    if message.startswith("cell text"):
        path.write_text("\n".join([header, lines[0], ",".join(cells), lines[2].replace("0.0", "abc", 1)]) + "\n")
        with pytest.raises(ValueError, match="^sample CSV line 4: could not convert string to float: 'abc'$"):
            read_sample_csv(path)


def test_read_sample_csv_reads_float_text_that_is_not_the_shortest_repr(tmp_path):
    # the scan checks the alphabet, not the spelling: 0.00 for 0.0 and 1.0e0 for 1.0 read as their values
    path = tmp_path / "g.csv"
    n = write_sample_csv(path, "gauss-fund", 3, [0.5], [1.0, 2.0])
    text = path.read_text()
    assert ",0.0," in text and "\n0.5,1.0," in text
    path.write_text(text.replace(",0.0,", ",0.00,").replace("\n0.5,1.0,", "\n0.5,1.0e0,"))
    assert verify_sample_csv(path, "gauss-fund") == (True, n)


def test_sample_rows_rejects_nonpositive_r():
    with pytest.raises(EvalDomainError):
        sample_rows("ck-gauss", 3, [0.0], [0.0])


# --- bit-identity against the term-by-term formulas ---------------------------


def _ref_evaluate(expr, x0, r):
    """Each term's factors computed on their own, multiplied in key order, summed in dict order."""
    q_val = x0 * x0 + r * r
    total = 0.0
    for (a, b, p, g, t), q in expr.terms.items():
        val = float(q)
        if a:
            val *= x0**a
        if b:
            val *= r**b
        if p:
            val *= q_val ** (-p)
        if g:
            val *= math.exp((x0 * x0 - r * r) / 2)
        if t == "cos":
            val *= math.cos(x0 * r)
        elif t == "sin":
            val *= math.sin(x0 * r)
        total += val
    return total


def _ref_eval_axial(pair, pt):
    r = math.sqrt(math.fsum(x * x for x in pt.xs))
    coeffs = {0: _ref_evaluate(pair.A, pt.x0, r)}
    b_val = _ref_evaluate(pair.B, pt.x0, r)
    for j, x in enumerate(pt.xs):
        if x:
            coeffs[1 << j] = b_val * (x / r)
    return Multivector(pair.m, coeffs, exact=False) * pair.pk.eval(pt.x0, pt.xs)


def test_eval_axial_bit_identical_to_term_formula():
    rng = random.Random(97)
    for name in SEED_NAMES:
        for m in (3, 5, 7):
            for k in (0, 1):
                pair = fueter(seed(name, 5 if name == "z_pow" else None), k, m, default_pk(k, m))
                for i in range(25):
                    x0 = rng.uniform(-3.0, 3.0) if i % 5 else 0.0
                    r = 10 ** rng.uniform(-4.0, 0.7)
                    d = [rng.gauss(0.0, 1.0) if j == 0 or rng.random() < 0.6 else 0.0 for j in range(m)]
                    norm = math.sqrt(sum(c * c for c in d))
                    pt = EvalPoint(x0, tuple(r * c / norm for c in d))
                    got, want = eval_axial(pair, pt), _ref_eval_axial(pair, pt)
                    # values and blade order both, as `sample_row` and the CSV files see them
                    assert list(got.coeffs.items()) == list(want.coeffs.items()), (name, m, k, x0, pt.xs)
                    assert pair.A.evaluate(x0, r) == _ref_evaluate(pair.A, x0, r)


def _ref_decay_scan(pair, K, r_min, r_max, nx0, nr):
    """Row-major brute force: the first r of a row wins a tie within it, the larger x0 across rows."""
    best = (-math.inf, 0.0, 0.0)
    zeros = (0.0,) * (pair.m - 1)
    for x0 in lin_range(-K, K, nx0):
        for r in lin_range(r_min, r_max, nr):
            val = _ref_eval_axial(pair, EvalPoint(x0, (r,) + zeros)).norm() * math.exp(r * r / 2.0)
            if val > best[0] or (val == best[0] and x0 > best[1]):
                best = (val, x0, r)
    return best


@pytest.mark.parametrize(
    "pair_of, K, r_min, r_max, nx0, nr",
    [
        (gauss_fund_pair, 2.0, 3.0, 8.0, 101, 101),
        (gauss_fund_pair, 2.0, 3.0, 8.0, 201, 201),
        (lambda m: fueter(seed("inv_z"), 0, m), 2.0, 3.0, 8.0, 21, 51),
        (lambda m: fueter(seed("inv_z"), 0, m), 2.0, 3.0, 12.0, 21, 51),
    ],
    ids=["gauss_fund_101", "gauss_fund_201", "inv_z_near", "inv_z_far"],
)
def test_decay_scan_matches_brute_force(pair_of, K, r_min, r_max, nx0, nr):
    # the grids of gauss_fund.decay_sup_stable and gauss_fund.decay_control_divergent
    pair = pair_of(3)
    report = decay_scan(pair, K, r_min, r_max, nx0, nr)
    assert (report.sup_value, report.argmax_x0, report.argmax_r) == _ref_decay_scan(pair, K, r_min, r_max, nx0, nr)


def test_decay_scan_overflows_past_r_38():
    # exp(r^2/2) overflows binary64 beyond r ~ 37.7; the scan names the first such radius
    with pytest.raises(OverflowError, match=r"at r=38\.0$"):
        decay_scan(gauss_fund_pair(3), K=2.0, r_min=36.0, r_max=40.0, nx0=3, nr=3)
    # a value that overflows is named by its grid point: x0 ** a leaves binary64 at x0 = -1e200
    with pytest.raises(OverflowError, match=r"^decay scan value is out of range at \(x0=-1e\+200, r=3\.0\)$"):
        decay_scan(gauss_fund_pair(3), 1e200, 3.0, 8.0, 3, 3)


def test_ray_grid_norm_outside_the_normal_range(tmp_path):
    # past r ~ 26 at x0 = 0.5 the squares of the parts underflow, and at x0 = 27 they overflow;
    # there the norm is hypot over the parts, and the rows still round-trip bit for bit
    for x0_vals, r_vals in (([0.5], [26.0, 28.0, 30.0]), ([27.0], [1.0])):
        for row in sample_rows("gauss-fund", 3, x0_vals, r_vals):
            assert row[-1] == math.hypot(row[5], row[6]), row
            assert 0.0 < row[-1] < math.inf, row
        write_sample_csv(tmp_path / "g.csv", "gauss-fund", 3, x0_vals, r_vals)
        assert verify_sample_csv(tmp_path / "g.csv", "gauss-fund") == (True, len(r_vals))
    assert decay_scan(gauss_fund_pair(3), 2, 28, 30, 5, 5).sup_value == pytest.approx(0.529, rel=1e-3)


def test_series_bit_identical_to_per_term_powers():
    rng = random.Random(89)
    for m in (3, 5):
        for _ in range(10):
            pt = EvalPoint(rng.uniform(-1.0, 1.0), tuple(rng.uniform(-1.5, 1.5) for _ in range(m)))
            r2 = math.fsum(x * x for x in pt.xs)
            scalar = vector = 0.0
            x0_pow = 1.0
            for n in range(61):
                s = v = 0.0
                for j, c in enumerate(hermite_radial_coeffs(n, m)):
                    if c:
                        term = c * (-r2) ** (j // 2)
                        if j % 2:
                            v += term
                        else:
                            s += term
                factor = x0_pow / math.factorial(n)
                scalar += factor * s
                vector += factor * v
                x0_pow *= pt.x0
            damp = math.exp(-r2 / 2.0)
            want = {0: damp * scalar} | {1 << j: damp * vector * x for j, x in enumerate(pt.xs)}
            got = ck_gauss_series(pt, m, trunc=60)
            assert list(got.coeffs.items()) == list(Multivector(m, want, exact=False).coeffs.items())


def _ref_sample_row(pair, pt):
    """The row as `eval_axial` and the float Multivector give it."""
    val = eval_axial(pair, pt)
    return [pt.x0, *pt.xs, pt.r, float(val[0]), *(float(val[1 << j]) for j in range(pair.m)), val.norm()]


def _bits(row):
    return [float(v).hex() for v in row]


def test_sample_rows_bit_identical_to_eval_axial_rows():
    rng = random.Random(83)
    for target in numeric.SAMPLE_TARGETS:
        for m in (1, 3, 5, 7):
            pair = numeric.sample_pair(target, m)
            zeros = (0.0,) * (m - 1)
            lo = rng.uniform(-2.0, 1.0)
            x0_vals = [0.0, -0.0] + lin_range(lo, lo + rng.uniform(0.1, 2.0), 4)
            r_vals = [1e-6, 3e-4] + [10 ** rng.uniform(-3.0, 0.6) for _ in range(4)]
            rows = sample_rows(target, m, x0_vals, r_vals)
            want = [_ref_sample_row(pair, EvalPoint(x0, (r,) + zeros)) for x0 in x0_vals for r in r_vals]
            assert list(map(_bits, rows)) == list(map(_bits, want)), (target, m)


def test_verify_sample_csv_recomputes_rows_on_the_e1_ray(tmp_path):
    # each row is recomputed as `sample` writes it at its (x0, x1): a row that eval_axial gives off the
    # e1 ray compares unequal, and one at x1 < 0 is refused, naming its line
    for target in numeric.SAMPLE_TARGETS:
        for m in (1, 3, 5):
            pair = numeric.sample_pair(target, m)
            zeros = (0.0,) * (m - 1)
            path = tmp_path / f"{target}_{m}.csv"
            write_sample_csv(path, target, m, [0.5], [1.0, 2.0])
            header, *lines = path.read_text().splitlines()
            if m > 1:
                off = _ref_sample_row(pair, EvalPoint(0.5, (0.6, 0.8, *zeros[1:])))
                path.write_text("\n".join([header, lines[0], ",".join(map(repr, off)), lines[1]]) + "\n")
                assert verify_sample_csv(path, target) == (False, 3)
            negative = _ref_sample_row(pair, EvalPoint(0.5, (-1.0, *zeros)))
            path.write_text("\n".join([header, ",".join(map(repr, negative)), *lines]) + "\n")
            with pytest.raises(EvalDomainError) as info:
                verify_sample_csv(path, target)
            assert str(info.value) == (
                "sample CSV line 2: point needs r > 0 with r * r > 0 in binary64 at (x0=0.5, r=-1.0)"
            )


def _ref_formula_row(values, x0, xs, r):
    """A sample row by the general formula: the point, r, then A, B (x / r) per coordinate (0.0 for a
    zero part, -0.0 too) and the norm of the parts by `sum_squares`."""
    a_val, b_val = values
    parts = [a_val, *((b_val * (x / r) or 0.0) if x else 0.0 for x in xs)]
    return [x0, *xs, r, *parts, math.sqrt(sum_squares(parts))]


def test_sample_rows_equal_the_general_row_formula():
    # the rows are built per radius along x_ = r e1; each must equal the formula for any direction, bit for bit
    rng = random.Random(97)
    for target in numeric.SAMPLE_TARGETS:
        for m in (1, 3, 5, 15):
            values = numeric.sample_pair(target, m).plan.values
            zeros = (0.0,) * (m - 1)
            lo = rng.uniform(-2.0, 1.0)
            x0_vals = [0.0, -0.0] + lin_range(lo, lo + rng.uniform(0.1, 2.0), 3)
            r_vals = [1e-6, 3e-4] + [10 ** rng.uniform(-3.0, 1.0) for _ in range(4)]
            want = []
            for x0 in x0_vals:
                for r in r_vals:
                    radius = math.sqrt(r * r)
                    want.append(_ref_formula_row(values(x0, radius), x0, (r, *zeros), radius))
            assert list(map(_bits, sample_rows(target, m, x0_vals, r_vals))) == list(map(_bits, want)), (target, m)
    # B = -inf at x0 = 38: e1 reads -inf and e2, e3 read 0.0, the norm inf
    values = numeric.sample_pair("ck-gauss", 3).plan.values
    want = _ref_formula_row(values(38.0, 5.0), 38.0, (5.0, 0.0, 0.0), 5.0)
    assert _bits(sample_rows("ck-gauss", 3, [38.0], [5.0])[0]) == _bits(want)
    assert want[5:7] == [math.inf, -math.inf]


def _ref_radial_split(coeffs, r2):
    """(s, v) with sum_j c_j x_^j = s + v x_, the big-int c_j times the powers (-r^2)^i."""
    pows = [(-r2) ** i for i in range((len(coeffs) - 1) // 2 + 1)]
    s = v = 0.0
    for j, c in enumerate(coeffs):
        if c:
            term = c * pows[j // 2]
            if j % 2:
                v += term
            else:
                s += term
    return s, v


def _ref_ck_gauss_series(pt, m, trunc):
    """The series as the radial split of big-int coefficients, with n! as an int, computes it."""
    r2 = math.fsum(x * x for x in pt.xs)
    scalar = vector = 0.0
    x0_pow = 1.0
    for n in range(trunc + 1):
        s, v = _ref_radial_split(hermite_radial_coeffs(n, m), r2)
        factor = x0_pow / math.factorial(n)
        scalar += factor * s
        vector += factor * v
        x0_pow *= pt.x0
    damp = math.exp(-r2 / 2.0)
    return {0: damp * scalar} | {1 << j: damp * vector * x for j, x in enumerate(pt.xs)}


def _outcome(fn, *args):
    try:
        return fn(*args)
    except OverflowError:
        return OverflowError


def test_series_bit_identical_to_radial_split():
    rng = random.Random(91)
    for trunc in range(171):
        m = (1, 3, 5, 7)[trunc % 4]
        points = [
            EvalPoint(rng.uniform(-2.0, 2.0), (0.0,) * m),  # the x_ = 0 axis
            EvalPoint(rng.uniform(-1.0, 1.0), tuple(rng.uniform(-1.5, 1.5) if j % 2 else -0.0 for j in range(m))),
            # r where (-r^2)^i may overflow
            EvalPoint(rng.uniform(-1.0, 1.0), (10 ** rng.uniform(1.0, 3.0),) + (0.0,) * (m - 1)),
        ]
        for pt in points:
            want = _outcome(_ref_ck_gauss_series, pt, m, trunc)
            got = _outcome(ck_gauss_series, pt, m, trunc)
            if want is OverflowError:
                assert got is OverflowError, (trunc, pt)
            else:
                assert list(got.coeffs.items()) == list(Multivector(m, want, exact=False).coeffs.items()), (trunc, pt)


def test_series_order_limits():
    pt = EvalPoint(0.5, (1.0, 0.0, 0.0))
    ck_gauss_series(pt, 3, trunc=170)
    with pytest.raises(ValueError, match="170"):
        ck_gauss_series(pt, 3, trunc=171)
    with pytest.raises(ValueError, match="0..170"):
        ck_gauss_series(pt, 3, trunc=-1)


def test_no_numpy_import(tmp_path):
    """Importing fueterlab and running its numeric layer, the pole probe included, loads neither
    numpy nor mpmath: a cold start stays cheap.

    `verify --json` records both versions from the package metadata, also without the import;
    no other command loads `importlib.metadata`.
    """
    code = (
        "import sys, fueterlab\n"
        "from fueterlab import cli, numeric, verify\n"
        "before = set(sys.modules)\n"
        "cli.main(['hermite', '--m', '3', '--n', '2'])\n"
        "assert 'importlib.metadata' in before or 'importlib.metadata' not in sys.modules\n"
        "pair = fueterlab.gauss_fund_pair(3)\n"
        "numeric.decay_scan(pair, 2.0, 3.0, 8.0, 5, 5)\n"
        "numeric.sample_rows('ck-gauss', 3, [0.5], [1.0])\n"
        "numeric.ck_gauss_series(numeric.EvalPoint(0.5, (1.0, 0.0, 0.0)), 3)\n"
        "numeric.entire_part_probe(3, (1e-1, 1e-2))\n"
        "numeric.entire_part_probe(5, (0.1, 1e-4), subtract_pole=False)\n"
        f"cli.main(['verify', '--suite', 'core', '--json', {str(tmp_path / 'report.json')!r}])\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] in ('numpy', 'mpmath')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_package_root_has_every_name_the_benchmark_reads():
    """The benchmark's workloads read these through `import fueterlab as fl`, and the subprocess of
    `test_no_numpy_import` reads `fueterlab.gauss_fund_pair`: a trim of the re-exports fails here."""
    import fueterlab

    source = (Path(__file__).parents[1] / "perfbench" / "workloads.py").read_text()
    assert "import fueterlab as fl\n" in source
    names = set(re.findall(r"\bfl\.(\w+)", source)) | {"gauss_fund_pair"}
    assert sorted(name for name in names if not callable(getattr(fueterlab, name, None))) == []


def test_fueterlab_has_every_name_the_benchmark_tracer_binds():
    """perfbench/tracing.py wraps these by name when it installs; a rename fails here, not only in the
    benchmark's own tests.  Importing the file has no side effect, and `install` is not called."""
    spec = importlib.util.spec_from_file_location("_tracing", Path(__file__).parents[1] / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    def module(name):
        return importlib.import_module(f"fueterlab.{name}")

    for mod, attr in tracing.FUNCTIONS:
        assert callable(getattr(module(mod), attr, None)), (mod, attr)
    for mod, cls, meth, _ in tracing.METHODS:
        assert callable(getattr(getattr(module(mod), cls, None), meth, None)), (mod, cls, meth)
    for mod, cls in tracing.ALLOCS:
        assert isinstance(getattr(module(mod), cls, None), type), (mod, cls)
    for _, mod, fn in tracing.LRU_CACHES:
        assert callable(getattr(getattr(module(mod), fn, None), "cache_info", None)), (mod, fn)
    # the names `install` reads directly
    assert callable(module("clifford").gp) and callable(module("cliffpoly").vector_power)
    assert isinstance(module("cliffpoly")._XPOW_CACHE, dict)
    assert {"nx0", "nr"} <= set(inspect.signature(module("numeric").decay_scan).parameters)


def test_fd_convergence_factor_is_the_ratio_of_two_left_residuals():
    f = axial_evaluator(gauss_fund_pair(3))
    rng = random.Random(79)
    for _ in range(5):
        pt = EvalPoint(rng.uniform(-1, 1), (rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)))
        ratio = fd_cr_residual(f, pt, FDConfig(2e-3)) / fd_cr_residual(f, pt, FDConfig(1e-3))
        assert fd_convergence_factor(f, pt).hex() == ratio.hex()


def test_sample_csv_with_no_rows_is_refused(tmp_path):
    path = tmp_path / "g.csv"
    # the writer refuses an empty grid before it opens the file
    for x0_vals, r_vals in (([], [3.0]), ([0.5], []), ([], [])):
        with pytest.raises(ValueError, match="at least one x0 and one r"):
            write_sample_csv(path, "gauss-fund", 3, x0_vals, r_vals)
        assert not path.exists()
    path.write_text(",".join(numeric.sample_header(3)) + "\n")  # the header alone
    for read in (read_sample_csv, lambda p: verify_sample_csv(p, "gauss-fund")):
        with pytest.raises(ValueError, match="no rows"):
            read(path)


def _ref_hermite_radial_rows(n_max, m):
    """Rows n = 0..n_max of the radial Hermite recurrence: x_ shifts c_j up to j + 1, and the
    Dirac operator maps x_^(2s) -> -2s x_^(2s-1), x_^(2s+1) -> -(m+2s) x_^(2s)."""
    rows = [(1,)]
    for n in range(1, n_max + 1):
        prev = rows[-1]

        def at(j):
            return prev[j] if 0 <= j <= n - 1 else 0

        out = []
        for j in range(n + 1):
            val = at(j - 1)
            if (j + 1) % 2 == 0:
                val += (j + 1) * at(j + 1)
            else:
                val += (m + j) * at(j + 1)
            out.append(val)
        rows.append(tuple(out))
    return rows


def test_hermite_radial_coeffs_equal_the_recurrence():
    for m in range(1, 17):
        for n, want in enumerate(_ref_hermite_radial_rows(170, m)):
            got = hermite_radial_coeffs(n, m)
            assert got == want, (n, m)
            assert all(type(c) is int for c in got)
            assert not any(got[j] for j in range(n - 1, -1, -2)), (n, m)  # 0 at the other parity


def _ref_ck_gauss_restriction(x0, m):
    """The axis value with the running float product of m - (2n - 1)."""
    total = 1.0
    prod = 1.0
    for n in range(1, (m - 1) // 2 + 1):
        prod *= m - (2 * n - 1)
        total += prod * x0 ** (2 * n) / math.factorial(2 * n)
    return math.exp(x0 * x0 / 2.0) * total


def _ref_restriction_taylor_coeff(n, m):
    total = Fraction(0)
    for j in range(0, n + 1):
        if j == 0:
            poly_coeff = Fraction(1)
        elif j <= (m - 1) // 2:
            prod = 1
            for nu in range(1, j + 1):
                prod *= m - (2 * nu - 1)
            poly_coeff = Fraction(prod, math.factorial(2 * j))
        else:
            continue
        i = n - j
        total += poly_coeff * Fraction(1, 2 ** i * math.factorial(i))
    return total


def test_restriction_bit_identical_to_running_float_product():
    rng = random.Random(97)
    x0_vals = [0.0, -0.0, 1.0, -1.0, 2.5, -2.5] + [rng.uniform(-30.0, 30.0) for _ in range(40)]
    x0_vals += [rng.uniform(-1e-3, 1e-3) for _ in range(10)]
    for m in range(1, 16, 2):
        for x0 in x0_vals:
            assert ck_gauss_restriction(x0, m).hex() == _ref_ck_gauss_restriction(x0, m).hex(), (x0, m)
    for m in range(-3, 17):
        for n in range(0, 25):
            got = restriction_taylor_coeff(n, m)
            assert type(got) is Fraction and got == _ref_restriction_taylor_coeff(n, m), (n, m)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ck_gauss_series(numeric.EvalPoint(0.5, (1.0, 0.0)), 3), "point dimension 2 vs m=3"),
        (lambda: numeric.sample_pair("nope", 3), "unknown sample target 'nope'; choose from ('ck-gauss', 'gauss-fund')"),
    ],
    ids=["series_point_dimension", "sample_target"],
)
def test_refusals_name_their_cause(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
