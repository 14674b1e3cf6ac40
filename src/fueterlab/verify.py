"""Identity and property checks behind `fueterlab verify`, as one table.

`CHECKS` maps each suite to its checks in run order.  An exact check is a
generator of `(instance, ok)` pairs that `tally` folds into one
CheckResult with the instance count and the first failing instance; a
measured check returns its CheckResults directly, with the measured error
for numeric checks.  Each suite draws from one random.Random seeded
explicitly, so runs are reproducible.

A check runs on the dimensions in `ctx.ms`.  One registered with `ms=`
is tied to those dimensions, and `--m` filters them; any other check gets
the suite's dimensions, which `--m` replaces.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import product

from . import clifford, sampling
from .axial import E, AxialExpr, d_lower, d_upper
from .clifford import Multivector, _check_dimension, blade_product, blade_product_naive, indices_from_mask, sum_squares
from .cliffpoly import (
    CliffPoly,
    ck_extend_poly,
    coeff_c,
    cr_apply,
    cr_conj_apply,
    dirac,
    hermite_closed,
    hermite_rec,
    hermite_step,
    laplacian,
    poly_mul,
    radius_sq_poly,
    vector_power,
)
from .fueter import (
    GAUSS_M3,
    RADIAL_IDENTITIES,
    closed_form,
    coeff_a,
    entire_remainder_pair,
    fueter,
    gauss_ck_pair,
    gauss_fund_pair,
    seed as make_seed,
    transform_closed_form,
    triangle_check,
    vekua_ok,
)
from .numeric import (
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
    restriction_taylor_coeff,
)

DEFAULT_SEED = 20090429
# dimensions each suite runs when none is given; None: the suite takes none
SUITE_MS = {
    "core": None,
    "operators": None,
    "examples": (3, 5, 7),
    "hermite": (1, 2, 3, 4, 5, 7),
    "gauss": (3, 5, 7),
    "gauss_fund": (3, 5, 7),
}
SUITE_NAMES = (*SUITE_MS, "all")
CORE_CASES = 200
OPERATOR_CASES = 50
Z_MAX = 10
RADIAL_N_MAX = 8
HERMITE_N_MAX = 12


@dataclass(frozen=True)
class CheckResult:
    """One verdict; seconds is the wall time of the check that produced it, set by `iter_suite`.

    `tally` sets instances and first_failure (as `detail` prints it); a measured check leaves them None.
    """

    id: str
    passed: bool
    max_error: float = 0.0
    detail: str = ""
    instances: int | None = None
    first_failure: str | None = None
    seconds: float = field(default=0.0, compare=False)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        err = f"{self.max_error:.3e}" if self.max_error else "0"
        tail = f" {self.detail}" if self.detail else ""
        return f"{self.id} {status} {err}{tail}"


@dataclass(frozen=True)
class Context:
    """What a check may use: the suite's random stream and the check's dimensions."""

    rng: random.Random
    ms: tuple | None


# suite -> its checks in run order, as (function from Context to CheckResults, tied dimensions or None)
CHECKS: dict = {suite: [] for suite in SUITE_MS}


def tally(check_id: str, pairs) -> CheckResult:
    """One verdict from a stream of (instance, ok) pairs."""
    total = 0
    failures = []
    for instance, ok in pairs:
        total += 1
        if not ok:
            failures.append(instance)
    detail = f"{total - len(failures)}/{total}"
    first = str(failures[0]) if failures else None
    if failures:
        detail += f" first_failure={first}"
    return CheckResult(check_id, not failures, 0.0, detail, total, first)


def exact(suite: str, check_id: str, ms: tuple | None = None):
    """Register a generator of (instance, ok) pairs as one tallied check, tied to ms if given."""

    def register(pairs):
        CHECKS[suite].append((lambda ctx: [tally(check_id, pairs(ctx))], ms))
        return pairs

    return register


def measured(suite: str, ms: tuple | None = None):
    """Register a function that returns its CheckResults itself; tied to ms if given."""

    def register(fn):
        CHECKS[suite].append((fn, ms))
        return fn

    return register


def _worst(errors, pick=max) -> float:
    """pick(errors), max by default, or NaN if any error is NaN: the builtin max and min
    drop a NaN unless it comes first, and a NaN error must fail its check."""
    errors = list(errors)
    return math.nan if any(e != e for e in errors) else pick(errors)


def _numeric(check_id: str, err: float, tol: float, extra: str = "") -> CheckResult:
    detail = f"tol={tol:.1e}"
    if extra:
        detail += " " + extra
    return CheckResult(check_id, err <= tol, err, detail)


def _random_point(rng: random.Random, m: int, r_lo: float) -> EvalPoint:
    """x0 in [-1, 1], r in [r_lo, 2], x_ along a Gaussian-random direction."""
    x0 = rng.uniform(-1, 1)
    r = rng.uniform(r_lo, 2.0)
    direction = [rng.gauss(0, 1) for _ in range(m)]
    norm = math.sqrt(sum_squares(direction)) or 1.0
    return EvalPoint(x0, tuple(r * d / norm for d in direction))


# --- core -----------------------------------------------------------------


@exact("core", "core.blade_sign_oracle")
def _blade_sign_oracle(ctx):
    for m in range(1, 5):
        for ma, mb in product(range(1 << m), repeat=2):
            sign, mask = blade_product(ma, mb)
            naive = blade_product_naive(indices_from_mask(ma), indices_from_mask(mb))
            yield (m, ma, mb), (sign, indices_from_mask(mask)) == naive


@exact("core", "core.associativity")
def _associativity(ctx):
    for i in range(CORE_CASES):
        m = ctx.rng.randint(1, 6)
        a, b, c = (sampling.random_multivector(ctx.rng, m) for _ in range(3))
        yield i, (a * b) * c == a * (b * c)


@exact("core", "core.vector_products")
def _vector_products(ctx):
    for i in range(CORE_CASES):
        m = ctx.rng.randint(1, 6)
        u = sampling.random_vector(ctx.rng, m)
        v = sampling.random_vector(ctx.rng, m)
        dot = sum(u[1 << j] * v[1 << j] for j in range(m))
        yield i, u * v + v * u == Multivector.scalar(m, -2 * dot) and v * v == Multivector.scalar(m, -v.norm_sq())


@exact("core", "core.conjugation_antihom")
def _conjugation_antihom(ctx):
    for i in range(CORE_CASES):
        m = ctx.rng.randint(1, 6)
        a = sampling.random_multivector(ctx.rng, m)
        b = sampling.random_multivector(ctx.rng, m)
        yield i, (a * b).conjugate() == b.conjugate() * a.conjugate()


@exact("core", "core.norm_and_grades")
def _norm_and_grades(ctx):
    for i in range(CORE_CASES):
        m = ctx.rng.randint(1, 6)
        a = sampling.random_multivector(ctx.rng, m)
        direct = sum((v * v for v in a.coeffs.values()), Fraction(0))
        graded = sum((a.grade(k) for k in range(m + 1)), Multivector.zero(m))
        yield i, (
            a.norm_sq() == direct
            and (a * a.conjugate()).grade(0) == Multivector.scalar(m, direct)
            and graded == a
        )


@exact("core", "core.fact1")
def _fact1(ctx):
    for i in range(CORE_CASES):
        m = ctx.rng.randint(1, 5)
        p = sampling.random_poly(ctx.rng, m, max_degree=3, with_x0=False)
        yield i, dirac(dirac(p)) == -laplacian(p, include_x0=False)


@exact("core", "core.fact2")
def _fact2(ctx):
    for i in range(CORE_CASES):
        m = ctx.rng.randint(1, 5)
        p = sampling.random_poly(ctx.rng, m, max_degree=3, with_x0=True)
        lap = laplacian(p, include_x0=True)
        yield i, cr_apply(cr_conj_apply(p)) == lap and cr_conj_apply(cr_apply(p)) == lap


# --- operators -------------------------------------------------------------


@exact("operators", "op.order0_and_commute")
def _order0_and_commute(ctx):
    for i in range(OPERATOR_CASES):
        f = sampling.random_axial(ctx.rng)
        yield i, d_lower(0, f) == f and d_upper(0, f) == f and f.diff("x0").diff("r") == f.diff("r").diff("x0")


@exact("operators", "op.i")
def _op_i(ctx):
    for i in range(OPERATOR_CASES):
        n = ctx.rng.randint(0, 5)
        f = sampling.random_axial(ctx.rng)
        yield (i, n), d_upper(n, f.diff("r")) == d_lower(n, f).diff("r")


@exact("operators", "op.ii")
def _op_ii(ctx):
    for i in range(OPERATOR_CASES):
        n = ctx.rng.randint(0, 5)
        f = sampling.random_axial(ctx.rng)
        lhs = d_lower(n, f.diff("r")) - d_upper(n, f).diff("r")
        yield (i, n), lhs == d_upper(n, f).scale(2 * n).div_r()


def _leibniz(d):
    """d^n(f g) = sum_nu C(n, nu) d_lower^(n-nu) f * d^nu g for trig- and exp-free f."""

    def pairs(ctx):
        for i in range(OPERATOR_CASES):
            n = ctx.rng.randint(0, 5)
            f = sampling.random_axial(ctx.rng, trig=False, exp_flag=False)
            g = sampling.random_axial(ctx.rng)
            terms = (d_lower(n - nu, f).scale(math.comb(n, nu)) * d(nu, g) for nu in range(n + 1))
            yield (i, n), d(n, f * g) == sum(terms, AxialExpr.zero())

    return pairs


exact("operators", "op.iii")(_leibniz(d_lower))
exact("operators", "op.iv")(_leibniz(d_upper))


# --- examples ----------------------------------------------------------------


def _radial_identity(ident: str):
    """d^n(f) against closed_form(ident, n) for each order n from the identity's first."""
    identity = RADIAL_IDENTITIES[ident]
    orders = range(identity.first, RADIAL_N_MAX + 1)
    return lambda ctx: ((n, identity.d(n, identity.f) == closed_form(ident, n)) for n in orders)


for _ident in RADIAL_IDENTITIES:
    exact("examples", _ident)(_radial_identity(_ident))


@exact("examples", "coeff_a.boundary")
def _coeff_a_boundary(ctx):
    for n in range(1, 11):
        yield ("diag", n), coeff_a(n, n) == 1
        # the first column is e1's constant
        yield ("first", n), closed_form("e1", n) == AxialExpr.term(coeff_a(n, 1), b=1 - 2 * n)


def _transform_closed(seed_name: str):
    """The transform of a seed against transform_closed_form at each (m, k), k <= 2, where that is defined."""

    def pairs(ctx):
        for m, k in product(ctx.ms, (0, 1, 2)):
            expect = transform_closed_form(seed_name, m, k)
            if expect is not None:
                pair = fueter(make_seed(seed_name), k, m)
                yield (m, k), (pair.A, pair.B) == expect

    return pairs


exact("examples", "example1.closed")(_transform_closed("iz"))
exact("examples", "example2.closed")(_transform_closed("inv_z"))


@measured("examples", ms=(3, 5))
def _triangle(ctx):
    constants = []

    def pairs():
        for m, k in product(ctx.ms, (0, 1)):
            for n in range(Z_MAX + 1):
                res = triangle_check(n, k, m)
                if res.ok and res.constant is not None:
                    constants.append(f"c(n={n},k={k},m={m})={res.constant}")
                yield (n, k, m), res.ok

    res = tally("example3.triangle", pairs())
    return [replace(res, detail=res.detail + " " + "; ".join(constants[-4:]))]


@exact("examples", "vekua.grid")
def _vekua_grid(ctx):
    seeds = [make_seed("iz"), make_seed("inv_z"), make_seed("gauss"), make_seed("gauss_fund")]
    seeds += [make_seed("z_pow", n) for n in range(Z_MAX + 1)]
    for s, m, k in product(seeds, ctx.ms, (0, 1, 2)):
        yield (s.name, s.n, m, k), vekua_ok(fueter(s, k, m))


@exact("examples", "transform.linearity", ms=(3,))
def _linearity(ctx):
    s1 = make_seed("iz").scaled(Fraction(3, 2))
    s2 = make_seed("inv_z").scaled(Fraction(-2))
    for m in ctx.ms:
        combo = fueter(s1 + s2, 0, m)
        split1 = fueter(make_seed("iz"), 0, m)
        split2 = fueter(make_seed("inv_z"), 0, m)
        lhs_a = split1.A.scale(Fraction(3, 2)) + split2.A.scale(-2)
        lhs_b = split1.B.scale(Fraction(3, 2)) + split2.B.scale(-2)
        yield m, combo.A == lhs_a and combo.B == lhs_b


# --- hermite ------------------------------------------------------------------


@exact("hermite", "hermite.rec_eq_closed")
def _hermite_rec_eq_closed(ctx):
    for m in ctx.ms:
        h = CliffPoly.one(m)
        for n in range(HERMITE_N_MAX + 1):
            # H_n is scalar for even n and a vector for odd n
            yield (n, m), h == hermite_closed(n, m).poly and h.grades() in (set(), {n % 2})
            h = hermite_step(h)


@exact("hermite", "hermite.h2_h3")
def _hermite_h2_h3(ctx):
    for m in ctx.ms:
        r2 = radius_sq_poly(m)
        x_ = CliffPoly.vector_variable(m)
        yield (2, m), hermite_rec(2, m).poly == -r2 + CliffPoly.constant(m, m)
        yield (3, m), hermite_rec(3, m).poly == -poly_mul(r2, x_) + x_.scale(m + 2)


# m -> (n, nu, tabulated coeff_c(n, nu, m)) triples
COEFF_C_VALUES = {3: ((1, 1, 3), (2, 1, 5), (2, 2, 15)), 5: ((7, 0, 1),)}


@exact("hermite", "hermite.coeff_c", ms=tuple(COEFF_C_VALUES))
def _hermite_coeff_c(ctx):
    for m in ctx.ms:
        for n, nu, want in COEFF_C_VALUES[m]:
            yield (n, nu, m), coeff_c(n, nu, m) == want


@exact("hermite", "hermite.vector_power_parity", ms=(1, 2, 3, 5))
def _vector_power_parity(ctx):
    # vector_power is the closed form (-|x_|^2)^s by construction, so the Clifford product
    # x_ x_ ... x_ is what decides x_^2 = -|x_|^2 here
    for m in ctx.ms:
        x_, r2 = CliffPoly.vector_variable(m), radius_sq_poly(m)
        product = r2_pow = CliffPoly.one(m)
        for s_exp in range(0, 7):
            yield (m, s_exp), product == vector_power(m, 2 * s_exp) == r2_pow.scale((-1) ** s_exp)
            product = poly_mul(x_, poly_mul(x_, product))
            r2_pow = poly_mul(r2_pow, r2)


@exact("hermite", "hermite.radial_coeffs_match", ms=(1, 3, 5))
def _radial_coeffs_match(ctx):
    for m in ctx.ms:
        for n in range(0, 13):
            radial = hermite_radial_coeffs(n, m)
            rebuilt = sum((vector_power(m, j).scale(c) for j, c in enumerate(radial) if c), CliffPoly.zero(m))
            yield (n, m), rebuilt == hermite_rec(n, m).poly


@exact("hermite", "ck.monogenic_and_restrict", ms=(1, 2, 3, 4, 5))
def _ck_monogenic(ctx):
    for i in range(100):
        m = ctx.rng.choice(ctx.ms)
        f = sampling.random_poly(ctx.rng, m, max_degree=6, n_terms=3, with_x0=False)
        ck = ck_extend_poly(f)
        yield i, not cr_apply(ck) and ck.restrict_x0() == f


@exact("hermite", "ck.examples", ms=(3,))
def _ck_examples(ctx):
    for m in ctx.ms:
        x1 = CliffPoly.variable(m, 1)
        e1 = Multivector.basis(m, 1)
        x_ = CliffPoly.vector_variable(m)
        x0 = CliffPoly.variable(m, 0)
        yield ("const", m), ck_extend_poly(CliffPoly.one(m)) == CliffPoly.one(m)
        yield ("x1", m), ck_extend_poly(x1) == x1 - poly_mul(CliffPoly.constant(m, e1), x0)
        yield ("vector", m), ck_extend_poly(x_) == x_ + x0.scale(m)


# --- gauss ----------------------------------------------------------------------


@exact("gauss", "gauss.restriction_symbolic")
def _gauss_restriction_symbolic(ctx):
    for m in ctx.ms:
        pair = gauss_ck_pair(m)
        yield m, pair.A.restrict_x0() == E and pair.B.restrict_x0().is_zero()


@exact("gauss", "gauss.m3_closed_form", ms=(3,))
def _gauss_m3_closed_form(ctx):
    for m in ctx.ms:
        pair = gauss_ck_pair(m)
        yield m, (pair.A, pair.B) == GAUSS_M3


@exact("gauss", "gauss.product_rule")
def _gauss_product_rule(ctx):
    # at m = 1 and k = n the transform is (2n)!! times d_lower^n(E cos) and d_upper^n(E sin)
    for n in range(0, 6):
        pair = fueter(make_seed("gauss"), n, 1)
        a_expect, b_expect = transform_closed_form("gauss", 1, n)
        yield ("cos", n), pair.A == a_expect
        yield ("sin", n), pair.B == b_expect


exact("gauss", "gauss.full_display")(_transform_closed("gauss"))


@measured("gauss", ms=(3, 5))
def _gauss_series(ctx):
    rel_errors = []
    tail_ok = True
    for m in ctx.ms:
        pair = gauss_ck_pair(m)
        for _ in range(50):
            pt = _random_point(ctx.rng, m, 0.3)
            series = ck_gauss_series(pt, m, trunc=60)
            closed = eval_axial(pair, pt)
            rel_errors.append((series - closed).norm() / closed.norm())
            # one order further adds the first omitted term, up to rounding far below 1e-14
            tail_ok &= (ck_gauss_series(pt, m, trunc=61) - series).norm() <= 1e-14 * series.norm()
    return [
        _numeric("gauss.series_vs_closed", _worst(rel_errors), 1e-10, f"50 points per m, m in {set(ctx.ms)}"),
        CheckResult("gauss.series_tail_bound", tail_ok, 0.0, "next term < 1e-14 * partial sum"),
    ]


@measured("gauss")
def _gauss_restriction_numeric(ctx):
    rel_errors = []
    for m in ctx.ms:
        for x0 in [i / 10.0 for i in range(-10, 11)]:
            series = ck_gauss_series(EvalPoint(x0, (0.0,) * m), m, trunc=40)[0]
            closed = ck_gauss_restriction(x0, m)
            rel_errors.append(abs(series - closed) / abs(closed))
    return [_numeric("gauss.restriction_numeric", _worst(rel_errors), 1e-12, "x_=0 axis, N=40")]


@measured("gauss", ms=(3,))
def _gauss_restriction_m3(ctx):
    rel_errors = []
    for m, x0 in product(ctx.ms, [i / 10.0 for i in range(-10, 11)]):
        got = ck_gauss_restriction(x0, m)
        want = math.exp(x0 * x0 / 2.0) * (1.0 + x0 * x0)
        rel_errors.append(abs(got - want) / abs(want))
    return [_numeric("gauss.restriction_m3_formula", _worst(rel_errors), 1e-12)]


@exact("gauss", "gauss.taylor_coeffs_exact")
def _gauss_taylor_coeffs(ctx):
    for m in ctx.ms:
        for n in range(0, 41):
            yield (m, n), restriction_taylor_coeff(n, m) == coeff_c(n, n, m) / math.factorial(2 * n)


# --- gauss_fund -------------------------------------------------------------------

PROBE_RADII = (1e-1, 1e-2, 1e-3, 1e-4)
# the probe evaluates in binary64 at every odd m up to the dimension cap
PROBE_MS = tuple(range(3, clifford.MAX_DIMENSION + 1, 2))


@exact("gauss_fund", "gauss_fund.remainder_vekua")
def _remainder_vekua(ctx):
    return ((m, vekua_ok(entire_remainder_pair(m))) for m in ctx.ms)


@measured("gauss_fund", ms=PROBE_MS)
def _pole_cancellation(ctx):
    reports = [entire_part_probe(m, PROBE_RADII) for m in ctx.ms]
    worst = _worst(v for report in reports for v in report.values)
    passed = all(report.bounded for report in reports)
    return [CheckResult("gauss_fund.pole_cancellation", passed, worst, f"radii down to {PROBE_RADII[-1]:g}")]


@exact("gauss_fund", "gauss_fund.pole_detected_control", ms=PROBE_MS)
def _pole_detected_control(ctx):
    for m in ctx.ms:
        yield m, not entire_part_probe(m, PROBE_RADII, subtract_pole=False).bounded


# m -> (check id, bound) of the FD residual; the same step at m=5 meets a
# looser bound: the truncation constant carries third derivatives of
# r^-6-scale terms near r = 0.5
FD_RESIDUALS = {3: ("gauss_fund.fd_two_sided", 1e-6), 5: ("gauss_fund.fd_two_sided_m5", 1e-3)}


@measured("gauss_fund", ms=tuple(FD_RESIDUALS))
def _fd_residuals(ctx):
    factors = []
    residuals = {m: [] for m in ctx.ms}
    for m in ctx.ms:
        f = axial_evaluator(gauss_fund_pair(m))
        for i in range(20):
            pt = _random_point(ctx.rng, m, 0.5)
            for side in ("left", "right"):
                residuals[m].append(fd_cr_residual(f, pt, FDConfig(), side))
            if i < 5:
                factors.append(fd_convergence_factor(f, pt))
    factor_lo, factor_hi = _worst(factors, min), _worst(factors)
    results = []
    for m, errors in residuals.items():
        check_id, tol = FD_RESIDUALS[m]
        results.append(_numeric(check_id, _worst(errors), tol, f"m={m}, 20 points, left and right"))
    return results + [
        CheckResult(
            "gauss_fund.fd_convergence_order",
            3.5 <= factor_lo and factor_hi <= 4.5,
            0.0,
            f"halving factors in [{factor_lo:.2f}, {factor_hi:.2f}]",
        ),
    ]


@measured("gauss_fund", ms=(3,))
def _decay_sup_stable(ctx):
    (m,) = ctx.ms
    pair = gauss_fund_pair(m)
    report = decay_scan(pair, K=2.0, r_min=3.0, r_max=8.0, nx0=101, nr=101)
    fine = decay_scan(pair, K=2.0, r_min=3.0, r_max=8.0, nx0=201, nr=201)
    stable = math.isfinite(report.sup_value) and abs(fine.sup_value - report.sup_value) <= 0.05 * report.sup_value
    where = f"sup at (x0={report.argmax_x0:g}, r={report.argmax_r:g}), refined {fine.sup_value:.6g}"
    return [CheckResult("gauss_fund.decay_sup_stable", stable, report.sup_value, where)]


@measured("gauss_fund", ms=(3,))
def _decay_control_divergent(ctx):
    (m,) = ctx.ms
    control_pair = fueter(make_seed("inv_z"), 0, m)
    near = decay_scan(control_pair, K=2.0, r_min=3.0, r_max=8.0, nx0=21, nr=51)
    far = decay_scan(control_pair, K=2.0, r_min=3.0, r_max=12.0, nx0=21, nr=51)
    passed = far.sup_value > 10.0 * near.sup_value
    detail = "inverse-power pair fails the Gaussian bound"
    return [CheckResult("gauss_fund.decay_control_divergent", passed, far.sup_value, detail)]


# --- driver --------------------------------------------------------------------


def iter_suite(name: str, rng_seed: int = DEFAULT_SEED, ms=None):
    """Yield the CheckResults of each check of a suite, one list per check, in table order.

    `all` runs every suite, each on its own stream seeded with rng_seed,
    and hands ms to the suites that take a dimension, by the rule in the
    module docstring.  Each result carries the wall time of its check in
    `seconds`.
    """
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    if ms and name != "all" and SUITE_MS[name] is None:
        raise ValueError(f"suite {name!r} takes no dimension")
    for m in ms or ():
        _check_dimension(m)
    for suite in CHECKS if name == "all" else (name,):
        suite_ms = tuple(ms) if ms and SUITE_MS[suite] else SUITE_MS[suite]
        rng = random.Random(rng_seed)
        for check, tied in CHECKS[suite]:
            check_ms = suite_ms if tied is None else tuple(m for m in tied if not ms or m in ms)
            if check_ms == ():
                continue
            start = time.perf_counter()
            results = check(Context(rng, check_ms))
            seconds = time.perf_counter() - start
            yield [replace(res, seconds=seconds) for res in results]


def run_suite(name: str, rng_seed: int = DEFAULT_SEED, ms=None) -> list:
    return [res for results in iter_suite(name, rng_seed, ms) for res in results]


def report_lines(name: str, results) -> list:
    """What `fueterlab verify` prints: one line per check, then the suite verdict."""
    passed = sum(r.passed for r in results)
    verdict = "PASS" if passed == len(results) else "FAIL"
    return [r.line() for r in results] + [f"suite {name}: {verdict} ({passed}/{len(results)} checks)"]
