"""Floating-point evaluation, finite-difference oracles, and scans, all in binary64.

The pole-cancellation probe evaluates the exactly subtracted remainder on
the x_ = 0 axis, where its closed form cancels like r^-m near r = 0.  The
exact split of `fueter.axis_split` rewrites it through the regularized
incomplete gamma function P(K, r^2/2), which leaves nothing to cancel, so
the probe needs no extended precision: it sets up no `decimal` context, and
the numeric layer never loads mpmath.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import chain, cycle, groupby
from operator import mul

from .axial import EvalDomainError
from .clifford import MAX_DIMENSION, DimensionMismatchError, MixedVariantError, Multivector, _check_dimension
from .clifford import _float_of, blade_product, sum_squares
from .cliffpoly import hermite_radial_coeffs
from .fueter import (
    AxialPair,
    _require_odd,
    axis_split,
    entire_remainder_pair,
    gauss_ck_pair,
    gauss_fund_pair,
    normalized_gauss_fund_pair,
)


@dataclass(frozen=True)
class EvalPoint:
    """Point of R^{m+1} split as (x0, x_); r and the unit vector derive from x_.

    r = |x_| is computed once, when the point is made; it takes no part in
    equality or repr, which see (x0, xs) only.
    """

    x0: float
    xs: tuple
    r: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "r", math.sqrt(math.fsum(map(mul, self.xs, self.xs))))

    @property
    def m(self) -> int:
        return len(self.xs)


@dataclass(frozen=True)
class FDConfig:
    """Central second-order differences with step h * max(1, |point|); h must be finite and > 0."""

    h: float = 1e-5

    def __post_init__(self):
        if not (math.isfinite(self.h) and self.h > 0):
            raise ValueError(f"finite-difference step h must be finite and > 0, got {self.h!r}")

    def step(self, pt: EvalPoint) -> float:
        return self.h * max(1.0, math.sqrt(pt.x0 * pt.x0 + sum_squares(pt.xs)))


@dataclass(frozen=True)
class DecayReport:
    """Sup of |F| exp(r^2/2) over a strip grid, with the attained point."""

    K: float
    r_min: float
    r_max: float
    nx0: int
    nr: int
    sup_value: float
    argmax_x0: float
    argmax_r: float

    @property
    def on_boundary(self) -> bool:
        """The argmax is on the grid's edge, so the sup may grow beyond the strip."""
        return abs(self.argmax_x0) == self.K or self.argmax_r in (self.r_min, self.r_max)


@dataclass(frozen=True)
class ProbeReport:
    """Values of the pole-subtracted remainder along a ray toward the origin."""

    values: tuple
    bounded: bool


def _axial_value(m: int, values, pk, unit: bool, x0, xs: tuple, r: float) -> Multivector:
    """(A + w B) P_k at (x0, xs) with |xs| = r, from the pair plan's `values`; unit is `pk.is_one()`.

    The coefficients are those `Multivector._of` keeps: a part that is 0 (A = 0,
    x_j = 0, or B x_j / r rounding to ±0.0) never enters the dict.
    """
    if pk is None:
        raise ValueError("evaluation needs a concrete P_k")
    if len(xs) != m:
        raise ValueError(f"point dimension {len(xs)} vs pair dimension {m}")
    if r == 0:
        raise EvalDomainError("axial evaluation needs r > 0; use the restriction formulas at x_ = 0")
    a_val, b_val = values(x0, r)
    coeffs = {0: a_val} if a_val else {}
    for j, x in enumerate(xs):
        if x:
            v = b_val * (x / r)
            if v:
                coeffs[1 << j] = v
    value = _float_of(m, coeffs)
    # x * 1.0 == x, so P_k = 1 would change no coefficient
    return value if unit else value * pk.eval(x0, xs)


def eval_axial(pair: AxialPair, pt: EvalPoint) -> Multivector:
    """(A + w B) P_k at a point with r > 0, in binary64."""
    pk = pair.pk
    return _axial_value(pair.m, pair.plan.values, pk, pk is not None and pk.is_one(), pt.x0, pt.xs, pt.r)


def axial_evaluator(pair: AxialPair):
    """Adapter (x0, xs) -> Multivector for the finite-difference oracle.

    Gives `eval_axial(pair, EvalPoint(x0, xs))` bit for bit; the pair's plan
    and whether P_k = 1 are bound once, and r is computed as `EvalPoint` computes it.
    """
    m, pk = pair.m, pair.pk
    values = pair.plan.values
    unit = pk is not None and pk.is_one()
    sqrt, fsum = math.sqrt, math.fsum

    def f(x0, xs):
        xs = tuple(xs)
        return _axial_value(m, values, pk, unit, x0, xs, sqrt(fsum(map(mul, xs, xs))))

    return f


# --- CK series of the Gaussian -------------------------------------------------


@lru_cache(maxsize=None)
def _series_table(trunc: int, m: int) -> tuple:
    """Per n = 0..trunc: float(n!) and the nonzero c_j of `hermite_radial_coeffs(n, m)`
    as floats with j // 2, even j, then odd j.

    x_^(2i) = (-r^2)^i and x_^(2i+1) = (-r^2)^i x_ split H_n into s + v x_.
    `int * float` and `float / int` convert the int as `float()` does, so the
    floats give the bits the big-int coefficients and factorials give.
    """
    table = []
    for n in range(trunc + 1):
        coeffs = hermite_radial_coeffs(n, m)
        even = tuple((float(c), j // 2) for j, c in enumerate(coeffs) if c and not j % 2)
        odd = tuple((float(c), j // 2) for j, c in enumerate(coeffs) if c and j % 2)
        table.append((float(math.factorial(n)), even, odd))
    return tuple(table)


def ck_gauss_series(pt: EvalPoint, m: int, trunc: int = 60) -> Multivector:
    """exp(-r^2/2) sum_{n<=trunc} x0^n/n! H_n(x_), evaluated in binary64.

    Valid at x_ = 0 as well, where only the scalar coefficients survive.
    """
    _check_dimension(m)
    if pt.m != m:
        raise ValueError(f"point dimension {pt.m} vs m={m}")
    if not 0 <= trunc <= 170:
        raise ValueError(f"truncation order must be in 0..170 (171! overflows binary64), got {trunc}")
    r2 = math.fsum(x * x for x in pt.xs)
    scalar = 0.0
    vector = 0.0  # coefficient of x_ (the raw vector, not the unit one)
    x0_pow = 1.0
    pows = [(-r2) ** i for i in range(trunc // 2 + 1)]
    for fact, even, odd in _series_table(trunc, m):
        s = v = 0.0
        for c, i in even:
            s += c * pows[i]
        for c, i in odd:
            v += c * pows[i]
        factor = x0_pow / fact
        scalar += factor * s
        vector += factor * v
        x0_pow *= pt.x0
    damp = math.exp(-r2 / 2.0)
    coeffs = {0: damp * scalar}
    for j, x in enumerate(pt.xs):
        coeffs[1 << j] = damp * vector * x
    return Multivector._of(m, coeffs, False)


def ck_gauss_restriction(x0: float, m: int) -> float:
    """Value of the Gaussian extension on the x_ = 0 axis (odd m only)."""
    _require_odd(m)
    total = 1.0
    # int * float converts the int as float() does; every product is exact in binary64 for m <= MAX_DIMENSION
    for n in range(1, (m - 1) // 2 + 1):
        total += math.prod(range(m - 1, m - 2 * n, -2)) * x0 ** (2 * n) / math.factorial(2 * n)
    return math.exp(x0 * x0 / 2.0) * total


def restriction_taylor_coeff(n: int, m: int) -> Fraction:
    """Exact coefficient of x0^(2n) in the x_ = 0 restriction.

    Expands exp(x0^2/2) times the finite correction polynomial, whose
    coefficient of x0^(2j) is (m-1)(m-3)...(m-2j+1)/(2j)! for j <= (m-1)/2;
    must equal c_n(n)/(2n)! term by term.
    """
    total = Fraction(0)
    for j in range(min(n, max(0, (m - 1) // 2)) + 1):
        # polynomial part at x0^(2j) times exp part x0^(2(n-j)) / (2^(n-j) (n-j)!)
        i = n - j
        total += Fraction(math.prod(range(m - 1, m - 2 * j, -2)), math.factorial(2 * j) * 2 ** i * math.factorial(i))
    return total


# --- finite-difference monogenicity oracle ------------------------------------


# (id(f), id(point), step) -> (f, point, partials) of the last two stencils: the left and
# right residuals at one point object and step read the same partials.  The entry holds f and
# the point, so their ids cannot be reused while the entry lives.  The library starts no threads.
_FD_PARTIALS: dict = {}


def _fd_partials(f, pt: EvalPoint, h: float) -> list:
    """For j = 0..m, {mask: coeff} of f(x + h u_j) - f(x - h u_j), u_0 the x0 direction.

    f must be a function of the point: the partials of the last two (f, point
    object, step) calls are kept and handed out again.  A stencil in which
    x + h or x - h rounds back to x for some coordinate (with `FDConfig`'s
    step, an h below about 1.1e-16) would read a zero partial there, and one
    in which x + h, x - h or their distance, about 2 h, is not finite (h from
    about 9e307, where 1 / (2 h) reads 0) has no partial to read: either
    raises ValueError naming the coordinate and the step before f is called.
    An ArithmeticError or ValueError that f raises is raised again with its
    type, naming the stencil point (as x2 - step), its coordinates and the step.
    """
    key = (id(f), id(pt), h)
    hit = _FD_PARTIALS.get(key)
    if hit is not None:
        return hit[2]
    m = pt.m
    x0, xs = pt.x0, tuple(pt.xs)
    # f's arguments at x + h u_j and x - h u_j for j = 0..m; each shift replaces one coordinate
    points = []
    shifted = list(xs)
    for j, x in enumerate((x0, *xs)):
        up, down = x + h, x - h
        if up == x or down == x:
            raise ValueError(f"finite-difference step {h!r} is lost at x{j}={x!r}: x + step or x - step rounds to x")
        if not math.isfinite(up - down):
            raise ValueError(
                f"finite-difference step {h!r} leaves binary64 at x{j}={x!r}: "
                "x + step, x - step or 2 * step is not finite"
            )
        if j:
            shifted[j - 1] = up
            plus = tuple(shifted)
            shifted[j - 1] = down
            points += ((x0, plus), (x0, tuple(shifted)))
            shifted[j - 1] = x
        else:
            points += ((up, xs), (down, xs))
    values = []
    for i, (y0, ys) in enumerate(points):
        try:
            value = f(y0, ys)
        except (ArithmeticError, ValueError) as exc:
            raise type(exc)(
                f"f failed at the finite-difference stencil point x{i // 2} {'+-'[i % 2]} step = "
                f"(x0={y0!r}, xs={ys!r}) with step {h!r}: {exc}"
            ) from exc
        if value.m != m:
            raise DimensionMismatchError(f"f returned m={value.m} at a point of m={m}")
        if value.exact:
            raise MixedVariantError("f must return float multivectors")
        values.append(value.coeffs)
    partials = []
    for j in range(0, 2 * m + 2, 2):
        diff = dict(values[j])
        for mask, v in values[j + 1].items():
            diff[mask] = diff.get(mask, 0) - v
        partials.append(diff)
    if len(_FD_PARTIALS) >= 2:
        del _FD_PARTIALS[next(iter(_FD_PARTIALS))]
    _FD_PARTIALS[key] = (f, pt, partials)
    return partials


def fd_cr_residual(f, pt: EvalPoint, cfg: FDConfig | None = None, side: str = "left") -> float:
    """Norm of the central-difference Cauchy-Riemann residual at a point.

    f maps (x0, xs) to a float Multivector and must be a function of the
    point: the left and right residuals at one point and step share one
    stencil.  'left' applies e_j from the left of each partial, 'right' from
    the right; both residuals are O(h^2) for functions monogenic on that side.

    The partials add into one {mask: coeff} dict with the rounding and the
    order of the float Multivector sum of e_j (f(x + h u_j) - f(x - h u_j))
    scaled by 1/(2h): entries that are zero after a coordinate leave the
    dict, as the Multivector sum drops them, so the norm sums the squares
    in the same order.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    h = (cfg or FDConfig()).step(pt)
    inv_2h = 1.0 / (2.0 * h)
    left = side == "left"
    partials = _fd_partials(f, pt, h)
    # the x0 partial enters as it is: e_0 is the identity
    total = {mask: v * inv_2h for mask, v in partials[0].items()}
    for j in range(1, len(partials)):
        if 0 in total.values():
            total = {mask: v for mask, v in total.items() if v}
        ej = 1 << (j - 1)
        for mask, v in partials[j].items():
            v *= inv_2h
            sign, key = blade_product(ej, mask) if left else blade_product(mask, ej)
            total[key] = total.get(key, 0) + (v if sign > 0 else -v)
    # a zero entry left by the last partial adds +0.0 to the sum of squares
    return math.sqrt(sum_squares(total.values()))


def fd_convergence_factor(f, pt: EvalPoint) -> float:
    """Ratio of the left residuals at steps 2e-3 and 1e-3; near 4 for O(h^2) schemes."""
    r1 = fd_cr_residual(f, pt, FDConfig(2e-3))
    r2 = fd_cr_residual(f, pt, FDConfig(1e-3))
    if r2 == 0:
        return math.inf
    return r1 / r2


# --- values on the ray x_ = r e_1 --------------------------------------------------


def _ray_grid(plan, x0_vals, r_vals):
    """(x0, r, radius, A, e1, norm) at each point (x0, r e_1) of x0_vals x r_vals, row-major, from the
    plan of a pair with P_k = 1.

    A and B are the plan's values at (x0, radius), radius = sqrt(r * r) as `EvalPoint` computes it,
    e1 = B (r / radius) and norm = sqrt(0.0 + A^2 + e1^2): the float `eval_axial(...).norm()` and its
    parts.  Outside [2^-500, 2^500], where a square can underflow or overflow, norm is hypot(A, e1)
    instead.  A zero part (-0.0 too) reads 0.0, as the float Multivector drops it; the plan's sums
    start at +0.0, so A is never -0.0.  Each point is evaluated when it is asked for, so the first
    failing point in row-major order raises, naming its (x0, r): EvalDomainError where r <= 0 or
    r * r is 0 in binary64 (r below about 1.6e-162); OverflowError where a power leaves binary64
    (x0 = 1e200, or r = 1e-160, whose square is subnormal); ValueError where the value is NaN
    (r * r overflows from r ~ 1.34e154, x0 * r is infinite, or x0 or r is NaN).
    """
    sqrt = math.sqrt
    radii = [sqrt(r * r) for r in r_vals]
    grid = plan.grid(x0_vals, radii)
    # per r: r, its radius and the e1 factor r / radius, None where r is refused
    columns = [(r, radius, None if r <= 0 or radius == 0 else r / radius) for r, radius in zip(r_vals, radii)]
    for x0 in x0_vals:
        for r, radius, ratio in columns:
            if ratio is None:
                raise EvalDomainError(f"point needs r > 0 with r * r > 0 in binary64 at (x0={x0!r}, r={r!r})")
            try:
                a_val, b_val = next(grid)
                e1 = b_val * ratio or 0.0
                norm = sqrt(0.0 + a_val * a_val + e1 * e1)
                if norm != norm:  # cos(0 * inf), or a NaN x0 or r, gives NaN without raising
                    raise ValueError
                if not 2.0**-500 <= norm <= 2.0**500:  # a square left the normal range
                    norm = math.hypot(a_val, e1)
            except OverflowError:
                raise OverflowError(f"value is out of range at (x0={x0!r}, r={r!r})") from None
            except ValueError:  # math's cos and sin refuse an infinite x0 * r, where IEEE 754 gives NaN
                raise ValueError(f"value is NaN at (x0={x0!r}, r={r!r})") from None
            yield x0, r, radius, a_val, e1, norm


# --- decay scan ----------------------------------------------------------------


def lin_range(lo: float, hi: float, count: int) -> list:
    """Inclusive uniform grid with deterministic endpoints.

    A grid value that is not finite raises ValueError.  So does a step that
    is not finite: the span of [-1e308, 1e308] overflows to an infinite
    step, and the first value lo + 0 * inf is NaN.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if count == 1:
        vals = [lo]
    else:
        step = (hi - lo) / (count - 1)
        vals = [lo + i * step for i in range(count)]
        vals[-1] = hi
    if not all(map(math.isfinite, vals)):
        raise ValueError(f"grid of [{lo!r}, {hi!r}] over {count} points has a value that is not finite")
    return vals


def decay_scan(
    pair: AxialPair,
    K: float,
    r_min: float,
    r_max: float,
    nx0: int = 101,
    nr: int = 101,
) -> DecayReport:
    """Sup of |F(x)| exp(r^2/2) over {|x0| <= K} x {r_min <= r <= r_max}, for a pair with P_k = 1.

    The direction of x_ is irrelevant for the magnitude of an axial
    function, so the grid lives on the ray x_ = r e_1: |F| is the norm of
    `_ray_grid`, whose errors come prefixed by `decay scan `.  A weight
    exp(r^2/2) that leaves binary64 (r beyond about 37.7) raises
    OverflowError naming r.  The first r wins a tie within a grid row, the
    larger x0 a tie across rows.
    """
    if pair.pk is None:
        raise ValueError("evaluation needs a concrete P_k")
    if not pair.pk.is_one():
        raise ValueError(f"decay scan needs a pair with P_k = 1, got k={pair.k}")
    if not (0 < r_min < r_max) or K <= 0:
        raise ValueError("need 0 < r_min < r_max and K > 0")
    x0_vals = lin_range(-K, K, nx0)
    r_vals = lin_range(r_min, r_max, nr)
    weights = []
    for r in r_vals:
        try:
            weights.append(math.exp(r * r / 2.0))
        except OverflowError:
            raise OverflowError(f"decay weight exp(r^2/2) is out of range at r={r!r}") from None
    sup, ax0, ar = -math.inf, 0.0, 0.0
    try:
        for (x0, r, _, _, _, norm), weight in zip(_ray_grid(pair.plan, x0_vals, r_vals), cycle(weights)):
            val = norm * weight
            if val > sup or val == sup and x0 > ax0:
                sup, ax0, ar = val, x0, r
    except (OverflowError, ValueError) as exc:
        raise type(exc)(f"decay scan {exc}") from None
    return DecayReport(K, r_min, r_max, nx0, nr, sup, ax0, ar)


# --- pole-cancellation probe ----------------------------------------------------


@lru_cache(maxsize=None)
def _probe_split(m: int, subtract_pole: bool) -> tuple:
    """`axis_split` of the probed pair in binary64: per nonempty component, (M, series, P, K).

    Each of M, series and P is a tuple of terms (c, b) standing for c r^b;
    the series terms are P's terms times x^K / K! = r^(2K) / (2^K K!), each
    joined into one power of r.
    """
    pair = entire_remainder_pair(m) if subtract_pole else normalized_gauss_fund_pair(m)
    out = []
    for split in axis_split(pair):
        if split.M or split.P:  # an empty component adds nothing to the norm
            K = split.K
            scale = 2**K * math.factorial(K)
            M = tuple((float(q), b) for b, q in split.M.items())
            series = tuple((float(Fraction(q) / scale), b + 2 * K) for b, q in split.P.items())
            out.append((M, series, tuple((float(q), b) for b, q in split.P.items()), K))
    return tuple(out)


def _power_sum(terms, r: float) -> float:
    """sum of c r^b over the (c, b) in terms, rounded once; a power that leaves binary64 reads inf."""
    out = []
    for c, b in terms:
        try:
            out.append(c * r**b)
        except OverflowError:
            out.append(c * math.inf)
    return math.fsum(out)


@lru_cache(maxsize=None)
def _gamma_series(K: int) -> tuple:
    """K!/(K+n)! for n = 1, 2, ... as floats, while (K+1)^n K!/(K+n)! is above 1e-17."""
    out = []
    c = Fraction(1)
    while not out or (K + 1) ** len(out) * c > Fraction(1, 10**17):
        c /= K + len(out) + 1
        out.append(c)
    return tuple(map(float, out))


def _square_rel_error(r: float) -> float:
    """(r^2 - r * r) / (r * r), the relative rounding error of r * r, exactly, by Dekker's product
    with Veltkamp's split of r; good while no partial product leaves binary64 (1e-100 < r < 1e100)."""
    rr = r * r
    c = 134217729.0 * r  # 2^27 + 1
    hi = c - (c - r)
    lo = r - hi
    return ((hi * hi - rr) + 2.0 * hi * lo + lo * lo) / rr


def _gamma_p_sum(series, p_terms, K: int, r: float, x: float, rel: float, e: float) -> float:
    """P(r) P(K, x) at x (1 + rel) = r^2/2 and e = exp(-x), from the series and P terms of `_probe_split`.

    Below x = K + 1 it is sum_b c_b r^(b+2K) / (2^K K!) exp(-x) sum_n x^n K!/(K+n)!
    (DLMF 8.7.1), whose terms are positive and whose powers of r are not
    negative; above, P(r) (1 - exp(-x) sum_{k<K} x^k/k!) (DLMF 8.4.10), where
    P(K, x) is above about 1/2, so the difference loses at most about a bit.
    Each form is corrected to first order in rel by its derivative in x.
    """
    if not p_terms:
        return 0.0
    if K and x < K + 1:
        terms = []  # of sum_n x^n K!/(K+n)! past n = 0, each from its own power of x
        for n, c in enumerate(_gamma_series(K), 1):
            terms.append(c * x**n)
            if terms[-1] <= 1e-17 * terms[0]:
                break
        s1 = math.fsum(terms)
        # d/dx of exp(-x) (1 + s1) is -(K/x) exp(-x) s1
        return _power_sum(series, r) * (e + e * (s1 - K * rel * s1))
    tail = term = e if K else 0.0  # exp(-x) sum_{k<K} x^k/k!; at e = 0 every term is 0
    for k in range(1, K if e else 0):
        term *= x / k
        tail += term
    # d/dx of the tail is -exp(-x) x^(K-1)/(K-1)!, its last term
    return _power_sum(p_terms, r) * (1.0 - (tail - term * x * rel))


def entire_part_probe(m: int, radii, subtract_pole: bool = True, dps: int = 60) -> ProbeReport:
    """Evaluate the normalized transform of exp(z^2/2)/z minus its pole
    along x_ = r e_1, x0 = 0, at decreasing radii.

    The subtraction cancels the r^-m singularity exactly in the term
    algebra, and `axis_split` turns the surviving terms, which still cancel
    analytically near 0, into exp(-x) M(r) + P(r) P(K, x) with x = r^2/2 and
    P(K, x) the regularized incomplete gamma function.  Each part is
    evaluated in binary64 with no negative power of r left to cancel, so the
    values hold to a few ulp at any radius.  Boundedness of the values is
    the numerical signature that the remainder is entire: the report reads
    bounded if every value is finite and at most max(1, 10 times the first).
    At least two radii are needed, each finite and > 0.  Without the
    subtraction the values grow like r^-m and read inf once that leaves
    binary64.  `dps` has no effect; it stays for callers that pass it, until
    ROADMAP item 7 removes it.
    """
    radii = tuple(float(r) for r in radii)
    if len(radii) < 2 or not all(0 < r < math.inf for r in radii):
        raise ValueError(f"radii must be at least two finite numbers > 0, got {radii}")
    if list(radii) != sorted(radii, reverse=True):
        raise ValueError("radii must decrease toward 0")
    _check_dimension(m)  # the pairs build past MAX_DIMENSION; the probe keeps the numeric layer's cap
    split = _probe_split(m, subtract_pole)
    values = []
    for r in radii:
        x = r * r / 2.0
        e = math.exp(-x)
        # x (1 + rel) = r^2/2; below x = 1e-3 the rounding of x moves no part by more than about 1e-19
        rel = _square_rel_error(r) if 1e-3 < x and e else 0.0
        # exp(-x) M(r) is 0 once exp(-x) is, also where a power in M reads inf
        parts = [
            ((e - e * x * rel) * _power_sum(M, r) if e else 0.0) + _gamma_p_sum(series, P, K, r, x, rel, e)
            for M, series, P, K in split
        ]
        values.append(math.hypot(*parts))
    cap = max(1.0, 10.0 * values[0])
    bounded = all(math.isfinite(v) and v <= cap for v in values)
    return ProbeReport(tuple(values), bounded)


# --- CSV / JSON interchange -----------------------------------------------------

SAMPLE_TARGETS = ("ck-gauss", "gauss-fund")


def sample_pair(target: str, m: int) -> AxialPair:
    if target == "ck-gauss":
        return gauss_ck_pair(m)
    if target == "gauss-fund":
        return gauss_fund_pair(m)
    raise ValueError(f"unknown sample target {target!r}; choose from {SAMPLE_TARGETS}")


def sample_header(m: int) -> list:
    return (
        ["x0"]
        + [f"x{j}" for j in range(1, m + 1)]
        + ["r", "scalar"]
        + [f"e{j}" for j in range(1, m + 1)]
        + ["|value|"]
    )


def sample_rows(target: str, m: int, x0_vals, r_vals) -> list:
    """Row-major grid of axial values along x_ = r e_1; grades 0 and 1 only.

    A row is the point, its radius, then the grade-0 and grade-1 parts and the norm, as `_ray_grid`
    gives them from the target's plan; its errors come prefixed by `sample `.  An empty x0 or r
    list raises ValueError too: `read_sample_csv` refuses a file with no rows.
    """
    if not x0_vals or not r_vals:
        raise ValueError("sample grid needs at least one x0 and one r value")
    _check_dimension(m)
    plan = sample_pair(target, m).plan
    zeros = (0.0,) * (m - 1)
    grid = _ray_grid(plan, [float(x0) for x0 in x0_vals], [float(r) for r in r_vals])
    try:
        return [[x0, r, *zeros, radius, a_val, e1, *zeros, norm] for x0, r, radius, a_val, e1, norm in grid]
    except (OverflowError, ValueError) as exc:
        raise type(exc)(f"sample {exc}") from None


def write_sample_csv(path, target: str, m: int, x0_vals, r_vals) -> int:
    """Write `sample_rows` as the csv module's default dialect: ',' between fields, '\r\n' after each
    line, a float as its repr; no field holds a delimiter, quote or newline, so none is quoted.

    The rows come in row-major order, so each x0 is formatted once per grid row and the point
    text x1,0.0,...,0.0,r once per radius; e2..em are always 0.0.  The file is opened only
    after every row is computed, so a grid that fails writes no file.
    """
    r_vals = list(r_vals)
    rows = sample_rows(target, m, x0_vals, r_vals)
    n = len(r_vals)
    points = [",".join(map(repr, row[1 : m + 2])) for row in rows[:n]]
    zeros = ",0.0" * (m - 1)
    lines = [",".join(sample_header(m))]
    for i in range(0, len(rows), n):
        x0 = repr(rows[i][0])
        for row, point in zip(rows[i : i + n], points):
            lines.append(f"{x0},{point},{row[m + 2]!r},{row[m + 3]!r}{zeros},{row[-1]!r}")
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")
    return len(rows)


# the characters of a data line `write_sample_csv` writes: float reprs and the commas between them
_SAMPLE_CHARS = "0123456789.-+einfa,"
_SAMPLE_BYTES = _SAMPLE_CHARS.encode()
_LINE_ENDS = (b"", b"\n", b"\r\n")


def _line_cells(line: bytes) -> list:
    """The cells of one CSV line as text, with its line end, LF or CR LF, cut off."""
    return line.decode("utf-8", "replace").removesuffix("\n").removesuffix("\r").split(",")


def read_sample_csv(path) -> tuple[int, list, list]:
    """Returns (m, header, rows of floats); the header must be `sample_header(m)` for an odd m <= MAX_DIMENSION,
    and at least one row must follow it.

    Reads the text `write_sample_csv` writes: lines ending in LF or CR LF (mixed too), ',' between
    cells, no quoting.  Each line must have the header's width and each cell must parse as a
    float; an error names the line (the header is line 1).  Once every row parses, a data line
    with a character no float repr or comma has (`1_0.0`, ` 0.5`, `Infinity`, a CR inside
    the line) is refused, so only text `sample` could have written re-verifies; a cell in the
    float alphabet that is not a shortest repr, as `1.50`, is read as its value.
    """
    with open(path, "rb") as fh:
        header = _line_cells(next(fh, b""))
        m = (len(header) - 4) // 2
        if not (1 <= m <= MAX_DIMENSION and m % 2) or header != sample_header(m):
            raise ValueError("unrecognized sample CSV header")
        width = len(header)
        rows = []
        foreign = None  # (line number, line) of the first data line with text `sample` does not write
        for n, line in enumerate(fh, 2):
            cells = line.split(b",")
            if len(cells) != width:
                cells = _line_cells(line)
                k = 0 if cells == [""] else len(cells)
                raise ValueError(f"sample CSV line {n}: {k} columns, header has {width}")
            try:
                rows.append(list(map(float, cells)))
            except ValueError:
                # float of the text names the cell as the text reads, and reads non-ASCII digits, which the scan refuses
                try:
                    rows.append(list(map(float, _line_cells(line))))
                except ValueError as exc:
                    raise ValueError(f"sample CSV line {n}: {exc}") from None
            if foreign is None:
                rest = line.translate(None, _SAMPLE_BYTES)
                if not (rest in _LINE_ENDS and line.endswith(rest)):
                    foreign = n, line
    if foreign is not None:
        n, line = foreign
        cell = next(cell for cell in _line_cells(line) if not set(cell) <= set(_SAMPLE_CHARS))
        raise ValueError(f"sample CSV line {n}: cell text not written by sample: {cell!r}")
    if not rows:
        raise ValueError("sample CSV has no rows")
    return m, header, rows


def verify_sample_csv(path, target: str) -> tuple[bool, int]:
    """Recompute every row of a sample CSV as `sample` writes it at the row's (x0, x1); True iff all values
    match bit-exactly, so -0.0 differs from 0.0.

    The rows are recomputed by `_ray_grid`, whose errors come prefixed by `sample CSV line N: `
    (the header is line 1, each row one line).  So a row off the e1 ray (some x2..xm not 0.0)
    compares unequal, and a row with x1 <= 0 is refused.  The rows may come in any order: each run
    of consecutive rows with the same x0 is a grid row, and consecutive runs over the same x1
    values, as `sample` writes them, are evaluated as one grid.
    """
    m, _, rows = read_sample_csv(path)
    plan = sample_pair(target, m).plan
    zeros = (0.0,) * (m - 1)
    # keyed on the bits, so rows at x0 = 0.0 and -0.0 fall in different runs, each evaluated at its own x0
    runs = (list(run) for _, run in groupby(rows, key=lambda row: row[0].hex()))
    recomputed = []  # every value in file order
    line = 1
    try:
        for x1s, batch in groupby(runs, key=lambda run: [row[1] for row in run]):
            for x0, r, radius, a_val, e1, norm in _ray_grid(plan, [run[0][0] for run in batch], x1s):
                recomputed += (x0, r, *zeros, radius, a_val, e1, *zeros, norm)
                line += 1
    except (OverflowError, ValueError) as exc:
        raise type(exc)(f"sample CSV line {line + 1}: {exc}") from None
    # one pack per side compares the bits of every value, where float == takes -0.0 for 0.0
    pack = struct.Struct(f"{len(recomputed)}d").pack
    return pack(*recomputed) == pack(*chain.from_iterable(rows)), len(rows)
