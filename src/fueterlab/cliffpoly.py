"""Exact polynomials in x0, x1, ..., xm with Clifford coefficients.

A polynomial is the exact store of `clifford`, one flat dict
{(packed, mask): n} of nonzero int numerators over one positive int
denominator, so the kernels add and multiply plain ints and never form a
Fraction.  One value may be held over several denominators, so equality
compares across them.  `packed` holds the exponent of x_j in bits W*j .. W*j + W - 1 (slot 0 for
x0), so multiplying monomials adds keys and differentiating subtracts a
unit; mask is the blade as encoded in `clifford`.  Exponents stay below
2^(W-1): the sum of two valid keys then never carries into the next slot,
and a product or shift whose result reaches the limit raises ValueError.
`coeffs` is the read-only view {(exps, mask): c} with exponent tuples, in
store order, c an int if integral and a reduced Fraction otherwise.
Coefficients sit on the left of their monomials; noncommutativity only
enters through `blade_product`.

On top of the ring operations this module provides the Dirac operator,
the generalized Cauchy-Riemann operator and its conjugate, the Laplacian,
the Cauchy-Kowalevski extension of polynomials in the vector variable,
and the generalized Hermite polynomials attached to the Gaussian.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .clifford import (
    MAX_DIMENSION,
    DimensionMismatchError,
    ExactStore,
    Multivector,
    _check_dimension,
    _read_terms,
    blade_grade,
    blade_label,
    blade_product,
    exact_scalar,
    over_one_den,
    power_text,
    write_terms,
)

# bits per exponent slot; the struct format "H" of _layout matches it
W = 16
EXP_LIMIT = 1 << (W - 1)
_SLOT = (1 << W) - 1
# the top bit of every slot: set in a key exactly when some exponent reached EXP_LIMIT
_HIGH = sum(EXP_LIMIT << (W * j) for j in range(MAX_DIMENSION + 1))
_ONE_KEY = (0, 0)  # the monomial 1 with the scalar blade
_ONE = {_ONE_KEY: 1}
_store_of = ExactStore._of.__func__


@lru_cache(maxsize=None)
def _layout(m: int) -> struct.Struct:
    return struct.Struct(f"<{m + 1}H")


def _pack(exps) -> int:
    """Packed key of nonnegative int exponents; ValueError once one reaches EXP_LIMIT."""
    if max(exps) >= EXP_LIMIT:
        raise ValueError(f"exponent vector {tuple(exps)} reaches the limit {EXP_LIMIT}")
    return int.from_bytes(_layout(len(exps) - 1).pack(*exps), "little")


def _unpack(m: int, key: int) -> tuple:
    return _layout(m).unpack(key.to_bytes(2 * (m + 1), "little"))


def _unit(m: int, j: int) -> tuple:
    """Exponents of the monomial x_j."""
    return tuple(int(i == j) for i in range(m + 1))


def _check_shift(n: int) -> None:
    if not 0 <= n < EXP_LIMIT:
        raise ValueError(f"x0 shift {n} outside 0..{EXP_LIMIT - 1}")


def _guarded(m: int, out: dict, den: int, grew: bool = False) -> "CliffPoly":
    """CliffPoly._of after checking that no exponent of a computed key reached EXP_LIMIT."""
    for key, _ in out:
        if key & _HIGH:
            raise ValueError(f"exponent vector {_unpack(m, key)} reaches the limit {EXP_LIMIT}")
    return CliffPoly._of(m, out, den, grew)


class CliffPoly(ExactStore):
    """Multivariate polynomial with exact Clifford coefficients, stored flat under packed keys
    in the exact store of `clifford`."""

    __slots__ = ("m",)

    def __init__(self, m: int, terms=None):
        """Validated constructor from {exponent tuple: exact Multivector}."""
        _check_dimension(m)
        d = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != m + 1 or any(not isinstance(e, int) or e < 0 for e in exps):
                raise ValueError(f"exponent vector {exps} invalid for m={m}")
            if not isinstance(coeff, Multivector) or not coeff.exact:
                raise TypeError("CliffPoly coefficients must be exact Multivectors")
            if coeff.m != m:
                raise DimensionMismatchError(f"coefficient m={coeff.m} vs poly m={m}")
            key = _pack(exps)
            for mask, v in coeff.coeffs.items():
                d[key, mask] = v
        object.__setattr__(self, "m", m)
        self._store(d)

    @classmethod
    def _of(cls, m: int, num: dict, den: int = 1, grew: bool = False) -> "CliffPoly":
        """`ExactStore._of` at dimension m."""
        p = _store_of(cls, num, den, grew)
        object.__setattr__(p, "m", m)
        return p

    def _like(self, num: dict, den: int = 1, grew: bool = False) -> "CliffPoly":
        # _of at self's dimension, written out: every +, -, negation and scale comes through here
        p = _store_of(CliffPoly, num, den, grew)
        object.__setattr__(p, "m", self.m)
        return p

    def _view_keys(self) -> list:
        layout, size = _layout(self.m), 2 * (self.m + 1)
        return [(layout.unpack(key.to_bytes(size, "little")), mask) for key, mask in self._num]

    coeffs = property(
        ExactStore._exact_view, doc="{(exps, mask): c} with exponent tuples, in store order; built on first read and kept."
    )

    @property
    def terms(self) -> dict:
        """{exps: Multivector}, rebuilt per access; the package reads `coeffs`,
        perfbench/workloads.py reads coefficients per monomial from here."""
        grouped: dict = {}
        for (exps, mask), v in self.coeffs.items():
            grouped.setdefault(exps, {})[mask] = v
        return {exps: Multivector(self.m, blades) for exps, blades in grouped.items()}

    # --- constructors ---

    @classmethod
    def zero(cls, m: int) -> "CliffPoly":
        return cls(m, {})

    @classmethod
    def constant(cls, m: int, coeff) -> "CliffPoly":
        if not isinstance(coeff, Multivector):
            coeff = Multivector.scalar(m, coeff)
        return cls(m, {(0,) * (m + 1): coeff})

    @classmethod
    def one(cls, m: int) -> "CliffPoly":
        return cls.constant(m, 1)

    @classmethod
    def variable(cls, m: int, j: int) -> "CliffPoly":
        """The scalar monomial x_j (j = 0 for x0)."""
        if not 0 <= j <= m:
            raise ValueError(f"variable index {j} outside 0..{m}")
        return cls(m, {_unit(m, j): Multivector.scalar(m, 1)})

    @classmethod
    def vector_variable(cls, m: int) -> "CliffPoly":
        """The vector variable x1 e_1 + ... + xm e_m."""
        return cls(m, {_unit(m, j): Multivector.basis(m, j) for j in range(1, m + 1)})

    # --- bookkeeping ---

    def __eq__(self, other) -> bool:
        if not isinstance(other, CliffPoly):
            return NotImplemented
        if self.m != other.m:
            return False
        da, db, d = self._den, other._den, other._num
        if da == db:
            return self._num == d
        # n / da == k / db on every key; a key missing from other reads 0, and no n is 0
        return len(self._num) == len(d) and all(d.get(key, 0) * da == n * db for key, n in self._num.items())

    def is_zero(self) -> bool:
        return not self._num

    def is_one(self) -> bool:
        # one dict comparison in the common case: CliffPoly.one and the parser hold 1 over den 1
        return self._num == _ONE if self._den == 1 else len(self._num) == 1 and self._num.get(_ONE_KEY) == self._den

    def depends_on_x0(self) -> bool:
        return any(key & _SLOT for key, _ in self._num)

    def grades(self) -> set:
        return {blade_grade(mask) for _, mask in self._num}

    # --- ring operations ---

    def _check(self, other: "CliffPoly") -> None:
        if self.m != other.m:
            raise DimensionMismatchError(f"m={self.m} vs m={other.m}")

    def _combine(self, other: "CliffPoly", sign: int) -> "CliffPoly":
        if self.m != other.m:
            raise DimensionMismatchError(f"m={self.m} vs m={other.m}")
        return ExactStore._combine(self, other, sign)

    def __mul__(self, other):
        if isinstance(other, CliffPoly):
            return poly_mul(self, other)
        return self.scale(other)

    # --- calculus ---

    def diff(self, j: int) -> "CliffPoly":
        """Partial derivative with respect to x_j (j = 0 for x0)."""
        if not 0 <= j <= self.m:
            raise ValueError(f"variable index {j} outside 0..{self.m}")
        shift = W * j
        unit = 1 << shift
        out = {}
        for (key, mask), v in self._num.items():
            e = key >> shift & _SLOT
            if e:
                out[key - unit, mask] = v * e
        return CliffPoly._of(self.m, out, self._den)

    def restrict_x0(self) -> "CliffPoly":
        """Substitute x0 = 0."""
        return CliffPoly._of(self.m, {km: v for km, v in self._num.items() if not km[0] & _SLOT}, self._den)

    def eval(self, x0: float, xs) -> Multivector:
        """Binary64 evaluation at a point of R^{m+1}."""
        if len(xs) != self.m:
            raise ValueError(f"expected {self.m} coordinates, got {len(xs)}")
        total: dict = {}
        den = self._den
        for (exps, mask), n in zip(self.coeffs, self._num.values()):
            mono = x0 ** exps[0] if exps[0] else 1.0
            for x, e in zip(xs, exps[1:]):
                if e:
                    mono *= x ** e
            # int / int rounds correctly, as float(Fraction) does
            v = mono * (n / den)
            if v:
                # a cancelled blade leaves the dict: blade order fixes the rounding of later products
                total[mask] = total.get(mask, 0) + v
                if not total[mask]:
                    del total[mask]
        return Multivector._of(self.m, total, False)

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"CliffPoly(m={self.m}, {format_poly(self)!r})"


def poly_mul(p: CliffPoly, q: CliffPoly) -> CliffPoly:
    """Noncommutative product; coefficient blades multiply as e_A e_B.  A factor equal to 1 returns the other one."""
    p._check(q)
    if q.is_one():
        return p
    if p.is_one():
        return q
    out = {}
    get = out.get
    rows = {}
    q_items = q._num.items()
    for (ep, mp), vp in p._num.items():
        row = rows.get(mp)
        if row is None:
            # q's terms with the blade product e_mp e_mq and its sign folded in
            row = rows[mp] = []
            for (eq, mq), vq in q_items:
                sign, mask = blade_product(mp, mq)
                row.append((eq, mask, vq if sign > 0 else -vq))
        for eq, mask, vq in row:
            key = ep + eq, mask
            prod = vp * vq
            old = get(key)
            out[key] = prod if old is None else old + prod
    return _guarded(p.m, out, p._den * q._den, p._den != 1 and q._den != 1)


@lru_cache(maxsize=4096)
def _generator_row(m: int, mask: int) -> tuple:
    """(j, packed key of x_j, sign, blade) of e_j e_mask for j = 1..m."""
    return tuple((j, 1 << (W * j), *blade_product(1 << (j - 1), mask)) for j in range(1, m + 1))


def _dirac_into(out: dict, p: CliffPoly, sign: int) -> dict:
    """Add sign * dirac(p) into out, term by term in store order."""
    get = out.get
    m = p.m
    layout, size = _layout(m), 2 * (m + 1)
    for (key, mask), v in p._num.items():
        exps = layout.unpack(key.to_bytes(size, "little"))
        for j, unit, s, blade in _generator_row(m, mask):
            e = exps[j]
            if e:
                k = key - unit, blade
                c = v * e if s == sign else v * -e
                old = get(k)
                out[k] = c if old is None else old + c
    return out


def dirac(p: CliffPoly) -> CliffPoly:
    """Dirac operator: sum of e_j (d/dx_j) acting by left multiplication."""
    return CliffPoly._of(p.m, _dirac_into({}, p, 1), p._den)


def _cr(p: CliffPoly, sign: int) -> CliffPoly:
    """d/dx0 + sign * dirac, added into one dict."""
    out = {}
    for (key, mask), v in p._num.items():
        e = key & _SLOT
        if e:
            out[key - 1, mask] = v * e
    return CliffPoly._of(p.m, _dirac_into(out, p, sign), p._den)


def cr_apply(p: CliffPoly) -> CliffPoly:
    """Generalized Cauchy-Riemann operator d/dx0 + dirac."""
    return _cr(p, 1)


def cr_conj_apply(p: CliffPoly) -> CliffPoly:
    """Conjugate Cauchy-Riemann operator d/dx0 - dirac."""
    return _cr(p, -1)


def laplacian(p: CliffPoly, include_x0: bool = True) -> CliffPoly:
    out = {}
    get = out.get
    m = p.m
    layout, size = _layout(m), 2 * (m + 1)
    for (key, mask), v in p._num.items():
        exps = layout.unpack(key.to_bytes(size, "little"))
        for j in range(0 if include_x0 else 1, m + 1):
            e = exps[j]
            if e > 1:
                k = key - (2 << W * j), mask
                c = v * (e * (e - 1))
                old = get(k)
                out[k] = c if old is None else old + c
    return CliffPoly._of(m, out, p._den)


def poly_sum(m: int, parts) -> CliffPoly:
    """Sum of c * x0^s * p over the (c, s, p) in parts, added into one dict over the lcm
    of the parts' denominators."""
    parts = [(exact_scalar(c), s, p) for c, s, p in parts]
    for _, s, p in parts:
        if p.m != m:
            raise DimensionMismatchError(f"m={p.m} vs m={m}")
        _check_shift(s)
    dens = [c.denominator * p._den for c, _, p in parts]
    den = math.lcm(*dens)
    out = {}
    get = out.get
    for (c, s, p), d in zip(parts, dens):
        w = c.numerator * (den // d)
        for (key, mask), v in p._num.items():
            k = key + s, mask
            old = get(k)
            out[k] = w * v if old is None else old + w * v
    return _guarded(m, out, den, den > max(dens, default=1))


def ck_extend_poly(f: CliffPoly) -> CliffPoly:
    """Unique monogenic extension of a polynomial in the vector variable.

    Returns sum_n (-x0)^n / n! dirac^n(f); dirac strictly lowers degree,
    so the series ends after deg f + 1 terms.
    """
    if f.depends_on_x0():
        raise ValueError("CK extension input must not depend on x0")
    chain = []
    g = f
    while g:
        chain.append(g)
        g = dirac(g)
    # (-1)^n / n! is the int weight (-1)^n N!/n! over N!, so the sum forms no Fraction
    top = math.factorial(max(len(chain) - 1, 0))
    total = poly_sum(f.m, [((-1) ** n * (top // math.factorial(n)), n, g) for n, g in enumerate(chain)])
    return total.scale(Fraction(1, top))


class InvalidPkError(ValueError):
    """The supplied polynomial is not homogeneous monogenic of the right degree."""


def require_homogeneous_monogenic(p: CliffPoly, k: int) -> CliffPoly:
    """p itself if it is homogeneous of degree k in the vector variable and
    annihilated by the Dirac operator; otherwise InvalidPkError names the first failure."""
    if p.depends_on_x0():
        raise InvalidPkError("invalid P_k: depends on x0")
    if p.is_zero():
        raise InvalidPkError("invalid P_k: zero polynomial")
    m = p.m
    for key, _ in p._num:
        exps = _unpack(m, key)
        if sum(exps) != k:
            raise InvalidPkError(f"invalid P_k: not homogeneous {exps}")
    d = dirac(p).coeffs
    if d:
        low = min(exps for exps, _ in d)
        coeff = Multivector(m, {mask: v for (exps, mask), v in d.items() if exps == low})
        raise InvalidPkError(f"invalid P_k: not monogenic dirac term {low} -> {coeff}")
    return p


def sample_p1(m: int) -> CliffPoly:
    """Shipped degree-1 sample: x1 e_1 - x2 e_2 (needs m >= 2)."""
    if m < 2:
        raise ValueError("the shipped degree-1 sample needs m >= 2")
    return CliffPoly(m, {_unit(m, 1): Multivector.basis(m, 1), _unit(m, 2): -Multivector.basis(m, 2)})


# --- powers of the vector variable ------------------------------------------

_XPOW_CACHE: dict = {}


def _r2_power_terms(m: int, h: int) -> list:
    """[(packed key of x1^(2 a1) ... xm^(2 am), h!/a!)] over the multi-indices a with |a| = h:
    the terms of (x1^2 + ... + xm^2)^h, each key once."""
    # (key so far, exponent left for the later slots, product of the binomials so far)
    terms = [(0, h, 1)]
    for j in range(1, m):
        shift = W * j
        terms = [(key + (2 * a << shift), left - a, c * math.comb(left, a)) for key, left, c in terms for a in range(left + 1)]
    last = W * m
    return [(key + (2 * left << last), c) for key, left, c in terms]


def vector_power(m: int, n: int) -> CliffPoly:
    """x_ underline to the n-th power by its closed form, kept per (m, n); treat cached values
    as immutable.  x_^2 = -|x_|^2, so x_^(2h) = (-1)^h (x1^2 + ... + xm^2)^h and
    x_^(2h+1) = (-1)^h sum_j (x1^2 + ... + xm^2)^h x_j e_j, whose keys are all distinct."""
    out = _XPOW_CACHE.get((m, n))
    if out is not None:
        return out
    _check_dimension(m)
    if n < 0:
        raise ValueError("negative vector power")
    if n >= EXP_LIMIT:
        raise ValueError(f"vector power {n} reaches the exponent limit {EXP_LIMIT}")
    h, odd = divmod(n, 2)
    sign = -1 if h % 2 else 1
    terms = _r2_power_terms(m, h)
    if odd:
        num = {(key + (1 << W * j), 1 << (j - 1)): sign * c for j in range(1, m + 1) for key, c in terms}
    else:
        num = {(key, 0): sign * c for key, c in terms}
    out = _XPOW_CACHE[m, n] = CliffPoly._of(m, num)
    return out


def radius_sq_poly(m: int) -> CliffPoly:
    """x1^2 + ... + xm^2 as a scalar polynomial."""
    return CliffPoly(m, {tuple(2 * e for e in _unit(m, j)): Multivector.scalar(m, 1) for j in range(1, m + 1)})


# --- generalized Hermite polynomials -----------------------------------------


@dataclass(frozen=True)
class HermiteResult:
    n: int
    m: int
    poly: CliffPoly


def _c_product(n: int, nu: int, m: int) -> int:
    """`coeff_c` in int, with no range check on nu."""
    return math.prod(range(m + 2 * (n - 1), m + 2 * (n - nu) - 1, -2))


def coeff_c(n: int, nu: int, m: int) -> Fraction:
    """Product of m + 2(n-l) over l = 1..nu; empty product for nu = 0."""
    if nu < 0 or nu > n:
        raise ValueError(f"nu={nu} outside 0..{n}")
    return Fraction(_c_product(n, nu, m))


@lru_cache(maxsize=None)
def hermite_radial_coeffs(n: int, m: int) -> tuple:
    """Coefficients (c_0, ..., c_n) of H_n = sum_j c_j x_^j, by the closed form:
    c_(n-2nu) = C(n//2, nu) coeff_c(n - n//2, nu, m), and 0 at the other parity."""
    half = n // 2
    out = [0] * (n + 1)
    for nu in range(half + 1):
        out[n - 2 * nu] = math.comb(half, nu) * _c_product(n - half, nu, m)
    return tuple(out)


def hermite_step(h: CliffPoly) -> CliffPoly:
    """x_ H - dirac(H), the step of the Hermite recurrence, added into one dict."""
    out = {}
    get = out.get
    m = h.m
    rows = [(key, v, _generator_row(m, mask)) for (key, mask), v in h._num.items()]
    # x_ H = sum_j e_j x_j H, in the term order of poly_mul(vector_variable(m), h)
    for i in range(m):
        for key, v, row in rows:
            _, unit, sign, blade = row[i]
            k = key + unit, blade
            w = v if sign > 0 else -v
            old = get(k)
            out[k] = w if old is None else old + w
    return _guarded(m, _dirac_into(out, h, -1), h._den)


def hermite_rec(n: int, m: int) -> HermiteResult:
    """H_0 = 1, H_{j+1} = x_ H_j - dirac(H_j)."""
    if n < 0:
        raise ValueError("Hermite index must be nonnegative")
    h = CliffPoly.one(m)
    for _ in range(n):
        h = hermite_step(h)
    return HermiteResult(n, m, h)


def hermite_closed(n: int, m: int) -> HermiteResult:
    """Sum of c_j x_^j over `hermite_radial_coeffs`, highest power first."""
    if n < 0:
        raise ValueError("Hermite index must be nonnegative")
    coeffs = hermite_radial_coeffs(n, m)
    return HermiteResult(n, m, poly_sum(m, ((coeffs[j], 0, vector_power(m, j)) for j in range(n, -1, -2))))


# --- text form -------------------------------------------------------------
#
# Terms render as `coef*x0^a x1^b*e{..}` in graded-lexicographic order,
# highest total degree first; the blade factor is omitted for scalar
# coefficients and exponent 1 prints without the caret.


def format_poly(p: CliffPoly) -> str:
    def factors(exps, mask):
        mono = " ".join(power_text(f"x{j}", e) for j, e in enumerate(exps) if e)
        return [mono] * bool(mono) + [blade_label(mask, p.m)] * bool(mask)

    keys = sorted(p.coeffs, key=lambda k: (-sum(k[0]), tuple(-e for e in k[0]), k[1]))
    return write_terms((p.coeffs[k], factors(*k)) for k in keys)


def parse_poly(text: str, m: int) -> CliffPoly:
    """Round-trip parser for the polynomial grammar: the factors x0..xm, exponents >= 0."""
    _check_dimension(m)
    coeffs: dict = {}
    for value, mask, factors in _read_terms(text, m, None):
        exps = [0] * (m + 1)
        for name, e in factors.items():
            if name[0] != "x" or int(name[1:]) > m or e < 0:
                raise ValueError(f"factor {power_text(name, e)} invalid in a polynomial at m={m}")
            exps[int(name[1:])] += e
        key = _pack(exps), mask
        coeffs[key] = coeffs.get(key, 0) + value
    return CliffPoly._of(m, *over_one_den(coeffs))
