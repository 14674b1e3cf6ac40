"""Exact polynomials in x0, x1, ..., xm with Clifford coefficients.

A polynomial is one flat dict {(packed, mask): c}, c nonzero, int if integral
and Fraction otherwise.  `packed` holds the exponent of x_j in bits
W*j .. W*j + W - 1 (slot 0 for x0), so multiplying monomials adds keys and
differentiating subtracts a unit; mask is the blade as encoded in
`clifford`.  Exponents stay below 2^(W-1): the sum of two valid keys then
never carries into the next slot, and a product or shift whose result
reaches the limit raises ValueError.  `coeffs` is the read-only view
{(exps, mask): c} with exponent tuples, in store order.  Coefficients sit
on the left of their monomials; noncommutativity only enters through
`blade_product`.

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
from types import MappingProxyType

from .clifford import (
    MAX_DIMENSION,
    DimensionMismatchError,
    MixedVariantError,
    Multivector,
    _check_dimension,
    _rational,
    _read_terms,
    blade_grade,
    blade_label,
    blade_product,
    power_text,
    write_terms,
)

# bits per exponent slot; the struct format "H" of _layout matches it
W = 16
EXP_LIMIT = 1 << (W - 1)
_SLOT = (1 << W) - 1
# the top bit of every slot: set in a key exactly when some exponent reached EXP_LIMIT
_HIGH = sum(EXP_LIMIT << (W * j) for j in range(MAX_DIMENSION + 1))
_ONE = {(0, 0): 1}


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


def _exact_scalar(value):
    if isinstance(value, float):
        raise MixedVariantError("float scalar on exact polynomial; convert explicitly")
    return _rational(Fraction(value))


def _check_shift(n: int) -> None:
    if not 0 <= n < EXP_LIMIT:
        raise ValueError(f"x0 shift {n} outside 0..{EXP_LIMIT - 1}")


def _guarded(m: int, out: dict) -> "CliffPoly":
    """CliffPoly._of after checking that no exponent of a computed key reached EXP_LIMIT."""
    for key, _ in out:
        if key & _HIGH:
            raise ValueError(f"exponent vector {_unpack(m, key)} reaches the limit {EXP_LIMIT}")
    return CliffPoly._of(m, out)


class CliffPoly:
    """Multivariate polynomial with exact Clifford coefficients, stored flat under packed keys."""

    # _coeffs, the tuple-keyed view, is built on first use
    __slots__ = ("m", "_d", "_coeffs")

    def __init__(self, m: int, terms=None):
        """Validated constructor from {exponent tuple: exact Multivector}."""
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
                d[key, mask] = _rational(v)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "_d", d)

    @classmethod
    def _of(cls, m: int, d: dict) -> "CliffPoly":
        """Trusted constructor for a computed store; drops zeros, stores integral values as int."""
        out = {}
        for key, v in d.items():
            if type(v) is not int and v.denominator == 1:
                v = v.numerator
            if v:
                out[key] = v
        p = object.__new__(cls)
        object.__setattr__(p, "m", m)
        object.__setattr__(p, "_d", out)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("CliffPoly is immutable")

    @property
    def coeffs(self) -> MappingProxyType:
        """{(exps, mask): c} with exponent tuples, in store order; built on first read and kept."""
        try:
            return self._coeffs
        except AttributeError:
            view = {(_unpack(self.m, key), mask): v for (key, mask), v in self._d.items()}
            object.__setattr__(self, "_coeffs", MappingProxyType(view))
            return self._coeffs

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
        return self.m == other.m and self._d == other._d

    __hash__ = None

    def __bool__(self) -> bool:
        return bool(self._d)

    def is_zero(self) -> bool:
        return not self._d

    def is_one(self) -> bool:
        return self._d == _ONE

    def depends_on_x0(self) -> bool:
        return any(key & _SLOT for key, _ in self._d)

    def grades(self) -> set:
        return {blade_grade(mask) for _, mask in self._d}

    # --- ring operations ---

    def _check(self, other: "CliffPoly") -> None:
        if self.m != other.m:
            raise DimensionMismatchError(f"m={self.m} vs m={other.m}")

    def __add__(self, other):
        if not isinstance(other, CliffPoly):
            return NotImplemented
        self._check(other)
        out = dict(self._d)
        get = out.get
        for key, v in other._d.items():
            old = get(key)
            out[key] = v if old is None else old + v
        return CliffPoly._of(self.m, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return CliffPoly._of(self.m, {key: -v for key, v in self._d.items()})

    def scale(self, value) -> "CliffPoly":
        c = _exact_scalar(value)
        return CliffPoly._of(self.m, {key: c * v for key, v in self._d.items()})

    def __mul__(self, other):
        if isinstance(other, CliffPoly):
            return poly_mul(self, other)
        return self.scale(other)

    __rmul__ = scale

    # --- calculus ---

    def diff(self, j: int) -> "CliffPoly":
        """Partial derivative with respect to x_j (j = 0 for x0)."""
        if not 0 <= j <= self.m:
            raise ValueError(f"variable index {j} outside 0..{self.m}")
        shift = W * j
        unit = 1 << shift
        out = {}
        for (key, mask), v in self._d.items():
            e = key >> shift & _SLOT
            if e:
                out[key - unit, mask] = v * e
        return CliffPoly._of(self.m, out)

    def restrict_x0(self) -> "CliffPoly":
        """Substitute x0 = 0."""
        return CliffPoly._of(self.m, {km: v for km, v in self._d.items() if not km[0] & _SLOT})

    def eval(self, x0: float, xs) -> Multivector:
        """Binary64 evaluation at a point of R^{m+1}."""
        if len(xs) != self.m:
            raise ValueError(f"expected {self.m} coordinates, got {len(xs)}")
        total: dict = {}
        for (exps, mask), c in self.coeffs.items():
            mono = x0 ** exps[0] if exps[0] else 1.0
            for x, e in zip(xs, exps[1:]):
                if e:
                    mono *= x ** e
            v = mono * float(c)
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
    """Noncommutative product; coefficient blades multiply as e_A e_B."""
    p._check(q)
    out = {}
    get = out.get
    rows = {}
    q_items = q._d.items()
    for (ep, mp), vp in p._d.items():
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
    return _guarded(p.m, out)


@lru_cache(maxsize=4096)
def _generator_row(m: int, mask: int) -> tuple:
    """(j, packed key of x_j, sign, blade) of e_j e_mask for j = 1..m."""
    return tuple((j, 1 << (W * j), *blade_product(1 << (j - 1), mask)) for j in range(1, m + 1))


def _dirac_into(out: dict, p: CliffPoly, sign: int) -> dict:
    """Add sign * dirac(p) into out, term by term in store order."""
    get = out.get
    m = p.m
    layout, size = _layout(m), 2 * (m + 1)
    for (key, mask), v in p._d.items():
        exps = layout.unpack(key.to_bytes(size, "little"))
        for j, unit, s, blade in _generator_row(m, mask):
            e = exps[j]
            if e:
                k = key - unit, blade
                # a Fraction on the left: int * Fraction takes Fraction's slower reflected path
                c = v * e if s == sign else v * -e
                old = get(k)
                out[k] = c if old is None else old + c
    return out


def dirac(p: CliffPoly) -> CliffPoly:
    """Dirac operator: sum of e_j (d/dx_j) acting by left multiplication."""
    return CliffPoly._of(p.m, _dirac_into({}, p, 1))


def _cr(p: CliffPoly, sign: int) -> CliffPoly:
    """d/dx0 + sign * dirac, added into one dict."""
    out = {}
    for (key, mask), v in p._d.items():
        e = key & _SLOT
        if e:
            out[key - 1, mask] = v * e
    return CliffPoly._of(p.m, _dirac_into(out, p, sign))


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
    for (key, mask), v in p._d.items():
        exps = layout.unpack(key.to_bytes(size, "little"))
        for j in range(0 if include_x0 else 1, m + 1):
            e = exps[j]
            if e > 1:
                k = key - (2 << W * j), mask
                c = v * (e * (e - 1))
                old = get(k)
                out[k] = c if old is None else old + c
    return CliffPoly._of(m, out)


def poly_sum(m: int, parts) -> CliffPoly:
    """Sum of c * x0^s * p over the (c, s, p) in parts, added into one dict."""
    out = {}
    get = out.get
    for c, s, p in parts:
        if p.m != m:
            raise DimensionMismatchError(f"m={p.m} vs m={m}")
        c = _exact_scalar(c)
        _check_shift(s)
        for (key, mask), v in p._d.items():
            k = key + s, mask
            w = c * v if type(v) is int else v * c
            old = get(k)
            out[k] = w if old is None else old + w
    return _guarded(m, out)


def ck_extend_poly(f: CliffPoly) -> CliffPoly:
    """Unique monogenic extension of a polynomial in the vector variable.

    Returns sum_n (-x0)^n / n! dirac^n(f); dirac strictly lowers degree,
    so the series ends after deg f + 1 terms.
    """
    if f.depends_on_x0():
        raise ValueError("CK extension input must not depend on x0")
    parts = []
    g = f
    while g:
        n = len(parts)
        parts.append((Fraction((-1) ** n, math.factorial(n)), n, g))
        g = dirac(g)
    return poly_sum(f.m, parts)


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
    for key, _ in p._d:
        exps = _unpack(m, key)
        if sum(exps) != k:
            raise InvalidPkError(f"invalid P_k: not homogeneous {exps}")
    d = dirac(p)._d
    if d:
        low = min(_unpack(m, key) for key, _ in d)
        packed = _pack(low)
        coeff = Multivector(m, {mask: v for (key, mask), v in d.items() if key == packed})
        raise InvalidPkError(f"invalid P_k: not monogenic dirac term {low} -> {coeff}")
    return p


def sample_p1(m: int) -> CliffPoly:
    """Shipped degree-1 sample: x1 e_1 - x2 e_2 (needs m >= 2)."""
    if m < 2:
        raise ValueError("the shipped degree-1 sample needs m >= 2")
    return CliffPoly(m, {_unit(m, 1): Multivector.basis(m, 1), _unit(m, 2): -Multivector.basis(m, 2)})


# --- powers of the vector variable ------------------------------------------

_XPOW_CACHE: dict = {}


def vector_power(m: int, n: int) -> CliffPoly:
    """x_ underline to the n-th power by repeated poly_mul; treat cached values as immutable."""
    if n < 0:
        raise ValueError("negative vector power")
    key = (m, n)
    cached = _XPOW_CACHE.get(key)
    if cached is not None:
        return cached
    if n == 0:
        out = CliffPoly.one(m)
    else:
        out = poly_mul(CliffPoly.vector_variable(m), vector_power(m, n - 1))
    _XPOW_CACHE[key] = out
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
    rows = [(key, v, _generator_row(m, mask)) for (key, mask), v in h._d.items()]
    # x_ H = sum_j e_j x_j H, in the term order of poly_mul(vector_variable(m), h)
    for i in range(m):
        for key, v, row in rows:
            _, unit, sign, blade = row[i]
            k = key + unit, blade
            w = v if sign > 0 else -v
            old = get(k)
            out[k] = w if old is None else old + w
    return _guarded(m, _dirac_into(out, h, -1))


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
    return CliffPoly._of(m, coeffs)
