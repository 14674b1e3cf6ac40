"""Exact polynomials in x0, x1, ..., xm with Clifford coefficients.

A polynomial is one flat dict {(exps, mask): c}, c nonzero, int if integral
and Fraction otherwise, exps holding the exponents of the commuting
variables (slot 0 for x0) and mask the blade as encoded in `clifford`.
Coefficients sit on the left of their monomials; noncommutativity only
enters through `blade_product`.

On top of the ring operations this module provides the Dirac operator,
the generalized Cauchy-Riemann operator and its conjugate, the Laplacian,
the Cauchy-Kowalevski extension of polynomials in the vector variable,
and the generalized Hermite polynomials attached to the Gaussian.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from operator import add

from .clifford import (
    MAX_DIMENSION,
    DimensionMismatchError,
    MixedVariantError,
    Multivector,
    _rational,
    apply_blade,
    blade_grade,
    blade_label,
    blade_product,
    join_signed,
    split_terms,
    tokenize,
)


def _unit(m: int, j: int) -> tuple:
    """Exponents of the monomial x_j."""
    return tuple(int(i == j) for i in range(m + 1))


class CliffPoly:
    """Multivariate polynomial with exact Clifford coefficients, stored flat."""

    __slots__ = ("m", "coeffs")

    def __init__(self, m: int, terms=None):
        """Validated constructor from {exponent tuple: exact Multivector}."""
        coeffs = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != m + 1 or any(e < 0 for e in exps):
                raise ValueError(f"exponent vector {exps} invalid for m={m}")
            if not isinstance(coeff, Multivector) or not coeff.exact:
                raise TypeError("CliffPoly coefficients must be exact Multivectors")
            if coeff.m != m:
                raise DimensionMismatchError(f"coefficient m={coeff.m} vs poly m={m}")
            for mask, v in coeff.coeffs.items():
                coeffs[exps, mask] = _rational(v)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def _of(cls, m: int, coeffs: dict) -> "CliffPoly":
        """Trusted constructor for computed {(exps, mask): coeff}; drops zeros."""
        p = object.__new__(cls)
        object.__setattr__(p, "m", m)
        object.__setattr__(p, "coeffs", {key: v if type(v) is int else _rational(v) for key, v in coeffs.items() if v})
        return p

    def __setattr__(self, name, value):
        raise AttributeError("CliffPoly is immutable")

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
        return self.m == other.m and self.coeffs == other.coeffs

    __hash__ = None

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def depends_on_x0(self) -> bool:
        return any(exps[0] for exps, _ in self.coeffs)

    def grades(self) -> set:
        return {blade_grade(mask) for _, mask in self.coeffs}

    # --- ring operations ---

    def _check(self, other: "CliffPoly") -> None:
        if self.m != other.m:
            raise DimensionMismatchError(f"m={self.m} vs m={other.m}")

    def __add__(self, other):
        if not isinstance(other, CliffPoly):
            return NotImplemented
        self._check(other)
        out = dict(self.coeffs)
        for key, v in other.coeffs.items():
            out[key] = out.get(key, 0) + v
        return CliffPoly._of(self.m, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return CliffPoly._of(self.m, {key: -v for key, v in self.coeffs.items()})

    def scale(self, value) -> "CliffPoly":
        if isinstance(value, float):
            raise MixedVariantError("float scalar on exact polynomial; convert explicitly")
        c = _rational(Fraction(value))
        return CliffPoly._of(self.m, {key: c * v for key, v in self.coeffs.items()})

    def coeff_mul_left(self, mv: Multivector) -> "CliffPoly":
        """Left multiplication by a constant Clifford number."""
        return poly_mul(CliffPoly.constant(self.m, mv), self)

    def __mul__(self, other):
        if isinstance(other, CliffPoly):
            return poly_mul(self, other)
        return self.scale(other)

    __rmul__ = scale

    def shift_x0(self, n: int) -> "CliffPoly":
        """Multiply by the monomial x0^n."""
        return CliffPoly._of(self.m, {((e[0] + n,) + e[1:], mask): v for (e, mask), v in self.coeffs.items()})

    # --- calculus ---

    def diff(self, j: int) -> "CliffPoly":
        """Partial derivative with respect to x_j (j = 0 for x0)."""
        out = {}
        for (exps, mask), v in self.coeffs.items():
            e = exps[j]
            if e:
                out[exps[:j] + (e - 1,) + exps[j + 1:], mask] = e * v
        return CliffPoly._of(self.m, out)

    def restrict_x0(self) -> "CliffPoly":
        """Substitute x0 = 0."""
        return CliffPoly._of(self.m, {key: v for key, v in self.coeffs.items() if key[0][0] == 0})

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
    for (ep, mp), vp in p.coeffs.items():
        for (eq, mq), vq in q.coeffs.items():
            sign, mask = blade_product(mp, mq)
            key = tuple(map(add, ep, eq)), mask
            prod = vp * vq
            out[key] = out.get(key, 0) + (prod if sign > 0 else -prod)
    return CliffPoly._of(p.m, out)


def dirac(p: CliffPoly) -> CliffPoly:
    """Dirac operator: sum of e_j (d/dx_j) acting by left multiplication."""
    out = {}
    for (exps, mask), v in p.coeffs.items():
        for j in range(1, p.m + 1):
            e = exps[j]
            if e:
                sign, blade = blade_product(1 << (j - 1), mask)
                key = exps[:j] + (e - 1,) + exps[j + 1:], blade
                out[key] = out.get(key, 0) + (e * v if sign > 0 else -e * v)
    return CliffPoly._of(p.m, out)


def cr_apply(p: CliffPoly) -> CliffPoly:
    """Generalized Cauchy-Riemann operator d/dx0 + dirac."""
    return p.diff(0) + dirac(p)


def cr_conj_apply(p: CliffPoly) -> CliffPoly:
    """Conjugate Cauchy-Riemann operator d/dx0 - dirac."""
    return p.diff(0) - dirac(p)


def laplacian(p: CliffPoly, include_x0: bool = True) -> CliffPoly:
    out = {}
    for (exps, mask), v in p.coeffs.items():
        for j in range(0 if include_x0 else 1, p.m + 1):
            e = exps[j]
            if e > 1:
                key = exps[:j] + (e - 2,) + exps[j + 1:], mask
                out[key] = out.get(key, 0) + e * (e - 1) * v
    return CliffPoly._of(p.m, out)


def ck_extend_poly(f: CliffPoly) -> CliffPoly:
    """Unique monogenic extension of a polynomial in the vector variable.

    Returns sum_n (-x0)^n / n! dirac^n(f); dirac strictly lowers degree,
    so the series ends after deg f + 1 terms.
    """
    if f.depends_on_x0():
        raise ValueError("CK extension input must not depend on x0")
    out = CliffPoly.zero(f.m)
    g = f
    n = 0
    while g:
        out = out + g.shift_x0(n).scale(Fraction((-1) ** n, math.factorial(n)))
        g = dirac(g)
        n += 1
    return out


@dataclass(frozen=True)
class MonogenicityReport:
    ok: bool
    reason: str = ""
    witness: str = ""

    def __bool__(self) -> bool:
        return self.ok


def is_homogeneous_monogenic(p: CliffPoly, k: int) -> MonogenicityReport:
    """Check that p is homogeneous of degree k in the vector variable
    and annihilated by the Dirac operator."""
    if p.depends_on_x0():
        return MonogenicityReport(False, "depends on x0")
    if p.is_zero():
        return MonogenicityReport(False, "zero polynomial")
    for exps, _ in p.coeffs:
        if sum(exps) != k:
            return MonogenicityReport(False, "not homogeneous", witness=str(exps))
    d = dirac(p)
    if d:
        exps, coeff = min(d.terms.items())
        return MonogenicityReport(False, "not monogenic", witness=f"dirac term {exps} -> {coeff}")
    return MonogenicityReport(True)


def sample_p0(m: int) -> CliffPoly:
    """Shipped degree-0 sample: the constant 1."""
    return CliffPoly.one(m)


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


def coeff_c(n: int, nu: int, m: int) -> Fraction:
    """Product of m + 2(n-l) over l = 1..nu; empty product for nu = 0."""
    if nu < 0 or nu > n:
        raise ValueError(f"nu={nu} outside 0..{n}")
    out = Fraction(1)
    for l in range(1, nu + 1):
        out *= m + 2 * (n - l)
    return out


def hermite_rec(n: int, m: int) -> HermiteResult:
    """H_0 = 1, H_{j+1} = x_ H_j - dirac(H_j)."""
    if n < 0:
        raise ValueError("Hermite index must be nonnegative")
    x_ = CliffPoly.vector_variable(m)
    h = CliffPoly.one(m)
    for _ in range(n):
        h = poly_mul(x_, h) - dirac(h)
    return HermiteResult(n, m, h)


def hermite_closed(n: int, m: int) -> HermiteResult:
    """Binomial sums over even/odd vector powers with coeff_c weights."""
    if n < 0:
        raise ValueError("Hermite index must be nonnegative")
    half, odd = divmod(n, 2)
    out = CliffPoly.zero(m)
    for nu in range(half + 1):
        c = math.comb(half, nu) * coeff_c(half + odd, nu, m)
        out = out + vector_power(m, 2 * (half - nu) + odd).scale(c)
    return HermiteResult(n, m, out)


# --- text form -------------------------------------------------------------
#
# Terms render as `coef*x0^a x1^b*e{..}` in graded-lexicographic order,
# highest total degree first; the blade factor is omitted for scalar
# coefficients and exponent 1 prints without the caret.


def _format_monomial(exps) -> str:
    return " ".join(f"x{j}" if e == 1 else f"x{j}^{e}" for j, e in enumerate(exps) if e)


def format_poly(p: CliffPoly) -> str:
    terms = []
    for exps, mask in sorted(p.coeffs, key=lambda k: (-sum(k[0]), tuple(-e for e in k[0]), k[1])):
        v = p.coeffs[exps, mask]
        body = str(abs(v))
        mono = _format_monomial(exps)
        if mono:
            body += "*" + mono
        if mask:
            body += "*" + blade_label(mask, p.m)
        terms.append((v < 0, body))
    return join_signed(terms)


_VAR_RE = re.compile(r"x(\d+)(?:\^(\d+))?")


def parse_poly(text: str, m: int) -> CliffPoly:
    """Round-trip parser for the polynomial grammar."""
    if not 1 <= m <= MAX_DIMENSION:
        raise ValueError(f"dimension m must be in 1..{MAX_DIMENSION}, got {m}")
    coeffs: dict = {}
    for sign, factors in split_terms(tokenize(text, _POLY_TOKEN_RE)):
        value = Fraction(sign)
        exps = [0] * (m + 1)
        mask = 0
        for kind, tok in factors:
            if kind == "rat":
                value *= Fraction(tok)
            elif kind == "var":
                mo = _VAR_RE.fullmatch(tok)
                j = int(mo.group(1))
                if j > m:
                    raise ValueError(f"variable x{j} invalid for m={m}")
                exps[j] += int(mo.group(2) or 1)
            elif kind == "blade":
                mask, value = apply_blade(tok, m, mask, value)
            else:
                raise ValueError(f"unexpected token {tok!r} in polynomial")
        key = tuple(exps), mask
        coeffs[key] = coeffs.get(key, 0) + value
    return CliffPoly._of(m, coeffs)


_POLY_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<rat>\d+(?:/\d+)?)"
    r"|(?P<var>x\d+(?:\^\d+)?)"
    r"|(?P<blade>e\d+(?:_\d+)*)"
    r"|(?P<op>[+\-*])"
    r")"
)

