"""Exact polynomials in x0, x1, ..., xm with Clifford coefficients.

Monomials are commuting scalar variables, so a polynomial is stored as
{exponent tuple: Multivector}, exponent slot 0 belonging to x0.  All
coefficients are exact; noncommutativity only enters through the
coefficient products.  Coefficients sit on the left of their monomials.

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

from .clifford import (
    DimensionMismatchError,
    Multivector,
    apply_blade,
    blade_label,
    gp,
    join_signed,
    split_terms,
    tokenize,
    _format_value,
)

DEFAULT_DEGREE_CAP = 64


class DegreeCapError(ValueError):
    """A series or power exceeded the configured degree cap."""


class CliffPoly:
    """Multivariate polynomial with exact Multivector coefficients."""

    __slots__ = ("m", "terms")

    def __init__(self, m: int, terms=None):
        clean = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != m + 1 or any(e < 0 for e in exps):
                raise ValueError(f"exponent vector {exps} invalid for m={m}")
            if not isinstance(coeff, Multivector) or not coeff.exact:
                raise TypeError("CliffPoly coefficients must be exact Multivectors")
            if coeff.m != m:
                raise DimensionMismatchError(f"coefficient m={coeff.m} vs poly m={m}")
            if coeff:
                clean[exps] = coeff
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("CliffPoly is immutable")

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
        exps = tuple(1 if i == j else 0 for i in range(m + 1))
        return cls(m, {exps: Multivector.scalar(m, 1)})

    @classmethod
    def vector_variable(cls, m: int) -> "CliffPoly":
        """The vector variable x1 e_1 + ... + xm e_m."""
        terms = {}
        for j in range(1, m + 1):
            exps = tuple(1 if i == j else 0 for i in range(m + 1))
            terms[exps] = Multivector.basis(m, j)
        return cls(m, terms)

    # --- bookkeeping ---

    def __eq__(self, other) -> bool:
        if not isinstance(other, CliffPoly):
            return NotImplemented
        return self.m == other.m and self.terms == other.terms

    __hash__ = None

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def depends_on_x0(self) -> bool:
        return any(e[0] for e in self.terms)

    def grades(self) -> set:
        out = set()
        for coeff in self.terms.values():
            out |= coeff.grades()
        return out

    # --- ring operations ---

    def _check(self, other: "CliffPoly") -> None:
        if self.m != other.m:
            raise DimensionMismatchError(f"m={self.m} vs m={other.m}")

    def __add__(self, other):
        if not isinstance(other, CliffPoly):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            cur = out.get(exps)
            out[exps] = coeff if cur is None else cur + coeff
        return CliffPoly(self.m, out)

    def __sub__(self, other):
        if not isinstance(other, CliffPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return CliffPoly(self.m, {exps: -coeff for exps, coeff in self.terms.items()})

    def scale(self, value) -> "CliffPoly":
        return CliffPoly(self.m, {exps: coeff.scale(value) for exps, coeff in self.terms.items()})

    def coeff_mul_left(self, mv: Multivector) -> "CliffPoly":
        """Left multiplication by a constant Clifford number."""
        return CliffPoly(self.m, {exps: gp(mv, coeff) for exps, coeff in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, CliffPoly):
            return poly_mul(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        if isinstance(other, Multivector):
            return self.coeff_mul_left(other)
        return self.scale(other)

    def shift_x0(self, n: int) -> "CliffPoly":
        """Multiply by the monomial x0^n."""
        out = {}
        for exps, coeff in self.terms.items():
            out[(exps[0] + n,) + exps[1:]] = coeff
        return CliffPoly(self.m, out)

    # --- calculus ---

    def diff(self, j: int) -> "CliffPoly":
        """Partial derivative with respect to x_j (j = 0 for x0)."""
        out = {}
        for exps, coeff in self.terms.items():
            e = exps[j]
            if e:
                key = exps[:j] + (e - 1,) + exps[j + 1:]
                term = coeff.scale(e)
                cur = out.get(key)
                out[key] = term if cur is None else cur + term
        return CliffPoly(self.m, out)

    def restrict_x0(self) -> "CliffPoly":
        """Substitute x0 = 0."""
        return CliffPoly(self.m, {e: c for e, c in self.terms.items() if e[0] == 0})

    def eval(self, x0: float, xs) -> Multivector:
        """Binary64 evaluation at a point of R^{m+1}."""
        if len(xs) != self.m:
            raise ValueError(f"expected {self.m} coordinates, got {len(xs)}")
        total: dict = {}
        for exps, coeff in self.terms.items():
            mono = x0 ** exps[0] if exps[0] else 1.0
            for x, e in zip(xs, exps[1:]):
                if e:
                    mono *= x ** e
            for mask, c in coeff.coeffs.items():
                v = mono * float(c)
                if v:
                    # a cancelled blade leaves the dict: blade order fixes the rounding of later products
                    total[mask] = total.get(mask, 0) + v
                    if not total[mask]:
                        del total[mask]
        return Multivector(self.m, total, exact=False)

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"CliffPoly(m={self.m}, {format_poly(self)!r})"


def poly_mul(p: CliffPoly, q: CliffPoly) -> CliffPoly:
    """Noncommutative product; coefficients multiply as gp(p_coeff, q_coeff)."""
    p._check(q)
    out = {}
    for ep, cp in p.terms.items():
        for eq, cq in q.terms.items():
            key = tuple(a + b for a, b in zip(ep, eq))
            term = gp(cp, cq)
            cur = out.get(key)
            out[key] = term if cur is None else cur + term
    return CliffPoly(p.m, out)


def dirac(p: CliffPoly) -> CliffPoly:
    """Dirac operator: sum of e_j (d/dx_j) acting by left multiplication."""
    m = p.m
    out = CliffPoly.zero(m)
    for j in range(1, m + 1):
        out = out + p.diff(j).coeff_mul_left(Multivector.basis(m, j))
    return out


def cr_apply(p: CliffPoly) -> CliffPoly:
    """Generalized Cauchy-Riemann operator d/dx0 + dirac."""
    return p.diff(0) + dirac(p)


def cr_conj_apply(p: CliffPoly) -> CliffPoly:
    """Conjugate Cauchy-Riemann operator d/dx0 - dirac."""
    return p.diff(0) - dirac(p)


def laplacian(p: CliffPoly, include_x0: bool = True) -> CliffPoly:
    out = CliffPoly.zero(p.m)
    start = 0 if include_x0 else 1
    for j in range(start, p.m + 1):
        out = out + p.diff(j).diff(j)
    return out


def ck_extend_poly(f: CliffPoly, degree_cap: int = DEFAULT_DEGREE_CAP) -> CliffPoly:
    """Unique monogenic extension of a polynomial in the vector variable.

    Returns sum_n (-x0)^n / n! dirac^n(f); the series terminates because
    dirac strictly lowers degree.
    """
    if f.depends_on_x0():
        raise ValueError("CK extension input must not depend on x0")
    out = CliffPoly.zero(f.m)
    g = f
    n = 0
    while g:
        if n > degree_cap:
            raise DegreeCapError(f"CK series exceeded degree cap {degree_cap}")
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
    for exps in p.terms:
        if sum(exps) != k:
            return MonogenicityReport(False, "not homogeneous", witness=str(exps))
    d = dirac(p)
    if d:
        exps, coeff = next(iter(sorted(d.terms.items())))
        return MonogenicityReport(False, "not monogenic", witness=f"dirac term {exps} -> {coeff}")
    return MonogenicityReport(True)


def sample_p0(m: int) -> CliffPoly:
    """Shipped degree-0 sample: the constant 1."""
    return CliffPoly.one(m)


def sample_p1(m: int) -> CliffPoly:
    """Shipped degree-1 sample: x1 e_1 - x2 e_2 (needs m >= 2)."""
    if m < 2:
        raise ValueError("the shipped degree-1 sample needs m >= 2")
    x1 = CliffPoly.variable(m, 1).coeff_mul_left(Multivector.basis(m, 1))
    x2 = CliffPoly.variable(m, 2).coeff_mul_left(Multivector.basis(m, 2))
    return x1 - x2


# --- powers of the vector variable ------------------------------------------

_XPOW_CACHE: dict = {}


def vector_power(m: int, n: int) -> CliffPoly:
    """x_ underline to the n-th power, computed by repeated poly_mul.

    Treat cached values as immutable.
    """
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
    out = CliffPoly.zero(m)
    for j in range(1, m + 1):
        xj = CliffPoly.variable(m, j)
        out = out + poly_mul(xj, xj)
    return out


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
    parts = []
    for j, e in enumerate(exps):
        if e == 1:
            parts.append(f"x{j}")
        elif e:
            parts.append(f"x{j}^{e}")
    return " ".join(parts)


def format_poly(p: CliffPoly) -> str:
    flat = []
    for exps, coeff in p.terms.items():
        for mask, v in coeff.coeffs.items():
            flat.append((exps, mask, v))
    flat.sort(key=lambda t: (-sum(t[0]), tuple(-e for e in t[0]), t[1]))
    terms = []
    for exps, mask, v in flat:
        body = _format_value(abs(v))
        mono = _format_monomial(exps)
        if mono:
            body += "*" + mono
        if mask:
            body += "*" + blade_label(mask, p.m)
        terms.append((v < 0, body))
    return join_signed(terms)


_VAR_TOKEN = "var"
_VAR_RE = re.compile(r"x(\d+)(?:\^(\d+))?")


def parse_poly(text: str, m: int) -> CliffPoly:
    """Round-trip parser for the polynomial grammar."""
    terms: dict = {}
    for sign, factors in split_terms(tokenize(text, _POLY_TOKEN_RE)):
        value = Fraction(sign)
        exps = [0] * (m + 1)
        mask = 0
        for kind, tok in factors:
            if kind == "rat":
                value *= Fraction(tok)
            elif kind == _VAR_TOKEN:
                mo = _VAR_RE.fullmatch(tok)
                j = int(mo.group(1))
                if j > m:
                    raise ValueError(f"variable x{j} invalid for m={m}")
                exps[j] += int(mo.group(2) or 1)
            elif kind == "blade":
                mask, value = apply_blade(tok, m, mask, value)
            else:
                raise ValueError(f"unexpected token {tok!r} in polynomial")
        key = tuple(exps)
        mv = Multivector(m, {mask: value})
        cur = terms.get(key)
        terms[key] = mv if cur is None else cur + mv
    return CliffPoly(m, terms)


_POLY_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<rat>\d+(?:/\d+)?)"
    r"|(?P<var>x\d+(?:\^\d+)?)"
    r"|(?P<blade>e\d+(?:_\d+)*)"
    r"|(?P<op>[+\-*])"
    r")"
)

