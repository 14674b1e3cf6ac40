"""Exact and floating-point arithmetic in the real Clifford algebra R_{0,m}.

The generators e_1, ..., e_m anticommute and square to -1.  A basis blade
e_A (A a subset of {1,...,m} with ascending indices) is encoded as an m-bit
mask whose bit j-1 marks the presence of e_j; the empty mask is the
identity.  Multivectors are stored sparsely as {mask: coefficient} with
zero coefficients removed, so structural equality coincides with algebraic
equality.

Coefficients are either all Fraction (exact variant) or all float (numeric
variant).  The two variants never mix implicitly; conversion is the
explicit, lossy `to_float`.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from operator import add, sub

MAX_DIMENSION = 16


class DimensionMismatchError(ValueError):
    """Operands live in Clifford algebras of different dimension."""


class MixedVariantError(TypeError):
    """Exact and numeric values were combined without explicit conversion."""


def _check_dimension(m: int) -> None:
    if not 1 <= m <= MAX_DIMENSION:
        raise ValueError(f"dimension m must be in 1..{MAX_DIMENSION}, got {m}")


def _rational(v):
    """Integral values are stored as int, whose arithmetic is far cheaper than Fraction's."""
    return v.numerator if v.denominator == 1 else v


def sum_squares(values) -> float:
    """Float sum of squares, left to right, rounding after each addition; from Python 3.12
    on the builtin `sum` compensates float additions, so its last bit depends on the version."""
    total = 0.0
    for v in values:
        total += v * v
    return total


def blade_grade(mask: int) -> int:
    return mask.bit_count()


@lru_cache(maxsize=4096)
def blade_product(mask_a: int, mask_b: int) -> tuple[int, int]:
    """Sign and mask of the blade product e_A e_B.

    Transpositions needed to interleave the two ascending index sequences
    are counted with shifted popcounts; each generator common to both
    blades then contributes one factor e_j^2 = -1.  Memoized: a workload
    meets a few hundred distinct pairs, and the bound caps the memory at
    m = 16.
    """
    swaps = 0
    t = mask_a >> 1
    while t:
        swaps += blade_grade(t & mask_b)
        t >>= 1
    swaps += blade_grade(mask_a & mask_b)
    return (-1 if swaps & 1 else 1), mask_a ^ mask_b


def blade_product_naive(indices_a, indices_b) -> tuple[int, tuple[int, ...]]:
    """Reference blade product on explicit index tuples.

    Bubble-sorts the concatenated index list counting transpositions, then
    contracts equal neighbours with e_j^2 = -1.  Used as an independent
    oracle for `blade_product`.
    """
    seq = list(indices_a) + list(indices_b)
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(seq) - 1):
            if seq[i] > seq[i + 1]:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                sign = -sign
                changed = True
    out = []
    i = 0
    while i < len(seq):
        if i + 1 < len(seq) and seq[i] == seq[i + 1]:
            sign = -sign
            i += 2
        else:
            out.append(seq[i])
            i += 1
    return sign, tuple(out)


def conjugation_sign(grade: int) -> int:
    """Per-grade sign (-1)^(k(k+1)/2) of Clifford conjugation."""
    return -1 if grade % 4 in (1, 2) else 1


def mask_from_indices(indices, m: int) -> int:
    mask = 0
    for j in indices:
        if not 1 <= j <= m:
            raise ValueError(f"generator index {j} outside 1..{m}")
        if mask >> (j - 1) & 1:
            raise ValueError(f"repeated generator index {j} in blade")
        mask |= 1 << (j - 1)
    return mask


def indices_from_mask(mask: int) -> tuple[int, ...]:
    return tuple(j + 1 for j in range(mask.bit_length()) if mask >> j & 1)


def blade_label(mask: int, m: int) -> str:
    """Blade name, e.g. e12 for e_1 e_2; '_'-separated above m = 9."""
    if mask == 0:
        return "1"
    idx = indices_from_mask(mask)
    sep = "" if m <= 9 else "_"
    return "e" + sep.join(str(j) for j in idx)


class Multivector:
    """Element of R_{0,m} with sparse blade-indexed coefficients."""

    __slots__ = ("m", "exact", "coeffs")

    def __init__(self, m: int, coeffs=None, exact: bool = True):
        _check_dimension(m)
        conv = Fraction if exact else float
        clean = {}
        for mask, val in (coeffs or {}).items():
            if not 0 <= mask < (1 << m):
                raise ValueError(f"blade mask {mask} invalid for m={m}")
            if exact and type(val) is float:
                raise MixedVariantError(f"float coefficient {val!r} in exact multivector; convert explicitly")
            v = conv(val)
            if v:
                clean[mask] = v
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "coeffs", clean)

    @classmethod
    def _of(cls, m: int, coeffs: dict, exact: bool) -> "Multivector":
        """Trusted constructor for computed {mask: coeff} of the given variant; drops zeros."""
        a = object.__new__(cls)
        object.__setattr__(a, "m", m)
        object.__setattr__(a, "exact", exact)
        object.__setattr__(a, "coeffs", {mask: v for mask, v in coeffs.items() if v})
        return a

    def __setattr__(self, name, value):
        raise AttributeError("Multivector is immutable")

    # --- constructors ---

    @classmethod
    def zero(cls, m: int, exact: bool = True) -> "Multivector":
        return cls(m, {}, exact)

    @classmethod
    def scalar(cls, m: int, value, exact: bool = True) -> "Multivector":
        return cls(m, {0: value}, exact)

    @classmethod
    def basis(cls, m: int, *indices: int, exact: bool = True) -> "Multivector":
        return cls(m, {mask_from_indices(indices, m): 1}, exact)

    @classmethod
    def vector(cls, m: int, xs, exact: bool = True) -> "Multivector":
        if len(xs) != m:
            raise ValueError(f"expected {m} vector components, got {len(xs)}")
        return cls(m, {1 << j: xs[j] for j in range(m)}, exact)

    # --- bookkeeping ---

    def _check_compatible(self, other: "Multivector") -> None:
        if self.m != other.m:
            raise DimensionMismatchError(f"m={self.m} vs m={other.m}")
        if self.exact != other.exact:
            raise MixedVariantError("exact and numeric multivectors cannot mix; convert explicitly")

    def _coerce_scalar(self, value):
        if self.exact:
            if isinstance(value, float):
                raise MixedVariantError("float scalar on exact multivector; convert explicitly")
            return Fraction(value)
        return float(value)

    def __getitem__(self, mask: int):
        return self.coeffs.get(mask, Fraction(0) if self.exact else 0.0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.m == other.m and self.exact == other.exact and self.coeffs == other.coeffs

    __hash__ = None

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def grades(self) -> set:
        return {blade_grade(mask) for mask in self.coeffs}

    # --- arithmetic ---

    def _combine(self, other: "Multivector", sign: int) -> "Multivector":
        """self + other for sign 1, self - other for sign -1, blade by blade."""
        self._check_compatible(other)
        op = add if sign > 0 else sub
        out = dict(self.coeffs)
        for mask, v in other.coeffs.items():
            out[mask] = op(out.get(mask, 0), v)
        return Multivector._of(self.m, out, self.exact)

    def __add__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return self._combine(other, -1)

    def __neg__(self):
        return Multivector._of(self.m, {mask: -v for mask, v in self.coeffs.items()}, self.exact)

    def scale(self, value) -> "Multivector":
        c = self._coerce_scalar(value)
        return Multivector._of(self.m, {mask: c * v for mask, v in self.coeffs.items()}, self.exact)

    def __mul__(self, other):
        if isinstance(other, Multivector):
            return gp(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        # scalars commute; multivector * multivector goes through __mul__
        return self.scale(other)

    def conjugate(self) -> "Multivector":
        out = {}
        for mask, v in self.coeffs.items():
            out[mask] = v if conjugation_sign(blade_grade(mask)) > 0 else -v
        return Multivector._of(self.m, out, self.exact)

    def grade(self, k: int) -> "Multivector":
        if not 0 <= k <= self.m:
            raise ValueError(f"grade {k} outside 0..{self.m}")
        kept = {mask: v for mask, v in self.coeffs.items() if blade_grade(mask) == k}
        return Multivector._of(self.m, kept, self.exact)

    def norm_sq(self):
        """Squared norm [a conj(a)]_0 = sum of squared coefficients."""
        values = self.coeffs.values()
        return sum((v * v for v in values), Fraction(0)) if self.exact else sum_squares(values)

    def norm(self) -> float:
        return math.sqrt(float(self.norm_sq()))

    def to_float(self) -> "Multivector":
        """Explicit lossy conversion to the binary64 variant."""
        if not self.exact:
            return self
        return Multivector._of(self.m, {mask: float(v) for mask, v in self.coeffs.items()}, False)

    def __str__(self) -> str:
        return format_multivector(self)

    def __repr__(self) -> str:
        return f"Multivector(m={self.m}, {format_multivector(self)!r}, exact={self.exact})"


def gp(a: Multivector, b: Multivector) -> Multivector:
    """Geometric product in R_{0,m}."""
    a._check_compatible(b)
    out = {}
    for ma, va in a.coeffs.items():
        for mb, vb in b.coeffs.items():
            sign, mask = blade_product(ma, mb)
            prod = va * vb
            out[mask] = out.get(mask, 0) + (prod if sign > 0 else -prod)
    return Multivector._of(a.m, out, a.exact)


# --- text form -------------------------------------------------------------
#
# Multivectors render as coefficient*blade terms sorted by mask, e.g.
#   3 - 2*e1 + 1*e12
# Exact coefficients print as integers or fractions; numeric ones as
# round-trip floats with an uppercase exponent marker so that the blade
# token 'e...' stays unambiguous.

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<float>\d+\.\d*(?:E[+-]?\d+)?|\.\d+(?:E[+-]?\d+)?|\d+E[+-]?\d+)"
    r"|(?P<rat>\d+(?:/\d+)?)"
    r"|(?P<blade>e\d+(?:_\d+)*)"
    r"|(?P<op>[+\-*])"
    r")"
)


def _format_value(v) -> str:
    if isinstance(v, Fraction):
        return str(v)
    s = repr(float(v))
    return s.replace("e", "E")


def join_signed(terms) -> str:
    """Join (negative, magnitude text) pairs as `a - b + c`; '0' when empty."""
    parts = []
    for neg, body in terms:
        if parts:
            parts.append(("- " if neg else "+ ") + body)
        else:
            parts.append(("-" if neg else "") + body)
    return " ".join(parts) or "0"


def format_multivector(a: Multivector) -> str:
    terms = []
    for mask, v in sorted(a.coeffs.items()):
        body = _format_value(abs(v))
        if mask:
            body += "*" + blade_label(mask, a.m)
        terms.append((v < 0, body))
    return join_signed(terms)


def tokenize(text: str, token_re) -> list:
    """Split text into (group name, lexeme) pairs with a named-group regex."""
    pos = 0
    tokens = []
    while pos < len(text):
        mo = token_re.match(text, pos)
        if mo is None or mo.end() == pos:
            if text[pos:].strip():
                raise ValueError(f"cannot tokenize {text[pos:]!r}")
            break
        pos = mo.end()
        tokens.append((mo.lastgroup, mo.group(mo.lastgroup)))
    return tokens


def split_terms(tokens):
    """Group tokens into (sign, factors) runs at top-level +/-."""
    terms = []
    sign = 1
    factors = []
    for kind, tok in tokens:
        if kind == "op" and tok in "+-":
            if factors:
                terms.append((sign, factors))
                factors = []
                sign = 1
            if tok == "-":
                sign = -sign
        elif kind == "op":
            continue  # '*' is implicit between factors
        else:
            factors.append((kind, tok))
    if factors:
        terms.append((sign, factors))
    return terms


def apply_blade(tok: str, m: int, mask: int, value):
    """Right-multiply the blade token `tok` onto value * e_mask; returns (mask, value)."""
    body = tok[1:]
    idx = [int(s) for s in body.split("_")] if "_" in body or m > 9 else [int(c) for c in body]
    sign, mask = blade_product(mask, mask_from_indices(idx, m))
    return mask, (-value if sign < 0 else value)


def parse_multivector(text: str, m: int, exact: bool = True) -> Multivector:
    """Parse the `c*e{indices}` grammar produced by `format_multivector`."""
    coeffs: dict = {}
    for sign, factors in split_terms(tokenize(text, _TOKEN_RE)):
        value = Fraction(sign) if exact else float(sign)
        mask = 0
        for kind, tok in factors:
            if kind == "rat":
                value = value * (Fraction(tok) if exact else float(Fraction(tok)))
            elif kind == "float":
                if exact:
                    raise MixedVariantError(f"float literal {tok!r} in exact multivector")
                value = value * float(tok)
            elif kind == "blade":
                mask, value = apply_blade(tok, m, mask, value)
            else:
                raise ValueError(f"unexpected token {tok!r} in multivector")
        coeffs[mask] = coeffs.get(mask, 0) + value
    return Multivector(m, coeffs, exact)
