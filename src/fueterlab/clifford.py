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

`ExactStore` is the one exact store under `CliffPoly` and `AxialExpr`:
int numerators over one positive denominator.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from operator import add, sub
from types import MappingProxyType

MAX_DIMENSION = 16


class DimensionMismatchError(ValueError):
    """Operands live in Clifford algebras of different dimension."""


class MixedVariantError(TypeError):
    """Exact and numeric values were combined without explicit conversion."""


def _check_dimension(m: int) -> None:
    if not 1 <= m <= MAX_DIMENSION:
        raise ValueError(f"dimension m must be in 1..{MAX_DIMENSION}, got {m}")


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
        clean = {}
        for mask, val in (coeffs or {}).items():
            if not 0 <= mask < (1 << m):
                raise ValueError(f"blade mask {mask} invalid for m={m}")
            v = Fraction(exact_scalar(val)) if exact else float(val)
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

    def __getitem__(self, mask: int):
        return self.coeffs.get(mask, Fraction(0) if self.exact else 0.0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.m == other.m and self.exact == other.exact and self.coeffs == other.coeffs

    __hash__ = None

    def __bool__(self) -> bool:
        return bool(self.coeffs)

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
        c = exact_scalar(value) if self.exact else float(value)
        return Multivector._of(self.m, {mask: c * v for mask, v in self.coeffs.items()}, self.exact)

    def __mul__(self, other):
        if isinstance(other, Multivector):
            return gp(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        # scalars commute; multivector * multivector goes through __mul__
        return self.scale(other)

    def conjugate(self) -> "Multivector":
        """Clifford conjugation: a grade-k blade takes the sign (-1)^(k(k+1)/2)."""
        out = {}
        for mask, v in self.coeffs.items():
            out[mask] = -v if blade_grade(mask) % 4 in (1, 2) else v
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


_SET_M, _SET_EXACT, _SET_COEFFS = Multivector.m.__set__, Multivector.exact.__set__, Multivector.coeffs.__set__


def _float_of(m: int, coeffs: dict) -> Multivector:
    """`Multivector._of(m, coeffs, False)` for float coeffs that hold no zero: no filtering pass, no copy."""
    a = object.__new__(Multivector)
    _SET_M(a, m)
    _SET_EXACT(a, False)
    _SET_COEFFS(a, coeffs)
    return a


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


# --- the exact store ---------------------------------------------------------


def exact_scalar(value):
    """value as an int or a Fraction, which both have a numerator and a denominator."""
    if type(value) is int or type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise MixedVariantError(f"float {value!r} in exact arithmetic; convert explicitly")
    return Fraction(value)


def over_one_den(values: dict) -> tuple:
    """({key: int numerator}, den) of the nonzero values of {key: int or Fraction},
    den the lcm of their denominators."""
    den = math.lcm(*(v.denominator for v in values.values()))
    return {key: v.numerator * (den // v.denominator) for key, v in values.items() if v}, den


class ExactStore:
    """Exact coefficients under keys, held as one dict {key: nonzero int numerator} over one
    positive int denominator, so kernels add and multiply plain ints and never form a Fraction.

    A result whose denominator grew past its operands' divides out the common factor of its
    denominator and numerators; the others keep an operand's denominator, so one value may be
    held over several denominators.  Subclasses validate and pack the keys, keep any further
    state and provide the kernels; computed results come from the trusted `_of`, which a
    subclass with more state than the store overrides, together with `_like`.
    """

    # _view, the read-only view, is built on first use
    __slots__ = ("_num", "_den", "_view")

    def _store(self, values: dict) -> None:
        """Hold validated {key: int or Fraction}, for a subclass's public constructor."""
        num, den = over_one_den(values)
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)

    @classmethod
    def _of(cls, num: dict, den: int = 1, grew: bool = False):
        """Trusted constructor for computed {key: int numerator} over den > 0; drops zeros.
        If den grew past the operands' own, its common factor with the numerators divides out."""
        if 0 in num.values():
            num = {key: n for key, n in num.items() if n}
        if grew:
            c = math.gcd(den, *num.values())
            if c != 1:
                den //= c
                num = {key: n // c for key, n in num.items()}
        out = object.__new__(cls)
        object.__setattr__(out, "_num", num)
        object.__setattr__(out, "_den", den)
        return out

    # self._like(num, den, grew): a store of self's kind; `_of` itself where the store is all the state
    _like = _of

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _view_keys(self):
        """The view's keys in store order: the store's own, unless a subclass unpacks them."""
        return self._num

    def _exact_view(self) -> MappingProxyType:
        """{key: c} in store order, c an int if integral and a reduced Fraction otherwise;
        built on first read and kept."""
        try:
            return self._view
        except AttributeError:
            d, view = self._den, self._num
            keys = self._view_keys()
            if d != 1 or keys is not view:
                view = {key: n // d if n % d == 0 else Fraction(n, d) for key, n in zip(keys, view.values())}
            object.__setattr__(self, "_view", MappingProxyType(view))
            return self._view

    def __bool__(self) -> bool:
        return bool(self._num)

    def lcm_weights(self, other: "ExactStore") -> tuple:
        """(den, ma, mb): den the lcm of the two denominators, ma and mb the factors that lift
        the numerators of self and of other to it."""
        da, db = self._den, other._den
        den = math.lcm(da, db)
        return den, den // da, den // db

    def _combine(self, other, sign: int):
        """self + sign * other over the lcm of the two denominators."""
        den, ma, mb = self.lcm_weights(other)
        grew = ma != 1 and mb != 1
        mb *= sign
        out = dict(self._num) if ma == 1 else {key: n * ma for key, n in self._num.items()}
        get = out.get
        for key, n in other._num.items():
            old = get(key)
            out[key] = mb * n if old is None else old + mb * n
        return self._like(out, den, grew)

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._combine(other, -1)

    def __neg__(self):
        return self._like({key: -n for key, n in self._num.items()}, self._den)

    def scale(self, value):
        c = exact_scalar(value)
        n, d = c.numerator, c.denominator
        # what the scalar's numerator shares with the denominator cancels at once; a unit
        # numerator, as in the CK extension's 1/N!, leaves the numerators as they are
        s = math.gcd(n, self._den)
        n //= s
        num = self._num if n == 1 else {key: n * v for key, v in self._num.items()}
        return self._like(num, self._den // s * d, d != 1)

    __rmul__ = scale


# --- text form -------------------------------------------------------------
#
# One grammar serves multivectors, polynomials and axial expressions.  A text
# is terms joined by + and -; a term is factors joined by * or blanks:
# numbers, blades e{indices} ('_'-separated above m = 9) and the factors
# x<j>, r and Q, each with an optional ^-?\d+, E (long form
# exp((x0^2-r^2)/2)), cos and sin.  Exact numbers print as integers or
# fractions; floats as round-trip reprs with an uppercase exponent marker, so
# that the blade token 'e...' stays unambiguous.  Multivector text has no
# factors, polynomial and axial text no floats, and axial text no blades; the
# polynomial and axial parsers take the factors their form knows and refuse
# the rest.

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<float>\d+\.\d*(?:E[+-]?\d+)?|\.\d+(?:E[+-]?\d+)?|\d+E[+-]?\d+)"
    r"|(?P<rat>\d+(?:/\d+)?)"
    r"|(?P<blade>e\d+(?:_\d+)*)"
    r"|(?P<power>(?:x\d+|r|Q)(?:\^-?\d+)?)"
    r"|(?P<flag>E\b|exp\(\(x0\^2-r\^2\)/2\)|cos|sin)"
    r"|(?P<op>[+\-*])"
    r")"
)


def _read_terms(text: str, m, exact):
    """Yield (value, blade mask, {factor: exponent}) per term of `text`.

    exact is True or False for a multivector, whose text has numbers as
    Fractions or floats and no factors, and None for a polynomial or an
    axial expression, whose text has factors and no floats; m is the
    dimension blades are read in, None for an axial expression, which has
    none.  The kinds a form lacks stop the tokenizer, and the whole text is
    tokenized before the first term is read.
    """
    lacks = ("power", "flag") if exact is not None else ("float", "blade") if m is None else ("float",)
    tokens, pos = [], 0
    while (mo := _TOKEN_RE.match(text, pos)) and mo.lastgroup not in lacks:
        pos = mo.end()
        tokens.append((mo.lastgroup, mo.group(mo.lastgroup)))
    if text[pos:].strip():
        raise ValueError(f"cannot tokenize {text[pos:]!r}")
    sign, run = 1, []
    for kind, tok in tokens + [("op", "+")]:
        if kind != "op":
            run.append((kind, tok))
        elif tok != "*":  # '*' is implicit between factors
            if run:
                yield _read_term(sign, run, m, exact)
                sign, run = 1, []
            if tok == "-":
                sign = -sign


def _read_term(sign: int, run, m, exact):
    value = Fraction(sign) if exact is not False else float(sign)
    mask, factors = 0, {}
    for kind, tok in run:
        if kind == "rat":
            try:
                q = Fraction(tok)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in {tok!r}") from None
            value *= q if exact is not False else float(q)
        elif kind == "float":
            if exact:
                raise MixedVariantError(f"float literal {tok!r} in exact multivector")
            value *= float(tok)
        elif kind == "blade":
            body = tok[1:]
            idx = body.split("_") if "_" in body or m > 9 else body
            s, mask = blade_product(mask, mask_from_indices(map(int, idx), m))
            value = -value if s < 0 else value
        elif kind == "power":
            name, _, e = tok.partition("^")
            factors[name] = factors.get(name, 0) + (int(e) if e else 1)
        else:  # E or its long form, cos or sin
            name = tok if tok in ("cos", "sin") else "E"
            factors[name] = factors.get(name, 0) + 1
    return value, mask, factors


def power_text(name: str, e: int) -> str:
    """The factor name^e, or name alone for e = 1."""
    return name if e == 1 else f"{name}^{e}"


def write_terms(terms) -> str:
    """Write (coefficient, factor texts) pairs as `c*f*g - d*h + ...`; '0' when empty.

    int and Fraction coefficients print by str, floats by repr with 'E' for 'e'.
    """
    parts = []
    for c, factors in terms:
        v = abs(c)
        body = "*".join((str(v) if isinstance(v, (int, Fraction)) else repr(v).replace("e", "E"), *factors))
        if parts:
            parts.append(("- " if c < 0 else "+ ") + body)
        else:
            parts.append(("-" if c < 0 else "") + body)
    return " ".join(parts) or "0"


def format_multivector(a: Multivector) -> str:
    return write_terms((v, [blade_label(mask, a.m)] if mask else []) for mask, v in sorted(a.coeffs.items()))


def parse_multivector(text: str, m: int, exact: bool = True) -> Multivector:
    """Parse the `c*e{indices}` grammar produced by `format_multivector`."""
    coeffs: dict = {}
    for value, mask, _ in _read_terms(text, m, exact):
        coeffs[mask] = coeffs.get(mask, 0) + value
    return Multivector(m, coeffs, exact)
