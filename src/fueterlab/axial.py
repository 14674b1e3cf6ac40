"""Exact symbolic calculus on functions of (x0, r) from a closed term algebra.

A term is a rational multiple of

    x0^a * r^b * Q^-p * E^g * T(x0*r)

with Q = x0^2 + r^2, E = exp((x0^2 - r^2)/2), and T one of {1, cos, sin}
with argument fixed to x0*r.  Exponents: a >= 0, b any integer, p >= 0,
g in {0, 1}.  This family is closed under d/dx0, d/dr, division by r, and
products in which at most one factor carries a trig tag and at most one
carries the exp flag.  Trig phase shifts by multiples of pi/2 fold into
the tag and the sign of the coefficient, so keys stay canonical.
Coefficients are rational, never float, and are held in the exact store of
`clifford` (int numerators over one denominator per expression); computed
results bypass validation through the trusted `AxialExpr._of`.

Equality of expressions is semantic: the six (exp flag, trig tag) classes
are linearly independent over rational functions in (x0, r), so an
expression vanishes identically on {r > 0} iff, for every class, the
polynomial obtained by expanding Q and clearing the denominators r^B Q^P
vanishes.  `AxialExpr.__eq__` implements exactly this decision.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

from .clifford import ExactStore, _read_terms, exact_scalar, power_text, write_terms

TRIG_NONE = ""
TRIG_COS = "cos"
TRIG_SIN = "sin"
_TRIGS = (TRIG_NONE, TRIG_COS, TRIG_SIN)
_TRIG_DIFF = {TRIG_COS: (-1, TRIG_SIN), TRIG_SIN: (1, TRIG_COS)}  # d/dtheta: sign and tag


class AlgebraClosureError(ValueError):
    """An operation would leave the closed term algebra."""


class EvalDomainError(ValueError):
    """Evaluation requested outside the expression's domain."""


def _check_key(a: int, b: int, p: int, g: int, t: str) -> None:
    if not all(type(e) is int for e in (a, b, p, g)):
        raise TypeError(f"exponents must be int, got key {(a, b, p, g, t)!r}")
    if a < 0:
        raise AlgebraClosureError("negative x0 exponent is outside the algebra")
    if p < 0:
        raise ValueError("Q exponent must be nonnegative")
    if g not in (0, 1):
        raise ValueError("exp flag must be 0 or 1")
    if t not in _TRIGS:
        raise ValueError(f"unknown trig tag {t!r}")


def _add_diff(out: dict, expr: "AxialExpr", var: str, c: int = 1, pre: int = 0, post: int = 0) -> dict:
    """Add c * d/dvar of expr's numerators into out, in one pass, and return out.

    For d/dr each r exponent is shifted by pre before the derivative and by
    post after it, so pre = s, post = -s gives r^-s d/dr(r^s f) = df/dr + s f/r.
    The only statement of the product rules on x0^a r^b Q^-p E^g T(x0 r).
    """
    get = out.get
    num = expr._num
    if var == "x0":
        for (a, b, p, g, t), q in num.items():
            q *= c
            if a:
                key = (a - 1, b, p, g, t)
                out[key] = get(key, 0) + a * q
            if p:
                key = (a + 1, b, p + 1, g, t)
                out[key] = get(key, 0) - 2 * p * q
            if g:
                key = (a + 1, b, p, g, t)
                out[key] = get(key, 0) + q
            if t:
                sign, tag = _TRIG_DIFF[t]
                key = (a, b + 1, p, g, tag)
                out[key] = get(key, 0) + sign * q
    elif var == "r":
        s = pre + post
        for (a, b, p, g, t), q in num.items():
            q *= c
            e = b + pre  # the r exponent the derivative sees
            b += s
            if e:
                key = (a, b - 1, p, g, t)
                out[key] = get(key, 0) + e * q
            if p:
                key = (a, b + 1, p + 1, g, t)
                out[key] = get(key, 0) - 2 * p * q
            if g:
                key = (a, b + 1, p, g, t)
                out[key] = get(key, 0) - q
            if t:
                sign, tag = _TRIG_DIFF[t]
                key = (a + 1, b, p, g, tag)
                out[key] = get(key, 0) + sign * q
    else:
        raise ValueError(f"unknown variable {var!r}")
    return out


@lru_cache(maxsize=None)
def _binomial_row(e: int) -> tuple:
    """(C(e, 0), ..., C(e, e))."""
    return tuple(math.comb(e, i) for i in range(e + 1))


class AxialExpr(ExactStore):
    """Finite sum of terms keyed by (a, b, p, g, t), held in the exact store of `clifford`;
    `terms` is the read-only view {key: int or reduced Fraction}."""

    __slots__ = ()

    def __init__(self, terms=None):
        clean = {}
        for key, q in (terms or {}).items():
            a, b, p, g, t = key
            _check_key(a, b, p, g, t)
            clean[(a, b, p, g, t)] = exact_scalar(q)
        self._store(clean)

    terms = property(ExactStore._exact_view, doc="{key: int or Fraction} in term order; built on first read and kept.")

    # --- constructors ---

    @classmethod
    def zero(cls) -> "AxialExpr":
        return cls()

    @classmethod
    def term(cls, q, a: int = 0, b: int = 0, p: int = 0, g: int = 0, t: str = TRIG_NONE) -> "AxialExpr":
        return cls({(a, b, p, g, t): q})

    # --- products ---

    def __mul__(self, other):
        if isinstance(other, AxialExpr):
            return self._mul_expr(other)
        return self.scale(other)

    def _mul_expr(self, other: "AxialExpr") -> "AxialExpr":
        out: dict = {}
        get = out.get
        for (a1, b1, p1, g1, t1), n1 in self._num.items():
            for (a2, b2, p2, g2, t2), n2 in other._num.items():
                if t1 and t2:
                    raise AlgebraClosureError("product of two trig factors leaves the algebra")
                if g1 and g2:
                    raise AlgebraClosureError("product of two exp factors leaves the algebra")
                key = (a1 + a2, b1 + b2, p1 + p2, g1 + g2, t1 or t2)
                out[key] = get(key, 0) + n1 * n2
        da, db = self._den, other._den
        return AxialExpr._of(out, da * db, da != 1 and db != 1)

    def div_r(self, n: int = 1) -> "AxialExpr":
        """Divide by r^n (exact in the algebra)."""
        return AxialExpr._of({(a, b - n, p, g, t): v for (a, b, p, g, t), v in self._num.items()}, self._den)

    # --- calculus ---

    def diff(self, var: str) -> "AxialExpr":
        """Exact partial derivative with respect to 'x0' or 'r'."""
        return AxialExpr._of(_add_diff({}, self, var), self._den)

    def restrict_x0(self) -> "AxialExpr":
        """Substitute x0 = 0.

        Terms with a positive x0 power or a sin factor vanish, cos becomes
        1, and Q collapses to r^2.  The surviving exp flag stands for
        exp(-r^2/2); evaluate the result at x0 = 0 only.
        """
        out: dict = {}
        for (a, b, p, g, t), q in self._num.items():
            if a > 0 or t == TRIG_SIN:
                continue
            key = (0, b - 2 * p, 0, g, TRIG_NONE)
            out[key] = out.get(key, 0) + q
        return AxialExpr._of(out, self._den)

    # --- semantic equality -----------------------------------------------

    def is_zero(self) -> bool:
        """True iff the expression vanishes identically on {r > 0}."""
        classes: dict = {}
        for (a, b, p, g, t), q in self._num.items():
            classes.setdefault((g, t), []).append((a, b, p, q))
        for items in classes.values():
            pmax = max(p for _, _, p, _ in items)
            bmin = min(b for _, b, _, _ in items)
            # x0^A r^B with 0 <= B < 2^w packs into the one int A << w | B
            w = (max(b for _, b, _, _ in items) - bmin + 2 * pmax).bit_length()
            step = (2 << w) - 2  # x0^2 in, r^2 out
            acc: dict = {}
            get = acc.get
            for a, b, p, q in items:
                e = pmax - p
                key = (a << w) + b - bmin + 2 * e
                for c in _binomial_row(e):
                    acc[key] = get(key, 0) + c * q
                    key += step
            if any(acc.values()):
                return False
        return True

    def __eq__(self, other) -> bool:
        if not isinstance(other, AxialExpr):
            return NotImplemented
        return (self - other).is_zero()

    # --- evaluation ---------------------------------------------------------

    def evaluate(self, x0: float, r: float) -> float:
        """Binary64 evaluation; factors computed as written (Q stays factored)."""
        return EvalPlan(self.terms).values(x0, r)[0]

    def evaluate_mp(self, x0, r):
        """High-precision evaluation under the ambient mpmath precision, from the exact coefficients.

        mpmath is imported when this is called, so importing fueterlab does not load it.
        """
        import mpmath

        return EvalPlan(self.terms).values(mpmath.mpf(x0), mpmath.mpf(r), mpmath)[0]

    def __str__(self) -> str:
        return format_axial(self)

    def __repr__(self) -> str:
        return f"AxialExpr({format_axial(self)!r})"


# --- evaluation plan -----------------------------------------------------------


class EvalPlan:
    """Terms of one or more expressions, compiled for evaluation at many points.

    The factors a point needs are computed once: 1, then x0^a, r^b and Q^-p
    for each distinct nonzero exponent, then E, cos(x0 r) and sin(x0 r)
    where some term has them.  A row is a term's coefficient and the
    indices of its factors x0^a, r^b, Q^-p, E and trig in that order, an
    absent factor pointing at the 1.  Multiplying by 1 is exact, so each
    term rounds as it would with its factors computed on their own, and
    the sums run in dict order.
    """

    __slots__ = ("x_exps", "r_exps", "q_exps", "has_e", "has_cos", "has_sin", "neg_r", "rows", "float_rows")

    def __init__(self, *term_dicts):
        keys = [key for terms in term_dicts for key in terms]
        self.x_exps = sorted({a for a, _, _, _, _ in keys if a})
        self.r_exps = sorted({b for _, b, _, _, _ in keys if b})
        self.q_exps = sorted({p for _, _, p, _, _ in keys if p})
        self.has_e = any(g for _, _, _, g, _ in keys)
        self.has_cos = any(t == TRIG_COS for *_, t in keys)
        self.has_sin = any(t == TRIG_SIN for *_, t in keys)
        self.neg_r = any(b < 0 for b in self.r_exps)
        slots = [("a", a) for a in self.x_exps] + [("b", b) for b in self.r_exps] + [("p", p) for p in self.q_exps]
        slots += [("g", 1)] * self.has_e + [("t", TRIG_COS)] * self.has_cos + [("t", TRIG_SIN)] * self.has_sin
        index = {slot: i for i, slot in enumerate(slots, 1)}
        self.rows = tuple(
            tuple(
                (q, *(index.get(slot, 0) for slot in (("a", a), ("b", b), ("p", p), ("g", g), ("t", t))))
                for (a, b, p, g, t), q in terms.items()
            )
            for terms in term_dicts
        )
        self.float_rows = tuple(tuple((float(q), *idx) for q, *idx in rows) for rows in self.rows)

    def values(self, x0, r, lib=math) -> list:
        """Each expression's value at (x0, r); lib gives exp/cos/sin.

        Under `math` the sums read the coefficients converted once to binary64.
        Under any other lib they read the exact coefficients and run in r's
        number type, 1 being r**0: complex under `cmath`, mpf under `mpmath`.
        """
        if r.real < 0:
            raise EvalDomainError("radius r must be nonnegative")
        if r.real == 0 and self.neg_r:
            raise EvalDomainError("negative powers of r at r = 0")
        q_val = x0 * x0 + r * r
        if q_val == 0 and self.q_exps:
            raise EvalDomainError("negative powers of Q at the origin")
        f = [r**0]
        for a in self.x_exps:
            f.append(x0**a)
        for b in self.r_exps:
            f.append(r**b)
        for p in self.q_exps:
            f.append(q_val**-p)
        if self.has_e:
            f.append(lib.exp((x0 * x0 - r * r) / 2))
        if self.has_cos:
            f.append(lib.cos(x0 * r))
        if self.has_sin:
            f.append(lib.sin(x0 * r))
        return _row_sums(self.float_rows if lib is math else self.rows, f, 0.0 * f[0])

    def grid(self, x0s, rs):
        """`values(x0, r)` in binary64 for x0 in x0s for r in rs, row-major, bit for bit.

        A generator that evaluates each point when it is asked for, so a caller
        that checks each value before asking for the next meets the first failing
        point in row-major order, as with `values` point by point.  x0^a is computed
        once per x0, r^b and r * r once per r, and Q^-p, E, cos and sin per point by
        the expressions of `values`.  A point whose powers leave binary64, or that
        `values` refuses, goes to `values`, which raises as it would there.
        """
        q_exps, has_e, has_cos, has_sin, rows = self.q_exps, self.has_e, self.has_cos, self.has_sin, self.float_rows
        exp, cos, sin = math.exp, math.cos, math.sin
        # a radius that `values` refuses gets no powers, so its points go to `values`
        r_parts = [
            (r, r * r, None if r < 0 or r == 0 and self.neg_r else _float_powers(r, self.r_exps)) for r in rs
        ]
        for x0 in x0s:
            x_pows = _float_powers(x0, self.x_exps)
            head = None if x_pows is None else [1.0, *x_pows]
            xx = x0 * x0
            for r, rr, r_pows in r_parts:
                q_val = xx + rr
                if head is None or r_pows is None or q_val == 0 and q_exps:
                    yield self.values(x0, r)
                    continue
                f = head + r_pows
                for p in q_exps:
                    f.append(q_val**-p)
                if has_e:
                    f.append(exp((xx - rr) / 2))
                if has_cos:
                    f.append(cos(x0 * r))
                if has_sin:
                    f.append(sin(x0 * r))
                yield _row_sums(rows, f, 0.0)


def _row_sums(row_sets, f: list, zero) -> list:
    """Per row set, the sum from zero of c * f[ia] * f[ib] * f[ip] * f[ig] * f[it], left to right in row order."""
    out = []
    for rows in row_sets:
        total = zero
        for c, ia, ib, ip, ig, it in rows:
            total += c * f[ia] * f[ib] * f[ip] * f[ig] * f[it]
        out.append(total)
    return out


def _float_powers(v: float, exps: list) -> list | None:
    """[v^e for e in exps], or None when one leaves binary64."""
    try:
        return [v**e for e in exps]
    except OverflowError:
        return None


# --- module-level operator interface ----------------------------------------


_ITERATES: dict = {}


def _radial(n: int, expr: AxialExpr, pre: int, post: int) -> AxialExpr:
    """chain[n] of expr's iterates [expr, D expr, D^2 expr, ...] under D = r^post d/dr r^pre.

    The chains of the last two (expr, pre, post) are kept, keyed on id(expr);
    each chain holds expr, so its id is not reused while the entry lives.  A
    call extends a kept chain past its length only, so a Leibniz sum or an
    (m, k) ladder over one seed makes one pass per order.
    """
    if operator.index(n) < 0:
        raise ValueError("operator order must be nonnegative")
    key = (id(expr), pre, post)
    chain = _ITERATES.pop(key, None) or [expr]
    _ITERATES[key] = chain
    if len(_ITERATES) > 2:
        del _ITERATES[next(iter(_ITERATES))]
    while len(chain) <= n:
        last = chain[-1]
        chain.append(AxialExpr._of(_add_diff({}, last, "r", pre=pre, post=post), last._den))
    return chain[n]


def d_lower(n: int, expr: AxialExpr) -> AxialExpr:
    """n-fold (1/r d/dr), one pass per order not yet kept by `_radial`; order 0 is the identity."""
    return _radial(n, expr, 0, -1)


def d_upper(n: int, expr: AxialExpr) -> AxialExpr:
    """n-fold d/dr(./r), innermost first, one pass per order not yet kept by `_radial`; order 0 is the identity."""
    return _radial(n, expr, -1, 0)


def trig_shift(base: str, nu: int) -> tuple[int, str]:
    """Fold a phase shift of nu*pi/2 into a sign and a bare cos/sin tag."""
    if base not in (TRIG_COS, TRIG_SIN):
        raise ValueError(f"base must be cos or sin, got {base!r}")
    k = nu % 4
    if base == TRIG_COS:
        return ((1, TRIG_COS), (-1, TRIG_SIN), (-1, TRIG_COS), (1, TRIG_SIN))[k]
    return ((1, TRIG_SIN), (1, TRIG_COS), (-1, TRIG_SIN), (-1, TRIG_COS))[k]


# --- text form ---------------------------------------------------------------
#
# term := q [*x0[^a]] [*r^b | *r] [*Q^-p] [*E] [*cos|*sin]
# with Q = (x0^2+r^2), E = exp((x0^2-r^2)/2) and trig argument x0*r.
# Terms are joined by +/- in ascending key order (a, b, p, g, t).


def _term_sort_key(item):
    (a, b, p, g, t), _ = item
    return (a, b, p, g, _TRIGS.index(t))


def format_axial(expr: AxialExpr) -> str:
    def factors(a, b, p, g, t):
        out = [power_text(name, e) for name, e in (("x0", a), ("r", b), ("Q", -p), ("E", g)) if e]
        return out + [t] * bool(t)

    return write_terms((q, factors(*key)) for key, q in sorted(expr.terms.items(), key=_term_sort_key))


def parse_axial(text: str) -> AxialExpr:
    """Round-trip parser for the axial term grammar: the factors x0, r, Q, E, cos and sin."""
    terms: dict = {}
    for q, _, f in _read_terms(text, None, None):
        cos, sin = f.pop(TRIG_COS, 0), f.pop(TRIG_SIN, 0)
        t = TRIG_COS if cos else TRIG_SIN if sin else TRIG_NONE
        key = f.pop("x0", 0), f.pop("r", 0), -f.pop("Q", 0), f.pop("E", 0), t
        if f:
            raise ValueError(f"unexpected factor {next(iter(f))!r} in axial expression")
        if cos + sin > 1:
            raise AlgebraClosureError("two trig factors in one term")
        terms[key] = terms.get(key, 0) + q
    return AxialExpr(terms)


# Convenience atoms.
ONE = AxialExpr.term(1)
X0 = AxialExpr.term(1, a=1)
R = AxialExpr.term(1, b=1)
E = AxialExpr.term(1, g=1)
COS = AxialExpr.term(1, t=TRIG_COS)
SIN = AxialExpr.term(1, t=TRIG_SIN)


def q_inv(p: int = 1) -> AxialExpr:
    """Q^-p = (x0^2 + r^2)^-p."""
    return AxialExpr.term(1, p=p)
