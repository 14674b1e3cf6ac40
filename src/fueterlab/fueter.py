"""Axial monogenic functions from holomorphic seeds.

For odd m the transform of a holomorphic f = u + iv against a homogeneous
monogenic polynomial P_k of degree k is the axial function (A + w B) P_k,
where w is the unit vector x_/r and

    A = (2k+m-1)!! * (1/r d/dr)^(k+(m-1)/2) {u(x0, r)},
    B = (2k+m-1)!! * (d/dr ./r)^(k+(m-1)/2) {v(x0, r)},

u, v taken with x -> x0, y -> r.  A and B satisfy the Vekua-type system

    dA/dx0 - dB/dr = ((2k+m-1)/r) B,      dB/dx0 + dA/dr = 0,

which this module checks symbolically.  For polynomial seeds z^n the same
function is also reachable by applying the full Laplacian k+(m-1)/2 times
to (u + w v) P_k, and coincides up to a constant with the CK-extension of
x_^(n-(2k+m-1)) P_k; both alternate routes are implemented as oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .axial import (
    COS,
    E,
    R,
    SIN,
    TRIG_COS,
    TRIG_NONE,
    TRIG_SIN,
    X0,
    AxialExpr,
    EvalPlan,
    _add_diff,
    d_lower,
    d_upper,
    q_inv,
    trig_shift,
)
from .clifford import MAX_DIMENSION
from .cliffpoly import (
    CliffPoly,
    InvalidPkError,  # raised by require_homogeneous_monogenic; fueter.InvalidPkError is the same class
    ck_extend_poly,
    laplacian,
    poly_mul,
    poly_sum,
    require_homogeneous_monogenic,
    sample_p1,
    vector_power,
)

SEED_NAMES = ("iz", "inv_z", "z_pow", "gauss", "gauss_fund")


class EvenDimensionError(ValueError):
    """The transform hypothesis requires odd m."""


def double_factorial(j: int) -> int:
    """j!! with the empty-product conventions (-1)!! = 0!! = 1."""
    if j < -1:
        raise ValueError(f"double factorial undefined for {j}")
    out = 1
    while j > 1:
        out *= j
        j -= 2
    return out


@lru_cache(maxsize=None)
def _coeff_a_row(n: int) -> tuple:
    """Row (a_1^(n), ..., a_n^(n)) of the trig-derivative coefficient table, built up from row 1
    by a loop: a_nu^(j) = -(2(j - 1) - nu) a_nu^(j-1) + a_(nu-1)^(j-1), with a_0 = a_j = 0 in row j - 1."""
    row = (1,)
    for j in range(2, n + 1):
        padded = (0, *row, 0)
        row = tuple(-(2 * (j - 1) - nu) * padded[nu] + padded[nu - 1] for nu in range(1, j + 1))
    return row


def coeff_a(n: int, nu: int) -> int:
    if not 1 <= nu <= n:
        raise ValueError(f"nu={nu} outside 1..{n}")
    return _coeff_a_row(n)[nu - 1]


# --- holomorphic seeds -------------------------------------------------------


@dataclass(frozen=True)
class HoloSeed:
    """Real and imaginary part of a holomorphic f(z), with x -> x0, y -> r.

    The Cauchy-Riemann equations are checked exactly at construction: at
    k = 0 and m = 1 the Vekua system is exactly that system for (u, v).
    """

    name: str
    u: AxialExpr
    v: AxialExpr
    n: int | None = None

    def __post_init__(self):
        if not vekua_ok(AxialPair(1, 0, self.u, self.v)):
            raise ValueError(f"seed {self.name!r} fails the Cauchy-Riemann equations")

    def scaled(self, c) -> "HoloSeed":
        u, v = self.u.scale(c), self.v.scale(c)
        return HoloSeed(f"({Fraction(c)})*{self.name}", u, v, self.n)

    def __add__(self, other: "HoloSeed") -> "HoloSeed":
        return HoloSeed(f"{self.name}+{other.name}", self.u + other.u, self.v + other.v)


@lru_cache(maxsize=64)
def seed(name: str, n: int | None = None) -> HoloSeed:
    """Built-in seeds: iz, inv_z, z_pow (needs n >= 0), gauss, gauss_fund.

    Seeds are immutable, so each is built, and its Cauchy-Riemann check run, once.
    """
    if name == "iz":
        # iz = -y + ix
        return HoloSeed(name, -R, X0)
    if name == "inv_z":
        # 1/z = x/(x^2+y^2) - i y/(x^2+y^2)
        return HoloSeed(name, X0 * q_inv(), -(R * q_inv()))
    if name == "z_pow":
        if n is None or n < 0:
            raise ValueError("z_pow seed needs an order n >= 0")
        # real part from the even nu, imaginary part from the odd nu; the keys are distinct
        parts = ({}, {})
        for nu in range(n + 1):
            parts[nu % 2][(n - nu, nu, 0, 0, TRIG_NONE)] = (-1) ** (nu // 2) * math.comb(n, nu)
        return HoloSeed(name, AxialExpr(parts[0]), AxialExpr(parts[1]), n)
    if name == "gauss":
        # exp(z^2/2) = E (cos(xy) + i sin(xy))
        return HoloSeed(name, E * COS, E * SIN)
    if name == "gauss_fund":
        # exp(z^2/2)/z = (E/Q)((x cos + y sin) + i (x sin - y cos))
        eq = E * q_inv()
        u = eq * (X0 * COS + R * SIN)
        v = eq * (X0 * SIN - R * COS)
        return HoloSeed(name, u, v)
    raise ValueError(f"unknown seed {name!r}; choose from {SEED_NAMES}")


# --- the transform -----------------------------------------------------------


@dataclass(frozen=True)
class AxialPair:
    """(A + w B) P_k in dimension m; pk may be None for a generic P_k."""

    m: int
    k: int
    A: AxialExpr
    B: AxialExpr
    pk: CliffPoly | None = None

    @property
    def kappa(self) -> int:
        return 2 * self.k + self.m - 1

    @cached_property
    def plan(self) -> EvalPlan:
        """A and B compiled into one plan on first evaluation, so a point computes each shared factor once;
        `plan.values(x0, r)` gives `[A.evaluate(x0, r), B.evaluate(x0, r)]`."""
        return EvalPlan(self.A.terms, self.B.terms)

    def scaled(self, c) -> "AxialPair":
        return AxialPair(self.m, self.k, self.A.scale(c), self.B.scale(c), self.pk)

    def __sub__(self, other: "AxialPair") -> "AxialPair":
        if (self.m, self.k) != (other.m, other.k):
            raise ValueError("axial pairs of different type")
        return AxialPair(self.m, self.k, self.A - other.A, self.B - other.B, self.pk)


def _require_odd(m: int) -> None:
    if m < 1 or m % 2 == 0:
        raise EvenDimensionError(f"the transform requires odd m >= 1, got {m}")


@lru_cache(maxsize=64)
def default_pk(k: int, m: int) -> CliffPoly | None:
    """Shipped samples: 1 for k = 0, x1 e1 - x2 e2 for k = 1, none beyond.
    None for m > MAX_DIMENSION too, where no Clifford number exists, so the pair carries a generic P_k.
    Built and checked once per (k, m); the same object comes back on every call."""
    if m > MAX_DIMENSION:
        return None
    if k == 0:
        return require_homogeneous_monogenic(CliffPoly.one(m), k)
    if k == 1 and m >= 2:
        return require_homogeneous_monogenic(sample_p1(m), k)
    return None


def fueter(s: HoloSeed, k: int, m: int, pk: CliffPoly | None = None) -> AxialPair:
    """Transform of a seed via the radial-operator closed formulas.

    Without pk the shipped sample of `default_pk` is carried, or a generic
    P_k where there is none, since A and B depend only on (k, m); a pk the
    caller passes is validated.
    """
    _require_odd(m)
    if k < 0:
        raise ValueError("degree k must be nonnegative")
    pk = default_pk(k, m) if pk is None else require_homogeneous_monogenic(pk, k)
    order = k + (m - 1) // 2
    const = double_factorial(2 * k + m - 1)
    return AxialPair(m, k, d_lower(order, s.u).scale(const), d_upper(order, s.v).scale(const), pk)


def vekua_residual(pair: AxialPair) -> tuple[AxialExpr, AxialExpr]:
    """Both components vanish identically iff (A + w B) P_k is monogenic.

    r1 = dA/dx0 - dB/dr - kappa B/r and r2 = dB/dx0 + dA/dr are each built
    in one dict over the lcm of the two denominators; dB/dr + kappa B/r is
    r^-kappa d/dr(r^kappa B).
    """
    a, b, kappa = pair.A, pair.B, pair.kappa
    den, ma, mb = a.lcm_weights(b)
    r1 = _add_diff(_add_diff({}, a, "x0", ma), b, "r", -mb, pre=kappa, post=-kappa)
    r2 = _add_diff(_add_diff({}, b, "x0", mb), a, "r", ma)
    return AxialExpr._of(r1, den), AxialExpr._of(r2, den)


def vekua_ok(pair: AxialPair) -> bool:
    r1, r2 = vekua_residual(pair)
    return r1.is_zero() and r2.is_zero()


# --- closed forms ------------------------------------------------------------


@dataclass(frozen=True)
class RadialIdentity:
    """d(n, f) = rhs(n) for every order n >= first, d one of d_lower and d_upper."""

    d: object
    f: AxialExpr
    first: int
    rhs: object


def _trig_sum(base: str, n: int, s: int) -> AxialExpr:
    """Sum over nu >= 1 - s of a_(nu+s)^(n+s) x0^nu r^(nu-2n) base(x0 r + nu pi/2); each nu gives a distinct key."""
    terms = {}
    for nu in range(1 - s, n + 1):
        sign, tag = trig_shift(base, nu)
        terms[(nu, nu - 2 * n, 0, 0, tag)] = sign * Fraction(coeff_a(n + s, nu + s))
    return AxialExpr(terms)


def _q_power(n: int, a: int, b: int) -> AxialExpr:
    """(-1)^n 2^n n! x0^a r^b Q^-(n+1)."""
    return AxialExpr.term(Fraction((-1) ** n * 2**n * math.factorial(n)), a=a, b=b, p=n + 1)


# the tabulated radial-derivative identities, in the order `verify` checks them
RADIAL_IDENTITIES = {
    # (1/r d/dr)^n r = (-1)^(n+1) (2n-3)!! r^(1-2n)
    "e1": RadialIdentity(
        d_lower, R, 1, lambda n: AxialExpr.term(Fraction((-1) ** (n + 1) * double_factorial(2 * n - 3)), b=1 - 2 * n)
    ),
    # (d/dr ./r)^n x0 = (-1)^n (2n-1)!! x0 r^-2n
    "ex1.dupper_x0": RadialIdentity(
        d_upper, X0, 0, lambda n: AxialExpr.term((-1) ** n * double_factorial(2 * n - 1), a=1, b=-2 * n)
    ),
    "e2": RadialIdentity(d_lower, X0 * q_inv(), 0, lambda n: _q_power(n, 1, 0)),
    "e3": RadialIdentity(d_upper, R * q_inv(), 0, lambda n: _q_power(n, 0, 1)),
    "e4": RadialIdentity(d_lower, E, 0, lambda n: AxialExpr.term(Fraction((-1) ** n), g=1)),
    # the e5 and e6 sums are empty at n = 0, where d^0 is the identity
    "e5": RadialIdentity(d_lower, COS, 1, lambda n: _trig_sum(TRIG_COS, n, 0)),
    "e6": RadialIdentity(d_lower, SIN, 1, lambda n: _trig_sum(TRIG_SIN, n, 0)),
    "e7": RadialIdentity(d_upper, SIN, 0, lambda n: _trig_sum(TRIG_SIN, n, 1)),
}


def closed_form(ident: str, n: int) -> AxialExpr:
    """Right-hand side of the radial identity `ident` of RADIAL_IDENTITIES at order n >= 0."""
    identity = RADIAL_IDENTITIES.get(ident)
    if identity is None:
        raise ValueError(f"unknown closed form {ident!r}; choose from {tuple(RADIAL_IDENTITIES)}")
    if n < 0:
        raise ValueError(f"{ident} needs n >= 0")
    return identity.rhs(n)


def transform_closed_form(seed_name: str, m: int, k: int) -> tuple[AxialExpr, AxialExpr] | None:
    """(A, B) of the iz, inv_z or gauss transform at odd m and degree k, read off the radial identities.

    Both components are (2k+m-1)!! times right-hand sides at order n = k + (m-1)/2:
    iz = -r + i x0 gives (-e1, ex1.dupper_x0), 1/z = x0/Q - i r/Q gives (e2, -e3), and
    exp(z^2/2) = E cos + i E sin gives the Leibniz sums of e4 against e5 and e7.  For iz
    this is (-1)^n (2k+m-1)!! (2k+m-4)!! (r^-(2k+m-2), (2k+m-2) x0 r^-(2k+m-1)); None where
    that constant is undefined, 2k+m-4 < -1, which is n below e1's first order (m = 1, k = 0).
    """
    _require_odd(m)
    n = k + (m - 1) // 2
    if seed_name == "iz":
        if n < RADIAL_IDENTITIES["e1"].first:
            return None
        a, b = -closed_form("e1", n), closed_form("ex1.dupper_x0", n)
    elif seed_name == "inv_z":
        a, b = closed_form("e2", n), -closed_form("e3", n)
    elif seed_name == "gauss":
        # d^n(E f) = sum_nu C(n, nu) d_lower^(n-nu)(E) d^nu(f); d_lower^0 cos is cos, where e5 is not asserted
        a = b = AxialExpr.zero()
        for nu in range(n + 1):
            e = closed_form("e4", n - nu).scale(math.comb(n, nu))
            a = a + e * (closed_form("e5", nu) if nu else COS)
            b = b + e * closed_form("e7", nu)
    else:
        raise ValueError(f"no transform closed form for seed {seed_name!r}; choose from ('iz', 'inv_z', 'gauss')")
    const = double_factorial(2 * k + m - 1)
    return a.scale(const), b.scale(const)


# gauss_ck_pair(3): E (cos + x0 sin / r) and E (sin + sin / r^2 - x0 cos / r)
GAUSS_M3 = (
    E * COS + AxialExpr.term(1, a=1, b=-1, g=1, t=TRIG_SIN),
    E * SIN + AxialExpr.term(1, b=-2, g=1, t=TRIG_SIN) - AxialExpr.term(1, a=1, b=-1, g=1, t=TRIG_COS),
)


def gauss_ck_pair(m: int) -> AxialPair:
    """Gaussian transform scaled so its x0 = 0 restriction is exp(-r^2/2)."""
    pair = fueter(seed("gauss"), 0, m)
    return pair.scaled(Fraction((-1) ** ((m - 1) // 2), double_factorial(m - 1)))


def gauss_fund_pair(m: int) -> AxialPair:
    """Transform of exp(z^2/2)/z against P_0 = 1 (unscaled)."""
    return fueter(seed("gauss_fund"), 0, m)


def pole_pair(m: int) -> AxialPair:
    """conj(x)/|x|^(m+1) in axial components: (x0 Q^-(m+1)/2, -r Q^-(m+1)/2)."""
    _require_odd(m)
    p = (m + 1) // 2
    return AxialPair(m, 0, AxialExpr.term(1, a=1, p=p), AxialExpr.term(-1, b=1, p=p), default_pk(0, m))


def normalized_gauss_fund_pair(m: int) -> AxialPair:
    """Transform of exp(z^2/2)/z scaled so that its pole is `pole_pair(m)`."""
    c = Fraction((-1) ** ((m - 1) // 2) * double_factorial(m - 1) ** 2)
    return gauss_fund_pair(m).scaled(Fraction(1, c))


def entire_remainder_pair(m: int) -> AxialPair:
    """Normalized transform of exp(z^2/2)/z minus its pole; entire by design."""
    return normalized_gauss_fund_pair(m) - pole_pair(m)


@dataclass(frozen=True)
class AxisSplit:
    """One component at x0 = 0 as exp(-x) M(r) + P(r) P(K, x) with x = r^2/2, where P(K, x) is the
    regularized incomplete gamma function (DLMF 8.2.4); M and P map a power of r to its exact coefficient."""

    M: dict
    P: dict
    K: int


def axis_split(pair: AxialPair) -> tuple[AxisSplit, AxisSplit]:
    """The x0 = 0 restrictions of A and B, each split exactly.

    A restriction is exp(-x) L(r) + P(r), L holding the exp-flag terms and P
    the rest.  Since P(K, x) = 1 - exp(-x) sum_{k<K} x^k/k! (DLMF 8.4.10),
    it equals exp(-x) M + P P(K, x) with M = L + P sum_{k<K} x^k/k!.  K is the
    least K >= 0 with 2K above P's pole order, so each r^b P(K, x), which
    behaves as r^(b+2K) / (2^K K!) near 0, is bounded there.  No Clifford
    number is formed, so any odd m works.
    """
    splits = []
    for expr in (pair.A, pair.B):
        M, P = {}, {}
        for (_, b, _, g, _), q in expr.restrict_x0().terms.items():
            (M if g else P)[b] = q
        K = max(0, -min(P) // 2 + 1) if P else 0
        for b, q in P.items():
            for k in range(K):
                M[b + 2 * k] = M.get(b + 2 * k, 0) + Fraction(q, 2**k * math.factorial(k))
        splits.append(AxisSplit({b: q for b, q in M.items() if q}, P, K))
    return tuple(splits)


# --- polynomial routes for z^n seeds ------------------------------------------


def fueter_via_laplacian(n: int, k: int, m: int, pk: CliffPoly) -> CliffPoly:
    """Independent route for z^n: apply the full Laplacian k+(m-1)/2 times
    to sum_nu C(n,nu) x0^(n-nu) x_^nu P_k."""
    _require_odd(m)
    if pk is None:
        raise ValueError("this route needs a concrete P_k")
    w = poly_sum(m, ((math.comb(n, nu), n - nu, vector_power(m, nu)) for nu in range(n + 1)))
    w = poly_mul(w, pk)
    for _ in range(k + (m - 1) // 2):
        w = laplacian(w, include_x0=True)
    return w


def axial_to_poly(pair: AxialPair) -> CliffPoly:
    """Rewrite a polynomial-image pair as a polynomial in (x0, x1..xm).

    Requires A with even nonnegative r powers and B with odd positive r
    powers, no Q/exp/trig factors; since x_^2 = -r^2, both r^(2s) and
    w r^(2s+1) are (-1)^s x_^b.  The result is multiplied by pk.
    """
    if pair.pk is None:
        raise ValueError("axial_to_poly needs a concrete P_k")
    m = pair.m
    parts = []
    for expr, parity, label in ((pair.A, 0, "A"), (pair.B, 1, "B")):
        for (a, b, p, g, t), q in expr.terms.items():
            if p or g or t or b < 0 or b % 2 != parity:
                raise ValueError(f"{label} component outside the polynomial image")
            parts.append((q * (-1) ** (b // 2), a, vector_power(m, b)))
    return poly_mul(poly_sum(m, parts), pair.pk)


@dataclass(frozen=True)
class TriangleResult:
    """Cross-route comparison for a z^n seed."""

    n: int
    k: int
    m: int
    routes_equal: bool
    ck_equal: bool
    constant: Fraction | None

    @property
    def ok(self) -> bool:
        return self.routes_equal and self.ck_equal


def triangle_check(n: int, k: int, m: int, pk: CliffPoly | None = None) -> TriangleResult:
    """Compare the radial-operator, Laplacian, and CK-extension routes for z^n.

    Below the degree threshold n < 2k+m-1 both transform routes must vanish;
    above it they must agree exactly and equal constant * CK[x_^(n-(2k+m-1)) pk],
    the constant read off from the x0 = 0 restriction.
    """
    pair = fueter(seed("z_pow", n), k, m, pk)
    pk = pair.pk
    p_radial = axial_to_poly(pair)
    p_laplace = fueter_via_laplacian(n, k, m, pk)
    routes_equal = p_radial == p_laplace
    d = n - (2 * k + m - 1)
    if d < 0:
        return TriangleResult(n, k, m, routes_equal, p_radial.is_zero() and p_laplace.is_zero(), None)
    base = poly_mul(vector_power(m, d), pk)
    restriction = p_radial.restrict_x0()
    key, val = next(iter(base.coeffs.items()), (None, None))
    other = restriction.coeffs.get(key)
    if other is None:
        return TriangleResult(n, k, m, routes_equal, False, None)
    constant = Fraction(other) / val
    ck = ck_extend_poly(base).scale(constant)
    return TriangleResult(n, k, m, routes_equal, p_radial == ck, constant)
