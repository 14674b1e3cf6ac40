"""The four benchmark workloads, built from a seed as lists of known-answer ops.

Every op is one known-answer instance: an identity decided, a transform
checked, a grid written and re-read, a finite-difference point or a probe
ray.  Sizes and shapes of the inputs come from a fixed stream so that a
pass costs the same on every seed; the run seed draws coefficients,
points, regions and which coefficient a perturbed instance changes.

Perturbed instances change one coefficient of one side of an identity,
so their known answer is "unequal".  An equality test that always said
"equal" would fail them.

Ops call the library's public functions through the `fueterlab` modules
at call time, so the traced run sees every call.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import fueterlab as fl
from fueterlab import cliffpoly, numeric
from fueterlab.axial import AxialExpr
from fueterlab.clifford import Multivector
from fueterlab.cliffpoly import CliffPoly
from fueterlab.fueter import AxialPair
from fueterlab.numeric import EvalPoint, FDConfig

SHAPE_SEED = 20090429
WORKLOADS = ("poly_exact", "axial_exact", "numeric_grid", "numeric_probe")

# relative error against the committed reference above which a float
# result counts as inaccurate
INACCURATE_REL = 1e-12

REFS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")


@dataclass
class Op:
    """One known-answer instance.

    `run` returns the outcome, compared with `expect`.  An accuracy op
    returns its relative error against a committed reference instead; it
    fails only if that is not a finite number, and its size is reported
    as accuracy.
    A known-defect op runs in every pass but is reported on its own and
    kept out of the failure count.
    """

    kind: str
    run: Callable[[], object]
    expect: object = True
    accuracy: bool = False
    known_defect: bool = False
    label: str = ""


# --- seeded generators -------------------------------------------------------------


def _frac(rng: random.Random) -> Fraction:
    num = rng.choice([-1, 1]) * rng.randint(1, 9)
    return Fraction(num, rng.randint(1, 4))


def _mv(shape: random.Random, rng: random.Random, m: int, n_terms: int) -> Multivector:
    masks = shape.sample(range(1 << m), min(n_terms, 1 << m))
    return Multivector(m, {mask: _frac(rng) for mask in masks})


def _poly(shape, rng, m: int, degree: int, n_terms: int, with_x0: bool) -> CliffPoly:
    terms = {}
    lo = 0 if with_x0 else 1
    while len(terms) < n_terms:
        exps = [0] * (m + 1)
        for _ in range(shape.randint(1, degree)):
            exps[shape.randint(lo, m)] += 1
        terms.setdefault(tuple(exps), _mv(shape, rng, m, 2))
    return CliffPoly(m, terms)


def _axial(shape, rng, n_terms: int = 3, rational: bool = False) -> AxialExpr:
    trigs = ("",) if rational else ("", "cos", "sin")
    terms = {}
    while len(terms) < n_terms:
        key = (
            shape.randint(0, 3),
            shape.randint(-3, 3),
            shape.randint(0, 2),
            0 if rational else shape.randint(0, 1),
            shape.choice(trigs),
        )
        terms.setdefault(key, _frac(rng))
    return AxialExpr(terms)


def _bump_axial(expr: AxialExpr, pick: int, delta: Fraction) -> AxialExpr:
    """expr with one coefficient changed by delta; adds a constant if expr is empty."""
    keys = sorted(expr.terms)
    key = keys[pick % len(keys)] if keys else (0, 0, 0, 0, "")
    return expr + AxialExpr({key: delta})


def _bump_pair(pair: AxialPair, pick: int, delta: Fraction) -> AxialPair:
    """Pair with one coefficient changed so that the Vekua system must fail.

    Changing a non-constant term t of A by delta adds delta*dt/dx0 and
    delta*dt/dr to the two residuals, and not both vanish.  A term t of B
    fails the system unless t = r^-kappa.  An empty pair gets delta*x0 in A.
    """
    a_keys = sorted(k for k in pair.A.terms if k != (0, 0, 0, 0, ""))
    if a_keys:
        key = a_keys[pick % len(a_keys)]
        return AxialPair(pair.m, pair.k, pair.A + AxialExpr({key: delta}), pair.B, pair.pk)
    b_keys = sorted(k for k in pair.B.terms if k != (0, -pair.kappa, 0, 0, ""))
    if b_keys:
        key = b_keys[pick % len(b_keys)]
        return AxialPair(pair.m, pair.k, pair.A, pair.B + AxialExpr({key: delta}), pair.pk)
    return AxialPair(pair.m, pair.k, pair.A + AxialExpr.term(delta, a=1), pair.B, pair.pk)


def _bump_poly(p: CliffPoly, pick: int, delta: Fraction, need_x0: bool = False) -> CliffPoly:
    """p with one blade coefficient changed by delta (on an x0-term if asked)."""
    keys = sorted(e for e in p.terms if e[0] or not need_x0)
    m = p.m
    if not keys:
        exps = (1,) + (0,) * m
        return p + CliffPoly(m, {exps: Multivector.scalar(m, delta)})
    exps = keys[pick % len(keys)]
    masks = sorted(p.terms[exps].coeffs)
    mask = masks[pick % len(masks)]
    return p + CliffPoly(m, {exps: Multivector(m, {mask: delta})})


# --- poly_exact ----------------------------------------------------------------------

HERMITE_CASES = ((1, 12), (2, 12), (3, 10), (4, 9), (5, 5), (5, 7), (7, 4), (7, 6))
HERMITE_TWINS = ((3, 10), (4, 8), (5, 6), (7, 5))
TRIANGLE_CASES = tuple((n, k, m) for m in (3, 5) for k in (0, 1) for n in range(8))
TRIANGLE_TWINS = ((6, 0, 3), (7, 1, 3), (6, 0, 5), (7, 1, 5))


def _hermite_closed_bumped(n: int, m: int, bump: int, delta: int) -> CliffPoly:
    """Closed-form Hermite sum with the coeff_c weight of one term changed."""
    half, odd = divmod(n, 2)
    out = CliffPoly.zero(m)
    for nu in range(half + 1):
        c = math.comb(half, nu) * fl.coeff_c(half + odd, nu, m)
        if nu == bump % (half + 1):
            c += delta
        out = out + cliffpoly.vector_power(m, 2 * (half - nu) + odd).scale(c)
    return out


def _ck_ok(f: CliffPoly, ck: CliffPoly) -> bool:
    return fl.cr_apply(ck) == CliffPoly.zero(f.m) and ck.restrict_x0() == f


def build_poly_exact(seed: int) -> list:
    shape, rng = random.Random(SHAPE_SEED), random.Random(seed)
    ops = []
    for m, n in HERMITE_CASES:
        ops.append(Op("hermite", lambda n=n, m=m: fl.hermite_rec(n, m).poly == fl.hermite_closed(n, m).poly))
    for m, n in HERMITE_TWINS:
        bump, delta = rng.randrange(64), rng.choice([-2, -1, 1, 2])
        ops.append(
            Op(
                "hermite_twin",
                lambda n=n, m=m, b=bump, d=delta: fl.hermite_rec(n, m).poly == _hermite_closed_bumped(n, m, b, d),
                expect=False,
            )
        )
    for i in range(30):
        m = 1 + i % 5
        f = _poly(shape, rng, m, 6, 3, with_x0=False)
        if i % 6 == 5:
            pick, delta = rng.randrange(64), _frac(rng)
            ops.append(
                Op(
                    "ck_twin",
                    lambda f=f, p=pick, d=delta: _ck_ok(f, _bump_poly(fl.ck_extend_poly(f), p, d, need_x0=True)),
                    expect=False,
                )
            )
        else:
            ops.append(Op("ck", lambda f=f: _ck_ok(f, fl.ck_extend_poly(f))))
    for i in range(36):
        m = 1 + i % 5
        with_x0 = i % 2 == 1
        p = _poly(shape, rng, m, 4, 4, with_x0=with_x0)
        twin = i % 6 >= 4
        pick, delta = rng.randrange(64), _frac(rng)
        if not with_x0:

            def fact1(p=p, twin=twin, pick=pick, delta=delta):
                rhs = -fl.laplacian(p, include_x0=False)
                if twin:
                    rhs = _bump_poly(rhs, pick, delta)
                return fl.dirac(fl.dirac(p)) == rhs

            ops.append(Op("fact1_twin" if twin else "fact1", fact1, expect=not twin))
        else:

            def fact2(p=p, twin=twin, pick=pick, delta=delta):
                lap = fl.laplacian(p, include_x0=True)
                if twin:
                    lap = _bump_poly(lap, pick, delta)
                return fl.cr_apply(fl.cr_conj_apply(p)) == lap and fl.cr_conj_apply(fl.cr_apply(p)) == lap

            ops.append(Op("fact2_twin" if twin else "fact2", fact2, expect=not twin))
    for n, k, m in TRIANGLE_CASES:
        ops.append(Op("triangle", lambda n=n, k=k, m=m: fl.triangle_check(n, k, m).ok))
    for n, k, m in TRIANGLE_TWINS:
        pick, delta = rng.randrange(64), _frac(rng)

        def triangle_twin(n=n, k=k, m=m, pick=pick, delta=delta):
            pair = _bump_pair(fl.fueter(fl.seed("z_pow", n), k, m), pick, delta)
            return fl.axial_to_poly(pair) == fl.fueter_via_laplacian(n, k, m, pair.pk)

        ops.append(Op("triangle_twin", triangle_twin, expect=False))
    return ops


# --- axial_exact ---------------------------------------------------------------------

VEKUA_SEEDS = (("iz", None), ("inv_z", None), ("gauss", None), ("gauss_fund", None)) + tuple(
    ("z_pow", n) for n in range(11)
)
VEKUA_MK = tuple((m, k) for m in (3, 5, 7) for k in (0, 1, 2))
# radial order k + (m-1)/2 from 1 to 10
LADDER = ((3, 0), (3, 1), (5, 1), (7, 1), (9, 1), (11, 1), (13, 1), (13, 2), (13, 3), (13, 4))
LADDER_TWINS = ((9, 1), (13, 2))


def _vekua_op(name, n, m, k, twin=None):
    def run():
        pair = fl.fueter(fl.seed(name, n), k, m)
        if twin is not None:
            pair = _bump_pair(pair, *twin)
        return fl.vekua_ok(pair)

    return run


def _closed_form_cases():
    """(id, n, left-hand side as a function of n) for e1..e7 with n <= 8."""
    R = AxialExpr.term(1, b=1)
    X0 = AxialExpr.term(1, a=1)
    E = AxialExpr.term(1, g=1)
    COS = AxialExpr.term(1, t="cos")
    SIN = AxialExpr.term(1, t="sin")
    Q1 = AxialExpr.term(1, p=1)
    table = (
        ("e1", range(1, 9), lambda n: fl.d_lower(n, R)),
        ("e2", range(0, 9), lambda n: fl.d_lower(n, X0 * Q1)),
        ("e3", range(0, 9), lambda n: fl.d_upper(n, R * Q1)),
        ("e4", range(0, 9), lambda n: fl.d_lower(n, E)),
        ("e5", range(1, 9), lambda n: fl.d_lower(n, COS)),
        ("e6", range(1, 9), lambda n: fl.d_lower(n, SIN)),
        ("e7", range(0, 9), lambda n: fl.d_upper(n, SIN)),
    )
    for ident, ns, lhs in table:
        for n in ns:
            yield ident, n, lhs


def _identity(which: int, n: int, f: AxialExpr, g: AxialExpr):
    """Both sides of radial-operator identity (i)..(iv) at order n."""
    if which == 0:
        return fl.d_upper(n, f.diff("r")), fl.d_lower(n, f).diff("r")
    if which == 1:
        lhs = fl.d_lower(n, f.diff("r")) - fl.d_upper(n, f).diff("r")
        return lhs, fl.d_upper(n, f).scale(2 * n).div_r()
    outer = fl.d_lower if which == 2 else fl.d_upper
    rhs = AxialExpr.zero()
    for nu in range(n + 1):
        rhs = rhs + fl.d_lower(n - nu, f).scale(math.comb(n, nu)) * outer(nu, g)
    return outer(n, f * g), rhs


def build_axial_exact(seed: int) -> list:
    shape, rng = random.Random(SHAPE_SEED), random.Random(seed)
    ops = []
    for name, n in VEKUA_SEEDS:
        for m, k in VEKUA_MK:
            ops.append(Op("vekua", _vekua_op(name, n, m, k)))
        twin = (rng.randrange(64), _frac(rng))
        ops.append(Op("vekua_twin", _vekua_op(name, n, 5, 1, twin), expect=False))
    for m, k in LADDER:
        ops.append(Op("ladder", _vekua_op("gauss_fund", None, m, k)))
    for m, k in LADDER_TWINS:
        twin = (rng.randrange(64), _frac(rng))
        ops.append(Op("ladder_twin", _vekua_op("gauss_fund", None, m, k, twin), expect=False))
    for ident, n, lhs in _closed_form_cases():
        ops.append(Op("closed_form", lambda ident=ident, n=n, lhs=lhs: lhs(n) == fl.closed_form(ident, n)))
    for ident, n, lhs in _closed_form_cases():
        if n == 8:
            bump = (rng.randrange(64), _frac(rng))

            def closed_twin(ident=ident, n=n, lhs=lhs, bump=bump):
                return lhs(n) == _bump_axial(fl.closed_form(ident, n), *bump)

            ops.append(Op("closed_form_twin", closed_twin, expect=False))
    for i in range(36):
        which, n = i % 4, i // 4
        f = _axial(shape, rng, rational=which >= 2)
        g = _axial(shape, rng)
        twin = i % 8 >= 6
        bump = (rng.randrange(64), _frac(rng))

        def identity(which=which, n=n, f=f, g=g, twin=twin, bump=bump):
            lhs, rhs = _identity(which, n, f, g)
            if twin:
                rhs = _bump_axial(rhs, *bump)
            return lhs == rhs

        kind = ("op_i", "op_ii", "op_iii", "op_iv")[which] + ("_twin" if twin else "")
        ops.append(Op(kind, identity, expect=not twin))
    return ops


# --- numeric_grid --------------------------------------------------------------------

CSV_SHAPE = (21, 21)
DECAY_STRIPS = ((3, 41, 41), (5, 41, 41))
# past r ~ 37.7 the decay weight exp(r^2/2) overflows binary64
OVERFLOW_STRIP = (3, 36.0, 40.0, 3, 3)
SERIES_ROWS, SERIES_COLS = 16, 5


def _csv_op(path: str, target: str, m: int, x0s, rs):
    def run():
        fl_rows = numeric.write_sample_csv(path, target, m, x0s, rs)
        ok, n_rows = numeric.verify_sample_csv(path, target)
        os.remove(path)
        return ok and n_rows == fl_rows == len(x0s) * len(rs)

    return run


def _decay_op(pair: AxialPair, K: float, r_min: float, r_max: float, nx0: int, nr: int):
    def run():
        rep = fl.decay_scan(pair, K, r_min, r_max, nx0, nr)
        # the Gaussian bound holds: the weighted sup is finite and positive
        return math.isfinite(rep.sup_value) and rep.sup_value > 0

    return run


def _series_row_op(pair: AxialPair, m: int, x0: float, rs, dirs):
    def run():
        for r, d in zip(rs, dirs):
            pt = EvalPoint(x0, tuple(r * c for c in d))
            series = fl.ck_gauss_series(pt, m, trunc=60)
            closed = fl.eval_axial(pair, pt)
            if not (series - closed).norm() <= 1e-10 * closed.norm():
                return False
        return True

    return run


def _unit(rng: random.Random, m: int) -> tuple:
    d = [rng.gauss(0.0, 1.0) for _ in range(m)]
    norm = math.sqrt(sum(c * c for c in d))
    return tuple(c / norm for c in d)


def build_numeric_grid(seed: int, work_dir: str) -> list:
    rng = random.Random(seed)
    ops = []
    nx0, nr = CSV_SHAPE
    for target in numeric.SAMPLE_TARGETS:
        for m in (3, 5):
            for region in range(2):
                x0_lo = rng.uniform(-2.0, -0.5)
                r_lo = rng.uniform(0.2, 1.0)
                x0s = numeric.lin_range(x0_lo, x0_lo + 2.0, nx0)
                rs = numeric.lin_range(r_lo, r_lo + 2.5, nr)
                path = os.path.join(work_dir, f"{target}-m{m}-{region}.csv")
                ops.append(Op("csv_roundtrip", _csv_op(path, target, m, x0s, rs)))
    for m, nx0, nr in DECAY_STRIPS:
        pair = fl.gauss_fund_pair(m)
        K = rng.uniform(1.5, 2.5)
        r_min = rng.uniform(2.5, 3.5)
        ops.append(Op("decay_strip", _decay_op(pair, K, r_min, r_min + 5.0, nx0, nr)))
    m, r_min, r_max, nx0, nr = OVERFLOW_STRIP
    ops.append(Op("decay_overflow", _decay_op(fl.gauss_fund_pair(m), 2.0, r_min, r_max, nx0, nr), known_defect=True))
    for m in (3, 5):
        pair = fl.gauss_ck_pair(m)
        for _ in range(SERIES_ROWS):
            x0 = rng.uniform(-1.0, 1.0)
            rs = [rng.uniform(0.3, 2.0) for _ in range(SERIES_COLS)]
            dirs = [_unit(rng, m) for _ in range(SERIES_COLS)]
            ops.append(Op("series_row", _series_row_op(pair, m, x0, rs, dirs)))
    rng.shuffle(ops)
    return ops


# --- numeric_probe -------------------------------------------------------------------

FD_PAIRS = ("gauss_fund", "gauss", "iz", "inv_z")
FD_POINTS = 8
FD_STEP = 2e-3
FD_FACTOR = (3.5, 4.5)
PROBE_RAYS = 3


def probe_pair(name: str, m: int) -> AxialPair:
    """The k = 0 pairs of the probe workload and of the reference table."""
    if name == "gauss_fund":
        return fl.gauss_fund_pair(m)
    if name == "gauss":
        return fl.gauss_ck_pair(m)
    return fl.fueter(fl.seed(name), 0, m)


def _fd_op(pair: AxialPair, pt: EvalPoint):
    f = numeric.axial_evaluator(pair)

    def run():
        lo, hi = FD_FACTOR
        for side in ("left", "right"):
            coarse = fl.fd_cr_residual(f, pt, FDConfig(FD_STEP), side)
            fine = fl.fd_cr_residual(f, pt, FDConfig(FD_STEP / 2.0), side)
            if not (fine > 0 and lo <= coarse / fine <= hi):
                return False
        return True

    return run


def _accuracy_op(pair: AxialPair, ref: dict):
    x0, r = float(ref["x0"]), float(ref["r"])
    a_ref, b_ref = float(ref["A"]), float(ref["B"])
    pt = EvalPoint(x0, (r,) + (0.0,) * (pair.m - 1))
    scale = math.hypot(a_ref, b_ref)

    def run():
        val = fl.eval_axial(pair, pt)
        return math.hypot(val[0] - a_ref, val[1] - b_ref) / scale

    return run


def _probe_op(m: int, radii: tuple, subtract_pole: bool):
    def run():
        return fl.entire_part_probe(m, radii, subtract_pole=subtract_pole, dps=60).bounded

    return run


def load_refs() -> list:
    with open(REFS_PATH) as fh:
        return json.load(fh)["points"]


def build_numeric_probe(seed: int) -> list:
    rng = random.Random(seed)
    ops = []
    pairs = {(name, m): probe_pair(name, m) for name in FD_PAIRS for m in (3, 5, 7)}
    for (name, m), pair in pairs.items():
        for _ in range(FD_POINTS):
            x0 = rng.uniform(-1.0, 1.0)
            r = rng.uniform(0.5, 2.0)
            pt = EvalPoint(x0, tuple(r * c for c in _unit(rng, m)))
            ops.append(Op("fd_point", _fd_op(pair, pt)))
    for ref in load_refs():
        label = f"{ref['pair']} m={ref['m']} x0={ref['x0']} r={ref['r']}"
        ops.append(Op("accuracy_point", _accuracy_op(pairs[ref["pair"], ref["m"]], ref), accuracy=True, label=label))
    for m in (3, 5, 7):
        for _ in range(PROBE_RAYS):
            r0 = rng.uniform(0.05, 0.2)
            radii = tuple(r0 * 10.0 ** -j for j in range(4))
            ops.append(Op("probe_ray", _probe_op(m, radii, True)))
            ops.append(Op("probe_control", _probe_op(m, radii, False), expect=False))
    rng.shuffle(ops)
    return ops


def build(workload: str, seed: int, work_dir: str) -> list:
    if workload == "poly_exact":
        return build_poly_exact(seed)
    if workload == "axial_exact":
        return build_axial_exact(seed)
    if workload == "numeric_grid":
        return build_numeric_grid(seed, work_dir)
    if workload == "numeric_probe":
        return build_numeric_probe(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
