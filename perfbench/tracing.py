"""Spans around the calls into each fueterlab layer, recorded from outside.

`Tracer.install` rebinds each traced public function in every fueterlab
module that binds it by name (cliffpoly imports `gp` directly, so
wrapping only `clifford.gp` would miss every polynomial product) and
patches the traced methods and constructors on their classes.

A span records its name, start, end, parent span and the op it belongs
to.  Spans stay in memory and are written out when the pass ends.  A
span's self time is its duration minus the durations of its direct
children; calls made in one thread never overlap, so the children never
overlap either.
"""

from __future__ import annotations

import inspect
import os
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

# (module, attribute) of each traced function and the span it records.
FUNCTIONS = (
    ("cliffpoly", "poly_mul"),
    ("cliffpoly", "dirac"),
    ("cliffpoly", "laplacian"),
    ("cliffpoly", "ck_extend_poly"),
    ("cliffpoly", "hermite_rec"),
    ("cliffpoly", "hermite_closed"),
    ("axial", "d_lower"),
    ("axial", "d_upper"),
    ("fueter", "seed"),
    ("fueter", "fueter"),
    ("fueter", "vekua_ok"),
    ("fueter", "triangle_check"),
    ("fueter", "fueter_via_laplacian"),
    ("fueter", "axial_to_poly"),
    ("numeric", "eval_axial"),
    ("numeric", "decay_scan"),
    ("numeric", "write_sample_csv"),
    ("numeric", "verify_sample_csv"),
    ("numeric", "fd_cr_residual"),
    ("numeric", "entire_part_probe"),
    ("numeric", "ck_gauss_series"),
)
# (module, class, method, span name)
METHODS = (
    ("cliffpoly", "CliffPoly", "eval", "cliffpoly.CliffPoly.eval"),
    ("axial", "AxialExpr", "diff", "axial.diff"),
    ("axial", "AxialExpr", "_mul_expr", "axial.mul"),
    ("axial", "AxialExpr", "is_zero", "axial.is_zero"),
    ("axial", "AxialExpr", "evaluate", "axial.evaluate"),
    ("axial", "AxialExpr", "evaluate_mp", "axial.evaluate_mp"),
)
ALLOCS = (("clifford", "Multivector"), ("cliffpoly", "CliffPoly"), ("axial", "AxialExpr"))
SPANS = (
    ("clifford.gp_exact", "clifford.gp_float")
    + tuple(f"{mod}.{name}" for mod, name in FUNCTIONS)
    + tuple(span for *_, span in METHODS)
)
# extra counters, beside the call count of every span
COUNTERS = (
    "clifford.gp_exact.blade_pairs",
    "cliffpoly.poly_mul.term_pairs",
    "axial.diff.in_terms",
    "axial.mul.in_terms",
    "axial.is_zero.in_terms",
    "numeric.decay_scan.points",
    "numeric.write_sample_csv.bytes",
    "numeric.verify_sample_csv.rows",
) + tuple(f"{mod}.{cls}.allocs" for mod, cls in ALLOCS)
MAXIMA = ("axial.max_terms", "axial.max_coeff_bits")
# (metric, module, lru-cached function) read through cache_info()
LRU_CACHES = (
    ("fueter.coeff_a_row.hit_ratio", "fueter", "_coeff_a_row"),
    ("numeric.hermite_radial_coeffs.hit_ratio", "numeric", "hermite_radial_coeffs"),
)


def _module(name: str):
    return sys.modules[f"fueterlab.{name}"]


def _rebind(orig, wrapper) -> None:
    """Replace orig by wrapper wherever a fueterlab module binds it by name."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "fueterlab" and not mod_name.startswith("fueterlab."):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, wrapper)


class Tracer:
    """In-memory span recorder; one per traced pass."""

    def __init__(self):
        self.names: list = list(SPANS)
        self.name_of = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.op_index = -1
        self.counts = Counter()
        self.maxima = dict.fromkeys(MAXIMA, 0)
        self._lru_before = {}
        self._vp_calls = 0
        self._vp_hits = 0

    # --- recording --------------------------------------------------------------

    def _wrap(self, fn, span=None, pick=None, before=None, after=None):
        """Span wrapper around fn; pick(args) chooses the span name per call."""
        sid = self.names.index(span) if span is not None else None
        tr = self

        def wrapper(*args, **kw):
            if before is not None:
                before(args, kw)
            i = len(tr.start)
            tr.name_of.append(sid if pick is None else pick(args))
            tr.parent.append(tr.stack[-1])
            tr.op.append(tr.op_index)
            tr.start.append(perf_counter_ns())
            tr.end.append(0)
            tr.stack.append(i)
            try:
                result = fn(*args, **kw)
            finally:
                tr.end[i] = perf_counter_ns()
                tr.stack.pop()
            if after is not None:
                after(args, kw, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _note_max(self, key: str, value: int) -> None:
        if value > self.maxima[key]:
            self.maxima[key] = value

    def _note_pair(self, pair) -> None:
        for expr in (pair.A, pair.B):
            self._note_max("axial.max_terms", len(expr.terms))
            for q in expr.terms.values():
                self._note_max("axial.max_coeff_bits", max(q.numerator.bit_length(), q.denominator.bit_length()))

    def install(self) -> None:
        counts = self.counts
        clifford = _module("clifford")
        exact_id, float_id = self.names.index("clifford.gp_exact"), self.names.index("clifford.gp_float")

        def gp_before(args, kw):
            a, b = args
            if a.exact:
                counts["clifford.gp_exact.blade_pairs"] += len(a.coeffs) * len(b.coeffs)

        gp = clifford.gp
        _rebind(gp, self._wrap(gp, pick=lambda args: exact_id if args[0].exact else float_id, before=gp_before))

        def poly_mul_before(args, kw):
            counts["cliffpoly.poly_mul.term_pairs"] += len(args[0].terms) * len(args[1].terms)

        decay_sig = inspect.signature(_module("numeric").decay_scan)

        def decay_before(args, kw):
            bound = decay_sig.bind(*args, **kw)
            bound.apply_defaults()
            counts["numeric.decay_scan.points"] += bound.arguments["nx0"] * bound.arguments["nr"]

        def csv_after(args, kw, result):
            counts["numeric.write_sample_csv.bytes"] += os.path.getsize(args[0])

        def verify_after(args, kw, result):
            counts["numeric.verify_sample_csv.rows"] += result[1]

        hooks = {
            "poly_mul": {"before": poly_mul_before},
            "decay_scan": {"before": decay_before},
            "write_sample_csv": {"after": csv_after},
            "verify_sample_csv": {"after": verify_after},
            "fueter": {"after": lambda args, kw, pair: self._note_pair(pair)},
        }
        for mod_name, attr in FUNCTIONS:
            orig = getattr(_module(mod_name), attr)
            _rebind(orig, self._wrap(orig, f"{mod_name}.{attr}", **hooks.get(attr, {})))

        def in_terms(key):
            def before(args, kw):
                counts[key] += len(args[0].terms)

            return before

        def mul_before(args, kw):
            counts["axial.mul.in_terms"] += len(args[0].terms) + len(args[1].terms)

        def is_zero_before(args, kw):
            n = len(args[0].terms)
            counts["axial.is_zero.in_terms"] += n
            self._note_max("axial.max_terms", n)

        method_hooks = {
            "axial.diff": in_terms("axial.diff.in_terms"),
            "axial.mul": mul_before,
            "axial.is_zero": is_zero_before,
        }
        for mod_name, cls_name, meth, span in METHODS:
            cls = getattr(_module(mod_name), cls_name)
            setattr(cls, meth, self._wrap(getattr(cls, meth), span, before=method_hooks.get(span)))

        for mod_name, cls_name in ALLOCS:
            cls = getattr(_module(mod_name), cls_name)
            cls.__init__ = self._count_init(cls.__init__, f"{mod_name}.{cls_name}.allocs")

        cliffpoly = _module("cliffpoly")
        vector_power, cache = cliffpoly.vector_power, cliffpoly._XPOW_CACHE
        tr = self

        def vp(m, n):
            tr._vp_calls += 1
            tr._vp_hits += (m, n) in cache
            return vector_power(m, n)

        _rebind(vector_power, vp)
        self._lru_before = {metric: getattr(_module(mod), fn).cache_info() for metric, mod, fn in LRU_CACHES}

    def _count_init(self, init, key):
        counts = self.counts

        def counted(obj, *args, **kw):
            counts[key] += 1
            init(obj, *args, **kw)

        return counted

    # --- results --------------------------------------------------------------------

    def layer_metrics(self, wall_ns: int) -> dict:
        """Per-layer counts, self times (s) and ratios of one traced pass."""
        n = len(self.start)
        child = [0] * n
        dur = [self.end[i] - self.start[i] for i in range(n)]
        root_ns = 0
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
            else:
                root_ns += dur[i]
        calls = Counter()
        self_ns = Counter()
        for i in range(n):
            name = self.names[self.name_of[i]]
            calls[name] += 1
            self_ns[name] += dur[i] - child[i]
        out = {}
        for name in self.names:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_ns[name] / 1e9
        for key in COUNTERS:
            out[key] = self.counts[key]
        out.update(self.maxima)
        out["cliffpoly.vector_power.hit_ratio"] = self._vp_hits / self._vp_calls if self._vp_calls else 0.0
        for metric, mod, fn in LRU_CACHES:
            now, before = getattr(_module(mod), fn).cache_info(), self._lru_before[metric]
            hits, misses = now.hits - before.hits, now.misses - before.misses
            out[metric] = hits / (hits + misses) if hits + misses else 0.0
        out["bench.uncovered_share"] = 1.0 - root_ns / wall_ns if wall_ns else 0.0
        return out

    def dump(self, path: str) -> None:
        """Write every span as one tab-separated line: op, name, parent, start_ns, end_ns."""
        with open(path, "w") as fh:
            fh.write("op\tname\tparent\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                fh.write(f"{self.op[i]}\t{self.names[self.name_of[i]]}\t{self.parent[i]}\t{self.start[i]}\t{self.end[i]}\n")
