"""One pass over a workload's instance list, in a fresh interpreter.

    python3 perfbench/worker.py --workload poly_exact --seed 1 [--trace] \
        --work-dir perfbench/out/work [--spans perfbench/out/spans.tsv]

Imports fueterlab from the checkout's `src/`, builds the workload inputs,
runs every op once, one at a time, and prints one JSON line: the monotonic
time at which the inputs were ready, the pass wall time, each op's
latency and outcome, and the peak resident set.  In an untraced pass
every op is followed by one timed `reference_loop`, so run.py can scale
each op's latency by the host's speed at that moment.  With --trace the
pass runs under `tracing.Tracer`, without the reference loop, and the
line also carries the per-layer metrics.  run.py starts one worker per
pass.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _import_program():
    sys.path.insert(0, SRC)
    import fueterlab

    if os.path.dirname(os.path.dirname(os.path.abspath(fueterlab.__file__))) != SRC:
        raise ImportError(f"fueterlab imported from {fueterlab.__file__}, not from {SRC}")


def reference_loop() -> int:
    """Fixed pure-Python work, independent of fueterlab, that gauges the host's speed.

    It mixes the kinds of work the program spends its time on: Fraction
    sums into a dict keyed by tuples, big-integer products and float
    arithmetic.  It takes about a millisecond.
    """
    acc = {}
    for i in range(1, 200):
        key = (i % 37, i % 11)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i, 7 + i % 5)
    big = 3**40
    for i in range(200):
        key = (i % 13, i % 5)
        acc[key] = acc.get(key, 0) + big * (i + 1) // (i % 7 + 1)
    x = 0.0
    for i in range(1, 550):
        x += (i * 0.5) ** 0.5 / (1.0 + i)
    return len(acc) + int(x)


def run_pass(workload: str, seed: int, trace: bool, work_dir: str, spans: str | None) -> dict:
    import workloads

    ops = workloads.build(workload, seed, work_dir)
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    t_ready = time.monotonic_ns()

    latencies, ref_ns, failures, defects, acc_errors = [], [], [], [], []
    pass_start = time.perf_counter_ns()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_index = i
        t0 = time.perf_counter_ns()
        error = None
        try:
            value = op.run()
        except Exception as exc:  # an op that raises is a failed op
            value, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter_ns()
        lat = t1 - t0
        if tracer is None:
            reference_loop()
            ref = time.perf_counter_ns() - t1
            pass_start += ref  # the pass wall time leaves the reference loop out
        if op.known_defect:
            if error is not None or value != op.expect:
                defects.append({"op": i, "kind": op.kind, "error": error})
            continue
        latencies.append(lat)
        if tracer is None:
            ref_ns.append(ref)
        if op.accuracy:
            ok = error is None and math.isfinite(value)
            if ok:
                acc_errors.append({"point": op.label, "rel_err": value, "inaccurate": value > workloads.INACCURATE_REL})
        else:
            ok = error is None and value == op.expect
        if not ok:
            failures.append({"op": i, "kind": op.kind, "label": op.label, "error": error, "got": repr(value)})
    wall_ns = time.perf_counter_ns() - pass_start

    out = {
        "t_ready_ns": t_ready,
        "wall_ns": wall_ns,
        "latency_ns": latencies,
        "ref_ns": ref_ns,
        "failures": failures,
        "known_defects": defects,
        "accuracy": acc_errors,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        out["layers"] = tracer.layer_metrics(wall_ns)
        if spans:
            tracer.dump(spans)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)
    _import_program()
    result = run_pass(args.workload, args.seed, args.trace, args.work_dir, args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
