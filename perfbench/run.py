"""fueterlab benchmark: closed-loop passes over one workload, one result line.

    python3 perfbench/run.py --workload poly_exact --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each pass runs in a fresh interpreter (perfbench/worker.py), so the
program's memo caches start cold as they do for every CLI call.  One
client runs one op at a time; passes follow each other until --seconds
have gone by, and at least MIN_PASSES passes run.

With --trace 0 the result carries the end-to-end metrics of BENCHMARK.json;
with --trace 1 untraced and traced passes alternate and the result
carries the per-layer metrics of the traced passes.  The last line of standard output is the JSON result; the lines
before it name every metric with its unit, and a run record is written to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

MIN_PASSES = 5
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
# Nominal time of worker.reference_loop.  Op latencies are measured in
# multiples of it and reported times this, i.e. in seconds on a host where
# the reference loop takes exactly REF_S.
REF_S = 1e-3
DEADLINE_S = 160.0
WORKER_TIMEOUT_S = 150.0
# per-layer metrics that are times and may differ between traced passes
TIMED_SUFFIXES = (".self_s", "bench.uncovered_share")


class BenchError(RuntimeError):
    pass


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def pinned_env() -> dict:
    """Worker environment: fixed hash seed, serial scan, BLAS threads capped at nproc."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env.pop("FUETER_LAB_THREADS", None)
    nproc = os.cpu_count() or 1
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
        cur = env.get(var, "")
        if not (cur.isdigit() and 1 <= int(cur) <= nproc):
            env[var] = str(nproc)
    return env


def _version(dist: str) -> str:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def _git_revision() -> str:
    """HEAD of the checkout, or "unknown" where it is not a git work tree."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_record(workload: str, seed: int, trace: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "mpmath": _version("mpmath"),
        "git_revision": _git_revision(),
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
    }


def run_worker(workload: str, seed: int, trace: bool, env: dict, work_dir: str) -> dict:
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed), "--work-dir", work_dir]
    if trace:
        cmd += ["--trace", "--spans", os.path.join(OUT, f"spans-{workload}.tsv")]
    t_spawn = time.monotonic_ns()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_ns"] = result["t_ready_ns"] - t_spawn
    return result


def tail_percentile(n_ops: int) -> float:
    """Highest ladder percentile with at least 10 of n_ops beyond it."""
    return max((p for p in TAIL_LADDER if n_ops * (1.0 - p / 100.0) >= 10), default=TAIL_LADDER[0])


def tail_mean(sorted_vals: list, pct: float) -> tuple:
    """Mean of the values from percentile pct (nearest rank) up, and how many values that is.

    The workloads' op costs come in clusters, one per kind and size of
    instance, and which cluster a single percentile falls in can depend on
    the seed; the mean over the tail does not jump between clusters.
    """
    idx = max(0, math.ceil(pct / 100.0 * len(sorted_vals)) - 1)
    tail = sorted_vals[idx:]
    return statistics.fmean(tail), len(tail)


def run_passes(workload: str, seed: int, seconds: int, trace: bool) -> tuple:
    env = pinned_env()
    work_dir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    plain, traced = [], []
    start = time.monotonic()
    try:
        while True:
            elapsed = time.monotonic() - start
            if trace:
                enough = plain and traced
            else:
                enough = len(plain) >= MIN_PASSES
            if enough and elapsed >= seconds:
                break
            if elapsed > DEADLINE_S:
                raise BenchError(f"no complete run within {DEADLINE_S:.0f} s")
            do_trace = trace and len(traced) < len(plain)
            (traced if do_trace else plain).append(run_worker(workload, seed, do_trace, env, work_dir))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return plain, traced


def end_to_end(plain: list) -> tuple:
    """End-to-end metrics of the untraced passes, and notes for the report.

    On a shared host the speed of the CPU drifts by up to ~1.9x over
    seconds to minutes with other tenants' load, and a whole run can fall
    in a slow stretch.  So every op's latency is divided by the latency of
    the reference loop timed right after it, an op's cost is the median of
    these ratios over the passes, and costs are scaled by REF_S back to
    seconds.  wall_s is the sum of the costs of the instance list (one
    pass), op_p50_ms is their median and op_tail_ms the mean of their tail.  Set-up time
    is scaled the same way, by the median reference loop of its pass, and
    its median over the passes is reported.  Memory is the median over the
    passes.
    """
    per_op = zip(zip(*(p["latency_ns"] for p in plain)), zip(*(p["ref_ns"] for p in plain)))
    cost = sorted(statistics.median(lat / ref for lat, ref in zip(lats, refs)) * REF_S for lats, refs in per_op)
    pct = tail_percentile(len(cost))
    tail, n_tail = tail_mean(cost, pct)
    walls = [p["wall_ns"] / 1e9 for p in plain]
    ref_ms = statistics.median(r for p in plain for r in p["ref_ns"]) / 1e6
    setups = [p["setup_ns"] / statistics.median(p["ref_ns"]) * REF_S for p in plain]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(cost),
        "op_p50_ms": statistics.median(cost) * 1e3,
        "op_tail_ms": tail * 1e3,
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in plain) / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(plain)} set-ups in units of the reference loop of their pass; "
        f"{statistics.median(p['setup_ns'] for p in plain) / 1e9:.4g} s median unscaled",
        "wall_s": f"{len(cost)} ops, each at its median over {len(plain)} passes in units of the reference loop "
        f"(median {ref_ms:.4g} ms here, {REF_S * 1e3:g} ms nominal); "
        f"whole passes took {min(walls):.4g} s at best, {statistics.median(walls):.4g} s median, unscaled",
        "op_p50_ms": f"over the same {len(cost)} ops",
        "op_tail_ms": f"mean of the {n_tail} of the same {len(cost)} ops from p{pct:g} up",
    }
    return metrics, notes


def outcome(passes: list) -> dict:
    attempted = sum(len(p["latency_ns"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    errs = [a for p in passes for a in p["accuracy"]]
    bad = [a for a in errs if a["inaccurate"]]
    return {
        "attempted": attempted,
        "failed": failed,
        "checked": len(errs),
        "inaccurate": len(bad),
        "worst": max(errs, key=lambda a: a["rel_err"], default=None),
        "failures": [f for p in passes for f in p["failures"]][:10],
        "known_defects": passes[0]["known_defects"],
    }


def per_layer(plain: list, traced: list) -> tuple:
    """Per-layer metrics of the traced passes; False if their counts differ."""
    layers = [t["layers"] for t in traced]
    repeat = all(
        {k: v for k, v in lay.items() if not k.endswith(TIMED_SUFFIXES)}
        == {k: v for k, v in layers[0].items() if not k.endswith(TIMED_SUFFIXES)}
        for lay in layers
    )
    metrics = dict(layers[0])
    for key in metrics:
        if key.endswith(TIMED_SUFFIXES):
            metrics[key] = statistics.median(lay[key] for lay in layers)
    metrics["bench.trace_overhead_s"] = (
        statistics.median(t["wall_ns"] for t in traced) - statistics.median(p["wall_ns"] for p in plain)
    ) / 1e9
    metrics["bench.known_defect_failures"] = len(traced[0]["known_defects"])
    return metrics, repeat


def run_workload(spec: dict, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    record = run_record(workload, seed, trace)
    plain, traced = run_passes(workload, seed, seconds, trace)
    res = outcome(plain + traced)
    res["inaccurate_ratio"] = res["inaccurate"] / res["checked"] if res["checked"] else 0.0
    e2e, notes = end_to_end(plain)
    # the ratios of the report, turned so that they are never 0
    e2e["ok_ratio"] = 1.0 - res["failed"] / res["attempted"]
    e2e["accurate_ratio"] = 1.0 - res["inaccurate_ratio"]
    correct = res["failed"] == 0
    if trace:
        computed, repeat = per_layer(plain, traced)
        correct = correct and repeat
        wanted = spec["per_layer"]
    else:
        computed, wanted = e2e, spec["end_to_end"]
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"# {workload}: seed={seed} trace={int(trace)} passes={len(plain)} untraced + {len(traced)} traced")
    print("# record: " + " ".join(f"{k}={v}" for k, v in record.items() if k not in ("workload", "seed", "trace")))
    for name, m in metrics.items():
        note = f"  ({notes[name]})" if name in notes and not trace else ""
        print(f"{workload} {name} {m['value']:.6g} {m['unit']}{note}")
    print(f"{workload} fail_ratio {res['failed'] / res['attempted']:.6g} ratio  ({res['failed']}/{res['attempted']} ops)")
    print(f"{workload} inaccurate_ratio {res['inaccurate_ratio']:.6g} ratio  ({res['inaccurate']}/{res['checked']} points)")
    if res["worst"] is not None:
        print(f"# worst accuracy point: {res['worst']['point']} rel_err={res['worst']['rel_err']:.3e}")
    for f in res["failures"]:
        print(f"# FAILED op {f['op']} {f['kind']} {f['label']} {f['error'] or f['got']}")
    for d in res["known_defects"]:
        print(f"# known defect, not counted as failed: {d['kind']} {d['error']}")
    if trace and not correct and res["failed"] == 0:
        print("# FAILED: per-layer counts differ between traced passes")

    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"record-{workload}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(
            {
                "record": record,
                "metrics": metrics,
                "end_to_end": e2e,
                "outcome": res,
                "passes": [{"setup_s": p["setup_ns"] / 1e9, "wall_s": p["wall_ns"] / 1e9} for p in plain],
                "traced_walls_s": [t["wall_ns"] / 1e9 for t in traced],
            },
            fh,
            indent=1,
        )
    return {"correct": correct, "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}


def main(argv=None) -> int:
    spec = load_spec()
    workloads = tuple(w["name"] for w in spec["workloads"])
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "fueterlab", "__init__.py")):
        print("error: src/fueterlab not found next to the benchmark", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = workloads if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(spec, w, args.seed, seconds, bool(args.trace)) for w in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
