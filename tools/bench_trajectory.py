"""Write or check a performance trajectory file (BENCH_<n>.json) for one change.

A trajectory compares a parent checkout with a change checkout.  It reads
the run records that `python3 perfbench/run.py --workload <w> --seed <s>
--trace 0` leaves in each checkout's perfbench/out/, groups them by
`record.git_revision` and keeps, per side, the records of the checkout's
own HEAD, so records left by runs at other revisions are skipped.  Parent
and change records of the same workload and seed form a pair.  Per
workload and end-to-end metric of BENCHMARK.json it writes the parent and
change medians, the parent's quartiles and the change's wins (strictly
better, in the metric's direction) out of the pairs.  Beside them it
writes, per workload and side, the medians of the unscaled pass times
(`setup_s` and `wall_s` under each record's "passes"): the scaled metrics
are in units of a reference loop, which itself slows when a pass keeps
more objects alive.  It also times `fueterlab verify --suite <s> --json`
per suite in both checkouts, alternating between them, and keeps the
median wall time of each, and times one tier-1 run per side.  Where both
checkouts also hold traced runs (`--trace 1`) of the same workload and
seed, it writes the per-side medians of their per-layer metrics under
"traced", leaving out those that read 0 on both sides.  It refuses
(exit 2) a checkout with uncommitted changes under src/, since
perfbench/run.py files such runs under HEAD.  Standard library only:

    # after alternating parent/change runs of perfbench/run.py, same seeds on both sides
    python3 tools/bench_trajectory.py --parent ../parent --change . --out BENCH_22.json
    # exits 1 if a file is malformed, naming its faults
    python3 tools/bench_trajectory.py --check BENCH_*.json
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMA = "fueterlab-bench-trajectory/1"
SUITES = ("core", "operators", "examples", "hermite", "gauss", "gauss_fund")
SUITE_REPEATS = 5  # verify runs per suite and side
SIDE_KEYS = ("git_revision", "python", "nproc", "records")
METRIC_KEYS = ("unit", "better", "pairs", "wins", "parent_median", "change_median", "parent_q1", "parent_q3", "change")
UNSCALED = ("setup_s", "wall_s")  # unscaled per-pass times each run record keeps under "passes"
SIDE_MEDIANS = ("parent_median", "change_median")
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider")


def end_to_end_spec(root: str = ROOT) -> dict:
    """{metric name: {"unit", "better"}} of the end-to-end metrics in root/BENCHMARK.json."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: {"unit": m["unit"], "better": m["better"]} for m in spec["end_to_end"]}


def git_revision(checkout: str) -> str:
    """HEAD of checkout, or "unknown" as perfbench/run.py records it outside a git work tree."""
    try:
        proc = subprocess.run(["git", "-C", checkout, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def uncommitted_src(checkout: str) -> list:
    """Paths under checkout's src/ that differ from HEAD or are untracked; empty outside a git work tree."""
    try:
        proc = subprocess.run(
            ["git", "-C", checkout, "status", "--porcelain", "--", "src"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return []
    return [line[3:] for line in proc.stdout.splitlines()] if proc.returncode == 0 else []


def group_records(paths) -> dict:
    """{git revision: {(workload, seed): record}} of the run records at paths."""
    groups: dict = {}
    for path in paths:
        with open(path) as fh:
            rec = json.load(fh)
        meta = rec["record"]
        groups.setdefault(meta["git_revision"], {})[meta["workload"], meta["seed"]] = rec
    return groups


def side_records(checkout: str, trace: int = 0) -> tuple:
    """(revision, {(workload, seed): record}) of the runs at checkout's HEAD, untraced by default, and
    how many records of that kind of other revisions were skipped."""
    revision = git_revision(checkout)
    pattern = os.path.join(checkout, "perfbench", "out", f"record-*-trace{trace}.json")
    groups = group_records(sorted(glob.glob(pattern)))
    skipped = sum(len(recs) for rev, recs in groups.items() if rev != revision)
    return revision, groups.get(revision, {}), skipped


def _quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _side(revision: str, records: dict) -> dict:
    metas = [rec["record"] for rec in records.values()]
    return {
        "git_revision": revision,
        "python": sorted({m["python"] for m in metas}),
        "nproc": sorted({m["nproc"] for m in metas}),
        "records": len(records),
    }


def summarize(parent: tuple, change: tuple, spec: dict) -> dict:
    """Trajectory of the (revision, records) sides; records pair up by workload and seed."""
    (p_rev, p_recs), (c_rev, c_recs) = parent, change
    if p_rev == c_rev:
        raise ValueError(f"parent and change records carry the same git revision {p_rev}")
    pairs = sorted(set(p_recs) & set(c_recs))
    if not pairs:
        raise ValueError("no workload and seed was run on both sides")
    workloads: dict = {}
    for workload in sorted({w for w, _ in pairs}):
        seeds = [s for w, s in pairs if w == workload]
        metrics = {}
        for name, meta in spec.items():
            before = [p_recs[workload, s]["end_to_end"][name] for s in seeds]
            after = [c_recs[workload, s]["end_to_end"][name] for s in seeds]
            sign = 1 if meta["better"] == "lower" else -1
            q1, p_med, q3 = _quartiles(before)
            c_med = statistics.median(after)
            metrics[name] = {
                "unit": meta["unit"],
                "better": meta["better"],
                "pairs": len(seeds),
                "wins": sum(sign * (b - a) > 0 for b, a in zip(before, after)),
                "parent_median": p_med,
                "change_median": c_med,
                "parent_q1": q1,
                "parent_q3": q3,
                # relative change of the medians; 0 when both are 0
                "change": (c_med - p_med) / p_med if p_med else float(c_med != p_med),
            }
        unscaled = {
            # the median over the seeds of each run's median pass
            name: {
                f"{side}_median": statistics.median(
                    statistics.median(p[name] for p in recs[workload, s]["passes"]) for s in seeds
                )
                for side, recs in (("parent", p_recs), ("change", c_recs))
            }
            for name in UNSCALED
        }
        workloads[workload] = {"seeds": seeds, "metrics": metrics, "unscaled": unscaled}
    return {
        "schema": SCHEMA,
        "parent": _side(p_rev, p_recs),
        "change": _side(c_rev, c_recs),
        "workloads": workloads,
        "suites": {},
    }


def summarize_traced(parent: dict, change: dict) -> dict:
    """{workload: {"seeds", "metrics": {name: {"parent_median", "change_median"}}}} of the traced
    records that pair up by workload and seed; a metric that reads 0 in every run is left out."""
    pairs = sorted(set(parent) & set(change))
    out = {}
    for workload in sorted({w for w, _ in pairs}):
        seeds = [s for w, s in pairs if w == workload]
        metrics = {}
        for name in parent[workload, seeds[0]]["metrics"]:
            before = [parent[workload, s]["metrics"][name]["value"] for s in seeds]
            after = [change[workload, s]["metrics"][name]["value"] for s in seeds]
            if any(before) or any(after):
                metrics[name] = {"parent_median": statistics.median(before), "change_median": statistics.median(after)}
        out[workload] = {"seeds": seeds, "metrics": metrics}
    return out


def _run_seconds(checkout: str, args: list, what: str) -> float:
    """Wall time of `python <args>` in checkout, importing its src/ and writing no bytecode."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=checkout, env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        detail = proc.stderr.strip() or proc.stdout.strip()[-500:]  # pytest reports on stdout
        raise RuntimeError(f"{what} exited {proc.returncode} in {checkout}: {detail}")
    return seconds


def time_suites(parent_dir: str, change_dir: str, repeats: int = SUITE_REPEATS) -> dict:
    """{suite: {"parent_s", "change_s", "repeats"}}, medians of alternating subprocess runs."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        report = os.path.join(tmp, "report.json")
        for suite in SUITES:
            times: dict = {"parent": [], "change": []}
            for _ in range(repeats):
                for side, checkout in (("parent", parent_dir), ("change", change_dir)):
                    args = ["-m", "fueterlab.cli", "verify", "--suite", suite, "--json", report]
                    times[side].append(_run_seconds(checkout, args, f"verify --suite {suite}"))
            out[suite] = {
                "parent_s": statistics.median(times["parent"]),
                "change_s": statistics.median(times["change"]),
                "repeats": repeats,
            }
    return out


def time_tier1(parent_dir: str, change_dir: str) -> dict:
    """{"parent_s", "change_s"}: wall time of one tier-1 pytest run per checkout, parent first."""
    return {
        f"{side}_s": _run_seconds(checkout, TIER1, "tier-1 run")
        for side, checkout in (("parent", parent_dir), ("change", change_dir))
    }


def _finite(x) -> bool:
    return type(x) in (int, float) and math.isfinite(x)


def _nonneg(x) -> bool:
    return _finite(x) and x >= 0


def check(doc, spec: dict) -> list:
    """Faults of a trajectory document, as readable lines; empty if it is well formed."""
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        return [f"schema is not {SCHEMA!r}"]
    faults = []
    for side in ("parent", "change"):
        meta = doc.get(side)
        if not isinstance(meta, dict) or any(k not in meta for k in SIDE_KEYS):
            faults.append(f"{side}: needs the keys {', '.join(SIDE_KEYS)}")
    workloads = doc.get("workloads")
    if not isinstance(workloads, dict) or not workloads:
        return faults + ["workloads: none"]
    for workload, entry in workloads.items():
        metrics = entry.get("metrics") if isinstance(entry, dict) else None
        if not isinstance(metrics, dict) or set(metrics) != set(spec):
            faults.append(f"{workload}: metrics must be the end-to-end metrics {', '.join(spec)}")
            continue
        seeds = entry.get("seeds")
        for name, m in metrics.items():
            where = f"{workload}.{name}"
            if any(k not in m for k in METRIC_KEYS):
                faults.append(f"{where}: needs the keys {', '.join(METRIC_KEYS)}")
            elif (m["unit"], m["better"]) != (spec[name]["unit"], spec[name]["better"]):
                faults.append(f"{where}: unit or direction differs from BENCHMARK.json")
            elif not all(_finite(m[k]) for k in METRIC_KEYS[4:]):
                faults.append(f"{where}: a median, quartile or change is not a finite number")
            elif not (type(m["pairs"]) is int and isinstance(seeds, list) and m["pairs"] == len(seeds) >= 1):
                faults.append(f"{where}: pairs must be the number of seeds, at least 1")
            elif not (type(m["wins"]) is int and 0 <= m["wins"] <= m["pairs"]):
                faults.append(f"{where}: wins outside 0..pairs")
            elif not m["parent_q1"] <= m["parent_median"] <= m["parent_q3"]:
                faults.append(f"{where}: parent median outside its quartiles")
        unscaled = entry.get("unscaled")  # absent before BENCH_22
        if unscaled is not None and not (
            isinstance(unscaled, dict)
            and set(unscaled) == set(UNSCALED)
            and all(isinstance(t, dict) and all(_nonneg(t.get(k)) for k in SIDE_MEDIANS) for t in unscaled.values())
        ):
            faults.append(f"{workload}.unscaled: needs finite nonnegative {' and '.join(SIDE_MEDIANS)} of {', '.join(UNSCALED)}")
    suites = doc.get("suites")
    if not isinstance(suites, dict):
        faults.append("suites: not a mapping")
    else:
        for suite, t in suites.items():
            if not (isinstance(t, dict) and _finite(t.get("parent_s")) and _finite(t.get("change_s"))):
                faults.append(f"suites.{suite}: needs finite parent_s and change_s")
    for workload, entry in doc.get("traced", {}).items():  # absent before BENCH_30
        metrics = entry.get("metrics") if isinstance(entry, dict) else None
        if not (
            isinstance(metrics, dict)
            and all(isinstance(m, dict) and all(_finite(m.get(k)) for k in SIDE_MEDIANS) for m in metrics.values())
        ):
            faults.append(f"traced.{workload}: needs finite {' and '.join(SIDE_MEDIANS)} per metric")
    if "tier1" in doc:  # absent before BENCH_22
        t = doc["tier1"]
        if not (isinstance(t, dict) and all(_nonneg(t.get(k)) for k in ("parent_s", "change_s"))):
            faults.append("tier1: needs finite nonnegative parent_s and change_s")
    return faults


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", help="parent checkout, holding perfbench/out/ records")
    ap.add_argument("--change", help="change checkout, holding perfbench/out/ records")
    ap.add_argument("--out", help="trajectory file to write")
    ap.add_argument("--check", nargs="+", metavar="FILE", help="check trajectory files instead of writing one")
    args = ap.parse_args(argv)
    spec = end_to_end_spec()
    if args.check:
        bad = 0
        for path in args.check:
            try:
                with open(path) as fh:
                    faults = check(json.load(fh), spec)
            except (OSError, ValueError) as exc:
                faults = [str(exc)]
            for fault in faults:
                print(f"{path}: {fault}", file=sys.stderr)
            bad += bool(faults)
        print(f"{len(args.check) - bad} of {len(args.check)} trajectory files well formed")
        return 1 if bad else 0
    if not (args.parent and args.change and args.out):
        ap.error("writing needs --parent, --change and --out")
    checkouts = (("parent", args.parent), ("change", args.change))
    dirty = [f"{label}: {path}" for label, checkout in checkouts for path in uncommitted_src(checkout)]
    if dirty:
        print("error: uncommitted changes under src/, whose runs perfbench/run.py files under HEAD:", file=sys.stderr)
        for line in dirty:
            print(f"  {line}", file=sys.stderr)
        return 2
    sides = []
    for label, checkout in checkouts:
        revision, records, skipped = side_records(checkout)
        if skipped:
            print(f"{label}: skipped {skipped} records of revisions other than {revision}", file=sys.stderr)
        sides.append((revision, records))
    try:
        doc = summarize(*sides, spec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    traced = summarize_traced(*(side_records(checkout, trace=1)[1] for _, checkout in checkouts))
    if traced:
        doc["traced"] = traced
    doc["suites"] = time_suites(args.parent, args.change)
    doc["tier1"] = time_tier1(args.parent, args.change)
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    for workload, entry in doc["workloads"].items():
        for name, m in entry["metrics"].items():
            u = entry["unscaled"].get(name)
            beside = f"; unscaled pass median {u['parent_median']:.6g} -> {u['change_median']:.6g} s" if u else ""
            print(
                f"{workload} {name} {m['parent_median']:.6g} -> {m['change_median']:.6g} {m['unit']} "
                f"({m['change']:+.1%}, parent IQR {m['parent_q1']:.6g}..{m['parent_q3']:.6g}, "
                f"{m['wins']}/{m['pairs']} wins{beside})"
            )
    for workload, entry in traced.items():
        for name, m in entry["metrics"].items():
            print(f"traced {workload} {name} {m['parent_median']:.6g} -> {m['change_median']:.6g}")
    for suite, t in doc["suites"].items():
        print(f"verify --suite {suite}: {t['parent_s']:.3f} s -> {t['change_s']:.3f} s")
    print(f"tier-1: {doc['tier1']['parent_s']:.2f} s -> {doc['tier1']['change_s']:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
