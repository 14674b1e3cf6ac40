"""tools/bench_trajectory.py on synthetic run records."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_trajectory.py"
_spec = importlib.util.spec_from_file_location("bench_trajectory", TOOL)
bt = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bt)

SPEC = bt.end_to_end_spec()


def _record(workload, seed, revision, wall_s, trace=0, ok_ratio=1.0):
    e2e = {name: 1.0 for name in SPEC}
    e2e.update(wall_s=wall_s, ok_ratio=ok_ratio)
    meta = {"workload": workload, "seed": seed, "trace": trace, "python": "3.11.7", "git_revision": revision, "nproc": 2}
    # unscaled passes: set-ups of 0.1 s and walls around ten times the scaled wall
    passes = [{"setup_s": 0.1, "wall_s": 10 * wall_s + d} for d in (-1, 0, 0.5)]
    return {"record": meta, "end_to_end": e2e, "passes": passes}


def _write(out_dir, records):
    out_dir.mkdir(parents=True, exist_ok=True)
    for rec in records:
        meta = rec["record"]
        path = out_dir / f"record-{meta['workload']}-seed{meta['seed']}-trace{meta['trace']}.json"
        path.write_text(json.dumps(rec))


def _doc():
    parent = {("poly_exact", s): _record("poly_exact", s, "aaa", w) for s, w in zip(range(1, 6), (5, 4, 6, 5, 7))}
    change = {("poly_exact", s): _record("poly_exact", s, "bbb", w) for s, w in zip(range(1, 6), (4, 3, 4, 6, 5))}
    # a seed only the change ran has no pair
    change["poly_exact", 9] = _record("poly_exact", 9, "bbb", 0.1)
    return bt.summarize(("aaa", parent), ("bbb", change), SPEC)


def test_summary_medians_quartiles_and_wins():
    doc = _doc()
    assert bt.check(doc, SPEC) == []
    entry = doc["workloads"]["poly_exact"]
    assert entry["seeds"] == [1, 2, 3, 4, 5]
    wall = entry["metrics"]["wall_s"]
    assert (wall["parent_median"], wall["change_median"]) == (5, 4)
    assert (wall["parent_q1"], wall["parent_q3"]) == (5, 6)
    assert (wall["wins"], wall["pairs"]) == (4, 5)  # seed 4 got slower
    assert wall["change"] == pytest.approx(-0.2)
    # equal values are no win; for a higher-is-better ratio, a rise is one
    assert entry["metrics"]["setup_s"]["wins"] == 0
    assert doc["parent"] == {"git_revision": "aaa", "python": ["3.11.7"], "nproc": [2], "records": 5}
    assert doc["change"]["records"] == 6
    # unscaled: the median over the paired seeds of each run's median pass
    assert entry["unscaled"] == {
        "setup_s": {"parent_median": 0.1, "change_median": 0.1},
        "wall_s": {"parent_median": 50, "change_median": 40},
    }


def test_records_group_by_revision(tmp_path):
    out = tmp_path / "perfbench" / "out"
    _write(out, [_record("numeric_grid", 1, "unknown", 2.0), _record("axial_exact", 1, "old", 3.0)])
    # a traced run's record holds no end-to-end metrics of its own and is not read
    _write(out, [_record("numeric_probe", 2, "unknown", 2.0, trace=1)])
    groups = bt.group_records(sorted(out.glob("record-*-trace0.json")))
    assert {rev: sorted(recs) for rev, recs in groups.items()} == {"unknown": [("numeric_grid", 1)], "old": [("axial_exact", 1)]}
    # outside a git work tree the revision is "unknown", as perfbench/run.py records it
    revision, records, skipped = bt.side_records(str(tmp_path))
    assert (revision, sorted(records), skipped) == ("unknown", [("numeric_grid", 1)], 1)


def test_traced_summary_keeps_the_medians_of_metrics_not_always_0():
    def traced(seed, revision, csv_s, dirac_calls):
        rec = _record("numeric_grid", seed, revision, 1.0, trace=1)
        rec["metrics"] = {
            "numeric.write_sample_csv.self_s": {"value": csv_s, "unit": "s"},
            "cliffpoly.dirac.calls": {"value": dirac_calls, "unit": "count"},
        }
        return rec

    parent = {("numeric_grid", s): traced(s, "aaa", t, 0) for s, t in ((1, 0.3), (2, 0.2), (3, 0.4))}
    change = {("numeric_grid", s): traced(s, "bbb", t, 0) for s, t in ((1, 0.2), (3, 0.1))}
    out = bt.summarize_traced(parent, change)
    # seed 2 has no pair; the dirac count reads 0 everywhere and is left out
    assert out == {
        "numeric_grid": {
            "seeds": [1, 3],
            "metrics": {"numeric.write_sample_csv.self_s": {"parent_median": 0.35, "change_median": pytest.approx(0.15)}},
        }
    }
    doc = dict(_doc(), traced=out)
    assert bt.check(doc, SPEC) == []
    doc["traced"]["numeric_grid"]["metrics"]["numeric.write_sample_csv.self_s"]["change_median"] = None
    assert bt.check(doc, SPEC) == ["traced.numeric_grid: needs finite parent_median and change_median per metric"]
    assert bt.summarize_traced(parent, {}) == {}


def test_summary_refuses_one_revision_and_no_pairs():
    recs = {("poly_exact", 1): _record("poly_exact", 1, "aaa", 1.0)}
    with pytest.raises(ValueError, match="same git revision"):
        bt.summarize(("aaa", recs), ("aaa", recs), SPEC)
    with pytest.raises(ValueError, match="both sides"):
        bt.summarize(("aaa", recs), ("bbb", {("axial_exact", 1): _record("axial_exact", 1, "bbb", 1.0)}), SPEC)


def test_check_names_the_faults(tmp_path, capsys):
    good = tmp_path / "BENCH_1.json"
    good.write_text(json.dumps(_doc()))
    assert bt.main(["--check", str(good)]) == 0
    broken = []
    for edit in (
        lambda d: d.update(schema="other"),
        lambda d: d["workloads"]["poly_exact"]["metrics"]["wall_s"].update(wins=6),
        lambda d: d["workloads"]["poly_exact"]["metrics"]["wall_s"].update(parent_median=9),
        lambda d: d["workloads"]["poly_exact"]["metrics"]["wall_s"].update(change=float("nan")),
        lambda d: d["workloads"]["poly_exact"]["metrics"].pop("ok_ratio"),
        lambda d: d["workloads"]["poly_exact"]["metrics"]["op_p50_ms"].update(unit="s"),
        lambda d: d["change"].pop("git_revision"),
        lambda d: d.update(suites={"core": {"parent_s": 1.0}}),
        lambda d: d["workloads"]["poly_exact"]["unscaled"].pop("setup_s"),
        lambda d: d["workloads"]["poly_exact"]["unscaled"]["wall_s"].update(change_median=-1.0),
        lambda d: d.update(tier1={"parent_s": 9.0}),
        lambda d: d.update(tier1={"parent_s": 9.0, "change_s": float("inf")}),
    ):
        doc = _doc()
        edit(doc)
        assert bt.check(doc, SPEC), doc
        path = tmp_path / f"BENCH_{len(broken) + 2}.json"
        path.write_text(json.dumps(doc))
        broken.append(str(path))
    (tmp_path / "BENCH_99.json").write_text("{")
    broken.append(str(tmp_path / "BENCH_99.json"))
    capsys.readouterr()
    assert bt.main(["--check", str(good), *broken]) == 1
    out, err = capsys.readouterr()
    assert out == f"1 of {len(broken) + 1} trajectory files well formed\n"
    assert len(err.splitlines()) == len(broken) and "wins outside 0..pairs" in err


def test_check_accepts_files_without_unscaled_times_or_tier1():
    # files written before the unscaled medians and the tier-1 time hold neither key
    doc = _doc()
    del doc["workloads"]["poly_exact"]["unscaled"]
    assert "tier1" not in doc and bt.check(doc, SPEC) == []
    doc["tier1"] = {"parent_s": 9.5, "change_s": 8.25}
    assert bt.check(doc, SPEC) == []


def test_tier1_runs_once_per_side_parent_first(monkeypatch):
    calls = []

    def fake_run(cmd, cwd, env, **kwargs):
        calls.append((cmd[1:], cwd, env["PYTHONPATH"]))
        return subprocess.CompletedProcess(cmd, 1 if cwd == "broken" else 0, stdout="1 failed\n", stderr="")

    monkeypatch.setattr(bt.subprocess, "run", fake_run)
    t = bt.time_tier1("p", "c")
    assert set(t) == {"parent_s", "change_s"} and all(v >= 0 for v in t.values())
    assert [cwd for _, cwd, _ in calls] == ["p", "c"]
    assert calls[0] == (list(bt.TIER1), "p", str(Path("p") / "src"))
    with pytest.raises(RuntimeError, match="tier-1 run exited 1 in broken: 1 failed"):
        bt.time_tier1("p", "broken")


def _git(repo, *args):
    subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t", *args], check=True, capture_output=True)


def test_refuses_a_checkout_with_uncommitted_src(tmp_path, capsys):
    repo = tmp_path / "change"
    (repo / "src" / "pkg").mkdir(parents=True)
    (repo / "src" / "pkg" / "a.py").write_text("x = 1\n")
    (repo / "notes.txt").write_text("kept out of src\n")
    _git(repo, "init", "-q")
    _git(repo, "add", "src")
    _git(repo, "commit", "-q", "-m", "seed")
    assert bt.uncommitted_src(str(repo)) == []  # an untracked file outside src/ does not count
    assert bt.uncommitted_src(str(tmp_path)) == []  # not a git work tree
    (repo / "src" / "pkg" / "a.py").write_text("x = 2\n")
    (repo / "src" / "pkg" / "b.py").write_text("y = 1\n")
    assert bt.uncommitted_src(str(repo)) == ["src/pkg/a.py", "src/pkg/b.py"]
    out = tmp_path / "BENCH_1.json"
    assert bt.main(["--parent", str(tmp_path), "--change", str(repo), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "uncommitted changes under src/" in err
    assert "change: src/pkg/a.py" in err and "change: src/pkg/b.py" in err
    assert not out.exists()


def test_committed_trajectories_are_well_formed():
    files = sorted(TOOL.parent.parent.glob("BENCH_*.json"))
    assert files
    for path in files:
        assert bt.check(json.loads(path.read_text()), SPEC) == [], path
