"""tools/bench_trajectory.py on synthetic run records."""

import importlib.util
import json
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
    return {"record": meta, "end_to_end": e2e}


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


def test_committed_trajectories_are_well_formed():
    files = sorted(TOOL.parent.parent.glob("BENCH_*.json"))
    assert files
    for path in files:
        assert bt.check(json.loads(path.read_text()), SPEC) == [], path
