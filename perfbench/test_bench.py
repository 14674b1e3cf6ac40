"""Self-test of the benchmark itself.

    python3 -m pytest -q perfbench/test_bench.py

Checks that traced passes repeat their per-layer counts exactly, that the
result line carries exactly the metrics of BENCHMARK.json, that the
perturbed instances catch an equality test that always says "equal", and
that the benchmark fails without the program's source.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _traced_pass(workload: str, seed: int, work_dir: str) -> dict:
    cmd = [sys.executable, run.WORKER, "--workload", workload, "--seed", str(seed), "--trace", "--work-dir", work_dir]
    proc = subprocess.run(cmd, env=run.pinned_env(), cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _counts(layers: dict) -> dict:
    return {k: v for k, v in layers.items() if not k.endswith(run.TIMED_SUFFIXES)}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat(workload, tmp_path):
    first = _traced_pass(workload, 7, str(tmp_path))
    second = _traced_pass(workload, 7, str(tmp_path))
    assert first["failures"] == [] and second["failures"] == []
    assert _counts(first["layers"]) == _counts(second["layers"])
    for layers in (first["layers"], second["layers"]):
        assert 0.0 <= layers["bench.uncovered_share"] < 1.0
    # every per-layer metric but the two run.py derives is measured by a pass
    derived = {"bench.trace_overhead_s", "bench.known_defect_failures"}
    assert {m["name"] for m in SPEC["per_layer"]} - derived <= set(first["layers"])


def test_only_the_overflow_strip_is_a_known_defect(tmp_path):
    for workload in workloads.WORKLOADS:
        ops = workloads.build(workload, 3, str(tmp_path))
        defects = [op.kind for op in ops if op.known_defect]
        assert defects == (["decay_overflow"] if workload == "numeric_grid" else [])


@pytest.mark.parametrize(
    "workload, cls, method",
    [("poly_exact", workloads.CliffPoly, "__eq__"), ("axial_exact", workloads.AxialExpr, "is_zero")],
)
def test_perturbed_instances_catch_always_equal(workload, cls, method, tmp_path, monkeypatch):
    """With the layer's equality decision forced to "equal", every perturbed instance fails."""
    ops = workloads.build(workload, 5, str(tmp_path))
    twins = [op for op in ops if op.expect is False]
    assert twins
    monkeypatch.setattr(cls, method, lambda *args: True)
    assert all(op.run() is True for op in twins)


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_matches_spec(trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", "numeric_probe", "--seed", "2"]
    cmd += ["--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(f"numeric_probe {m['name']} ") for line in lines)
    if not trace:
        assert 0.0 < result["metrics"]["accurate_ratio"]["value"] < 1.0


def test_fails_without_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "poly_exact", "--seed", "1", "--seconds", "1"]
    cmd += ["--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
