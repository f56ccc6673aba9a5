"""Smoke test of the benchmark itself, at tiny sizes.

Run from the root of a checkout (it takes about a minute):

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=root, timeout=170)


def last_json(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def copy_checkout(dst: Path, with_src: bool = True):
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    shutil.copy(ROOT / "BENCHMARK.json", dst / "BENCHMARK.json")
    for path in BENCH["paths"] + (["src"] if with_src else []):
        shutil.copytree(ROOT / path, dst / path, ignore=ignore)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_workload_prints_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert "# failed_frac = 0 ratio" in proc.stdout
    if trace:
        metrics = result["metrics"]
        assert metrics["trace.self_sum_s"]["value"] <= metrics["trace.wall_s"]["value"]


def test_failed_check_gives_nonzero_exit(tmp_path):
    copy_checkout(tmp_path)
    source = tmp_path / "src" / "partialid" / "random_sets.py"
    text = source.read_text(encoding="utf-8")
    correct = "(batch.hi >= probe.lo)"
    assert correct in text
    source.write_text(text.replace(correct, "(batch.hi >= probe.hi)"), encoding="utf-8")
    proc = run_bench(tmp_path, "estimate_large", 0)
    assert proc.returncode == 1, proc.stderr
    result = last_json(proc)
    assert result["correct"] is False and result["failed"] >= 1
    assert "capacity differs from the sorted-endpoint count" in proc.stderr


def test_refuses_to_run_without_sources(tmp_path):
    copy_checkout(tmp_path, with_src=False)
    proc = run_bench(tmp_path, "study_defaults", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
