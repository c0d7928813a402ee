"""Smoke test of the benchmark harness: one short run of every workload.

    python3 -m pytest -q bench/test_bench.py
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int, seed: int = 1, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def checked_result(workload: str, trace: int, seed: int = 1):
    proc = run_bench(workload, trace, seed)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for spec in specs:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
        printed = [line.split() for line in lines[:-1]]
        assert any(words[0] == spec["name"] and words[-1] == spec["unit"]
                   for words in printed if words), spec["name"]
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    metrics = checked_result(workload, trace=0)["metrics"]
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_between_runs(workload):
    first = checked_result(workload, trace=1, seed=1)["metrics"]
    second = checked_result(workload, trace=1, seed=2)["metrics"]
    for name, metric in first.items():
        if metric["unit"] != "ms" and name != "trace.overhead":
            assert metric["value"] == second[name]["value"], name
    layers = {name.split(".")[0] for name in first if name.endswith(".calls")}
    assert layers == {"cli", "catalog", "pipelines", "nefness", "secant", "diophantine",
                      "gonality", "lattice", "riemannroch", "schubert", "ruled", "report"}


def test_fails_without_program_sources():
    bare = ROOT / ".bench_run" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run_bench("table", 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_judge_counts_fixes_as_recovered_and_changes_as_mismatches():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import workloads

    assert workloads.judge("result:ab", "result:ab") == workloads.MATCH
    assert workloads.judge("refusal:E", "result:ab") == workloads.RECOVERED
    assert workloads.judge("error:ValueError", "refusal:E") == workloads.RECOVERED
    assert workloads.judge("result:ab", "result:cd") == workloads.MISMATCH
    assert workloads.judge("result:ab", "refusal:E") == workloads.MISMATCH
    assert workloads.judge("refusal:E", "refusal:F") == workloads.MISMATCH
    assert workloads.judge("refusal:E", "error:ValueError") == workloads.MISMATCH
