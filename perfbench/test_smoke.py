"""Smoke test of the benchmark at tiny size (not part of the repository's test suite).

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
META = json.loads((HERE / "workloads.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
sys.path[:0] = [str(HERE), str(ROOT / "src")]


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(cwd / "perfbench" / "run.py"), "--seconds", "1", "--tiny", *args]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_every_end_to_end_metric_is_printed_with_its_unit_and_no_operation_fails():
    lines = _run("--workload", "all", "--seed", "1", "--trace", "0").stdout.strip().splitlines()
    per_workload = {r["workload"]: r for r in map(json.loads, lines) if "workload" in r}
    assert sorted(per_workload) == sorted(WORKLOADS)
    for name, result in per_workload.items():
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, name
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in BENCH["end_to_end"]
        }, name
        assert all(v["value"] > 0 for v in result["metrics"].values()), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_layer_metric_and_counts_repeat(workload):
    import layertrace

    first, second = (_result(_run("--workload", workload, "--seed", "3", "--trace", "1")) for _ in range(2))
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    counts = [k for k in expected if layertrace.is_count(k)]
    assert {k: first["metrics"][k]["value"] for k in counts} == {
        k: second["metrics"][k]["value"] for k in counts
    }


def test_workload_records_match_the_benchmark_file():
    assert list(META["workloads"]) == WORKLOADS
    for w in BENCH["workloads"]:
        record = META["workloads"][w["name"]]
        assert isinstance(record["bypasses"], list), w["name"]
        for field in ("operation", "pass", "gate", "loads", "mirrors", "predictions"):
            assert record[field], (w["name"], field)
    assert META["default_seed"] != META["held_out_seed"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", WORKLOADS[0], "--seed", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
