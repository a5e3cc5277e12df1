"""The benchmark at its tiny size: every workload checks out correct, prints
every metric BENCHMARK.json names with its unit, and the traced run's
deterministic counts repeat exactly for a fixed seed.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
Each workload runs once untraced and twice traced (the traced runs take
their tracing-overhead baseline from the untraced run's record), so the
whole file takes a few minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
DETERMINISTIC = [
    "combine.rows_in", "combine.rows_out",
    "manifest.commits_data", "manifest.commits_watermark",
    "merge.rows_written", "lookup.partitions_touched",
    "scan.base_files_pruned", "scan.delta_parts_pruned",
]


def _run(workload: str, trace: int, cwd: str = ROOT) -> tuple[int, list[str]]:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "2", "--trace", str(trace),
           "--size", "tiny"]
    out = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True, timeout=400)
    return out.returncode, out.stdout.strip().splitlines()


def _result(workload: str, trace: int) -> dict:
    rc, lines = _run(workload, trace)
    assert rc == 0
    res = json.loads(lines[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0
    assert res["attempted"] >= 1
    return res


def _check_metrics(res: dict, listed: list[dict]) -> None:
    assert set(res["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_tiny(workload):
    untraced = _result(workload, 0)
    _check_metrics(untraced, SPEC["end_to_end"])
    first, second = _result(workload, 1), _result(workload, 1)
    _check_metrics(first, SPEC["per_layer"])
    for name in DETERMINISTIC:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_fails_without_engine(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and
    prints no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    rc, lines = _run("tail", 0, cwd=str(tmp_path))
    assert rc != 0
    assert not any(line.startswith("{") for line in lines)
