"""Toy-scale smoke test of the wall-clock benchmark.

Runs every workload in both modes on a 200-user D1 with one set-up and
checks the result line against ``BENCHMARK.json``::

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


def run(workload: str, trace: int, cwd: Path = REPO) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload", workload,
            "--seed", "3",
            "--seconds", "0.5",
            "--trace", str(trace),
            "--scale", "0.05",
            "--setup-repeats", "1",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_result_line_matches_benchmark_json(workload: str, trace: int) -> None:
    done = run(workload, trace)
    assert done.returncode == 0, done.stderr[-3000:]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], float)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    report = json.loads(lines[-2])
    assert report["fingerprint"]["source_sha256"]
    assert report["checks"] and all(report["checks"].values())


def test_exits_nonzero_without_the_program(tmp_path: Path) -> None:
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        REPO / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("results", "__pycache__"),
    )
    done = run("serve-single", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
