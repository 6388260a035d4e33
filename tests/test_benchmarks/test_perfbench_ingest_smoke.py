"""Toy-scale run of the wall-clock benchmark's ``ingest-stream`` workload.

``perfbench/run.py`` replays D1's logs through ``BNServer.ingest`` +
``run_due_jobs`` and checks, on every pass, that the edge counter matches a
scan, that exactly one job ran per closed epoch, and that every pass ends
with the same edge digest.  This keeps those checks in the default tier.
The run uses a copy of the program and the benchmark, so its report lands
in a temporary directory.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]


def test_ingest_stream_correct_at_toy_scale(tmp_path: Path) -> None:
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    for name in ("perfbench", "src"):
        shutil.copytree(
            REPO / name,
            tmp_path / name,
            ignore=shutil.ignore_patterns("results", "__pycache__"),
        )
    done = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload", "ingest-stream",
            "--seed", "1",
            "--scale", "0.05",
            "--seconds", "0.5",
            "--setup-repeats", "1",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr[-3000:]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    checks = json.loads(lines[-2])["checks"]
    assert any(name.endswith("_edge_counter") for name in checks)
    assert any(name.endswith("_one_job_per_epoch") for name in checks)
    assert "same_digest_every_pass" in checks
    assert all(checks.values()), checks
