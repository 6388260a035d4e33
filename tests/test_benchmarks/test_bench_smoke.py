"""Tiny-scale smoke run of the BN ingest benchmark harness.

The full harness is a slow-marked test; this keeps its plumbing — workload
generation, the bit-exact parity asserts inside every section, the shared
gate contract, JSON emission — covered by the fast tier.  Speedup *values*
at toy scale are noise, so the gates' pass/fail outcome is deliberately
not asserted here.
"""

from __future__ import annotations

import importlib
import json
from pathlib import Path

BENCHMARKS_DIR = Path(__file__).resolve().parents[2] / "benchmarks"

SECTIONS = ("window_job", "batch_build", "replay", "ttl_sweep", "streamed")
GATES = (
    "pair_enumeration_speedup",
    "replay_speedup",
    "batch_build_not_slower",
    "ttl_sweep_not_slower",
    "streamed_fused_speedup",
)


def test_ingest_harness_smoke(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCHMARKS_DIR))
    bench = importlib.import_module("bench_bn_ingest")
    monkeypatch.setattr(bench, "N_USERS", 60)
    monkeypatch.setattr(bench, "DAYS", 2)
    monkeypatch.setattr(bench, "REPEATS", 1)
    result_path = tmp_path / "BENCH_bn_ingest.json"

    result = bench.run_harness(result_path=result_path)
    capsys.readouterr()  # keep the harness banner out of the test output

    # Every section ran, timed both sides, and passed its internal
    # bit-exact parity asserts (run_harness would have raised otherwise).
    assert set(SECTIONS) <= set(result["sections"])
    for name in SECTIONS:
        section = result["sections"][name]
        assert section["reference_s"] > 0.0
        assert section["vectorized_s"] > 0.0
        assert section["speedup"] > 0.0
    assert result["sections"]["window_job"]["contributions"] > 0
    assert result["sections"]["streamed"]["jobs"] > 0

    # The shared gate contract attached its verdicts and wrote the JSON.
    assert set(result["gates"]) == set(GATES)
    assert isinstance(result["gates_met"], bool)
    on_disk = json.loads(result_path.read_text())
    assert on_disk["n_users"] == 60
    assert set(SECTIONS) <= set(on_disk["sections"])


def test_committed_ingest_result_meets_gates():
    """The committed BENCH_bn_ingest.json must have been green when written."""
    committed = json.loads(
        (BENCHMARKS_DIR.parent / "BENCH_bn_ingest.json").read_text()
    )
    assert committed["gates_met"] is True
    for name, gate in committed["gates"].items():
        assert gate["value"] >= gate["minimum"], (name, gate)
