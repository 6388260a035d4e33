"""Hot-path perf harness: BN adjacency export and the spmm transpose contract.

Times the vectorized BN→GNN adjacency export against the retained
reference implementation and pins how many CSR transposes HAG's sparse
aggregation performs, writing the results to ``BENCH_perf_hotpaths.json``
in the repository root.

Two synthetic graphs are used:

* a BN with ``~3n`` typed pairs (capped at 20 000 nodes, because the BN
  build is Python-loop bound) — drives the adjacency export;
* per-type sparse CSR graphs with public-resource-style hubs (WiFi and
  locations shared by hundreds of users) — a 2 000-node slice of them
  drives the transpose counter.

Run it either way::

    pytest -m slow benchmarks/bench_perf_hotpaths.py      # as a slow test
    PYTHONPATH=src python benchmarks/bench_perf_hotpaths.py   # as a script

Acceptance gates run through the uniform ``_shared.check_gates`` contract
(shared with ``bench_bn_ingest``): each gated ratio prints its delta
against the previously committed JSON and both modes exit nonzero when any
gate regresses.  The one gate is a not-slower floor on the warm vectorized
adjacency export.  Scale knobs:

* ``REPRO_BENCH_HOTPATH_NODES`` — node count (default 50 000);
* ``REPRO_BENCH_HOTPATH_REPEATS`` — timing repeats (default 3, best-of).
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from repro import nn
from repro.core import HAG, prepare_aggregators
from repro.datagen import BehaviorType
from repro.network import (
    BehaviorNetwork,
    typed_adjacency,
    typed_adjacency_reference,
)

from _shared import Gate, check_gates, emit, emit_header

N_NODES = int(os.environ.get("REPRO_BENCH_HOTPATH_NODES", "50000"))
REPEATS = int(os.environ.get("REPRO_BENCH_HOTPATH_REPEATS", "3"))
EDGE_TYPES = tuple(BehaviorType)[:3]
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_perf_hotpaths.json"


def best_of(fn, repeats: int = REPEATS) -> float:
    """Best wall-clock of ``repeats`` runs (reduces scheduler noise)."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


# ----------------------------------------------------------------------
# Synthetic 50k-node workloads
# ----------------------------------------------------------------------
def synthetic_bn(n: int, seed: int = 0) -> BehaviorNetwork:
    """A BN with ``~3n`` typed pairs plus public-resource-style hubs."""
    rng = np.random.default_rng(seed)
    bn = BehaviorNetwork()
    for uid in range(n):
        bn.add_node(uid)
    for t_index, btype in enumerate(EDGE_TYPES):
        u = rng.integers(0, n, size=3 * n)
        v = rng.integers(0, n, size=3 * n)
        keep = u != v
        w = rng.random(keep.sum()) + 0.05
        ts = rng.random(keep.sum()) * 100.0
        for uu, vv, ww, tt in zip(u[keep], v[keep], w, ts):
            bn.add_weight(int(uu), int(vv), btype, float(ww), float(tt))
    return bn


def synthetic_adjacencies(
    n: int, seed: int = 0, hubs: int = 50, hub_degree: int = 400
) -> list[sp.csr_matrix]:
    """Per-type sparse CSR graphs with public-resource-style hubs.

    ``2n`` random explicit-relation pairs per type (the BN's person-to-person
    edges are sparse) plus ``hubs`` public-resource nodes of degree
    ``hub_degree``.
    """
    rng = np.random.default_rng(seed)
    matrices = []
    for t in range(len(EDGE_TYPES)):
        u = rng.integers(0, n, size=2 * n)
        v = rng.integers(0, n, size=2 * n)
        w = rng.random(len(u)) + 0.05
        hub_u = np.repeat(rng.choice(n, size=hubs, replace=False), hub_degree)
        hub_v = rng.integers(0, n, size=hubs * hub_degree)
        hub_w = rng.random(len(hub_u)) + 0.05
        rows = np.concatenate([u, hub_u])
        cols = np.concatenate([v, hub_v])
        data = np.concatenate([w, hub_w])
        a = sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
        a.sum_duplicates()
        matrices.append(a)
    return matrices


# ----------------------------------------------------------------------
# Sections
# ----------------------------------------------------------------------
def bench_adjacency_export(bn: BehaviorNetwork) -> dict:
    nodes = bn.nodes()

    def vector_cold():
        bn._snapshot = None  # force a rebuild: cold = snapshot + export
        typed_adjacency(bn, nodes, EDGE_TYPES)

    reference_s = best_of(lambda: typed_adjacency_reference(bn, nodes, EDGE_TYPES))
    cold_s = best_of(vector_cold)
    warm_s = best_of(lambda: typed_adjacency(bn, nodes, EDGE_TYPES))
    return {
        "reference_s": reference_s,
        "vectorized_cold_s": cold_s,
        "vectorized_warm_s": warm_s,
        "speedup_cold": reference_s / cold_s,
        "speedup_warm": reference_s / warm_s,
    }


def _make_model(in_dim: int) -> HAG:
    return HAG(
        in_dim,
        n_types=len(EDGE_TYPES),
        rng=np.random.default_rng(0),
        hidden=(8,),
        att_dim=4,
        cfo_att_dim=4,
        cfo_out_dim=4,
        mlp_hidden=(4,),
    )


def bench_transpose_counter(adjacencies: list[sp.csr_matrix]) -> dict:
    """Pin the spmm transpose contract at benchmark scale."""
    n = adjacencies[0].shape[0]
    idx = np.arange(min(n, 2000))
    sub = [a[idx][:, idx] for a in adjacencies]
    aggregators = prepare_aggregators(sub)
    model = _make_model(16)
    x = np.random.default_rng(0).normal(size=(sub[0].shape[0], 16))

    nn.reset_transpose_conversion_count()
    model.predict_proba(x, aggregators)
    no_grad_count = nn.transpose_conversion_count()

    nn.reset_transpose_conversion_count()
    for _ in range(3):  # three training steps reuse the same aggregators
        logits = model.forward(nn.Tensor(x), aggregators)
        logits.sum().backward()
    training_count = nn.transpose_conversion_count()
    nn.reset_transpose_conversion_count()
    return {
        "no_grad_conversions": no_grad_count,
        "training_conversions": training_count,
        "aggregators": len(aggregators),
    }


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def run_harness() -> dict:
    emit_header(f"Hot-path perf harness — {N_NODES} nodes, {len(EDGE_TYPES)} types")
    emit("building synthetic BN + adjacencies ...")
    bn = synthetic_bn(min(N_NODES, 20000))  # BN build is Python-loop bound
    adjacencies = synthetic_adjacencies(N_NODES)

    sections = {}
    sections["adjacency_export"] = bench_adjacency_export(bn)
    emit(
        "adjacency export   ref {reference_s:.3f}s  cold {vectorized_cold_s:.3f}s "
        "({speedup_cold:.1f}x)  warm {vectorized_warm_s:.3f}s ({speedup_warm:.1f}x)".format(
            **sections["adjacency_export"]
        )
    )
    sections["spmm_transpose"] = bench_transpose_counter(adjacencies)
    emit(
        "spmm transposes    no_grad {no_grad_conversions}  "
        "training(3 steps) {training_conversions} (aggregators {aggregators})".format(
            **sections["spmm_transpose"]
        )
    )

    result = {
        "n_nodes": N_NODES,
        "n_edge_types": len(EDGE_TYPES),
        "sections": sections,
    }
    gates = [
        Gate(
            "adjacency_export_warm_not_slower",
            sections["adjacency_export"]["speedup_warm"],
            1.0,
        ),
    ]
    check_gates(gates, result, RESULT_PATH)
    return result


@pytest.mark.slow
def test_perf_hotpaths():
    result = run_harness()
    assert result["gates_met"], (
        "hot-path perf gates failed — see gate lines above: "
        f"{json.dumps(result['gates'], indent=2)}"
    )
    assert result["sections"]["spmm_transpose"]["no_grad_conversions"] == 0
    assert (
        result["sections"]["spmm_transpose"]["training_conversions"]
        <= result["sections"]["spmm_transpose"]["aggregators"]
    )


if __name__ == "__main__":
    outcome = run_harness()
    if not outcome["gates_met"]:
        emit("FAIL: hot-path perf gates not met")
        sys.exit(1)
    emit("OK")
