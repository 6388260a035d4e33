"""BN ingestion perf harness: window jobs, batch build, replay, TTL sweeps.

Times the vectorized BN *write* path against the pinned reference
implementations and writes the results to ``BENCH_bn_ingest.json`` in the
repository root.  Five sections:

* ``window_job`` — one just-closed epoch's job (the online BN server's unit
  of work): numpy pair enumeration + one ``add_weights`` batch vs the
  reference's nested pair loops of scalar ``add_weight`` calls.  This is
  the **pair-enumeration gate**: it times exactly the code path where the
  quadratic ``for i / for j`` loops used to live;
* ``batch_build`` — Algorithm 1 over a multi-day log history (every window
  re-enumerates every group);
* ``replay`` — the end-to-end online path: per-window epoch bucketing plus
  every window job plus the closing TTL sweep;
* ``ttl_sweep`` — indexed bucket expiry vs the full-graph scan on a
  standalone steady-state network (edge stamps spread over one TTL
  horizon), for both an expiring sweep and a no-op sweep;
* ``streamed`` — a sparse log stream fed to ``BNServer`` in 6-hour
  chunks, each followed by ``run_due_jobs``: many small jobs per call, so
  per-job fixed cost dominates.  The server's fused pass
  (``BNBuilder.run_window_jobs``) is timed against the same server running
  each due job as its own ``run_window_job`` call.

The workload is community-structured, matching the paper's deposit-free
leasing regime: users share devices/Wi-Fi/addresses with the same small
community day after day, so the same user pairs co-occur across every
window of the hierarchy and the contribution stream is many times larger
than the distinct-edge set.  That duplication is precisely what the
columnar write path exploits (one reduced ``add_weights`` row per edge vs
one scalar ``add_weight`` call per contribution).

Every section first asserts **bit-exact** parity between the two sides
(identical edge sets, weights, timestamps, removal counts) — a benchmark
run that drifts from the reference fails before it times anything.

Run it either way::

    pytest -m slow benchmarks/bench_bn_ingest.py          # as a slow test
    PYTHONPATH=src python benchmarks/bench_bn_ingest.py   # as a script

Acceptance gates (uniform contract via ``_shared.check_gates``; both modes
exit nonzero when a gate regresses):

* pair enumeration (``window_job``) ≥ 5× the reference;
* end-to-end ``replay`` ≥ 3× the reference;
* ``batch_build`` and the expiring TTL sweep not slower than reference;
* the fused ``streamed`` pass ≥ 1.5× the per-job schedule.

Scale knobs (environment variables):

* ``REPRO_BENCH_INGEST_USERS`` — distinct users (default 600);
* ``REPRO_BENCH_INGEST_DAYS`` — days of history (default 6);
* ``REPRO_BENCH_INGEST_REPEATS`` — timing repeats (default 3, best-of).
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.datagen import DAY, HOUR, BehaviorLog, BehaviorType
from repro.network import BehaviorNetwork, BNBuilder
from repro.system import BNServer, LatencyModel

from _shared import Gate, check_gates, emit, emit_header

N_USERS = int(os.environ.get("REPRO_BENCH_INGEST_USERS", "600"))
DAYS = int(os.environ.get("REPRO_BENCH_INGEST_DAYS", "6"))
REPEATS = int(os.environ.get("REPRO_BENCH_INGEST_REPEATS", "3"))
EDGE_TYPES = tuple(BehaviorType)[:3]
WINDOWS = (HOUR, 4 * HOUR, DAY)
TTL = 60 * DAY
COMMUNITY = 30  # users per community (well under max_clique_size)
VALUES_PER_TYPE = 20  # distinct shared resources per community per type
ATTEND_P = 0.95  # probability a member logs a given resource in a session
CHUNK = 6 * HOUR  # streamed section: logs per ingest call
HOUSEHOLD = 5  # streamed section: users sharing one private resource per type
PUBLIC_VALUES = 40  # streamed section: public resources per type
STREAM_DAYS_PER_DAY = 10  # streamed section: stream span per day of history
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_bn_ingest.json"


def best_of(fn, repeats: int | None = None) -> float:
    """Best wall-clock of ``repeats`` runs (reduces scheduler noise)."""
    times = []
    for _ in range(repeats if repeats is not None else REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def timed_fresh(setup, op, repeats: int | None = None) -> float:
    """Best wall-clock of ``op`` over fresh ``setup()`` state per repeat.

    For destructive operations (TTL sweeps mutate the network), rebuilding
    the state outside the timed region beats deepcopy-and-subtract: the
    measurement contains nothing but the operation itself.
    """
    times = []
    for _ in range(repeats if repeats is not None else REPEATS):
        state = setup()
        start = time.perf_counter()
        op(state)
        times.append(time.perf_counter() - start)
    return min(times)


def community_logs(n_users: int, days: int, seed: int = 0) -> list[BehaviorLog]:
    """Community-structured synthetic logs (the paper's shared-resource regime).

    Users are partitioned into communities of :data:`COMMUNITY`.  Each
    community holds one session per day at a random hour; during the
    session every member logs each of the community's
    :data:`VALUES_PER_TYPE` resources per edge type with probability
    :data:`ATTEND_P`.  The same pairs therefore co-occur in the hourly,
    4-hourly and daily windows of every day — a contribution stream tens of
    times larger than the distinct-edge set, like production BN ingestion.
    """
    rng = np.random.default_rng(seed)
    community = min(COMMUNITY, n_users)
    n_comms = max(1, n_users // community)
    logs: list[BehaviorLog] = []
    for day in range(days):
        day_start = day * DAY
        hours = rng.integers(0, 24, size=n_comms)
        for c in range(n_comms):
            session = day_start + float(hours[c]) * HOUR
            members = np.arange(c * community, (c + 1) * community)
            for t_i, btype in enumerate(EDGE_TYPES):
                for k in range(VALUES_PER_TYPE):
                    mask = rng.random(community) < ATTEND_P
                    stamps = session + rng.uniform(0.0, HOUR, size=int(mask.sum()))
                    value = f"c{c}t{t_i}v{k}"
                    logs.extend(
                        BehaviorLog(int(uid), btype, value, float(ts))
                        for uid, ts in zip(members[mask], stamps)
                    )
    logs.sort(key=lambda log: log.timestamp)
    return logs


def edge_state(bn: BehaviorNetwork) -> dict:
    """Exact edge state — bit-level weights and timestamps — for parity."""
    return {
        (u, v, t): (record.weight, record.last_update)
        for u, v, t, record in bn.iter_edges()
    }


def assert_bit_exact(vec: BehaviorNetwork, ref: BehaviorNetwork, what: str) -> None:
    state_v, state_r = edge_state(vec), edge_state(ref)
    assert state_v == state_r, f"{what}: vectorized path diverged from reference"
    assert sorted(vec.nodes()) == sorted(ref.nodes()), f"{what}: node sets differ"
    assert vec.num_edges() == vec.num_edges_scan(), f"{what}: edge counter drifted"


# ----------------------------------------------------------------------
# Sections
# ----------------------------------------------------------------------
def bench_window_job(builder: BNBuilder, logs: list[BehaviorLog]) -> dict:
    """Day 0's daily job on a fresh BN: the pair-enumeration gate."""
    epoch_logs = [log for log in logs if log.timestamp <= DAY]
    bn_v, bn_r = BehaviorNetwork(ttl=TTL), BehaviorNetwork(ttl=TTL)
    contributions = builder.run_window_job(bn_v, epoch_logs, DAY, job_end=DAY)
    ref_contributions = builder.run_window_job_reference(
        bn_r, epoch_logs, DAY, job_end=DAY
    )
    assert contributions == ref_contributions, "window job contribution counts differ"
    assert_bit_exact(bn_v, bn_r, "window_job")

    vec_s = best_of(
        lambda: builder.run_window_job(
            BehaviorNetwork(ttl=TTL), epoch_logs, DAY, job_end=DAY
        )
    )
    ref_s = best_of(
        lambda: builder.run_window_job_reference(
            BehaviorNetwork(ttl=TTL), epoch_logs, DAY, job_end=DAY
        )
    )
    return {
        "epoch_logs": len(epoch_logs),
        "contributions": contributions,
        "reference_s": ref_s,
        "vectorized_s": vec_s,
        "speedup": ref_s / vec_s,
        "contributions_per_s": contributions / vec_s,
    }


def bench_batch_build(builder: BNBuilder, logs: list[BehaviorLog]) -> dict:
    """Algorithm 1 over the full history as one columnar batch per type."""
    assert_bit_exact(builder.build(logs), builder.build_reference(logs), "build")
    vec_s = best_of(lambda: builder.build(logs))
    ref_s = best_of(lambda: builder.build_reference(logs))
    return {
        "logs": len(logs),
        "reference_s": ref_s,
        "vectorized_s": vec_s,
        "speedup": ref_s / vec_s,
        "logs_per_s": len(logs) / vec_s,
    }


def bench_replay(builder: BNBuilder, logs: list[BehaviorLog], span: float) -> dict:
    """End-to-end online path: bucketing + every window job + TTL sweep."""
    assert_bit_exact(
        builder.replay(logs, until=span),
        builder.replay_reference(logs, until=span),
        "replay",
    )
    vec_s = best_of(lambda: builder.replay(logs, until=span))
    ref_s = best_of(lambda: builder.replay_reference(logs, until=span))
    return {
        "logs": len(logs),
        "reference_s": ref_s,
        "vectorized_s": vec_s,
        "speedup": ref_s / vec_s,
        "logs_per_s": len(logs) / vec_s,
    }


def make_ttl_network(n_edges: int, now: float, seed: int = 3) -> BehaviorNetwork:
    """A steady-state BN: ``n_edges`` edges with stamps spread over one TTL."""
    rng = np.random.default_rng(seed)
    n_users = int(np.sqrt(n_edges * 4.0)) + 2
    u = rng.integers(0, n_users, size=n_edges * 2)
    v = rng.integers(0, n_users, size=n_edges * 2)
    keep = u != v
    lo, hi = np.minimum(u[keep], v[keep]), np.maximum(u[keep], v[keep])
    _, first = np.unique(lo * n_users + hi, return_index=True)
    first = first[:n_edges]
    lo, hi = lo[first], hi[first]
    stamps = rng.uniform(now - TTL, now, size=len(lo))
    bn = BehaviorNetwork(ttl=TTL)
    bn.add_weights(lo, hi, EDGE_TYPES[0], np.ones(len(lo)), stamps)
    return bn


def bench_ttl_sweep(n_edges: int) -> dict:
    """Indexed bucket expiry vs the pinned full-graph scan, steady state.

    The expiring sweep advances time by ``TTL / 32`` past the horizon, so a
    few percent of edges fall due: the index visits only the due time
    buckets while the scan walks every record.  The no-op sweep expires at
    the horizon itself (nothing due) — the common steady-state case.
    """
    now = TTL
    sweep_at = now + TTL / 32.0

    indexed = make_ttl_network(n_edges, now)
    scanned = make_ttl_network(n_edges, now)
    edges_before = indexed.num_edges()
    removed = indexed.expire_edges(sweep_at)
    removed_scan = scanned._expire_edges_scan(sweep_at)
    assert removed == removed_scan, "expiry removal counts differ"
    assert removed > 0, "TTL workload produced nothing to expire"
    assert_bit_exact(indexed, scanned, "ttl_sweep")

    vec_s = timed_fresh(
        lambda: make_ttl_network(n_edges, now),
        lambda bn: bn.expire_edges(sweep_at),
    )
    ref_s = timed_fresh(
        lambda: make_ttl_network(n_edges, now),
        lambda bn: bn._expire_edges_scan(sweep_at),
    )

    noop = make_ttl_network(n_edges, now)
    noop_vec_s = best_of(lambda: noop.expire_edges(now))
    noop_ref_s = best_of(lambda: noop._expire_edges_scan(now))
    return {
        "edges_before": edges_before,
        "removed": removed,
        "reference_s": ref_s,
        "vectorized_s": vec_s,
        "speedup": ref_s / vec_s,
        "noop_reference_s": noop_ref_s,
        "noop_vectorized_s": noop_vec_s,
        "noop_speedup": noop_ref_s / noop_vec_s,
    }


class PerJobBuilder(BNBuilder):
    """Runs each due job as a one-job kernel call over its own slice.

    The per-job schedule the fused pass replaces — what a
    :meth:`BNBuilder.run_window_job` loop does: every job slices its own
    epoch's logs and encodes, groups and enumerates them on its own.
    """

    def run_window_jobs(self, bn, logs, jobs):
        times = np.fromiter(
            (log.timestamp for log in logs), dtype=np.float64, count=len(logs)
        )
        out = []
        for window, job_end in jobs:
            lo, hi = np.searchsorted(times, (job_end - window, job_end), side="right")
            out += BNBuilder.run_window_jobs(self, bn, logs[lo:hi], [(window, job_end)])
        return out


def sparse_logs(n_users: int, days: int, seed: int = 1) -> list[BehaviorLog]:
    """A thin stream: one log per user every three days, at uniform times.

    At the default 600 users that is about 50 logs per 6-hour chunk, the
    volume of the D1 replay in ``perfbench``'s ``ingest-stream`` workload.
    Half the logs name the user's household resource of that type (shared
    by :data:`HOUSEHOLD` users), half one of :data:`PUBLIC_VALUES` public
    ones, so most window jobs see a few small groups.
    """
    rng = np.random.default_rng(seed)
    n = n_users * days // 3
    uids = rng.integers(0, n_users, size=n)
    types = rng.integers(0, len(EDGE_TYPES), size=n)
    public = rng.random(n) < 0.5
    values = np.where(public, rng.integers(0, PUBLIC_VALUES, size=n), uids // HOUSEHOLD)
    stamps = np.sort(rng.uniform(0.0, days * DAY, size=n))
    return [
        BehaviorLog(
            int(uid), EDGE_TYPES[t], f"{'p' if pub else 'h'}{t}.{value}", float(ts)
        )
        for uid, t, pub, value, ts in zip(uids, types, public, values, stamps)
    ]


def stream(builder: BNBuilder, chunks: list) -> tuple[BNServer, list]:
    """Feed every chunk to a fresh server; the per-call results."""
    server = BNServer(builder, LatencyModel(seed=0))
    calls = []
    for logs, now in chunks:
        server.ingest(logs)
        calls.append(server.run_due_jobs(now))
    return server, calls


def full_state(bn: BehaviorNetwork) -> tuple:
    """Edges bit-level and in order, adjacency order, creation tags, version."""
    return (
        [
            (u, v, t, r.weight.hex(), r.last_update.hex())
            for u, v, t, r in bn.iter_edges()
        ],
        [(node, list(nbrs)) for node, nbrs in bn._adjacency.items()],
        list(bn._pair_seq.items()),
        bn.version,
    )


def bench_streamed(n_users: int, days: int) -> dict:
    """6-hour chunks through ``BNServer``: fused pass vs one call per job.

    Per-call results (jobs, charged seconds) and the final network state —
    edges bit-level and in order, adjacency order, pair-creation tags,
    version — must match before anything is timed.
    """
    logs = sparse_logs(n_users, days)
    times = np.array([log.timestamp for log in logs])
    ends = CHUNK * np.arange(days * DAY // CHUNK + 1)
    cuts = np.searchsorted(times, ends, side="right")
    chunks = [
        (logs[cuts[k] : cuts[k + 1]], CHUNK * (k + 1)) for k in range(len(cuts) - 1)
    ]
    kwargs = dict(windows=WINDOWS, edge_types=EDGE_TYPES, ttl=TTL)
    fused, fused_calls = stream(BNBuilder(**kwargs), chunks)
    per_job, per_job_calls = stream(PerJobBuilder(**kwargs), chunks)
    assert fused_calls == per_job_calls, "streamed: per-call jobs or charges differ"
    assert full_state(fused.bn) == full_state(per_job.bn), "streamed: BN state differs"
    assert_bit_exact(fused.bn, per_job.bn, "streamed")

    vec_s = best_of(lambda: stream(BNBuilder(**kwargs), chunks))
    ref_s = best_of(lambda: stream(PerJobBuilder(**kwargs), chunks))
    return {
        "days": days,
        "logs": len(logs),
        "chunks": len(chunks),
        "jobs": fused.jobs_run,
        "reference_s": ref_s,
        "vectorized_s": vec_s,
        "speedup": ref_s / vec_s,
        "logs_per_s": len(logs) / vec_s,
    }


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def run_harness(result_path: Path = RESULT_PATH) -> dict:
    span = DAYS * DAY
    ttl_edges = 250 * N_USERS
    emit_header(
        f"BN ingest perf harness — {N_USERS} users, {DAYS} days, "
        f"{len(EDGE_TYPES)} types, windows {[int(w) for w in WINDOWS]}"
    )
    builder = BNBuilder(windows=WINDOWS, edge_types=EDGE_TYPES, ttl=TTL)
    logs = community_logs(N_USERS, DAYS)
    emit(f"workload: {len(logs)} community-structured logs")

    sections = {}
    sections["window_job"] = bench_window_job(builder, logs)
    emit(
        "window job     ref {reference_s:.3f}s  vec {vectorized_s:.3f}s "
        "({speedup:.1f}x)  {contributions} contributions, "
        "{contributions_per_s:,.0f}/s".format(**sections["window_job"])
    )
    sections["batch_build"] = bench_batch_build(builder, logs)
    emit(
        "batch build    ref {reference_s:.3f}s  vec {vectorized_s:.3f}s "
        "({speedup:.1f}x)  {logs_per_s:,.0f} logs/s".format(
            **sections["batch_build"]
        )
    )
    sections["replay"] = bench_replay(builder, logs, span)
    emit(
        "replay         ref {reference_s:.3f}s  vec {vectorized_s:.3f}s "
        "({speedup:.1f}x)  {logs_per_s:,.0f} logs/s".format(**sections["replay"])
    )
    sections["ttl_sweep"] = bench_ttl_sweep(ttl_edges)
    emit(
        "ttl sweep      ref {reference_s:.4f}s  vec {vectorized_s:.4f}s "
        "({speedup:.1f}x)  removed {removed}/{edges_before}; "
        "no-op {noop_reference_s:.4f}s → {noop_vectorized_s:.4f}s "
        "({noop_speedup:.1f}x)".format(**sections["ttl_sweep"])
    )
    sections["streamed"] = bench_streamed(N_USERS, STREAM_DAYS_PER_DAY * DAYS)
    emit(
        "streamed       per-job {reference_s:.3f}s  fused {vectorized_s:.3f}s "
        "({speedup:.1f}x)  {chunks} chunks, {jobs} jobs, "
        "{logs_per_s:,.0f} logs/s".format(**sections["streamed"])
    )

    result = {
        "n_users": N_USERS,
        "days": DAYS,
        "n_logs": len(logs),
        "n_edge_types": len(EDGE_TYPES),
        "windows_s": list(WINDOWS),
        "span_s": span,
        "ttl_s": TTL,
        "ttl_edges": ttl_edges,
        "sections": sections,
    }
    gates = [
        Gate("pair_enumeration_speedup", sections["window_job"]["speedup"], 5.0),
        Gate("replay_speedup", sections["replay"]["speedup"], 3.0),
        Gate("batch_build_not_slower", sections["batch_build"]["speedup"], 1.0),
        Gate("ttl_sweep_not_slower", sections["ttl_sweep"]["speedup"], 1.0),
        Gate("streamed_fused_speedup", sections["streamed"]["speedup"], 1.5),
    ]
    check_gates(gates, result, result_path)
    return result


@pytest.mark.slow
def test_bn_ingest_perf():
    result = run_harness()
    assert result["gates_met"], (
        "BN ingest perf gates failed — see gate lines above "
        f"(gates: {result['gates']})"
    )


if __name__ == "__main__":
    outcome = run_harness()
    if not outcome["gates_met"]:
        emit("FAIL: BN ingest perf gates not met")
        sys.exit(1)
    emit("OK")
