"""Bit-exact parity contracts for the vectorized BN write path.

Every vectorized ingest component keeps a pinned ``*_reference`` twin (the
original Python loops); these tests assert the two produce *identical*
networks — same edge sets, bit-for-bit equal weights and timestamps — plus
the batch-mutation contracts (single version bump, all-or-nothing
validation, O(1) edge counter) that the online system depends on.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen import DAY, HOUR, BehaviorLog, BehaviorType
from repro.network import BehaviorNetwork, BNBuilder
from repro.obs.metrics import MetricsRegistry
from repro.system import BNServer, LatencyModel

TYPES = tuple(BehaviorType)[:3]
WINDOWS = (HOUR, DAY)


def edge_state(bn: BehaviorNetwork) -> dict:
    return {
        (u, v, t): (record.weight, record.last_update)
        for u, v, t, record in bn.iter_edges()
    }


def make_logs(n: int = 3000, n_users: int = 90, span: float = 3 * DAY, seed: int = 2):
    rng = np.random.default_rng(seed)
    logs = [
        BehaviorLog(
            int(rng.integers(0, n_users)),
            TYPES[int(rng.integers(0, len(TYPES)))],
            f"v{int(rng.integers(0, 18))}",
            float(rng.uniform(0.0, span)),
        )
        for _ in range(n)
    ]
    logs.sort(key=lambda log: log.timestamp)
    return logs


@pytest.fixture(scope="module")
def logs():
    return make_logs()


@pytest.fixture(scope="module")
def builder():
    return BNBuilder(windows=WINDOWS, edge_types=TYPES, ttl=2 * DAY)


class TestBuildParity:
    def test_build_bit_exact(self, builder, logs):
        vec = builder.build(logs)
        ref = builder.build_reference(logs)
        assert edge_state(vec) == edge_state(ref)
        assert sorted(vec.nodes()) == sorted(ref.nodes())

    def test_window_job_bit_exact_cold_and_warm(self, builder, logs):
        epoch_logs = [log for log in logs if log.timestamp <= HOUR]
        for warm in (False, True):
            vec, ref = BehaviorNetwork(), BehaviorNetwork()
            if warm:
                for bn in (vec, ref):
                    bn.add_weight(1, 2, TYPES[0], 0.125, 10.0)
                    bn.add_weight(3, 7, TYPES[1], 0.5, 20.0)
            n_vec = builder.run_window_job(vec, epoch_logs, HOUR, job_end=HOUR)
            n_ref = builder.run_window_job_reference(ref, epoch_logs, HOUR, job_end=HOUR)
            assert n_vec == n_ref
            assert edge_state(vec) == edge_state(ref)

    def test_replay_bit_exact(self, builder, logs):
        vec = builder.replay(logs, until=3 * DAY)
        ref = builder.replay_reference(logs, until=3 * DAY)
        assert edge_state(vec) == edge_state(ref)

    def test_adversarial_uid_span_parity(self):
        """Huge uid spans force the lexicographic fallback; results match."""
        big = 2**40
        logs = [
            BehaviorLog(0, TYPES[0], "shared", 100.0),
            BehaviorLog(big, TYPES[0], "shared", 200.0),
            BehaviorLog(3 * big, TYPES[0], "shared", 300.0),
            BehaviorLog(0, TYPES[1], "other", 400.0),
            BehaviorLog(2 * big, TYPES[1], "other", 500.0),
        ]
        builder = BNBuilder(windows=WINDOWS, edge_types=TYPES)
        assert edge_state(builder.build(logs)) == edge_state(
            builder.build_reference(logs)
        )

    def test_negative_epoch_parity(self):
        """Logs before the origin (negative epochs) stay exact."""
        logs = [
            BehaviorLog(1, TYPES[0], "x", -5 * DAY + 7.0),
            BehaviorLog(2, TYPES[0], "x", -5 * DAY + 9.0),
            BehaviorLog(3, TYPES[0], "x", 11.0),
            BehaviorLog(1, TYPES[0], "x", 13.0),
        ]
        builder = BNBuilder(windows=WINDOWS, edge_types=TYPES)
        assert edge_state(builder.build(logs)) == edge_state(
            builder.build_reference(logs)
        )


class TestAddWeightsContract:
    def test_scalar_loop_vs_one_batch(self):
        """One batch with duplicate typed edges == the scalar call sequence."""
        rng = np.random.default_rng(9)
        n = 1500
        u = rng.integers(0, 40, size=n)
        v = rng.integers(40, 80, size=n)
        w = rng.uniform(0.01, 1.0, size=n)
        ts = rng.uniform(0.0, 1e6, size=n)
        codes = rng.integers(0, len(TYPES), size=n)
        scalar, batch, precoded = (
            BehaviorNetwork(),
            BehaviorNetwork(),
            BehaviorNetwork(),
        )
        for i in range(n):
            scalar.add_weight(int(u[i]), int(v[i]), TYPES[codes[i]], float(w[i]), float(ts[i]))
        batch.add_weights(u, v, [TYPES[c] for c in codes], w, ts)
        precoded.add_weights(u, v, codes, w, ts, btype_table=TYPES)
        assert edge_state(scalar) == edge_state(batch) == edge_state(precoded)

    def test_scalar_timestamp_broadcast(self):
        """A scalar timestamp applies to every contribution, bit-exactly."""
        scalar, batch = BehaviorNetwork(), BehaviorNetwork()
        u = np.array([1, 2, 1, 5])
        v = np.array([2, 3, 2, 6])
        w = np.array([0.1, 0.2, 0.3, 0.4])
        for ts in (-4.0, 0.0, 123.5):
            for i in range(4):
                scalar.add_weight(int(u[i]), int(v[i]), TYPES[i % 2], float(w[i]), ts)
            batch.add_weights(u, v, np.array([0, 1, 0, 1]), w, ts, btype_table=TYPES)
        assert edge_state(scalar) == edge_state(batch)

    def test_single_version_bump_per_batch(self):
        bn = BehaviorNetwork()
        before = bn.version
        bn.add_weights([1, 2, 1], [2, 3, 2], TYPES[0], [0.5, 0.25, 0.5], [1.0, 2.0, 3.0])
        assert bn.version == before + 1

    def test_empty_batch_is_noop(self):
        bn = BehaviorNetwork()
        before = bn.version
        assert bn.add_weights([], [], TYPES[0], [], []) == 0
        assert bn.version == before

    def test_all_or_nothing_validation(self):
        bn = BehaviorNetwork()
        bn.add_weight(1, 2, TYPES[0], 1.0, 5.0)
        snapshot = edge_state(bn)
        version = bn.version
        with pytest.raises(ValueError):
            bn.add_weights([3, 4], [4, 4], TYPES[0], [1.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            bn.add_weights([3, 4], [4, 5], TYPES[0], [1.0, -1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            bn.add_weights([3, 4], [4, 5], TYPES[0], [1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            bn.add_weights([3], [4], np.array([len(TYPES)]), [1.0], 1.0, btype_table=TYPES)
        assert edge_state(bn) == snapshot
        assert bn.version == version

    def test_non_canonical_order_normalized(self):
        bn = BehaviorNetwork()
        bn.add_weights([9, 2], [1, 5], TYPES[0], [0.5, 0.25], 3.0)
        assert set(edge_state(bn)) == {(1, 9, TYPES[0]), (2, 5, TYPES[0])}


class TestEdgeCounter:
    def test_counter_matches_scan_through_mutations(self, builder, logs):
        bn = builder.replay(logs, until=3 * DAY)
        assert bn.num_edges() == bn.num_edges_scan()
        bn.add_weight(100001, 100002, TYPES[0], 1.0, 3 * DAY)
        assert bn.num_edges() == bn.num_edges_scan()
        bn.expire_edges(4 * DAY)
        assert bn.num_edges() == bn.num_edges_scan()


class TestExpiryParity:
    def test_indexed_vs_scan_after_mixed_history(self, builder, logs):
        base = builder.replay(logs, until=3 * DAY, expire=False)
        indexed, scanned = copy.deepcopy(base), copy.deepcopy(base)
        for now in (3 * DAY, 3 * DAY + HOUR, 4 * DAY, 6 * DAY):
            assert indexed.expire_edges(now) == scanned._expire_edges_scan(now)
            assert edge_state(indexed) == edge_state(scanned)
            assert indexed.num_edges() == indexed.num_edges_scan()

    def test_refreshed_edge_survives_sweep(self):
        bn = BehaviorNetwork(ttl=100.0)
        bn.add_weight(1, 2, TYPES[0], 1.0, 10.0)
        bn.add_weight(1, 2, TYPES[0], 1.0, 95.0)  # refresh before expiry
        assert bn.expire_edges(105.0) == 0
        assert bn.num_edges() == 1
        assert bn.expire_edges(300.0) == 1
        assert bn.num_edges() == 0


class TestOrderingProperty:
    """Satellite: batch build, per-window replay, and the references agree
    for both weightings on shuffled log orderings."""

    @pytest.mark.parametrize("weighting", ["inverse", "uniform"])
    def test_shuffled_orderings(self, weighting):
        logs = make_logs(n=1200, n_users=50, span=2 * DAY, seed=4)
        builder = BNBuilder(
            windows=WINDOWS, edge_types=TYPES, ttl=30 * DAY, weighting=weighting
        )
        until = (int(max(log.timestamp for log in logs) // DAY) + 1) * DAY
        baseline_build = builder.build(logs)
        baseline_replay = builder.replay(logs, until=until)

        rng = np.random.default_rng(0)
        for _ in range(3):
            shuffled = list(logs)
            rng.shuffle(shuffled)
            # Vectorized vs pinned reference: bit-exact on every ordering.
            build_vec = builder.build(shuffled)
            assert edge_state(build_vec) == edge_state(
                builder.build_reference(shuffled)
            )
            replay_vec = builder.replay(shuffled, until=until)
            assert edge_state(replay_vec) == edge_state(
                builder.replay_reference(shuffled, until=until)
            )
            # Batch build is ordering-invariant outright (grouping sorts).
            assert edge_state(build_vec) == edge_state(baseline_build)

            # Replay covers the same closed epochs: identical edge sets and
            # timestamps; weights identical up to summation order (exact
            # for uniform weighting, approx for inverse).
            state_r = edge_state(replay_vec)
            state_b = edge_state(baseline_replay)
            assert set(state_r) == set(state_b)
            for key, (weight, stamp) in state_r.items():
                base_weight, base_stamp = state_b[key]
                assert stamp == base_stamp
                if weighting == "uniform":
                    assert weight == base_weight
                else:
                    assert weight == pytest.approx(base_weight, rel=1e-12)

    @pytest.mark.parametrize("weighting", ["inverse", "uniform"])
    def test_replay_matches_build_on_closed_epochs(self, weighting):
        logs = make_logs(n=800, n_users=40, span=2 * DAY, seed=6)
        builder = BNBuilder(
            windows=WINDOWS, edge_types=TYPES, ttl=30 * DAY, weighting=weighting
        )
        until = (int(max(log.timestamp for log in logs) // DAY) + 1) * DAY
        built = edge_state(builder.build(logs))
        replayed = edge_state(builder.replay(logs, until=until))
        assert set(built) == set(replayed)
        for key, (weight, stamp) in replayed.items():
            build_weight, build_stamp = built[key]
            assert stamp == build_stamp
            if weighting == "uniform":
                assert weight == build_weight
            else:
                assert weight == pytest.approx(build_weight, rel=1e-12)


# ----------------------------------------------------------------------
# Fused window jobs vs per-job schedules
# ----------------------------------------------------------------------
STREAM_TYPES = TYPES[:2]  # TYPES[2] stays a non-edge type for these builders
STREAM_WINDOWS = (HOUR, 3 * HOUR, DAY)
STREAM_SPAN = 2 * DAY


class PerJobBuilder(BNBuilder):
    """Runs a server's due jobs one at a time through the method ``job``.

    ``job`` names :meth:`BNBuilder.run_window_job` (the one-job kernel
    call) or :meth:`BNBuilder.run_window_job_reference` (scalar loops),
    called on a plain builder with the same settings.  Each job
    reads every log ingested so far instead of the server's slice, so a
    slice that drops a log shows up as a mismatch.
    """

    def __init__(self, history: list, job: str, **kwargs) -> None:
        super().__init__(**kwargs)
        self.history = history
        self.job = getattr(BNBuilder(**kwargs), job)

    def run_window_jobs(self, bn, logs, jobs):
        return [self.job(bn, self.history, window, job_end) for window, job_end in jobs]


def network_state(bn: BehaviorNetwork) -> dict:
    """Every observable of one network, bit-level and in iteration order."""
    return {
        "edges": [
            (u, v, t.value, record.weight.hex(), record.last_update.hex())
            for u, v, t, record in bn.iter_edges()
        ],
        "adjacency": [(node, list(nbrs)) for node, nbrs in bn._adjacency.items()],
        "pair_seq": list(bn._pair_seq.items()),
        "expiry": {b: frozenset(keys) for b, keys in bn._expiry_buckets.items()},
        "version": bn.version,
        "deltas": sorted(bn.delta_touched().items()),
    }


def server_state(server: BNServer) -> dict:
    bn = server.bn
    if server.sharded:
        return {
            "shards": [network_state(shard) for shard in bn.shards],
            "version": bn.version,
            "next_seq": bn._next_seq,
        }
    return network_state(bn)


def reference_view(server: BNServer) -> dict:
    """What a scalar-loop job schedule reproduces exactly: edge values and
    stamps (not their order), nodes and expiry buckets."""
    shards = server.bn.shards if server.sharded else [server.bn]
    return {
        "edges": {
            (u, v, t.value): (record.weight.hex(), record.last_update.hex())
            for u, v, t, record in server.bn.iter_edges()
        },
        "nodes": sorted(server.bn.nodes()),
        "expiry": [
            {b: frozenset(keys) for b, keys in shard._expiry_buckets.items() if keys}
            for shard in shards
        ],
    }


@st.composite
def ingest_schedules(draw):
    """A sorted log stream cut into chunks, each followed by ``run_due_jobs``.

    Hypothesis draws the shape (stream length, user count, how many stamps
    and ``now`` values sit exactly on hour boundaries, call count, seed);
    numpy fills it in, which keeps streams dense enough for groups to form.
    Up to 10 users over 3 values per type overflow the builders'
    ``max_clique_size`` of 4, a third type is not an edge type, repeated
    ``now`` values make calls with no due jobs, and the final call catches
    up a day past the stream.
    """
    n_logs = draw(st.integers(0, 300))
    n_users = draw(st.integers(2, 10))
    on_boundary = draw(st.sampled_from([0.0, 0.3, 1.0]))
    n_calls = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def stamps(n: int, high: float) -> np.ndarray:
        times = rng.uniform(0.0, high, size=n)
        snap = rng.random(n) < on_boundary
        times[snap] = np.floor(times[snap] / HOUR) * HOUR
        return np.sort(times)

    logs = [
        BehaviorLog(int(uid), TYPES[int(t)], f"v{int(value)}", float(ts))
        for uid, t, value, ts in zip(
            rng.integers(0, n_users, size=n_logs),
            rng.integers(0, len(TYPES), size=n_logs),
            rng.integers(0, 3, size=n_logs),
            stamps(n_logs, STREAM_SPAN),
        )
    ]
    nows = stamps(n_calls, STREAM_SPAN).tolist()
    repeat = rng.random(n_calls) < 0.2
    for k in range(1, n_calls):
        if repeat[k]:
            nows[k] = nows[k - 1]
    nows[-1] = STREAM_SPAN + DAY
    cuts = np.sort(rng.integers(0, n_logs + 1, size=n_calls - 1)).tolist()
    bounds = [0, *cuts, n_logs]
    return [(logs[bounds[k] : bounds[k + 1]], now) for k, now in enumerate(nows)]


@settings(max_examples=60, deadline=None)
@given(schedule=ingest_schedules(), shards=st.sampled_from([1, 2]))
def test_fused_window_jobs_match_per_job_schedule(schedule, shards):
    """``run_due_jobs`` (one fused pass) == its jobs run one at a time,
    after every call: state, counters, charged seconds and jobs run."""
    kwargs = dict(
        windows=STREAM_WINDOWS, edge_types=STREAM_TYPES, max_clique_size=4, ttl=DAY
    )
    history: list = []

    def server(builder: BNBuilder) -> BNServer:
        out = BNServer(
            builder, LatencyModel(seed=0), metrics=MetricsRegistry(), shards=shards
        )
        out.bn.track_deltas()
        return out

    fused = server(BNBuilder(**kwargs))
    one_by_one = server(PerJobBuilder(history, "run_window_job", **kwargs))
    scalar = server(PerJobBuilder(history, "run_window_job_reference", **kwargs))
    for logs, now in schedule:
        history.extend(logs)
        charged = fused.ingest(logs)
        assert one_by_one.ingest(logs) == scalar.ingest(logs) == charged
        result = fused.run_due_jobs(now)
        assert one_by_one.run_due_jobs(now) == scalar.run_due_jobs(now) == result
        assert server_state(fused) == server_state(one_by_one)
        assert reference_view(fused) == reference_view(scalar)
        counters = fused.metrics.snapshot()["counters"]
        assert counters == one_by_one.metrics.snapshot()["counters"]
        assert fused.bn.num_edges() == fused.bn.num_edges_scan()
    last_now = schedule[-1][1]
    assert fused.jobs_run == sum(int(last_now // w) for w in STREAM_WINDOWS)


def test_run_window_jobs_keeps_input_order_of_unsorted_logs():
    """Shuffled logs: each job reads its epoch's logs in input order, so
    one fused call equals one-job calls fed only their epoch's logs."""
    shuffled = make_logs(n=600, n_users=40, span=DAY, seed=8)
    np.random.default_rng(1).shuffle(shuffled)
    builder = BNBuilder(windows=WINDOWS, edge_types=TYPES[:2], ttl=2 * DAY)
    jobs = [(HOUR, k * HOUR) for k in range(1, 25)] + [(DAY, DAY)]
    fused, one, ref = (BehaviorNetwork(ttl=2 * DAY) for _ in range(3))
    counts = builder.run_window_jobs(fused, shuffled, jobs)
    for window, job_end in jobs:
        epoch_logs = [
            log for log in shuffled if job_end - window < log.timestamp <= job_end
        ]
        builder.run_window_job(one, epoch_logs, window, job_end)
    ref_counts = [
        builder.run_window_job_reference(ref, shuffled, window, job_end)
        for window, job_end in jobs
    ]
    assert counts == ref_counts
    assert network_state(fused) == network_state(one)
    assert edge_state(fused) == edge_state(ref)
