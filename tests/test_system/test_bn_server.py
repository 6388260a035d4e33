"""BN server tests: streaming ingestion, window jobs, sampling."""

from __future__ import annotations

import pytest

from repro.datagen import DAY, HOUR, BehaviorLog, BehaviorType
from repro.network import BNBuilder
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer, use_span
from repro.system import BNServer, InMemoryCache, LatencyModel

DEV = BehaviorType.DEVICE_ID


def make_server(cache: bool = False, windows=(HOUR, DAY)) -> BNServer:
    latency = LatencyModel(jitter_sigma=0.0, seed=0)
    builder = BNBuilder(windows=windows)
    return BNServer(
        builder,
        latency,
        cache=InMemoryCache(latency) if cache else None,
    )


def shared_logs(t0: float = 0.0):
    return [
        BehaviorLog(1, DEV, "d0", t0 + 60.0),
        BehaviorLog(2, DEV, "d0", t0 + 120.0),
    ]


class TestIngestion:
    def test_out_of_order_rejected(self):
        server = make_server()
        server.ingest([BehaviorLog(1, DEV, "d", 100.0)])
        with pytest.raises(ValueError):
            server.ingest([BehaviorLog(1, DEV, "d", 50.0)])

    def test_ingest_charges_latency(self):
        server = make_server()
        assert server.ingest(shared_logs()) > 0.0


class TestWindowJobs:
    def test_jobs_build_edges_after_epoch_closes(self):
        server = make_server()
        server.ingest(shared_logs())
        jobs, _ = server.run_due_jobs(now=HOUR)  # 1-hour epoch closed
        assert jobs >= 1
        assert server.bn.weight(1, 2, DEV) == pytest.approx(0.5)

    def test_no_jobs_before_epoch_closes(self):
        server = make_server()
        server.ingest(shared_logs())
        jobs, _ = server.run_due_jobs(now=HOUR / 2)
        assert jobs == 0
        assert server.bn.weight(1, 2, DEV) == 0.0

    def test_hierarchy_accumulates_across_windows(self):
        server = make_server()
        server.ingest(shared_logs())
        server.run_due_jobs(now=DAY)
        # Both the 1-hour and the 1-day jobs contributed 1/2.
        assert server.bn.weight(1, 2, DEV) == pytest.approx(1.0)

    def test_jobs_run_incrementally(self):
        server = make_server(windows=(HOUR,))
        server.ingest(shared_logs(0.0))
        server.run_due_jobs(now=HOUR)
        server.ingest(shared_logs(HOUR))
        jobs, _ = server.run_due_jobs(now=2 * HOUR)
        assert jobs == 1
        assert server.bn.weight(1, 2, DEV) == pytest.approx(1.0)

    def test_shorter_windows_run_more_jobs(self):
        server = make_server(windows=(HOUR, DAY))
        server.ingest(shared_logs())
        server.run_due_jobs(now=DAY)
        assert server.jobs_run == 24 + 1

    def test_ttl_sweep_prunes_old_edges(self):
        latency = LatencyModel(jitter_sigma=0.0)
        builder = BNBuilder(windows=(HOUR,), ttl=2 * DAY)
        server = BNServer(builder, latency, ttl_sweep_interval=DAY)
        server.ingest(shared_logs())
        server.run_due_jobs(now=HOUR)
        assert server.bn.num_edges() == 1
        server.run_due_jobs(now=5 * DAY)
        assert server.bn.num_edges() == 0


class TestLateLogs:
    """A log in an epoch ``run_due_jobs`` already closed is accepted and
    counted, but the windows whose job for it has run never see it."""

    def test_late_log_is_counted_and_skipped_by_closed_windows(self):
        server = make_server(windows=(HOUR, DAY))
        server.metrics = MetricsRegistry()
        server.ingest([BehaviorLog(9, DEV, "other", 100.0)])
        server.run_due_jobs(now=5 * HOUR)  # closes hour epochs up to 5h
        tracer = Tracer()
        root = tracer.start_trace("ingest", at=5 * HOUR)
        with use_span(root):
            server.ingest(shared_logs(2 * HOUR))  # both logs are late
        server.run_due_jobs(now=DAY)
        assert server.metrics.counter("bn.ingest.late_logs").as_int() == 2
        assert root.attributes["bn.ingest.late_logs"] == 2
        # Only the day window saw the shared device; a batch build over the
        # same logs also counts the hour window's 1/2.
        assert server.bn.weight(1, 2, DEV) == 0.5
        built = server.builder.build(
            [BehaviorLog(9, DEV, "other", 100.0), *shared_logs(2 * HOUR)]
        )
        assert built.weight(1, 2, DEV) == 1.0

    def test_logs_in_open_epochs_are_not_late(self):
        server = make_server(windows=(HOUR, DAY))
        server.metrics = MetricsRegistry()
        server.ingest(shared_logs())
        server.run_due_jobs(now=HOUR)
        server.ingest([BehaviorLog(3, DEV, "d1", HOUR + 1.0)])
        assert "bn.ingest.late_logs" not in server.metrics.counters

    def test_log_on_a_closed_epoch_end_is_late(self):
        server = make_server(windows=(HOUR,))
        server.metrics = MetricsRegistry()
        server.run_due_jobs(now=HOUR)
        on_end = [BehaviorLog(1, DEV, "d0", HOUR), BehaviorLog(2, DEV, "d0", HOUR)]
        server.ingest(on_end)
        assert server.metrics.counter("bn.ingest.late_logs").as_int() == 2


class TestSampling:
    def test_sample_returns_subgraph_and_cost(self):
        server = make_server()
        server.ingest(shared_logs())
        server.run_due_jobs(now=DAY)
        subgraph, seconds = server.sample(1, now=DAY)
        assert subgraph.target == 1
        assert 2 in subgraph.nodes
        assert seconds > 0

    def test_unknown_target_becomes_isolated_node(self):
        server = make_server()
        subgraph, _ = server.sample(42, now=0.0)
        assert subgraph.nodes == [42]

    def test_cache_reduces_repeat_cost(self):
        server = make_server(cache=True)
        server.ingest(shared_logs())
        server.run_due_jobs(now=DAY)
        _, cold = server.sample(1, now=DAY)
        _, warm = server.sample(1, now=DAY)
        assert warm < cold

    def test_allowed_filters_sample(self):
        server = make_server()
        server.ingest(shared_logs())
        server.run_due_jobs(now=DAY)
        subgraph, _ = server.sample(1, now=DAY, allowed={1})
        assert subgraph.nodes == [1]


class TestLogPruning:
    def test_prune_drops_logs_older_than_largest_window(self):
        server = make_server(windows=(HOUR, DAY))
        server.ingest(shared_logs(0.0))
        server.ingest(shared_logs(2 * DAY))
        server.run_due_jobs(now=3 * DAY)
        # Every pending job reads at most (now - DAY, now]; the t0=0 logs
        # can never contribute again and must leave the in-memory buffer.
        assert all(t > 3 * DAY - DAY for t in server._log_times)
        assert len(server._logs) == len(server._log_times) == 2

    def test_prune_keeps_logs_future_jobs_still_need(self):
        server = make_server(windows=(HOUR, DAY))
        server.ingest(shared_logs(0.0))
        server.run_due_jobs(now=HOUR)  # day job still pending for these logs
        assert len(server._logs) == 2

    def test_pruned_buffer_does_not_change_job_results(self):
        kept = make_server(windows=(HOUR,))
        for t0 in (0.0, HOUR, 2 * HOUR):
            kept.ingest(shared_logs(t0))
        # Run hour-by-hour (pruning after each job) vs all at once.
        for now in (HOUR, 2 * HOUR, 3 * HOUR):
            kept.run_due_jobs(now=now)
        batch = make_server(windows=(HOUR,))
        for t0 in (0.0, HOUR, 2 * HOUR):
            batch.ingest(shared_logs(t0))
        batch.run_due_jobs(now=3 * HOUR)
        assert kept.bn.weight(1, 2, DEV) == pytest.approx(
            batch.bn.weight(1, 2, DEV)
        )
        assert kept.bn.weight(1, 2, DEV) == pytest.approx(1.5)
