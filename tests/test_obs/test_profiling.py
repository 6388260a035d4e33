"""TrainProfiler unit tests plus integration with the training loops."""

from __future__ import annotations

import pytest

from repro.obs import MetricsRegistry, NullProfiler, TrainProfiler

pytestmark = pytest.mark.obs


class TestNullProfiler:
    def test_hooks_are_noops(self):
        profiler = NullProfiler()
        with profiler.epoch(0):
            with profiler.stage("forward"):
                pass
            profiler.count_batch(12)
            profiler.record_loss(0.5)
        # No state is accumulated anywhere.
        assert not hasattr(profiler, "epochs")

    def test_context_is_shared(self):
        profiler = NullProfiler()
        assert profiler.epoch(0) is profiler.stage("x")


class TestTrainProfiler:
    def test_epoch_records_profile(self):
        profiler = TrainProfiler()
        with profiler.epoch(0):
            with profiler.stage("forward"):
                pass
            with profiler.stage("forward"):
                pass
            with profiler.stage("backward"):
                pass
            profiler.count_batch(7)
            profiler.count_batch(5)
            profiler.record_loss(0.25)
        assert len(profiler.epochs) == 1
        profile = profiler.epochs[0]
        assert profile.epoch == 0
        assert profile.seconds >= 0.0
        assert profile.loss == 0.25
        assert profile.batches == 2
        assert profile.sampled_nodes == 12
        assert set(profile.stages) == {"forward", "backward"}

    def test_stage_outside_epoch_is_ignored(self):
        profiler = TrainProfiler()
        with profiler.stage("forward"):
            pass
        profiler.count_batch(3)
        profiler.record_loss(1.0)
        assert profiler.epochs == []
        assert profiler.stage_totals() == {}

    def test_stage_totals_accumulate_across_epochs(self):
        profiler = TrainProfiler()
        for epoch in range(3):
            with profiler.epoch(epoch):
                with profiler.stage("forward"):
                    pass
        totals = profiler.stage_totals()
        assert set(totals) == {"forward"}
        assert totals["forward"] >= 0.0
        assert profiler.total_seconds() == pytest.approx(
            sum(p.seconds for p in profiler.epochs)
        )

    def test_registry_mirroring(self):
        registry = MetricsRegistry()
        profiler = TrainProfiler(registry=registry)
        for epoch in range(2):
            with profiler.epoch(epoch):
                profiler.count_batch(10)
        assert registry.counters["train.epochs"].as_int() == 2
        assert registry.counters["train.batches"].as_int() == 2
        assert registry.counters["train.sampled_nodes"].as_int() == 20
        assert registry.histograms["train.epoch_seconds"].count == 2

    def test_mirror_into_prefixes_metrics(self):
        profiler = TrainProfiler()
        with profiler.epoch(0):
            with profiler.stage("forward"):
                pass
            profiler.count_batch(4)
        registry = MetricsRegistry()
        profiler.mirror_into(registry, prefix="turbo.")
        snapshot = registry.snapshot()
        assert snapshot["counters"]["turbo.train.epochs"] == 1
        assert snapshot["counters"]["turbo.train.batches"] == 1
        assert snapshot["counters"]["turbo.train.sampled_nodes"] == 4
        assert "turbo.train.stage_seconds.forward" in snapshot["histograms"]

    def test_report_mentions_every_stage(self):
        profiler = TrainProfiler()
        with profiler.epoch(0):
            with profiler.stage("forward"):
                pass
            with profiler.stage("validation"):
                pass
        report = profiler.report()
        assert "epochs=1" in report
        assert "forward" in report
        assert "validation" in report


class TestTrainerIntegration:
    def test_train_node_classifier_fills_profiler(self):
        import numpy as np

        from repro import nn
        from repro.core.trainer import TrainConfig, train_node_classifier

        rng = np.random.default_rng(0)
        features = rng.normal(size=(40, 6)).astype(np.float64)
        labels = (features[:, 0] > 0).astype(np.float64)
        train_idx = np.arange(30)
        val_idx = np.arange(30, 40)

        model = nn.MLP(6, [8], 1, rng=np.random.default_rng(7))
        profiler = TrainProfiler(registry=MetricsRegistry())
        config = TrainConfig(epochs=3, min_epochs=1, patience=1)
        train_node_classifier(
            model,
            lambda x: model(x),
            features,
            labels,
            train_idx,
            val_idx,
            config=config,
            profiler=profiler,
        )
        assert 1 <= len(profiler.epochs) <= 3
        for profile in profiler.epochs:
            assert profile.batches >= 1
            assert np.isfinite(profile.loss)
            assert "forward" in profile.stages
            assert "backward" in profile.stages
            assert "step" in profile.stages
            assert "validation" in profile.stages
        registry = profiler.registry
        assert registry.counters["train.epochs"].as_int() == len(profiler.epochs)
        assert registry.histograms["train.epoch_seconds"].count == len(profiler.epochs)
