"""Hierarchy bookkeeping: argument validation, leaf quarantine state and
how often the per-PoP moments are merged.

That a hierarchical run emits the flat run's events (any routing, a
quarantined and reintegrated leaf, a silent leaf, a checkpoint restored
flat) is proven by the driver oracle in ``tests/test_driver_oracle.py``.
"""

import numpy as np
import pytest

from repro.flows.timeseries import TrafficType
from repro.streaming import hierarchy
from repro.streaming import (HierarchicalNetworkDetector, StreamingConfig,
                             TrafficChunk, chunk_series)

CHUNK = 48


@pytest.fixture(scope="module")
def live_config():
    return StreamingConfig(min_train_bins=128, recalibrate_every_bins=32)


class TestHierarchyValidation:
    def test_n_pops_defaults_to_one(self, live_config):
        assert HierarchicalNetworkDetector(live_config).n_pops == 1

    def test_forgetting_is_rejected(self):
        config = StreamingConfig(forgetting=0.99)
        with pytest.raises(ValueError, match="order-free"):
            HierarchicalNetworkDetector(config, n_pops=2)

    def test_identify_required(self):
        with pytest.raises(ValueError, match="identified OD flows"):
            HierarchicalNetworkDetector(StreamingConfig(identify=False))

    def test_pop_bounds(self, live_config):
        detector = HierarchicalNetworkDetector(live_config, n_pops=2)
        rng = np.random.default_rng(0)
        chunk = TrafficChunk(start_bin=0, matrices={
            TrafficType.BYTES: rng.random((8, 4)) + 1.0})
        with pytest.raises(ValueError, match="pop must lie"):
            detector.process_chunk(chunk, pop=2)
        with pytest.raises(ValueError):
            HierarchicalNetworkDetector(live_config, n_pops=0)


class TestLeafQuarantine:
    def test_explicit_quarantine_and_reintegration(self, small_dataset,
                                                   live_config):
        detector = HierarchicalNetworkDetector(live_config, n_pops=3)
        assert detector.coverage == 1.0
        assert detector.quarantined_pops == frozenset()
        detector.quarantine_leaf(2)
        detector.quarantine_leaf(2)  # idempotent
        assert detector.quarantined_pops == frozenset({2})
        assert detector.coverage == pytest.approx(2.0 / 3.0)
        detector.reintegrate_leaf(2)
        detector.reintegrate_leaf(2)  # idempotent
        assert detector.quarantined_pops == frozenset()
        assert detector.coverage == 1.0
        with pytest.raises(ValueError):
            detector.quarantine_leaf(3)
        with pytest.raises(ValueError):
            detector.reintegrate_leaf(-1)

    def test_deadline_validation(self, live_config):
        with pytest.raises(ValueError):
            HierarchicalNetworkDetector(live_config, n_pops=2,
                                        leaf_deadline_bins=0)

    def test_quarantine_counters_in_registry(self, small_dataset):
        config = StreamingConfig(min_train_bins=128,
                                 recalibrate_every_bins=32, telemetry=True)
        detector = HierarchicalNetworkDetector(config, n_pops=2)
        for chunk in list(chunk_series(small_dataset.series, CHUNK))[:2]:
            detector.process_chunk(chunk)
        detector.quarantine_leaf(1)
        registry = detector.telemetry.registry
        assert registry.value("leaf_quarantines") == 1
        assert registry.value("quarantined_leaves") == 1.0
        assert registry.value("hierarchy_coverage") == 0.5
        detector.reintegrate_leaf(1)
        assert registry.value("leaf_reintegrations") == 1
        assert registry.value("quarantined_leaves") == 0.0
        assert registry.value("hierarchy_coverage") == 1.0


class TestMergeCadence:
    def test_merges_follow_recalibrations_and_saves_not_chunks(
            self, small_dataset, monkeypatch):
        """The per-chunk reads (bins seen, rank, sample count) are sums
        over the PoPs, so the moment fold runs once per recalibration and
        save, not once per chunk."""
        merges = []
        merge = hierarchy.merge_online_pca
        monkeypatch.setattr(hierarchy, "merge_online_pca",
                            lambda a, b: merges.append(1) or merge(a, b))
        config = StreamingConfig(min_train_bins=128, recalibrate_every_bins=96,
                                 telemetry=True)
        detector = HierarchicalNetworkDetector(config, n_pops=2)
        chunks = list(chunk_series(small_dataset.series, 16))
        for chunk in chunks:
            detector.process_chunk(chunk)
        recalibrations = sum(metric.value for metric in detector.telemetry
                             .registry.labeled("recalibrations").values())
        assert 0 < len(merges) == recalibrations < len(chunks)
        detector.state_dict()
        n_types = len(small_dataset.series.traffic_types)
        assert recalibrations < len(merges) <= recalibrations + n_types
