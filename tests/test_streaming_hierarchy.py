"""Parity suite for the hierarchical (per-PoP leaves + global) detector.

The standard is the same as for every other driver in this repo: the
hierarchy may only change *where* state lives, never an event.  A 2-level
run over the identical chunk sequence must emit the identical report a
flat ``stream_detect`` emits, for any PoP count and any routing, and its
checkpoints must restore as ordinary flat detectors that finish the
stream with the identical remaining events.
"""

import numpy as np
import pytest

from repro.evaluation import event_parity, report_parity
from repro.flows.timeseries import TrafficType
from repro.streaming import (
    HierarchicalNetworkDetector,
    StreamingConfig,
    StreamingNetworkDetector,
    TrafficChunk,
    chunk_series,
    stream_detect,
)

CHUNK = 48


@pytest.fixture(scope="module")
def live_config():
    return StreamingConfig(min_train_bins=128, recalibrate_every_bins=32)


@pytest.fixture(scope="module")
def baseline_report(small_dataset, live_config):
    return stream_detect(chunk_series(small_dataset.series, CHUNK),
                         live_config)


def run_hierarchy(chunks, config, n_pops=1, pops=None):
    detector = HierarchicalNetworkDetector(config, n_pops=n_pops)
    for i, chunk in enumerate(chunks):
        detector.process_chunk(chunk, pop=None if pops is None else pops[i])
    return detector


class TestHierarchyParity:
    @pytest.mark.parametrize("n_pops", [1, 2, 4])
    def test_pop_counts_reproduce_flat_event_list(
            self, small_dataset, live_config, baseline_report, n_pops):
        detector = run_hierarchy(chunk_series(small_dataset.series, CHUNK),
                                 live_config, n_pops=n_pops)
        report = detector.finish()
        parity = event_parity(baseline_report.events, report.events)
        assert parity.exact, parity.to_dict()
        full = report_parity(baseline_report, report)
        assert all(full["equal"].values()), full["equal"]

    def test_routing_does_not_change_events(self, small_dataset, live_config,
                                            baseline_report):
        # Skewed explicit routing (PoP 0 hoards most chunks) vs the default
        # round-robin: the merge is order-free, so events cannot differ.
        chunks = list(chunk_series(small_dataset.series, CHUNK))
        skewed = [0 if i % 3 else 1 for i in range(len(chunks))]
        report = run_hierarchy(chunks, live_config, n_pops=2,
                               pops=skewed).finish()
        assert event_parity(baseline_report.events, report.events).exact

    def test_n_pops_defaults_to_one(self, small_dataset, baseline_report):
        config = StreamingConfig(min_train_bins=128,
                                 recalibrate_every_bins=32)
        detector = HierarchicalNetworkDetector(config)
        assert detector.n_pops == 1
        for chunk in chunk_series(small_dataset.series, CHUNK):
            detector.process_chunk(chunk)
        report = detector.finish()
        assert event_parity(baseline_report.events, report.events).exact

    def test_leaves_only_hold_their_share(self, small_dataset, live_config):
        chunks = list(chunk_series(small_dataset.series, CHUNK))
        detector = run_hierarchy(chunks, live_config, n_pops=2)
        merged = detector.detector(TrafficType.BYTES).engine
        per_leaf = [engine.n_bins_seen for engine in merged.engines]
        total = sum(chunk.n_bins for chunk in chunks)
        assert sum(per_leaf) == total
        assert all(0 < bins < total for bins in per_leaf)
        assert merged.n_bins_seen == total


class TestHierarchyCheckpoint:
    def test_checkpoint_restores_flat_and_finishes_identically(
            self, small_dataset, live_config, baseline_report, tmp_path):
        chunks = list(chunk_series(small_dataset.series, CHUNK))
        cut = len(chunks) // 2
        detector = HierarchicalNetworkDetector(live_config, n_pops=2)
        for chunk in chunks[:cut]:
            detector.process_chunk(chunk)
        detector.save(tmp_path)

        restored = StreamingNetworkDetector.restore(tmp_path)
        assert restored.report.n_chunks_processed == cut
        for chunk in chunks[cut:]:
            restored.process_chunk(chunk)
        report = restored.finish()
        parity = event_parity(baseline_report.events, report.events)
        assert parity.exact, parity.to_dict()
        full = report_parity(baseline_report, report)
        assert all(full["equal"].values()), full["equal"]

    def test_to_network_detector_continues_in_process(
            self, small_dataset, live_config, baseline_report):
        chunks = list(chunk_series(small_dataset.series, CHUNK))
        cut = len(chunks) // 3
        detector = HierarchicalNetworkDetector(live_config, n_pops=2)
        for chunk in chunks[:cut]:
            detector.process_chunk(chunk)
        flat = detector.to_network_detector()
        for chunk in chunks[cut:]:
            flat.process_chunk(chunk)
        report = flat.finish()
        assert event_parity(baseline_report.events, report.events).exact


class TestHierarchyValidation:
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

    def test_watermark_deadline_auto_quarantines(self, small_dataset,
                                                 live_config):
        chunks = list(chunk_series(small_dataset.series, CHUNK))
        detector = HierarchicalNetworkDetector(
            live_config, n_pops=2, leaf_deadline_bins=CHUNK)
        # Both pops healthy for two rounds...
        detector.process_chunk(chunks[0], pop=0)
        detector.process_chunk(chunks[1], pop=1)
        assert detector.quarantined_pops == frozenset()
        # ...then pop 1 goes silent; once the watermark runs more than
        # leaf_deadline_bins ahead of its last chunk it is quarantined.
        detector.process_chunk(chunks[2], pop=0)
        detector.process_chunk(chunks[3], pop=0)
        assert detector.quarantined_pops == frozenset({1})
        assert detector.coverage == 0.5
        # The silent pop producing again reintegrates it automatically.
        detector.process_chunk(chunks[4], pop=1)
        assert detector.quarantined_pops == frozenset()
        assert detector.coverage == 1.0

    def test_quarantined_leaf_excluded_from_global_model(self, small_dataset,
                                                         live_config):
        chunks = list(chunk_series(small_dataset.series, CHUNK))
        healthy = [c for i, c in enumerate(chunks) if i % 2 == 0]
        flat_over_healthy = stream_detect(iter(healthy), live_config)
        hierarchy = HierarchicalNetworkDetector(
            live_config, n_pops=2, leaf_deadline_bins=2 * CHUNK)
        for chunk in healthy:
            hierarchy.process_chunk(chunk, pop=0)
        report = hierarchy.finish()
        parity = event_parity(flat_over_healthy.events, report.events)
        assert parity.exact, parity.to_dict()

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
