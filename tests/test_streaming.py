"""Tests for the streaming subsystem: online PCA, chunked detection,
incremental aggregation and sources.  Replay-vs-batch event parity is the
``replay`` driver of ``tests/test_driver_oracle.py``."""

import itertools
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core import SubspaceDetector, aggregate_detections, detect_network_anomalies
from repro.core.events import Detection
from repro.core.identification import MAX_IDENTIFIED_FLOWS, identify_spe_flows
from repro.core.pca import EigenflowDecomposition
from repro.datasets import (DatasetConfig, generate_abilene_dataset,
                            synthetic_chunk_stream)
from repro.evaluation import event_parity
from repro.flows.timeseries import TrafficType
from repro.streaming import (
    ChunkedSeriesSource,
    OnlineEventAggregator,
    OnlinePCA,
    StreamingConfig,
    StreamingNetworkDetector,
    StreamingSubspaceDetector,
    TrafficChunk,
    chunk_series,
    forgetting_from_half_life,
    replay_network_anomalies,
    stream_detect,
)


@pytest.fixture(scope="module")
def quickstart_dataset():
    """The exact dataset analyzed by examples/quickstart.py."""
    return generate_abilene_dataset(DatasetConfig(weeks=2.0 / 7.0), seed=7)


@pytest.fixture(scope="module")
def correlated_matrix():
    """A correlated random matrix (n=240, p=18) with nontrivial spectrum."""
    rng = np.random.default_rng(7)
    latent = rng.normal(size=(240, 5))
    mixing = rng.normal(size=(5, 18))
    return latent @ mixing + 40.0 + 0.1 * rng.normal(size=(240, 18))


class TestOnlinePCA:
    def test_chunked_moments_match_batch(self, correlated_matrix):
        pca = OnlinePCA()
        for start in range(0, 240, 37):  # deliberately ragged chunking
            pca.partial_fit(correlated_matrix[start:start + 37])
        assert pca.n_bins_seen == 240
        assert pca.n_samples == 240
        np.testing.assert_allclose(pca.mean, correlated_matrix.mean(axis=0))
        np.testing.assert_allclose(pca.covariance(),
                                   np.cov(correlated_matrix, rowvar=False))

    def test_eigenbasis_matches_batch_svd(self, correlated_matrix):
        pca = OnlinePCA().partial_fit(correlated_matrix)
        decomposition = EigenflowDecomposition(correlated_matrix)
        eigenvalues, axes = pca.eigenbasis()
        np.testing.assert_allclose(eigenvalues[:decomposition.rank],
                                   decomposition.eigenvalues,
                                   rtol=1e-8, atol=1e-8)
        # Axes agree up to sign for well-separated components.
        batch_axes = decomposition.principal_axes(4)
        overlap = np.abs(np.sum(axes[:, :4] * batch_axes, axis=0))
        np.testing.assert_allclose(overlap, 1.0, atol=1e-6)

    def test_eigenbasis_is_cached_until_new_data(self, correlated_matrix):
        pca = OnlinePCA().partial_fit(correlated_matrix[:100])
        first = pca.eigenbasis()[0]
        assert pca.eigenbasis()[0] is first
        pca.partial_fit(correlated_matrix[100:])
        assert pca.eigenbasis()[0] is not first

    def test_forgetting_tracks_level_shift(self):
        rng = np.random.default_rng(3)
        before = rng.normal(loc=10.0, size=(300, 6))
        after = rng.normal(loc=30.0, size=(300, 6))
        pca = OnlinePCA(forgetting=0.97)
        for start in range(0, 300, 50):
            pca.partial_fit(before[start:start + 50])
        for start in range(0, 300, 50):
            pca.partial_fit(after[start:start + 50])
        # With a ~23-bin effective window the old level is forgotten.
        assert np.all(np.abs(pca.mean - 30.0) < 1.0)
        assert pca.effective_samples < 100
        assert pca.n_bins_seen == 600

    def test_forgetting_weighting_is_order_aware(self):
        # The most recent bin must carry the largest weight.
        pca = OnlinePCA(forgetting=0.5)
        pca.partial_fit(np.array([[0.0], [0.0], [8.0]]))
        # Weights 0.25, 0.5, 1.0 -> mean = 8/1.75
        assert pca.mean[0] == pytest.approx(8.0 / 1.75)

    def test_validation(self):
        with pytest.raises(ValueError):
            OnlinePCA(forgetting=0.0)
        pca = OnlinePCA()
        with pytest.raises(ValueError):
            pca.covariance()
        pca.partial_fit(np.ones((3, 4)))
        with pytest.raises(ValueError):
            pca.partial_fit(np.ones((3, 5)))


class TestStreamingDetectorParity:
    def test_single_full_window_chunk_matches_fit_detect(self, quickstart_dataset):
        series = quickstart_dataset.series
        for traffic_type in series.traffic_types:
            matrix = series.matrix(traffic_type)
            batch = SubspaceDetector().fit_detect(matrix)
            streaming = StreamingSubspaceDetector(StreamingConfig())
            result = streaming.process_chunk(matrix)
            assert not result.warmup
            assert [(d.bin_index, d.triggered_by) for d in result.detections] == \
                [(d.bin_index, d.triggered_by) for d in batch.detections]
            np.testing.assert_allclose(result.spe, batch.spe, rtol=1e-6, atol=1e-4)
            assert result.limits.spe == pytest.approx(batch.spe_threshold, rel=1e-6)
            assert result.limits.t2 == pytest.approx(batch.t2_threshold, rel=1e-9)

    def test_replay_rejects_forgetting(self, quickstart_dataset):
        with pytest.raises(ValueError):
            replay_network_anomalies(quickstart_dataset.series, chunk_size=64,
                                     config=StreamingConfig(forgetting=0.99))

    def test_warmup_then_live_detection(self, quickstart_dataset):
        series = quickstart_dataset.series
        matrix = series.matrix(TrafficType.BYTES)
        config = StreamingConfig(min_train_bins=128, recalibrate_every_bins=32)
        detector = StreamingSubspaceDetector(config)
        results = [detector.process_chunk(matrix[s:s + 64])
                   for s in range(0, matrix.shape[0], 64)]
        # 128 bins are ingested by the end of the second chunk, so only the
        # first chunk is pure warmup (update-then-detect semantics).
        assert results[0].warmup
        assert all(not r.warmup for r in results[1:])
        # Stream-global indexing: chunk i covers bins [64 i, 64 i + 64).
        for i, result in enumerate(results):
            assert (result.start_bin, result.end_bin) == (
                64 * i, min(64 * (i + 1), matrix.shape[0]))
            for detection in result.detections:
                assert 64 * i <= detection.bin_index < 64 * (i + 1)
        assert detector.is_warmed_up
        assert detector.snapshot.n_bins_trained >= 128


class TestOnlineEventAggregator:
    def _detections_from(self, report):
        return [d for per_type in report.detections.values() for d in per_type]

    def test_incremental_replay_matches_batch_aggregation(self, quickstart_dataset):
        report = detect_network_anomalies(quickstart_dataset.series)
        detections = self._detections_from(report)
        batch_events = aggregate_detections(detections)

        aggregator = OnlineEventAggregator()
        events = []
        for watermark in range(0, quickstart_dataset.n_bins, 48):
            window_end = min(watermark + 48, quickstart_dataset.n_bins)
            for detection in detections:
                if watermark <= detection.bin_index < window_end:
                    aggregator.add(detection)
            events.extend(aggregator.advance(window_end - 1))
        events.extend(aggregator.flush())
        assert events == batch_events

    def test_run_closes_on_gap_and_label_change(self):
        def det(t, b):
            return Detection(traffic_type=t, bin_index=b, od_flows=(1,))

        aggregator = OnlineEventAggregator()
        aggregator.add(det(TrafficType.BYTES, 3))
        aggregator.add(det(TrafficType.BYTES, 4))
        aggregator.add(det(TrafficType.BYTES, 5))
        aggregator.add(det(TrafficType.PACKETS, 5))
        assert aggregator.advance(2) == []
        # Bins 3-4 share label B; bin 5 is BP -> run closes at 4.
        events = aggregator.advance(4)
        assert events == []  # bin 5 pending above watermark? no: 5 > 4 stays buffered
        events = aggregator.advance(6)
        assert [e.traffic_label for e in events] == ["B", "BP"]
        assert events[0].bins == (3, 4)
        assert events[1].bins == (5,)
        assert not aggregator.has_open_run

    def test_open_run_waits_at_watermark(self):
        def det(b):
            return Detection(traffic_type=TrafficType.BYTES, bin_index=b,
                             od_flows=(2,))

        aggregator = OnlineEventAggregator()
        aggregator.add(det(9))
        assert aggregator.advance(9) == []  # could still extend into bin 10
        aggregator.add(det(10))
        assert aggregator.advance(10) == []
        events = aggregator.flush()
        assert len(events) == 1
        assert events[0].bins == (9, 10)

    def test_late_detection_rejected(self):
        aggregator = OnlineEventAggregator()
        aggregator.add(Detection(traffic_type=TrafficType.BYTES, bin_index=5,
                                 od_flows=(1,)))
        aggregator.advance(6)
        with pytest.raises(ValueError):
            aggregator.add(Detection(traffic_type=TrafficType.BYTES, bin_index=6,
                                     od_flows=(1,)))

    def test_bounded_memory(self):
        aggregator = OnlineEventAggregator()
        for start in range(0, 10_000, 100):
            for b in range(start, start + 100, 7):
                aggregator.add(Detection(traffic_type=TrafficType.FLOWS,
                                         bin_index=b, od_flows=(0,)))
            aggregator.advance(start + 99)
            assert aggregator.n_pending_bins == 0


class TestSources:
    def test_chunk_series_covers_all_bins(self, small_dataset):
        series = small_dataset.series
        chunks = list(chunk_series(series, 100))
        assert chunks[0].start_bin == 0
        assert sum(c.n_bins for c in chunks) == series.n_bins
        starts = [c.start_bin for c in chunks]
        assert starts == sorted(starts)
        for chunk in chunks:
            assert set(chunk.traffic_types) == set(series.traffic_types)
            assert chunk.n_od_pairs == series.n_od_pairs
        # Zero-copy: chunk rows are views of the series matrices.
        first = chunks[0]
        t = series.traffic_types[0]
        assert np.shares_memory(first.matrix(t), series.matrix(t))

    def test_chunked_source_is_reiterable(self, small_dataset):
        source = ChunkedSeriesSource(small_dataset.series, 96)
        assert len(source) == -(-small_dataset.n_bins // 96)
        assert len(list(source)) == len(list(source))

    def test_traffic_chunk_validation(self):
        with pytest.raises(ValueError):
            TrafficChunk(start_bin=0, matrices={})
        with pytest.raises(ValueError):
            TrafficChunk(start_bin=0, matrices={
                TrafficType.BYTES: np.ones((4, 3)),
                TrafficType.FLOWS: np.ones((4, 2)),
            })

    def test_traffic_chunk_coerces_array_likes(self):
        chunk = TrafficChunk(start_bin=0, matrices={
            TrafficType.BYTES: [[1.0, 2.0], [3.0, 4.0]],
        })
        assert isinstance(chunk.matrix(TrafficType.BYTES), np.ndarray)
        assert chunk.n_bins == 2 and chunk.n_od_pairs == 2

    def test_synthetic_stream_is_contiguous_and_reproducible(self):
        block = DatasetConfig(weeks=0.25 / 7.0)  # 72-bin blocks, fast
        feed = synthetic_chunk_stream(chunk_size=32, block_config=block, seed=5)
        chunks = list(itertools.islice(feed, 7))  # spans three blocks
        expected_start = 0
        for chunk in chunks:
            assert chunk.start_bin == expected_start
            expected_start = chunk.end_bin
        again = list(itertools.islice(
            synthetic_chunk_stream(chunk_size=32, block_config=block, seed=5), 7))
        for a, b in zip(chunks, again):
            for t in a.traffic_types:
                np.testing.assert_array_equal(a.matrix(t), b.matrix(t))

    def test_synthetic_stream_max_blocks(self):
        block = DatasetConfig(weeks=0.25 / 7.0, schedule=None)
        chunks = list(synthetic_chunk_stream(chunk_size=36, block_config=block,
                                             seed=1, max_blocks=2))
        assert sum(c.n_bins for c in chunks) == 2 * block.n_bins


class TestStreamingEdgeCases:
    def test_single_bin_chunks_match_batch_moments(self, correlated_matrix):
        engine = OnlinePCA()
        for row in correlated_matrix:
            engine.partial_fit(row[np.newaxis, :])
        assert engine.n_bins_seen == correlated_matrix.shape[0]
        np.testing.assert_allclose(engine.covariance(),
                                   np.cov(correlated_matrix, rowvar=False),
                                   rtol=1e-8, atol=1e-8)

    def test_spe_matches_two_gemm_residual_path(self, quickstart_dataset):
        # detect_chunk computes the SPE as ||c||² − ||scores||² (orthonormal
        # axes) instead of materializing the full residual matrix; this must
        # agree numerically with the explicit two-GEMM residual path, and
        # the identified OD flows of flagged bins must be unchanged.
        series = quickstart_dataset.series
        matrix = series.matrix(TrafficType.BYTES)
        detector = StreamingSubspaceDetector(StreamingConfig())
        result = detector.process_chunk(matrix)
        snapshot = detector.snapshot
        centered = matrix - snapshot.mean
        scores = centered @ snapshot.normal_axes
        residual = centered - scores @ snapshot.normal_axes.T
        reference_spe = np.sum(residual**2, axis=1)
        scale = float(np.einsum("ij,ij->i", centered, centered).max())
        np.testing.assert_allclose(result.spe, reference_spe,
                                   rtol=1e-9, atol=1e-12 * scale)
        for detection in result.detections:
            if detection.statistic != "spe":
                continue
            flows = identify_spe_flows(residual[detection.bin_index],
                                       snapshot.limits.spe,
                                       MAX_IDENTIFIED_FLOWS)
            assert detection.od_flows == tuple(flows)

    def test_heavy_forgetting_saturates_effective_samples(self):
        lam = 0.5
        rng = np.random.default_rng(8)
        engine = OnlinePCA(forgetting=lam)
        for _ in range(40):
            engine.partial_fit(rng.normal(size=(25, 4)) + 10.0)
        # Kish effective size saturates at (1 + λ) / (1 - λ) = 3 despite
        # having ingested 1000 bins.
        assert engine.n_bins_seen == 1000
        assert engine.effective_samples == pytest.approx(
            (1 + lam) / (1 - lam), abs=1e-6)
        assert engine.n_samples == 3

    def test_heavy_forgetting_keeps_detector_in_warmup(self):
        # n_samples saturated at 3 can never exceed n_normal + 1 = 5, so
        # the detector must refuse to calibrate rather than hand a bogus
        # sample count to the F-based T² limit.
        rng = np.random.default_rng(21)
        config = StreamingConfig(forgetting=0.5, min_train_bins=2)
        detector = StreamingSubspaceDetector(config)
        for _ in range(30):
            result = detector.process_chunk(rng.normal(size=(20, 8)) + 5.0)
        assert result.warmup
        assert not detector.is_warmed_up
        with pytest.raises(ValueError):
            detector.calibrate()

    def test_covariance_needs_total_weight_above_one(self):
        engine = OnlinePCA()
        engine.partial_fit(np.array([[1.0, 2.0, 3.0]]))
        # One bin -> total weight exactly 1 -> no ddof-1 sample covariance.
        assert engine.weight_sum == 1.0
        with pytest.raises(ValueError):
            engine.covariance()
        engine.partial_fit(np.array([[2.0, 1.0, 5.0]]))
        assert engine.covariance().shape == (3, 3)


def _signal_stream(rng, n_bins, n_features):
    """A dominant rank-6 signal plus small noise, ``n_bins x n_features``."""
    mixing = (rng.normal(size=(6, n_features))
              * np.linspace(10.0, 3.0, 6)[:, np.newaxis])
    return (rng.normal(size=(n_bins, 6)) @ mixing + 25.0
            + 0.01 * rng.normal(size=(n_bins, n_features)))


class TestRecalibrationCadence:
    """Boundary behavior of the recalibrate_every_bins cadence."""

    def test_exactly_at_threshold_recalibrates(self):
        rng = np.random.default_rng(12)
        config = StreamingConfig(n_normal=2, min_train_bins=8,
                                 recalibrate_every_bins=16, identify=False)
        detector = StreamingSubspaceDetector(config)
        detector.process_chunk(_signal_stream(rng, 16, 10))
        first = detector.snapshot
        assert first is not None
        # 15 new bins: strictly below the threshold -> same snapshot.
        detector.process_chunk(_signal_stream(rng, 15, 10))
        assert detector.snapshot is first
        # 1 more bin: exactly 16 bins since calibration -> new snapshot.
        detector.process_chunk(_signal_stream(rng, 1, 10))
        assert detector.snapshot is not first

    def test_one_recalibrates_on_every_chunk(self):
        rng = np.random.default_rng(13)
        config = StreamingConfig(n_normal=2, min_train_bins=8,
                                 recalibrate_every_bins=1, identify=False)
        detector = StreamingSubspaceDetector(config)
        detector.process_chunk(_signal_stream(rng, 12, 10))
        snapshots = [detector.snapshot]
        for _ in range(3):
            detector.process_chunk(_signal_stream(rng, 4, 10))
            snapshots.append(detector.snapshot)
        assert all(a is not b for a, b in zip(snapshots[:-1], snapshots[1:]))


def test_stream_detect_does_not_import_scipy_linalg():
    # scipy.linalg runs on scipy's own OpenBLAS; alternating it with
    # numpy's in one process slowed every recalibration ~10x.  The run
    # calibrates in snapshot mode (64 and 96 bins < p = 121) and on the
    # scatter after that.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    code = ("import sys\n"
            "from repro.datasets import DatasetConfig, generate_abilene_dataset\n"
            "from repro.streaming import StreamingConfig, chunk_series, "
            "stream_detect\n"
            "series = generate_abilene_dataset(DatasetConfig(weeks=1 / 7), "
            "seed=5).series\n"
            "stream_detect(chunk_series(series, 32), StreamingConfig("
            "min_train_bins=64, recalibrate_every_bins=32))\n"
            "print('scipy.linalg' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


class TestLiveStreaming:
    def test_stream_detect_end_to_end(self, quickstart_dataset):
        series = quickstart_dataset.series
        config = StreamingConfig(
            forgetting=forgetting_from_half_life(288),
            min_train_bins=128,
            recalibrate_every_bins=32,
        )
        report = stream_detect(chunk_series(series, 48), config)
        assert report.n_bins_processed == series.n_bins
        assert report.n_chunks_processed == 12
        assert report.n_events > 0
        # Events are emitted in span order with valid labels and flows.
        starts = [e.start_bin for e in report.events]
        assert starts == sorted(starts)
        for event in report.events:
            assert event.n_od_flows >= 1
        # The live run should rediscover most of the batch event spans that
        # fall after its warmup period.
        batch = detect_network_anomalies(series)
        warmup_end = 128
        post_warmup = [e for e in batch.events if e.start_bin >= warmup_end]
        parity = event_parity(post_warmup, report.events)
        assert parity.span_recall >= 0.6

    def test_duplicate_traffic_types_are_deduped(self, quickstart_dataset):
        # Regression: a duplicated type must not fold chunks twice into one
        # detector's moments.
        config = StreamingConfig(min_train_bins=128, recalibrate_every_bins=32)
        series = quickstart_dataset.series
        single = stream_detect(chunk_series(series, 48), config,
                               traffic_types=[TrafficType.BYTES])
        doubled = StreamingNetworkDetector(
            config, traffic_types=[TrafficType.BYTES, TrafficType.BYTES])
        for chunk in chunk_series(series, 48):
            doubled.process_chunk(chunk)
        report = doubled.finish()
        engine = doubled.detector(TrafficType.BYTES).engine
        assert engine.n_bins_seen == series.n_bins
        assert event_parity(single.events, report.events).exact
        assert set(report.detections) == {TrafficType.BYTES}

    def test_empty_stream(self):
        report = stream_detect(iter(()), StreamingConfig())
        assert report.n_chunks_processed == 0
        assert report.events == []

    def test_network_detector_requires_identification(self):
        with pytest.raises(ValueError):
            StreamingNetworkDetector(StreamingConfig(identify=False))

    def test_detection_without_identification(self, quickstart_dataset):
        matrix = quickstart_dataset.series.matrix(TrafficType.BYTES)
        config = StreamingConfig(identify=False, min_train_bins=64)
        detector = StreamingSubspaceDetector(config)
        result = detector.process_chunk(matrix)
        assert result.detections
        for detection in result.detections:
            assert detection.od_flows == ()
            with pytest.raises(ValueError):
                detection.to_detection(TrafficType.BYTES)
