"""The low-rank eigenbasis tracker: accuracy properties and integration.

The tracker promises three things, each tested here:

1. **Principal-angle accuracy** — under random streams with a dominant
   low-dimensional signal (the paper's OD-flow regime), the tracked
   top-``k`` subspace stays within a small principal angle of the exact
   engine's, for any chunking, with and without forgetting.
2. **Exact residual-energy trace** — the tracked eigenvalue mass plus the
   residual scalar equals the exact engine's scatter trace to float
   round-off, so the SPE limit's ``φ₁`` is exact in expectation.
3. **Drop-in integration** — detector calibration consumes the maintained
   basis directly, checkpoints round-trip bitwise with restart parity,
   ``merge_online_pca`` dispatches the small-core merge, and
   ``compress_engine`` bridges from exact and merged exact engines.
"""

import numpy as np
import pytest

from repro.evaluation import event_parity, report_parity
from repro.streaming import (
    LowRankEigenTracker,
    OnlinePCA,
    StreamingConfig,
    StreamingNetworkDetector,
    StreamingSubspaceDetector,
    chunk_series,
    compress_engine,
    make_engine,
    merge_low_rank,
    merge_online_pca,
    stream_detect,
)

#: Number of seeded randomized draws per property.
N_TRIALS = 8
#: Tracked signal dimensionality of the synthetic streams.
SIGNAL_RANK = 6
#: Principal-angle ceiling (max sin θ) for the tracked top-k subspace, with
#: rank slack over a well-separated signal spectrum.  Measured values sit
#: around 1e-8; the ceiling leaves three orders of slack for unlucky seeds.
MAX_SIN_ANGLE = 1e-5
#: Relative ceiling on top-eigenvalue error vs the exact engine.
MAX_EIGVAL_RTOL = 1e-9


def _signal_stream(rng, n_bins, n_features, noise=0.01):
    """A stream with a dominant rank-``SIGNAL_RANK`` signal plus noise."""
    amplitudes = np.linspace(10.0, 3.0, SIGNAL_RANK)
    mixing = rng.normal(size=(SIGNAL_RANK, n_features)) * amplitudes[:, None]
    latent = rng.normal(size=(n_bins, SIGNAL_RANK))
    return latent @ mixing + 25.0 + noise * rng.normal(size=(n_bins, n_features))


def _random_chunks(rng, matrix):
    """Split a stream at random boundaries (chunks of >= 1 bin)."""
    n = matrix.shape[0]
    n_cuts = int(rng.integers(1, 8))
    cuts = sorted(rng.choice(np.arange(1, n), size=n_cuts, replace=False))
    bounds = [0] + [int(c) for c in cuts] + [n]
    return [matrix[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def _max_sin_angle(axes_a, axes_b, k):
    """Largest principal-angle sine between two k-dimensional subspaces."""
    cosines = np.linalg.svd(axes_a[:, :k].T @ axes_b[:, :k], compute_uv=False)
    return float(np.sqrt(max(0.0, 1.0 - min(cosines) ** 2)))


def _scatter_trace(engine):
    """Scatter-scale trace of an exact engine's maintained matrix."""
    return float(np.trace(engine.covariance())) * (engine.weight_sum - 1.0)


class TestPrincipalAngleProperty:
    @pytest.mark.parametrize("forgetting", [1.0, 0.995, 0.95])
    def test_tracked_subspace_matches_exact_engine(self, forgetting):
        rng = np.random.default_rng(20040404)
        for trial in range(N_TRIALS):
            p = int(rng.integers(20, 80))
            matrix = _signal_stream(rng, int(rng.integers(80, 300)), p)
            exact = OnlinePCA(forgetting=forgetting)
            tracker = LowRankEigenTracker(rank=SIGNAL_RANK + 6,
                                          forgetting=forgetting)
            for chunk in _random_chunks(rng, matrix):
                exact.partial_fit(chunk)
                tracker.partial_fit(chunk)
            exact_values, exact_axes = exact.eigenbasis()
            values, axes = tracker.eigenbasis()
            assert _max_sin_angle(exact_axes, axes, SIGNAL_RANK) < MAX_SIN_ANGLE
            np.testing.assert_allclose(values[:SIGNAL_RANK],
                                       exact_values[:SIGNAL_RANK],
                                       rtol=MAX_EIGVAL_RTOL)
            # Identical Chan bookkeeping: mean and weights are bit-equal.
            np.testing.assert_array_equal(tracker.mean, exact.mean)
            assert tracker.weight_sum == exact.weight_sum
            assert tracker.n_samples == exact.n_samples

    @pytest.mark.parametrize("forgetting", [1.0, 0.98])
    def test_residual_energy_trace_is_exact(self, forgetting):
        rng = np.random.default_rng(19791010)
        for trial in range(N_TRIALS):
            matrix = _signal_stream(rng, 150, int(rng.integers(20, 60)))
            exact = OnlinePCA(forgetting=forgetting)
            tracker = LowRankEigenTracker(rank=SIGNAL_RANK + 2,
                                          forgetting=forgetting)
            for chunk in _random_chunks(rng, matrix):
                exact.partial_fit(chunk)
                tracker.partial_fit(chunk)
            tracked = float(np.sum(tracker.eigenbasis()[0]
                                   * (tracker.weight_sum - 1.0)))
            np.testing.assert_allclose(tracked, _scatter_trace(exact),
                                       rtol=1e-10)
            assert tracker.residual_energy >= 0.0

    def test_residual_spectrum_mass_matches_exact_phi1(self):
        """The SPE limit's φ₁ (residual eigenvalue sum) is exact."""
        rng = np.random.default_rng(3)
        matrix = _signal_stream(rng, 200, 50)
        exact, tracker = OnlinePCA(), LowRankEigenTracker(rank=10)
        exact.partial_fit(matrix)
        tracker.partial_fit(matrix)
        n_normal = 4
        exact_phi1 = float(np.sum(exact.eigenbasis()[0][n_normal:]))
        tracker_phi1 = float(np.sum(tracker.eigenbasis()[0][n_normal:]))
        np.testing.assert_allclose(tracker_phi1, exact_phi1, rtol=1e-9)

    def test_full_rank_tracking_is_exact(self):
        """With r = p the tracker IS the exact eigendecomposition."""
        rng = np.random.default_rng(11)
        matrix = _signal_stream(rng, 120, 12)
        exact, tracker = OnlinePCA(), LowRankEigenTracker(rank=12)
        for chunk in (matrix[:50], matrix[50:]):
            exact.partial_fit(chunk)
            tracker.partial_fit(chunk)
        exact_values, _ = exact.eigenbasis()
        values, _ = tracker.eigenbasis()
        np.testing.assert_allclose(values[:tracker.tracked_rank],
                                   exact_values[:tracker.tracked_rank],
                                   rtol=1e-8, atol=1e-9)
        assert tracker.residual_energy <= 1e-6 * values[0]


class TestDriftMonitor:
    def test_zero_tolerance_reorthogonalizes_every_update(self):
        rng = np.random.default_rng(5)
        tracker = LowRankEigenTracker(rank=8, drift_tolerance=0.0)
        for _ in range(5):
            tracker.partial_fit(_signal_stream(rng, 20, 30))
        assert tracker.n_reorthogonalizations >= 4
        basis = tracker.eigenbasis()[1]
        gram = basis.T @ basis
        np.testing.assert_allclose(gram, np.eye(gram.shape[0]), atol=1e-12)

    def test_loose_tolerance_never_fires_but_basis_stays_orthonormal(self):
        rng = np.random.default_rng(6)
        tracker = LowRankEigenTracker(rank=8, drift_tolerance=1.0)
        for _ in range(40):
            tracker.partial_fit(_signal_stream(rng, 10, 25))
        assert tracker.n_reorthogonalizations == 0
        basis = tracker.eigenbasis()[1]
        gram = basis.T @ basis
        # Drift accumulates without the monitor but stays tiny over 40
        # updates; the monitor exists for month-long streams.
        np.testing.assert_allclose(gram, np.eye(gram.shape[0]), atol=1e-8)

    def test_reorthogonalization_preserves_trace(self):
        rng = np.random.default_rng(7)
        loose = LowRankEigenTracker(rank=8, drift_tolerance=1.0)
        eager = LowRankEigenTracker(rank=8, drift_tolerance=0.0)
        for _ in range(10):
            chunk = _signal_stream(rng, 15, 30)
            loose.partial_fit(chunk)
            eager.partial_fit(chunk)
        def total(tracker):
            return (float(np.sum(tracker.state_dict()["arrays"]["eigenvalues"]))
                    + tracker.residual_energy)
        np.testing.assert_allclose(total(eager), total(loose), rtol=1e-10)


class TestRankEdgeCases:
    def test_rank_deficient_chunks_yield_partial_basis(self):
        """Constant / repeated-row chunks must not fabricate spectrum."""
        tracker = LowRankEigenTracker(rank=6)
        tracker.partial_fit(np.zeros((10, 8)))         # zero variance
        assert tracker.tracked_rank == 0
        assert tracker.rank == 0
        row = np.arange(8.0)
        tracker.partial_fit(np.tile(row, (5, 1)) * np.arange(1, 6)[:, None])
        # One direction of variance: all rows (and the Chan mean-shift
        # against the zero first segment) are multiples of `row`.
        assert tracker.tracked_rank == 1
        values, axes = tracker.eigenbasis()
        assert axes.shape == (8, 1)
        assert np.count_nonzero(values[:1] > 0) == 1

    def test_detector_stays_untrainable_until_rank_exceeds_n_normal(self):
        config = StreamingConfig(n_normal=2, min_train_bins=4, identify=False,
                                 engine="lowrank", rank_slack=2)
        detector = StreamingSubspaceDetector(config)
        result = detector.process_chunk(np.ones((8, 6)))   # rank 0
        assert result.warmup and detector.snapshot is None
        rng = np.random.default_rng(8)
        detector.process_chunk(_signal_stream(rng, 16, 6))
        assert detector.snapshot is not None

    def test_rank_below_n_normal_is_rejected_up_front(self):
        """An explicitly undersized engine (r < k) fails loudly, not quietly
        (without the check it would sit in warmup forever)."""
        config = StreamingConfig(n_normal=4, min_train_bins=4, identify=False)
        with pytest.raises(ValueError, match="eigenpairs"):
            StreamingSubspaceDetector(config, engine=LowRankEigenTracker(rank=2))
        with pytest.raises(ValueError, match="eigenpairs"):
            StreamingSubspaceDetector(config, engine=LowRankEigenTracker(rank=4))

    def test_config_rejects_invalid_lowrank_knobs(self):
        with pytest.raises(ValueError, match="rank_slack"):
            StreamingConfig(engine="lowrank", rank_slack=0)
        with pytest.raises(ValueError, match="engine"):
            StreamingConfig(engine="svd")
        with pytest.raises(ValueError, match="drift_tolerance"):
            StreamingConfig(engine="lowrank", drift_tolerance=-1.0)
        with pytest.raises(ValueError, match="rank"):
            LowRankEigenTracker(rank=0)

    def test_rank_cap_clamps_to_feature_count(self):
        tracker = LowRankEigenTracker(rank=50)
        rng = np.random.default_rng(10)
        tracker.partial_fit(_signal_stream(rng, 60, 5))
        assert tracker.rank_limit == 5
        assert tracker.tracked_rank <= 5


class TestRecalibrationStaleness:
    """Boundary behavior of the recalibrate_every_bins cadence."""

    @pytest.mark.parametrize("engine", ["exact", "lowrank"])
    def test_exactly_at_threshold_recalibrates(self, engine):
        rng = np.random.default_rng(12)
        config = StreamingConfig(n_normal=2, min_train_bins=8,
                                 recalibrate_every_bins=16, identify=False,
                                 engine=engine, rank_slack=4)
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
                                 recalibrate_every_bins=1, identify=False,
                                 engine="lowrank", rank_slack=4)
        detector = StreamingSubspaceDetector(config)
        detector.process_chunk(_signal_stream(rng, 12, 10))
        snapshots = [detector.snapshot]
        for _ in range(3):
            detector.process_chunk(_signal_stream(rng, 4, 10))
            snapshots.append(detector.snapshot)
        assert all(a is not b for a, b in zip(snapshots[:-1], snapshots[1:]))


class TestLowRankMerge:
    def test_merge_matches_single_tracker_over_segments(self):
        rng = np.random.default_rng(14)
        for forgetting in (1.0, 0.99):
            matrix = _signal_stream(rng, 160, 40)
            first = LowRankEigenTracker(rank=12, forgetting=forgetting)
            second = LowRankEigenTracker(rank=12, forgetting=forgetting)
            whole = LowRankEigenTracker(rank=12, forgetting=forgetting)
            first.partial_fit(matrix[:90])
            second.partial_fit(matrix[90:])
            whole.partial_fit(matrix[:90])
            whole.partial_fit(matrix[90:])
            merged = merge_low_rank(first, second)
            np.testing.assert_allclose(merged.mean, whole.mean, rtol=1e-12)
            assert merged.weight_sum == pytest.approx(whole.weight_sum)
            assert merged.n_bins_seen == whole.n_bins_seen
            merged_values, merged_axes = merged.eigenbasis()
            whole_values, whole_axes = whole.eigenbasis()
            assert _max_sin_angle(whole_axes, merged_axes, 4) < MAX_SIN_ANGLE
            np.testing.assert_allclose(merged_values[:SIGNAL_RANK],
                                       whole_values[:SIGNAL_RANK], rtol=1e-7)
            # Trace stays exact through the merge.
            np.testing.assert_allclose(
                float(np.sum(merged_values)) * (merged.weight_sum - 1.0),
                float(np.sum(whole_values)) * (whole.weight_sum - 1.0),
                rtol=1e-10)

    def test_merge_online_pca_dispatches_low_rank_pairs(self):
        rng = np.random.default_rng(15)
        matrix = _signal_stream(rng, 100, 20)
        first, second = LowRankEigenTracker(rank=8), LowRankEigenTracker(rank=8)
        first.partial_fit(matrix[:50])
        second.partial_fit(matrix[50:])
        merged = merge_online_pca(first, second)
        assert isinstance(merged, LowRankEigenTracker)
        reference = merge_low_rank(first, second)
        np.testing.assert_array_equal(merged.eigenbasis()[1],
                                      reference.eigenbasis()[1])

    def test_merge_rejects_mixed_engine_kinds(self):
        rng = np.random.default_rng(16)
        matrix = _signal_stream(rng, 60, 10)
        exact, tracker = OnlinePCA(), LowRankEigenTracker(rank=6)
        exact.partial_fit(matrix)
        tracker.partial_fit(matrix)
        with pytest.raises(ValueError, match="compress"):
            merge_online_pca(exact, tracker)
        with pytest.raises(ValueError, match="compress"):
            merge_online_pca(tracker, exact)

    def test_merge_with_empty_tracker_is_identity(self):
        rng = np.random.default_rng(17)
        tracker = LowRankEigenTracker(rank=6)
        tracker.partial_fit(_signal_stream(rng, 40, 10))
        for merged in (merge_low_rank(tracker, LowRankEigenTracker(rank=6)),
                       merge_low_rank(LowRankEigenTracker(rank=6), tracker)):
            np.testing.assert_array_equal(merged.eigenbasis()[1],
                                          tracker.eigenbasis()[1])
            assert merged.weight_sum == tracker.weight_sum


class TestCompressEngine:
    def test_compress_exact_engine_keeps_top_pairs_and_trace(self):
        rng = np.random.default_rng(18)
        exact = OnlinePCA()
        exact.partial_fit(_signal_stream(rng, 120, 30))
        tracker = compress_engine(exact, rank=8)
        exact_values, exact_axes = exact.eigenbasis()
        values, axes = tracker.eigenbasis()
        np.testing.assert_allclose(values[:8], exact_values[:8], rtol=1e-12)
        np.testing.assert_allclose(np.abs(np.sum(axes * exact_axes[:, :8],
                                                 axis=0)), 1.0, rtol=1e-9)
        np.testing.assert_allclose(float(np.sum(values)),
                                   float(np.sum(exact_values)), rtol=1e-12)
        assert tracker.weight_sum == exact.weight_sum
        assert tracker.n_bins_seen == exact.n_bins_seen

    def test_compress_merged_engine_then_continue_streaming(self):
        """The merge interop: ingest two segments exactly, fold them with
        the Chan merge (as the hierarchy does), compress, continue."""
        rng = np.random.default_rng(19)
        matrix = _signal_stream(rng, 140, 24)
        first, second = OnlinePCA(), OnlinePCA()
        first.partial_fit(matrix[:60])
        second.partial_fit(matrix[60:100])
        reference = LowRankEigenTracker(rank=10)
        reference.partial_fit(matrix[:100])
        tracker = compress_engine(merge_online_pca(first, second), rank=10)
        tracker.partial_fit(matrix[100:])
        reference.partial_fit(matrix[100:])
        values, axes = tracker.eigenbasis()
        ref_values, ref_axes = reference.eigenbasis()
        assert _max_sin_angle(ref_axes, axes, 4) < MAX_SIN_ANGLE
        np.testing.assert_allclose(values[:SIGNAL_RANK],
                                   ref_values[:SIGNAL_RANK], rtol=1e-7)

    def test_compress_rejects_empty_engine(self):
        with pytest.raises(ValueError, match="no data"):
            compress_engine(OnlinePCA(), rank=4)


class TestDetectorIntegration:
    def test_make_engine_dispatch(self):
        assert isinstance(make_engine(StreamingConfig()), OnlinePCA)
        engine = make_engine(StreamingConfig(engine="lowrank", n_normal=4,
                                             rank_slack=5))
        assert isinstance(engine, LowRankEigenTracker)
        assert engine.rank_limit == 9

    def test_live_detection_matches_exact_engine(self, small_dataset):
        """Same stream, exact vs low-rank engine: same events."""
        series = small_dataset.series
        exact_config = StreamingConfig(min_train_bins=128,
                                       recalibrate_every_bins=32)
        lowrank_config = StreamingConfig(min_train_bins=128,
                                         recalibrate_every_bins=32,
                                         engine="lowrank", rank_slack=12)
        exact = stream_detect(chunk_series(series, 48), exact_config)
        lowrank = stream_detect(chunk_series(series, 48), lowrank_config)
        parity = event_parity(exact.events, lowrank.events)
        # The tracked top subspace matches to ~1e-8, but the SPE limit sees
        # the isotropically spread tail (exact φ₁, approximate φ₂/φ₃), so
        # events whose statistic grazes the limit may differ; the bulk must
        # agree.  The week-scale floor is gated in benchmarks/.
        assert parity.span_recall >= 0.85
        assert lowrank.n_events >= 1
        assert lowrank.n_bins_processed == exact.n_bins_processed

    def test_state_roundtrip_continues_bitwise(self):
        rng = np.random.default_rng(21)
        tracker = LowRankEigenTracker(rank=8, forgetting=0.999)
        for _ in range(4):
            tracker.partial_fit(_signal_stream(rng, 25, 20))
        twin = LowRankEigenTracker.from_state(**tracker.state_dict())
        chunk = _signal_stream(rng, 25, 20)
        tracker.partial_fit(chunk)
        twin.partial_fit(chunk)
        np.testing.assert_array_equal(twin.eigenbasis()[1],
                                      tracker.eigenbasis()[1])
        np.testing.assert_array_equal(twin.eigenbasis()[0],
                                      tracker.eigenbasis()[0])
        assert twin.residual_energy == tracker.residual_energy
        assert twin.n_reorthogonalizations == tracker.n_reorthogonalizations

    def test_state_rejects_wrong_kind_and_shape(self):
        rng = np.random.default_rng(22)
        tracker = LowRankEigenTracker(rank=6)
        tracker.partial_fit(_signal_stream(rng, 40, 10))
        state = tracker.state_dict()
        with pytest.raises(ValueError, match="state"):
            LowRankEigenTracker.from_state(
                dict(state["meta"], kind="online_pca"), state["arrays"])
        bad = dict(state["arrays"])
        bad["basis"] = bad["basis"][:-1]
        with pytest.raises(ValueError, match="shape"):
            LowRankEigenTracker.from_state(state["meta"], bad)

    def test_checkpoint_restart_parity_with_lowrank_engine(
            self, small_dataset, tmp_path):
        """Restored mid-stream, the low-rank run finishes identically."""
        config = StreamingConfig(min_train_bins=128, recalibrate_every_bins=32,
                                 engine="lowrank", rank_slack=12)
        chunks = list(chunk_series(small_dataset.series, 48))
        reference = StreamingNetworkDetector(config)
        for chunk in chunks:
            reference.process_chunk(chunk)
        reference_report = reference.finish()

        detector = StreamingNetworkDetector(config)
        for chunk in chunks[:6]:
            detector.process_chunk(chunk)
        detector.save(tmp_path / "ckpt")
        restored = StreamingNetworkDetector.restore(tmp_path / "ckpt")
        assert restored.config.engine == "lowrank"
        for chunk in chunks[6:]:
            restored.process_chunk(chunk)
        report = restored.finish()
        full = report_parity(reference_report, report)
        assert all(full["equal"].values()), full["equal"]
