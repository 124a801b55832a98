"""The exact moment engine against its weighted batch definition.

:class:`~repro.streaming.OnlinePCA` is the detector's only moment engine.
For any chunking of a stream and any forgetting factor ``λ`` it promises
the moments of the exponentially weighted batch: bin ``i`` of ``n`` carries
weight ``w_i = λ^(n-1-i)``, the mean is ``Σ w x / Σ w`` and the covariance is
``Σ w (x - μ)(x - μ)ᵀ / (Σ w - 1)``.  The tests here check that definition
directly (the unweighted case is also covered by
``tests/test_streaming_properties.py``), the weight bookkeeping behind the
T² limit's sample count, the rank edge cases the detector's warmup relies
on, and the checkpoint state of an engine that keeps its scatter.
"""

import numpy as np
import pytest

from repro.streaming import OnlinePCA, StreamingConfig, StreamingSubspaceDetector

#: Seeded randomized draws per property.
N_TRIALS = 6
#: Dimensionality of the dominant signal in the synthetic streams.
SIGNAL_RANK = 6
#: Principal-angle ceiling (max sin θ) between the engine's top axes and
#: those of an ``eigh`` of the batch covariance; a well-separated signal
#: spectrum keeps the measured values below 3e-11.
MAX_SIN_ANGLE = 1e-9


def _signal_stream(rng, n_bins, n_features, noise=0.01):
    """A dominant rank-``SIGNAL_RANK`` signal plus small noise."""
    amplitudes = np.linspace(10.0, 3.0, SIGNAL_RANK)
    mixing = rng.normal(size=(SIGNAL_RANK, n_features)) * amplitudes[:, None]
    latent = rng.normal(size=(n_bins, SIGNAL_RANK))
    return latent @ mixing + 25.0 + noise * rng.normal(size=(n_bins, n_features))


def _random_chunks(rng, matrix):
    """Split a stream at random boundaries (chunks of at least one bin)."""
    n = matrix.shape[0]
    cuts = sorted(rng.choice(np.arange(1, n), size=int(rng.integers(1, 8)),
                             replace=False))
    bounds = [0] + [int(c) for c in cuts] + [n]
    return [matrix[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def _weighted_batch(matrix, forgetting):
    """``(mean, covariance, Σw, Σw²)`` of the exponentially weighted batch."""
    n = matrix.shape[0]
    weights = forgetting ** np.arange(n - 1, -1, -1, dtype=float)
    total = float(weights.sum())
    mean = weights @ matrix / total
    centered = matrix - mean
    scatter = (centered * weights[:, None]).T @ centered
    return mean, scatter / (total - 1.0), total, float((weights**2).sum())


def _max_sin_angle(axes_a, axes_b):
    """Largest principal-angle sine between two equal-width orthonormal
    bases: the spectral norm of *axes_a*'s part outside *axes_b*'s span
    (exact to round-off, unlike ``√(1 - cos²)``)."""
    outside = axes_a - axes_b @ (axes_b.T @ axes_a)
    return float(np.linalg.norm(outside, 2))


def _streamed(matrix, forgetting, rng):
    engine = OnlinePCA(forgetting=forgetting)
    for chunk in _random_chunks(rng, matrix):
        engine.partial_fit(chunk)
    return engine


class TestWeightedBatchDefinition:
    @pytest.mark.parametrize("forgetting", [1.0, 0.995, 0.95])
    def test_moments_match_the_weighted_batch(self, forgetting):
        rng = np.random.default_rng(20040404)
        for _ in range(N_TRIALS):
            p = int(rng.integers(20, 80))
            matrix = _signal_stream(rng, int(rng.integers(80, 300)), p)
            engine = _streamed(matrix, forgetting, rng)
            mean, covariance, total, total_sq = _weighted_batch(matrix,
                                                                forgetting)
            np.testing.assert_allclose(engine.mean, mean, rtol=1e-10)
            scale = float(np.max(np.abs(covariance)))
            np.testing.assert_allclose(engine.covariance(), covariance,
                                       rtol=1e-9, atol=1e-10 * scale)
            assert engine.weight_sum == pytest.approx(total, rel=1e-12)
            assert engine.weight_sq_sum == pytest.approx(total_sq, rel=1e-12)
            assert engine.n_bins_seen == matrix.shape[0]

    @pytest.mark.parametrize("forgetting", [1.0, 0.995, 0.95])
    def test_top_axes_match_an_eigh_of_the_weighted_batch(self, forgetting):
        rng = np.random.default_rng(19791010)
        for _ in range(N_TRIALS):
            p = int(rng.integers(20, 80))
            matrix = _signal_stream(rng, int(rng.integers(80, 300)), p)
            engine = _streamed(matrix, forgetting, rng)
            values, axes = engine.eigenbasis(SIGNAL_RANK)
            batch_values, batch_axes = np.linalg.eigh(
                _weighted_batch(matrix, forgetting)[1])
            batch_values = batch_values[::-1]
            batch_axes = batch_axes[:, ::-1][:, :SIGNAL_RANK]
            assert axes.shape == (p, SIGNAL_RANK)
            assert _max_sin_angle(axes, batch_axes) < MAX_SIN_ANGLE
            np.testing.assert_allclose(values, batch_values, rtol=1e-9,
                                       atol=1e-10 * batch_values[0])

    @pytest.mark.parametrize("forgetting", [1.0, 0.98])
    def test_spectrum_mass_is_the_covariance_trace(self, forgetting):
        """The SPE limit's φ₁ (the residual eigenvalue sum) comes from
        eigenvalues whose total is the covariance trace."""
        rng = np.random.default_rng(3)
        for _ in range(N_TRIALS):
            matrix = _signal_stream(rng, 150, int(rng.integers(20, 60)))
            engine = _streamed(matrix, forgetting, rng)
            values, _ = engine.eigenbasis(4)
            trace = float(np.trace(engine.covariance()))
            np.testing.assert_allclose(float(np.sum(values)), trace,
                                       rtol=1e-10)
            residual = np.linalg.eigvalsh(
                _weighted_batch(matrix, forgetting)[1])[::-1][4:]
            np.testing.assert_allclose(float(np.sum(values[4:])),
                                       float(np.sum(residual)), rtol=1e-10)


class TestWeightBookkeeping:
    @pytest.mark.parametrize("forgetting", [1.0, 0.9, 0.5])
    def test_weight_sums_follow_the_geometric_series(self, forgetting):
        rng = np.random.default_rng(9)
        engine = OnlinePCA(forgetting=forgetting)
        for size in (3, 5, 1, 7):
            engine.partial_fit(rng.normal(size=(size, 4)))
        ages = np.arange(16, dtype=float)
        assert engine.n_bins_seen == 16
        assert engine.weight_sum == pytest.approx(
            float(np.sum(forgetting ** ages)), rel=1e-12)
        assert engine.weight_sq_sum == pytest.approx(
            float(np.sum(forgetting ** (2 * ages))), rel=1e-12)

    @pytest.mark.parametrize("forgetting", [0.9, 0.99])
    def test_effective_samples_saturate_on_a_long_stream(self, forgetting):
        rng = np.random.default_rng(10)
        engine = OnlinePCA(forgetting=forgetting)
        for _ in range(40):
            engine.partial_fit(rng.normal(size=(50, 2)))
        saturation = (1.0 + forgetting) / (1.0 - forgetting)
        assert engine.effective_samples == pytest.approx(saturation, rel=1e-6)
        assert engine.n_samples == round(saturation)
        assert engine.n_bins_seen == 2000

    def test_effective_samples_count_bins_without_forgetting(self):
        rng = np.random.default_rng(11)
        engine = OnlinePCA()
        for size in (1, 2, 30, 7):
            engine.partial_fit(rng.normal(size=(size, 3)))
        assert engine.effective_samples == pytest.approx(40.0, rel=1e-12)
        assert engine.n_samples == 40

    def test_empty_engine(self):
        engine = OnlinePCA(forgetting=0.9)
        assert engine.n_features is None
        assert engine.rank == 0
        assert not engine.holds_bins
        assert engine.n_bins_seen == 0
        assert engine.effective_samples == 0.0
        assert engine.n_samples == 0
        with pytest.raises(ValueError, match="no data"):
            engine.mean
        with pytest.raises(ValueError, match="no data"):
            engine.eigenbasis(2)


class TestValidation:
    @pytest.mark.parametrize("forgetting", [0.0, -0.5, 1.0 + 1e-9, 2.0,
                                            float("nan")])
    def test_rejects_forgetting_outside_the_unit_interval(self, forgetting):
        with pytest.raises(ValueError, match="forgetting"):
            OnlinePCA(forgetting=forgetting)

    @pytest.mark.parametrize("chunk", [np.ones((0, 4)), np.ones(4),
                                       np.array([[1.0, np.nan]])])
    def test_rejects_malformed_chunks(self, chunk):
        engine = OnlinePCA()
        with pytest.raises(ValueError, match="chunk"):
            engine.partial_fit(chunk)
        assert engine.n_features is None and engine.n_bins_seen == 0

    def test_one_bin_has_no_sample_covariance(self):
        engine = OnlinePCA().partial_fit(np.arange(4.0)[np.newaxis, :])
        with pytest.raises(ValueError, match="total weight > 1"):
            engine.covariance()


class TestRankEdgeCases:
    def test_zero_variance_stream_has_an_all_zero_spectrum(self):
        engine = OnlinePCA().partial_fit(np.full((10, 8), 3.0))
        values, axes = engine.eigenbasis(3)
        np.testing.assert_array_equal(values, np.zeros(8))
        np.testing.assert_allclose(axes.T @ axes, np.eye(3), atol=1e-12)

    @pytest.mark.parametrize("n_bins", [5, 12])   # kept bins / scatter
    def test_one_direction_of_variance_has_one_nonzero_eigenvalue(self,
                                                                  n_bins):
        row = np.arange(1.0, 9.0)
        engine = OnlinePCA().partial_fit(
            np.outer(np.arange(1.0, n_bins + 1.0), row) + 25.0)
        assert engine.holds_bins == (n_bins < 8)
        values, axes = engine.eigenbasis(1)
        assert values[0] > 0.0
        assert np.all(np.abs(values[1:]) <= 1e-12 * values[0])
        np.testing.assert_allclose(np.abs(axes[:, 0]),
                                   row / np.linalg.norm(row), rtol=1e-10)

    @pytest.mark.parametrize("n_features,calibrates", [(4, False), (5, True)])
    def test_detector_needs_more_flows_than_normal_axes(self, n_features,
                                                        calibrates):
        """With ``p <= n_normal`` the covariance can never have more
        components than the normal subspace, so the detector stays in
        warmup instead of calibrating a model with an empty residual."""
        rng = np.random.default_rng(8)
        config = StreamingConfig(n_normal=4, min_train_bins=8,
                                 identify=False)
        detector = StreamingSubspaceDetector(config)
        results = [detector.process_chunk(_signal_stream(rng, 16, n_features))
                   for _ in range(4)]
        assert all(r.warmup for r in results) != calibrates
        assert (detector.snapshot is not None) == calibrates

    @pytest.mark.parametrize("forgetting", [1.0, 0.99])
    def test_detector_runs_the_exact_engine_with_the_config_forgetting(
            self, forgetting):
        detector = StreamingSubspaceDetector(
            StreamingConfig(forgetting=forgetting))
        assert type(detector.engine) is OnlinePCA
        assert detector.engine.forgetting == forgetting


class TestScatterState:
    @pytest.mark.parametrize("forgetting", [1.0, 0.999])
    def test_state_roundtrip_continues_bitwise(self, forgetting):
        rng = np.random.default_rng(21)
        engine = OnlinePCA(forgetting=forgetting)
        for _ in range(4):
            engine.partial_fit(_signal_stream(rng, 25, 20))
        assert not engine.holds_bins
        twin = OnlinePCA.from_state(**engine.state_dict())
        chunk = _signal_stream(rng, 25, 20)
        engine.partial_fit(chunk)
        twin.partial_fit(chunk)
        np.testing.assert_array_equal(twin.covariance(), engine.covariance())
        np.testing.assert_array_equal(twin.mean, engine.mean)
        for got, want in zip(twin.eigenbasis(4), engine.eigenbasis(4)):
            np.testing.assert_array_equal(got, want)
        assert twin.weight_sum == engine.weight_sum
        assert twin.weight_sq_sum == engine.weight_sq_sum
        assert twin.n_bins_seen == engine.n_bins_seen

    def test_state_arrays_are_copies(self):
        rng = np.random.default_rng(22)
        engine = OnlinePCA().partial_fit(_signal_stream(rng, 30, 10))
        before = engine.covariance().copy()
        state = engine.state_dict()
        state["arrays"]["scatter"][:] = 0.0
        state["arrays"]["mean"][:] = 0.0
        np.testing.assert_array_equal(engine.covariance(), before)
        assert np.all(engine.mean != 0.0)

    def test_empty_engine_state_roundtrips(self):
        twin = OnlinePCA.from_state(**OnlinePCA(forgetting=0.97).state_dict())
        assert twin.forgetting == 0.97
        assert twin.n_features is None and twin.n_bins_seen == 0
        twin.partial_fit(np.ones((3, 2)))
        assert twin.n_features == 2

    @pytest.mark.parametrize("kind", ["low_rank_eigen", "sharded_online_pca"])
    def test_from_state_rejects_another_engine_kind(self, kind):
        rng = np.random.default_rng(23)
        state = OnlinePCA().partial_fit(_signal_stream(rng, 30, 10)).state_dict()
        with pytest.raises(ValueError, match="not an online_pca state"):
            OnlinePCA.from_state(dict(state["meta"], kind=kind),
                                 state["arrays"])

    def test_from_state_rejects_a_scatter_of_the_wrong_shape(self):
        rng = np.random.default_rng(24)
        state = OnlinePCA().partial_fit(_signal_stream(rng, 30, 10)).state_dict()
        arrays = dict(state["arrays"], scatter=state["arrays"]["scatter"][:-1])
        with pytest.raises(ValueError, match="scatter shape"):
            OnlinePCA.from_state(state["meta"], arrays)
