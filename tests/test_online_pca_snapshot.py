"""Snapshot mode of :class:`~repro.streaming.online_pca.OnlinePCA`.

While an engine holds fewer bins than it has OD flows it keeps the bins and
recalibrates through their ``n x n`` Gram matrix.  That must give the
spectrum (to ``1e-12·λ₁``) and the top-k subspace of the covariance it
stands for; the chunk that reaches ``p`` bins must leave the engine bitwise
where the scatter path would have put it; an engine checkpointed in
snapshot mode must restore and recalibrate bitwise; and checkpoints
written before the mode existed (scatter only) must still load.  Detector,
hierarchy and service parity on a day that never reaches p bins is the
``snapshot_p324`` corpus of ``tests/test_driver_oracle.py``.
"""

import numpy as np
import pytest

from repro.datasets import DatasetConfig, generate_abilene_dataset
from repro.evaluation import event_parity
from repro.streaming import (
    OnlinePCA,
    StreamingConfig,
    StreamingNetworkDetector,
    chunk_series,
    eigh_descending,
    merge_online_pca,
    stream_detect,
)
from repro.topology import random_backbone

K = 4
P = 240


def _stream(seed, n_bins=200, p=P):
    """A seeded six-dimensional signal plus noise, ``n_bins x p``."""
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n_bins, p)) * np.linspace(4.0, 0.1, p)
    data += (rng.standard_normal((n_bins, 6)) * [30, 22, 15, 11, 8, 6]
             @ rng.standard_normal((6, p)))
    return data


def _chunks(data, sizes):
    bounds = np.cumsum([0] + list(sizes))
    return [data[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def _scatter_engine(forgetting=1.0):
    """An engine that keeps the scatter from its first bin on (the path
    every engine took before snapshot mode)."""
    engine = OnlinePCA(forgetting)
    engine._build_scatter(P)
    return engine


def _feed(engine, chunks):
    for chunk in chunks:
        engine.partial_fit(chunk)
    return engine


def _sin_top(reference, axes, j):
    ref, ours = reference[:, :j], axes[:, :j]
    return float(np.linalg.norm(ours - ref @ (ref.T @ ours), 2))


def _zero_variance(data):
    data = data.copy()
    data[:, -40:] = 3.0
    return data


def _repeated(data):
    data = data.copy()
    data[60:100] = data[20:60]
    return data


class TestSnapshotEigenbasis:
    @pytest.mark.parametrize("forgetting", [1.0, 0.99])
    @pytest.mark.parametrize("shape", ["plain", "zero_variance_flows",
                                       "repeated_bins"])
    def test_matches_eigh_of_the_covariance(self, shape, forgetting):
        data = _stream(1)
        data = {"plain": data, "zero_variance_flows": _zero_variance(data),
                "repeated_bins": _repeated(data)}[shape]
        sizes = [7, 64, 1, 48, 80]
        engine = _feed(OnlinePCA(forgetting), _chunks(data, sizes))
        reference = _feed(_scatter_engine(forgetting), _chunks(data, sizes))
        assert engine.holds_bins and not reference.holds_bins
        np.testing.assert_allclose(engine.covariance(),
                                   reference.covariance(), rtol=0,
                                   atol=1e-13 * np.abs(
                                       reference.covariance()).max())

        values, axes = engine.eigenbasis(K)
        ref_values, ref_axes = eigh_descending(reference.covariance())
        top = ref_values[0]
        assert values.shape == (P,) and axes.shape == (P, K)
        np.testing.assert_allclose(values, ref_values, rtol=0,
                                   atol=1e-12 * top)
        assert not values[engine.n_bins_seen:].any()
        np.testing.assert_allclose(axes.T @ axes, np.eye(K), atol=1e-12)
        gap = ref_values[K - 1] - ref_values[K]
        assert _sin_top(ref_axes, axes, K) <= 1e-11 * top / gap
        assert not values.flags.writeable and not axes.flags.writeable
        assert engine.eigen_fallbacks == 0

    def test_no_gram_route_for_as_many_axes_as_bins(self):
        engine = OnlinePCA().partial_fit(_stream(2, n_bins=10))
        values, axes = engine.eigenbasis(10)
        ref_values, ref_axes = eigh_descending(engine.covariance())
        np.testing.assert_array_equal(values, ref_values)
        np.testing.assert_array_equal(axes, ref_axes[:, :10])

    def test_null_top_axes_take_the_covariance_route(self):
        # Every bin equal: the Gram matrix is zero and cannot map axes.
        engine = OnlinePCA().partial_fit(np.ones((20, P)))
        values, axes = engine.eigenbasis(K)
        ref_values, ref_axes = eigh_descending(engine.covariance())
        np.testing.assert_array_equal(values, ref_values)
        np.testing.assert_array_equal(axes, ref_axes[:, :K])


class TestCrossingP:
    @pytest.mark.parametrize("forgetting", [1.0, 0.99])
    @pytest.mark.parametrize("sizes", [[100, 100, 60], [P - 1, 1, 5],
                                       [P + 10, 20], [30, 30, 30, 200]])
    def test_crossing_chunk_lands_on_the_scatter_path_bitwise(
            self, sizes, forgetting):
        data = _stream(3, n_bins=sum(sizes))
        engine, reference = OnlinePCA(forgetting), _scatter_engine(forgetting)
        for chunk in _chunks(data, sizes):
            engine.partial_fit(chunk)
            reference.partial_fit(chunk)
            assert engine.holds_bins == (engine.n_bins_seen < P)
        assert not engine.holds_bins
        for key, value in reference.state_dict()["arrays"].items():
            np.testing.assert_array_equal(engine.state_dict()["arrays"][key],
                                          value)
        assert engine.state_dict()["meta"] == reference.state_dict()["meta"]

    def test_kept_chunks_are_copies(self):
        chunk = _stream(4, n_bins=30)
        engine = OnlinePCA().partial_fit(chunk)
        before = engine.covariance()
        chunk[:] = 0.0
        np.testing.assert_array_equal(engine.covariance(), before)


class TestCheckpoint:
    @pytest.mark.parametrize("forgetting", [1.0, 0.99])
    def test_snapshot_state_restores_and_recalibrates_bitwise(self,
                                                              forgetting):
        data = _stream(5, n_bins=300)
        chunks = _chunks(data, [40, 50, 60, 70, 80])
        engine = _feed(OnlinePCA(forgetting), chunks[:3])
        state = engine.state_dict()
        assert set(state["arrays"]) == {"mean", "rows", "chunk_bins"}
        restored = OnlinePCA.from_state(**state)
        assert restored.holds_bins
        for ours, theirs in zip(restored.eigenbasis(K), engine.eigenbasis(K)):
            np.testing.assert_array_equal(ours, theirs)
        for chunk in chunks[3:]:
            engine.partial_fit(chunk)
            restored.partial_fit(chunk)
            for ours, theirs in zip(restored.eigenbasis(K),
                                    engine.eigenbasis(K)):
                np.testing.assert_array_equal(ours, theirs)
        assert not restored.holds_bins
        np.testing.assert_array_equal(restored.state_dict()["arrays"]["scatter"],
                                      engine.state_dict()["arrays"]["scatter"])

    def test_malformed_kept_bins_are_rejected(self):
        state = OnlinePCA().partial_fit(_stream(6, n_bins=30)).state_dict()
        arrays = dict(state["arrays"], chunk_bins=np.array([29]))
        with pytest.raises(ValueError, match="kept bins"):
            OnlinePCA.from_state(state["meta"], arrays)
        arrays = {"mean": state["arrays"]["mean"]}
        with pytest.raises(ValueError, match="neither"):
            OnlinePCA.from_state(state["meta"], arrays)

    def test_old_scatter_checkpoint_still_loads(self):
        data = _stream(7, n_bins=300)
        chunks = _chunks(data, [50, 50, 100, 100])
        old = _feed(_scatter_engine(), chunks[:2])
        loaded = OnlinePCA.from_state(**old.state_dict())
        assert loaded.n_bins_seen < P and not loaded.holds_bins
        for chunk in chunks[2:]:
            loaded.partial_fit(chunk)
            old.partial_fit(chunk)
        np.testing.assert_array_equal(loaded.state_dict()["arrays"]["scatter"],
                                      old.state_dict()["arrays"]["scatter"])


class TestMerge:
    def test_below_p_concatenates_bins_in_stream_order(self):
        data = _stream(8, n_bins=150)
        chunks = _chunks(data, [40, 30, 50, 30])
        earlier = _feed(OnlinePCA(0.99), chunks[:2])
        later = _feed(OnlinePCA(0.99), chunks[2:])
        merged = merge_online_pca(earlier, later)
        flat = _feed(OnlinePCA(0.99), chunks)
        assert merged.holds_bins
        arrays, flat_arrays = (merged.state_dict()["arrays"],
                               flat.state_dict()["arrays"])
        np.testing.assert_array_equal(arrays["rows"], flat_arrays["rows"])
        np.testing.assert_array_equal(arrays["chunk_bins"],
                                      flat_arrays["chunk_bins"])
        np.testing.assert_allclose(merged.covariance(), flat.covariance(),
                                   rtol=1e-10, atol=1e-10)
        assert merged.weight_sum == pytest.approx(flat.weight_sum, rel=1e-14)

    def test_reaching_p_combines_scatters(self):
        data = _stream(9, n_bins=2 * P - 20)
        chunks = _chunks(data, [100, P - 110, 60, P - 70])
        earlier = _feed(OnlinePCA(), chunks[:2])
        later = _feed(OnlinePCA(), chunks[2:])
        means = [earlier.mean.copy(), later.mean.copy()]
        merged = merge_online_pca(earlier, later)
        assert not merged.holds_bins
        flat = OnlinePCA().partial_fit(data)
        np.testing.assert_allclose(merged.covariance(), flat.covariance(),
                                   rtol=1e-10, atol=1e-10)
        # The inputs were switched to their scatters once, bitwise as the
        # scatter path would have built them, with unchanged moments.
        for engine, mean, part in zip((earlier, later), means,
                                      (chunks[:2], chunks[2:])):
            assert not engine.holds_bins
            np.testing.assert_array_equal(engine.mean, mean)
            reference = _feed(_scatter_engine(), part)
            np.testing.assert_array_equal(engine._scatter,
                                          reference._scatter)


class TestInPlaceScatterFold:
    class _Expression(OnlinePCA):
        """The fold as one expression with its four temporaries."""

        def _merge_scatter(self, chunk_scatter, delta, decay,
                           outer_coefficient):
            self._scatter = (self._scatter * decay + chunk_scatter
                             + np.outer(delta, delta) * outer_coefficient)

    @pytest.mark.parametrize("forgetting", [1.0, 0.97])
    def test_bitwise_equal_to_the_expression(self, forgetting):
        data = _stream(10, n_bins=P + 150)
        engine, expression = OnlinePCA(forgetting), self._Expression(forgetting)
        for chunk in _chunks(data, [P + 3, 50, 1, 96]):
            engine.partial_fit(chunk)
            expression.partial_fit(chunk)
            np.testing.assert_array_equal(engine._scatter,
                                          expression._scatter)


# --------------------------------------------------------------------- #
# detectors over a day that never reaches p bins
# --------------------------------------------------------------------- #
CHUNK = 32


@pytest.fixture(scope="module")
def short_series():
    """One day (288 bins) over a random 18-PoP backbone: p = 324."""
    network = random_backbone(18, seed=3)
    dataset = generate_abilene_dataset(DatasetConfig(weeks=1.0 / 7.0),
                                       seed=21, network=network)
    assert dataset.series.n_bins < dataset.series.n_od_pairs == 324
    return dataset.series


@pytest.fixture(scope="module")
def short_config():
    return StreamingConfig(min_train_bins=96, recalibrate_every_bins=32)


def test_old_scatter_detector_checkpoint_finishes_identically(
        short_series, short_config):
    chunks = list(chunk_series(short_series, CHUNK))
    whole = stream_detect(iter(chunks), short_config)
    first = StreamingNetworkDetector(short_config)
    for chunk in chunks[:4]:
        first.process_chunk(chunk)
    # Rewrite each engine's kept bins as the scatter an older build saved.
    state = first.state_dict()
    arrays = dict(state["arrays"])
    for key in [k for k in arrays if k.endswith("engine__rows")]:
        prefix = key[:-len("rows")]
        centered = arrays.pop(key) - arrays[prefix + "mean"]
        del arrays[prefix + "chunk_bins"]
        arrays[prefix + "scatter"] = centered.T @ centered
    old = StreamingNetworkDetector.from_state(state["meta"], arrays)
    for traffic_type in short_series.traffic_types:
        assert not old.detector(traffic_type).engine.holds_bins
    for chunk in chunks[4:]:
        old.process_chunk(chunk)
    parity = event_parity(whole.events, old.finish().events)
    assert parity.exact, parity.to_dict()
