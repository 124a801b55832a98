"""Merge-parity tests for the column-shard moments behind the parallel driver.

The repo's core guarantee — exact parity with the single-process reference
— extended to sharded moments: the coordinator's scatter proxy, reading
the assembled row blocks of ``K`` :class:`ShardWorkerMoments`, must behave
like a single :class:`OnlinePCA` behind the streaming detector and
reproduce the single-engine ``stream_detect`` event list exactly, for any
shard count.  The shards run in this process here (no worker processes),
so every shard count is cheap to check.
"""

import numpy as np
import pytest

from repro.evaluation import event_parity, report_parity
from repro.flows.timeseries import TrafficType
from repro.streaming import (
    LowRankEigenTracker,
    OnlinePCA,
    ShardWorkerMoments,
    StreamingConfig,
    StreamingNetworkDetector,
    StreamingSubspaceDetector,
    chunk_series,
    make_engine,
    partition_columns,
    stream_detect,
)
from repro.streaming.parallel import _ShardScatterProxy


@pytest.fixture(scope="module")
def live_config():
    return StreamingConfig(min_train_bins=128, recalibrate_every_bins=32)


@pytest.fixture(scope="module")
def baseline_report(small_dataset, live_config):
    """Single-process, single-engine live run — the parity reference."""
    return stream_detect(chunk_series(small_dataset.series, 48), live_config)


class _InProcessShards:
    """``K`` shard workers' moments per type, held in this process.

    Offers the one pool method the coordinator proxy calls
    (``collect_scatter``); :meth:`feed` plays the part of the chunk bus.
    """

    def __init__(self, n_shards, forgetting=1.0):
        self.n_shards = n_shards
        self.forgetting = forgetting
        self.workers = {}
        self.n_collects = 0

    def feed(self, type_value, matrix):
        workers = self.workers.setdefault(type_value, [
            ShardWorkerMoments(i, self.n_shards, self.forgetting)
            for i in range(self.n_shards)])
        for worker in workers:
            worker.partial_fit(matrix)

    def feed_chunk(self, chunk):
        for traffic_type in chunk.traffic_types:
            self.feed(traffic_type.value, chunk.matrix(traffic_type))

    def collect_scatter(self, type_value, n_features):
        self.n_collects += 1
        scatter = np.empty((n_features, n_features))
        for worker in self.workers[type_value]:
            if worker.n_features is not None:
                scatter[worker.columns, :] = worker.block
        return scatter

    def proxy(self, type_value="bytes"):
        return _ShardScatterProxy(self.forgetting, type_value, self)

    def fit(self, matrix, type_value="bytes"):
        """A proxy (plus its workers) that ingested *matrix*."""
        proxy = self.proxy(type_value)
        self.feed(type_value, matrix)
        proxy.partial_fit(matrix)
        return proxy


class TestShardedEngineApi:
    def test_make_engine_selects_by_config(self):
        assert isinstance(make_engine(StreamingConfig()), OnlinePCA)
        engine = make_engine(StreamingConfig(engine="lowrank",
                                             forgetting=0.99))
        assert isinstance(engine, LowRankEigenTracker)
        assert engine.forgetting == 0.99
        # Column sharding is the parallel driver's business, not a config
        # knob of the single-process engine.
        with pytest.raises(TypeError):
            StreamingConfig(n_shards=4)

    def test_accessors_mirror_online_pca(self, rng):
        matrix = rng.normal(size=(60, 9)) + 10.0
        single = OnlinePCA().partial_fit(matrix)
        shards = _InProcessShards(3)
        proxy = shards.fit(matrix)
        assert proxy.n_features == single.n_features == 9
        assert proxy.n_bins_seen == single.n_bins_seen == 60
        assert proxy.rank == single.rank
        assert proxy.n_samples == single.n_samples
        np.testing.assert_array_equal(proxy.mean, single.mean)
        # Every worker replays the identical scalar arithmetic.
        for worker in shards.workers["bytes"]:
            assert worker.n_bins_seen == single.n_bins_seen
            assert worker.weight_sum == single.weight_sum
            np.testing.assert_array_equal(worker.mean, single.mean)
        np.testing.assert_array_equal(np.sort(np.concatenate(
            [w.columns for w in shards.workers["bytes"]])), np.arange(9))
        with pytest.raises(ValueError):
            proxy.mean[0] = 1.0  # read-only view, like OnlinePCA.mean

    def test_eigenbasis_matches_and_is_cached(self, rng):
        matrix = rng.normal(size=(80, 7)) @ rng.normal(size=(7, 7)) + 5.0
        single = OnlinePCA().partial_fit(matrix)
        shards = _InProcessShards(2)
        proxy = shards.fit(matrix)
        np.testing.assert_allclose(proxy.eigenbasis()[0],
                                   single.eigenbasis()[0],
                                   rtol=1e-9, atol=1e-9)
        first = proxy.eigenbasis()[0]
        assert proxy.eigenbasis()[0] is first
        assert shards.n_collects == 1  # one collect barrier per refresh
        shards.feed("bytes", matrix[:5])
        proxy.partial_fit(matrix[:5])
        assert proxy.eigenbasis()[0] is not first
        assert shards.n_collects == 2

    def test_merged_returns_equivalent_single_engine(self, rng):
        # The proxy serializes as flat OnlinePCA moments: checkpointing a
        # distributed run is checkpointing the merged state.
        matrix = rng.normal(size=(50, 8)) + 3.0
        single = OnlinePCA().partial_fit(matrix)
        merged = OnlinePCA.from_state(**_InProcessShards(4).fit(matrix)
                                      .state_dict())
        np.testing.assert_allclose(merged.covariance(), single.covariance(),
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(merged.mean, single.mean)
        assert merged.n_bins_seen == single.n_bins_seen
        assert merged.weight_sum == single.weight_sum

    def test_errors_before_data(self):
        proxy = _InProcessShards(2).proxy()
        assert proxy.n_features is None
        assert proxy.rank == 0
        with pytest.raises(ValueError):
            proxy.covariance()
        with pytest.raises(ValueError):
            _ = proxy.mean
        worker = ShardWorkerMoments(0, 2)
        assert worker.columns.size == 0
        with pytest.raises(ValueError):
            _ = worker.block
        with pytest.raises(NotImplementedError):
            worker.covariance()

    def test_state_roundtrip_is_bitwise(self, rng):
        # Restart path: workers seeded from the merged state reassemble
        # the identical scatter and continue on the identical trajectory.
        matrix = rng.normal(size=(70, 11)) + 8.0
        shards = _InProcessShards(3, forgetting=0.995)
        proxy = shards.proxy()
        for start in range(0, 60, 20):
            shards.feed("bytes", matrix[start:start + 20])
            proxy.partial_fit(matrix[start:start + 20])
        state = proxy.state_dict()
        mean, scatter = state["arrays"]["mean"], state["arrays"]["scatter"]
        seeded = [ShardWorkerMoments.from_seed(
            i, 3, 0.995, state["meta"], mean, scatter[columns, :])
            for i, columns in enumerate(partition_columns(11, 3))]
        for original, restored in zip(shards.workers["bytes"], seeded):
            np.testing.assert_array_equal(restored.block, original.block)
            assert restored.weight_sum == original.weight_sum
            original.partial_fit(matrix[60:])
            restored.partial_fit(matrix[60:])
            np.testing.assert_array_equal(restored.block, original.block)
            np.testing.assert_array_equal(restored.mean, original.mean)


class TestShardedRunParity:
    @pytest.mark.parametrize("n_shards", [2, 4, 7])
    def test_sharded_live_run_reproduces_event_list(
            self, small_dataset, live_config, baseline_report, n_shards):
        shards = _InProcessShards(n_shards)
        network = StreamingNetworkDetector(
            live_config, engine_factory=lambda t: shards.proxy(t.value))
        for chunk in chunk_series(small_dataset.series, 48):
            shards.feed_chunk(chunk)
            network.process_chunk(chunk)
        sharded = network.finish()
        parity = event_parity(baseline_report.events, sharded.events)
        assert parity.exact, parity.to_dict()
        full = report_parity(baseline_report, sharded)
        assert all(full["equal"].values()), full["equal"]

    def test_sharded_detector_snapshot_matches_single(self, small_dataset):
        matrix = small_dataset.series.matrix(TrafficType.BYTES)
        shards = _InProcessShards(4)
        single = StreamingSubspaceDetector(StreamingConfig())
        sharded = StreamingSubspaceDetector(StreamingConfig(),
                                            engine=shards.proxy())
        single.process_chunk(matrix)
        shards.feed("bytes", matrix)
        sharded.process_chunk(matrix)
        np.testing.assert_allclose(sharded.snapshot.eigenvalues,
                                   single.snapshot.eigenvalues,
                                   rtol=1e-9, atol=1e-9)
        assert sharded.snapshot.limits.spe == \
            pytest.approx(single.snapshot.limits.spe, rel=1e-9)
        assert sharded.snapshot.limits.t2 == \
            pytest.approx(single.snapshot.limits.t2, rel=1e-12)
        assert sharded.snapshot.n_samples == single.snapshot.n_samples
