"""Parity and robustness tests for the multi-process shard driver.

The driver may only change wall-clock time: its report (events, raw
detections, counters) must be identical to the single-process
``stream_detect`` run, for any worker count and queue depth.
"""

import dataclasses
import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

from repro.evaluation import event_parity, report_parity
from repro.flows.timeseries import TrafficType
from repro.streaming import (
    ChunkedSeriesSource,
    ShardWorkerMoments,
    StreamingConfig,
    StreamingNetworkDetector,
    StreamingReport,
    TrafficChunk,
    chunk_series,
    parallel_stream_detect,
    stream_detect,
)
from repro.streaming import parallel

CHUNK = 48


@pytest.fixture(scope="module")
def live_config():
    return StreamingConfig(min_train_bins=128, recalibrate_every_bins=32)


@pytest.fixture(scope="module")
def baseline_report(small_dataset, live_config):
    return stream_detect(chunk_series(small_dataset.series, CHUNK),
                         live_config)


class TestParallelParity:
    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_worker_counts_reproduce_event_list(
            self, small_dataset, live_config, baseline_report, n_workers):
        # Events handed to on_events as they close are the report's events.
        handed = []
        report = parallel_stream_detect(
            ChunkedSeriesSource(small_dataset.series, CHUNK), live_config,
            n_workers=n_workers, on_events=handed.extend)
        parity = event_parity(baseline_report.events, report.events)
        assert parity.exact, parity.to_dict()
        assert event_parity(report.events, handed).exact
        full = report_parity(baseline_report, report)
        assert all(full["equal"].values()), full["equal"]

    def test_minimal_queue_depth_backpressure(self, small_dataset,
                                              live_config, baseline_report):
        report = parallel_stream_detect(
            chunk_series(small_dataset.series, CHUNK), live_config,
            n_workers=3, queue_depth=1)
        assert event_parity(baseline_report.events, report.events).exact

    def test_single_traffic_type_subset(self, small_dataset, live_config):
        single = stream_detect(chunk_series(small_dataset.series, CHUNK),
                               live_config,
                               traffic_types=[TrafficType.BYTES])
        report = parallel_stream_detect(
            chunk_series(small_dataset.series, CHUNK), live_config,
            traffic_types=[TrafficType.BYTES], n_workers=2)
        assert event_parity(single.events, report.events).exact
        assert set(report.detections) <= {TrafficType.BYTES}

    def test_duplicate_traffic_types_are_deduped(self, small_dataset,
                                                 live_config):
        # Regression: a duplicated type must not fold chunks twice into one
        # detector's moments.
        single = stream_detect(chunk_series(small_dataset.series, CHUNK),
                               live_config,
                               traffic_types=[TrafficType.BYTES])
        report = parallel_stream_detect(
            chunk_series(small_dataset.series, CHUNK), live_config,
            traffic_types=[TrafficType.BYTES, TrafficType.BYTES], n_workers=2)
        assert event_parity(single.events, report.events).exact


class TestShardParallelParity:
    """K workers each own a column shard of every detector."""

    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_shard_worker_counts_reproduce_event_list(
            self, small_dataset, live_config, baseline_report, n_workers):
        report = parallel_stream_detect(
            chunk_series(small_dataset.series, CHUNK), live_config,
            n_workers=n_workers)
        parity = event_parity(baseline_report.events, report.events)
        assert parity.exact, parity.to_dict()
        full = report_parity(baseline_report, report)
        assert all(full["equal"].values()), full["equal"]

    def test_tight_bus_and_queue_backpressure(self, small_dataset,
                                              live_config, baseline_report):
        config = dataclasses.replace(live_config, bus_slots=2,
                                     poll_seconds=0.05)
        report = parallel_stream_detect(
            chunk_series(small_dataset.series, CHUNK), config,
            n_workers=2, queue_depth=1)
        assert event_parity(baseline_report.events, report.events).exact

    def test_more_workers_than_od_flows(self, live_config):
        # p = 4 OD flows, 6 workers: trailing shards own zero columns.
        rng = np.random.default_rng(3)
        chunks = [TrafficChunk(start_bin=32 * i, matrices={
            TrafficType.BYTES: rng.random((32, 4)) + 1.0})
            for i in range(8)]
        config = StreamingConfig(min_train_bins=64, recalibrate_every_bins=32)
        baseline = stream_detect(chunks, config)
        report = parallel_stream_detect(chunks, config, n_workers=6)
        full = report_parity(baseline, report)
        assert all(full["equal"].values()), full["equal"]

    def test_lowrank_engine_is_rejected(self, live_config):
        config = StreamingConfig(engine="lowrank")
        with pytest.raises(ValueError, match="exact scatter"):
            parallel_stream_detect(iter(()), config)

    def test_distributed_checkpoint_restores_as_flat_detector(
            self, small_dataset, live_config, baseline_report, tmp_path):
        # Checkpoint the distributed run mid-stream; the checkpoint is the
        # *merged* state, so an ordinary single-process detector resumes
        # from it and finishes the stream with the identical event list.
        chunks = list(chunk_series(small_dataset.series, CHUNK))
        every = 5
        parallel_stream_detect(iter(chunks), live_config, n_workers=2,
                               checkpoint_dir=tmp_path,
                               checkpoint_every_chunks=every)
        restored = StreamingNetworkDetector.restore(tmp_path)
        resume_from = (len(chunks) // every) * every
        assert restored.report.n_chunks_processed == resume_from
        for chunk in chunks[resume_from:]:
            restored.process_chunk(chunk)
        report = restored.finish()
        parity = event_parity(baseline_report.events, report.events)
        assert parity.exact, parity.to_dict()
        full = report_parity(baseline_report, report)
        assert all(full["equal"].values()), full["equal"]

    def test_checkpoint_arguments_go_together(self, live_config, tmp_path):
        with pytest.raises(ValueError, match="go together"):
            parallel_stream_detect(iter(()), live_config,
                                   checkpoint_dir=tmp_path)
        with pytest.raises(ValueError, match="go together"):
            parallel_stream_detect(iter(()), live_config,
                                   checkpoint_every_chunks=2)


def _tiny_chunks(n_chunks=12, n_bins=16, n_flows=9, start=0):
    rng = np.random.default_rng(42)
    return [TrafficChunk(start_bin=start + n_bins * i, matrices={
        TrafficType.BYTES: rng.random((n_bins, n_flows)) + 1.0})
        for i in range(n_chunks)]


def _crashing_worker(*args):
    os._exit(3)


class _ExplodingMoments:
    def __init__(self, *args, **kwargs):
        raise RuntimeError("instrumented crash before any chunk")


class _MomentsFailingOnSecondChunk(ShardWorkerMoments):
    def partial_fit(self, chunk):
        if self.n_bins_seen:
            raise RuntimeError("instrumented crash on the second chunk")
        return super().partial_fit(chunk)


class _HoldingQueue:
    """A worker input queue that stops serving after *hold_after* gets.

    The worker then blocks until *release* is set, leaving the queue for
    the driver to fill up behind it.
    """

    def __init__(self, queue, hold_after, release):
        self._queue = queue
        self._hold_after = hold_after
        self._release = release
        self._served = 0

    def get(self):
        if self._served == self._hold_after:
            self._release.wait()
        self._served += 1
        return self._queue.get()


class TestWorkerFailurePaths:
    """Crash propagation, backpressure, source failures, clean stops."""

    fast = StreamingConfig(min_train_bins=64, poll_seconds=0.05)

    @pytest.mark.parametrize(
        "target", [pytest.param("_shard_worker", id="shard-_shard_worker")])
    def test_worker_crash_propagates_promptly(self, monkeypatch, target):
        monkeypatch.setattr(parallel, target, _crashing_worker)
        started = time.monotonic()
        with pytest.raises(RuntimeError,
                           match="exit code 3|exited before the end"):
            parallel_stream_detect(_tiny_chunks(), self.fast, n_workers=2)
        # Sentinel wakeup, not the old 1 s poll: the death is noticed fast.
        assert time.monotonic() - started < 10.0
        assert multiprocessing.active_children() == []

    def test_bounded_queues_throttle_a_slow_worker(self, monkeypatch):
        gate = multiprocessing.Event()
        real_worker = parallel._shard_worker

        def gated_worker(*args):
            gate.wait()
            real_worker(*args)

        monkeypatch.setattr(parallel, "_shard_worker", gated_worker)
        config = dataclasses.replace(self.fast, bus_slots=2)
        pulled = []

        def counting_chunks():
            for chunk in _tiny_chunks():
                pulled.append(chunk.start_bin)
                yield chunk

        result = {}
        thread = threading.Thread(
            target=lambda: result.update(report=parallel_stream_detect(
                counting_chunks(), config, n_workers=2, queue_depth=1)),
            daemon=True)
        thread.start()
        time.sleep(1.0)
        # With the workers gated shut, the driver must be blocked by the
        # ring/queue bound — not buffering the whole stream ahead.
        assert thread.is_alive()
        assert len(pulled) < 12
        gate.set()
        thread.join(timeout=120)
        assert not thread.is_alive()
        assert result["report"].n_chunks_processed == 12

    @pytest.mark.parametrize("n_workers", [pytest.param(2, id="shard")])
    def test_source_failure_shuts_workers_down(self, n_workers):
        def failing_source():
            for chunk in _tiny_chunks(n_chunks=3):
                yield chunk
            raise ValueError("source exploded")

        with pytest.raises(ValueError, match="source exploded"):
            parallel_stream_detect(failing_source(), self.fast,
                                   n_workers=n_workers)
        assert multiprocessing.active_children() == []

    def test_stopped_worker_exit_during_stop_broadcast(self, monkeypatch):
        # Regression for the stop-broadcast race: worker 0 takes its _STOP
        # and exits cleanly while the broadcast still waits on worker 1's
        # full queue.  Worker 1 holds its queue full until the driver has
        # checked liveness with worker 0 already gone, so the interleaving
        # happens on every run.
        chunks = _tiny_chunks(n_chunks=4)
        release = multiprocessing.Event()
        real_worker = parallel._shard_worker

        def holding_worker(shard_index, n_shards, config, bus_handle,
                           in_queue, out_queue, seed=None):
            if shard_index == 1:
                # Serve every chunk but the last, then hold the last chunk
                # message in the queue (depth 1), so _STOP cannot enter.
                in_queue = _HoldingQueue(in_queue, len(chunks) - 1, release)
            real_worker(shard_index, n_shards, config, bus_handle, in_queue,
                        out_queue, seed)

        def release_after_peer_exit_seen(chunk_index, pool):
            if chunk_index:
                return
            real_check = pool.check_alive

            def check_alive(strict=False):
                real_check(strict=strict)
                if not pool.processes[0].is_alive():
                    release.set()

            pool.check_alive = check_alive

        monkeypatch.setattr(parallel, "_shard_worker", holding_worker)
        # No calibration (min_train_bins beyond the stream): no collect
        # barrier needs worker 1 while it holds.
        config = StreamingConfig(min_train_bins=1024, poll_seconds=0.05)
        report = parallel_stream_detect(
            chunks, config, n_workers=2, queue_depth=1,
            fault_hook=release_after_peer_exit_seen)
        assert release.is_set()
        assert report.n_chunks_processed == len(chunks)
        assert multiprocessing.active_children() == []


class TestParallelEdgeCases:
    def test_empty_stream(self, live_config):
        report = parallel_stream_detect(iter(()), live_config)
        assert isinstance(report, StreamingReport)
        assert report.n_chunks_processed == 0
        assert report.events == []

    def test_validation(self, live_config):
        with pytest.raises(ValueError):
            parallel_stream_detect(iter(()), live_config, queue_depth=0)
        with pytest.raises(ValueError):
            parallel_stream_detect(iter(()), live_config, n_workers=0)
        with pytest.raises(ValueError):
            parallel_stream_detect(iter(()), StreamingConfig(identify=False))

    def test_worker_failure_propagates(self, live_config, monkeypatch):
        monkeypatch.setattr(parallel, "ShardWorkerMoments",
                            _MomentsFailingOnSecondChunk)
        with pytest.raises(RuntimeError,
                           match="streaming worker failed") as excinfo:
            parallel_stream_detect(_tiny_chunks(), live_config, n_workers=1)
        # The forwarded traceback identifies the failing worker and how far
        # it got, so a crash in a long run is attributable from the message.
        text = str(excinfo.value)
        assert "worker shard-0" in text
        assert "shard 0/1" in text
        assert "last-processed chunk 0" in text

    def test_worker_failure_before_any_chunk(self, live_config, monkeypatch):
        monkeypatch.setattr(parallel, "ShardWorkerMoments", _ExplodingMoments)
        rng = np.random.default_rng(0)
        chunk = TrafficChunk(start_bin=0, matrices={
            TrafficType.BYTES: rng.random((16, 9)) + 1.0})
        with pytest.raises(RuntimeError,
                           match="streaming worker failed") as excinfo:
            parallel_stream_detect([chunk], live_config, n_workers=1)
        assert "last-processed chunk none" in str(excinfo.value)


class TestWorkerSupervisor:
    def test_policy_validation(self, live_config):
        from repro.streaming import WorkerSupervisor
        with pytest.raises(ValueError):
            WorkerSupervisor(live_config, [], max_restarts=-1)
        with pytest.raises(ValueError):
            WorkerSupervisor(live_config, [], backoff_factor=0.5)
        with pytest.raises(ValueError):
            WorkerSupervisor(live_config, [], jitter=-0.1)

    def test_backoff_schedule_is_seeded_and_exponential(self, live_config):
        from repro.streaming import WorkerSupervisor

        def schedule(seed):
            supervisor = WorkerSupervisor(
                live_config, [],
                backoff_base=0.1, backoff_factor=2.0, jitter=0.5, seed=seed)
            return [supervisor._backoff_seconds(k) for k in range(4)]

        first = schedule(42)
        assert first == schedule(42)
        assert first != schedule(43)
        for attempt, delay in enumerate(first):
            base = 0.1 * 2.0 ** attempt
            assert base <= delay <= base * 1.5
        assert first[0] < first[1] < first[2] < first[3]

    def test_zero_budget_reproduces_fail_fast(self, small_dataset,
                                              live_config, tmp_path):
        from repro.faults import FaultPlan
        from repro.streaming import WorkerSupervisor
        source = ChunkedSeriesSource(small_dataset.series, CHUNK)

        plan = FaultPlan().kill_worker(at_chunk=3, worker=0)
        supervisor = WorkerSupervisor(
            live_config, source, n_workers=2,
            checkpoint_dir=tmp_path / "ckpt",
            checkpoint_every_chunks=2, max_restarts=0,
            sleep=lambda seconds: None, fault_hook=plan.hook)
        with pytest.raises(RuntimeError):
            supervisor.run()
        assert supervisor.restarts == 0
        assert supervisor.degraded is False

    def test_restart_without_checkpoints_replays_all(
            self, small_dataset, live_config, baseline_report):
        from repro.faults import FaultPlan
        from repro.streaming import WorkerSupervisor
        resumed_at = []

        class RecordingSource(ChunkedSeriesSource):
            def resume(self, start_bin):
                resumed_at.append(start_bin)
                return super().resume(start_bin)

        plan = FaultPlan().kill_worker(at_chunk=3, worker=0)
        supervisor = WorkerSupervisor(
            live_config, RecordingSource(small_dataset.series, CHUNK),
            n_workers=2, max_restarts=1, backoff_base=0.0,
            sleep=lambda seconds: None, fault_hook=plan.hook)
        report = supervisor.run()
        assert supervisor.restarts == 1
        # No checkpoint directory: both attempts replay the full stream.
        assert resumed_at == [0, 0]
        parity = event_parity(baseline_report.events, report.events)
        assert parity.exact, parity.to_dict()


class TestShardWorkerSeeding:
    def test_from_seed_reconstructs_the_shard_block(self):
        from repro.streaming import ShardWorkerMoments, partition_columns
        from repro.streaming.online_pca import OnlinePCA
        rng = np.random.default_rng(5)
        data = rng.gamma(4.0, 25.0, size=(64, 10))
        flat = OnlinePCA()
        flat.partial_fit(data)
        state = flat.state_dict()
        scatter = state["arrays"]["scatter"]
        mean = state["arrays"]["mean"]
        n_shards = 3
        for shard_index, columns in enumerate(
                partition_columns(mean.size, n_shards)):
            block = scatter[columns, :]
            engine = ShardWorkerMoments.from_seed(
                shard_index, n_shards, 1.0, state["meta"], mean, block)
            np.testing.assert_array_equal(engine._shard.block, block)
            np.testing.assert_array_equal(engine._mean, mean)
            assert engine._weight_sum == flat._weight_sum
            assert engine._n_bins_seen == flat._n_bins_seen
            # Continuing the stream from the seed matches a worker that
            # saw the whole stream from the start.
            more = rng.gamma(4.0, 25.0, size=(32, 10))
            engine.partial_fit(more)
            scratch = ShardWorkerMoments(shard_index, n_shards)
            scratch.partial_fit(data)
            scratch.partial_fit(more)
            np.testing.assert_allclose(engine._shard.block,
                                       scratch._shard.block, rtol=1e-12)

    def test_from_seed_rejects_wrong_block_shape(self):
        from repro.streaming import ShardWorkerMoments
        from repro.streaming.online_pca import OnlinePCA
        flat = OnlinePCA()
        flat.partial_fit(np.random.default_rng(0).gamma(4.0, 25.0, size=(16, 10)))
        state = flat.state_dict()
        with pytest.raises(ValueError):
            ShardWorkerMoments.from_seed(
                0, 2, 1.0, state["meta"], state["arrays"]["mean"],
                state["arrays"]["scatter"])  # full scatter, not the block
