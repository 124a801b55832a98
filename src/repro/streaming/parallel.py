"""The multi-process streaming driver over the shared-memory chunk bus.

:func:`parallel_stream_detect` scales
:func:`~repro.streaming.pipeline.stream_detect` past one core by
**column sharding**: each worker process owns one column shard
(:func:`~repro.streaming.sharding.partition_columns`) of *every* per-type
detector and maintains its ``|cols| x p`` scatter row block
(:class:`~repro.streaming.sharding.ShardWorkerMoments`); the coordinator
keeps the cheap ``O(m p)`` scalar moments plus detection/fusion, and
assembles the worker blocks into the full scatter only at calibration time
(a collect barrier).  The heavy ``O(m p²)`` scatter GEMM — the throughput
cap — is split ``1/K`` across the ``K`` workers.  Chunk payloads move through the zero-copy
:class:`~repro.streaming.bus.ChunkBusWriter` ring (one serialize per chunk,
``K`` read-only views) instead of being pickled into every worker queue,
and the driver is bound by one rule: **it may only change wall-clock time,
never an event**.

Backpressure exists at two layers: every worker input queue is bounded
(``queue_depth`` control messages) and the bus ring itself blocks the
writer once ``config.bus_slots`` chunks are in flight — memory stays
``O(bus_slots)`` chunks no matter how slow a worker is.

Liveness: a blocked feed or drain waits on the workers' process
**sentinels** (:func:`multiprocessing.connection.wait`), so a dead worker
wakes the driver immediately; ``poll_seconds`` (a
:class:`~repro.streaming.config.StreamingConfig` knob) only caps how long
a fully idle wait sleeps between health re-checks.

Per-shard arithmetic is deterministic and workers do not interact, so the
only parallelism-visible effect is wall-clock time — enforced by
``tests/test_streaming_parallel.py`` against the single-process event list.
"""

from __future__ import annotations

import itertools
import multiprocessing
import multiprocessing.connection
import os
import queue as queue_module
import random
import time
import traceback
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.flows.timeseries import TrafficType
from repro.streaming.bus import ChunkBusReader, ChunkBusWriter, chunk_slot_bytes
from repro.streaming.config import StreamingConfig
from repro.streaming.online_pca import OnlinePCA, _MomentTracker
from repro.streaming.pipeline import (
    StreamingNetworkDetector,
    StreamingReport,
    _dedup_types,
)
from repro.streaming.sharding import ShardWorkerMoments, partition_columns
from repro.streaming.sources import TrafficChunk, as_chunk_source
from repro.telemetry import MetricsRegistry, Telemetry
from repro.utils.validation import require

__all__ = ["parallel_stream_detect", "WorkerSupervisor"]

#: Sentinel telling a worker its input stream ended.
_STOP = None
#: First element of a result tuple carrying a worker traceback.
_ERROR = "__error__"
#: First element of a result tuple carrying a worker's metrics registry
#: (shipped once per worker, after it saw ``_STOP``).
_TELEMETRY = "__telemetry__"
#: Message kinds of the worker control protocol.
_MSG_CHUNK = "chunk"
_MSG_COLLECT = "collect"
_BLOCKS = "__blocks__"


def _restricted_chunk(chunk: TrafficChunk,
                      types: Sequence[TrafficType]) -> TrafficChunk:
    """*chunk* narrowed to the analyzed types (no matrix copies)."""
    if list(chunk.matrices.keys()) == list(types):
        return chunk
    return TrafficChunk(start_bin=chunk.start_bin,
                        matrices={t: chunk.matrix(t) for t in types})


# --------------------------------------------------------------------- #
# worker loop
# --------------------------------------------------------------------- #
def _worker_error_text(label: str, detail: str, last_chunk) -> str:
    """The context header + traceback forwarded by a failed worker."""
    last = "none" if last_chunk is None else str(last_chunk)
    return (f"worker {label} ({detail}; last-processed chunk {last}):\n"
            + traceback.format_exc())


def _shard_worker(shard_index: int, n_shards: int, config: StreamingConfig,
                  bus_handle, in_queue, out_queue, seed=None) -> None:
    """Maintain this worker's column shard of every per-type engine.

    *seed* (restart path) maps each type to its checkpointed moments —
    scalar meta, full mean, and this shard's scatter row block — so a
    worker spawned by a supervisor restart resumes exactly where the last
    good checkpoint left off.
    """
    label = f"shard-{shard_index}"
    reader = ChunkBusReader(bus_handle)
    engines: Dict[str, ShardWorkerMoments] = {}
    if seed:
        for type_value, payload in seed.items():
            engines[type_value] = ShardWorkerMoments.from_seed(
                shard_index, n_shards, config.forgetting,
                payload["meta"], payload["mean"], payload["block"])
    telemetry = Telemetry.from_config(config, worker=label)
    last_chunk = None
    n_chunks = 0
    try:
        while True:
            message = in_queue.get()
            if message is _STOP:
                if telemetry is not None:
                    telemetry.close()
                    out_queue.put((_TELEMETRY, label,
                                   telemetry.registry.to_dict()))
                return
            kind = message[0]
            if kind == _MSG_CHUNK:
                descriptor = message[1]
                if telemetry is not None:
                    telemetry.begin_chunk(n_chunks)
                views = reader.map(descriptor)
                view = None
                try:
                    for type_value, view in views.items():
                        engine = engines.get(type_value)
                        if engine is None:
                            engine = ShardWorkerMoments(shard_index, n_shards,
                                                        config.forgetting)
                            engines[type_value] = engine
                        if telemetry is not None:
                            with telemetry.span("update", type=type_value):
                                engine.partial_fit(view)
                        else:
                            engine.partial_fit(view)
                finally:
                    views = view = None
                reader.release(descriptor)
                if telemetry is not None:
                    telemetry.registry.counter(
                        "worker_chunks", {"worker": label},
                        help="Chunks processed per worker").inc()
                    telemetry.end_chunk()
                last_chunk = n_chunks
                n_chunks += 1
            else:  # _MSG_COLLECT
                _, collect_id, type_value = message
                engine = engines.get(type_value)
                payload = (None if engine is None or engine.n_features is None
                           else (engine.columns, engine.block))
                out_queue.put((_BLOCKS, collect_id, shard_index, type_value,
                               payload))
    except BaseException:  # noqa: BLE001 - forwarded verbatim to the driver
        out_queue.put((_ERROR, _worker_error_text(
            label, f"shard {shard_index}/{n_shards}", last_chunk)))
        # Keep draining so the feeder's bounded put never blocks forever on
        # a full queue; the driver raises once it sees the _ERROR message
        # (an errored worker stops releasing bus slots, so a writer blocked
        # on the ring is woken by its alive_check seeing the error).
        while in_queue.get() is not _STOP:
            pass
    finally:
        try:
            reader.close()
        except BufferError:  # pragma: no cover - a live view on error paths
            pass


# --------------------------------------------------------------------- #
# worker pool
# --------------------------------------------------------------------- #
class _ShardWorkerPool:
    """Shard worker processes + bounded control queues + the chunk bus.

    One worker per column shard of every detector.  The pool owns the
    liveness/wakeup machinery of the driver: every blocking wait (queue
    put, result receive, bus-slot wait) is woken immediately by a dying
    worker's process sentinel instead of sleeping out a fixed poll
    interval, and every wake first surfaces any worker traceback sitting in
    the result queue.
    """

    def __init__(self, config: StreamingConfig, n_workers: int,
                 queue_depth: int, poll_seconds: float, context,
                 slot_bytes: int, seeds: Optional[List[Dict]] = None) -> None:
        self.n_workers = n_workers
        self.poll_seconds = poll_seconds
        self.bus = ChunkBusWriter(slot_bytes, config.bus_slots, n_workers,
                                  context)
        self.out_queue = context.Queue()
        self.in_queues = [context.Queue(maxsize=queue_depth)
                          for _ in range(n_workers)]
        # Non-error messages consumed while scanning for failures are
        # buffered here and served to receive() first, in arrival order.
        self._stray: deque = deque()
        # (worker label, registry dict) pairs shipped by workers after
        # _STOP; filled as messages pass through check_failure()/receive().
        self.telemetry_payloads: List[Tuple[str, Dict]] = []
        # Indices of the workers already handed _STOP: their clean exit is
        # legal even while the broadcast still waits on a slower peer.
        self._stopped: set = set()
        self._collect_id = 0
        handle = self.bus.handle()
        self.processes = [
            context.Process(target=_shard_worker, daemon=True, args=(
                i, n_workers, config, handle, self.in_queues[i],
                self.out_queue, seeds[i] if seeds is not None else None))
            for i in range(n_workers)
        ]
        for process in self.processes:
            process.start()

    # ---------------- liveness ---------------- #
    def _live_sentinels(self) -> List:
        return [p.sentinel for p in self.processes if p.is_alive()]

    def check_alive(self, strict: bool = False) -> None:
        """Raise if a worker died; *strict* also rejects clean exits.

        A clean (exit code 0) worker death is only legal after ``_STOP``;
        a feeder still delivering work treats it as a failure too — unless
        that worker was already sent ``_STOP`` by :meth:`send_stop`.
        """
        for index, process in enumerate(self.processes):
            if process.is_alive():
                continue
            if process.exitcode not in (0, None):
                raise RuntimeError(
                    f"streaming worker died with exit code {process.exitcode}")
            if strict and index not in self._stopped:
                raise RuntimeError(
                    "streaming worker exited before the end of the stream")

    def check_failure(self, strict: bool = False) -> None:
        """Surface a worker traceback or abnormal death without blocking."""
        while True:
            try:
                message = self.out_queue.get_nowait()
            except queue_module.Empty:
                break
            if message[0] == _ERROR:
                raise RuntimeError(f"streaming worker failed:\n{message[1]}")
            if message[0] == _TELEMETRY:
                self.telemetry_payloads.append((message[1], message[2]))
                continue
            self._stray.append(message)
        self.check_alive(strict=strict)

    # ---------------- sending ---------------- #
    def put(self, in_queue, item) -> None:
        """Bounded put that wakes on worker death instead of deadlocking."""
        while True:
            try:
                in_queue.put_nowait(item)
                return
            except queue_module.Full:
                # Sleep until a worker dies (sentinel) or the poll cadence
                # elapses, then surface failures and retry; the queue
                # draining has no event of its own, so the poll bounds the
                # retry latency for the healthy-but-slow case.
                multiprocessing.connection.wait(self._live_sentinels(),
                                                timeout=self.poll_seconds)
                self.check_failure(strict=True)

    def broadcast(self, item) -> None:
        for in_queue in self.in_queues:
            self.put(in_queue, item)

    def send_stop(self) -> None:
        # One queue at a time: while a put waits on a full queue, a peer
        # that already took its _STOP may exit, and that exit is clean.
        for index, in_queue in enumerate(self.in_queues):
            self.put(in_queue, _STOP)
            self._stopped.add(index)

    # ---------------- receiving ---------------- #
    def receive(self, block: bool):
        """One worker message, or ``None`` when non-blocking and idle.

        Raises the forwarded traceback of a failed worker.  Blocking waits
        listen on the result pipe *and* every live worker sentinel, so both
        data arrival and worker death wake the driver immediately.
        """
        if self._stray:
            return self._stray.popleft()
        reader = getattr(self.out_queue, "_reader", None)
        while True:
            try:
                message = self.out_queue.get_nowait()
            except queue_module.Empty:
                if not block:
                    return None
                if reader is None:  # pragma: no cover - platform fallback
                    try:
                        message = self.out_queue.get(timeout=self.poll_seconds)
                    except queue_module.Empty:
                        self.check_alive()
                        continue
                else:
                    ready = multiprocessing.connection.wait(
                        [reader] + self._live_sentinels(),
                        timeout=self.poll_seconds)
                    if reader not in ready:
                        # Timeout or a sentinel fired: re-check health,
                        # then retry the non-blocking get.
                        self.check_alive()
                    continue
            if message[0] == _ERROR:
                raise RuntimeError(f"streaming worker failed:\n{message[1]}")
            if message[0] == _TELEMETRY:
                self.telemetry_payloads.append((message[1], message[2]))
                continue
            return message

    def wait_for_telemetry(self) -> List[Tuple[str, Dict]]:
        """Every worker's shipped registry; call only after :meth:`send_stop`.

        Workers ship their registry as the last message before exiting, so
        this blocks until all ``n_workers`` payloads arrived (surfacing any
        worker failure meanwhile).  Data messages encountered on the way
        are preserved for :meth:`receive`.
        """
        reader = getattr(self.out_queue, "_reader", None)
        while len(self.telemetry_payloads) < self.n_workers:
            message = self.receive(block=False)
            if message is not None:
                self._stray.append(message)
                continue
            if len(self.telemetry_payloads) >= self.n_workers:
                break
            sentinels = self._live_sentinels()
            if not sentinels:
                # All workers are gone and the queue drained empty: a
                # missing payload would never arrive, so fail loudly
                # instead of spinning (one last sweep first — the feeder
                # flushes before exit, but give the pipe a poll's grace).
                if self.receive(block=False) is None and \
                        len(self.telemetry_payloads) < self.n_workers:
                    raise RuntimeError(
                        "streaming workers exited without shipping "
                        "telemetry registries")
                continue
            if reader is None:  # pragma: no cover - platform fallback
                multiprocessing.connection.wait(sentinels,
                                                timeout=self.poll_seconds)
            else:
                multiprocessing.connection.wait(
                    [reader] + sentinels, timeout=self.poll_seconds)
            self.check_alive()
        return list(self.telemetry_payloads)

    # ---------------- teardown ---------------- #
    def publish(self, chunk: TrafficChunk):
        """Publish *chunk* on the bus, surfacing worker failures meanwhile."""
        return self.bus.publish(
            chunk,
            alive_check=lambda: self.check_failure(strict=True),
            poll_seconds=self.poll_seconds)

    def shutdown(self, force: bool = False) -> None:
        try:
            for process in self.processes:
                if force and process.is_alive():
                    process.terminate()
                process.join(timeout=30)
        finally:
            self.bus.close()


    def collect_scatter(self, type_value: str, n_features: int) -> np.ndarray:
        """Barrier-collect the assembled ``p x p`` scatter for one type.

        The collect message queues *behind* every chunk already sent, so
        the returned blocks cover exactly the bins the coordinator's scalar
        moments cover — the synchronization that makes calibration-time
        state identical to the single-process run.
        """
        self._collect_id += 1
        self.broadcast((_MSG_COLLECT, self._collect_id, type_value))
        scatter = np.empty((n_features, n_features))
        covered = 0
        pending = set(range(self.n_workers))
        while pending:
            message = self.receive(block=True)
            kind, collect_id, shard_index, received_type, payload = message
            require(kind == _BLOCKS and collect_id == self._collect_id
                    and received_type == type_value,
                    "out-of-order shard collect reply")
            pending.discard(shard_index)
            if payload is not None:
                columns, block = payload
                scatter[columns, :] = block
                covered += columns.size
        require(covered == n_features,
                "shard blocks do not cover every scatter row")
        return scatter


class _ShardScatterProxy(_MomentTracker):
    """Coordinator-side moment engine whose scatter rows live in workers.

    Maintains the exact ``_MomentTracker`` scalar arithmetic locally (mean,
    weights — ``O(m p)`` per chunk) while the ``O(m p²)`` scatter update
    happens remotely in the shard workers, which see the identical float64
    chunk through the bus.  :meth:`covariance` triggers a collect barrier
    that assembles the worker row blocks — the stack of the blocks is the
    single engine's scatter, so calibration (and therefore every event)
    matches the single-process run.

    Serializes as a plain :class:`OnlinePCA` state with the assembled
    scatter: **checkpointing a distributed run is checkpointing the merged
    state**, and the checkpoint restores into an ordinary single-process
    detector.
    """

    def __init__(self, forgetting: float, type_value: str,
                 pool: _ShardWorkerPool) -> None:
        super().__init__(forgetting)
        self._type_value = type_value
        self._pool = pool

    def _initialize_scatter(self, n_features: int) -> None:
        pass  # the scatter lives in the shard workers

    def _apply_scatter_update(self, centered, weights, delta, decay,
                              outer_coefficient) -> None:
        pass  # applied remotely by every shard worker from the bus view

    def _collect(self) -> np.ndarray:
        require(self._n_features is not None, "no data ingested yet")
        return self._pool.collect_scatter(self._type_value, self._n_features)

    def covariance(self) -> np.ndarray:
        require(self._weight_sum > 1.0,
                "need total weight > 1 for a sample covariance")
        return self._collect() / (self._weight_sum - 1.0)

    def state_dict(self) -> Dict[str, Dict]:
        """Merged (flat ``OnlinePCA``) state — one collect barrier."""
        arrays: Dict[str, np.ndarray] = {}
        if self._n_features is not None:
            arrays["mean"] = np.array(self._mean, dtype=float)
            arrays["scatter"] = self._collect()
        return {"meta": self._scalar_state(OnlinePCA.STATE_KIND),
                "arrays": arrays}


# --------------------------------------------------------------------- #
# driver
# --------------------------------------------------------------------- #
def parallel_stream_detect(
    source,
    config: StreamingConfig = StreamingConfig(),
    traffic_types: Optional[Sequence[TrafficType]] = None,
    n_workers: Optional[int] = None,
    queue_depth: int = 4,
    mp_context: Optional[str] = None,
    poll_seconds: Optional[float] = None,
    checkpoint_dir: Optional[Union[str, os.PathLike]] = None,
    checkpoint_every_chunks: Optional[int] = None,
    on_events=None,
    resume_from: Optional[StreamingNetworkDetector] = None,
    fault_hook: Optional[Callable[[int, "_ShardWorkerPool"], None]] = None,
) -> StreamingReport:
    """Multi-process live diagnosis over a chunk source.

    Parameters
    ----------
    source:
        The chunk stream — anything
        :func:`~repro.streaming.sources.as_chunk_source` accepts
        (consumed once, in order).  Chunks may shrink over
        the stream (a short tail chunk is fine) but must not grow: the bus
        ring is sized from the first chunk.
    config:
        Streaming configuration applied by every detector; also supplies
        the bus ring length (``bus_slots``) and the default *poll_seconds*.
        The moment engine must be ``"exact"``: the workers maintain the
        exact scatter.
    traffic_types:
        Types to analyze; defaults to the types of the first chunk.
    n_workers:
        Worker process count; defaults to the machine's CPU count (at
        least 2).  Workers beyond the OD-flow count own empty shards.
    queue_depth:
        Bound of every worker input queue, in control messages.
    mp_context:
        Optional :mod:`multiprocessing` start-method name (e.g. ``"spawn"``);
        the platform default is used when ``None``.
    poll_seconds:
        Idle liveness-poll cadence; defaults to ``config.poll_seconds``.
        Worker death wakes the driver immediately regardless.
    checkpoint_dir:
        When given, the coordinator writes a **merged**
        (single-process-equivalent) checkpoint of the distributed state
        there every *checkpoint_every_chunks* chunks — restorable by the
        ordinary :func:`~repro.streaming.checkpoint.load_checkpoint`.
    checkpoint_every_chunks:
        Checkpoint cadence in chunks (requires *checkpoint_dir*).
    on_events:
        Optional event hand-off hook, called on the coordinator with every
        batch of newly closed events (and the end-of-stream tail) — the
        same contract as :func:`~repro.streaming.pipeline.stream_detect`.
    resume_from:
        A restored flat
        :class:`~repro.streaming.pipeline.StreamingNetworkDetector` (from
        :func:`~repro.streaming.checkpoint.load_checkpoint`) whose state
        seeds the coordinator *and* every shard worker, so the run
        continues the checkpointed trajectory exactly.  *source* must then
        be the stream suffix starting at the checkpoint's resume bin —
        this is the :class:`WorkerSupervisor` restart path.
    fault_hook:
        Test-only injection point: called as ``fault_hook(chunk_index,
        pool)`` before each chunk is published (*chunk_index* is
        stream-global, counting any resumed prefix).  The seeded chaos
        harness (:mod:`repro.faults`) uses it to kill workers or stall the
        writer deterministically; production runs leave it ``None``.

    Returns
    -------
    StreamingReport
        Identical (events, detections, counters) to the single-process
        :func:`~repro.streaming.pipeline.stream_detect` on the same stream.
    """
    poll = config.poll_seconds if poll_seconds is None else float(poll_seconds)
    require(poll > 0.0, "poll_seconds must be positive")
    require(queue_depth >= 1, "queue_depth must be >= 1")
    require(n_workers is None or n_workers >= 1,
            "n_workers must be >= 1 when given")
    require(config.identify, "event fusion needs identified OD flows")
    require((checkpoint_dir is None) == (checkpoint_every_chunks is None),
            "checkpoint_dir and checkpoint_every_chunks go together")
    require(checkpoint_every_chunks is None or checkpoint_every_chunks >= 1,
            "checkpoint_every_chunks must be >= 1 when given")
    require(config.engine == "exact",
            "shard-parallel workers maintain the exact scatter; run "
            "low-rank engines single-process (or compress after the run "
            "via compress_engine)")

    iterator = iter(as_chunk_source(source))
    try:
        first = next(iterator)
    except StopIteration:
        return StreamingReport()
    if traffic_types is not None:
        types = _dedup_types(traffic_types)
    else:
        types = first.traffic_types
    require(len(types) >= 1, "at least one traffic type must be analyzed")
    iterator = itertools.chain([first], iterator)
    # The ring is sized from the first (largest) chunk's analyzed types.
    slot_bytes = chunk_slot_bytes(_restricted_chunk(first, types))

    context = multiprocessing.get_context(mp_context)
    workers = (n_workers if n_workers is not None
               else max(2, os.cpu_count() or 1))
    seeds = (None if resume_from is None
             else _shard_seeds(resume_from, types, workers))
    pool = _ShardWorkerPool(config, workers, queue_depth, poll, context,
                            slot_bytes, seeds=seeds)
    return _run_shards(iterator, types, config, pool, checkpoint_dir,
                           checkpoint_every_chunks, on_events=on_events,
                           resume_from=resume_from, fault_hook=fault_hook)


def _shard_seeds(restored: StreamingNetworkDetector,
                 types: List[TrafficType],
                 n_workers: int) -> List[Dict]:
    """Per-worker seed payloads cut from a restored flat checkpoint.

    Worker ``i`` receives, for every type the checkpoint covers, the flat
    engine's scalar meta + full mean and the ``partition_columns`` row
    block it owns — the same partition the live workers maintain, so the
    reassembled scatter continues the checkpointed one bit-for-bit.
    """
    seeds: List[Dict] = [{} for _ in range(n_workers)]
    for traffic_type in types:
        try:
            detector = restored.detector(traffic_type)
        except KeyError:
            continue
        engine = detector.engine
        if engine.n_features is None:
            continue
        state = engine.state_dict()
        mean = state["arrays"]["mean"]
        scatter = state["arrays"]["scatter"]
        partition = partition_columns(mean.size, n_workers)
        for i in range(n_workers):
            columns = (partition[i] if i < len(partition)
                       else np.empty(0, dtype=int))
            seeds[i][traffic_type.value] = {
                "meta": state["meta"], "mean": mean,
                "block": scatter[columns, :]}
    return seeds


def _adopt_scatter_proxies(network: StreamingNetworkDetector,
                           config: StreamingConfig,
                           types: List[TrafficType],
                           pool: _ShardWorkerPool) -> None:
    """Swap a restored network's flat engines for coordinator proxies.

    The proxy adopts the flat engine's scalars (mean, weights, bin count);
    its scatter rows already live in the freshly seeded shard workers, so
    the next collect barrier assembles exactly the checkpointed matrix.
    """
    for traffic_type in types:
        try:
            detector = network.detector(traffic_type)
        except KeyError:
            continue
        flat = detector.engine
        proxy = _ShardScatterProxy(config.forgetting, traffic_type.value,
                                   pool)
        if flat.n_features is not None:
            proxy._n_features = flat.n_features
            proxy._mean = np.array(flat.mean, dtype=float)
        proxy._weight_sum = flat.weight_sum
        proxy._weight_sq_sum = flat.weight_sq_sum
        proxy._n_bins_seen = flat.n_bins_seen
        detector._engine = proxy


def _run_shards(iterator, types: List[TrafficType],
                config: StreamingConfig, pool: _ShardWorkerPool,
                checkpoint_dir, checkpoint_every_chunks,
                on_events=None, resume_from=None,
                fault_hook=None) -> StreamingReport:
    # The whole single-process pipeline — calibration cadence, detection,
    # identification, in-order fusion — runs unchanged inside this
    # coordinator-owned network detector; only the engines differ, farming
    # the scatter out to the shard workers.
    if resume_from is not None:
        network = resume_from
        _adopt_scatter_proxies(network, config, types, pool)
        network.on_events = on_events
        network._engine_factory = lambda t: _ShardScatterProxy(
            config.forgetting, t.value, pool)
    else:
        network = StreamingNetworkDetector(
            config, types,
            engine_factory=lambda t: _ShardScatterProxy(config.forgetting,
                                                        t.value, pool),
            on_events=on_events)
    chunk_offset = network.report.n_chunks_processed
    telemetry = network.telemetry
    if telemetry is not None:
        pool.bus.bind_telemetry(telemetry)
    try:
        for chunk_index, chunk in enumerate(iterator):
            if fault_hook is not None:
                fault_hook(chunk_offset + chunk_index, pool)
            narrowed = _restricted_chunk(chunk, types)
            if telemetry is not None:
                # The coordinator owns this chunk's trace; process_chunk
                # sees the open chunk and does not begin its own.
                telemetry.begin_chunk(chunk_index)
                with telemetry.span("ingest"):
                    descriptor = pool.publish(narrowed)
                    pool.broadcast((_MSG_CHUNK, descriptor))
            else:
                descriptor = pool.publish(narrowed)
                pool.broadcast((_MSG_CHUNK, descriptor))
            # Scalar moments + (collect-barrier) calibration + detection.
            network.process_chunk(narrowed)
            if telemetry is not None:
                telemetry.end_chunk()
            pool.check_failure(strict=True)
            if (checkpoint_every_chunks is not None
                    and (chunk_index + 1) % checkpoint_every_chunks == 0):
                network.save(checkpoint_dir)
        pool.send_stop()
        if telemetry is not None:
            # Fold the shard workers' registries (per-worker chunk counts,
            # remote update-stage timings) into the coordinator's before
            # finish() writes the final merged snapshot.
            for _, payload in pool.wait_for_telemetry():
                telemetry.merge_registry(payload)
        pool.shutdown()
        # A worker that failed after the last collect barrier left only its
        # traceback in the result queue: surface it instead of finishing.
        pool.check_failure()
    except BaseException:
        pool.shutdown(force=True)
        raise
    return network.finish()


# --------------------------------------------------------------------- #
# supervision
# --------------------------------------------------------------------- #
class WorkerSupervisor:
    """Restart a parallel run from its last good checkpoint on worker death.

    The distributed driver is fail-fast by construction: a dead worker
    raises :class:`RuntimeError` and tears the whole attempt down (a shard
    worker's scatter row block dies with its process, so the attempt — not
    the single worker — is the recoverable unit).  This supervisor wraps
    :func:`parallel_stream_detect` in a bounded restart loop:

    * on failure it sleeps an exponential backoff with seeded jitter (the
      same discipline as the alert dispatcher's retry policy), reloads the
      newest checkpoint generation that verifies
      (:func:`~repro.streaming.checkpoint.load_checkpoint` with
      ``fallback=True``), and replays the stream suffix from the
      checkpoint's resume bin through ``source.resume(...)``;
    * restored shard workers are **seeded** with their checkpointed
      scatter row blocks at spawn, so the resumed run continues the exact
      numerical trajectory — the final report (whose prefix rides inside
      the checkpoint) is identical to an undisturbed run's, the invariant
      ``tests/test_chaos.py`` enforces;
    * once *max_restarts* is exhausted the original fail-fast
      :class:`RuntimeError` escalates to the caller.

    Without a *checkpoint_dir* there is nothing to resume from, so every
    restart replays from the stream start — correct, just slower;
    downstream sinks absorb the re-emitted events through the idempotent
    event store.

    Restart activity is visible in :attr:`registry` (and therefore in
    :class:`~repro.telemetry.health.HealthSnapshot` /
    ``prometheus_exposition``): the ``worker_restarts`` counter, the
    ``degraded`` gauge (1 once any restart happened), and the
    ``checkpoint_fallbacks`` / ``checkpoints_quarantined`` counters of the
    fallback loads.

    Parameters
    ----------
    config, traffic_types, n_workers, queue_depth, mp_context,
    poll_seconds, checkpoint_dir, checkpoint_every_chunks, on_events:
        Forwarded to :func:`parallel_stream_detect` on every attempt.
    source:
        The resumable chunk stream — anything
        :func:`~repro.streaming.sources.as_chunk_source` accepts.  Each
        attempt iterates ``source.resume(resume_bin)``, so the source must
        support suffix replay (every provided source does; a plain
        iterable only survives restarts from bin 0 if it is re-iterable).
    max_restarts:
        Restart budget; ``0`` reproduces the bare fail-fast behavior.
    backoff_base, backoff_factor, jitter, sleep, seed:
        The retry discipline: restart ``k`` (0-based) sleeps
        ``backoff_base * backoff_factor**k``, scaled by ``1 + jitter *
        U[0, 1)`` from a dedicated ``random.Random(seed)``; *sleep* is
        injectable so tests run instantly and deterministically.
    registry:
        Optional :class:`~repro.telemetry.MetricsRegistry` to count into;
        a fresh one is created (and exposed as :attr:`registry`) if omitted.
    fault_hook:
        Forwarded to :func:`parallel_stream_detect` — the chaos harness's
        deterministic injection point.
    """

    def __init__(self, config: StreamingConfig, source=None,
                 traffic_types: Optional[Sequence[TrafficType]] = None,
                 n_workers: Optional[int] = None, queue_depth: int = 4,
                 mp_context: Optional[str] = None,
                 poll_seconds: Optional[float] = None,
                 checkpoint_dir: Optional[Union[str, os.PathLike]] = None,
                 checkpoint_every_chunks: Optional[int] = None,
                 on_events=None, max_restarts: int = 3,
                 backoff_base: float = 0.05, backoff_factor: float = 2.0,
                 jitter: float = 0.1, sleep=time.sleep, seed: int = 0,
                 registry: Optional[MetricsRegistry] = None,
                 fault_hook=None) -> None:
        require(max_restarts >= 0, "max_restarts must be >= 0")
        require(backoff_base >= 0.0, "backoff_base must be >= 0")
        require(backoff_factor >= 1.0, "backoff_factor must be >= 1")
        require(jitter >= 0.0, "jitter must be >= 0")
        require(source is not None, "source is required")
        self._config = config
        self._source = as_chunk_source(source)
        self._traffic_types = traffic_types
        self._n_workers = n_workers
        self._queue_depth = queue_depth
        self._mp_context = mp_context
        self._poll_seconds = poll_seconds
        self._checkpoint_dir = checkpoint_dir
        self._checkpoint_every_chunks = checkpoint_every_chunks
        self._on_events = on_events
        self._max_restarts = int(max_restarts)
        self._backoff_base = float(backoff_base)
        self._backoff_factor = float(backoff_factor)
        self._jitter = float(jitter)
        self._sleep = sleep
        self._rng = random.Random(seed)
        self._fault_hook = fault_hook
        self.registry = registry if registry is not None else MetricsRegistry()
        self.restarts = 0

    # ------------------------------------------------------------------ #
    @property
    def degraded(self) -> bool:
        """Whether any attempt has failed (the run recovered at least once)."""
        return self.restarts > 0

    def _backoff_seconds(self, attempt: int) -> float:
        scale = 1.0 + self._jitter * self._rng.random()
        return self._backoff_base * (self._backoff_factor ** attempt) * scale

    def _record_restart(self) -> None:
        self.restarts += 1
        self.registry.counter(
            "worker_restarts",
            help="Supervised attempts restarted after a worker death").inc()
        self.registry.gauge(
            "degraded",
            help="1 once any supervised restart happened").set(1.0)

    def _resume_state(self):
        """(restored detector or None, resume bin) for the next attempt."""
        from repro.streaming.checkpoint import has_checkpoint, load_checkpoint
        if self._checkpoint_dir is None or \
                not has_checkpoint(self._checkpoint_dir):
            return None, 0
        restored = load_checkpoint(self._checkpoint_dir, fallback=True,
                                   registry=self.registry)
        return restored, restored.report.n_bins_processed

    def run(self) -> StreamingReport:
        """Drive the stream to completion, restarting on worker failures."""
        while True:
            restored, resume_bin = self._resume_state()
            try:
                return parallel_stream_detect(
                    self._source.resume(resume_bin), self._config,
                    traffic_types=self._traffic_types,
                    n_workers=self._n_workers,
                    queue_depth=self._queue_depth,
                    mp_context=self._mp_context,
                    poll_seconds=self._poll_seconds,
                    checkpoint_dir=self._checkpoint_dir,
                    checkpoint_every_chunks=self._checkpoint_every_chunks,
                    on_events=self._on_events, resume_from=restored,
                    fault_hook=self._fault_hook)
            except RuntimeError:
                # Worker death (or a forwarded worker traceback).  Config
                # errors raise ValueError before any worker starts and are
                # never retried.
                if self.restarts >= self._max_restarts:
                    raise
                delay = self._backoff_seconds(self.restarts)
                self._record_restart()
                if delay > 0.0:
                    self._sleep(delay)
