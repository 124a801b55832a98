"""Network-wide online diagnosis over a chunked multi-type stream.

:class:`StreamingNetworkDetector` is the streaming counterpart of
:func:`~repro.core.pipeline.detect_network_anomalies`: one
:class:`~repro.streaming.detector.StreamingSubspaceDetector` per traffic
type, plus one :class:`~repro.streaming.aggregator.OnlineEventAggregator`
fusing the per-type detections into :class:`AnomalyEvent`s as chunks flow
through.  Memory is bounded by one chunk plus the ``O(p²)`` model state per
traffic type, independent of stream length.

Two driving modes:

* :func:`stream_detect` — single-pass **live** mode: each chunk first
  updates the models (with optional forgetting), then is tested against the
  freshly recalibrated subspace.  Early bins (warmup) are not flagged and
  the model adapts over time, so results approximate the batch method.
* :func:`replay_network_anomalies` — two-pass **replay** mode over a finite
  series: pass 1 streams all chunks into the moment engines (no forgetting),
  pass 2 freezes the calibrated snapshots and streams detection +
  aggregation.  Because the frozen model equals the batch model, the emitted
  events match :func:`detect_network_anomalies` exactly while never
  materializing more than one chunk of statistics.
"""

from __future__ import annotations

import time
import uuid
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.events import AnomalyEvent, Detection, count_by_label
from repro.flows.timeseries import TrafficMatrixSeries, TrafficType
from repro.streaming.aggregator import OnlineEventAggregator
from repro.streaming.config import StreamingConfig
from repro.streaming.detector import ChunkDetections, StreamingSubspaceDetector
from repro.streaming.sources import (
    ChunkedSeriesSource,
    TrafficChunk,
    as_chunk_source,
)
from repro.telemetry import Telemetry
from repro.utils.validation import require

__all__ = ["StreamingReport", "StreamingNetworkDetector", "stream_detect",
           "replay_network_anomalies"]


def _dedup_types(traffic_types: Iterable[TrafficType]) -> List[TrafficType]:
    """Normalize and dedup traffic types, keeping first-seen order.

    Shared by the live and replay drivers: a duplicate type would fold
    chunks twice into one detector's moments.
    """
    return list(dict.fromkeys(TrafficType(t) for t in traffic_types))


@dataclass
class StreamingReport:
    """Accumulated output of a streaming diagnosis run.

    The same information as a batch
    :class:`~repro.core.pipeline.NetworkAnomalyReport`, gathered
    incrementally: fused events, per-type raw detections, and bookkeeping
    about how much of the stream was consumed.
    """

    events: List[AnomalyEvent] = field(default_factory=list)
    detections: Dict[TrafficType, List[Detection]] = field(default_factory=dict)
    n_bins_processed: int = 0
    n_chunks_processed: int = 0
    n_warmup_bins: int = 0
    # Malformed chunks skipped under on_bad_chunk="quarantine" (bad chunks
    # under "raise" never reach the report — the run dies instead).
    n_bad_chunks: int = 0
    # Wall-clock throughput, maintained by the drivers as chunks flow (a
    # restored run keeps accumulating on top of the checkpointed value).
    # Excluded from evaluation.report_parity: two runs producing identical
    # events legitimately differ here.
    runtime_seconds: float = 0.0
    bins_per_second: float = 0.0

    @property
    def n_events(self) -> int:
        """Number of fused anomaly events."""
        return len(self.events)

    def label_counts(self) -> Dict[str, int]:
        """Event counts per combination label (the rows of Table 1)."""
        return count_by_label(self.events)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (used by streaming checkpoints)."""
        return {
            "events": [event.to_dict() for event in self.events],
            "detections": {
                TrafficType(t).value: [d.to_dict() for d in per_type]
                for t, per_type in self.detections.items()
            },
            "n_bins_processed": self.n_bins_processed,
            "n_chunks_processed": self.n_chunks_processed,
            "n_warmup_bins": self.n_warmup_bins,
            "n_bad_chunks": self.n_bad_chunks,
            "runtime_seconds": self.runtime_seconds,
            "bins_per_second": self.bins_per_second,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "StreamingReport":
        """Inverse of :meth:`to_dict`."""
        return cls(
            events=[AnomalyEvent.from_dict(e) for e in data["events"]],
            detections={
                TrafficType(t): [Detection.from_dict(d) for d in per_type]
                for t, per_type in dict(data["detections"]).items()
            },
            n_bins_processed=int(data["n_bins_processed"]),
            n_chunks_processed=int(data["n_chunks_processed"]),
            n_warmup_bins=int(data["n_warmup_bins"]),
            # .get(): checkpoints written before bad-chunk tracking existed.
            n_bad_chunks=int(data.get("n_bad_chunks", 0)),
            # .get(): checkpoints written before the runtime fields existed
            # restore with zeros rather than KeyError.
            runtime_seconds=float(data.get("runtime_seconds", 0.0)),
            bins_per_second=float(data.get("bins_per_second", 0.0)),
        )


def _fuse_chunk_results(
    results: Dict[TrafficType, ChunkDetections],
    chunk: TrafficChunk,
    aggregator: OnlineEventAggregator,
    report: StreamingReport,
    telemetry: Optional[Telemetry] = None,
) -> List[AnomalyEvent]:
    """Fold one chunk's per-type detections into the aggregator and report.

    The single fusion step shared by live mode (flat or per-PoP) and the
    two-pass replay: once every type delivered its detections for the
    chunk's bins, the aggregator watermark advances and newly closed
    events land in the report.  Being the one shared chokepoint also makes
    it the one place the bins/chunks/events telemetry counters increment —
    no driver can double-count.
    """
    if telemetry is not None:
        with telemetry.span("aggregate"):
            events = _fuse_inner(results, chunk, aggregator, report)
        registry = telemetry.registry
        registry.counter("bins_processed",
                         help="Timebins fused into the report").inc(chunk.n_bins)
        registry.counter("chunks_processed",
                         help="Chunks fused into the report").inc()
        for event in events:
            registry.counter("events", {"type": event.traffic_label},
                             help="Anomaly events by combination label").inc()
        return events
    return _fuse_inner(results, chunk, aggregator, report)


def _fuse_inner(
    results: Dict[TrafficType, ChunkDetections],
    chunk: TrafficChunk,
    aggregator: OnlineEventAggregator,
    report: StreamingReport,
) -> List[AnomalyEvent]:
    for traffic_type, result in results.items():
        per_type = report.detections.setdefault(traffic_type, [])
        for stream_detection in result.detections:
            detection = stream_detection.to_detection(traffic_type)
            per_type.append(detection)
            aggregator.add(detection)
    events = aggregator.advance(chunk.end_bin - 1)
    report.events.extend(events)
    report.n_bins_processed += chunk.n_bins
    report.n_chunks_processed += 1
    return events


class StreamingNetworkDetector:
    """Per-traffic-type online detectors plus incremental event fusion.

    Feed :class:`~repro.streaming.sources.TrafficChunk`s via
    :meth:`process_chunk`; closed events are returned as soon as they can no
    longer change, and :meth:`finish` flushes the tail at end of stream.
    """

    def __init__(
        self,
        config: StreamingConfig = StreamingConfig(),
        traffic_types: Optional[Sequence[TrafficType]] = None,
        on_events: Optional[Callable[[List[AnomalyEvent]], None]] = None,
    ) -> None:
        require(config.identify,
                "event fusion needs identified OD flows; use a config with "
                "identify=True (or drive StreamingSubspaceDetector directly)")
        self._config = config
        # Lineage id of this run: survives checkpoint/restore, so a
        # checkpoint directory can tell its own detector's saves apart from
        # a foreign detector's (see repro.streaming.checkpoint).
        self._run_id = uuid.uuid4().hex
        # Event hand-off hook: called with every batch of newly closed
        # events (process_chunk) and the end-of-stream tail (finish).
        # Runtime wiring, deliberately not checkpointed — a restored run
        # re-attaches its own hook.
        self._on_events = on_events
        self._types: Optional[List[TrafficType]] = (
            _dedup_types(traffic_types) if traffic_types is not None else None
        )
        self._detectors: Dict[TrafficType, StreamingSubspaceDetector] = {}
        self._aggregator = OnlineEventAggregator()
        self._report = StreamingReport()
        self._finished = False
        self._telemetry = Telemetry.from_config(config)
        self._run_started: Optional[float] = None
        self._runtime_base = 0.0
        # Stream position: the end of the last accepted chunk, and the end
        # and count of the quarantined chunks after it; ``_last_end`` is the
        # end of the last chunk this run saw.  A restored run drops re-sent
        # copies of those quarantined chunks (``_resent`` of them) without
        # counting them again.
        self._accepted_end = self._skipped_end = self._last_end = 0
        self._n_skipped = self._resent = 0

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def config(self) -> StreamingConfig:
        """The streaming configuration."""
        return self._config

    @property
    def report(self) -> StreamingReport:
        """The report accumulated so far (shared object, updated in place)."""
        return self._report

    @property
    def aggregator(self) -> OnlineEventAggregator:
        """The incremental event aggregator."""
        return self._aggregator

    @property
    def telemetry(self) -> Optional[Telemetry]:
        """The observability bundle (``None`` unless ``config.telemetry``)."""
        return self._telemetry

    @property
    def run_id(self) -> str:
        """Lineage id of this run (stable across checkpoint/restore)."""
        return self._run_id

    @property
    def resume_bin(self) -> int:
        """Stream-global bin a restart resumes at: the end of the last
        accepted chunk (0 for a fresh run)."""
        return self._accepted_end

    def check_start(self, chunk: TrafficChunk) -> None:
        """Raise unless *chunk* starts where the stream may continue.

        That is the end of the chunk before it, :attr:`resume_bin` (a
        replacement for, or a re-send of, the chunks quarantined since the
        last accepted one), or the end of those quarantined chunks.
        """
        if chunk.start_bin not in (self._last_end, self._accepted_end,
                                   self._skipped_end):
            raise ValueError(
                f"resume misalignment: expected a chunk starting at bin "
                f"{self._last_end}, got {chunk.start_bin} (feed the suffix "
                f"of the original stream from resume_bin)")

    @property
    def finished(self) -> bool:
        """Whether :meth:`finish` has sealed the report."""
        return self._finished

    @property
    def on_events(self) -> Optional[Callable[[List[AnomalyEvent]], None]]:
        """The event hand-off hook (settable; ``None`` disables it)."""
        return self._on_events

    @on_events.setter
    def on_events(self,
                  hook: Optional[Callable[[List[AnomalyEvent]], None]]) -> None:
        self._on_events = hook

    def detector(self, traffic_type: TrafficType) -> StreamingSubspaceDetector:
        """The per-type online detector (created on first chunk)."""
        return self._detectors[TrafficType(traffic_type)]

    # ------------------------------------------------------------------ #
    # streaming
    # ------------------------------------------------------------------ #
    def _types_for(self, chunk: TrafficChunk) -> List[TrafficType]:
        if self._types is None:
            self._types = chunk.traffic_types
        return self._types

    def _detector_for(self, traffic_type: TrafficType) -> StreamingSubspaceDetector:
        detector = self._detectors.get(traffic_type)
        if detector is None:
            detector = StreamingSubspaceDetector(self._config)
            if self._telemetry is not None:
                detector.bind_telemetry(self._telemetry,
                                        {"type": traffic_type.value})
            self._detectors[traffic_type] = detector
        return detector

    def _n_features(self) -> Optional[int]:
        """The stream's OD-flow count, ``None`` before any chunk is accepted.

        Read from the per-type moment engines, which learn it from the
        first accepted chunk and carry it through checkpoints — so neither
        a rejected chunk nor a restore can change it.
        """
        return next((detector.engine.n_features
                     for detector in self._detectors.values()
                     if detector.engine.n_features is not None), None)

    def _chunk_error(self, chunk: TrafficChunk) -> Optional[str]:
        """Describe what is malformed about *chunk*, or ``None`` if clean.

        Checks every traffic type's matrix for non-finite values and for a
        column count disagreeing with the stream's OD-flow dimension (or,
        before any chunk was accepted, with the chunk's first matrix).
        Neither the width nor the traffic types are pinned here: both come
        from the first *accepted* chunk.
        """
        expected = self._n_features()
        types = self._types if self._types is not None else chunk.traffic_types
        for traffic_type in types:
            matrix = np.asarray(chunk.matrix(traffic_type))
            if matrix.ndim != 2:
                return (f"chunk at bin {chunk.start_bin}: "
                        f"{traffic_type.value} matrix is "
                        f"{matrix.ndim}-dimensional, expected 2")
            if expected is None:
                expected = int(matrix.shape[1])
            elif matrix.shape[1] != expected:
                return (f"chunk at bin {chunk.start_bin}: "
                        f"{traffic_type.value} matrix has {matrix.shape[1]} "
                        f"columns, expected {expected} OD flows")
            if not np.isfinite(matrix).all():
                n_bad = int(matrix.size - np.isfinite(matrix).sum())
                return (f"chunk at bin {chunk.start_bin}: "
                        f"{traffic_type.value} matrix contains {n_bad} "
                        f"non-finite value(s) (NaN/Inf)")
        return None

    def _reject_bad_chunk(self, chunk: TrafficChunk) -> bool:
        """Apply the ``on_bad_chunk`` policy; ``True`` iff chunk is skipped.

        ``"raise"`` turns the defect into a :class:`ValueError`;
        ``"quarantine"`` counts it (``bad_chunks`` metric,
        ``report.n_bad_chunks``) and tells the caller to drop the chunk
        without touching the model or the aggregator watermark.  A
        restored run drops a re-sent copy of a chunk it counted before
        the checkpoint without counting it again.
        """
        error = self._chunk_error(chunk)
        if error is not None and self._config.on_bad_chunk == "raise":
            raise ValueError(
                f"malformed traffic chunk: {error} "
                f"(set on_bad_chunk='quarantine' to count and skip instead)")
        self._last_end = chunk.end_bin
        if error is None:
            self._accepted_end = self._skipped_end = chunk.end_bin
            self._n_skipped = self._resent = 0
            return False
        if self._resent and chunk.end_bin <= self._skipped_end:
            self._resent -= 1
            return True
        self._skipped_end = chunk.end_bin
        self._n_skipped += 1
        self._report.n_bad_chunks += 1
        if self._telemetry is not None:
            self._telemetry.registry.counter(
                "bad_chunks",
                help="Malformed chunks skipped under "
                "on_bad_chunk='quarantine'").inc()
        return True

    def _update_runtime(self) -> None:
        """Refresh the report's wall-clock throughput fields in place."""
        if self._run_started is None:
            return
        elapsed = time.perf_counter() - self._run_started
        runtime = self._runtime_base + elapsed
        self._report.runtime_seconds = runtime
        self._report.bins_per_second = (
            self._report.n_bins_processed / runtime if runtime > 0 else 0.0)
        if self._telemetry is not None:
            self._telemetry.registry.gauge(
                "runtime_seconds",
                help="Wall-clock processing time so far"
            ).set(runtime)

    def process_chunk(self, chunk: TrafficChunk) -> List[AnomalyEvent]:
        """Consume one chunk; return events that closed because of it."""
        require(not self._finished, "detector already finished")
        if self._run_started is None:
            self._run_started = time.perf_counter()
        if self._reject_bad_chunk(chunk):
            return []
        tel = self._telemetry
        # Drivers that time their own "ingest" stage open the chunk's trace
        # before handing the chunk over; only start one here if they didn't.
        owns_chunk = tel is not None and not tel.tracer.in_chunk
        if owns_chunk:
            tel.begin_chunk(self._report.n_chunks_processed)
        results: Dict[TrafficType, ChunkDetections] = {}
        for traffic_type in self._types_for(chunk):
            results[traffic_type] = self._detector_for(traffic_type).process_chunk(
                chunk.matrix(traffic_type), chunk.start_bin)
        events = _fuse_chunk_results(results, chunk, self._aggregator,
                                     self._report, tel)
        if any(result.warmup for result in results.values()):
            self._report.n_warmup_bins += chunk.n_bins
            if tel is not None:
                tel.registry.counter(
                    "warmup_bins",
                    help="Bins consumed before the model warmed up"
                ).inc(chunk.n_bins)
        if owns_chunk:
            tel.end_chunk()
        self._update_runtime()
        if tel is not None:
            tel.maybe_write_snapshot(self._report.n_chunks_processed)
        if self._on_events is not None and events:
            self._on_events(events)
        return events

    def finish(self) -> StreamingReport:
        """Flush the aggregator at end of stream and return the report."""
        if not self._finished:
            tail = self._aggregator.flush()
            self._report.events.extend(tail)
            self._finished = True
            self._update_runtime()
            if self._telemetry is not None:
                self._telemetry.write_snapshot()
            if self._on_events is not None and tail:
                self._on_events(tail)
        return self._report

    # ------------------------------------------------------------------ #
    # checkpoint/restore
    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, Dict]:
        """Complete processing state as ``{"meta": scalars, "arrays": ...}``.

        Covers the config, every per-type detector (moments + snapshot +
        stream position), the aggregator watermark/open-run, and the report
        accumulated so far.  Call between chunks — the state is then
        consistent and :meth:`restore` resumes the stream with the identical
        remaining event list.
        """
        meta = {
            "config": self._config.to_dict(),
            "run_id": self._run_id,
            "types": (None if self._types is None
                      else [t.value for t in self._types]),
            "finished": self._finished,
            "detectors": {},
            "aggregator": self._aggregator.state_dict(),
            "report": self._report.to_dict(),
            "position": [self._accepted_end, self._skipped_end,
                         self._n_skipped],
            # Counters survive the checkpoint; in-flight spans do not (the
            # restored run builds a fresh tracer from the config).
            "telemetry": (None if self._telemetry is None
                          else self._telemetry.state_dict()),
        }
        arrays: Dict[str, np.ndarray] = {}
        for traffic_type, detector in self._detectors.items():
            state = detector.state_dict()
            meta["detectors"][traffic_type.value] = state["meta"]
            arrays.update({f"{traffic_type.value}__{k}": v
                           for k, v in state["arrays"].items()})
        return {"meta": meta, "arrays": arrays}

    @classmethod
    def from_state(cls, meta: Mapping,
                   arrays: Mapping[str, np.ndarray]) -> "StreamingNetworkDetector":
        """Rebuild a network detector from :meth:`state_dict` output."""
        config = StreamingConfig.from_dict(meta["config"])
        types = meta["types"]
        detector = cls(config, traffic_types=types)
        # Adopt the checkpoint's lineage: a restored run *is* the same run,
        # so it may keep overwriting the same checkpoint directory.  .get():
        # pre-lineage checkpoints keep the fresh id.
        detector._run_id = str(meta.get("run_id") or detector._run_id)
        for type_value, detector_meta in dict(meta["detectors"]).items():
            prefix = f"{type_value}__"
            detector._detectors[TrafficType(type_value)] = \
                StreamingSubspaceDetector.from_state(
                    config, detector_meta,
                    {k[len(prefix):]: v for k, v in arrays.items()
                     if k.startswith(prefix)})
        detector._aggregator = OnlineEventAggregator.from_state(
            meta["aggregator"])
        detector._report = StreamingReport.from_dict(meta["report"])
        detector._finished = bool(meta["finished"])
        # .get(): checkpoints written before the position existed resume
        # at the bins processed.
        processed = detector._report.n_bins_processed
        (detector._accepted_end, detector._skipped_end,
         detector._n_skipped) = meta.get("position", (processed, processed, 0))
        detector._last_end = detector._accepted_end
        detector._resent = detector._n_skipped
        # Resume the runtime clock from the checkpointed value and fold the
        # checkpointed counters into the fresh telemetry bundle.  .get():
        # pre-telemetry checkpoints carry no "telemetry" entry.
        detector._runtime_base = detector._report.runtime_seconds
        if (detector._telemetry is not None
                and meta.get("telemetry") is not None):
            detector._telemetry.restore_state(meta["telemetry"])
        for traffic_type, per_type in detector._detectors.items():
            if detector._telemetry is not None:
                per_type.bind_telemetry(detector._telemetry,
                                        {"type": traffic_type.value})
        return detector

    def save(self, directory) -> "StreamingNetworkDetector":
        """Write an npz + JSON-manifest checkpoint of this detector.

        See :func:`repro.streaming.checkpoint.save_checkpoint`; returns
        ``self`` so a save can be chained mid-stream.
        """
        from repro.streaming.checkpoint import save_checkpoint
        save_checkpoint(self, directory)
        return self

    @classmethod
    def restore(cls, directory) -> "StreamingNetworkDetector":
        """Load a checkpoint written by :meth:`save` and resume mid-stream."""
        from repro.streaming.checkpoint import load_checkpoint
        return load_checkpoint(directory)


def stream_detect(
    source,
    config: StreamingConfig = StreamingConfig(),
    traffic_types: Optional[Sequence[TrafficType]] = None,
    on_events: Optional[Callable[[List[AnomalyEvent]], None]] = None,
) -> StreamingReport:
    """Single-pass live diagnosis over a chunk source.

    *source* is anything :func:`~repro.streaming.sources.as_chunk_source`
    accepts: a :class:`~repro.streaming.sources.ChunkSource` or a plain
    iterable of chunks.

    *on_events*, when given, receives every batch of newly closed events as
    soon as it can no longer change — the hand-off point for persistence
    and alerting (see :mod:`repro.service`).
    """
    source = as_chunk_source(source)
    detector = StreamingNetworkDetector(config, traffic_types,
                                        on_events=on_events)
    tel = detector.telemetry
    if tel is None:
        for chunk in source:
            detector.process_chunk(chunk)
        return detector.finish()
    # Instrumented loop: open each chunk's trace before pulling it so the
    # time spent waiting on the source lands in the "ingest" stage.
    iterator = iter(source)
    index = 0
    while True:
        tel.begin_chunk(index)
        with tel.span("ingest"):
            chunk = next(iterator, None)
        if chunk is None:
            tel.end_chunk()
            break
        detector.process_chunk(chunk)
        tel.end_chunk()
        index += 1
    return detector.finish()


def replay_network_anomalies(
    series: TrafficMatrixSeries,
    chunk_size: int,
    config: StreamingConfig = StreamingConfig(),
    traffic_types: Optional[Sequence[TrafficType]] = None,
) -> StreamingReport:
    """Two-pass chunked replay with exact batch parity.

    Pass 1 streams every chunk into the per-type moment engines; pass 2
    freezes the calibrated snapshots and streams detection plus incremental
    aggregation.  With the default ``forgetting = 1`` the frozen model
    equals the batch model fitted on the whole window, so the returned
    events coincide with :func:`detect_network_anomalies` on *series* —
    while only ever holding one chunk of per-bin statistics.  (The SPE is
    computed through the orthonormal-projection identity rather than the
    batch path's residual matrix, so the coincidence is up to float
    round-off at the control limits, not bit-for-bit; see
    :meth:`StreamingSubspaceDetector.detect_chunk`.)
    """
    require(config.forgetting == 1.0,
            "exact replay parity requires forgetting == 1.0")
    require(config.limits == "fixed",
            "exact replay parity requires the fixed control-limit policy "
            "(adaptive quantile limits drift away from the batch limits)")
    require(config.identify, "event fusion needs identified OD flows")
    types = (_dedup_types(traffic_types)
             if traffic_types is not None else series.traffic_types)
    require(len(types) >= 1, "at least one traffic type must be analyzed")
    source = ChunkedSeriesSource(series, chunk_size)

    detectors: Dict[TrafficType, StreamingSubspaceDetector] = {
        t: StreamingSubspaceDetector(config) for t in types
    }
    for chunk in source:
        for traffic_type in types:
            detectors[traffic_type].ingest(chunk.matrix(traffic_type))
    for detector in detectors.values():
        detector.calibrate()

    aggregator = OnlineEventAggregator()
    report = StreamingReport()
    for chunk in source:
        results = {
            traffic_type: detectors[traffic_type].detect_chunk(
                chunk.matrix(traffic_type), chunk.start_bin)
            for traffic_type in types
        }
        _fuse_chunk_results(results, chunk, aggregator, report)
    report.events.extend(aggregator.flush())
    return report
