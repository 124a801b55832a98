"""Per-layer tracing of the service from outside the program.

:class:`Tracer` wraps the public functions of each layer where its caller
looks them up (a module global or a class attribute), records a span per
call and restores the originals on :meth:`Tracer.uninstall`.  Nothing
under ``src/`` changes.  A layer's self time is its busy time minus the
time of the traced spans nested inside it; the time of ``DetectionService.run``
not covered by any top-level span is the ``service.runner`` remainder, so
the self times plus that remainder add up to the traced wall time.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

import repro.core.identification as identification
import repro.ingest.source as ingest_source
import repro.service.runner as runner
import repro.streaming.detector as detector
from repro.ingest.binning import FlowRecordBinner
from repro.service.sinks import AlertDispatcher
from repro.service.store import EventStore
from repro.streaming.aggregator import OnlineEventAggregator
from repro.streaming.detector import StreamingSubspaceDetector
from repro.streaming.online_pca import OnlinePCA

#: Traced layers in pipeline order; nested ones follow their parent.
LAYERS = (
    "ingest.csv_io",
    "ingest.binning",
    "streaming.online_pca",
    "streaming.detector.calibrate",
    "streaming.online_pca.eigh",
    "core.limits",
    "streaming.detector.detect",
    "core.identification",
    "streaming.aggregator",
    "service.store",
    "service.sinks",
    "streaming.checkpoint",
)

#: Layers whose spans contain other traced spans (they report ``self_s``).
_NESTING_PARENTS = ("streaming.detector.calibrate",
                    "streaming.detector.detect")

_MISSING = object()


@dataclass
class LayerTime:
    """Calls and time of one layer, summed over the traced passes."""

    calls: int = 0
    busy_s: float = 0.0
    #: Time of traced spans nested inside this layer's spans.
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.busy_s - self.child_s


class Tracer:
    """Span recorder plus the wrappers that feed it.

    ``chunk_index`` tells the wrappers which chunk is in flight, so that
    chunks can be classed by the slow work they triggered (a
    recalibration, a T² identification, a checkpoint).
    """

    def __init__(self) -> None:
        self.layers: Dict[str, LayerTime] = {name: LayerTime()
                                             for name in LAYERS}
        #: Work counts measured at the layer boundaries.
        self.counts: Counter = Counter()
        #: ``(name, start, end, parent span index or -1)`` of the last pass.
        self.spans: List[list] = []
        #: Seconds of ``DetectionService.run`` covered by top-level spans.
        self.top_level_s = 0.0
        self.chunk_flags: Dict[int, set] = {}
        self.chunk_index = lambda: -1
        self._stack: List[list] = []
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------ #
    # spans
    # ------------------------------------------------------------------ #
    def _enter(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent]
        self.spans.append(span)
        frame = [len(self.spans) - 1, span, 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        span = frame[1]
        span[2] = time.perf_counter()
        elapsed = span[2] - span[1]
        self._stack.pop()
        layer = self.layers[span[0]]
        layer.calls += 1
        layer.busy_s += elapsed
        layer.child_s += frame[2]
        if self._stack:
            self._stack[-1][2] += elapsed
        else:
            self.top_level_s += elapsed

    def _flag(self, kind: str) -> None:
        self.chunk_flags.setdefault(self.chunk_index(), set()).add(kind)

    def new_pass(self, chunk_index) -> Dict[int, set]:
        """Start a pass: keep its spans only; return its chunk classes."""
        self.spans = []
        self.chunk_flags = {}
        self.chunk_index = chunk_index
        return self.chunk_flags

    # ------------------------------------------------------------------ #
    # wrappers
    # ------------------------------------------------------------------ #
    def _timed(self, name: str, function, after=None):
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    def _timed_batches(self, function):
        """Wrap the ``read_flow_batches`` generator: one span per batch."""
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            batches = function(*args, **kwargs)
            while True:
                frame = tracer._enter("ingest.csv_io")
                try:
                    batch = next(batches)
                except StopIteration:
                    break
                finally:
                    tracer._exit(frame)
                tracer.counts["records"] += batch.n_records
                yield batch
            stats = kwargs.get("stats")
            if stats is not None:
                tracer.counts["rows"] += stats.rows
        return wrapper

    def _timed_checkpoint(self, function):
        """Wrap ``save_checkpoint``; count the bytes each save wrote."""
        tracer = self

        @functools.wraps(function)
        def wrapper(network_detector, directory, *args, **kwargs):
            before = _files(Path(directory))
            tracer._flag("ckpt")
            frame = tracer._enter("streaming.checkpoint")
            try:
                return function(network_detector, directory, *args, **kwargs)
            finally:
                tracer._exit(frame)
                tracer.counts["checkpoint_bytes"] += sum(
                    size for _, _, size in _files(Path(directory)) - before)
        return wrapper

    def _counted(self, key: str, function):
        counts = self.counts

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return function(*args, **kwargs)
        return wrapper

    def _patch(self, owner, attribute: str, wrapper) -> None:
        self._patches.append(
            (owner, attribute, vars(owner).get(attribute, _MISSING)))
        setattr(owner, attribute, wrapper)

    def install(self) -> "Tracer":
        """Wrap every traced layer; :meth:`uninstall` restores them."""
        counts = self.counts

        def after_finish(args, kwargs, result):
            counts["dropped"] += args[0].stats.dropped

        def after_calibrate(args, kwargs, result):
            self._flag("recal")

        def after_detect(args, kwargs, result):
            counts["bins"] += result.n_bins
            counts["flagged"] += len(result.detections)

        def after_t2(args, kwargs, result):
            counts["t2_flows"] += len(result)
            self._flag("t2id")

        def after_advance(args, kwargs, result):
            counts["events_out"] += len(result)

        def after_add(args, kwargs, result):
            counts["new_rows"] += bool(result)

        self._patch(ingest_source, "read_flow_batches",
                    self._timed_batches(ingest_source.read_flow_batches))
        self._patch(FlowRecordBinner, "add_batch",
                    self._timed("ingest.binning", FlowRecordBinner.add_batch))
        self._patch(FlowRecordBinner, "finish",
                    self._timed("ingest.binning", FlowRecordBinner.finish,
                                after_finish))
        self._patch(OnlinePCA, "partial_fit",
                    self._timed("streaming.online_pca",
                                OnlinePCA.partial_fit))
        self._patch(OnlinePCA, "eigenbasis",
                    self._timed("streaming.online_pca.eigh",
                                OnlinePCA.eigenbasis))
        self._patch(StreamingSubspaceDetector, "calibrate",
                    self._timed("streaming.detector.calibrate",
                                StreamingSubspaceDetector.calibrate,
                                after_calibrate))
        self._patch(detector, "control_limits",
                    self._timed("core.limits", detector.control_limits))
        self._patch(StreamingSubspaceDetector, "detect_chunk",
                    self._timed("streaming.detector.detect",
                                StreamingSubspaceDetector.detect_chunk,
                                after_detect))
        self._patch(detector, "identify_t2_flows",
                    self._timed("core.identification",
                                detector.identify_t2_flows, after_t2))
        self._patch(detector, "identify_spe_flows",
                    self._timed("core.identification",
                                detector.identify_spe_flows))
        self._patch(identification, "t2_of_centered_row",
                    self._counted("t2_evals",
                                  identification.t2_of_centered_row))
        self._patch(OnlineEventAggregator, "advance",
                    self._timed("streaming.aggregator",
                                OnlineEventAggregator.advance, after_advance))
        self._patch(EventStore, "add_event",
                    self._timed("service.store", EventStore.add_event,
                                after_add))
        self._patch(AlertDispatcher, "dispatch",
                    self._timed("service.sinks", AlertDispatcher.dispatch))
        self._patch(runner, "save_checkpoint",
                    self._timed_checkpoint(runner.save_checkpoint))
        return self

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    # ------------------------------------------------------------------ #
    # results
    # ------------------------------------------------------------------ #
    def metrics(self, wall_s: float, passes: int,
                store_lock_retries: int, alert_retries: int,
                dead_lettered: int) -> Dict[str, float]:
        """Per-layer metrics, per traced pass, over *wall_s* summed wall."""
        per_pass = 1.0 / passes
        counts = self.counts
        metrics: Dict[str, float] = {}
        for name, layer in self.layers.items():
            nested = name in _NESTING_PARENTS
            metrics[f"{name}.calls"] = layer.calls * per_pass
            metrics[f"{name}.{'self_s' if nested else 'busy_s'}"] = (
                layer.self_s * per_pass)
            metrics[f"{name}.share"] = layer.self_s / wall_s
        runner_s = wall_s - self.top_level_s
        metrics["service.runner.self_s"] = runner_s * per_pass
        metrics["service.runner.share"] = runner_s / wall_s
        metrics["ingest.csv_io.records"] = counts["records"] * per_pass
        metrics["ingest.csv_io.ok_ratio"] = _ratio(counts["records"],
                                                   counts["rows"])
        metrics["ingest.binning.dropped"] = counts["dropped"] * per_pass
        metrics["streaming.detector.detect.flagged_ratio"] = _ratio(
            counts["flagged"], counts["bins"])
        metrics["core.identification.t2_evals"] = (counts["t2_evals"]
                                                   * per_pass)
        metrics["core.identification.flows_per_eval"] = _ratio(
            counts["t2_flows"], counts["t2_evals"])
        metrics["streaming.aggregator.events_out"] = (counts["events_out"]
                                                      * per_pass)
        metrics["service.store.new_ratio"] = _ratio(
            counts["new_rows"], self.layers["service.store"].calls)
        metrics["service.store.lock_retries"] = store_lock_retries * per_pass
        metrics["service.sinks.retries"] = alert_retries * per_pass
        metrics["service.sinks.dead_lettered"] = dead_lettered * per_pass
        metrics["streaming.checkpoint.bytes"] = (counts["checkpoint_bytes"]
                                                 * per_pass)
        return metrics


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _files(directory: Path) -> set:
    """``(inode, mtime, size)`` of every file under *directory*.

    A save writes new files and moves them into place, so the files it
    wrote are the ones absent from the listing taken before it.
    """
    if not directory.is_dir():
        return set()
    return {(stat.st_ino, stat.st_mtime_ns, stat.st_size)
            for stat in (path.stat() for path in directory.rglob("*")
                         if path.is_file())}


def write_spans(tracer: Tracer, path: Path) -> None:
    """Write the last traced pass's spans, times relative to its first."""
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"columns": ["layer", "start_s", "end_s", "parent"],
                   "spans": [[name, round(start - origin, 7),
                              round(end - origin, 7), parent]
                             for name, start, end, parent in tracer.spans]},
                  handle, separators=(",", ":"))
        handle.write("\n")

