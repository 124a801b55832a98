"""Per-chunk trace spans: monotonic timing, sampled JSON-lines emission.

Every chunk that flows through the streaming stack passes the same stage
sequence — ``ingest → center → update → detect → aggregate`` — plus the
off-cadence ``recalibrate`` and ``checkpoint`` stages.  The
:class:`Tracer` wraps each stage in a :class:`Span` timed with
``time.perf_counter`` and always folds the duration into the registry's
``stage_seconds{stage=...}`` histogram; the *structured record* (a JSON
line per span, written through a pluggable sink) is emitted only for
**sampled** chunks, so tracing overhead stays bounded at any rate.

Sampling is one Bernoulli draw per chunk from a seeded
``random.Random`` — deterministic given ``(seed, chunk order)``, which is
what the determinism tests pin down.  Spans are process-local and
in-flight spans are deliberately *not* checkpointed: restore rebuilds a
fresh tracer (same seed) while the registry's counters survive.
"""

from __future__ import annotations

import io
import json
import os
import random
import threading
import time
from typing import Dict, List, Optional

from repro.telemetry.registry import Histogram, MetricsRegistry
from repro.utils.validation import require

__all__ = ["Span", "Tracer", "JsonLinesSink", "NullSink", "ListSink"]

#: The per-chunk stage sequence (off-cadence stages follow).
CHUNK_STAGES = ("ingest", "center", "update", "detect", "aggregate")
AUX_STAGES = ("recalibrate", "checkpoint")


class NullSink:
    """Discards records; the default when no trace path is configured."""

    def emit(self, record: Dict[str, object]) -> None:
        pass

    def close(self) -> None:
        pass


class ListSink:
    """Collects records in memory — for tests and interactive inspection."""

    def __init__(self) -> None:
        self.records: List[Dict[str, object]] = []

    def emit(self, record: Dict[str, object]) -> None:
        self.records.append(record)

    def close(self) -> None:
        pass


class JsonLinesSink:
    """Appends one compact JSON object per span to a file.

    Opened lazily (a run that never samples a chunk never touches the
    file) and line-buffered through a single lock so concurrent spans from
    a driver thread and a checkpoint call interleave whole lines.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._lock = threading.Lock()
        self._handle: Optional[io.TextIOWrapper] = None

    def emit(self, record: Dict[str, object]) -> None:
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        with self._lock:
            if self._handle is None:
                directory = os.path.dirname(self.path)
                if directory:
                    os.makedirs(directory, exist_ok=True)
                self._handle = open(self.path, "a", encoding="utf-8")
            self._handle.write(line + "\n")
            self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


class Span:
    """One timed stage.  Use as a context manager; re-entry is an error."""

    __slots__ = ("stage", "attrs", "_tracer", "_start", "duration_seconds")

    def __init__(self, tracer: "Tracer", stage: str,
                 attrs: Dict[str, object]) -> None:
        self.stage = stage
        self.attrs = attrs
        self._tracer = tracer
        self._start: Optional[float] = None
        self.duration_seconds: Optional[float] = None

    def __enter__(self) -> "Span":
        require(self._start is None, "span already entered")
        self._tracer._active.append(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.duration_seconds = time.perf_counter() - self._start
        self._tracer._finish(self, failed=exc_type is not None)


class Tracer:
    """Per-chunk span recorder with seeded sampling.

    ``begin_chunk(chunk_index)`` draws the chunk's single sampling
    decision; subsequent ``span(stage)`` calls inherit it.  Off-cadence
    spans opened outside any chunk (``recalibrate`` during warm-up,
    ``checkpoint``) are always emitted — they are rare and the ones you
    least want to lose.
    """

    def __init__(self, sample_rate: float = 1.0, seed: int = 0,
                 registry: Optional[MetricsRegistry] = None,
                 sink=None) -> None:
        require(0.0 <= sample_rate <= 1.0,
                "sample_rate must lie in [0, 1]")
        self.sample_rate = float(sample_rate)
        self.seed = int(seed)
        self.registry = registry
        self.sink = sink if sink is not None else NullSink()
        self._rng = random.Random(self.seed)
        self._active: List[Span] = []
        self._chunk_index: Optional[int] = None
        self._chunk_sampled = False
        # Registry metrics are never replaced once created, so each
        # stage's histogram is looked up once, not once per span.
        self._stage_histograms: Dict[str, Histogram] = {}
        self.n_chunks_seen = 0
        self.n_chunks_sampled = 0

    # ------------------------------------------------------------------ #
    def begin_chunk(self, chunk_index: int) -> bool:
        """Draw this chunk's sampling decision; returns it."""
        self._chunk_index = int(chunk_index)
        if self.sample_rate >= 1.0:
            self._chunk_sampled = True
        elif self.sample_rate <= 0.0:
            self._chunk_sampled = False
            self._rng.random()  # keep the stream aligned across rates
        else:
            self._chunk_sampled = self._rng.random() < self.sample_rate
        self.n_chunks_seen += 1
        if self._chunk_sampled:
            self.n_chunks_sampled += 1
        return self._chunk_sampled

    def end_chunk(self) -> None:
        self._chunk_index = None
        self._chunk_sampled = False

    @property
    def in_chunk(self) -> bool:
        """Whether a chunk trace is currently open (begin without end)."""
        return self._chunk_index is not None

    def span(self, stage: str, **attrs) -> Span:
        """A new span for *stage*; time it with ``with tracer.span(...)``."""
        return Span(self, stage, attrs)

    @property
    def active_spans(self) -> List[Span]:
        """Spans currently open (in-flight; dropped on checkpoint/restore)."""
        return list(self._active)

    # ------------------------------------------------------------------ #
    def _finish(self, span: Span, failed: bool) -> None:
        if span in self._active:
            self._active.remove(span)
        if self.registry is not None:
            histogram = self._stage_histograms.get(span.stage)
            if histogram is None:
                histogram = self.registry.histogram(
                    "stage_seconds", {"stage": span.stage},
                    help="Per-stage wall time (seconds)")
                self._stage_histograms[span.stage] = histogram
            histogram.observe(span.duration_seconds)
        inside_chunk = self._chunk_index is not None
        emit = self._chunk_sampled if inside_chunk else True
        if emit and not isinstance(self.sink, NullSink):
            record: Dict[str, object] = {
                "stage": span.stage,
                "duration_seconds": round(span.duration_seconds, 9),
            }
            if inside_chunk:
                record["chunk"] = self._chunk_index
            if failed:
                record["failed"] = True
            record.update(span.attrs)
            self.sink.emit(record)

    def close(self) -> None:
        self.sink.close()
