"""Streaming-vs-batch parity accounting.

The streaming subsystem guarantees that a full-window replay reproduces the
batch diagnosis; this module measures how true that is for any pair of
event lists (exact for the two-pass replay harness, approximate for live
single-pass runs with forgetting), giving tests, benchmarks, and operators
one shared report format.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.core.events import AnomalyEvent

__all__ = ["EventParityReport", "event_parity", "report_parity"]


def _event_key(event: AnomalyEvent) -> Tuple:
    return (event.start_bin, event.end_bin, event.traffic_label,
            event.bins, event.od_flows, event.statistics)


@dataclass(frozen=True)
class EventParityReport:
    """How closely a streaming event list matches its batch reference.

    ``exact`` requires identical events in identical order; ``matched``
    counts events identical field-for-field regardless of order; spans
    count events whose (start, end, label) triple matches even if the
    OD-flow sets differ (the typical live-mode deviation).
    """

    n_batch: int
    n_streaming: int
    n_matched: int
    n_span_matched: int
    exact: bool
    missing: Tuple[AnomalyEvent, ...]
    extra: Tuple[AnomalyEvent, ...]

    @property
    def recall(self) -> float:
        """Fraction of batch events matched exactly by the stream."""
        return self.n_matched / self.n_batch if self.n_batch else 1.0

    @property
    def span_recall(self) -> float:
        """Fraction of batch events whose span+label the stream recovered."""
        return self.n_span_matched / self.n_batch if self.n_batch else 1.0

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable summary (benchmark artifacts, CI reports).

        Mismatching events are included in full so a failed parity gate is
        diagnosable from the artifact alone.
        """
        return {
            "n_batch": self.n_batch,
            "n_streaming": self.n_streaming,
            "n_matched": self.n_matched,
            "n_span_matched": self.n_span_matched,
            "exact": self.exact,
            "recall": self.recall,
            "span_recall": self.span_recall,
            "missing": [event.to_dict() for event in self.missing],
            "extra": [event.to_dict() for event in self.extra],
        }


def event_parity(
    batch_events: Sequence[AnomalyEvent],
    streaming_events: Sequence[AnomalyEvent],
) -> EventParityReport:
    """Compare a streaming event list against its batch reference."""
    batch_keys = {_event_key(e) for e in batch_events}
    stream_keys = {_event_key(e) for e in streaming_events}
    matched = batch_keys & stream_keys

    batch_spans = {(e.start_bin, e.end_bin, e.traffic_label) for e in batch_events}
    stream_spans = {(e.start_bin, e.end_bin, e.traffic_label)
                    for e in streaming_events}
    span_matched = batch_spans & stream_spans

    missing = tuple(e for e in batch_events if _event_key(e) not in stream_keys)
    extra = tuple(e for e in streaming_events if _event_key(e) not in batch_keys)
    return EventParityReport(
        n_batch=len(batch_events),
        n_streaming=len(streaming_events),
        n_matched=len(matched),
        n_span_matched=len(span_matched),
        exact=list(batch_events) == list(streaming_events),
        missing=missing,
        extra=extra,
    )


def report_parity(reference, candidate) -> Dict[str, object]:
    """Full-report parity between two streaming runs (restart vs base).

    Compares any two objects with the
    :class:`~repro.streaming.pipeline.StreamingReport` shape: the fused
    event lists (via :func:`event_parity`), the raw per-type detection
    lists, and the bin/chunk counters.  A hierarchical or
    checkpoint-restored run passes iff every entry under ``"equal"`` is
    true.
    """
    events = event_parity(reference.events, candidate.events)
    detections_equal = {
        traffic_type.value:
            candidate.detections.get(traffic_type) == per_type
        for traffic_type, per_type in reference.detections.items()
    }
    return {
        "events": events.to_dict(),
        "equal": {
            "events": events.exact,
            "detections": (set(reference.detections) == set(candidate.detections)
                           and all(detections_equal.values())),
            "n_bins_processed": (reference.n_bins_processed
                                 == candidate.n_bins_processed),
            "n_warmup_bins": reference.n_warmup_bins == candidate.n_warmup_bins,
        },
        "detections_equal_by_type": detections_equal,
    }
