"""Batch-vs-live delta reports.

A live (single-pass streaming) diagnosis differs from the batch reference
for well-understood reasons — warmup bins are never flagged, the model
keeps recalibrating instead of fitting once.  :func:`compare_batch_live`
quantifies the difference as one structured :class:`BatchLiveDelta`:
Table 1-analogue count deltas, Table 3-analogue metric deltas, and a
window-merged event-parity summary.
``to_dict`` is consumed by ``benchmarks/test_bench_live_eval.py`` and the
``BENCH_streaming.json`` trajectory, so live-mode quality regressions trip
CI like any other tracked metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.core.events import COMBINATION_LABELS
from repro.evaluation.live.harness import BatchReference, LiveEvaluationResult
from repro.evaluation.reporting import format_table
from repro.evaluation.streaming_parity import EventParityReport, event_parity
from repro.utils.validation import require

__all__ = ["BatchLiveDelta", "compare_batch_live"]


def _merged_parity(per_window: Sequence[EventParityReport]) -> Dict[str, object]:
    """Window-merged parity counters (events stay window-local)."""
    n_batch = sum(r.n_batch for r in per_window)
    n_streaming = sum(r.n_streaming for r in per_window)
    n_matched = sum(r.n_matched for r in per_window)
    n_span_matched = sum(r.n_span_matched for r in per_window)
    return {
        "n_batch": n_batch,
        "n_streaming": n_streaming,
        "n_matched": n_matched,
        "n_span_matched": n_span_matched,
        "exact": all(r.exact for r in per_window),
        "recall": n_matched / n_batch if n_batch else 1.0,
        "span_recall": n_span_matched / n_batch if n_batch else 1.0,
    }


@dataclass
class BatchLiveDelta:
    """How the live diagnosis compares to the batch reference."""

    batch: BatchReference
    live: LiveEvaluationResult
    parity_per_window: List[EventParityReport]

    # ------------------------------------------------------------------ #
    # headline deltas (live minus batch)
    # ------------------------------------------------------------------ #
    @property
    def detection_rate_delta(self) -> float:
        """Live detection rate minus batch detection rate."""
        return (self.live.metrics.detection_rate
                - self.batch.metrics.detection_rate)

    @property
    def false_alarm_rate_delta(self) -> float:
        """Live false-alarm rate minus batch false-alarm rate."""
        return (self.live.metrics.false_alarm_rate
                - self.batch.metrics.false_alarm_rate)

    @property
    def n_events_delta(self) -> int:
        """Live total event count minus batch total event count."""
        return self.live.total_events - self.batch.total_events

    def per_type_delta(self) -> Dict[str, float]:
        """Per-anomaly-type recall delta (live minus batch)."""
        batch_rates = {t.value: r for t, r in
                       self.batch.metrics.per_type_detection_rate.items()}
        live_rates = {t.value: r for t, r in
                      self.live.metrics.per_type_detection_rate.items()}
        return {name: round(live_rates.get(name, 0.0)
                            - batch_rates.get(name, 0.0), 4)
                for name in sorted(set(batch_rates) | set(live_rates))}

    def parity(self) -> Dict[str, object]:
        """Window-merged live-vs-batch event parity counters."""
        return _merged_parity(self.parity_per_window)

    # ------------------------------------------------------------------ #
    # structured output
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable delta report for the bench trajectory."""
        return {
            "chunk_size": self.live.chunk_size,
            "n_warmup_bins": self.live.n_warmup_bins,
            "label_counts": {
                "batch": dict(self.batch.label_counts),
                "live": dict(self.live.label_counts),
            },
            "metrics": {
                "batch": self.batch.metrics.as_dict(),
                "live": self.live.metrics.as_dict(),
            },
            "delta": {
                "detection_rate": round(self.detection_rate_delta, 4),
                "false_alarm_rate": round(self.false_alarm_rate_delta, 4),
                "n_events": self.n_events_delta,
                "per_type_detection_rate": self.per_type_delta(),
            },
            "parity": self.parity(),
        }

    def render(self) -> str:
        """Side-by-side Table 1 analogue plus the headline metric deltas."""
        rows = []
        for label in COMBINATION_LABELS:
            batch_count = self.batch.label_counts.get(label, 0)
            live_count = self.live.label_counts.get(label, 0)
            rows.append([label, batch_count, live_count,
                         live_count - batch_count])
        rows.append(["Total", self.batch.total_events, self.live.total_events,
                     self.n_events_delta])
        table = format_table(
            ["Traffic", "# Batch", "# Live", "Delta"],
            rows,
            title="Table 1 analogue — batch vs live",
        )
        parity = self.parity()
        return "\n".join([
            table,
            "",
            f"detection rate: batch {self.batch.metrics.detection_rate:.1%} "
            f"-> live {self.live.metrics.detection_rate:.1%} "
            f"({self.detection_rate_delta:+.1%})  "
            f"false alarms: batch {self.batch.metrics.false_alarm_rate:.1%} "
            f"-> live {self.live.metrics.false_alarm_rate:.1%} "
            f"({self.false_alarm_rate_delta:+.1%})",
            f"event parity vs batch: recall {parity['recall']:.3f}, "
            f"span recall {parity['span_recall']:.3f}",
        ])


def compare_batch_live(batch: BatchReference,
                       live: LiveEvaluationResult) -> BatchLiveDelta:
    """Build the delta report of one live run against the batch reference.

    Both sides must have been produced over the same dataset windowing
    (the harness guarantees this when both come from the same dataset and
    ``week_by_week`` setting).
    """
    live_windows = [(w.start_bin, w.end_bin) for w in live.windows]
    require(live_windows == list(batch.windows),
            "batch and live evaluations cover different windows")
    parity_per_window = [
        event_parity(batch_events, window.events)
        for batch_events, window in zip(batch.events_per_window, live.windows)
    ]
    return BatchLiveDelta(
        batch=batch,
        live=live,
        parity_per_window=parity_per_window,
    )
