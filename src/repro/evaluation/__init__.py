"""Evaluation harness.

* :mod:`repro.evaluation.matching` — matching of detected events to
  ground-truth injected anomalies;
* :mod:`repro.evaluation.metrics` — detection and classification metrics;
* :mod:`repro.evaluation.reporting` — plain-text table and histogram
  rendering used by the benchmark harness;
* :mod:`repro.evaluation.streaming_parity` — streaming-vs-batch event
  parity accounting for the online subsystem;
* :mod:`repro.evaluation.experiments` — one runner per paper artifact
  (Figure 1, Table 1, Figure 2, Table 2, Table 3) plus the ablation,
  baseline-comparison, and pipeline experiments from DESIGN.md;
* :mod:`repro.evaluation.live` — the online evaluation harness: Table 1/3
  analogues computed by replaying labeled weeks through the streaming
  pipeline, with structured batch-vs-live delta reports.
"""

from repro.evaluation.matching import EventMatch, MatchReport, match_events
from repro.evaluation.metrics import (
    aggregate_match_metrics,
    classification_confusion,
    detection_metrics,
    DetectionMetrics,
)
from repro.evaluation.reporting import format_histogram, format_table
from repro.evaluation.streaming_parity import (
    EventParityReport,
    event_parity,
    report_parity,
)

__all__ = [
    "EventParityReport",
    "event_parity",
    "report_parity",
    "EventMatch",
    "MatchReport",
    "match_events",
    "DetectionMetrics",
    "detection_metrics",
    "aggregate_match_metrics",
    "classification_confusion",
    "format_table",
    "format_histogram",
]
