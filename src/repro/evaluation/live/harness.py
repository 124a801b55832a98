"""The online evaluation harness: labeled weeks through the streaming path.

Replays a labeled :class:`~repro.datasets.synthetic.SyntheticDataset` week
by week through :func:`~repro.streaming.pipeline.stream_detect` — the
deployment mode the paper targets, where the model trains, recalibrates,
and flags in a single pass — and scores the emitted events against the
injected ground truth with exactly the matching and aggregation the batch
Table 3 runner uses.  The result carries both paper analogues:

* **Table 1 analogue** — fused event counts per traffic-type combination
  label (B, F, P, BF, BP, FP, BFP);
* **Table 3 analogue** — detection rate, false-alarm rate, and
  per-anomaly-type recall against the ground-truth log.

:func:`batch_reference` computes the batch twin over the identical windows
with the identical matcher, so a live number minus its batch twin is a pure
measurement of the online approximation (warmup, recalibration cadence,
forgetting) — see :mod:`repro.evaluation.live.delta`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.events import COMBINATION_LABELS, AnomalyEvent, count_by_label
from repro.core.pipeline import detect_network_anomalies
from repro.datasets.synthetic import SyntheticDataset
from repro.evaluation.matching import MatchReport, match_events
from repro.evaluation.metrics import DetectionMetrics, aggregate_match_metrics
from repro.evaluation.reporting import format_table
from repro.streaming.config import StreamingConfig
from repro.streaming.pipeline import StreamingReport, stream_detect
from repro.streaming.sources import chunk_series
from repro.utils.timebins import week_windows
from repro.utils.validation import require

__all__ = ["LiveWindowResult", "LiveEvaluationResult", "BatchReference",
           "run_live_evaluation", "batch_reference"]

#: Default chunk size (bins) of the simulated live feed.
DEFAULT_CHUNK_BINS = 32


@dataclass
class LiveWindowResult:
    """One labeled week replayed live: the streaming report plus its match."""

    start_bin: int
    end_bin: int
    report: StreamingReport
    match: MatchReport

    @property
    def events(self) -> List[AnomalyEvent]:
        """The fused events of the window (bins are window-local)."""
        return self.report.events


@dataclass
class LiveEvaluationResult:
    """Online Table 1/3 analogues over all labeled weeks."""

    config: StreamingConfig
    chunk_size: int
    label_counts: Dict[str, int]
    metrics: DetectionMetrics
    windows: List[LiveWindowResult]

    @property
    def total_events(self) -> int:
        """Total fused events across windows."""
        return sum(self.label_counts.values())

    @property
    def n_warmup_bins(self) -> int:
        """Bins consumed by warmup (no detection) across windows."""
        return sum(w.report.n_warmup_bins for w in self.windows)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable summary (benchmark artifacts, dashboards)."""
        return {
            "chunk_size": self.chunk_size,
            "label_counts": dict(self.label_counts),
            "n_events": self.total_events,
            "n_warmup_bins": self.n_warmup_bins,
            "metrics": self.metrics.as_dict(),
        }

    def render(self) -> str:
        """Paper-style Table 1 analogue plus the headline metrics."""
        rows = [[label, self.label_counts.get(label, 0)]
                for label in COMBINATION_LABELS]
        rows.append(["Total", self.total_events])
        table = format_table(
            ["Traffic", "# Found (live)"], rows,
            title="Table 1 analogue — live streaming detection",
        )
        metrics = self.metrics
        return "\n".join([
            table,
            "",
            f"detection rate: {metrics.detection_rate:.1%}  "
            f"false alarms: {metrics.false_alarm_rate:.1%}  "
            f"warmup bins: {self.n_warmup_bins}",
        ])


@dataclass
class BatchReference:
    """The batch twin of a live evaluation: same windows, same matcher."""

    label_counts: Dict[str, int]
    metrics: DetectionMetrics
    windows: List[Tuple[int, int]]
    events_per_window: List[List[AnomalyEvent]]
    matches: List[MatchReport]

    @property
    def total_events(self) -> int:
        """Total fused events across windows."""
        return sum(self.label_counts.values())

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable summary."""
        return {
            "label_counts": dict(self.label_counts),
            "n_events": self.total_events,
            "metrics": self.metrics.as_dict(),
        }


def _windows_of(dataset: SyntheticDataset, n_normal: int,
                week_by_week: bool) -> List[Tuple[int, int]]:
    if week_by_week:
        return week_windows(dataset.n_bins, dataset.config.bin_seconds,
                            min_bins=n_normal + 3)
    return [(0, dataset.n_bins)]


def _match_window(dataset, window_series, events, start: int) -> MatchReport:
    """Match window-local *events* against the window-shifted ground truth."""
    return match_events(events, dataset.ground_truth.shifted(-start),
                        series=window_series)


def run_live_evaluation(
    dataset: SyntheticDataset,
    config: StreamingConfig = StreamingConfig(min_train_bins=128,
                                              recalibrate_every_bins=96),
    chunk_size: int = DEFAULT_CHUNK_BINS,
    week_by_week: bool = True,
) -> LiveEvaluationResult:
    """Replay *dataset* live through the streaming detector and score it.

    Parameters
    ----------
    dataset:
        A labeled synthetic dataset (must carry injected ground truth).
    config:
        The streaming configuration.  The defaults mirror the streaming
        benchmarks: two-hour warmup, recalibration every 96 bins.
    chunk_size:
        Bins per chunk of the simulated live feed.
    week_by_week:
        Window the dataset into paper-style weeks (the default), or replay
        it as a single window.
    """
    require(len(dataset.ground_truth) > 0, "dataset has no injected anomalies")
    counts = {label: 0 for label in COMBINATION_LABELS}
    windows: List[LiveWindowResult] = []
    for start, end in _windows_of(dataset, config.n_normal, week_by_week):
        window_series = dataset.series.window(start, end)
        report = stream_detect(chunk_series(window_series, chunk_size), config)
        match = _match_window(dataset, window_series, report.events, start)
        windows.append(LiveWindowResult(start_bin=start, end_bin=end,
                                        report=report, match=match))
        for label, count in count_by_label(report.events).items():
            counts[label] += count

    metrics = aggregate_match_metrics([w.match for w in windows],
                                      dataset.ground_truth)
    return LiveEvaluationResult(
        config=config,
        chunk_size=chunk_size,
        label_counts=counts,
        metrics=metrics,
        windows=windows,
    )


def batch_reference(
    dataset: SyntheticDataset,
    n_normal: int = 4,
    confidence: float = 0.999,
    week_by_week: bool = True,
) -> BatchReference:
    """The batch diagnosis over the identical windows and matcher.

    Runs :func:`~repro.core.pipeline.detect_network_anomalies` per window
    (the paper's offline procedure) and aggregates with the same helpers as
    the live harness, so live-vs-batch deltas are free of methodology skew.
    """
    require(len(dataset.ground_truth) > 0, "dataset has no injected anomalies")
    counts = {label: 0 for label in COMBINATION_LABELS}
    windows = _windows_of(dataset, n_normal, week_by_week)
    events_per_window: List[List[AnomalyEvent]] = []
    matches: List[MatchReport] = []
    for start, end in windows:
        window_series = dataset.series.window(start, end)
        report = detect_network_anomalies(window_series, n_normal=n_normal,
                                          confidence=confidence)
        match = _match_window(dataset, window_series, report.events, start)
        events_per_window.append(report.events)
        matches.append(match)
        for label, count in count_by_label(report.events).items():
            counts[label] += count
    return BatchReference(
        label_counts=counts,
        metrics=aggregate_match_metrics(matches, dataset.ground_truth),
        windows=windows,
        events_per_window=events_per_window,
        matches=matches,
    )
