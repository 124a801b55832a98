"""End-to-end subspace diagnosis over a multi-type traffic matrix series.

:func:`detect_network_anomalies` is the library's highest-level entry point:
it runs the subspace detector independently on each traffic type (bytes,
packets, IP-flows), identifies the responsible OD flows for every flagged
timebin, and fuses the per-type detections into aggregated anomaly events —
i.e. everything the paper does before the manual classification step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.detector import DetectionResult, SubspaceDetector
from repro.core.events import AnomalyEvent, Detection, aggregate_detections
from repro.core.identification import MAX_IDENTIFIED_FLOWS, identify_od_flows
from repro.core.subspace import T2Scaling
from repro.flows.timeseries import TrafficMatrixSeries, TrafficType
from repro.utils.validation import ensure_probability, require

__all__ = ["NetworkAnomalyReport", "detect_network_anomalies"]


@dataclass
class NetworkAnomalyReport:
    """Everything produced by one diagnosis pass over a traffic series.

    Attributes
    ----------
    series:
        The analyzed traffic-matrix series.
    results:
        Per-traffic-type :class:`~repro.core.detector.DetectionResult`.
    detections:
        Per-traffic-type raw detection triples (with identified OD flows).
    events:
        The fused, aggregated anomaly events.
    """

    series: TrafficMatrixSeries
    results: Dict[TrafficType, DetectionResult]
    detections: Dict[TrafficType, List[Detection]]
    events: List[AnomalyEvent]

    @property
    def n_events(self) -> int:
        """Number of aggregated anomaly events."""
        return len(self.events)

    def events_with_label(self, label: str) -> List[AnomalyEvent]:
        """Events carrying the given combination label (e.g. ``"BP"``)."""
        return [event for event in self.events if event.traffic_label == label]

    def events_overlapping(self, bins: Sequence[int]) -> List[AnomalyEvent]:
        """Events whose time span intersects *bins*."""
        return [event for event in self.events if event.overlaps_bins(bins)]

    def od_pair_of(self, od_flow_index: int) -> Tuple[str, str]:
        """Translate an OD-flow column index back to its (origin, destination)."""
        return self.series.od_pairs[od_flow_index]

    def label_counts(self) -> Dict[str, int]:
        """Event counts per combination label (the rows of Table 1)."""
        from repro.core.events import count_by_label

        return count_by_label(self.events)


def detect_network_anomalies(
    series: TrafficMatrixSeries,
    n_normal: int = 4,
    confidence: float = 0.999,
    t2_scaling: T2Scaling = T2Scaling.HOTELLING,
    use_t2: bool = True,
    traffic_types: Optional[Sequence[TrafficType]] = None,
) -> NetworkAnomalyReport:
    """Run the full subspace diagnosis over *series*.

    Parameters
    ----------
    series:
        The OD-flow traffic-matrix series (any subset of the three traffic
        types).
    n_normal:
        Normal-subspace dimension ``k`` (paper: 4).
    confidence:
        Confidence level of both control limits (paper: 0.999).
    t2_scaling:
        T² scaling convention.
    use_t2:
        Whether to apply the T² test (disable for the SPE-only ablation).
    traffic_types:
        Which traffic types to analyze (default: all present in *series*).

    Returns
    -------
    NetworkAnomalyReport
        Per-type detection results, identified detections, and fused events.
    """
    ensure_probability(confidence, "confidence")
    types = list(traffic_types) if traffic_types is not None else series.traffic_types
    require(len(types) >= 1, "at least one traffic type must be analyzed")

    results: Dict[TrafficType, DetectionResult] = {}
    detections: Dict[TrafficType, List[Detection]] = {}

    for traffic_type in types:
        traffic_type = TrafficType(traffic_type)
        matrix = series.matrix(traffic_type)
        detector = SubspaceDetector(
            n_normal=n_normal,
            confidence=confidence,
            t2_scaling=t2_scaling,
            use_t2=use_t2,
        )
        result = detector.fit_detect(matrix)
        results[traffic_type] = result

        type_detections: List[Detection] = []
        for bin_detection in result.detections:
            statistic = "spe" if bin_detection.spe_triggered else "t2"
            threshold = (result.spe_threshold if statistic == "spe"
                         else result.t2_threshold)
            flows = identify_od_flows(
                detector.model,
                matrix,
                bin_detection.bin_index,
                statistic,
                threshold,
                max_flows=MAX_IDENTIFIED_FLOWS,
            )
            type_detections.append(Detection(
                traffic_type=traffic_type,
                bin_index=bin_detection.bin_index,
                od_flows=tuple(flows),
                statistic=statistic,
            ))
        detections[traffic_type] = type_detections

    all_detections = [d for per_type in detections.values() for d in per_type]
    events = aggregate_detections(all_detections)
    return NetworkAnomalyReport(
        series=series,
        results=results,
        detections=detections,
        events=events,
    )
