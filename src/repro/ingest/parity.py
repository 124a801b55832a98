"""Round-trip parity proof: generator path ≡ export → parse → bin path.

The acceptance bar of the ingestion plane is not "close": a synthesized
traffic week, expanded to flow records, exported to CSV, parsed back and
re-binned must produce **byte-identical** OD matrices — and therefore
identical detection events — to aggregating the very same records in
memory.  Three mechanisms make that exact:

1. the CSV hop is lossless (``repr`` shortest-round-trip floats,
   integer addresses);
2. the binner's ``np.add.at`` accumulates per cell in record order, the
   same floating-point addition order as ``FlowAggregator``'s sequential
   ``+=``;
3. both paths share one resolver, one binning, and one OD column order.

:func:`round_trip_check` runs both paths end to end and reports the
comparison; tests and the CI ingest smoke step call it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.flows.aggregation import aggregate_records
from repro.flows.sampling import SamplingConfig, sample_flow_records
from repro.flows.timeseries import TrafficMatrixSeries
from repro.ingest.csv_io import export_flow_csv
from repro.ingest.source import FlowCsvSource, IngestConfig
from repro.routing.resolver import PoPResolver
from repro.streaming.config import StreamingConfig
from repro.streaming.pipeline import stream_detect
from repro.streaming.sources import ChunkedSeriesSource
from repro.topology.network import Network
from repro.traffic.flowgen import FlowSynthesizer
from repro.utils.validation import require

__all__ = ["RoundTripReport", "export_series_records", "round_trip_check"]


@dataclass
class RoundTripReport:
    """Outcome of one generator-vs-ingest round trip."""

    matrices_identical: bool      #: every traffic type bit-for-bit equal
    events_identical: bool        #: detection event lists equal
    max_abs_difference: float     #: 0.0 when identical
    n_records_exported: int       #: raw records written to CSV
    n_direct_events: int
    n_ingest_events: int

    @property
    def ok(self) -> bool:
        """True when both matrices and events match exactly."""
        return self.matrices_identical and self.events_identical


def export_series_records(
    series: TrafficMatrixSeries,
    network: Network,
    path,
    seed: int = 0,
    max_flows_per_cell: int = 50,
    sampling: Optional[SamplingConfig] = None,
    append: bool = False,
    header: bool = True,
):
    """Expand *series* to flow records and export them to CSV at *path*.

    Returns the synthesized record list (post-sampling when *sampling* is
    given) so callers can run the in-memory path over the very same
    records.
    """
    synthesizer = FlowSynthesizer(network, seed=seed,
                                  max_flows_per_cell=max_flows_per_cell)
    records = list(synthesizer.synthesize_series(series))
    if sampling is not None:
        records = sample_flow_records(records, sampling, seed=seed)
    export_flow_csv(records, path, append=append, header=header)
    return records


def round_trip_check(
    series: TrafficMatrixSeries,
    network: Network,
    csv_path,
    seed: int = 0,
    max_flows_per_cell: int = 50,
    sampling: Optional[SamplingConfig] = None,
    streaming_config: Optional[StreamingConfig] = None,
    ingest_config: Optional[IngestConfig] = None,
) -> RoundTripReport:
    """Run both paths over one synthesized record stream and compare.

    Direct path: synthesize → resolve → ``aggregate_records`` →
    ``ChunkedSeriesSource`` → ``stream_detect``.  Ingest path: the same
    records → CSV at *csv_path* → ``FlowCsvSource`` → ``stream_detect``.
    """
    binning = series.binning
    records = export_series_records(
        series, network, csv_path, seed=seed,
        max_flows_per_cell=max_flows_per_cell, sampling=sampling)

    resolver = PoPResolver(network)
    od_pairs = network.od_pairs()
    if ingest_config is None:
        ingest_config = IngestConfig(
            bin_seconds=binning.bin_seconds,
            start_seconds=binning.start_seconds,
            n_bins=binning.n_bins,
            sampling=sampling,
        )
    require(ingest_config.n_bins == binning.n_bins
            and ingest_config.bin_seconds == binning.bin_seconds,
            "ingest_config binning must match the series binning")

    # Direct path over the identical records — including the identical
    # inverse-rate scaling, applied per record before aggregation with
    # the same multiply the binner uses.
    scale = ingest_config.inverse_rate
    resolved, _ = resolver.resolve_records(records)
    if scale != 1.0:
        resolved = [r.scaled(scale) for r in resolved]
    direct_series = aggregate_records(resolved, od_pairs, binning)
    direct_source = ChunkedSeriesSource(direct_series,
                                        ingest_config.chunk_size)

    ingest_source = FlowCsvSource(
        csv_path, config=ingest_config, resolver=resolver,
        od_pairs=od_pairs)
    parsed_chunks = list(ingest_source)

    max_diff = 0.0
    identical = True
    direct_chunks = list(direct_source)
    if len(direct_chunks) != len(parsed_chunks):
        identical = False
        max_diff = float("inf")
    else:
        for direct, ingest in zip(direct_chunks, parsed_chunks):
            for traffic_type in direct.traffic_types:
                a = direct.matrix(traffic_type)
                b = ingest.matrix(traffic_type)
                if a.shape != b.shape or direct.start_bin != ingest.start_bin:
                    identical = False
                    max_diff = float("inf")
                    continue
                if not np.array_equal(a, b):
                    identical = False
                    max_diff = max(max_diff,
                                   float(np.max(np.abs(a - b))))

    if streaming_config is None:
        streaming_config = StreamingConfig()
    direct_events = _events(direct_source, streaming_config)
    ingest_events = _events(ingest_source, streaming_config)

    return RoundTripReport(
        matrices_identical=identical,
        events_identical=direct_events == ingest_events,
        max_abs_difference=max_diff,
        n_records_exported=len(records),
        n_direct_events=len(direct_events),
        n_ingest_events=len(ingest_events),
    )


def _events(source, config: StreamingConfig) -> List:
    report = stream_detect(source, config=config)
    return list(report.events)
