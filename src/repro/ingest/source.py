"""The flow-record ingestion :class:`~repro.streaming.sources.ChunkSource`.

:class:`FlowCsvSource` wires the vectorized parser
(:mod:`repro.ingest.csv_io`) into the watermark binner
(:mod:`repro.ingest.binning`) behind the same ``ChunkSource`` protocol
every other feed implements, so on-disk NetFlow-style exports drive
``stream_detect`` / ``DetectionService`` exactly like the synthetic
generators do — including ``resume(start_bin)`` suffix replay for
checkpoint-restored detectors (the file is re-read; records before the
resume bin are skipped cheaply at the binning stage).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from repro.flows.sampling import SamplingConfig
from repro.ingest.binning import BinningStats, FlowRecordBinner
from repro.ingest.csv_io import (
    BAD_ROW_POLICIES,
    ParseStats,
    read_flow_batches,
)
from repro.routing.resolver import PoPResolver
from repro.streaming.sources import TrafficChunk
from repro.topology.network import Network
from repro.utils.validation import require

__all__ = ["IngestConfig", "IngestStats", "FlowCsvSource"]


@dataclass(frozen=True)
class IngestConfig:
    """Configuration of the CSV → chunk ingestion pipeline.

    Parameters
    ----------
    chunk_size:
        Timebins per emitted :class:`TrafficChunk`.
    bin_seconds, start_seconds:
        The time binning (paper: 300 s bins).
    n_bins:
        Total bins of the stream when known (closes the stream end and
        makes the final chunk align with the direct generator path);
        ``None`` leaves the end open — it is determined by the data.
    lateness_bins:
        Watermark slack for out-of-order records: a bin seals only once
        the high-water bin is more than this many bins past it (``0``: as
        soon as a record of any later bin arrived).
    batch_rows:
        CSV rows per vectorized parse batch.
    on_bad_row:
        Dirty-row policy: ``"skip"`` | ``"raise"`` | ``"propagate"``
        (see :func:`repro.ingest.csv_io.read_flow_batches`).
    parse_workers:
        Parse processes; ``1`` parses inline, ``> 1`` fans batches out to
        a process pool (multi-core boxes) with identical output.
    sampling:
        The :class:`SamplingConfig` the export was produced under, if
        any.  Byte/packet counts are multiplied by the inverse sampling
        rate (unless the exporter already rescaled) so sampled exports
        yield unbiased OD volume matrices; flow counts are left as
        sampled (thinning is not invertible per record).
    """

    chunk_size: int = 48
    bin_seconds: int = 300
    start_seconds: float = 0.0
    n_bins: Optional[int] = None
    lateness_bins: int = 0
    batch_rows: int = 8192
    on_bad_row: str = "skip"
    parse_workers: int = 1
    sampling: Optional[SamplingConfig] = None

    def __post_init__(self) -> None:
        require(self.chunk_size >= 1, "chunk_size must be >= 1")
        require(self.bin_seconds >= 1, "bin_seconds must be >= 1")
        require(self.n_bins is None or self.n_bins >= 1,
                "n_bins must be >= 1 when given")
        require(self.lateness_bins >= 0,
                "lateness_bins must be non-negative")
        require(self.batch_rows >= 1, "batch_rows must be >= 1")
        require(self.on_bad_row in BAD_ROW_POLICIES,
                f"on_bad_row must be one of {BAD_ROW_POLICIES}")
        require(self.parse_workers >= 1, "parse_workers must be >= 1")

    @property
    def inverse_rate(self) -> float:
        """Byte/packet multiplier that inverts the export's sampling."""
        if self.sampling is None or self.sampling.rescale:
            return 1.0
        return self.sampling.inverse_rate


@dataclass
class IngestStats:
    """Snapshot of one ingestion pass: parsing + binning + throughput."""

    parse: ParseStats
    binning: BinningStats
    emitted_bins: int = 0
    elapsed_seconds: float = 0.0

    @property
    def records_per_second(self) -> float:
        """Parsed records per wall-clock second of the pass."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.parse.records / self.elapsed_seconds

    @property
    def bins_per_second(self) -> float:
        """Emitted bins per wall-clock second of the pass."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.emitted_bins / self.elapsed_seconds


class FlowCsvSource:
    """Chunked OD-matrix stream parsed from CSV flow-record export(s).

    Parameters
    ----------
    paths:
        One CSV path or an ordered sequence (their logical concatenation).
    network:
        Backbone topology; provides the default resolver and OD universe.
    config:
        The :class:`IngestConfig`.
    resolver:
        Explicit :class:`PoPResolver` (default: built from *network*).
    od_pairs:
        Column universe/order (default: ``network.od_pairs()`` — the same
        row-major order the synthetic datasets use).
    registry:
        Optional :class:`~repro.telemetry.MetricsRegistry` for the
        ``ingest_*`` counters and the records/sec gauge.
    """

    def __init__(
        self,
        paths: Union[str, Sequence[str]],
        network: Optional[Network] = None,
        config: IngestConfig = IngestConfig(),
        resolver: Optional[PoPResolver] = None,
        od_pairs: Optional[Sequence[Tuple[str, str]]] = None,
        registry=None,
    ) -> None:
        require(network is not None or resolver is not None,
                "either network or resolver is required")
        self._paths = ([paths] if isinstance(paths, (str, bytes))
                       else list(paths))
        require(len(self._paths) >= 1, "at least one path is required")
        self._resolver = (resolver if resolver is not None
                          else PoPResolver(network))
        self._od_pairs = (list(od_pairs) if od_pairs is not None
                          else self._resolver.network.od_pairs())
        self._config = config
        self._registry = registry
        self._resume_bin = 0
        self._last_stats: Optional[IngestStats] = None

    @property
    def config(self) -> IngestConfig:
        """The ingestion configuration."""
        return self._config

    @property
    def od_pairs(self) -> List[Tuple[str, str]]:
        """Column universe and ordering of the emitted matrices."""
        return list(self._od_pairs)

    @property
    def start_bin(self) -> int:
        """Stream-global bin iteration starts at."""
        return self._resume_bin

    @property
    def stats(self) -> Optional[IngestStats]:
        """Statistics of the most recent (possibly in-flight) iteration."""
        return self._last_stats

    def resume(self, start_bin: int) -> "FlowCsvSource":
        """This stream from *start_bin* on (the file is re-read; earlier
        records are skipped at the binning stage without being buffered)."""
        require(start_bin >= 0, "start_bin must be non-negative")
        require(self._config.n_bins is None
                or start_bin <= self._config.n_bins,
                f"resume bin {start_bin} past the stream end "
                f"{self._config.n_bins}")
        clone = FlowCsvSource(
            list(self._paths),
            config=self._config,
            resolver=self._resolver,
            od_pairs=self._od_pairs,
            registry=self._registry,
        )
        clone._resume_bin = int(start_bin)
        return clone

    def __iter__(self) -> Iterator[TrafficChunk]:
        config = self._config
        parse_stats = ParseStats()
        binner = FlowRecordBinner(
            self._resolver,
            self._od_pairs,
            chunk_size=config.chunk_size,
            bin_seconds=config.bin_seconds,
            start_seconds=config.start_seconds,
            n_bins=config.n_bins,
            lateness_bins=config.lateness_bins,
            start_bin=self._resume_bin,
            inverse_rate=config.inverse_rate,
            registry=self._registry,
        )
        stats = IngestStats(parse=parse_stats, binning=binner.stats)
        self._last_stats = stats
        started = time.perf_counter()

        def account(chunks: List[TrafficChunk]) -> List[TrafficChunk]:
            stats.elapsed_seconds = time.perf_counter() - started
            for chunk in chunks:
                stats.emitted_bins += chunk.n_bins
            if self._registry is not None and stats.elapsed_seconds > 0:
                self._registry.gauge(
                    "ingest_records_per_second",
                    help="Parse+bin throughput of the last ingest pass",
                ).set(stats.records_per_second)
            return chunks

        for batch in read_flow_batches(
                self._paths, batch_rows=config.batch_rows,
                on_bad_row=config.on_bad_row, stats=parse_stats,
                workers=config.parse_workers):
            yield from account(binner.add_batch(batch))
        yield from account(binner.finish())
