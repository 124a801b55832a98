"""Vectorized binning of parsed flow-record batches into traffic chunks.

:class:`FlowRecordBinner` is the bulk counterpart of
:class:`~repro.flows.aggregation.FlowAggregator`: record batches are
resolved to OD pairs through :class:`~repro.routing.resolver.PoPResolver`
(vectorized over the batch with per-unique-key caches — Abilene's 11-bit
destination anonymization collapses the egress key space, so the cache hit
rate is high), mapped to time bins, and accumulated per (bin, OD column)
with :func:`numpy.add.at`.

``np.add.at`` is unbuffered — it applies additions element by element in
index order — so per cell the floating-point addition order is exactly the
sequential ``+=`` of :class:`FlowAggregator` over the same record stream.
That is what makes the ingest path's matrices **byte-identical** to the
direct aggregation path, not merely close.

Emission is watermark-driven: a bin is sealed once the high-water bin has
advanced more than ``lateness_bins`` past it, chunks come out gapless and
in order (bins nothing was recorded for are explicit zero rows), and
records behind the emission floor are counted late and dropped — the same
discipline ``OnlineEventAggregator`` applies on the detection side, so the
two watermarks compose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.flows.timeseries import TrafficType
from repro.ingest.csv_io import RecordBatch
from repro.routing.resolver import PoPResolver
from repro.streaming.sources import TrafficChunk
from repro.utils.validation import require

__all__ = ["BinningStats", "FlowRecordBinner"]


@dataclass
class BinningStats:
    """Counters describing one binning pass (mutated in place)."""

    records: int = 0              #: records offered
    binned: int = 0               #: records accumulated into some cell
    late_records: int = 0         #: behind the emission floor, dropped
    skipped_records: int = 0      #: before the resume bin (suffix replay)
    out_of_range: int = 0         #: outside the configured bin range
    unresolved_ingress: int = 0   #: no ingress PoP
    unresolved_egress: int = 0    #: ingress ok, no egress PoP
    unknown_od: int = 0           #: resolved OD pair not in the universe

    @property
    def dropped(self) -> int:
        """Total records that did not land in a cell."""
        return self.records - self.binned


class _CodeCache:
    """Persistent int64 key -> int64 code map held as sorted arrays.

    The distinct keys of a batch are looked up with one ``searchsorted``;
    only keys never seen before are resolved (once each, in ascending
    order) and merged in.
    """

    def __init__(self) -> None:
        self._keys = np.empty(0, np.int64)
        self._codes = np.empty(0, np.int64)

    def codes(self, keys: np.ndarray,
              resolve: Callable[[int], int]) -> np.ndarray:
        """Codes of *keys*, calling ``resolve(int) -> int`` for new ones."""
        # Searching the distinct keys in ascending order is several times
        # cheaper than searching every key of the batch in record order.
        unique, inverse = np.unique(keys, return_inverse=True)
        position = np.searchsorted(self._keys, unique)
        found = position < len(self._keys)
        found[found] = self._keys[position[found]] == unique[found]
        if not found.all():
            new = unique[~found]
            new_codes = np.fromiter(map(resolve, new.tolist()), np.int64,
                                    len(new))
            self._keys = np.insert(self._keys, position[~found], new)
            self._codes = np.insert(self._codes, position[~found], new_codes)
            position = np.searchsorted(self._keys, unique)
        return self._codes[position][inverse]


class FlowRecordBinner:
    """Accumulate :class:`RecordBatch`es into gapless in-order chunks.

    Parameters
    ----------
    resolver:
        Ingress/egress PoP resolution (the paper's data-reduction step).
    od_pairs:
        Column universe and ordering of the emitted matrices.
    chunk_size:
        Bins per emitted chunk.  Chunk boundaries are fixed global
        multiples of the chunk size, so a resumed stream reproduces the
        chunks an uninterrupted run would emit.
    bin_seconds, start_seconds:
        The time binning (paper: 300 s bins).
    n_bins:
        Total bins of the stream when known; ``None`` leaves the end open
        (:meth:`finish` then closes at the high-water bin).
    lateness_bins:
        Tolerance for out-of-order records, in bins: a bin is sealed once
        the high-water bin is more than ``lateness_bins`` past it.  The
        high-water bin itself never seals while the stream is open — its
        remaining records may still be in the next batch — so ``0`` suits
        time-ordered exports.
    start_bin:
        Resume point: bins below it are neither buffered nor emitted
        (their records count as ``skipped``), and the first chunk starts
        exactly there.
    inverse_rate:
        Multiplier applied to byte/packet counts (sampling inversion;
        flow counts are *not* scaled — a sampled export cannot recover
        the true flow count by rescaling, see ``flows/sampling.py``).
    registry:
        Optional :class:`~repro.telemetry.MetricsRegistry`; late/bad/
        resolution counters are published under ``ingest_*`` names.
    """

    def __init__(
        self,
        resolver: PoPResolver,
        od_pairs: Sequence[Tuple[str, str]],
        chunk_size: int,
        bin_seconds: int = 300,
        start_seconds: float = 0.0,
        n_bins: Optional[int] = None,
        lateness_bins: int = 0,
        start_bin: int = 0,
        inverse_rate: float = 1.0,
        registry=None,
    ) -> None:
        require(chunk_size >= 1, "chunk_size must be >= 1")
        require(bin_seconds >= 1, "bin_seconds must be >= 1")
        require(n_bins is None or n_bins >= 1,
                "n_bins must be >= 1 when given")
        require(lateness_bins >= 0, "lateness_bins must be non-negative")
        require(start_bin >= 0, "start_bin must be non-negative")
        require(inverse_rate > 0, "inverse_rate must be positive")
        self._resolver = resolver
        self._od_pairs = list(od_pairs)
        self._n_columns = len(self._od_pairs)
        require(self._n_columns >= 1, "od_pairs must be non-empty")
        self._chunk_size = int(chunk_size)
        self._bin_seconds = int(bin_seconds)
        self._start_seconds = float(start_seconds)
        self._n_bins = n_bins if n_bins is None else int(n_bins)
        self._lateness_bins = int(lateness_bins)
        self._start_bin = int(start_bin)
        self._inverse_rate = float(inverse_rate)
        self._stats = BinningStats()
        self._registry = registry

        # PoP-code tables: resolution is vectorized by mapping PoP names to
        # small integer codes and OD pairs to a code × code column matrix.
        pops = sorted({p for pair in self._od_pairs for p in pair}
                      | set(resolver.network.pop_names))
        self._pop_code = {name: i for i, name in enumerate(pops)}
        n_pops = len(pops)
        self._od_column = np.full((n_pops + 1, n_pops + 1), -1, np.int64)
        for column, (origin, destination) in enumerate(self._od_pairs):
            self._od_column[self._pop_code[origin],
                            self._pop_code[destination]] = column
        self._pop_names = pops
        self._n_pops = n_pops
        #: router name -> pop code, -1 when the name does not resolve (the
        #: record then falls back to its source address)
        self._router_code: Dict[object, int] = {}
        #: src address -> pop code (-1 unresolved), for records without a
        #: known router
        self._src_codes = _CodeCache()
        #: anonymized dst -> egress pop code, -1 when unreachable, or
        #: ``-2 - i`` for the multihomed candidate tuple
        #: ``self._multihomed[i]`` (hot-potato tie-break still needed —
        #: stage two of :meth:`_egress_codes`)
        self._dst_codes = _CodeCache()
        self._multihomed: List[Tuple[str, ...]] = []
        #: ``i * n_pops + ingress code`` -> chosen egress pop code
        self._hot_potato = _CodeCache()
        self._anonymized_bits = resolver.anonymized_bits

        # Open bins live in one contiguous rolling window per traffic type
        # (rows for global bins [window_base, window_base + len)): the whole
        # batch accumulates with a single unbuffered np.add.at per type on
        # a flat (bin, column) index, and emission is a row slice.
        self._window_base = self._start_bin
        self._window_bytes = np.zeros((0, self._n_columns))
        self._window_packets = np.zeros((0, self._n_columns))
        self._window_flows = np.zeros((0, self._n_columns))
        self._emit_floor = self._start_bin  # next bin to emit
        self._high_bin = self._start_bin - 1  # highest bin seen
        self._finished = False

    @property
    def stats(self) -> BinningStats:
        """Counters for this binning pass."""
        return self._stats

    @property
    def emitted_watermark(self) -> int:
        """Exclusive end bin of everything emitted so far."""
        return self._emit_floor

    # ------------------------------------------------------------------ #
    # resolution (vectorized with caches)
    # ------------------------------------------------------------------ #
    def _ingress_codes(self, batch: RecordBatch) -> np.ndarray:
        router_code = self._router_code
        routers = batch.router
        # One dict lookup per record in C (map + fromiter); only names
        # never seen before go through the router -> PoP table.
        try:
            codes = np.fromiter(map(router_code.__getitem__, routers),
                                np.int64, batch.n_records)
        except KeyError:
            for name in set(routers).difference(router_code):
                pop = self._resolver.router_pop_map.get(name)
                router_code[name] = -1 if pop is None else self._pop_code[pop]
            codes = np.fromiter(map(router_code.__getitem__, routers),
                                np.int64, batch.n_records)
        fallback = codes < 0
        if fallback.any():
            # Empty or unknown router name: fall back to the source-address
            # table, like PoPResolver.resolve_ingress does — once per
            # distinct source address.
            codes[fallback] = self._src_codes.codes(
                batch.src_addr[fallback], self._src_pop_code)
        return codes

    def _src_pop_code(self, src: int) -> int:
        pop = self._resolver.ingress_table.lookup(src)
        return -1 if pop is None else self._pop_code[pop]

    def _dst_pop_code(self, dst: int) -> int:
        """Ingress-independent egress resolution of one anonymized dst."""
        route = self._resolver.bgp_table.lookup(dst)
        if route is None:
            # Same fallback PoPResolver.resolve_egress applies: customer
            # prefixes absent from BGP.
            pop = self._resolver.ingress_table.lookup(dst)
            return -1 if pop is None else self._pop_code[pop]
        if len(route.egress_pops) == 1:
            return self._pop_code[route.egress_pops[0]]
        index = len(self._multihomed)
        self._multihomed.append(tuple(route.egress_pops))
        return -2 - index

    def _egress_codes(self, batch: RecordBatch,
                      ingress: np.ndarray) -> np.ndarray:
        mask = 0xFFFFFFFF & ~((1 << self._anonymized_bits) - 1) \
            if self._anonymized_bits > 0 else 0xFFFFFFFF
        anonymized = batch.dst_addr & np.int64(mask)
        # Stage one, ingress-independent: one LPM per anonymized
        # destination never seen before (anonymization collapses the key
        # space, so there are few), resolved to a final PoP code,
        # unreachable (-1), or a multihomed marker (<= -2) whose
        # hot-potato tie-break needs the ingress PoP.
        codes = self._dst_codes.codes(anonymized, self._dst_pop_code)
        multihomed = codes <= -2
        if not multihomed.any():
            return codes
        # Stage two, only where needed: hot-potato tie-break once per
        # distinct (destination, ingress) pair.
        codes[multihomed & (ingress < 0)] = -1
        pending = multihomed & (ingress >= 0)
        codes[pending] = self._hot_potato.codes(
            (-2 - codes[pending]) * self._n_pops + ingress[pending],
            self._hot_potato_code)
        return codes

    def _hot_potato_code(self, pair: int) -> int:
        index, ingress_code = divmod(pair, self._n_pops)
        candidates = self._multihomed[index]
        choice = self._resolver.igp.closest_pop(
            list(candidates), self._pop_names[ingress_code])
        if choice is None:
            choice = candidates[0]
        return self._pop_code[choice]

    # ------------------------------------------------------------------ #
    # accumulation
    # ------------------------------------------------------------------ #
    def add_batch(self, batch: RecordBatch) -> List[TrafficChunk]:
        """Accumulate one batch; returns chunks sealed by its arrival."""
        require(not self._finished, "binner is finished")
        n = batch.n_records
        self._stats.records += n
        if n == 0:
            return []

        ingress = self._ingress_codes(batch)
        resolved_ingress = ingress >= 0
        self._stats.unresolved_ingress += int(n - np.count_nonzero(
            resolved_ingress))
        egress = self._egress_codes(batch, ingress)
        resolved = resolved_ingress & (egress >= 0)
        self._stats.unresolved_egress += int(
            np.count_nonzero(resolved_ingress & (egress < 0)))

        columns = self._od_column[np.where(resolved, ingress, 0),
                                  np.where(resolved, egress, 0)]
        known_od = resolved & (columns >= 0)
        self._stats.unknown_od += int(np.count_nonzero(resolved
                                                       & (columns < 0)))

        # floor_divide matches Python's float // (TimeBinning.bin_of), so
        # edge-of-bin timestamps land in the same bin as the direct path.
        bins = np.floor_divide(batch.start_time - self._start_seconds,
                               self._bin_seconds).astype(np.int64)
        in_range = (bins >= 0) & ((bins < self._n_bins)
                                  if self._n_bins is not None else True)
        self._stats.out_of_range += int(np.count_nonzero(known_od
                                                         & ~in_range))
        skipped = known_od & in_range & (bins < self._start_bin)
        self._stats.skipped_records += int(np.count_nonzero(skipped))
        late = known_od & in_range & ~skipped & (bins < self._emit_floor)
        self._stats.late_records += int(np.count_nonzero(late))
        keep = known_od & in_range & ~skipped & ~late

        n_kept = int(np.count_nonzero(keep))
        if n_kept:
            kept_bins = bins[keep]
            kept_columns = columns[keep]
            high = int(kept_bins.max())
            self._grow_window(high)
            # One unbuffered np.add.at per traffic type on the flat
            # (bin, column) index: masking preserves record order, so the
            # per-cell addition order matches the sequential FlowAggregator
            # loop exactly (byte-identical sums).
            flat = (kept_bins - self._window_base) * self._n_columns \
                + kept_columns
            np.add.at(self._window_bytes.ravel(), flat,
                      batch.bytes[keep] * self._inverse_rate)
            np.add.at(self._window_packets.ravel(), flat,
                      batch.packets[keep] * self._inverse_rate)
            np.add.at(self._window_flows.ravel(), flat, 1.0)
            self._high_bin = max(self._high_bin, high)
            self._stats.binned += n_kept
        self._publish_metrics()
        return self._drain_sealed()

    def _grow_window(self, high_bin: int) -> None:
        needed = high_bin + 1 - self._window_base
        have = self._window_bytes.shape[0]
        if needed <= have:
            return
        extra = max(needed - have, have)  # at least double: amortized growth
        pad = ((0, extra), (0, 0))
        self._window_bytes = np.pad(self._window_bytes, pad)
        self._window_packets = np.pad(self._window_packets, pad)
        self._window_flows = np.pad(self._window_flows, pad)

    # ------------------------------------------------------------------ #
    # emission
    # ------------------------------------------------------------------ #
    def _sealed_end(self) -> int:
        """Exclusive end of the bins allowed to leave the buffer."""
        return max(self._emit_floor, self._high_bin - self._lateness_bins)

    def _emit_range(self, start: int, stop: int) -> TrafficChunk:
        # Gapless by construction: window rows no record touched are the
        # zero rows they were allocated as.
        lo, hi = start - self._window_base, stop - self._window_base
        have = self._window_bytes.shape[0]
        n, width = stop - start, self._n_columns

        def rows(window: np.ndarray) -> np.ndarray:
            if hi <= have:
                return window[lo:hi].copy()
            taken = np.zeros((n, width))
            taken[:max(0, have - lo)] = window[lo:have]
            return taken

        chunk = TrafficChunk(start_bin=start, matrices={
            TrafficType.BYTES: rows(self._window_bytes),
            TrafficType.PACKETS: rows(self._window_packets),
            TrafficType.FLOWS: rows(self._window_flows),
        })
        # Slide the window past the emitted rows.
        keep = min(hi, have)
        self._window_bytes = self._window_bytes[keep:]
        self._window_packets = self._window_packets[keep:]
        self._window_flows = self._window_flows[keep:]
        self._window_base = stop
        return chunk

    def _drain_sealed(self) -> List[TrafficChunk]:
        """Emit every complete chunk whose bins are all sealed."""
        sealed = self._sealed_end()
        if self._n_bins is not None:
            sealed = min(sealed, self._n_bins)
        chunks: List[TrafficChunk] = []
        while True:
            # Boundaries at fixed global multiples of chunk_size: resumed
            # streams reproduce the original chunking.
            boundary = (self._emit_floor // self._chunk_size + 1) \
                * self._chunk_size
            if self._n_bins is not None:
                boundary = min(boundary, self._n_bins)
            if boundary > sealed or boundary <= self._emit_floor:
                return chunks
            chunks.append(self._emit_range(self._emit_floor, boundary))
            self._emit_floor = boundary

    def finish(self) -> List[TrafficChunk]:
        """Seal everything and emit the tail (idempotent)."""
        if self._finished:
            return []
        self._finished = True
        end = self._n_bins if self._n_bins is not None else self._high_bin + 1
        chunks: List[TrafficChunk] = []
        while self._emit_floor < end:
            boundary = min(end, (self._emit_floor // self._chunk_size + 1)
                           * self._chunk_size)
            chunks.append(self._emit_range(self._emit_floor, boundary))
            self._emit_floor = boundary
        require(not np.any(self._window_bytes),
                "internal error: buffered bins survived finish()")
        self._publish_metrics()
        return chunks

    def _publish_metrics(self) -> None:
        if self._registry is None:
            return
        stats = self._stats
        for name, value, help_text in (
            ("ingest_records_total", stats.records,
             "Flow records offered to the binner"),
            ("ingest_records_binned_total", stats.binned,
             "Flow records accumulated into an OD cell"),
            ("ingest_late_records_total", stats.late_records,
             "Records dropped behind the emission watermark"),
            ("ingest_unresolved_records_total",
             stats.unresolved_ingress + stats.unresolved_egress,
             "Records whose ingress or egress PoP did not resolve"),
        ):
            counter = self._registry.counter(name, help=help_text)
            delta = value - counter.value
            if delta > 0:
                counter.inc(delta)
