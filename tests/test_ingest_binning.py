"""FlowRecordBinner: byte-parity with FlowAggregator, watermark discipline.

The load-bearing invariant: accumulating a record stream through the
vectorized binner produces matrices **bit-identical** to the sequential
``aggregate_records`` path (``np.add.at`` is unbuffered, so the per-cell
addition order matches), and emission is gapless, in-order, and sealed by
the lateness watermark.
"""

import numpy as np
import pytest

from repro.flows.aggregation import aggregate_records
from repro.flows.records import FiveTuple, FlowRecord
from repro.flows.timeseries import TrafficType
from repro.ingest import BinningStats, FlowRecordBinner
from repro.ingest.csv_io import RecordBatch
from repro.routing.bgp import BGPTable
from repro.routing.prefixes import Prefix
from repro.routing.resolver import PoPResolver
from repro.telemetry import MetricsRegistry
from repro.traffic.flowgen import FlowSynthesizer
from repro.utils.timebins import TimeBinning

BIN_SECONDS = 300


@pytest.fixture(scope="module")
def resolver(abilene):
    return PoPResolver(abilene)


@pytest.fixture(scope="module")
def od_pairs(abilene):
    return abilene.od_pairs()


@pytest.fixture(scope="module")
def window_records(abilene, clean_series):
    """Flow records synthesized from a 96-bin window of clean traffic."""
    window = clean_series.window(0, 96)
    synthesizer = FlowSynthesizer(abilene, seed=7, max_flows_per_cell=2)
    return window, list(synthesizer.synthesize_series(window))


@pytest.fixture(scope="module")
def proto(window_records, resolver, od_pairs):
    """One record known to resolve to an OD column."""
    _, records = window_records
    for record in records[:50]:
        binner = FlowRecordBinner(resolver, od_pairs, chunk_size=4,
                                  bin_seconds=BIN_SECONDS)
        binner.add_batch(_batch_from_records([record]))
        if binner.stats.binned == 1:
            return record
    raise AssertionError("no resolvable prototype record found")


def _batch_from_records(records):
    return RecordBatch(
        np.array([r.src_address for r in records], np.int64),
        np.array([r.dst_address for r in records], np.int64),
        np.array([r.src_port for r in records], np.int64),
        np.array([r.dst_port for r in records], np.int64),
        np.array([r.protocol for r in records], np.int64),
        np.array([r.start_time for r in records], np.float64),
        np.array([r.end_time for r in records], np.float64),
        np.array([r.bytes for r in records], np.float64),
        np.array([r.packets for r in records], np.float64),
        np.array([r.observing_router or "" for r in records], object),
    )


def _batch_at_bins(proto, bins, bytes_value=100.0):
    n = len(bins)
    start = np.array([b * BIN_SECONDS + 1.0 for b in bins], np.float64)
    return RecordBatch(
        np.full(n, proto.src_address, np.int64),
        np.full(n, proto.dst_address, np.int64),
        np.full(n, proto.src_port, np.int64),
        np.full(n, proto.dst_port, np.int64),
        np.full(n, proto.protocol, np.int64),
        start,
        start + 1.0,
        np.full(n, float(bytes_value), np.float64),
        np.full(n, 1.0, np.float64),
        np.array([proto.observing_router or ""] * n, object),
    )


def _stacked(chunks, traffic_type):
    return np.vstack([chunk.matrix(traffic_type) for chunk in chunks])


class TestByteParity:
    def test_batch_size_does_not_change_the_bits(
            self, window_records, resolver, od_pairs):
        window, records = window_records
        binning = window.binning

        def run(step):
            binner = FlowRecordBinner(
                resolver, od_pairs, chunk_size=48,
                bin_seconds=binning.bin_seconds,
                start_seconds=binning.start_seconds,
                n_bins=binning.n_bins,
                lateness_bins=binning.n_bins)
            chunks = []
            for start in range(0, len(records), step):
                chunks.extend(binner.add_batch(
                    _batch_from_records(records[start:start + step])))
            chunks.extend(binner.finish())
            return chunks

        small, big = run(137), run(100_000)
        assert len(small) == len(big)
        for a, b in zip(small, big):
            for traffic_type in a.traffic_types:
                assert np.array_equal(a.matrix(traffic_type),
                                      b.matrix(traffic_type))


class TestWatermark:
    def test_lateness_window_delays_sealing(self, resolver, od_pairs, proto):
        binner = FlowRecordBinner(resolver, od_pairs, chunk_size=2,
                                  bin_seconds=BIN_SECONDS, lateness_bins=2)
        chunks = binner.add_batch(_batch_at_bins(proto, [0, 1, 2, 3, 4, 5]))
        # High-water bin is 5; bins more than 2 behind it (< 3) are sealed.
        assert [c.start_bin for c in chunks] == [0]
        assert binner.emitted_watermark == 2

        # A record inside the lateness window is accepted...
        late_ok = binner.add_batch(_batch_at_bins(proto, [4], bytes_value=7.0))
        assert late_ok == [] and binner.stats.late_records == 0
        # ...one behind the emission floor is late and dropped.
        binner.add_batch(_batch_at_bins(proto, [1]))
        assert binner.stats.late_records == 1

        tail = binner.finish()
        assert [c.start_bin for c in tail] == [2, 4]
        assert tail[-1].n_bins == 2
        # The accepted in-window record landed on top of the original one.
        assert tail[-1].matrix(TrafficType.FLOWS).sum() == 3.0

    def test_emission_is_gapless_with_zero_rows(self, resolver, od_pairs,
                                                proto):
        binner = FlowRecordBinner(resolver, od_pairs, chunk_size=3,
                                  bin_seconds=BIN_SECONDS)
        chunks = binner.add_batch(_batch_at_bins(proto, [0, 5]))
        chunks += binner.finish()
        stacked = _stacked(chunks, TrafficType.BYTES)
        assert stacked.shape[0] == 6
        assert [c.start_bin for c in chunks] == [0, 3]
        touched = np.nonzero(stacked.sum(axis=1))[0]
        assert touched.tolist() == [0, 5]
        flows = _stacked(chunks, TrafficType.FLOWS)
        assert flows.sum() == 2.0

    def test_out_of_range_records_are_counted(self, resolver, od_pairs,
                                              proto):
        binner = FlowRecordBinner(resolver, od_pairs, chunk_size=2,
                                  bin_seconds=BIN_SECONDS, n_bins=4)
        batch = _batch_at_bins(proto, [0, 10])
        batch.start_time[1] = 10 * BIN_SECONDS + 1.0
        binner.add_batch(batch)
        negative = _batch_at_bins(proto, [0])
        negative.start_time[0] = -2 * BIN_SECONDS
        negative.end_time[0] = negative.start_time[0] + 1.0
        binner.add_batch(negative)
        assert binner.stats.out_of_range == 2
        assert binner.stats.binned == 1

    def test_resume_skips_records_below_start_bin(self, resolver, od_pairs,
                                                  proto):
        binner = FlowRecordBinner(resolver, od_pairs, chunk_size=2,
                                  bin_seconds=BIN_SECONDS, n_bins=8,
                                  start_bin=4)
        chunks = binner.add_batch(_batch_at_bins(proto, [1, 2, 5]))
        chunks += binner.finish()
        assert binner.stats.skipped_records == 2
        assert binner.stats.binned == 1
        # The first resumed chunk starts exactly at the resume bin and
        # keeps the original (global multiple-of-chunk-size) boundaries.
        assert [c.start_bin for c in chunks] == [4, 6]

    def test_unresolved_records_are_counted_not_binned(self, resolver,
                                                       od_pairs):
        binner = FlowRecordBinner(resolver, od_pairs, chunk_size=2,
                                  bin_seconds=BIN_SECONDS)
        batch = RecordBatch(
            np.array([0], np.int64), np.array([0], np.int64),
            np.array([1], np.int64), np.array([2], np.int64),
            np.array([6], np.int64),
            np.array([1.0]), np.array([2.0]),
            np.array([10.0]), np.array([1.0]),
            np.array(["no-such-router"], object),
        )
        binner.add_batch(batch)
        assert binner.stats.unresolved_ingress == 1
        assert binner.stats.binned == 0
        assert binner.finish() == []

    def test_finish_is_idempotent_and_seals(self, resolver, od_pairs, proto):
        binner = FlowRecordBinner(resolver, od_pairs, chunk_size=4,
                                  bin_seconds=BIN_SECONDS)
        binner.add_batch(_batch_at_bins(proto, [0, 1]))
        assert len(binner.finish()) == 1
        assert binner.finish() == []
        with pytest.raises(ValueError, match="finished"):
            binner.add_batch(_batch_at_bins(proto, [2]))

    def test_sampling_inversion_scales_bytes_and_packets_only(
            self, resolver, od_pairs, proto):
        plain = FlowRecordBinner(resolver, od_pairs, chunk_size=2,
                                 bin_seconds=BIN_SECONDS)
        inverted = FlowRecordBinner(resolver, od_pairs, chunk_size=2,
                                    bin_seconds=BIN_SECONDS, inverse_rate=4.0)
        emitted = [
            binner.add_batch(_batch_at_bins(proto, [0, 1], bytes_value=25.0))
            + binner.finish()
            for binner in (plain, inverted)
        ]
        a, b = emitted
        assert np.array_equal(b[0].matrix(TrafficType.BYTES),
                              4.0 * a[0].matrix(TrafficType.BYTES))
        assert np.array_equal(b[0].matrix(TrafficType.PACKETS),
                              4.0 * a[0].matrix(TrafficType.PACKETS))
        # Flow counts are never rescaled: thinning is not invertible.
        assert np.array_equal(b[0].matrix(TrafficType.FLOWS),
                              a[0].matrix(TrafficType.FLOWS))

    def test_metrics_are_published_as_monotonic_counters(
            self, resolver, od_pairs, proto):
        registry = MetricsRegistry()
        binner = FlowRecordBinner(resolver, od_pairs, chunk_size=2,
                                  bin_seconds=BIN_SECONDS, registry=registry)
        binner.add_batch(_batch_at_bins(proto, [0, 1, 2]))
        binner.add_batch(_batch_at_bins(proto, [3]))
        binner.finish()
        assert registry.value("ingest_records_total") == 4
        assert registry.value("ingest_records_binned_total") == 4


class TestResolutionCaches:
    """The binner's array-held resolution caches against the per-record
    resolver: multihomed destinations (hot-potato per ingress PoP),
    unknown and empty router names (source-address fallback), unresolved
    sources and unreachable destinations, with batch sizes that make the
    caches grow mid-stream and keys arrive out of order."""

    N_BINS = 12

    @pytest.fixture(scope="class")
    def cache_resolver(self, abilene):
        # Beyond CALREN (LOSA/SNVA), announce extra prefixes from three
        # PoPs each so the hot-potato choice varies with the ingress PoP.
        bgp = BGPTable.from_customers(abilene)
        bgp.announce("10.200.0.0/16", ("NYCM", "LOSA", "HSTN"))
        bgp.announce("10.201.0.0/16", ("SNVA", "WASH", "KSCY"))
        return PoPResolver(abilene, bgp_table=bgp)

    @pytest.fixture(scope="class")
    def cache_records(self, abilene):
        rng = np.random.default_rng(2024)
        customer_prefixes = [Prefix.parse(text)
                             for customer in abilene.customers
                             for text in customer.prefixes]
        destinations = customer_prefixes + [
            Prefix.parse("10.200.0.0/16"), Prefix.parse("10.201.0.0/16"),
            Prefix.parse("10.108.0.0/16")]  # the multihomed CALREN
        unrouted = Prefix.parse("203.0.113.0/24")  # in no table at all
        routers = [r.name for r in abilene.routers] + ["", "no-such-router"]

        def address_in(prefix):
            span = 1 << (32 - prefix.length)
            return prefix.network + int(rng.integers(0, span))

        records = []
        for _ in range(1500):
            src_prefix = (unrouted if rng.random() < 0.1 else
                          customer_prefixes[rng.integers(len(customer_prefixes))])
            dst_prefix = (unrouted if rng.random() < 0.1 else
                          destinations[rng.integers(len(destinations))])
            # Few distinct sources, so the source cache sees repeats.
            src = address_in(src_prefix) & ~0xFF
            start = float(rng.uniform(0, self.N_BINS * BIN_SECONDS))
            records.append(FlowRecord(
                FiveTuple(src, address_in(dst_prefix),
                          int(rng.integers(1024, 65536)), 80, 6),
                start, start + float(rng.uniform(0, 60)),
                float(rng.uniform(40, 1e6)), float(rng.integers(1, 1000)),
                observing_router=routers[rng.integers(len(routers))]))
        return records

    @pytest.mark.parametrize("batch_rows", [1, 7, 4096])
    def test_chunks_match_resolver_and_aggregator_bitwise(
            self, cache_resolver, cache_records, od_pairs, batch_rows):
        binning = TimeBinning(n_bins=self.N_BINS, bin_seconds=BIN_SECONDS)
        resolved, resolution = cache_resolver.resolve_records(cache_records)
        direct = aggregate_records(resolved, od_pairs, binning)
        # Every resolution branch is exercised.
        assert resolution.unresolved_ingress > 0
        assert resolution.unresolved_egress > 0
        for text in ("10.200.0.0/16", "10.201.0.0/16"):
            prefix = Prefix.parse(text)
            assert len({r.egress_pop for r in resolved
                        if prefix.contains(r.dst_address)}) > 1, text

        binner = FlowRecordBinner(
            cache_resolver, od_pairs, chunk_size=5, bin_seconds=BIN_SECONDS,
            n_bins=self.N_BINS, lateness_bins=self.N_BINS)
        chunks = []
        for start in range(0, len(cache_records), batch_rows):
            chunks.extend(binner.add_batch(_batch_from_records(
                cache_records[start:start + batch_rows])))
        chunks.extend(binner.finish())

        stats = binner.stats
        assert stats == BinningStats(
            records=len(cache_records), binned=len(resolved),
            unresolved_ingress=resolution.unresolved_ingress,
            unresolved_egress=resolution.unresolved_egress)
        for traffic_type in (TrafficType.BYTES, TrafficType.PACKETS,
                             TrafficType.FLOWS):
            assert np.array_equal(
                _stacked(chunks, traffic_type).view(np.int64),
                direct.matrix(traffic_type).view(np.int64)), traffic_type
