"""CSV flow-record parser/exporter: round trips, dirty data, parallelism.

The committed fixture ``tests/data/flows_fixture.csv`` is a deliberately
dirty concatenated export: a stray mid-file header, a blank line, a
malformed address, a NaN byte count, a negative byte count, an inverted
time range, an out-of-range port, and a record without a router name.
Every dirty-row policy is pinned against it.
"""

import os

import numpy as np
import pytest

from repro.flows.records import FiveTuple, FlowRecord
from repro.ingest import csv_io
from repro.ingest import (
    FLOW_CSV_COLUMNS,
    ParseStats,
    export_flow_csv,
    read_flow_batches,
)

FIXTURE = os.path.join(os.path.dirname(__file__), "data",
                       "flows_fixture.csv")


def _records():
    return [
        FlowRecord(FiveTuple(167772161, 167772162, 1234, 80, 6),
                   0.0, 10.0, 1000.0, 10.0, observing_router="r1"),
        FlowRecord(FiveTuple(3232235521, 167772162, 4321, 443, 17),
                   300.5, 310.25, 2048.125, 4.0, observing_router="r2"),
        FlowRecord(FiveTuple(1, 2, 0, 0, 0),
                   600.0, 600.0, 0.5, 1.0),
    ]


def _read_all(path, **kwargs):
    stats = kwargs.pop("stats", ParseStats())
    batches = list(read_flow_batches(path, stats=stats, **kwargs))
    return batches, stats


class TestExportRoundTrip:
    def test_export_then_parse_is_lossless(self, tmp_path):
        path = tmp_path / "flows.csv"
        records = _records()
        assert export_flow_csv(records, path) == len(records)
        batches, stats = _read_all(str(path))
        assert stats.records == len(records)
        assert stats.bad_rows == 0
        assert stats.header_rows == 1
        (batch,) = batches
        assert batch.n_records == len(records)
        assert batch.src_addr.dtype == np.int64
        assert batch.start_time.dtype == np.float64
        for i, record in enumerate(records):
            assert batch.src_addr[i] == record.src_address
            assert batch.dst_addr[i] == record.dst_address
            assert batch.src_port[i] == record.src_port
            assert batch.protocol[i] == record.protocol
            # repr shortest-round-trip floats survive the text hop exactly.
            assert batch.start_time[i] == record.start_time
            assert batch.end_time[i] == record.end_time
            assert batch.bytes[i] == record.bytes
            assert batch.packets[i] == record.packets
            assert batch.router[i] == (record.observing_router or "")

    def test_append_reproduces_concatenated_export(self, tmp_path):
        path = tmp_path / "cat.csv"
        export_flow_csv(_records(), path)
        export_flow_csv(_records(), path, append=True, header=True)
        batches, stats = _read_all(str(path))
        assert stats.header_rows == 2
        assert stats.records == 2 * len(_records())
        assert sum(b.n_records for b in batches) == stats.records

    def test_multiple_paths_are_logically_concatenated(self, tmp_path):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        export_flow_csv(_records(), first)
        export_flow_csv(_records(), second)
        batches, stats = _read_all([str(first), str(second)])
        assert stats.records == 2 * len(_records())
        assert stats.header_rows == 2
        assert sum(b.n_records for b in batches) == stats.records


class TestDirtyDataPolicies:
    def test_skip_counts_every_kind_of_dirt(self):
        batches, stats = _read_all(FIXTURE, on_bad_row="skip")
        assert stats.header_rows == 2       # leading + mid-file concat
        assert stats.rows == 8              # data lines (blank excluded)
        assert stats.records == 3           # two clean + routerless tail row
        assert stats.bad_rows == 5
        assert stats.propagated_rows == 0
        total = sum(b.n_records for b in batches)
        assert total == 3
        # Dotted-quad and integer forms of the same address are one value.
        assert batches[0].src_addr[0] == batches[0].src_addr[1] == 167772161

    def test_propagate_keeps_nonfinite_counts_only(self):
        batches, stats = _read_all(FIXTURE, on_bad_row="propagate")
        # The NaN-bytes row rides through; the negative-bytes row, the
        # inverted time range, the bad address and the bad port stay out.
        assert stats.records == 4
        assert stats.bad_rows == 4
        assert stats.propagated_rows == 1
        merged = np.concatenate([b.bytes for b in batches])
        assert np.isnan(merged).sum() == 1

    def test_raise_pinpoints_the_offending_line(self):
        with pytest.raises(ValueError, match="bad flow-record row.*badaddr"):
            list(read_flow_batches(FIXTURE, on_bad_row="raise"))

    def test_policy_validation(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            list(read_flow_batches(str(path), on_bad_row="ignore"))
        with pytest.raises(ValueError):
            list(read_flow_batches(str(path), batch_rows=0))
        with pytest.raises(ValueError):
            list(read_flow_batches(str(path), workers=0))
        with pytest.raises(ValueError):
            list(read_flow_batches([]))


class TestParallelParse:
    def _flatten(self, batches):
        return {
            name: np.concatenate([getattr(b, name) for b in batches])
            for name in ("src_addr", "dst_addr", "src_port", "dst_port",
                         "protocol", "start_time", "end_time", "bytes",
                         "packets", "router")
        }

    def test_workers_produce_bit_identical_batches(self, tmp_path):
        path = tmp_path / "big.csv"
        export_flow_csv(
            [FlowRecord(FiveTuple(i + 1, 2 * i + 1, i % 65536, 80, 6),
                        float(i), float(i) + 0.5, 100.25 + i, 1.0 + i % 7,
                        observing_router=f"r{i % 3}")
             for i in range(2000)],
            path)
        serial, serial_stats = _read_all(str(path), batch_rows=256)
        parallel, parallel_stats = _read_all(str(path), batch_rows=256,
                                             workers=2)
        a, b = self._flatten(serial), self._flatten(parallel)
        for name, column in a.items():
            assert np.array_equal(column, b[name],
                                  equal_nan=column.dtype.kind == "f"), name
        assert serial_stats == parallel_stats

    def test_workers_agree_on_dirty_input(self):
        _, serial = _read_all(FIXTURE, batch_rows=2)
        _, parallel = _read_all(FIXTURE, batch_rows=2, workers=2)
        assert serial == parallel
        assert serial.records == 3 and serial.bad_rows == 5

    def test_small_batches_equal_one_big_batch(self, tmp_path):
        path = tmp_path / "flows.csv"
        export_flow_csv(_records(), path)
        small, small_stats = _read_all(str(path), batch_rows=1)
        big, big_stats = _read_all(str(path), batch_rows=10_000)
        assert self._flatten(small).keys() == self._flatten(big).keys()
        for name, column in self._flatten(small).items():
            assert np.array_equal(column, self._flatten(big)[name]), name
        assert small_stats == big_stats


def test_parse_stats_merge_sums_counters():
    left = ParseStats(rows=3, records=2, bad_rows=1, header_rows=1,
                      propagated_rows=0)
    right = ParseStats(rows=5, records=5, bad_rows=0, header_rows=1,
                       propagated_rows=2)
    merged = left.merge(right)
    assert merged == ParseStats(rows=8, records=7, bad_rows=1,
                                header_rows=2, propagated_rows=2)


def test_nan_start_time_is_structurally_bad(tmp_path):
    # A NaN timestamp cannot be binned, so even "propagate" rejects it —
    # only non-finite *counts* ride through.
    path = tmp_path / "nan_time.csv"
    path.write_text("1,2,3,4,6,nan,1,10,1,r1\n")
    batches, stats = _read_all(str(path), on_bad_row="propagate")
    assert stats.bad_rows == 1 and stats.records == 0
    assert batches == []


# --------------------------------------------------------------------- #
# The vectorized tiers against the per-line reference
# --------------------------------------------------------------------- #
def _reference(text, on_bad_row):
    """Columns and stats of the per-line parser over the whole text."""
    stats = ParseStats()
    batch = csv_io._batch_line_fallback(text.splitlines(keepends=True),
                                        on_bad_row, stats)
    stats.records = batch.n_records
    return batch, stats


def _assert_same_columns(batches, reference):
    for name in FLOW_CSV_COLUMNS:
        column = np.concatenate([getattr(b, name) for b in batches]) \
            if batches else np.empty(0, getattr(reference, name).dtype)
        expected = getattr(reference, name)
        assert column.dtype == expected.dtype, name
        if column.dtype.kind == "f":  # bitwise: NaN, -0.0, subnormals
            column, expected = column.view(np.int64), expected.view(np.int64)
        assert column.tolist() == expected.tolist(), name


def _random_rows(rng, n):
    """Rows of seeded random values written the way exports write them:
    doubles with ``repr`` (bit patterns drawn uniformly, so every exponent
    and subnormals occur), ints across and just past their field ranges
    and at the int64 bounds."""
    def double():
        value = float(rng.integers(0, 2**64, dtype=np.uint64)
                      .view(np.float64))
        return value if np.isfinite(value) else float(rng.normal())

    specials = [0.0, -0.0, 5e-324, 2.2250738585072014e-308,
                1.7976931348623157e308, 0.1, 1e23, 2.0**53 + 1.0]
    int_values = {
        "addr": [0, 1, 0xFFFFFFFF, 0x100000000, -1, 2**63 - 1, -2**63],
        "port": [0, 65535, 65536, -1],
        "protocol": [0, 255, 256],
    }
    rows = []
    for i in range(n):
        times = sorted(abs(double()) if rng.random() < 0.5
                       else float(rng.uniform(0, 1e6)) for _ in range(2))
        if rng.random() < 0.05:
            times.reverse()
        counts = [specials[rng.integers(len(specials))]
                  if rng.random() < 0.2 else abs(double())
                  for _ in range(2)]
        if rng.random() < 0.05:
            counts[0] = -counts[0] - 1.0
        pick = {kind: values[rng.integers(len(values))]
                if rng.random() < 0.1 else None
                for kind, values in int_values.items()}
        rows.append(",".join((
            str(pick["addr"] if pick["addr"] is not None
                else int(rng.integers(0, 2**32))),
            str(int(rng.integers(0, 2**32))),
            str(pick["port"] if pick["port"] is not None
                else int(rng.integers(0, 65536))),
            str(int(rng.integers(0, 65536))),
            str(pick["protocol"] if pick["protocol"] is not None
                else int(rng.integers(0, 256))),
            repr(times[0]), repr(times[1]),
            repr(counts[0]), repr(counts[1]),
            f"r{i % 5}" if i % 7 else "",
        )))
    return rows


def _dirty_text(rows):
    """*rows* with every kind of dirt the fallback ladder must absorb."""
    header = ",".join(FLOW_CSV_COLUMNS)
    dirty = list(rows)
    dirty.insert(0, header)
    dirty.insert(len(dirty) // 2, header)           # concatenated export
    dirty.insert(5, "")                             # blank line
    dirty.insert(9, "   ")                          # whitespace-only line
    dirty.insert(13, "10.0.0.1,192.168.0.1,1,2,6,0,1,10,1,r1")
    dirty.insert(17, "1,2,1_000,2,6,0,1,10,1,r1")   # int() accepts it
    dirty.insert(21, "1,2,3,4,6,0,1,10,1")          # ragged: 9 fields
    dirty.insert(25, "1,2,3,4,6,0,1,10,1,r1,extra")  # ragged: 11 fields
    dirty.insert(29, "1,2,3,4,6,0,1,nan,1,r1")      # NaN count
    dirty.insert(33, "99999999999999999999,2,3,4,6,0,1,10,1,r1")
    return dirty


class TestVectorizedParseMatchesLineReference:
    @pytest.fixture()
    def rows(self):
        return _random_rows(np.random.default_rng(15), 600)

    @pytest.mark.parametrize("on_bad_row", ["skip", "propagate"])
    @pytest.mark.parametrize("dirty", [False, True])
    @pytest.mark.parametrize("batch_rows", [4, 64, 8192])
    def test_columns_and_stats_equal_the_reference(
            self, tmp_path, rows, on_bad_row, dirty, batch_rows):
        lines = _dirty_text(rows) if dirty else rows
        text = "\n".join(lines) + "\n"
        path = tmp_path / "flows.csv"
        path.write_text(text)
        batches, stats = _read_all(str(path), batch_rows=batch_rows,
                                   on_bad_row=on_bad_row)
        reference, reference_stats = _reference(text, on_bad_row)
        assert reference_stats.bad_rows > 0  # the random rows include dirt
        _assert_same_columns(batches, reference)
        assert stats == reference_stats

    def test_raise_policy_equals_the_reference(self, tmp_path, rows):
        clean = [row for row in rows
                 if csv_io._batch_line_fallback(
                     [row], "skip", ParseStats()).n_records]
        path = tmp_path / "clean.csv"
        path.write_text("\n".join(clean) + "\n")
        batches, stats = _read_all(str(path), batch_rows=16,
                                   on_bad_row="raise")
        reference, reference_stats = _reference(path.read_text(), "raise")
        _assert_same_columns(batches, reference)
        assert stats == reference_stats

        path.write_text("\n".join(_dirty_text(clean)) + "\n")
        with pytest.raises(ValueError, match="bad flow-record row"):
            _read_all(str(path), batch_rows=16, on_bad_row="raise")
        with pytest.raises(ValueError, match="bad flow-record row"):
            _reference(path.read_text(), "raise")

    def test_crlf_lines_parse_like_lf_lines(self, rows):
        lf = [row + "\n" for row in _dirty_text(rows)]
        crlf = [row + "\r\n" for row in _dirty_text(rows)]
        for on_bad_row in ("skip", "propagate"):
            lf_batch, lf_stats = csv_io._parse_block(lf, on_bad_row)
            crlf_batch, crlf_stats = csv_io._parse_block(crlf, on_bad_row)
            _assert_same_columns([crlf_batch], lf_batch)
            assert crlf_stats == lf_stats

    def test_clean_blocks_never_reach_the_line_fallback(
            self, tmp_path, rows, monkeypatch):
        calls = []
        fallback = csv_io._batch_line_fallback

        def counting(lines, *args):
            calls.append(len(lines))
            return fallback(lines, *args)

        monkeypatch.setattr(csv_io, "_batch_line_fallback", counting)
        header = ",".join(FLOW_CSV_COLUMNS)
        clean = [row for row in rows if fallback([row], "skip",
                                                  ParseStats()).n_records]
        dotted = ["10.0.0.1,192.168.0.1,1,2,6,0,1,10,1,r1"] * 50
        # A leading header, a mid-file header and a blank line are peeled;
        # dotted-quad addresses take the second vectorized tier.
        text = "\n".join([header] + clean[:300] + ["", header]
                         + clean[300:] + dotted) + "\n"
        path = tmp_path / "flows.csv"
        path.write_text(text)
        for batch_rows in (4, 64, 8192):
            batches, stats = _read_all(str(path), batch_rows=batch_rows)
            assert calls == []
            assert stats.records == len(clean) + len(dotted)
            assert stats.header_rows == 2
        monkeypatch.undo()
        reference, _ = _reference(text, "skip")
        _assert_same_columns(batches, reference)
        # Dirt does reach it.
        monkeypatch.setattr(csv_io, "_batch_line_fallback", counting)
        path.write_text("\n".join(clean + ["1,2,1_000,2,6,0,1,10,1,r1"]))
        _read_all(str(path))
        assert len(calls) == 1


class TestBoundedParseAhead:
    def test_first_batch_arrives_before_the_whole_file_is_read(
            self, tmp_path, monkeypatch):
        path = tmp_path / "big.csv"
        export_flow_csv(
            [FlowRecord(FiveTuple(i + 1, 2 * i + 1, 1, 80, 6),
                        float(i), float(i) + 0.5, 100.0, 1.0,
                        observing_router="r1")
             for i in range(3000)],
            path)
        drawn = []
        blocks = csv_io._iter_line_blocks

        def counting(*args):
            for lines in blocks(*args):
                drawn.append(len(lines))
                yield lines

        monkeypatch.setattr(csv_io, "_iter_line_blocks", counting)
        workers = 2
        stats = ParseStats()
        reader = read_flow_batches(str(path), batch_rows=2, workers=workers,
                                   stats=stats)
        try:
            first = next(reader)
            assert first.n_records > 0
            assert len(drawn) <= 2 * workers + 1
            rest = list(reader)
        finally:
            reader.close()
        assert len(drawn) > 10 * (2 * workers + 1)
        assert first.n_records + sum(b.n_records for b in rest) == 3000
        _, serial = _read_all(str(path), batch_rows=2)
        assert stats == serial
