"""Vectorized CSV flow-record I/O — the on-disk wire format of the plane.

The schema mirrors a NetFlow-style CSV export, one record per line::

    src_addr,dst_addr,src_port,dst_port,protocol,start_time,end_time,bytes,packets,router

* ``src_addr`` / ``dst_addr``: IPv4 addresses, integer form in canonical
  exports; the parser also accepts dotted-quad (both are exact).
* ``start_time`` / ``end_time``: seconds, written with ``repr`` so the
  shortest-round-trip float survives the text hop bit for bit (likewise
  ``bytes`` / ``packets``) — the foundation of the generator-vs-ingest
  byte-parity proof.
* ``router``: name of the exporting router, empty when unknown.

Real exports are dirty — files get concatenated (stray header lines
mid-file), fields go missing, counters come back ``NaN``.  The file is
read in blocks of about ``batch_rows`` lines, and each block walks a
fallback ladder until a tier accepts it:

1. Header and blank lines are peeled off the block (only when present:
   a clean block is not rewritten).
2. ``np.loadtxt`` converts the whole block in numpy's C tokenizer, with a
   structured dtype (five int64 fields, four float64 fields, the router
   name as ``str``).  Its float64 conversion is the correctly rounded
   one ``float()`` uses, so ``repr``-written values come back bit for
   bit.
3. If loadtxt rejects the block, it is retried once with the two address
   fields as text, converted by :func:`_parse_addresses` — dotted-quad
   exports stay vectorized.
4. Anything still rejected (ragged rows, a stray token, ``1_000`` — which
   ``int()`` accepts and loadtxt does not) drops to the per-line parser
   for that block only, :func:`_batch_line_fallback`.  It is the
   reference every vectorized tier is tested against.  The one known
   difference: it strips spaces around a router name, which the
   vectorized tiers keep (as they always have).

Validation and the dirty-row policy are applied to the converted
columns by one set of masks.
"""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence, Union

import numpy as np

from repro.flows.records import FlowRecord
from repro.routing.prefixes import parse_ipv4
from repro.utils.validation import require

__all__ = [
    "FLOW_CSV_COLUMNS",
    "ParseStats",
    "RecordBatch",
    "export_flow_csv",
    "read_flow_batches",
]

#: Column order of the on-disk schema.
FLOW_CSV_COLUMNS = (
    "src_addr", "dst_addr", "src_port", "dst_port", "protocol",
    "start_time", "end_time", "bytes", "packets", "router",
)
_N_COLUMNS = len(FLOW_CSV_COLUMNS)
_HEADER_LINE = ",".join(FLOW_CSV_COLUMNS)

#: Dirty-row policies: drop and count, fail fast, or keep non-finite
#: byte/packet values so they surface as NaN cells for the detector's
#: ``on_bad_chunk`` discipline to judge.
BAD_ROW_POLICIES = ("skip", "raise", "propagate")


@dataclass
class ParseStats:
    """Counters describing one parsing pass (mutated in place)."""

    rows: int = 0            #: physical data lines seen (headers excluded)
    records: int = 0         #: rows that became records
    bad_rows: int = 0        #: rows dropped (or that raised) under the policy
    header_rows: int = 0     #: stray header lines skipped (concat artifacts)
    propagated_rows: int = 0  #: rows kept with non-finite bytes/packets

    def merge(self, other: "ParseStats") -> "ParseStats":
        """Element-wise sum (used by multi-file reads)."""
        return ParseStats(
            rows=self.rows + other.rows,
            records=self.records + other.records,
            bad_rows=self.bad_rows + other.bad_rows,
            header_rows=self.header_rows + other.header_rows,
            propagated_rows=self.propagated_rows + other.propagated_rows,
        )


@dataclass
class RecordBatch:
    """A column-oriented batch of parsed flow records.

    The vectorized analogue of ``List[FlowRecord]``: one numpy array per
    schema column, all of length :attr:`n_records`, in file order.
    """

    src_addr: np.ndarray      #: int64
    dst_addr: np.ndarray      #: int64
    src_port: np.ndarray      #: int64
    dst_port: np.ndarray      #: int64
    protocol: np.ndarray      #: int64
    start_time: np.ndarray    #: float64
    end_time: np.ndarray      #: float64
    bytes: np.ndarray         #: float64 (NaN/Inf only under ``propagate``)
    packets: np.ndarray       #: float64 (NaN/Inf only under ``propagate``)
    router: np.ndarray = field(default_factory=lambda: np.empty(0, object))
    #: object array of router names ("" = unknown)

    @property
    def n_records(self) -> int:
        """Number of records in the batch."""
        return int(self.src_addr.shape[0])


def _format_value(value: float) -> str:
    """Render a count/time losslessly and compactly (ints without ``.0``)."""
    as_float = float(value)
    if as_float.is_integer() and abs(as_float) < 2**53:
        return str(int(as_float))
    return repr(as_float)


def export_flow_csv(records: Iterable[FlowRecord], path,
                    append: bool = False, header: bool = True) -> int:
    """Write *records* to *path* in the canonical schema; returns the count.

    ``append=True`` with ``header=True`` reproduces the concatenated-export
    artifact (a second header line mid-file) on purpose — the parser must
    survive it, and tests build dirty fixtures this way.
    """
    n_written = 0
    with open(path, "a" if append else "w", encoding="utf-8", newline="") as fh:
        if header:
            fh.write(_HEADER_LINE + "\n")
        for record in records:
            fh.write(",".join((
                str(record.src_address),
                str(record.dst_address),
                str(record.src_port),
                str(record.dst_port),
                str(record.protocol),
                _format_value(record.start_time),
                _format_value(record.end_time),
                _format_value(record.bytes),
                _format_value(record.packets),
                record.observing_router or "",
            )) + "\n")
            n_written += 1
    return n_written


# --------------------------------------------------------------------- #
# parsing
# --------------------------------------------------------------------- #
#: Structured dtype of one parsed block: numpy's C tokenizer converts the
#: numeric fields, the router name stays a Python ``str``.
_BLOCK_DTYPE = np.dtype(
    [(name, np.int64) for name in FLOW_CSV_COLUMNS[:5]]
    + [(name, np.float64) for name in FLOW_CSV_COLUMNS[5:9]]
    + [(FLOW_CSV_COLUMNS[9], object)])
#: The same with both address fields left as text (dotted-quad exports).
_BLOCK_DTYPE_TEXT_ADDRESSES = np.dtype(
    [(name, object) for name in FLOW_CSV_COLUMNS[:2]]
    + _BLOCK_DTYPE.descr[2:])


def _parse_addresses(values: np.ndarray) -> np.ndarray:
    """Integer addresses from string fields (dotted-quad tolerated)."""
    try:
        return np.array(values, np.int64)
    except ValueError:
        return np.fromiter(
            (parse_ipv4(s) if "." in s else int(s) for s in values),
            np.int64, len(values))


def _loadtxt_columns(lines: List[str]) -> List[np.ndarray]:
    """The ten schema columns of *lines*, converted by ``np.loadtxt``.

    Raises ``ValueError`` (or ``OverflowError``) on anything the two
    vectorized tiers cannot convert; the caller then parses line by line.
    """
    options = dict(delimiter=",", comments=None, quotechar=None, ndmin=1)
    try:
        table = np.loadtxt(lines, dtype=_BLOCK_DTYPE, **options)
    except ValueError:
        # Second tier: addresses as text, so a dotted-quad export stays
        # vectorized.  Any other dirt fails here too.
        table = np.loadtxt(lines, dtype=_BLOCK_DTYPE_TEXT_ADDRESSES,
                           **options)
    columns = [np.ascontiguousarray(table[name])
               for name in FLOW_CSV_COLUMNS]
    if columns[0].dtype == object:
        columns[:2] = [_parse_addresses(column) for column in columns[:2]]
    return columns


def _select_valid(columns: List[np.ndarray], on_bad_row: str):
    """Apply the validation and ``propagate`` masks to parsed columns.

    Returns ``(batch, n_bad, n_propagated)``; raises ``ValueError`` under
    ``on_bad_row="raise"`` when a row is bad (the caller pinpoints it)."""
    (src, dst, src_port, dst_port, protocol,
     start, end, byte_count, packet_count, _) = columns
    n = src.shape[0]
    valid = ((src >= 0) & (src <= 0xFFFFFFFF)
             & (dst >= 0) & (dst <= 0xFFFFFFFF)
             & (src_port >= 0) & (src_port <= 65535)
             & (dst_port >= 0) & (dst_port <= 65535)
             & (protocol >= 0) & (protocol <= 255)
             & np.isfinite(start) & np.isfinite(end) & (end >= start))
    counts_clean = (np.isfinite(byte_count) & (byte_count >= 0)
                    & np.isfinite(packet_count) & (packet_count >= 0))
    if on_bad_row == "propagate":
        # Non-finite counts ride through (they become NaN cells for the
        # detector's on_bad_chunk policy); finite-but-negative counts are
        # structurally bad under every policy.
        counts_ok = ((~np.isfinite(byte_count) | (byte_count >= 0))
                     & (~np.isfinite(packet_count) | (packet_count >= 0)))
        keep = valid & counts_ok
        n_propagated = int(np.count_nonzero(keep & ~counts_clean))
    else:
        keep = valid & counts_clean
        n_propagated = 0
    n_bad = n - int(np.count_nonzero(keep))
    if n_bad and on_bad_row == "raise":
        raise ValueError("structurally bad row")
    if n_bad:
        columns = [column[keep] for column in columns]
    return RecordBatch(*columns), n_bad, n_propagated


def _parse_line(line: str, on_bad_row: str):
    """Classify one line: ``None`` (header), a field tuple, or raise."""
    fields = line.split(",")
    if [f.strip() for f in fields] == list(FLOW_CSV_COLUMNS):
        return None
    if len(fields) != _N_COLUMNS:
        raise ValueError(f"expected {_N_COLUMNS} fields, got {len(fields)}")
    src = parse_ipv4(fields[0]) if "." in fields[0] else int(fields[0])
    dst = parse_ipv4(fields[1]) if "." in fields[1] else int(fields[1])
    src_port, dst_port, protocol = (int(fields[2]), int(fields[3]),
                                    int(fields[4]))
    start, end = float(fields[5]), float(fields[6])
    byte_count, packet_count = float(fields[7]), float(fields[8])
    if not (0 <= src <= 0xFFFFFFFF and 0 <= dst <= 0xFFFFFFFF
            and 0 <= src_port <= 65535 and 0 <= dst_port <= 65535
            and 0 <= protocol <= 255
            and math.isfinite(start) and math.isfinite(end)
            and end >= start):
        raise ValueError("field out of range")
    counts_clean = (math.isfinite(byte_count) and byte_count >= 0
                    and math.isfinite(packet_count) and packet_count >= 0)
    if not counts_clean:
        if on_bad_row != "propagate":
            raise ValueError("non-finite byte/packet count")
        if ((math.isfinite(byte_count) and byte_count < 0)
                or (math.isfinite(packet_count) and packet_count < 0)):
            raise ValueError("negative byte/packet count")
    return (src, dst, src_port, dst_port, protocol, start, end,
            byte_count, packet_count, fields[9].strip(), not counts_clean)


def _batch_line_fallback(lines: List[str], on_bad_row: str,
                         stats: ParseStats):
    """Per-line re-parse of a batch the fast path rejected.

    Owns all the row/header accounting for the batch (the caller adds
    only the record count)."""
    columns: List[list] = [[] for _ in range(_N_COLUMNS + 1)]
    for line in lines:
        stripped = line.strip()
        if not stripped:
            continue
        try:
            parsed = _parse_line(stripped, on_bad_row)
        except ValueError as exc:
            if on_bad_row == "raise":
                raise ValueError(
                    f"bad flow-record row {stripped!r}: {exc}") from exc
            stats.rows += 1
            stats.bad_rows += 1
            continue
        if parsed is None:
            stats.header_rows += 1
            continue
        stats.rows += 1
        for column, value in zip(columns, parsed):
            column.append(value)
    if columns[-1]:
        stats.propagated_rows += int(np.count_nonzero(columns[-1]))
    return RecordBatch(
        np.array(columns[0], dtype=np.int64),
        np.array(columns[1], dtype=np.int64),
        np.array(columns[2], dtype=np.int64),
        np.array(columns[3], dtype=np.int64),
        np.array(columns[4], dtype=np.int64),
        np.array(columns[5], dtype=np.float64),
        np.array(columns[6], dtype=np.float64),
        np.array(columns[7], dtype=np.float64),
        np.array(columns[8], dtype=np.float64),
        np.array(columns[9], dtype=object),
    )


def _peel_lines(lines: List[str]):
    """Drop header and blank lines from a block: ``(data lines, headers)``.

    Clean blocks pass through as they are; only a block holding a header
    (the leading one, or a mid-file concatenation artifact) or a blank
    line is rewritten, so one stray header does not push the whole block
    off the vectorized path.  A header or blank line this misses (say,
    padded with spaces) still parses: ``np.loadtxt`` rejects the block
    and the per-line fallback classifies it."""
    # List membership compares whole lines: far cheaper than a substring
    # scan of the block.
    if _HEADER_LINE + "\n" not in lines and "\n" not in lines:
        return lines, 0
    kept = []
    n_headers = 0
    for line in lines:
        stripped = line.strip()
        if not stripped:
            continue
        if stripped == _HEADER_LINE:
            n_headers += 1
            continue
        kept.append(stripped)
    return kept, n_headers


def _parse_block(lines: List[str], on_bad_row: str):
    """Parse one block of raw lines to ``(batch, local ParseStats)``.

    Top-level and self-accounting so it runs identically inline and in a
    worker process (``parse_workers`` parallelism)."""
    local = ParseStats()
    data_lines, n_headers = _peel_lines(lines)
    if not data_lines:
        local.header_rows += n_headers
        return None, local
    try:
        columns = _loadtxt_columns(data_lines)
        batch, n_bad, n_propagated = _select_valid(columns, on_bad_row)
    except (ValueError, OverflowError):
        # The fallback re-reads the raw lines and does its own row/header
        # accounting for this batch.
        batch = _batch_line_fallback(lines, on_bad_row, local)
    else:
        local.rows += columns[0].shape[0]
        local.header_rows += n_headers
        local.bad_rows += n_bad
        local.propagated_rows += n_propagated
    local.records += batch.n_records
    return batch, local


def _iter_line_blocks(path, batch_rows: int) -> Iterator[List[str]]:
    with open(path, "r", encoding="utf-8") as fh:
        while True:
            lines = fh.readlines(batch_rows * 64)
            if not lines:
                return
            yield lines


def _read_path_batches(path, batch_rows: int, on_bad_row: str,
                       stats: ParseStats,
                       workers: int = 1) -> Iterator[RecordBatch]:
    blocks = _iter_line_blocks(path, batch_rows)
    if workers <= 1:
        parsed = (_parse_block(lines, on_bad_row) for lines in blocks)
        yield from _drain_parsed(parsed, stats)
        return
    # Process-parallel parse: blocks fan out to worker processes, results
    # come back in file order, and the merged stats are identical to the
    # serial pass because each block accounts for itself.  At most
    # 2 x workers blocks are in flight, so batch_rows still bounds memory
    # and the first batch arrives without reading the whole file.
    # Binning stays downstream and sequential — ordering and byte-parity
    # are untouched.
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from _drain_parsed(
            _parse_ahead(pool, blocks, on_bad_row, depth=2 * workers),
            stats)


def _parse_ahead(pool, blocks, on_bad_row: str, depth: int):
    """``_parse_block`` results in file order, with at most *depth* blocks
    submitted to *pool* and not yet handed on."""
    in_flight = collections.deque()
    for lines in blocks:
        in_flight.append(pool.submit(_parse_block, lines, on_bad_row))
        if len(in_flight) >= depth:
            yield in_flight.popleft().result()
    while in_flight:
        yield in_flight.popleft().result()


def _drain_parsed(parsed, stats: ParseStats) -> Iterator[RecordBatch]:
    for batch, local in parsed:
        stats.rows += local.rows
        stats.records += local.records
        stats.bad_rows += local.bad_rows
        stats.header_rows += local.header_rows
        stats.propagated_rows += local.propagated_rows
        if batch is not None and batch.n_records:
            yield batch


def read_flow_batches(
    paths: Union[str, Sequence[str]],
    batch_rows: int = 8192,
    on_bad_row: str = "skip",
    stats: Optional[ParseStats] = None,
    workers: int = 1,
) -> Iterator[RecordBatch]:
    """Stream column-oriented :class:`RecordBatch`es from CSV export(s).

    Parameters
    ----------
    paths:
        One path or an ordered sequence (read back to back, the logical
        concatenation — stray header lines are skipped and counted).
    batch_rows:
        Rows per vectorized parse batch (bounds memory).
    on_bad_row:
        ``"skip"`` (drop and count), ``"raise"`` (fail fast), or
        ``"propagate"`` (keep rows whose byte/packet counts are non-finite
        so they surface as NaN cells downstream; structurally broken rows
        are still skipped).
    stats:
        A :class:`ParseStats` mutated in place as batches are drawn.
    workers:
        Parse processes.  ``1`` (default) parses inline; ``> 1`` fans
        blocks out to a process pool — batch order, stats, and
        byte-parity are identical to the serial pass.
    """
    require(batch_rows >= 1, "batch_rows must be >= 1")
    require(on_bad_row in BAD_ROW_POLICIES,
            f"on_bad_row must be one of {BAD_ROW_POLICIES}")
    require(workers >= 1, "workers must be >= 1")
    if stats is None:
        stats = ParseStats()
    path_list = [paths] if isinstance(paths, (str, bytes)) else list(paths)
    require(len(path_list) >= 1, "at least one path is required")
    for path in path_list:
        yield from _read_path_batches(path, batch_rows, on_bad_row,
                                      stats, workers=workers)
