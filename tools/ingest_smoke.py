#!/usr/bin/env python
"""End-to-end ingestion smoke test: CSV round-trip parity + CLI drive.

The ingestion plane's acceptance bar, exercised the way an operator
would hit it:

1. synthesize half a day of Abilene OD traffic, expand it to flow
   records and export them to a CSV flow-record file;
2. parse + bin the CSV back through :class:`repro.ingest.FlowCsvSource`
   and require **byte-identical** OD matrices and identical detection
   events versus aggregating the very same records in memory
   (:func:`repro.ingest.round_trip_check`);
3. repeat with 1-in-2 packet sampling and inversion enabled;
4. rewrite the export the ways real exports come dirty — concatenated
   (a second header mid-file), CRLF line endings, dotted-quad addresses —
   and require each to bin to the same OD matrices as the clean export,
   which walks the parser's fallback ladder end to end;
5. drive the real service CLI (``python -m repro.service --ingest-csv``)
   as a subprocess over the same export and require a clean, uneventful
   exit with every bin processed.

Exit code 0 iff every phase held.  Used by the ``ingest-smoke`` CI job:

    PYTHONPATH=src python tools/ingest_smoke.py
"""

from __future__ import annotations

import json
import os

import numpy as np
import subprocess
import sys
import tempfile

from repro.datasets import DatasetConfig, generate_abilene_dataset
from repro.flows.sampling import SamplingConfig
from repro.ingest import FlowCsvSource, IngestConfig, round_trip_check
from repro.routing.prefixes import format_ipv4
from repro.streaming import StreamingConfig
from repro.topology import abilene_topology

N_BINS = 144  # half a day of 5-minute bins
SEED = 7
FLOWS_PER_CELL = 2
CONFIG = StreamingConfig(min_train_bins=96, recalibrate_every_bins=48)


def _require(condition, message):
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)


def _check(name, report):
    print(f"{name}: matrices_identical={report.matrices_identical} "
          f"events={report.n_direct_events}/{report.n_ingest_events} "
          f"max_abs_difference={report.max_abs_difference} "
          f"records={report.n_records_exported}")
    _require(report.ok, f"{name} round trip is not byte-identical")
    _require(report.max_abs_difference == 0.0,
             f"{name} round trip differs by {report.max_abs_difference}")


def _binned(path, network, binning, parse_workers=1):
    """Every chunk matrix of *path*, plus the parse stats of the pass."""
    source = FlowCsvSource(path, network=network, config=IngestConfig(
        bin_seconds=binning.bin_seconds, start_seconds=binning.start_seconds,
        n_bins=binning.n_bins, batch_rows=256, parse_workers=parse_workers))
    matrices = [(chunk.start_bin, traffic_type, chunk.matrix(traffic_type))
                for chunk in source for traffic_type in chunk.traffic_types]
    return matrices, source.stats.parse


def _check_dirty_copies(clean_csv, network, binning, tmp):
    """Dirty rewrites of *clean_csv* must bin to the same OD matrices."""
    with open(clean_csv, "r", encoding="utf-8") as handle:
        header, *rows = handle.read().splitlines()
    middle = len(rows) // 2

    def dotted(row):
        src, dst, rest = row.split(",", 2)
        return ",".join((format_ipv4(int(src)), format_ipv4(int(dst)), rest))

    copies = {
        # A concatenated export: the second half re-headed mid-file.
        "concatenated": ([header] + rows[:middle] + [header]
                         + rows[middle:], "\n", 2),
        "crlf": ([header] + rows, "\r\n", 1),
        "dotted-quad": ([header] + [dotted(row) for row in rows], "\n", 1),
    }
    expected, clean_stats = _binned(clean_csv, network, binning)
    for name, (lines, newline, n_headers) in copies.items():
        path = os.path.join(tmp, f"{name}.csv")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(newline.join(lines) + newline)
        for workers in (1, 2):
            matrices, stats = _binned(path, network, binning, workers)
            print(f"dirty {name} (parse_workers={workers}): "
                  f"records={stats.records} headers={stats.header_rows} "
                  f"bad_rows={stats.bad_rows}")
            _require(stats.records == clean_stats.records
                     and stats.bad_rows == 0
                     and stats.header_rows == n_headers,
                     f"dirty {name} copy parsed to {stats}")
            _require(len(matrices) == len(expected) and all(
                a[:2] == b[:2] and np.array_equal(a[2], b[2])
                for a, b in zip(matrices, expected)),
                f"dirty {name} copy binned to different OD matrices")


def main() -> int:
    network = abilene_topology()
    dataset = generate_abilene_dataset(DatasetConfig(weeks=1.0 / 7.0),
                                       seed=SEED)
    series = dataset.series.window(0, N_BINS)

    with tempfile.TemporaryDirectory(prefix="ingest-smoke-") as tmp:
        plain_csv = os.path.join(tmp, "flows.csv")
        _check("plain", round_trip_check(
            series, network, plain_csv, seed=SEED,
            max_flows_per_cell=FLOWS_PER_CELL, streaming_config=CONFIG))
        _check("sampled", round_trip_check(
            series, network, os.path.join(tmp, "sampled.csv"), seed=SEED,
            max_flows_per_cell=FLOWS_PER_CELL,
            sampling=SamplingConfig(sampling_rate=0.5),
            streaming_config=CONFIG))

        _check_dirty_copies(plain_csv, network, series.binning, tmp)

        # The same export must drive the real CLI end to end.
        process = subprocess.run(
            [sys.executable, "-m", "repro.service",
             "--store", os.path.join(tmp, "events.sqlite"),
             "--ingest-csv", plain_csv,
             "--chunk-size", "48",
             "--min-train-bins", "96",
             "--recalibrate-every-bins", "48"],
            capture_output=True, text=True)
        _require(process.returncode == 0,
                 f"service CLI exited {process.returncode}: "
                 f"{process.stderr.strip()}")
        payload = json.loads(process.stdout.splitlines()[-1])
        print(f"cli: n_bins_processed={payload['n_bins_processed']} "
              f"events_stored={payload['events_stored']}")
        _require(payload["interrupted"] is False, "CLI run was interrupted")
        _require(payload["n_bins_processed"] == N_BINS,
                 f"CLI processed {payload['n_bins_processed']} bins, "
                 f"expected {N_BINS}")

    print("ingest smoke: all phases held")
    return 0


if __name__ == "__main__":
    sys.exit(main())
