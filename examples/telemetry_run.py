#!/usr/bin/env python
"""A monitored streaming run: metrics, traces, health.

Enables the telemetry plane (``StreamingConfig(telemetry=True)``) on
``stream_detect`` and walks the three surfaces it produces:

1. the **health snapshot** — stage latency histograms, event and
   recalibration counters, all in one JSON file that reconciles exactly
   with the run's ``StreamingReport``;
2. the **trace file** — sampled per-chunk spans (ingest → center →
   update → detect → aggregate) as JSON lines;
3. the **renderings** — the status table and Prometheus exposition that
   ``tools/status.py`` serves from the snapshot file.

The observability contract: the monitored run emits the bit-identical
event list of an unmonitored one.  This script checks that too.

Run with::

    python examples/telemetry_run.py
"""

import dataclasses
import json
import tempfile
from pathlib import Path

from repro.datasets import DatasetConfig, generate_abilene_dataset
from repro.evaluation import event_parity
from repro.streaming import (
    StreamingConfig,
    chunk_series,
    stream_detect,
)
from repro.telemetry import (
    HealthSnapshot,
    prometheus_exposition,
    render_status_table,
)

CHUNK = 48


def main() -> None:
    dataset = generate_abilene_dataset(DatasetConfig(weeks=2.0 / 7.0), seed=7)
    series = dataset.series
    base = StreamingConfig(min_train_bins=128, recalibrate_every_bins=96)
    print(f"dataset: {series.n_bins} bins x {series.n_od_pairs} OD pairs")

    # Reference: the same pipeline with telemetry off (the default).
    plain = stream_detect(chunk_series(series, CHUNK), base)

    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        config = dataclasses.replace(
            base,
            telemetry=True,
            telemetry_sample_rate=0.5,      # trace every other chunk
            telemetry_trace_path=str(tmp_path / "trace.jsonl"),
            telemetry_snapshot_path=str(tmp_path / "health.json"),
            telemetry_snapshot_every_chunks=4,
        )

        # ---------------------------------------------------------- #
        # Monitored run: the same driver, with a metrics registry and
        # a sampled tracer threaded through every stage.
        # ---------------------------------------------------------- #
        report = stream_detect(chunk_series(series, CHUNK), config)
        parity = event_parity(plain.events, report.events)
        print(f"monitored run: {report.n_events} events, "
              f"{report.bins_per_second:,.0f} bins/sec, "
              f"exact parity with unmonitored run: {parity.exact}")

        # ---------------------------------------------------------- #
        # 1. The snapshot reconciles with the report exactly.
        # ---------------------------------------------------------- #
        snapshot = HealthSnapshot.read(config.telemetry_snapshot_path)
        print(f"\nsnapshot: {snapshot.bins_processed} bins, "
              f"{snapshot.events_total} events, "
              f"{snapshot.recalibrations} recalibrations")
        print(f"stages timed: {sorted(snapshot.stage_seconds)}")
        assert snapshot.bins_processed == report.n_bins_processed
        assert snapshot.events_total == report.n_events

        # ---------------------------------------------------------- #
        # 2. Trace spans of the sampled chunks.
        # ---------------------------------------------------------- #
        with open(config.telemetry_trace_path, encoding="utf-8") as handle:
            spans = [json.loads(line) for line in handle]
        slowest = max(spans, key=lambda s: s["duration_seconds"])
        print(f"\nsampled spans: {len(spans)}; slowest: "
              f"{slowest['stage']} @ {slowest['duration_seconds'] * 1e3:.2f} ms"
              f" (chunk {slowest.get('chunk', '-')})")

        # ---------------------------------------------------------- #
        # 3. Render it: the status table and Prometheus text format
        # (the same output `tools/status.py <snapshot>` serves).
        # ---------------------------------------------------------- #
        print("\n" + render_status_table(snapshot))
        exposition = prometheus_exposition(snapshot.registry())
        print("prometheus exposition: "
              f"{len(exposition.splitlines())} lines, e.g.")
        for line in exposition.splitlines():
            if line.startswith("repro_bins_processed"):
                print(f"  {line}")


if __name__ == "__main__":
    main()
