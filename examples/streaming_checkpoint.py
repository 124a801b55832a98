#!/usr/bin/env python
"""Restartable and parallel streaming diagnosis.

Builds on ``examples/streaming_quickstart.py`` with the two scale-out
pieces of the streaming subsystem:

1. a **checkpoint/restore** cycle: the detector is stopped mid-stream,
   persisted to an npz + JSON-manifest directory, restored, and fed the
   remaining chunks by resuming the source at the checkpoint's bin —
   emitting the identical remaining events;
2. the **multi-process driver** with bounded (backpressure-aware) queues:
   each worker owns a column shard of the moments of every traffic type,
   and the run emits the identical event list.

Run with::

    python examples/streaming_checkpoint.py
"""

import tempfile
from pathlib import Path

from repro.datasets import DatasetConfig, generate_abilene_dataset
from repro.evaluation import event_parity
from repro.streaming import (
    ChunkedSeriesSource,
    StreamingConfig,
    StreamingNetworkDetector,
    chunk_series,
    parallel_stream_detect,
    stream_detect,
)

CHUNK = 48


def main() -> None:
    dataset = generate_abilene_dataset(DatasetConfig(weeks=2.0 / 7.0), seed=7)
    series = dataset.series
    config = StreamingConfig(min_train_bins=128, recalibrate_every_bins=32)
    print(f"dataset: {series.n_bins} bins x {series.n_od_pairs} OD pairs")

    # ------------------------------------------------------------------ #
    # Reference: single-process, single-engine live run.
    # ------------------------------------------------------------------ #
    baseline = stream_detect(chunk_series(series, CHUNK), config)
    print(f"baseline live run: {baseline.n_events} events")

    # ------------------------------------------------------------------ #
    # 1. Checkpoint mid-stream, restore, resume the source at its bin.
    # ------------------------------------------------------------------ #
    chunks = list(chunk_series(series, CHUNK))
    split = len(chunks) // 2
    detector = StreamingNetworkDetector(config)
    for chunk in chunks[:split]:
        detector.process_chunk(chunk)
    with tempfile.TemporaryDirectory() as tmp:
        checkpoint_dir = Path(tmp) / "ckpt"
        detector.save(checkpoint_dir)
        kinds = sorted("manifest.json" if p.name == "manifest.json"
                       else "state-<sha256>.npz"
                       for p in checkpoint_dir.iterdir())
        print(f"checkpoint after {split * CHUNK} bins: {kinds}")

        restored = StreamingNetworkDetector.restore(checkpoint_dir)
        resume_bin = restored.report.n_bins_processed
        for chunk in ChunkedSeriesSource(series, CHUNK).resume(resume_bin):
            restored.process_chunk(chunk)
        report = restored.finish()
    print(f"restored run:      {report.n_events} events, exact parity: "
          f"{event_parity(baseline.events, report.events).exact}")

    # ------------------------------------------------------------------ #
    # 2. Multi-process driver: one column shard per worker, bounded queues.
    # ------------------------------------------------------------------ #
    parallel = parallel_stream_detect(chunk_series(series, CHUNK),
                                      config, n_workers=3, queue_depth=4)
    print(f"parallel run:      {parallel.n_events} events, exact parity: "
          f"{event_parity(baseline.events, parallel.events).exact}")


if __name__ == "__main__":
    main()
