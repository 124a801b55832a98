#!/usr/bin/env python
"""Restartable streaming diagnosis.

Builds on ``examples/streaming_quickstart.py`` with the streaming
subsystem's one recovery mechanism, the checkpoint:

1. a **checkpoint/restore** cycle: the detector is stopped mid-stream,
   persisted to an npz + JSON-manifest directory, restored, and fed the
   remaining chunks by resuming the source at the checkpoint's bin —
   emitting the identical remaining events;
2. a **crash between periodic checkpoints**: the detector checkpoints
   every few chunks (each save appends a generation to the fallback
   chain), dies without a final save, and the newest generation
   restores and replays the lost chunks — again the identical events.
   ``DetectionService`` runs exactly this cycle around a durable event
   store (see ``examples/service_run.py`` and ``examples/chaos_run.py``).

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
    load_checkpoint,
    save_checkpoint,
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
        kinds = sorted(p.name if p.name.startswith("manifest")
                       else "state-<sha256>.npz"
                       for p in checkpoint_dir.iterdir())
        print(f"checkpoint after {split * CHUNK} bins: {kinds}")

        restored = StreamingNetworkDetector.restore(checkpoint_dir)
        resume_bin = restored.resume_bin
        for chunk in ChunkedSeriesSource(series, CHUNK).resume(resume_bin):
            restored.process_chunk(chunk)
        report = restored.finish()
    print(f"restored run:      {report.n_events} events, exact parity: "
          f"{event_parity(baseline.events, report.events).exact}")

    # ------------------------------------------------------------------ #
    # 2. Periodic checkpoints, a crash between two of them, and a restore
    #    from the newest generation of the chain.
    # ------------------------------------------------------------------ #
    detector = StreamingNetworkDetector(config)
    with tempfile.TemporaryDirectory() as tmp:
        checkpoint_dir = Path(tmp) / "ckpt"
        for index, chunk in enumerate(chunks[:10], start=1):
            detector.process_chunk(chunk)
            if index % 3 == 0:
                save_checkpoint(detector, checkpoint_dir)
        del detector  # the crash: chunk 10 was never checkpointed
        generations = sorted(p.name for p in checkpoint_dir.iterdir()
                             if p.name.startswith("manifest-"))
        print(f"generation chain:  {generations}")

        restored = load_checkpoint(checkpoint_dir, fallback=True)
        resume_bin = restored.resume_bin
        for chunk in ChunkedSeriesSource(series, CHUNK).resume(resume_bin):
            restored.process_chunk(chunk)
        report = restored.finish()
    print(f"crash + restore:   resumed at bin {resume_bin}, "
          f"{report.n_events} events, exact parity: "
          f"{event_parity(baseline.events, report.events).exact}")


if __name__ == "__main__":
    main()
