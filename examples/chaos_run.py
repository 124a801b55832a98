#!/usr/bin/env python
"""Chaos demo: seeded faults against the fault-tolerant runtime.

Three recovery paths, each ending in exact parity with an undisturbed
run (the invariants ``tests/test_chaos.py`` and the fault cells of
``tests/test_driver_oracle.py`` enforce in CI):

1. the :class:`~repro.service.DetectionService` **crashes** mid-stream,
   between two periodic checkpoints, and a fresh service on the same
   store and checkpoint directory resumes from the newest generation —
   the replayed suffix is absorbed by the idempotent store, whose event
   table ends byte-identical to an undisturbed run's (``tests/test_chaos.py``
   does the same with a real SIGKILL of the service CLI);
2. the newest checkpoint generation is **truncated** (a torn write) and
   ``load_checkpoint(fallback=True)`` quarantines the damaged files and
   restores the previous verified generation — identical events after
   the suffix replay;
3. an ingestion **leaf goes silent** and the hierarchy quarantines it at
   its watermark deadline, continuing over the healthy sub-hierarchy.

Run with::

    python examples/chaos_run.py
"""

import tempfile
from pathlib import Path

from repro.datasets import DatasetConfig, generate_abilene_dataset
from repro.evaluation import event_parity
from repro.faults import corrupt_checkpoint
from repro.service import DetectionService, EventStore
from repro.streaming import (
    ChunkedSeriesSource,
    StreamingConfig,
    StreamingNetworkDetector,
    chunk_series,
    load_checkpoint,
    save_checkpoint,
)
from repro.streaming.hierarchy import HierarchicalNetworkDetector
from repro.telemetry import MetricsRegistry

CHUNK = 48
SEED = 11


class _Crash(Exception):
    """Stands in for the process dying mid-stream."""


def _crash_after(source, n_chunks):
    """*source*'s chunks, then a crash instead of chunk ``n_chunks + 1``."""
    for index, chunk in enumerate(source):
        if index == n_chunks:
            raise _Crash(f"crashed after {n_chunks} chunks")
        yield chunk


def main() -> None:
    dataset = generate_abilene_dataset(DatasetConfig(weeks=2.0 / 7.0),
                                       seed=SEED)
    series = dataset.series
    print(f"dataset: {series.n_bins} bins x {series.n_od_pairs} OD pairs")

    # ------------------------------------------------------------------ #
    # 1. Service crash between checkpoints: restart, identical table.
    # ------------------------------------------------------------------ #
    config = StreamingConfig(min_train_bins=128, recalibrate_every_bins=32)
    source = ChunkedSeriesSource(series, CHUNK)
    reference_store = EventStore()
    DetectionService(config, store=reference_store).run(source)
    print(f"undisturbed run:   {reference_store.count()} events stored")

    with tempfile.TemporaryDirectory() as tmp:
        store_path = Path(tmp) / "events.sqlite"
        checkpoint_dir = Path(tmp) / "ckpt"
        service = DetectionService(
            config, store=EventStore(store_path),
            checkpoint_dir=checkpoint_dir, checkpoint_every_chunks=3)
        try:
            service.run(_crash_after(source, 8))
        except _Crash as crash:
            print(f"service crash:     {crash}; "
                  f"{service.store.count()} events already stored")
        service.close()

        restarted = DetectionService(
            config, store=EventStore(store_path),
            checkpoint_dir=checkpoint_dir, checkpoint_every_chunks=3)
        print(f"restart:           resumes at bin {restarted.resume_bin} "
              f"(the newest checkpoint generation)")
        restarted.run(source)  # positioned at resume_bin by the service
        identical = (restarted.store.table_digest()
                     == reference_store.table_digest())
        print(f"restarted run:     {restarted.store.count()} events stored, "
              f"byte-identical event table: {identical}")
        restarted.close()
    reference_store.close()

    # ------------------------------------------------------------------ #
    # 2. Torn checkpoint write: fallback to the previous generation.
    # ------------------------------------------------------------------ #
    flat_config = StreamingConfig(min_train_bins=128,
                                  recalibrate_every_bins=32)
    chunks = list(chunk_series(series, CHUNK))
    reference = StreamingNetworkDetector(flat_config)
    for chunk in chunks:
        reference.process_chunk(chunk)
    reference_report = reference.finish()

    with tempfile.TemporaryDirectory() as tmp:
        checkpoint_dir = Path(tmp) / "ckpt"
        detector = StreamingNetworkDetector(flat_config)
        for index, chunk in enumerate(chunks[:8]):
            detector.process_chunk(chunk)
            if (index + 1) % 2 == 0:
                save_checkpoint(detector, checkpoint_dir)
        (victim,) = corrupt_checkpoint(checkpoint_dir, mode="truncate")
        print(f"truncated newest checkpoint arrays: {Path(victim).name}")

        restore_registry = MetricsRegistry()
        restored = load_checkpoint(checkpoint_dir, fallback=True,
                                   registry=restore_registry)
        print(f"fallback restore:  resumed at chunk "
              f"{restored.report.n_chunks_processed}, "
              f"{int(restore_registry.value('checkpoints_quarantined'))} "
              f"file(s) quarantined (never deleted)")
        for chunk in chunks[restored.report.n_chunks_processed:]:
            restored.process_chunk(chunk)
        restored_report = restored.finish()
    parity = event_parity(reference_report.events, restored_report.events)
    print(f"replayed suffix:   {restored_report.n_events} events, "
          f"exact parity: {parity.exact}")

    # ------------------------------------------------------------------ #
    # 3. Silent leaf: quarantined at the watermark deadline.
    # ------------------------------------------------------------------ #
    hierarchy = HierarchicalNetworkDetector(flat_config, n_pops=2,
                                            leaf_deadline_bins=2 * CHUNK)
    healthy = [c for i, c in enumerate(chunks) if i % 2 == 0]
    for chunk in healthy:
        hierarchy.process_chunk(chunk, pop=0)  # pop 1 never reports
    report = hierarchy.finish()
    print(f"silent leaf:       pop(s) {sorted(hierarchy.quarantined_pops)} "
          f"quarantined, coverage {hierarchy.coverage:.2f}, detection "
          f"continued over {report.n_bins_processed} healthy bins")


if __name__ == "__main__":
    main()
