#!/usr/bin/env python
"""Chaos demo: seeded faults against the fault-tolerant runtime.

Three recovery paths, each ending in exact parity with an undisturbed
run (the invariants ``tests/test_chaos.py`` enforces in CI):

1. a shard worker is **killed** mid-stream and the
   :class:`~repro.streaming.parallel.WorkerSupervisor` restarts it from
   the last good checkpoint, replaying the suffix — identical events;
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
from repro.faults import FaultPlan, corrupt_checkpoint
from repro.streaming import (
    ChunkedSeriesSource,
    StreamingConfig,
    StreamingNetworkDetector,
    WorkerSupervisor,
    chunk_series,
    load_checkpoint,
    parallel_stream_detect,
    save_checkpoint,
)
from repro.streaming.hierarchy import HierarchicalNetworkDetector
from repro.telemetry import MetricsRegistry

CHUNK = 48
SEED = 11


def main() -> None:
    dataset = generate_abilene_dataset(DatasetConfig(weeks=2.0 / 7.0),
                                       seed=SEED)
    series = dataset.series
    print(f"dataset: {series.n_bins} bins x {series.n_od_pairs} OD pairs")

    # ------------------------------------------------------------------ #
    # 1. Worker killed mid-stream: supervised restart, event parity.
    # ------------------------------------------------------------------ #
    config = StreamingConfig(min_train_bins=128, recalibrate_every_bins=32)
    source = ChunkedSeriesSource(series, CHUNK)
    baseline = parallel_stream_detect(source, config, n_workers=2)
    print(f"undisturbed run:   {baseline.n_events} events")

    plan = FaultPlan().kill_worker(at_chunk=8, worker=0)
    print("fault plan:        " + "; ".join(plan.describe()))
    registry = MetricsRegistry()
    with tempfile.TemporaryDirectory() as tmp:
        supervisor = WorkerSupervisor(
            config, source, n_workers=2,
            checkpoint_dir=Path(tmp) / "ckpt", checkpoint_every_chunks=3,
            max_restarts=2, registry=registry, fault_hook=plan.hook)
        report = supervisor.run()
    parity = event_parity(baseline.events, report.events)
    print(f"supervised run:    {report.n_events} events after "
          f"{supervisor.restarts} restart(s), exact parity: {parity.exact}")

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
