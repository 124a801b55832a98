#!/usr/bin/env python
"""The distributed ingestion plane, end to end.

Builds on ``examples/streaming_checkpoint.py`` with the two pieces that
feed one live diagnosis from many sites:

1. an **asyncio feed** (``AsyncChunkSource``): an async producer pushes
   chunks with bounded backpressure and watermarks while the synchronous
   driver consumes them unchanged;
2. a **2-PoP hierarchy** (``HierarchicalNetworkDetector``): each PoP
   folds only its own chunks into its own moments, and detection reads
   their exact parallel-moments merge — event-identical to the flat run —
   and **checkpointing the hierarchy checkpoints the merged state**: the
   saved directory restores as a flat detector that finishes the stream
   with the identical remaining events.

Run with::

    python examples/distributed_ingestion.py
"""

import asyncio
import tempfile
import threading
from pathlib import Path

from repro.datasets import DatasetConfig, generate_abilene_dataset
from repro.evaluation import event_parity
from repro.streaming import (
    AsyncChunkSource,
    HierarchicalNetworkDetector,
    StreamingConfig,
    StreamingNetworkDetector,
    chunk_series,
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
    print(f"baseline live run:    {baseline.n_events} events")

    # ------------------------------------------------------------------ #
    # 1. Asyncio feed: an async producer with bounded backpressure and
    #    watermarks, the same synchronous driver on the consuming side.
    # ------------------------------------------------------------------ #
    source = AsyncChunkSource(maxsize=4)

    def produce() -> None:
        async def pump():
            for chunk in chunk_series(series, CHUNK):
                await source.put(chunk)
            await source.aclose()
        asyncio.run(pump())

    producer = threading.Thread(target=produce, daemon=True)
    producer.start()
    live = stream_detect(source, config)
    producer.join()
    print(f"asyncio feed:         {live.n_events} events, exact parity: "
          f"{event_parity(baseline.events, live.events).exact} "
          f"(consumed watermark {source.consumed_watermark} bins)")

    # ------------------------------------------------------------------ #
    # 2. Two-PoP hierarchy: local ingestion, merged global model, and a
    #    checkpoint of the merged state that resumes as a flat run.
    # ------------------------------------------------------------------ #
    chunks = list(chunk_series(series, CHUNK))
    split = len(chunks) // 2
    hierarchy = HierarchicalNetworkDetector(config, n_pops=2)
    for i, chunk in enumerate(chunks[:split]):
        hierarchy.process_chunk(chunk, pop=i % 2)

    with tempfile.TemporaryDirectory() as tmp:
        checkpoint_dir = Path(tmp) / "merged-ckpt"
        hierarchy.save(checkpoint_dir)  # persists the *merged* flat state
        restored = StreamingNetworkDetector.restore(checkpoint_dir)
        for chunk in chunks[split:]:
            restored.process_chunk(chunk)
        report = restored.finish()
    print(f"2-PoP hierarchy:      resumed from the merged checkpoint, "
          f"{report.n_events} events, exact parity: "
          f"{event_parity(baseline.events, report.events).exact}")


if __name__ == "__main__":
    main()
