"""The long-running detection service: pipeline + store + alerts + signals.

:class:`DetectionService` wraps the streaming detection pipeline into a
process you can run indefinitely, SIGTERM at will, and restart without
losing or duplicating a single event:

* every batch of newly closed events is handed off (via the pipeline's
  ``on_events`` hook) to the :class:`~repro.service.store.EventStore` —
  idempotent upserts — and only the events that created **new** rows are
  dispatched to the alert sinks, so a replay never re-pages anyone;
* SIGTERM/SIGINT set a stop flag checked between chunks: the in-flight
  chunk finishes, a crash-consistent checkpoint is written via the
  existing :func:`~repro.streaming.checkpoint.save_checkpoint`, the store
  is flushed, and :meth:`run` returns cleanly (the CLI exits 0);
* on restart the service restores from the checkpoint directory and
  resumes at :attr:`resume_bin`.  PR 3's restart-parity guarantee (the
  restored detector emits the identical remaining events) plus the
  idempotent store yield the service's end-to-end guarantee: the event
  table of an interrupted-and-restarted run is **byte-identical** to an
  uninterrupted run's (``EventStore.table_digest``).

The module is also the service CLI (``python -m repro.service``): a
synthetic Abilene feed (or, with ``--ingest-csv``, on-disk flow-record
exports parsed by :mod:`repro.ingest`), store/checkpoint/alert paths,
optional telemetry snapshotting — the process the CI smoke job SIGTERMs
and restarts.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import signal
import sys
import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.events import AnomalyEvent
from repro.flows.timeseries import TrafficType
from repro.service.records import classify_event
from repro.service.sinks import (AlertDispatcher, JsonLinesAlertSink,
                                 StdoutSink)
from repro.service.store import EventStore
from repro.streaming.checkpoint import (has_checkpoint, load_checkpoint,
                                        save_checkpoint)
from repro.streaming.config import StreamingConfig
from repro.streaming.pipeline import (StreamingNetworkDetector,
                                      StreamingReport)
from repro.streaming.sources import as_chunk_source
from repro.telemetry import MetricsRegistry
from repro.utils.validation import require

__all__ = ["DetectionService", "ServiceResult", "main"]

#: Signals that trigger the graceful-shutdown sequence.
_STOP_SIGNALS = (signal.SIGTERM, signal.SIGINT)


@dataclass
class ServiceResult:
    """Outcome of one :meth:`DetectionService.run` invocation."""

    report: StreamingReport
    interrupted: bool
    events_stored: int
    events_duplicate: int
    checkpoint_dir: Optional[str]

    def to_dict(self) -> dict:
        return {
            "interrupted": self.interrupted,
            "events_stored": self.events_stored,
            "events_duplicate": self.events_duplicate,
            "checkpoint_dir": self.checkpoint_dir,
            "n_events": self.report.n_events,
            "n_bins_processed": self.report.n_bins_processed,
            "n_chunks_processed": self.report.n_chunks_processed,
        }


class DetectionService:
    """Detection-as-a-service: durable events, deduped alerts, clean stops.

    Parameters
    ----------
    config:
        Streaming configuration of the wrapped pipeline.
    store:
        The durable event store (one is created in memory when omitted —
        useful interactively, pointless for restarts).
    dispatcher:
        Alert delivery policy; ``None`` stores without alerting.
    checkpoint_dir:
        Durable state directory.  When it already holds a checkpoint
        manifest the service **resumes** from it (adopting its lineage per
        the checkpoint ownership rules); otherwise a fresh run starts and
        writes its checkpoints there.  ``None`` disables durability (no
        resume, nothing written at shutdown).
    checkpoint_every_chunks:
        Optional periodic-checkpoint cadence while streaming (a crash
        between graceful stops then replays at most this many chunks —
        all absorbed by the idempotent store).  ``None``: checkpoint only
        at shutdown.
    traffic_types:
        Types to analyze; defaults to the types of the first chunk.
    """

    def __init__(self,
                 config: StreamingConfig = StreamingConfig(),
                 store: Optional[EventStore] = None,
                 dispatcher: Optional[AlertDispatcher] = None,
                 checkpoint_dir: Optional[str] = None,
                 checkpoint_every_chunks: Optional[int] = None,
                 traffic_types: Optional[Sequence[TrafficType]] = None
                 ) -> None:
        require(checkpoint_every_chunks is None or checkpoint_every_chunks >= 1,
                "checkpoint_every_chunks must be >= 1 when given")
        require(checkpoint_every_chunks is None or checkpoint_dir is not None,
                "checkpoint_every_chunks needs a checkpoint_dir")
        self.store = store if store is not None else EventStore()
        self.dispatcher = dispatcher
        self._checkpoint_dir = (str(checkpoint_dir)
                                if checkpoint_dir is not None else None)
        self._checkpoint_every = checkpoint_every_chunks
        self._stop = threading.Event()
        self._previous_handlers: dict = {}
        self._events_stored = 0
        self._events_duplicate = 0

        restore_registry = MetricsRegistry()
        if (self._checkpoint_dir is not None
                and has_checkpoint(self._checkpoint_dir)):
            # Fallback restore: a torn or bit-rotted newest generation is
            # quarantined and the previous verified one is loaded instead
            # of killing the service at startup.
            self._detector = load_checkpoint(
                self._checkpoint_dir, fallback=True,
                registry=restore_registry)
        else:
            self._detector = StreamingNetworkDetector(
                config, traffic_types=traffic_types)
        self._detector.on_events = self._handle_events
        telemetry = self._detector.telemetry
        self.registry: MetricsRegistry = (
            telemetry.registry if telemetry is not None
            else (dispatcher.registry if dispatcher is not None
                  else MetricsRegistry()))
        # Fold restore-time fallback/quarantine counters into the
        # service's registry so the health surface reports them.
        self.registry.merge(restore_registry)
        if dispatcher is not None and telemetry is not None:
            # One registry for the whole service: alert-outcome counters
            # land next to the pipeline's, and the periodic health
            # snapshot picks both up.
            dispatcher.registry = telemetry.registry

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def detector(self) -> StreamingNetworkDetector:
        """The wrapped pipeline detector."""
        return self._detector

    @property
    def resume_bin(self) -> int:
        """Stream-global bin a restart resumes at (0: fresh run): the end
        of the last accepted chunk."""
        return self._detector.resume_bin

    @property
    def stop_requested(self) -> bool:
        """Whether a stop signal (or :meth:`request_stop`) arrived."""
        return self._stop.is_set()

    # ------------------------------------------------------------------ #
    # signals
    # ------------------------------------------------------------------ #
    def request_stop(self) -> None:
        """Ask the run loop to stop after the in-flight chunk."""
        self._stop.set()

    def _handle_signal(self, signum, frame) -> None:
        self.registry.counter(
            "service_stop_signals",
            {"signal": signal.Signals(signum).name},
            help="Stop signals received by the service").inc()
        self.request_stop()

    def install_signal_handlers(self) -> None:
        """Route SIGTERM/SIGINT into the graceful-shutdown flag.

        Call from the main thread (CPython restricts signal handling to
        it); previous handlers are restored by :meth:`run` on exit.
        """
        for signum in _STOP_SIGNALS:
            self._previous_handlers[signum] = signal.signal(
                signum, self._handle_signal)

    def _restore_signal_handlers(self) -> None:
        for signum, handler in self._previous_handlers.items():
            signal.signal(signum, handler)
        self._previous_handlers.clear()

    # ------------------------------------------------------------------ #
    # event hand-off
    # ------------------------------------------------------------------ #
    def _handle_events(self, events: List[AnomalyEvent]) -> None:
        """Persist a batch of closed events; alert only the new rows."""
        records = {id(event): classify_event(event) for event in events}
        fresh = []
        for event in events:
            if self.store.add_event(event, records[id(event)]):
                fresh.append(event)
        self._events_stored += len(fresh)
        self._events_duplicate += len(events) - len(fresh)
        self.registry.counter(
            "service_events_stored",
            help="Events persisted as new rows").inc(len(fresh))
        if len(events) > len(fresh):
            self.registry.counter(
                "service_events_replayed",
                help="Re-delivered events absorbed by the idempotent "
                     "store").inc(len(events) - len(fresh))
        if self.dispatcher is not None:
            for event in fresh:
                self.dispatcher.dispatch(event, records[id(event)])

    # ------------------------------------------------------------------ #
    # run loop
    # ------------------------------------------------------------------ #
    def _checkpoint(self) -> None:
        if self._checkpoint_dir is not None:
            save_checkpoint(self._detector, self._checkpoint_dir)

    def run(self, source) -> ServiceResult:
        """Consume *source* until exhaustion or a stop signal.

        *source* is anything :func:`~repro.streaming.sources.as_chunk_source`
        accepts.  A restarted service positions every source at
        :attr:`resume_bin` via ``source.resume(...)``, so callers hand it
        the **full** stream; a plain iterable may also be the aligned
        suffix, since its ``resume`` only skips chunks that end before the
        resume bin.  Every chunk's start is checked by
        ``StreamingNetworkDetector.check_start``.

        Graceful-shutdown sequence on a stop: finish the in-flight chunk,
        write a checkpoint, flush the store, return.  On a
        clean end of stream the aggregator tail is flushed through the
        same persistence path, then the final checkpoint is written.
        """
        source = as_chunk_source(source)
        self._events_stored = 0
        self._events_duplicate = 0
        interrupted = False
        try:
            if not self._detector.finished:
                if self.resume_bin:
                    # Not at bin 0: a live feed already in flight cannot
                    # be re-positioned, and a fresh run needs no skipping.
                    source = source.resume(self.resume_bin)
                for n_chunks, chunk in enumerate(source, start=1):
                    self._detector.check_start(chunk)
                    self._detector.process_chunk(chunk)
                    if (self._checkpoint_every is not None
                            and n_chunks % self._checkpoint_every == 0):
                        self._checkpoint()
                    if self._stop.is_set():
                        interrupted = True
                        break
                if not interrupted:
                    self._detector.finish()
            report = self._detector.report
            self._checkpoint()
            self.store.flush()
            telemetry = self._detector.telemetry
            if telemetry is not None:
                telemetry.write_snapshot()
        finally:
            self._restore_signal_handlers()
        return ServiceResult(
            report=report,
            interrupted=interrupted,
            events_stored=self._events_stored,
            events_duplicate=self._events_duplicate,
            checkpoint_dir=self._checkpoint_dir,
        )

    def close(self) -> None:
        """Release the store and sinks (idempotent)."""
        if self.dispatcher is not None:
            self.dispatcher.close()
        self.store.close()


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #
def _synthetic_source(chunk_size: int, days: int, seed: int):
    """The full synthetic Abilene stream as a resumable ``ChunkSource``.

    The generator is deterministic in ``(seed, block index)``, so
    ``resume(bin)`` — which :meth:`DetectionService.run` calls with the
    checkpoint's resume bin — reproduces the exact remaining chunks.
    """
    from repro.datasets.streaming import SyntheticChunkSource
    from repro.datasets.synthetic import DatasetConfig

    return SyntheticChunkSource(
        chunk_size=chunk_size,
        block_config=DatasetConfig(weeks=1.0 / 7.0),
        seed=seed,
        max_blocks=days,
    )


def _ingest_source(paths: Sequence[str], chunk_size: int):
    """A ``ChunkSource`` parsing on-disk CSV flow-record export(s)."""
    from repro.ingest import FlowCsvSource, IngestConfig
    from repro.topology.abilene import abilene_topology

    return FlowCsvSource(list(paths), network=abilene_topology(),
                         config=IngestConfig(chunk_size=chunk_size))


class _ThrottledSource:
    """Pace a source between chunks without losing its ``resume``."""

    def __init__(self, source, seconds: float) -> None:
        self._source = source
        self._seconds = float(seconds)

    def __iter__(self):
        for chunk in self._source:
            yield chunk
            if self._seconds > 0:
                time.sleep(self._seconds)

    def resume(self, start_bin: int) -> "_ThrottledSource":
        return _ThrottledSource(self._source.resume(start_bin),
                                self._seconds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Run the anomaly-detection service over a synthetic "
                    "Abilene feed: durable event store, deduped alerts, "
                    "SIGTERM-graceful checkpointed shutdown.")
    parser.add_argument("--store", required=True,
                        help="sqlite event-store path")
    parser.add_argument("--checkpoint", default=None,
                        help="checkpoint directory (resumes if it already "
                             "holds a manifest)")
    parser.add_argument("--checkpoint-every-chunks", type=int, default=None,
                        metavar="N", help="also checkpoint every N chunks")
    parser.add_argument("--days", type=int, default=7,
                        help="length of the synthetic feed in days "
                             "(default: the Abilene week)")
    parser.add_argument("--ingest-csv", nargs="+", default=None,
                        metavar="PATH",
                        help="feed the service from CSV flow-record "
                             "export(s) (parsed and binned by "
                             "repro.ingest) instead of the synthetic "
                             "generator; --days/--seed are then ignored")
    parser.add_argument("--chunk-size", type=int, default=48,
                        help="timebins per chunk")
    parser.add_argument("--seed", type=int, default=0,
                        help="synthetic-feed master seed")
    parser.add_argument("--chunk-sleep", type=float, default=0.0,
                        metavar="SECONDS",
                        help="throttle between chunks (lets a smoke test "
                             "SIGTERM mid-stream deterministically)")
    parser.add_argument("--alerts", default=None,
                        help="JSON-lines alert-sink path")
    parser.add_argument("--stdout-alerts", action="store_true",
                        help="also print each alert to stdout")
    parser.add_argument("--dead-letter", default=None,
                        help="dead-letter file for undeliverable alerts")
    parser.add_argument("--snapshot", default=None,
                        help="health-snapshot path (enables telemetry; "
                             "serve it with tools/serve_status.py)")
    parser.add_argument("--min-train-bins", type=int, default=256)
    parser.add_argument("--recalibrate-every-bins", type=int, default=48)
    args = parser.parse_args(argv)

    config = StreamingConfig(
        min_train_bins=args.min_train_bins,
        recalibrate_every_bins=args.recalibrate_every_bins,
    )
    if args.snapshot:
        config = dataclasses.replace(
            config, telemetry=True, telemetry_snapshot_path=args.snapshot,
            telemetry_snapshot_every_chunks=4)

    sinks = []
    if args.alerts:
        sinks.append(JsonLinesAlertSink(args.alerts))
    if args.stdout_alerts:
        sinks.append(StdoutSink())
    dispatcher = AlertDispatcher(
        sinks, dead_letter_path=args.dead_letter or "")

    store = EventStore(args.store)
    service = DetectionService(
        config, store=store, dispatcher=dispatcher,
        checkpoint_dir=args.checkpoint,
        checkpoint_every_chunks=args.checkpoint_every_chunks)
    service.install_signal_handlers()

    if args.ingest_csv:
        source = _ingest_source(args.ingest_csv, args.chunk_size)
    else:
        source = _synthetic_source(args.chunk_size, args.days, args.seed)
    if args.chunk_sleep > 0:
        source = _ThrottledSource(source, args.chunk_sleep)

    print(f"service: store={args.store} checkpoint={args.checkpoint} "
          f"resume_bin={service.resume_bin}", flush=True)
    result = service.run(source)
    print(json.dumps({"table_digest": store.table_digest(),
                      "store_count": store.count(),
                      **result.to_dict()}, sort_keys=True), flush=True)
    service.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
