"""Dependency-free observability layer of the streaming detection stack.

Three pieces (see the module docstrings for the contracts):

* :mod:`repro.telemetry.registry` — thread-safe, mergeable counters /
  gauges / fixed-bucket histograms and the Prometheus text formatter;
* :mod:`repro.telemetry.tracer` — per-chunk trace spans with monotonic
  timing, seeded sampling, and a pluggable JSON-lines sink;
* :mod:`repro.telemetry.health` — :class:`HealthSnapshot` + the status
  table behind ``tools/status.py``.

The :class:`Telemetry` facade bundles one registry + one tracer + the
snapshot-writing knobs, and is what the streaming components thread
around: every hook is written ``if telemetry is not None: ...``, so a
disabled run (``StreamingConfig(telemetry=False)``, the default) pays a
single attribute check per hook.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from repro.telemetry.health import HealthSnapshot, render_status_table
from repro.telemetry.registry import (DEFAULT_LATENCY_BUCKETS, Counter, Gauge,
                                      Histogram, MetricsRegistry,
                                      prometheus_exposition)
from repro.telemetry.tracer import (JsonLinesSink, ListSink, NullSink, Span,
                                    Tracer)

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "prometheus_exposition", "DEFAULT_LATENCY_BUCKETS",
    "Span", "Tracer", "JsonLinesSink", "ListSink", "NullSink",
    "HealthSnapshot", "render_status_table", "Telemetry",
]


class Telemetry:
    """One run's observability bundle: registry + tracer + snapshot knobs.

    Built with :meth:`from_config` (returns ``None`` when telemetry is
    off, so call sites guard with ``if tel is not None``).
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None,
                 snapshot_path: str = "",
                 snapshot_every_chunks: int = 16) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = (tracer if tracer is not None
                       else Tracer(registry=self.registry))
        self.snapshot_path = str(snapshot_path)
        self.snapshot_every_chunks = int(snapshot_every_chunks)

    # ------------------------------------------------------------------ #
    @classmethod
    def from_config(cls, config) -> Optional["Telemetry"]:
        """A fresh bundle per the config's ``telemetry_*`` knobs.

        ``None`` when ``config.telemetry`` is falsy — the disabled path.
        Accepts any object carrying the knobs (duck-typed so this module
        never imports :mod:`repro.streaming`).
        """
        if not getattr(config, "telemetry", False):
            return None
        registry = MetricsRegistry()
        trace_path = str(getattr(config, "telemetry_trace_path", ""))
        sink = JsonLinesSink(trace_path) if trace_path else None
        tracer = Tracer(
            sample_rate=float(getattr(config, "telemetry_sample_rate", 1.0)),
            registry=registry, sink=sink)
        return cls(
            registry=registry, tracer=tracer,
            snapshot_path=str(getattr(config, "telemetry_snapshot_path", "")),
            snapshot_every_chunks=int(getattr(
                config, "telemetry_snapshot_every_chunks", 16)))

    # ------------------------------------------------------------------ #
    # tracing (thin delegation so call sites hold one object)
    # ------------------------------------------------------------------ #
    def begin_chunk(self, chunk_index: int) -> bool:
        return self.tracer.begin_chunk(chunk_index)

    def end_chunk(self) -> None:
        self.tracer.end_chunk()

    def span(self, stage: str, **attrs) -> Span:
        return Span(self.tracer, stage, attrs)

    # ------------------------------------------------------------------ #
    # snapshots
    # ------------------------------------------------------------------ #
    def snapshot(self, runtime_seconds: Optional[float] = None
                 ) -> HealthSnapshot:
        return HealthSnapshot.from_registry(self.registry,
                                            runtime_seconds=runtime_seconds)

    def write_snapshot(self, runtime_seconds: Optional[float] = None) -> None:
        if self.snapshot_path:
            self.snapshot(runtime_seconds).write(self.snapshot_path)

    def maybe_write_snapshot(self, chunks_processed: int,
                             runtime_seconds: Optional[float] = None) -> None:
        """Periodic snapshot: every ``snapshot_every_chunks`` chunks."""
        if (self.snapshot_path and chunks_processed > 0
                and chunks_processed % self.snapshot_every_chunks == 0):
            self.snapshot(runtime_seconds).write(self.snapshot_path)

    # ------------------------------------------------------------------ #
    # serialization (checkpoints)
    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, object]:
        """The counters' durable state.  Spans are deliberately absent:
        in-flight spans do not survive checkpoint/restore."""
        return {"registry": self.registry.to_dict()}

    def restore_state(self, state: Mapping[str, object]) -> None:
        """Fold a checkpointed registry into this (fresh) bundle."""
        self.registry.merge(MetricsRegistry.from_dict(state["registry"]))

    def close(self) -> None:
        self.tracer.close()
