"""Health snapshots: the registry folded into one structured report.

A :class:`HealthSnapshot` is the status surface of a run: the handful of
headline quantities an operator checks first (throughput, events by type,
recalibration cadence, stage latencies, fault recovery) pulled out of the
:class:`~repro.telemetry.registry.MetricsRegistry`, plus the complete
metrics dump for everything else.  The pipeline writes one periodically
(atomic rename, so a reader never sees a torn file); ``tools/status.py``
renders the latest one as a table, and
:func:`~repro.telemetry.registry.prometheus_exposition` turns the same
registry into a scrape payload.
"""

from __future__ import annotations

import json
import os
import time
import uuid
import warnings
from dataclasses import dataclass, field, fields as dataclass_fields
from typing import Dict, List, Mapping, Optional

from repro.telemetry.registry import MetricsRegistry

__all__ = ["HealthSnapshot", "render_status_table"]

SNAPSHOT_VERSION = 1

#: Fields older snapshots carry that this class no longer has: the shard
#: workers' chunk counts, restart count and degraded flag.  Dropped on
#: load without the unknown-field warning.
RETIRED_FIELDS = ("workers", "worker_restarts", "degraded")


@dataclass
class HealthSnapshot:
    """One structured view of a run's telemetry at a point in time."""

    created_unix: float
    bins_processed: int
    chunks_processed: int
    warmup_bins: int
    runtime_seconds: float
    bins_per_second: float
    events_total: int
    events_by_type: Dict[str, int]
    recalibrations: int
    recalibration_seconds: float
    stage_seconds: Dict[str, Dict[str, float]] = field(default_factory=dict)
    metrics: Dict[str, object] = field(default_factory=dict)
    # Fault-tolerance surface (defaults keep pre-existing snapshots
    # loading): checkpoint fallback activity, hierarchy leaf quarantine,
    # and malformed-chunk skips.
    checkpoint_fallbacks: int = 0
    checkpoints_quarantined: int = 0
    quarantined_leaves: int = 0
    coverage: float = 1.0
    bad_chunks: int = 0
    # Recalibrations whose top-k eigenbasis ran the full eigh because the
    # filtered route missed its tolerance (0 on a healthy run).
    eigen_fallbacks: int = 0

    # ------------------------------------------------------------------ #
    @classmethod
    def from_registry(cls, registry: MetricsRegistry,
                      runtime_seconds: Optional[float] = None,
                      created_unix: Optional[float] = None
                      ) -> "HealthSnapshot":
        """Derive the headline fields from the registry's canonical names.

        ``runtime_seconds`` defaults to the registry's own
        ``runtime_seconds`` gauge (set by the pipeline); throughput is
        recomputed from bins/runtime rather than trusted from a gauge so
        the snapshot is internally consistent.
        """
        if runtime_seconds is None:
            runtime_seconds = registry.value("runtime_seconds")
        bins = registry.value("bins_processed")
        events_by_type = {
            dict(labels_key).get("type", ""): int(metric.value)
            for labels_key, metric in registry.labeled("events").items()
        }
        # Recalibrations are counted per traffic type; the headline number
        # is the sum over every labeled child.
        n_recalibrations = sum(
            int(metric.value)
            for metric in registry.labeled("recalibrations").values())
        recal = registry.get("stage_seconds", {"stage": "recalibrate"})
        stage_summary: Dict[str, Dict[str, float]] = {}
        for labels_key, metric in registry.labeled("stage_seconds").items():
            stage = dict(labels_key).get("stage", "")
            stage_summary[stage] = {
                "count": metric.count,
                "total_seconds": metric.total,
                "mean_seconds": metric.mean,
                "p95_seconds": metric.quantile(0.95),
            }
        # Coverage defaults to full when the run has no hierarchy gauge.
        coverage = registry.value("hierarchy_coverage", default=1.0)
        return cls(
            created_unix=(time.time() if created_unix is None
                          else float(created_unix)),
            bins_processed=int(bins),
            chunks_processed=int(registry.value("chunks_processed")),
            warmup_bins=int(registry.value("warmup_bins")),
            runtime_seconds=float(runtime_seconds),
            bins_per_second=(bins / runtime_seconds
                             if runtime_seconds > 0 else 0.0),
            events_total=sum(events_by_type.values()),
            events_by_type=events_by_type,
            recalibrations=n_recalibrations,
            recalibration_seconds=(recal.total if recal is not None else 0.0),
            stage_seconds=stage_summary,
            metrics=registry.to_dict(),
            checkpoint_fallbacks=int(registry.value("checkpoint_fallbacks")),
            checkpoints_quarantined=int(
                registry.value("checkpoints_quarantined")),
            quarantined_leaves=int(registry.value("quarantined_leaves")),
            coverage=float(coverage),
            bad_chunks=int(registry.value("bad_chunks")),
            eigen_fallbacks=sum(
                int(metric.value)
                for metric in registry.labeled("eigen_fallbacks").values()),
        )

    def registry(self) -> MetricsRegistry:
        """Rehydrate the full registry captured in this snapshot."""
        return MetricsRegistry.from_dict(self.metrics)

    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """The JSON form.  Nested dicts are this snapshot's own, not copies:
        every field is plain data, and a deep copy of the registry dump
        costs more than the rest of a periodic snapshot write."""
        return {"version": SNAPSHOT_VERSION,
                **{f.name: getattr(self, f.name) for f in dataclass_fields(self)}}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "HealthSnapshot":
        fields = dict(data)
        for name in ("version",) + RETIRED_FIELDS:
            fields.pop(name, None)
        # Forward compatibility: a snapshot written by a newer
        # SNAPSHOT_VERSION may carry fields this reader does not know.  An
        # old status CLI pointed at a new run must keep rendering what it
        # understands, not crash with a TypeError.
        known = {f.name for f in dataclass_fields(cls)}
        unknown = sorted(set(fields) - known)
        if unknown:
            warnings.warn(
                f"health snapshot carries unknown fields {unknown} "
                f"(written by a newer snapshot version?); ignoring them",
                RuntimeWarning, stacklevel=2)
            for name in unknown:
                fields.pop(name)
        return cls(**fields)

    def write(self, path: str) -> None:
        """Atomically replace *path* with this snapshot as JSON.

        The temp name is unique per write (pid + random suffix): two
        processes snapshotting the same path — two overlapping runs, or a
        run and its restart — must never rename each other's half-written
        file.  The payload is fsynced before the rename, matching the
        checkpoint module's durability discipline.
        """
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        tmp_path = f"{path}.{os.getpid()}.{uuid.uuid4().hex[:8]}.tmp"
        try:
            with open(tmp_path, "w", encoding="utf-8") as handle:
                # dumps, not dump: only the one-shot encoder runs in C.
                handle.write(json.dumps(self.to_dict(), sort_keys=True))
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, path)
        except BaseException:
            # Never leave a stray temp file behind a failed write.
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise

    @classmethod
    def read(cls, path: str) -> "HealthSnapshot":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


def _rows_to_table(rows: List[List[str]], header: List[str]) -> List[str]:
    widths = [max(len(str(row[i])) for row in [header] + rows)
              for i in range(len(header))]
    def fmt(row):
        return "  ".join(str(cell).ljust(width)
                         for cell, width in zip(row, widths)).rstrip()
    lines = [fmt(header), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return lines


def render_status_table(snapshot: HealthSnapshot) -> str:
    """The snapshot as a plain-text operator table (``tools/status.py``)."""
    age = time.time() - snapshot.created_unix
    lines = [
        f"snapshot taken {age:.1f}s ago "
        f"(unix {snapshot.created_unix:.0f})",
        "",
        f"bins processed     {snapshot.bins_processed}"
        f"  (+{snapshot.warmup_bins} warm-up)",
        f"chunks processed   {snapshot.chunks_processed}",
        f"runtime            {snapshot.runtime_seconds:.2f}s"
        f"  ({snapshot.bins_per_second:.1f} bins/sec)",
        f"events emitted     {snapshot.events_total}",
        f"recalibrations     {snapshot.recalibrations}"
        f"  ({snapshot.recalibration_seconds:.3f}s total,"
        f" {snapshot.eigen_fallbacks} eigh fallbacks)",
    ]
    faults = (snapshot.checkpoint_fallbacks
              or snapshot.checkpoints_quarantined
              or snapshot.quarantined_leaves or snapshot.bad_chunks
              or snapshot.coverage < 1.0)
    if faults:
        lines += [
            "",
            f"ckpt fallbacks     {snapshot.checkpoint_fallbacks}"
            f"  ({snapshot.checkpoints_quarantined} files quarantined)",
            f"leaf coverage      {snapshot.coverage:.2f}"
            f"  ({snapshot.quarantined_leaves} leaves quarantined)",
            f"bad chunks         {snapshot.bad_chunks}",
        ]
    if snapshot.events_by_type:
        lines.append("")
        lines.extend(_rows_to_table(
            [[label, str(count)]
             for label, count in sorted(snapshot.events_by_type.items())],
            ["event type", "count"]))
    if snapshot.stage_seconds:
        lines.append("")
        lines.extend(_rows_to_table(
            [[stage, str(int(s["count"])), f"{s['mean_seconds'] * 1e3:.3f}",
              f"{s['p95_seconds'] * 1e3:.3f}", f"{s['total_seconds']:.3f}"]
             for stage, s in sorted(snapshot.stage_seconds.items())],
            ["stage", "count", "mean ms", "p95 ms", "total s"]))
    return "\n".join(lines) + "\n"
