"""Hierarchical detector aggregation: per-PoP leaves, one global model.

The paper's network-wide method is centralized: every link/OD-flow
measurement reaches one place where the ensemble is decomposed.  Deployed
at an ISP, measurements arrive *per PoP* — each PoP's collector sees only
its own slice of the timeline — and shipping every raw chunk to one host
just moves the bottleneck.  This module keeps ingestion local and
aggregates **models** instead of data:

* each **leaf** is an ordinary
  :class:`~repro.streaming.pipeline.StreamingNetworkDetector` fed only the
  chunks its PoP collected (training-only, via
  :meth:`~repro.streaming.pipeline.StreamingNetworkDetector.ingest_chunk`);
* the **global** per-type detectors own no moments of their own: their
  engine is a :class:`_MergedEngine` view that folds the leaves' moment
  engines together with the exact Chan parallel-moments combine
  (:func:`~repro.streaming.online_pca.merge_online_pca` /
  :func:`~repro.streaming.low_rank.merge_low_rank`) on demand —
  ``O(K p²)`` per refresh, independent of how many bins the leaves hold;
* calibration cadence, detection, identification, and event fusion all run
  through the same code paths as the flat pipeline, so a hierarchical run
  over the identical chunk sequence emits the identical event list
  (``forgetting = 1`` makes the merge order-free; enforced by
  ``tests/test_streaming_hierarchy.py``).

Checkpointing: :meth:`HierarchicalNetworkDetector.to_network_detector`
materializes the merged state as a plain flat detector, so **checkpointing
a hierarchy is checkpointing the merged state** — the saved
directory restores through the ordinary
:func:`~repro.streaming.checkpoint.load_checkpoint` and resumes as a
single-process run with the identical remaining events.
"""

from __future__ import annotations

import time
import uuid
from functools import reduce
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.events import AnomalyEvent
from repro.flows.timeseries import TrafficType
from repro.streaming.aggregator import OnlineEventAggregator
from repro.streaming.config import StreamingConfig
from repro.streaming.detector import ChunkDetections, StreamingSubspaceDetector
from repro.streaming.online_pca import OnlinePCA, merge_online_pca
from repro.streaming.pipeline import (
    StreamingNetworkDetector,
    StreamingReport,
    _dedup_types,
    _fuse_chunk_results,
)
from repro.streaming.sources import TrafficChunk
from repro.telemetry import Telemetry
from repro.utils.validation import require

__all__ = ["HierarchicalNetworkDetector"]


class _MergedEngine:
    """A read-only moment engine that is the merge of the leaves' engines.

    Exposes exactly the engine surface
    :class:`~repro.streaming.detector.StreamingSubspaceDetector` needs for
    calibration (``n_bins_seen`` / ``rank`` / ``n_samples`` / ``mean`` /
    ``eigenbasis`` / ``covariance`` / ``state_dict``) by delegating to a
    cached :func:`~repro.streaming.online_pca.merge_online_pca` fold of the
    per-leaf engines, rebuilt only when a leaf ingested new data (keyed on
    the leaves' moment versions).  It never ingests: feeding data is the
    leaves' job.
    """

    def __init__(self, leaves: Sequence[StreamingNetworkDetector],
                 traffic_type: TrafficType, forgetting: float,
                 quarantined: Optional[set] = None) -> None:
        self._leaves = list(leaves)
        self._type = TrafficType(traffic_type)
        self._forgetting = forgetting
        # Shared (by reference) with the owning hierarchy: leaves whose pop
        # index is in this set are excluded from the fold, so a quarantined
        # leaf's stale moments stop shaping the global model until it is
        # reintegrated — at which point the exact merge folds everything it
        # ingested (including while quarantined) back in.
        self._quarantined = quarantined if quarantined is not None else set()
        self._cached: Optional[OnlinePCA] = None
        self._cache_key: Optional[Tuple] = None

    def _leaf_engines(self) -> List[Tuple[int, object]]:
        engines = []
        for index, leaf in enumerate(self._leaves):
            if index in self._quarantined:
                continue
            detector = leaf._detectors.get(self._type)
            if detector is not None:
                engines.append((index, detector.engine))
        return engines

    def merged(self):
        """The folded engine, rebuilt when a leaf saw new data or the
        quarantine set changed."""
        engines = self._leaf_engines()
        key = tuple((index, engine._version) for index, engine in engines)
        if self._cached is None or key != self._cache_key:
            if not engines:
                self._cached = OnlinePCA(forgetting=self._forgetting)
            else:
                self._cached = reduce(merge_online_pca,
                                      [engine for _, engine in engines])
            self._cache_key = key
        return self._cached

    # ----- the engine surface the detector's calibration path reads ----- #
    @property
    def forgetting(self) -> float:
        return self._forgetting

    @property
    def n_features(self) -> Optional[int]:
        return self.merged().n_features

    @property
    def n_bins_seen(self) -> int:
        return self.merged().n_bins_seen

    @property
    def n_samples(self) -> int:
        return self.merged().n_samples

    @property
    def rank(self) -> int:
        return self.merged().rank

    @property
    def mean(self) -> np.ndarray:
        return self.merged().mean

    def eigenbasis(self):
        return self.merged().eigenbasis()

    def covariance(self) -> np.ndarray:
        return self.merged().covariance()

    def partial_fit(self, chunk) -> None:
        raise NotImplementedError(
            "the global engine is a merged view; ingest through the per-PoP "
            "leaves (HierarchicalNetworkDetector.process_chunk)")

    def state_dict(self) -> Dict[str, Dict]:
        """The merged engine's state — a flat, restorable engine state."""
        return self.merged().state_dict()


class HierarchicalNetworkDetector:
    """Two-level detector: per-PoP ingestion leaves, one global model.

    Drop-in compatible with the flat
    :class:`~repro.streaming.pipeline.StreamingNetworkDetector` driving
    loop — feed chunks through :meth:`process_chunk` (optionally naming the
    PoP that collected each chunk) and :meth:`finish` at end of stream.

    Parameters
    ----------
    config:
        Streaming configuration shared by the leaves and the global
        detectors.  ``forgetting`` must be ``1.0``: only then is the Chan
        moment merge order-free, which is what makes the hierarchy's global
        model — and therefore its event list — independent of how chunks
        were routed to PoPs and identical to a flat run.
    n_pops:
        Number of ingestion leaves; defaults to ``config.n_pops``.  ``1``
        collapses the hierarchy to an (equivalent) flat run.
    traffic_types:
        Types to analyze; defaults to the types of the first chunk.
    """

    def __init__(self, config: StreamingConfig = StreamingConfig(),
                 n_pops: Optional[int] = None,
                 traffic_types: Optional[Sequence[TrafficType]] = None,
                 leaf_deadline_bins: Optional[int] = None) -> None:
        n_pops = config.n_pops if n_pops is None else n_pops
        require(n_pops >= 1, "n_pops must be >= 1")
        require(leaf_deadline_bins is None or leaf_deadline_bins >= 1,
                "leaf_deadline_bins must be >= 1 when given")
        require(config.forgetting == 1.0,
                "hierarchical aggregation requires forgetting == 1.0 (the "
                "parallel-moments merge is only order-free without decay, "
                "so a forgetting run would depend on the PoP routing)")
        require(config.identify, "event fusion needs identified OD flows")
        self._config = config
        self._types: Optional[List[TrafficType]] = (
            _dedup_types(traffic_types) if traffic_types is not None else None)
        self._leaves = [StreamingNetworkDetector(config, traffic_types)
                        for _ in range(n_pops)]
        self._global: Dict[TrafficType, StreamingSubspaceDetector] = {}
        self._aggregator = OnlineEventAggregator()
        self._report = StreamingReport()
        self._finished = False
        self._chunk_index = 0
        self._telemetry = Telemetry.from_config(config)
        # The leaves share the hierarchy's bundle: one registry covers the
        # whole tree (their per-type "update" spans land next to the global
        # detectors' recalibrations), and leaves never write snapshots —
        # only process_chunk/finish do, and those are hierarchy-level.
        for leaf in self._leaves:
            leaf._telemetry = self._telemetry
        self._leaf_end_bin = [0] * n_pops
        # Leaf quarantine: pops in this set stopped producing (missed the
        # watermark deadline, crashed, or were quarantined by the operator)
        # and are excluded from every _MergedEngine fold until reintegrated.
        self._quarantined: set = set()
        self._leaf_deadline_bins = (None if leaf_deadline_bins is None
                                    else int(leaf_deadline_bins))
        self._run_started: Optional[float] = None
        # Lineage id for checkpoint-directory ownership: stable across the
        # hierarchy's saves even though every save materializes a fresh
        # merged flat detector (see repro.streaming.checkpoint).
        self._run_id = uuid.uuid4().hex

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def config(self) -> StreamingConfig:
        """The streaming configuration."""
        return self._config

    @property
    def run_id(self) -> str:
        """Lineage id stamped into this hierarchy's checkpoints."""
        return self._run_id

    @property
    def n_pops(self) -> int:
        """Number of per-PoP ingestion leaves."""
        return len(self._leaves)

    @property
    def report(self) -> StreamingReport:
        """The report accumulated so far (shared object, updated in place)."""
        return self._report

    def leaf(self, pop: int) -> StreamingNetworkDetector:
        """The ingestion detector of one PoP."""
        return self._leaves[pop]

    # ------------------------------------------------------------------ #
    # leaf quarantine
    # ------------------------------------------------------------------ #
    @property
    def quarantined_pops(self) -> frozenset:
        """Indices of the currently quarantined leaves."""
        return frozenset(self._quarantined)

    @property
    def coverage(self) -> float:
        """Fraction of leaves contributing to the global model (0..1]."""
        return (len(self._leaves) - len(self._quarantined)) / len(self._leaves)

    def quarantine_leaf(self, pop: int) -> None:
        """Exclude one leaf from the global model until it returns.

        Global detection continues over the healthy leaves: the next
        :class:`_MergedEngine` refresh folds only their moments, and the
        ``hierarchy_coverage`` gauge drops to match.  The leaf's own
        ingested state is untouched — :meth:`reintegrate_leaf` (or a chunk
        arriving for this pop) folds everything back via the exact merge.
        """
        require(0 <= pop < len(self._leaves),
                f"pop must lie in [0, {len(self._leaves)})")
        if pop in self._quarantined:
            return
        self._quarantined.add(pop)
        if self._telemetry is not None:
            self._telemetry.registry.counter(
                "leaf_quarantines",
                help="Leaves quarantined (silent or crashed PoPs)").inc()
        self._record_coverage()

    def reintegrate_leaf(self, pop: int) -> None:
        """Fold a returned leaf back into the global model (exact merge)."""
        require(0 <= pop < len(self._leaves),
                f"pop must lie in [0, {len(self._leaves)})")
        if pop not in self._quarantined:
            return
        self._quarantined.discard(pop)
        if self._telemetry is not None:
            self._telemetry.registry.counter(
                "leaf_reintegrations",
                help="Quarantined leaves folded back into the global "
                "model").inc()
        self._record_coverage()

    def _record_coverage(self) -> None:
        if self._telemetry is None:
            return
        registry = self._telemetry.registry
        registry.gauge(
            "quarantined_leaves",
            help="Leaves currently excluded from the global model").set(
                float(len(self._quarantined)))
        registry.gauge(
            "hierarchy_coverage",
            help="Fraction of leaves contributing to the global model").set(
                self.coverage)

    def _enforce_leaf_deadline(self) -> None:
        """Auto-quarantine leaves that fell past the watermark deadline."""
        if self._leaf_deadline_bins is None:
            return
        watermark = max(self._leaf_end_bin)
        for pop, end_bin in enumerate(self._leaf_end_bin):
            if pop in self._quarantined:
                continue
            if watermark - end_bin > self._leaf_deadline_bins:
                self.quarantine_leaf(pop)

    def global_detector(self, traffic_type: TrafficType) -> StreamingSubspaceDetector:
        """The global (merged-engine) detector of one traffic type."""
        return self._global[TrafficType(traffic_type)]

    # ------------------------------------------------------------------ #
    # streaming
    # ------------------------------------------------------------------ #
    def _types_for(self, chunk: TrafficChunk) -> List[TrafficType]:
        if self._types is None:
            self._types = chunk.traffic_types
        return self._types

    @property
    def telemetry(self) -> Optional[Telemetry]:
        """The observability bundle shared by the whole tree (or ``None``)."""
        return self._telemetry

    def _global_for(self, traffic_type: TrafficType) -> StreamingSubspaceDetector:
        detector = self._global.get(traffic_type)
        if detector is None:
            engine = _MergedEngine(self._leaves, traffic_type,
                                   self._config.forgetting,
                                   quarantined=self._quarantined)
            detector = StreamingSubspaceDetector(self._config, engine=engine)
            if self._telemetry is not None:
                detector.bind_telemetry(self._telemetry,
                                        {"type": traffic_type.value})
            self._global[traffic_type] = detector
        return detector

    def _update_runtime(self) -> None:
        if self._run_started is None:
            return
        runtime = time.perf_counter() - self._run_started
        self._report.runtime_seconds = runtime
        self._report.bins_per_second = (
            self._report.n_bins_processed / runtime if runtime > 0 else 0.0)
        if self._telemetry is not None:
            self._telemetry.registry.gauge(
                "runtime_seconds",
                help="Wall-clock processing time so far").set(runtime)

    def process_chunk(self, chunk: TrafficChunk,
                      pop: Optional[int] = None) -> List[AnomalyEvent]:
        """Ingest *chunk* at one PoP, then detect it against the global model.

        *pop* names the PoP that collected the chunk; by default chunks are
        routed round-robin (chunk index modulo ``n_pops``), which models
        interleaved arrival.  The global model the chunk is tested against
        always covers **everything every PoP ingested so far** — exactly
        the model a flat run would hold at this stream position.
        """
        require(not self._finished, "detector already finished")
        pop = self._chunk_index % len(self._leaves) if pop is None else pop
        require(0 <= pop < len(self._leaves),
                f"pop must lie in [0, {len(self._leaves)})")
        if self._run_started is None:
            self._run_started = time.perf_counter()
        tel = self._telemetry
        if tel is not None:
            tel.begin_chunk(self._chunk_index)
        types = self._types_for(chunk)
        if pop in self._quarantined:
            # The leaf produced again: fold its state back (exact merge).
            self.reintegrate_leaf(pop)
        self._leaves[pop].ingest_chunk(chunk)
        self._leaf_end_bin[pop] = max(self._leaf_end_bin[pop], chunk.end_bin)
        self._enforce_leaf_deadline()

        results: Dict[TrafficType, ChunkDetections] = {}
        for traffic_type in types:
            detector = self._global_for(traffic_type)
            detector.maybe_calibrate()
            if detector.snapshot is None:
                results[traffic_type] = ChunkDetections(
                    start_bin=chunk.start_bin, n_bins=chunk.n_bins,
                    warmup=True)
            else:
                results[traffic_type] = detector.detect_chunk(
                    chunk.matrix(traffic_type), chunk.start_bin)
            detector.advance_to(chunk.end_bin)
        events = _fuse_chunk_results(results, chunk, self._aggregator,
                                     self._report, tel)
        if any(result.warmup for result in results.values()):
            self._report.n_warmup_bins += chunk.n_bins
            if tel is not None:
                tel.registry.counter(
                    "warmup_bins",
                    help="Bins consumed before the model warmed up"
                ).inc(chunk.n_bins)
        self._chunk_index += 1
        if tel is not None:
            # Per-leaf ingestion lag: how far behind the global watermark
            # (the newest bin any PoP delivered) each leaf's last chunk is.
            watermark = max(self._leaf_end_bin)
            for index, end_bin in enumerate(self._leaf_end_bin):
                tel.registry.gauge(
                    "hierarchy_leaf_lag_bins", {"pop": str(index)},
                    help="Bins between the global watermark and this "
                    "PoP's last ingested chunk").set(watermark - end_bin)
            self._record_coverage()
            tel.end_chunk()
            self._update_runtime()
            tel.maybe_write_snapshot(self._report.n_chunks_processed)
        else:
            self._update_runtime()
        return events

    def finish(self) -> StreamingReport:
        """Flush the aggregator at end of stream and return the report."""
        if not self._finished:
            self._report.events.extend(self._aggregator.flush())
            self._finished = True
            self._update_runtime()
            if self._telemetry is not None:
                self._telemetry.write_snapshot()
        return self._report

    # ------------------------------------------------------------------ #
    # checkpoint (merge, then persist flat)
    # ------------------------------------------------------------------ #
    def to_network_detector(self) -> StreamingNetworkDetector:
        """The merged state as an equivalent flat network detector.

        Materializes every global detector's merged engine, snapshot, and
        stream position plus the shared aggregator/report into an ordinary
        :class:`~repro.streaming.pipeline.StreamingNetworkDetector`: fed
        the remaining chunks, it continues with the identical event list —
        and it checkpoints through the ordinary
        :func:`~repro.streaming.checkpoint.save_checkpoint`.
        """
        flat = StreamingNetworkDetector(self._config, self._types)
        for traffic_type, detector in self._global.items():
            state = detector.state_dict()
            twin = StreamingSubspaceDetector.from_state(
                self._config, state["meta"], state["arrays"])
            if flat._telemetry is not None:
                twin.bind_telemetry(flat._telemetry,
                                    {"type": traffic_type.value})
            flat._detectors[traffic_type] = twin
        flat._runtime_base = self._report.runtime_seconds
        flat._aggregator = OnlineEventAggregator.from_state(
            self._aggregator.state_dict())
        flat._report = StreamingReport.from_dict(self._report.to_dict())
        flat._finished = self._finished
        if flat._telemetry is not None and self._telemetry is not None:
            # The flat twin starts with a fresh bundle; carry the counters
            # over so a hierarchy checkpoint preserves them like any other.
            flat._telemetry.restore_state(self._telemetry.state_dict())
        return flat

    def save(self, directory) -> "HierarchicalNetworkDetector":
        """Checkpoint the **merged** state (see :meth:`to_network_detector`).

        The written directory is an ordinary flat checkpoint: restore with
        :meth:`StreamingNetworkDetector.restore` and keep streaming.
        """
        from repro.streaming.checkpoint import save_checkpoint
        save_checkpoint(self, directory)
        return self
