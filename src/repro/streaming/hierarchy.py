"""Hierarchical detector aggregation: per-PoP ingestion, one global model.

The paper's network-wide method is centralized: every link/OD-flow
measurement reaches one place where the ensemble is decomposed.  Deployed
at an ISP, measurements arrive *per PoP* — each PoP's collector sees only
its own slice of the timeline — and shipping every raw chunk to one host
just moves the bottleneck.  This module keeps ingestion local and
aggregates **models** instead of data.

:class:`HierarchicalNetworkDetector` *is* a
:class:`~repro.streaming.pipeline.StreamingNetworkDetector`; only its
per-type moment engine differs.  That engine, :class:`_MergedEngine`,
holds one moment engine per PoP: a chunk folds into the engine of the PoP
that collected it, and every read (calibration, checkpoint) goes to the
exact Chan parallel-moments fold of the per-PoP engines
(:func:`~repro.streaming.online_pca.merge_online_pca`), cached until a
PoP ingests again — ``O(K p²)`` per refresh, independent of how many bins
the PoPs hold.  Everything else — the bad-chunk policy, calibration
cadence, detection, identification, event fusion, warm-up and runtime
accounting, telemetry, the ``on_events`` hook and ``finish()`` — is the
flat detector's own chunk loop, so a hierarchical run over the identical
chunk sequence emits the identical report (``forgetting = 1`` makes the
merge order-free; enforced by the hierarchy cells of
``tests/test_driver_oracle.py``).

What is hierarchical is the bookkeeping around that loop: routing chunks
to PoPs, the watermark deadline that quarantines a silent PoP (its
moments leave the fold until it produces again), and the coverage and
leaf-lag gauges.

Checkpointing: the merged engine serializes as a plain
:class:`~repro.streaming.online_pca.OnlinePCA`, so the hierarchy's
``state_dict()`` **is** a flat checkpoint of the merged state — it saves
through the ordinary :func:`~repro.streaming.checkpoint.save_checkpoint`
and restores as a single-process run with the identical remaining events.
"""

from __future__ import annotations

from functools import reduce
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.events import AnomalyEvent
from repro.flows.timeseries import TrafficType
from repro.streaming.config import StreamingConfig
from repro.streaming.detector import StreamingSubspaceDetector
from repro.streaming.online_pca import OnlinePCA, merge_online_pca
from repro.streaming.pipeline import StreamingNetworkDetector
from repro.streaming.sources import TrafficChunk
from repro.utils.validation import require

__all__ = ["HierarchicalNetworkDetector"]


class _MergedEngine:
    """One moment engine per PoP behind the single-engine surface.

    :meth:`partial_fit` folds a chunk into the engine of the PoP *route*
    names.  The counts the detector reads on every chunk (``n_bins_seen``
    / ``n_samples`` / ``rank``) are sums over the PoPs that are not
    quarantined (``n_samples`` is the bin count because the hierarchy
    requires ``forgetting = 1``); the moments (``mean`` / ``eigenbasis``
    / ``eigen_fallbacks`` / ``state_dict``) go to a cached
    :func:`~repro.streaming.online_pca.merge_online_pca` fold, in PoP
    order, of the engines that hold data and are not quarantined, so the
    fold runs at recalibrations and saves, not per chunk.
    """

    def __init__(self, config: StreamingConfig, n_pops: int,
                 route: Callable[[], int], quarantined: set) -> None:
        self._forgetting = config.forgetting
        self._engines = [OnlinePCA(forgetting=config.forgetting)
                         for _ in range(n_pops)]
        self._route = route
        # Shared (by reference) with the owning hierarchy: a quarantined
        # PoP's stale moments stop shaping the global model until it is
        # reintegrated, when the exact merge folds them back in.
        self._quarantined = quarantined
        self._cached: Optional[OnlinePCA] = None
        self._cache_key: Optional[Tuple] = None

    @property
    def engines(self) -> Tuple:
        """The per-PoP engines, indexed by PoP."""
        return tuple(self._engines)

    def partial_fit(self, chunk) -> None:
        self._engines[self._route()].partial_fit(chunk)

    def merged(self):
        """The folded engine, rebuilt when a PoP ingested or the
        quarantine set changed."""
        engines = [(pop, engine) for pop, engine in enumerate(self._engines)
                   if pop not in self._quarantined and engine.n_bins_seen]
        # Without forgetting a PoP's moments change only when it ingests
        # bins (a merge that switches it to its scatter keeps them), so
        # the bin counts key the cache.
        key = tuple((pop, engine.n_bins_seen) for pop, engine in engines)
        if self._cached is None or key != self._cache_key:
            if not engines:
                self._cached = OnlinePCA(forgetting=self._forgetting)
            else:
                self._cached = reduce(merge_online_pca,
                                      [engine for _, engine in engines])
            self._cache_key = key
        return self._cached

    @property
    def n_features(self) -> Optional[int]:
        """OD-flow count of the first PoP that ingested (quarantined or not)."""
        return next((engine.n_features for engine in self._engines
                     if engine.n_features is not None), None)

    @property
    def n_bins_seen(self) -> int:
        return sum(engine.n_bins_seen
                   for pop, engine in enumerate(self._engines)
                   if pop not in self._quarantined)

    n_samples = n_bins_seen

    @property
    def rank(self) -> int:
        n_features = self.n_features
        return 0 if n_features is None else min(self.n_bins_seen, n_features)

    @property
    def mean(self) -> np.ndarray:
        return self.merged().mean

    @property
    def eigen_fallbacks(self) -> int:
        return self.merged().eigen_fallbacks

    def eigenbasis(self, n_axes=None):
        return self.merged().eigenbasis(n_axes)

    def state_dict(self):
        """The merged engine's state — a flat, restorable engine state."""
        return self.merged().state_dict()


class HierarchicalNetworkDetector(StreamingNetworkDetector):
    """A network detector whose moments are ingested per PoP.

    Feed chunks through :meth:`process_chunk`, optionally naming the PoP
    that collected each chunk, and :meth:`finish` at end of stream —
    exactly like the flat detector, whose report, hook, bad-chunk policy
    and checkpoint it shares.

    Parameters
    ----------
    config:
        Streaming configuration.  ``forgetting`` must be ``1.0``: only
        then is the Chan moment merge order-free, which is what makes the
        global model — and therefore the event list — independent of how
        chunks were routed to PoPs and identical to a flat run.
    n_pops:
        Number of per-PoP engines; ``1`` is an (equivalent) flat run.
    traffic_types:
        Types to analyze; defaults to the types of the first chunk.
    leaf_deadline_bins:
        Watermark deadline: a PoP whose last chunk ends more than this
        many bins behind the newest bin any PoP delivered is quarantined
        (``None``: never automatically).
    """

    def __init__(self, config: StreamingConfig = StreamingConfig(),
                 n_pops: int = 1,
                 traffic_types: Optional[Sequence[TrafficType]] = None,
                 leaf_deadline_bins: Optional[int] = None) -> None:
        require(n_pops >= 1, "n_pops must be >= 1")
        require(leaf_deadline_bins is None or leaf_deadline_bins >= 1,
                "leaf_deadline_bins must be >= 1 when given")
        require(config.forgetting == 1.0,
                "hierarchical aggregation requires forgetting == 1.0 (the "
                "parallel-moments merge is only order-free without decay, "
                "so a forgetting run would depend on the PoP routing)")
        super().__init__(config, traffic_types)
        self._leaf_end_bin = [0] * n_pops
        # PoPs in this set stopped producing (missed the watermark
        # deadline, crashed, or were quarantined by the operator) and are
        # excluded from every _MergedEngine fold until reintegrated.
        self._quarantined: set = set()
        self._leaf_deadline_bins = (None if leaf_deadline_bins is None
                                    else int(leaf_deadline_bins))
        # The PoP the chunk in flight was routed to (read by the engines).
        self._pop = 0

    @property
    def n_pops(self) -> int:
        """Number of per-PoP engines."""
        return len(self._leaf_end_bin)

    # ------------------------------------------------------------------ #
    # leaf quarantine
    # ------------------------------------------------------------------ #
    @property
    def quarantined_pops(self) -> frozenset:
        """Indices of the currently quarantined PoPs."""
        return frozenset(self._quarantined)

    @property
    def coverage(self) -> float:
        """Fraction of PoPs contributing to the global model (0..1]."""
        return (self.n_pops - len(self._quarantined)) / self.n_pops

    def quarantine_leaf(self, pop: int) -> None:
        """Exclude one PoP from the global model until it returns.

        Detection continues over the healthy PoPs: the next
        :class:`_MergedEngine` refresh folds only their moments, and the
        ``hierarchy_coverage`` gauge drops to match.  The PoP's own
        moments are untouched — :meth:`reintegrate_leaf` (or a chunk
        arriving for this PoP) folds them back via the exact merge.
        """
        require(0 <= pop < self.n_pops, f"pop must lie in [0, {self.n_pops})")
        if pop in self._quarantined:
            return
        self._quarantined.add(pop)
        if self._telemetry is not None:
            self._telemetry.registry.counter(
                "leaf_quarantines",
                help="Leaves quarantined (silent or crashed PoPs)").inc()
        self._record_gauges()

    def reintegrate_leaf(self, pop: int) -> None:
        """Fold a returned PoP back into the global model (exact merge)."""
        require(0 <= pop < self.n_pops, f"pop must lie in [0, {self.n_pops})")
        if pop not in self._quarantined:
            return
        self._quarantined.discard(pop)
        if self._telemetry is not None:
            self._telemetry.registry.counter(
                "leaf_reintegrations",
                help="Quarantined leaves folded back into the global "
                "model").inc()
        self._record_gauges()

    def _record_gauges(self) -> None:
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
        # Per-PoP ingestion lag: how far behind the global watermark (the
        # newest bin any PoP delivered) each PoP's last chunk is.
        watermark = max(self._leaf_end_bin)
        for pop, end_bin in enumerate(self._leaf_end_bin):
            registry.gauge(
                "hierarchy_leaf_lag_bins", {"pop": str(pop)},
                help="Bins between the global watermark and this "
                "PoP's last ingested chunk").set(watermark - end_bin)

    def _enforce_leaf_deadline(self) -> None:
        """Auto-quarantine PoPs that fell past the watermark deadline."""
        if self._leaf_deadline_bins is None:
            return
        watermark = max(self._leaf_end_bin)
        for pop, end_bin in enumerate(self._leaf_end_bin):
            if (pop not in self._quarantined
                    and watermark - end_bin > self._leaf_deadline_bins):
                self.quarantine_leaf(pop)

    # ------------------------------------------------------------------ #
    # streaming
    # ------------------------------------------------------------------ #
    def _detector_for(self, traffic_type: TrafficType) -> StreamingSubspaceDetector:
        detector = self._detectors.get(traffic_type)
        if detector is None:
            engine = _MergedEngine(self._config, self.n_pops,
                                   lambda: self._pop, self._quarantined)
            detector = StreamingSubspaceDetector(self._config, engine=engine)
            if self._telemetry is not None:
                detector.bind_telemetry(self._telemetry,
                                        {"type": traffic_type.value})
            self._detectors[traffic_type] = detector
        return detector

    def process_chunk(self, chunk: TrafficChunk,
                      pop: Optional[int] = None) -> List[AnomalyEvent]:
        """Ingest *chunk* at one PoP, then detect it against the global model.

        *pop* names the PoP that collected the chunk; by default chunks are
        routed round-robin (processed-chunk count modulo ``n_pops``), which
        models interleaved arrival.  A PoP that delivers a chunk counts as
        alive (a quarantined one is reintegrated) even if the chunk is
        malformed and the ``on_bad_chunk`` policy then skips it.  The
        global model the chunk is tested against always covers everything
        every non-quarantined PoP ingested so far — the model a flat run
        would hold at this stream position.
        """
        require(not self._finished, "detector already finished")
        if pop is None:
            pop = self._report.n_chunks_processed % self.n_pops
        self.reintegrate_leaf(pop)  # also checks the pop's range
        self._leaf_end_bin[pop] = max(self._leaf_end_bin[pop], chunk.end_bin)
        self._enforce_leaf_deadline()
        self._record_gauges()
        self._pop = pop
        return super().process_chunk(chunk)

    def to_network_detector(self) -> StreamingNetworkDetector:
        """The merged state as an equivalent flat network detector."""
        return StreamingNetworkDetector.from_state(**self.state_dict())
