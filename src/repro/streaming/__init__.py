"""Streaming subspace detection — the online counterpart of :mod:`repro.core`.

The batch pipeline fits a full SVD over the entire OD-flow history and
detects in one shot; this package turns that into an online system:

1. :class:`~repro.streaming.online_pca.OnlinePCA` maintains the running
   mean and covariance eigenbasis under exponential forgetting — ``O(p²)``
   state and ``O(m p²)`` work per chunk instead of an ``O(n p²)`` SVD per
   refit;
2. :class:`~repro.streaming.detector.StreamingSubspaceDetector` consumes
   fixed-size chunks of timebins, projects them against the current
   subspace snapshot, applies the SPE / T² control limits, and recalibrates
   on a configurable cadence;
3. :mod:`repro.streaming.sources` adapts in-memory
   :class:`~repro.flows.timeseries.TrafficMatrixSeries` (and, via
   :mod:`repro.datasets.streaming`, unbounded synthetic generators) into
   chunked feeds;
4. :class:`~repro.streaming.aggregator.OnlineEventAggregator` fuses
   per-type detections into :class:`~repro.core.events.AnomalyEvent`s
   incrementally with bounded memory, matching the batch
   :func:`~repro.core.events.aggregate_detections` on replay;
5. :mod:`repro.streaming.pipeline` wires it all together, including the
   two-pass :func:`~repro.streaming.pipeline.replay_network_anomalies`
   harness whose events match the batch pipeline exactly;
6. :mod:`repro.streaming.checkpoint` persists the full detector state
   (npz + JSON manifest) so a restarted detector resumes mid-stream with
   the identical remaining event list — the one crash-recovery path,
   driven end to end by :class:`~repro.service.DetectionService`;
7. :mod:`repro.streaming.adaptive_limits` tracks EWMA-smoothed empirical
   quantiles of the streaming SPE/T² statistics
   (``StreamingConfig(limits="adaptive")``) — warm-up period, clamped
   drift rate, freeze-on-alarm — so non-stationary weeks are thresholded
   against the recent clean-statistic tail instead of the lagging
   parametric limits;
8. :mod:`repro.streaming.hierarchy` is the network detector with per-PoP
   ingestion: each PoP folds its own chunks into its own moments, and the
   detector reads the exact Chan merge of them
   (:func:`~repro.streaming.online_pca.merge_online_pca`) instead of
   shipping raw data — the flat run's chunk loop, events and checkpoint.

Detection runs in one process.  A checkpoint-restarted run and the
hierarchy both emit the same events as an uninterrupted flat run.
"""

from repro.streaming.adaptive_limits import AdaptiveControlLimits
from repro.streaming.config import StreamingConfig, forgetting_from_half_life
from repro.streaming.online_pca import (
    OnlinePCA,
    eigh_descending,
    merge_online_pca,
)
from repro.streaming.detector import (
    ChunkDetections,
    StreamDetection,
    StreamingSubspaceDetector,
    SubspaceSnapshot,
    make_limits_policy,
)
from repro.streaming.sources import (
    AsyncChunkSource,
    ChunkSource,
    ChunkedSeriesSource,
    IterableChunkSource,
    TrafficChunk,
    as_chunk_source,
    chunk_series,
)
from repro.streaming.aggregator import OnlineEventAggregator
from repro.streaming.pipeline import (
    StreamingNetworkDetector,
    StreamingReport,
    replay_network_anomalies,
    stream_detect,
)
from repro.streaming.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    has_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.streaming.hierarchy import HierarchicalNetworkDetector

__all__ = [
    "AdaptiveControlLimits",
    "StreamingConfig",
    "forgetting_from_half_life",
    "OnlinePCA",
    "eigh_descending",
    "merge_online_pca",
    "SubspaceSnapshot",
    "StreamDetection",
    "ChunkDetections",
    "StreamingSubspaceDetector",
    "make_limits_policy",
    "TrafficChunk",
    "ChunkSource",
    "IterableChunkSource",
    "as_chunk_source",
    "ChunkedSeriesSource",
    "AsyncChunkSource",
    "chunk_series",
    "OnlineEventAggregator",
    "StreamingNetworkDetector",
    "StreamingReport",
    "stream_detect",
    "replay_network_anomalies",
    "CHECKPOINT_FORMAT_VERSION",
    "save_checkpoint",
    "load_checkpoint",
    "has_checkpoint",
    "HierarchicalNetworkDetector",
]
