"""repro — network-wide traffic anomaly diagnosis via the subspace method.

A from-scratch reproduction of

    Lakhina, Crovella, Diot.
    "Characterization of Network-Wide Anomalies in Traffic Flows."
    IMC 2004 (BUCS-TR-2004-020).

The library contains the paper's primary contribution (the PCA subspace
method with Q-statistic and T² control limits applied to Origin-Destination
flow traffic) together with every substrate it depends on: an Abilene-like
backbone topology, IGP/BGP routing and PoP resolution, a sampled-NetFlow
measurement pipeline, a synthetic traffic and anomaly generator, the
dominant-attribute anomaly classifier, per-flow baseline detectors, and an
evaluation harness that regenerates every table and figure of the paper.

The curated public surface re-exported here covers the two pipelines:

* **batch** — :func:`detect_network_anomalies` over a
  :class:`TrafficMatrixSeries`;
* **streaming** — any :class:`ChunkSource` (synthetic
  :class:`SyntheticChunkSource`, in-memory :class:`ChunkedSeriesSource`,
  on-disk :class:`FlowCsvSource`) fed to :func:`stream_detect` or wrapped
  in a durable :class:`DetectionService`.

Quickstart
----------
>>> from repro.datasets import generate_abilene_dataset, DatasetConfig
>>> from repro.core import detect_network_anomalies
>>> dataset = generate_abilene_dataset(DatasetConfig(weeks=1), seed=0)
>>> report = detect_network_anomalies(dataset.series)
>>> report.n_events  # doctest: +SKIP
84
"""

from repro.core import (
    AnomalyEvent,
    DetectionResult,
    EigenflowDecomposition,
    NetworkAnomalyReport,
    SubspaceDetector,
    SubspaceModel,
    detect_network_anomalies,
)
from repro.datasets import (
    DatasetConfig,
    SyntheticChunkSource,
    SyntheticDataset,
    generate_abilene_dataset,
)
from repro.flows import TrafficMatrixSeries, TrafficType
from repro.ingest import FlowCsvSource, IngestConfig, round_trip_check
from repro.service import DetectionService
from repro.streaming import (
    ChunkSource,
    ChunkedSeriesSource,
    StreamingConfig,
    StreamingReport,
    TrafficChunk,
    as_chunk_source,
    load_checkpoint,
    save_checkpoint,
    stream_detect,
)
from repro.topology import abilene_topology

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # batch pipeline
    "EigenflowDecomposition",
    "SubspaceModel",
    "SubspaceDetector",
    "DetectionResult",
    "AnomalyEvent",
    "NetworkAnomalyReport",
    "detect_network_anomalies",
    # data model
    "TrafficMatrixSeries",
    "TrafficType",
    "abilene_topology",
    "DatasetConfig",
    "SyntheticDataset",
    "generate_abilene_dataset",
    # chunk sources
    "TrafficChunk",
    "ChunkSource",
    "as_chunk_source",
    "ChunkedSeriesSource",
    "SyntheticChunkSource",
    "FlowCsvSource",
    "IngestConfig",
    "round_trip_check",
    # streaming pipeline
    "StreamingConfig",
    "StreamingReport",
    "stream_detect",
    "save_checkpoint",
    "load_checkpoint",
    "DetectionService",
]
