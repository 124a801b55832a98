"""The online subspace anomaly detector.

:class:`StreamingSubspaceDetector` is the chunked counterpart of the batch
:class:`~repro.core.detector.SubspaceDetector`.  It consumes fixed-size
chunks of timebins for **one** traffic type, folds them into an
:class:`~repro.streaming.online_pca.OnlinePCA` engine, recalibrates its
subspace snapshot (normal axes + control limits) on a configurable cadence,
and flags the chunk's bins against the current snapshot — reusing the exact
classification (:func:`~repro.core.detector.classify_bins`), control-limit
(:func:`~repro.core.limits.control_limits`), and identification
(:func:`~repro.core.identification.identify_spe_flows` /
:func:`~repro.core.identification.identify_t2_flows`) pieces of the batch
path.

Parity with the batch detector: processing one chunk holding the entire
window (with ``forgetting = 1``) updates the moments with the full window
and then detects that same window against the freshly calibrated snapshot —
exactly what :meth:`SubspaceDetector.fit_detect` does, so the flagged bins
coincide bin-for-bin (up to floating-point round-off: the streaming SPE
uses the orthonormal-projection identity ``||x̃||² = ||x||² − ||Pᵀx||²``
instead of the batch path's explicit residual matrix, so a statistic lying
within ~``eps·||x||²`` of its control limit could classify differently).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.detector import BinDetection, classify_bins
from repro.core.events import Detection
from repro.core.identification import (MAX_IDENTIFIED_FLOWS,
                                       identify_spe_flows, identify_t2_flows)
from repro.core.limits import ControlLimits, T2Scaling, control_limits
from repro.flows.timeseries import TrafficType
from repro.streaming.adaptive_limits import AdaptiveControlLimits
from repro.streaming.config import StreamingConfig
from repro.streaming.online_pca import OnlinePCA
from repro.utils.validation import ensure_2d, require

__all__ = ["SubspaceSnapshot", "StreamDetection", "ChunkDetections",
           "StreamingSubspaceDetector", "make_limits_policy"]


def make_limits_policy(config: StreamingConfig) -> Optional[AdaptiveControlLimits]:
    """The control-limit policy a config asks for (``None`` means fixed)."""
    if config.limits != "adaptive":
        return None
    return AdaptiveControlLimits(confidence=config.confidence)


@dataclass(frozen=True)
class SubspaceSnapshot:
    """A frozen subspace model: what the detector currently tests against.

    Produced by :meth:`StreamingSubspaceDetector.calibrate` from the running
    moments; immutable so detections made between recalibrations are
    attributable to one well-defined model state.
    """

    mean: np.ndarray
    normal_axes: np.ndarray
    eigenvalues: np.ndarray
    n_samples: int
    limits: ControlLimits
    n_bins_trained: int

    @property
    def n_normal(self) -> int:
        """Dimension ``k`` of the normal subspace."""
        return int(self.normal_axes.shape[1])

    @property
    def n_features(self) -> int:
        """Number of OD flows ``p``."""
        return int(self.normal_axes.shape[0])

    def state_dict(self) -> Dict[str, Dict]:
        """Serializable form as ``{"meta": scalars, "arrays": ndarrays}``."""
        return {
            "meta": {
                "n_samples": self.n_samples,
                "n_bins_trained": self.n_bins_trained,
                "limits": self.limits.to_dict(),
            },
            "arrays": {
                "mean": np.array(self.mean, dtype=float),
                "normal_axes": np.array(self.normal_axes, dtype=float),
                "eigenvalues": np.array(self.eigenvalues, dtype=float),
            },
        }

    @classmethod
    def from_state(cls, meta: Mapping,
                   arrays: Mapping[str, np.ndarray]) -> "SubspaceSnapshot":
        """Rebuild a snapshot from :meth:`state_dict` output."""
        return cls(
            mean=np.array(arrays["mean"], dtype=float),
            normal_axes=np.array(arrays["normal_axes"], dtype=float),
            eigenvalues=np.array(arrays["eigenvalues"], dtype=float),
            n_samples=int(meta["n_samples"]),
            limits=ControlLimits.from_dict(meta["limits"]),
            n_bins_trained=int(meta["n_bins_trained"]),
        )


@dataclass(frozen=True)
class StreamDetection:
    """One flagged timebin of the stream, with identified OD flows.

    ``bin_index`` is stream-global.  ``statistic`` is the primary statistic
    ("spe" wins over "t2" when both triggered, matching the batch pipeline's
    attribution); ``od_flows`` is empty when identification is disabled.
    """

    bin_index: int
    spe_value: float
    t2_value: float
    triggered_by: str
    statistic: str
    od_flows: Tuple[int, ...] = ()

    def to_detection(self, traffic_type: TrafficType) -> Detection:
        """Convert to a core :class:`~repro.core.events.Detection` triple."""
        require(len(self.od_flows) >= 1,
                "cannot build a Detection without identified OD flows "
                "(identification is disabled)")
        return Detection(
            traffic_type=TrafficType(traffic_type),
            bin_index=self.bin_index,
            od_flows=self.od_flows,
            statistic=self.statistic,
        )


@dataclass
class ChunkDetections:
    """Output of one detection pass over one chunk.

    During warmup (no calibrated snapshot yet) ``warmup`` is ``True``, the
    statistic arrays are ``None``, and no bins are flagged.
    """

    start_bin: int
    n_bins: int
    warmup: bool
    spe: Optional[np.ndarray] = None
    t2: Optional[np.ndarray] = None
    limits: Optional[ControlLimits] = None
    detections: List[StreamDetection] = field(default_factory=list)

    @property
    def end_bin(self) -> int:
        """Exclusive stream-global end bin of the chunk."""
        return self.start_bin + self.n_bins

    @property
    def anomalous_bins(self) -> List[int]:
        """Sorted stream-global indices of flagged bins."""
        return sorted(d.bin_index for d in self.detections)


class StreamingSubspaceDetector:
    """Online subspace detector over a chunked stream of one traffic matrix.

    Usage (single-pass, live)::

        detector = StreamingSubspaceDetector(StreamingConfig())
        for chunk in chunks:                    # each chunk is m x p
            result = detector.process_chunk(chunk)
            ...consume result.detections...

    The lower-level :meth:`ingest` / :meth:`calibrate` / :meth:`detect_chunk`
    methods support replay harnesses that separate the training pass from
    the detection pass (see :mod:`repro.streaming.pipeline`).
    """

    def __init__(self, config: StreamingConfig = StreamingConfig(),
                 engine=None) -> None:
        self._config = config
        self._engine = (engine if engine is not None
                        else OnlinePCA(forgetting=config.forgetting))
        self._adaptive = make_limits_policy(config)
        self._snapshot: Optional[SubspaceSnapshot] = None
        self._bins_at_calibration = 0
        self._next_bin = 0
        self._telemetry = None
        self._metric_labels: Dict[str, str] = {}

    def bind_telemetry(self, telemetry, labels: Optional[Mapping[str, str]]
                       = None) -> None:
        """Attach a :class:`~repro.telemetry.Telemetry` bundle (or ``None``).

        *labels* (e.g. ``{"type": "bytes"}``) tag every metric this
        detector emits.  Unbound detectors skip all instrumentation at the
        cost of one ``is None`` check per hook.
        """
        self._telemetry = telemetry
        self._metric_labels = dict(labels) if labels else {}

    def _record_adaptive_gauges(self) -> None:
        registry = self._telemetry.registry
        labels = self._metric_labels
        for name, extra, value, help_text in self._adaptive.telemetry_gauges():
            registry.gauge(name, {**labels, **extra},
                           help=help_text).set(value)

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def config(self) -> StreamingConfig:
        """The streaming configuration."""
        return self._config

    @property
    def engine(self):
        """The underlying running-moments engine.

        An :class:`OnlinePCA` with the config's forgetting factor unless
        an explicit ``engine=`` argument supplied another with the same
        accessor/serialization surface (the hierarchy's per-PoP fold).
        """
        return self._engine

    @property
    def snapshot(self) -> Optional[SubspaceSnapshot]:
        """The current calibrated snapshot (``None`` during warmup)."""
        return self._snapshot

    @property
    def limits_policy(self) -> Optional[AdaptiveControlLimits]:
        """The adaptive control-limit policy (``None`` under fixed limits)."""
        return self._adaptive

    @property
    def effective_limits(self) -> Optional[ControlLimits]:
        """The limits the next chunk will be tested against.

        The snapshot's parametric limits under the fixed policy; those
        limits times the adaptive quantile scales under ``"adaptive"``.
        ``None`` during warmup.
        """
        if self._snapshot is None:
            return None
        if self._adaptive is None:
            return self._snapshot.limits
        return self._adaptive.apply(self._snapshot.limits)

    @property
    def is_warmed_up(self) -> bool:
        """Whether a snapshot is available and detection is active."""
        return self._snapshot is not None

    @property
    def bins_processed(self) -> int:
        """Stream-global index of the next expected bin."""
        return self._next_bin

    # ------------------------------------------------------------------ #
    # training
    # ------------------------------------------------------------------ #
    def ingest(self, chunk: np.ndarray) -> None:
        """Fold a chunk into the running moments without detecting."""
        tel = self._telemetry
        if tel is None:
            self._engine.partial_fit(chunk)
            return
        with tel.span("update", **self._metric_labels):
            self._engine.partial_fit(chunk)

    def _trainable(self) -> bool:
        config = self._config
        engine = self._engine
        if engine.n_bins_seen < max(config.min_train_bins, config.n_normal + 2):
            return False
        if engine.rank <= config.n_normal:
            return False
        # The F-based T² limit needs an effective sample count above k + 1;
        # heavy forgetting can keep it small even on a long stream.
        return engine.n_samples > config.n_normal + 1

    def calibrate(self) -> SubspaceSnapshot:
        """Recompute the subspace snapshot from the current moments."""
        tel = self._telemetry
        if tel is None:
            return self._calibrate()
        fallbacks = self._engine.eigen_fallbacks
        with tel.span("recalibrate", **self._metric_labels):
            snapshot = self._calibrate()
        tel.registry.counter(
            "recalibrations", self._metric_labels,
            help="Subspace snapshot recalibrations").inc()
        tel.registry.counter(
            "eigen_fallbacks", self._metric_labels,
            help="Recalibrations whose top-k eigenbasis missed the filtered "
                 "route's tolerance and ran the full eigh").inc(
            self._engine.eigen_fallbacks - fallbacks)
        if self._adaptive is not None:
            self._record_adaptive_gauges()
        return snapshot

    def _calibrate(self) -> SubspaceSnapshot:
        require(self._trainable(),
                "not enough ingested data to calibrate the subspace model")
        config = self._config
        engine = self._engine
        eigenvalues, axes = engine.eigenbasis(config.n_normal)
        limits = control_limits(
            eigenvalues,
            config.n_normal,
            engine.n_samples,
            config.confidence,
            config.t2_scaling,
        )
        self._snapshot = SubspaceSnapshot(
            mean=engine.mean.copy(),
            normal_axes=axes,
            eigenvalues=eigenvalues,
            n_samples=engine.n_samples,
            limits=limits,
            n_bins_trained=engine.n_bins_seen,
        )
        self._bins_at_calibration = engine.n_bins_seen
        return self._snapshot

    # ------------------------------------------------------------------ #
    # detection
    # ------------------------------------------------------------------ #
    def detect_chunk(self, chunk: np.ndarray, start_bin: int) -> ChunkDetections:
        """Flag the bins of *chunk* against the current snapshot.

        Does not update the moments; *start_bin* gives the chunk's
        stream-global position for reported bin indices.  Under the
        adaptive-limits policy the chunk's clean statistics are folded into
        the empirical-quantile tracker (the limits of *later* chunks), so
        even this non-ingesting path advances the threshold state.
        """
        snapshot = self._snapshot
        require(snapshot is not None, "detector has no calibrated snapshot")
        matrix = ensure_2d(chunk, "chunk")
        require(matrix.shape[1] == snapshot.n_features,
                "chunk has the wrong number of OD flows")
        tel = self._telemetry
        if tel is None:
            stats = self._center_statistics(matrix, snapshot)
            return self._classify_chunk(matrix, start_bin, snapshot, *stats)
        with tel.span("center", **self._metric_labels):
            stats = self._center_statistics(matrix, snapshot)
        with tel.span("detect", **self._metric_labels):
            result = self._classify_chunk(matrix, start_bin, snapshot, *stats)
        if self._adaptive is not None:
            self._record_adaptive_gauges()
        return result

    def _center_statistics(self, matrix: np.ndarray,
                           snapshot: SubspaceSnapshot):
        """Centering + subspace statistics: the "center" stage."""
        config = self._config
        centered = matrix - snapshot.mean
        scores = centered @ snapshot.normal_axes
        # The normal axes are orthonormal, so the SPE needs no residual
        # matrix: ``||x − PPᵀx||² = ||x||² − ||Pᵀx||``².  This replaces the
        # second GEMM (scores @ axes.T) plus an m x p temporary with two
        # O(m p) einsum reductions; per-row residuals are computed lazily
        # for the (rare) flagged bins that need identification.
        spe = (np.einsum("ij,ij->i", centered, centered)
               - np.einsum("ij,ij->i", scores, scores))
        np.clip(spe, 0.0, None, out=spe)
        lam = snapshot.eigenvalues[:snapshot.n_normal]
        safe = np.where(lam > 0, lam, np.inf)
        t2 = np.sum(scores**2 / safe[np.newaxis, :], axis=1)
        if config.t2_scaling is T2Scaling.RAW_EIGENFLOW:
            t2 = t2 / (snapshot.n_samples - 1)
        return centered, scores, spe, t2

    def _classify_chunk(self, matrix: np.ndarray, start_bin: int,
                        snapshot: SubspaceSnapshot, centered: np.ndarray,
                        scores: np.ndarray, spe: np.ndarray,
                        t2: np.ndarray) -> ChunkDetections:
        """Classification + identification: the "detect" stage."""
        config = self._config
        limits = snapshot.limits
        if self._adaptive is not None:
            limits = self._adaptive.apply(limits)
        flagged = classify_bins(spe, t2, limits, use_t2=config.use_t2,
                                bin_offset=start_bin)
        if self._adaptive is not None:
            self._adaptive.observe(spe, t2, snapshot.limits)
        detections = [
            self._build_detection(b, b.bin_index - start_bin, centered,
                                  scores, snapshot, limits)
            for b in flagged
        ]
        return ChunkDetections(
            start_bin=start_bin,
            n_bins=matrix.shape[0],
            warmup=False,
            spe=spe,
            t2=t2,
            limits=limits,
            detections=detections,
        )

    def _build_detection(
        self,
        flagged: BinDetection,
        row: int,
        centered: np.ndarray,
        scores: np.ndarray,
        snapshot: SubspaceSnapshot,
        limits: ControlLimits,
    ) -> StreamDetection:
        config = self._config
        statistic = "spe" if flagged.spe_triggered else "t2"
        od_flows: Tuple[int, ...] = ()
        if config.identify:
            if statistic == "spe":
                # Only flagged bins materialize their residual row.
                residual_row = (centered[row]
                                - scores[row] @ snapshot.normal_axes.T)
                flows = identify_spe_flows(residual_row, limits.spe,
                                           MAX_IDENTIFIED_FLOWS)
            else:
                flows = identify_t2_flows(
                    centered[row],
                    snapshot.normal_axes,
                    snapshot.eigenvalues,
                    snapshot.n_samples,
                    limits.t2,
                    config.t2_scaling,
                    MAX_IDENTIFIED_FLOWS,
                )
            od_flows = tuple(flows)
        return StreamDetection(
            bin_index=flagged.bin_index,
            spe_value=flagged.spe_value,
            t2_value=flagged.t2_value,
            triggered_by=flagged.triggered_by,
            statistic=statistic,
            od_flows=od_flows,
        )

    def process_chunk(self, chunk: np.ndarray,
                      start_bin: Optional[int] = None) -> ChunkDetections:
        """Ingest a chunk, recalibrate if due, and detect its bins.

        The update-then-detect order means a single chunk holding a full
        window reproduces the batch ``fit_detect`` on that window.
        """
        matrix = ensure_2d(chunk, "chunk")
        start = self._next_bin if start_bin is None else start_bin
        self.ingest(matrix)
        if self._trainable() and (
                self._snapshot is None
                or self._engine.n_bins_seen - self._bins_at_calibration
                >= self._config.recalibrate_every_bins):
            self.calibrate()
        if self._snapshot is None:
            result = ChunkDetections(start_bin=start, n_bins=matrix.shape[0],
                                     warmup=True)
        else:
            result = self.detect_chunk(matrix, start)
        self._next_bin = start + matrix.shape[0]
        return result

    # ------------------------------------------------------------------ #
    # serialization (checkpoint/restore)
    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, Dict]:
        """Complete detector state as ``{"meta": scalars, "arrays": ndarrays}``.

        Covers the moment engine, the calibrated snapshot (if any), and the
        stream-position bookkeeping; the config is **not** included (the
        checkpoint manifest stores it once for all traffic types).
        """
        engine_state = self._engine.state_dict()
        meta = {
            "engine": engine_state["meta"],
            "bins_at_calibration": self._bins_at_calibration,
            "next_bin": self._next_bin,
            "snapshot": None,
            "adaptive": None,
        }
        arrays = {f"engine__{k}": v for k, v in engine_state["arrays"].items()}
        if self._snapshot is not None:
            snapshot_state = self._snapshot.state_dict()
            meta["snapshot"] = snapshot_state["meta"]
            arrays.update(
                {f"snapshot__{k}": v
                 for k, v in snapshot_state["arrays"].items()})
        if self._adaptive is not None:
            adaptive_state = self._adaptive.state_dict()
            meta["adaptive"] = adaptive_state["meta"]
            arrays.update(
                {f"adaptive__{k}": v
                 for k, v in adaptive_state["arrays"].items()})
        return {"meta": meta, "arrays": arrays}

    @classmethod
    def from_state(cls, config: StreamingConfig, meta: Mapping,
                   arrays: Mapping[str, np.ndarray]) -> "StreamingSubspaceDetector":
        """Rebuild a detector that resumes the stream mid-flight."""
        engine_meta = meta["engine"]
        require(engine_meta["kind"] == OnlinePCA.STATE_KIND,
                f"unknown engine kind {engine_meta['kind']!r}: "
                f"{OnlinePCA.STATE_KIND!r} is the only moment engine (the "
                f"low-rank eigenbasis tracker was removed)")
        engine = OnlinePCA.from_state(
            engine_meta,
            {k[len("engine__"):]: v for k, v in arrays.items()
             if k.startswith("engine__")})
        detector = cls(config, engine=engine)
        if meta["snapshot"] is not None:
            detector._snapshot = SubspaceSnapshot.from_state(
                meta["snapshot"],
                {k[len("snapshot__"):]: v for k, v in arrays.items()
                 if k.startswith("snapshot__")})
        # .get(): checkpoints written before the adaptive-limits policy
        # carry no "adaptive" entry and restore with the fixed policy.
        if meta.get("adaptive") is not None:
            require(detector._adaptive is not None,
                    "checkpoint carries adaptive-limits state but the config "
                    "asks for fixed limits")
            detector._adaptive = AdaptiveControlLimits.from_state(
                meta["adaptive"],
                {k[len("adaptive__"):]: v for k, v in arrays.items()
                 if k.startswith("adaptive__")})
        detector._bins_at_calibration = int(meta["bins_at_calibration"])
        detector._next_bin = int(meta["next_bin"])
        return detector
