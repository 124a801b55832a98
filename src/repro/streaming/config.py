"""Configuration of the streaming subspace-detection subsystem."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Mapping

from repro.core.limits import T2Scaling
from repro.utils.validation import ensure_probability, require

__all__ = ["StreamingConfig", "forgetting_from_half_life"]

#: Fields older checkpoint manifests carry that the config no longer has:
#: the single-process column-shard count, the type-parallel mode switch,
#: the shard-mode chunk-bus ring length and worker liveness poll, the
#: hierarchy's default PoP count (now only its constructor argument), and
#: the moment-engine switch with the two knobs of the removed low-rank
#: engine (its tracked-rank slack and orthonormality-drift threshold), and
#: seven knobs no caller set: the per-bin identification cap (now
#: ``repro.core.identification.MAX_IDENTIFIED_FLOWS``), the span-sampling
#: seed, and the adaptive policy's five tuning knobs (the policy keeps its
#: own defaults and checkpoints them in its state).
RETIRED_FIELDS = ("n_shards", "parallel_mode", "bus_slots", "poll_seconds",
                  "n_pops", "engine", "rank_slack", "drift_tolerance",
                  "max_identified_flows", "telemetry_seed",
                  "adaptive_warmup_bins", "adaptive_smoothing",
                  "adaptive_max_drift", "adaptive_block_bins",
                  "adaptive_freeze_factor")


def forgetting_from_half_life(half_life_bins: float) -> float:
    """The per-bin forgetting factor ``λ`` giving the requested half-life.

    A sample seen ``half_life_bins`` bins ago carries half the weight of the
    most recent sample: ``λ = 2 ** (-1 / half_life_bins)``.
    """
    require(half_life_bins > 0, "half_life_bins must be positive")
    return float(2.0 ** (-1.0 / half_life_bins))


@dataclass(frozen=True)
class StreamingConfig:
    """Knobs of the online detector.

    Parameters
    ----------
    n_normal:
        Dimension ``k`` of the normal subspace (paper: 4).
    confidence:
        Confidence level of both control limits (paper: 0.999).
    t2_scaling:
        T² scaling convention (see :class:`~repro.core.limits.T2Scaling`).
    use_t2:
        Whether the T² test is applied in addition to the SPE test.
    forgetting:
        Per-bin exponential forgetting factor ``λ`` of the running moments.
        ``1.0`` (the default) keeps infinite memory and makes a full-window
        replay numerically equivalent to the batch detector; values below 1
        implement the sliding window (see :func:`forgetting_from_half_life`).
    min_train_bins:
        Number of ingested bins before detection starts.  Until the model
        has seen this many bins (and its rank exceeds ``n_normal``), chunks
        are only used for training and no bins are flagged.
    recalibrate_every_bins:
        Threshold/eigenbasis refresh cadence: the subspace snapshot is
        recomputed from the running moments once at least this many new bins
        arrived since the last calibration.  ``1`` refreshes on every chunk.
    identify:
        Whether to run per-bin OD-flow identification at all (disable for
        pure detection throughput, e.g. in benchmarks).
    limits:
        Control-limit policy.  ``"fixed"`` (the default) applies the
        parametric limits recomputed at each recalibration verbatim;
        ``"adaptive"`` multiplies them by EWMA-smoothed empirical-quantile
        scales maintained by an
        :class:`~repro.streaming.adaptive_limits.AdaptiveControlLimits`
        policy with its default warm-up period, clamped drift rate and
        freeze-on-alarm cap — for non-stationary streams where the
        parametric limits lag the data.
    on_bad_chunk:
        Malformed-chunk policy of the network detector.  A chunk is
        malformed when any traffic type's matrix contains non-finite
        values (NaN/Inf) or its column count disagrees with the stream's
        established OD-flow dimension.  ``"raise"`` (the default) raises
        a :class:`ValueError` naming the chunk, traffic type, and defect;
        ``"quarantine"`` counts the chunk (``bad_chunks`` metric,
        ``report.n_bad_chunks``) and skips it, keeping the model and
        aggregator untouched — ingestion-side glitches (a collector
        emitting NaNs, a truncated export) degrade coverage instead of
        killing the run.
    telemetry:
        Master switch of the observability layer
        (:mod:`repro.telemetry`).  ``False`` (the default) keeps every
        hot-path hook a single ``is None`` check; ``True`` gives the run
        a :class:`~repro.telemetry.MetricsRegistry` + tracer.
    telemetry_sample_rate:
        Fraction of chunks whose trace spans are emitted as JSON-lines
        records (one seeded Bernoulli draw per chunk).  Latency
        *histograms* are always maintained regardless; sampling only
        bounds the structured-record volume.  The sampling RNG is seeded
        with 0, so the same chunk order samples the same set.
    telemetry_trace_path:
        JSON-lines span sink path (empty: spans are timed but not
        written).
    telemetry_snapshot_path:
        Where the pipeline periodically writes a
        :class:`~repro.telemetry.HealthSnapshot` as JSON (atomic
        replace; empty: no snapshot file).  ``tools/status.py`` reads it.
    telemetry_snapshot_every_chunks:
        Snapshot cadence, in processed chunks.
    """

    n_normal: int = 4
    confidence: float = 0.999
    t2_scaling: T2Scaling = T2Scaling.HOTELLING
    use_t2: bool = True
    forgetting: float = 1.0
    min_train_bins: int = 64
    recalibrate_every_bins: int = 1
    identify: bool = True
    limits: str = "fixed"
    on_bad_chunk: str = "raise"
    telemetry: bool = False
    telemetry_sample_rate: float = 0.05
    telemetry_trace_path: str = ""
    telemetry_snapshot_path: str = ""
    telemetry_snapshot_every_chunks: int = 16

    def __post_init__(self) -> None:
        object.__setattr__(self, "t2_scaling", T2Scaling(self.t2_scaling))
        require(self.n_normal >= 1, "n_normal must be >= 1")
        ensure_probability(self.confidence, "confidence")
        require(0.0 < self.forgetting <= 1.0, "forgetting must be in (0, 1]")
        require(self.min_train_bins >= 2, "min_train_bins must be >= 2")
        require(self.recalibrate_every_bins >= 1,
                "recalibrate_every_bins must be >= 1")
        require(self.limits in ("fixed", "adaptive"),
                "limits must be 'fixed' or 'adaptive'")
        require(self.on_bad_chunk in ("raise", "quarantine"),
                "on_bad_chunk must be 'raise' or 'quarantine'")
        require(0.0 <= self.telemetry_sample_rate <= 1.0,
                "telemetry_sample_rate must be in [0, 1]")
        require(self.telemetry_snapshot_every_chunks >= 1,
                "telemetry_snapshot_every_chunks must be >= 1")

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (used by streaming checkpoints)."""
        data = asdict(self)
        data["t2_scaling"] = T2Scaling(self.t2_scaling).value
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "StreamingConfig":
        """Inverse of :meth:`to_dict` (enum round-trips via its value).

        Fields this class no longer has (:data:`RETIRED_FIELDS`) are
        dropped, so checkpoints written by earlier versions still restore.
        """
        data = dict(data)
        for name in RETIRED_FIELDS:
            data.pop(name, None)
        return cls(**data)
