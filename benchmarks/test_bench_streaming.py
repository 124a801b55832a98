"""Benchmark E9 — streaming subspace detection throughput.

Measures the online detector on one week of 5-minute bins (n = 2016,
p = 121) and records the two numbers future PRs must not regress:

* **streaming throughput** in bins/sec for the full three-type live
  pipeline (chunked ingestion, incremental PCA, control limits, event
  fusion);
* the **speedup of the incremental model maintenance** over the naive
  alternative — refitting a full SVD on all history at every chunk — which
  the acceptance bar pins at >= 5x.

Identification is disabled in the speedup comparison so both sides measure
model maintenance + detection (the naive path would otherwise spend most of
its time in the identical greedy identification code).

A third benchmark guards the **telemetry plane**: running the identical
pipeline with ``telemetry=True`` (metrics registry + sampled tracing +
periodic snapshots) must cost at most {MAX_TELEMETRY_OVERHEAD:.0%} extra
wall time and must not change a single event.  Tunable without editing the
file: ``BENCH_TELEMETRY_MAX_OVERHEAD`` overrides the ceiling and
``BENCH_TELEMETRY_NO_GATE=1`` downgrades it to a recorded-only number (for
noisy shared machines); the bit-identical-events check always runs.
"""

import dataclasses
import os

from conftest import best_of, run_once, write_artifact

from repro.core import SubspaceDetector
from repro.core.events import count_by_label
from repro.flows.timeseries import TrafficType
from repro.streaming import (
    StreamingConfig,
    StreamingSubspaceDetector,
    chunk_series,
    stream_detect,
)
from repro.telemetry import HealthSnapshot

#: Chunk size (bins) of the simulated live feed: 32 bins = ~2.7 hours.
CHUNK_BINS = 32
#: Recalibration cadence of the streaming model (bins): every 3 chunks.
RECALIBRATE_BINS = 96
#: Warmup before either strategy starts flagging (one day of bins); models
#: trained on less are too noisy for a meaningful detection comparison.
WARMUP_BINS = 288
#: Acceptance floor on the incremental-vs-refit speedup.
MIN_SPEEDUP = 5.0
#: Ceiling on the extra wall time of an instrumented run (fraction).
MAX_TELEMETRY_OVERHEAD = 0.10


def _naive_refit_pass(matrix):
    """Per-chunk full-SVD refit on all history seen so far (the baseline)."""
    n_detections = 0
    for start in range(0, matrix.shape[0], CHUNK_BINS):
        history = matrix[:start + CHUNK_BINS]
        if history.shape[0] < WARMUP_BINS:
            continue
        detector = SubspaceDetector()
        detector.fit(history)
        result = detector.detect(matrix[start:start + CHUNK_BINS])
        n_detections += len(result.detections)
    return n_detections


def _streaming_pass(matrix):
    """The same chunked detection with incrementally maintained moments."""
    config = StreamingConfig(identify=False, min_train_bins=WARMUP_BINS,
                             recalibrate_every_bins=RECALIBRATE_BINS)
    detector = StreamingSubspaceDetector(config)
    n_detections = 0
    for start in range(0, matrix.shape[0], CHUNK_BINS):
        result = detector.process_chunk(matrix[start:start + CHUNK_BINS])
        n_detections += len(result.detections)
    return n_detections


def test_streaming_pipeline_throughput(benchmark, week_dataset):
    """Full three-type live pipeline throughput in bins/sec."""
    series = week_dataset.series
    config = StreamingConfig(min_train_bins=128,
                             recalibrate_every_bins=RECALIBRATE_BINS)

    def run():
        return stream_detect(chunk_series(series, CHUNK_BINS), config)

    report = run_once(benchmark, run)
    elapsed = benchmark.stats.stats.mean
    bins_per_sec = series.n_bins / elapsed
    benchmark.extra_info["bins_per_sec"] = round(bins_per_sec, 1)
    benchmark.extra_info["n_events"] = report.n_events

    print(f"\nstreaming pipeline: {series.n_bins} bins x "
          f"{len(series.traffic_types)} traffic types in {elapsed:.2f}s "
          f"-> {bins_per_sec:,.0f} bins/sec, {report.n_events} events")

    assert report.n_bins_processed == series.n_bins
    assert report.n_events > 0
    # A week must process in far less than a week (real-time factor >> 1).
    assert bins_per_sec > 100


def test_streaming_speedup_over_full_refit(benchmark, week_dataset):
    """Incremental maintenance must beat per-chunk full-SVD refit >= 5x."""
    matrix = week_dataset.series.matrix(TrafficType.BYTES)

    # Warm the BLAS/LAPACK paths once, then take the best of 3 for both
    # sides so the asserted ratio is not at the mercy of scheduler noise.
    _streaming_pass(matrix)
    naive_time, _ = best_of(3, _naive_refit_pass, matrix)
    streaming_time, _ = best_of(3, _streaming_pass, matrix)

    def run():
        return _streaming_pass(matrix)

    streaming_detections = run_once(benchmark, run)
    naive_detections = _naive_refit_pass(matrix)

    speedup = naive_time / streaming_time
    benchmark.extra_info["speedup_vs_full_refit"] = round(speedup, 2)
    benchmark.extra_info["streaming_bins_per_sec"] = round(
        matrix.shape[0] / streaming_time, 1)

    print(f"\nnaive full-SVD refit: {naive_time:.3f}s, "
          f"incremental: {streaming_time:.3f}s -> {speedup:.1f}x speedup "
          f"({naive_detections} vs {streaming_detections} detections)")

    assert speedup >= MIN_SPEEDUP
    # Both maintenance strategies see essentially the same anomalies.
    assert streaming_detections > 0
    assert abs(streaming_detections - naive_detections) <= \
        0.25 * max(streaming_detections, naive_detections)


def test_streaming_telemetry_overhead(benchmark, week_dataset, tmp_path,
                                      request):
    """Instrumented pipeline: <= 10% overhead, bit-identical events."""
    series = week_dataset.series
    disabled_config = StreamingConfig(min_train_bins=128,
                                      recalibrate_every_bins=RECALIBRATE_BINS)
    instrumented_config = dataclasses.replace(
        disabled_config, telemetry=True,
        # Production-shaped settings: sparse trace sampling, periodic
        # snapshot writes — the overhead measured is the overhead shipped.
        telemetry_sample_rate=0.05,
        telemetry_trace_path=str(tmp_path / "trace.jsonl"),
        telemetry_snapshot_path=str(tmp_path / "health.json"),
        telemetry_snapshot_every_chunks=16)

    def run_disabled():
        return stream_detect(chunk_series(series, CHUNK_BINS),
                             disabled_config)

    def run_instrumented():
        return stream_detect(chunk_series(series, CHUNK_BINS),
                             instrumented_config)

    def measure(pairs):
        # Interleave the timed pairs: run-to-run scheduler drift (easily
        # +-20% on a shared box) then lands on both sides roughly equally,
        # and the min per side squeezes it out of the asserted ratio.
        disabled = instrumented = float("inf")
        for _ in range(pairs):
            disabled = min(disabled, best_of(1, run_disabled)[0])
            instrumented = min(instrumented, best_of(1, run_instrumented)[0])
        return disabled, instrumented

    plain = run_disabled()        # warm caches/BLAS once before timing,
    monitored = run_instrumented()  # and pin the (deterministic) reports
    disabled_time, instrumented_time = measure(pairs=5)
    if instrumented_time / disabled_time - 1.0 > MAX_TELEMETRY_OVERHEAD:
        # A transient load spike can fake >10% on a 0.5 s run; a genuine
        # regression also survives a longer second look, noise rarely does.
        print("\nfirst overhead measurement above the ceiling; re-measuring")
        disabled_time, instrumented_time = measure(pairs=9)
    run_once(benchmark, run_instrumented)

    overhead = instrumented_time / disabled_time - 1.0
    snapshot = HealthSnapshot.read(instrumented_config.telemetry_snapshot_path)
    max_overhead = float(os.environ.get("BENCH_TELEMETRY_MAX_OVERHEAD",
                                        MAX_TELEMETRY_OVERHEAD))
    gate_enforced = not os.environ.get("BENCH_TELEMETRY_NO_GATE")

    record = {
        "benchmark": "bench_telemetry",
        "n_bins": series.n_bins,
        "n_od_pairs": series.n_od_pairs,
        "n_traffic_types": len(series.traffic_types),
        "chunk_bins": CHUNK_BINS,
        "sample_rate": instrumented_config.telemetry_sample_rate,
        "disabled_bins_per_sec": round(series.n_bins / disabled_time, 1),
        "instrumented_bins_per_sec": round(
            series.n_bins / instrumented_time, 1),
        # NOTE: deliberately not named "*speedup*" — tools/bench_trajectory
        # gates those as must-not-fall ratios, and overhead is the inverse.
        "telemetry_overhead_fraction": round(overhead, 4),
        "events_identical": monitored.events == plain.events,
        "snapshot": {
            "bins_processed": snapshot.bins_processed,
            "events_total": snapshot.events_total,
            "recalibrations": snapshot.recalibrations,
        },
        "gate": {
            "max_overhead": max_overhead,
            "enforced": gate_enforced,
        },
    }
    # Written BEFORE any assert: when a gate fails, the artifact holding the
    # evidence must still exist (CI uploads it with if: always()).
    artifact = write_artifact(request, "bench_telemetry.json", record)

    benchmark.extra_info.update(
        {k: v for k, v in record.items() if isinstance(v, (int, float))})
    print(f"\ntelemetry overhead over {series.n_bins} bins: disabled "
          f"{disabled_time:.2f}s, instrumented {instrumented_time:.2f}s "
          f"-> {overhead:+.1%} (ceiling {max_overhead:.0%}); "
          f"BENCH artifact: {artifact}")

    # The observability plane may never change an observation (not
    # disabled by BENCH_TELEMETRY_NO_GATE).
    assert monitored.events == plain.events
    assert monitored.detections == plain.detections
    # The merged snapshot must reconcile exactly with the report.
    assert snapshot.bins_processed == monitored.n_bins_processed
    assert snapshot.events_total == monitored.n_events
    assert snapshot.events_by_type == count_by_label(monitored.events)

    if gate_enforced:
        assert overhead <= max_overhead, (
            f"telemetry overhead {overhead:+.1%} exceeds the "
            f"{max_overhead:.0%} ceiling")
    else:
        print("overhead gate not enforced (BENCH_TELEMETRY_NO_GATE="
              f"{os.environ.get('BENCH_TELEMETRY_NO_GATE', '')!r}); "
              "event identity still verified")
