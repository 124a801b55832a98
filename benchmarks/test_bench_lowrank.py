"""Benchmark E11 — low-rank eigenbasis tracking vs the exact recalibration path.

Two measurements:

* **Recalibration path at scale** (``p = {P_LARGE}`` synthetic OD flows,
  far past the 121-flow Abilene matrix): per chunk, the exact engine pays
  ``O(m p²)`` scatter maintenance plus the refresh the detector asks for,
  ``eigenbasis(n_normal)`` (an ``O(p³)`` ``eigvalsh`` plus the filtered
  top-``k`` block), while the :class:`LowRankEigenTracker` folds the
  refresh into an ``O(m·p·r + r³)`` update.  Both engines first ingest
  ``HISTORY_CHUNKS x CHUNK_BINS`` (more than ``p``) untimed bins, so the
  exact engine is on its scatter path; below ``p`` bins it recalibrates
  through the much cheaper ``n x n`` Gram matrix (snapshot mode), and that
  short-history ratio is recorded as ``lowrank_speedup_short_history``
  but not gated.  Each arm's time is the median of ``N_TIMED_RUNS``
  alternating runs after one warm-up pass.  The ≥{MIN_SPEEDUP}x speedup floor is enforced
  unless ``BENCH_LOWRANK_NO_GATE=1`` (override the floor with
  ``BENCH_LOWRANK_MIN_SPEEDUP``); the tracked top-``k`` subspace must also
  agree with the exact engine to a small principal angle — a fast wrong
  basis would be worthless.
* **Detection parity on the Abilene week** (n = 2016, p = 121): the full
  3-type live pipeline with the low-rank engine must recover the exact
  engine's anomaly events within the documented span tolerance
  (``span recall ≥ {SPAN_RECALL_FLOOR}``); the tracked top subspace is
  ~1e-8 accurate, so the only expected deviations are events whose
  statistic grazes the SPE limit (whose tail moments φ₂/φ₃ are
  approximated from the residual-energy scalar — φ₁ itself is exact).

Every run writes ``benchmarks/artifacts/bench_lowrank.json`` (or
``$BENCH_ARTIFACT_DIR``) before any gate can fail, so CI uploads always
carry the evidence; ``tools/bench_trajectory.py`` folds it into the
``BENCH_streaming.json`` trajectory at the repo root.
"""

import json
import os
import statistics

import numpy as np

from conftest import artifact_path, run_once, timed

from repro.evaluation import event_parity
from repro.streaming import (
    LowRankEigenTracker,
    OnlinePCA,
    StreamingConfig,
    chunk_series,
    stream_detect,
)

#: Synthetic scale of the recalibration benchmark (OD flows).
P_LARGE = 1024
#: Dominant signal dimensionality of the synthetic stream.
SIGNAL_RANK = 8
#: Normal-subspace dimension the detector requests at each refresh.
N_NORMAL = 4
#: Tracked eigenpairs of the low-rank engine (n_normal 4 + slack 12).
TRACKED_RANK = 16
#: Chunk size (bins) of the simulated live feed.
CHUNK_BINS = 64
#: Chunks streamed through each engine (every chunk recalibrates).
N_CHUNKS = 8
#: Untimed chunks ingested before the timed ones: 1,088 bins, past p.
HISTORY_CHUNKS = 17
#: Timed runs per arm (alternating exact and low-rank), after a warm-up.
N_TIMED_RUNS = 5
#: Acceptance floor on the recalibration-path speedup.
MIN_SPEEDUP = 5.0
#: Acceptance floor on Abilene-week event-span recall vs the exact engine.
SPAN_RECALL_FLOOR = 0.85
#: Warmup / recalibration cadence of the week-scale parity run.
WEEK_WARMUP_BINS = 128
WEEK_RECALIBRATE_BINS = 96
WEEK_CHUNK_BINS = 32


def _synthetic_chunks(n_chunks: int, seed: int = 2004):
    """A seeded stream with a dominant low-rank signal plus noise."""
    rng = np.random.default_rng(seed)
    amplitudes = np.linspace(12.0, 3.0, SIGNAL_RANK)
    mixing = rng.normal(size=(SIGNAL_RANK, P_LARGE)) * amplitudes[:, None]
    chunks = []
    for _ in range(n_chunks):
        latent = rng.normal(size=(CHUNK_BINS, SIGNAL_RANK))
        chunks.append(latent @ mixing
                      + 0.05 * rng.normal(size=(CHUNK_BINS, P_LARGE)))
    return chunks


def _recalibration_pass(engine, chunks):
    """The streaming hot path: fold each chunk, refresh the eigenbasis the
    way the detector's calibration does (the top ``N_NORMAL`` axes)."""
    for chunk in chunks:
        engine.partial_fit(chunk)
        engine.eigenbasis(N_NORMAL)
    return engine


def _max_sin_angle(axes_a, axes_b, k):
    cosines = np.linalg.svd(axes_a[:, :k].T @ axes_b[:, :k], compute_uv=False)
    return float(np.sqrt(max(0.0, 1.0 - min(cosines) ** 2)))


def _median_pass_times(make_exact, make_lowrank, chunks):
    """Median seconds of each arm's pass over *chunks*, from fresh engines.

    One untimed warm-up pass per arm, then :data:`N_TIMED_RUNS` runs that
    alternate which arm goes first, so both see the same box load.
    Returns ``(exact_seconds, lowrank_seconds, exact, tracker)`` with the
    engines of the last runs.
    """
    times = {"exact": [], "lowrank": []}
    makers = {"exact": make_exact, "lowrank": make_lowrank}
    engines = {}
    for run in range(N_TIMED_RUNS + 1):
        order = ("exact", "lowrank") if run % 2 == 0 else ("lowrank", "exact")
        for arm in order:
            elapsed, engines[arm] = timed(_recalibration_pass, makers[arm](),
                                          chunks)
            if run:
                times[arm].append(elapsed)
    return (statistics.median(times["exact"]),
            statistics.median(times["lowrank"]),
            engines["exact"], engines["lowrank"])


def test_lowrank_recalibration_speedup_at_scale(benchmark):
    """≥5x over the exact recalibration path at p = 1024, with a matching
    basis."""
    stream = _synthetic_chunks(HISTORY_CHUNKS + N_CHUNKS)
    history, chunks = stream[:HISTORY_CHUNKS], stream[HISTORY_CHUNKS:]
    exact_primed = OnlinePCA()
    tracker_primed = LowRankEigenTracker(rank=TRACKED_RANK)
    for chunk in history:
        exact_primed.partial_fit(chunk)
        tracker_primed.partial_fit(chunk)
    exact_state = exact_primed.state_dict()
    tracker_state = tracker_primed.state_dict()

    exact_time, lowrank_time, exact, tracker = _median_pass_times(
        lambda: OnlinePCA.from_state(**exact_state),
        lambda: LowRankEigenTracker.from_state(**tracker_state), chunks)
    short_exact_time, short_lowrank_time, _, _ = _median_pass_times(
        OnlinePCA, lambda: LowRankEigenTracker(rank=TRACKED_RANK), chunks)
    run_once(benchmark, _recalibration_pass,
             LowRankEigenTracker(rank=TRACKED_RANK), list(chunks))

    # The speedup is worthless if the maintained basis is wrong: the
    # tracked top-4 subspace must match the exact engine's.
    exact_values, exact_axes = exact.eigenbasis()
    values, axes = tracker.eigenbasis()
    max_angle = _max_sin_angle(exact_axes, axes, N_NORMAL)
    eigval_rel_err = float(np.max(
        np.abs(values[:SIGNAL_RANK] - exact_values[:SIGNAL_RANK])
        / exact_values[:SIGNAL_RANK]))
    trace_rel_err = abs(
        float(np.sum(values)) - float(np.sum(exact_values))
    ) / float(np.sum(exact_values))

    bins = CHUNK_BINS * N_CHUNKS
    speedup = exact_time / lowrank_time
    short_speedup = short_exact_time / short_lowrank_time
    min_speedup = float(os.environ.get("BENCH_LOWRANK_MIN_SPEEDUP",
                                       MIN_SPEEDUP))
    gate_enforced = not os.environ.get("BENCH_LOWRANK_NO_GATE")

    record = {
        "benchmark": "bench_lowrank_recalibration",
        "n_od_pairs": P_LARGE,
        "chunk_bins": CHUNK_BINS,
        "n_chunks": N_CHUNKS,
        "history_bins": CHUNK_BINS * HISTORY_CHUNKS,
        "n_timed_runs": N_TIMED_RUNS,
        "tracked_rank": TRACKED_RANK,
        "exact_bins_per_sec": round(bins / exact_time, 1),
        "lowrank_bins_per_sec": round(bins / lowrank_time, 1),
        "lowrank_speedup": round(speedup, 3),
        "exact_bins_per_sec_short_history": round(bins / short_exact_time, 1),
        "lowrank_bins_per_sec_short_history": round(
            bins / short_lowrank_time, 1),
        "lowrank_speedup_short_history": round(short_speedup, 3),
        "max_sin_principal_angle_top4": max_angle,
        "top_eigenvalue_rel_err": eigval_rel_err,
        "trace_rel_err": trace_rel_err,
        "n_reorthogonalizations": tracker.n_reorthogonalizations,
        "gate": {"min_speedup": min_speedup, "enforced": gate_enforced,
                 "ungated": ["lowrank_speedup_short_history"]},
    }
    artifact = artifact_path("bench_lowrank.json")
    existing = (json.loads(artifact.read_text())
                if artifact.is_file() else {})
    existing["recalibration"] = record
    artifact.write_text(json.dumps(existing, indent=2, sort_keys=True) + "\n")

    benchmark.extra_info.update(
        {k: v for k, v in record.items() if isinstance(v, (int, float))})
    print(f"\nrecalibration path over {bins} bins at p={P_LARGE} after "
          f"{CHUNK_BINS * HISTORY_CHUNKS} bins of history, median of "
          f"{N_TIMED_RUNS}: exact {exact_time:.2f}s "
          f"({bins / exact_time:,.0f} bins/sec), low-rank r={TRACKED_RANK} "
          f"{lowrank_time:.3f}s ({bins / lowrank_time:,.0f} bins/sec) -> "
          f"{speedup:.1f}x; without history {short_speedup:.1f}x "
          f"(not gated); top-4 principal angle sin {max_angle:.2e}")

    # Accuracy gates are never disabled — a fast wrong basis must fail.
    assert max_angle < 1e-5
    assert eigval_rel_err < 1e-8
    assert trace_rel_err < 1e-10
    if gate_enforced:
        assert speedup >= min_speedup, (
            f"low-rank recalibration speedup {speedup:.2f}x is below the "
            f"{min_speedup}x floor at p={P_LARGE}")
    else:
        print(f"speedup gate not enforced (BENCH_LOWRANK_NO_GATE="
              f"{os.environ.get('BENCH_LOWRANK_NO_GATE', '')!r})")


def test_lowrank_week_event_parity(benchmark, week_dataset):
    """Abilene-week live detection: low-rank events match within tolerance."""
    series = week_dataset.series
    exact_config = StreamingConfig(min_train_bins=WEEK_WARMUP_BINS,
                                   recalibrate_every_bins=WEEK_RECALIBRATE_BINS)
    lowrank_config = StreamingConfig(min_train_bins=WEEK_WARMUP_BINS,
                                     recalibrate_every_bins=WEEK_RECALIBRATE_BINS,
                                     engine="lowrank", rank_slack=12)

    def run_exact():
        return stream_detect(chunk_series(series, WEEK_CHUNK_BINS),
                             exact_config)

    def run_lowrank():
        return stream_detect(chunk_series(series, WEEK_CHUNK_BINS),
                             lowrank_config)

    exact_time, exact = timed(run_exact)
    lowrank_time, lowrank = timed(run_lowrank)
    run_once(benchmark, run_lowrank)

    parity = event_parity(exact.events, lowrank.events)
    bins = series.n_bins
    record = {
        "benchmark": "bench_lowrank_week_parity",
        "n_bins": bins,
        "n_od_pairs": series.n_od_pairs,
        "n_traffic_types": len(series.traffic_types),
        "chunk_bins": WEEK_CHUNK_BINS,
        "recalibrate_every_bins": WEEK_RECALIBRATE_BINS,
        "rank": lowrank_config.n_normal + lowrank_config.rank_slack,
        "exact_bins_per_sec": round(bins / exact_time, 1),
        "lowrank_bins_per_sec": round(bins / lowrank_time, 1),
        "n_events_exact": exact.n_events,
        "n_events_lowrank": lowrank.n_events,
        "parity": parity.to_dict(),
        "gate": {"span_recall_floor": SPAN_RECALL_FLOOR},
    }
    artifact = artifact_path("bench_lowrank.json")
    existing = (json.loads(artifact.read_text())
                if artifact.is_file() else {})
    existing["week_parity"] = record
    artifact.write_text(json.dumps(existing, indent=2, sort_keys=True) + "\n")

    benchmark.extra_info.update(
        {k: v for k, v in record.items() if isinstance(v, (int, float))})
    print(f"\n3-type week pipeline: exact {exact_time:.2f}s, low-rank "
          f"{lowrank_time:.2f}s; events {exact.n_events} vs "
          f"{lowrank.n_events}, span recall {parity.span_recall:.3f}; "
          f"BENCH artifact: {artifact}")

    # The parity floor is the documented tolerance of the tentpole and is
    # never disabled by the speedup-gate switch.
    assert parity.span_recall >= SPAN_RECALL_FLOOR, parity.to_dict()
    assert lowrank.n_bins_processed == exact.n_bins_processed
    assert lowrank.n_events >= 1
