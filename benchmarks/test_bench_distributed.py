"""Benchmark E11 — distributed ingestion plane: shard workers & hierarchy.

Measures, on the one-week trace (n = 2016, p = 121, 3 traffic types), the
single-process baseline against the two ways this repo spreads one stream:

* **shard-parallel** (:func:`~repro.streaming.parallel.parallel_stream_detect`)
  — K workers each own a column shard of *every* detector over the
  shared-memory chunk bus, and the coordinator assembles the scatter at
  calibration; parallelism follows K;
* **hierarchical** — per-PoP ingestion leaves folded into one global
  detector by merging models (single process here; the point is parity
  and the cost of the merge, not process scaling).

Both must reproduce the single-process ``stream_detect`` event list
exactly — parity is asserted unconditionally.  The speedup gate (shard
workers beat the baseline by ≥ the floor) is enforced only on machines
with at least ``MIN_CORES_FOR_GATE`` cores;
``BENCH_DISTRIBUTED_MIN_SPEEDUP`` overrides the floor and
``BENCH_DISTRIBUTED_NO_GATE=1`` downgrades the gate to a recorded-only
number.  The floor self-baselines from the committed
``BENCH_streaming.json`` once a gate-enforced measurement lands there.
Every run writes
``benchmarks/artifacts/bench_distributed.json`` for the perf trajectory.
"""

import json
import os

from conftest import artifact_path, best_of, run_once, trajectory_floor

from repro.evaluation import event_parity, report_parity
from repro.streaming import (
    HierarchicalNetworkDetector,
    StreamingConfig,
    chunk_series,
    parallel_stream_detect,
    stream_detect,
)

#: Chunk size (bins) of the simulated live feed, as in the streaming bench.
CHUNK_BINS = 32
#: Recalibration cadence (bins) of every streaming model.
RECALIBRATE_BINS = 96
#: Warmup bins before detection starts.
WARMUP_BINS = 128
#: Shard worker processes.
N_WORKERS = 4
#: Per-PoP ingestion leaves of the hierarchical run.
N_POPS = 2
#: Fallback floor on the shard-parallel-vs-baseline speedup (self-baselines
#: from BENCH_streaming.json once a gate-enforced measurement is committed).
MIN_SHARD_SPEEDUP = 1.5
#: The speedup gate needs real parallelism; below this the numbers are
#: recorded but the assertions are skipped (parity is always enforced).
MIN_CORES_FOR_GATE = 4


def test_distributed_modes_speedup_and_parity(benchmark, week_dataset):
    """Shard workers beat one process; every mode is event-identical."""
    series = week_dataset.series
    config = StreamingConfig(min_train_bins=WARMUP_BINS,
                             recalibrate_every_bins=RECALIBRATE_BINS)

    def run_single():
        return stream_detect(chunk_series(series, CHUNK_BINS), config)

    def run_shard_parallel():
        return parallel_stream_detect(chunk_series(series, CHUNK_BINS),
                                      config, n_workers=N_WORKERS)

    def run_hierarchy():
        detector = HierarchicalNetworkDetector(config, n_pops=N_POPS)
        for chunk in chunk_series(series, CHUNK_BINS):
            detector.process_chunk(chunk)
        return detector.finish()

    single_time, baseline = best_of(2, run_single)
    shard_time, by_shard = best_of(3, run_shard_parallel)
    hier_time, by_hier = best_of(2, run_hierarchy)
    run_once(benchmark, run_shard_parallel)

    parities = {
        "shard_parallel": event_parity(baseline.events, by_shard.events),
        "hierarchical": event_parity(baseline.events, by_hier.events),
    }
    bins = series.n_bins
    shard_speedup = single_time / shard_time
    cores = os.cpu_count() or 1
    min_speedup = float(os.environ.get(
        "BENCH_DISTRIBUTED_MIN_SPEEDUP",
        trajectory_floor("bench_distributed", "shard_speedup_vs_baseline",
                         MIN_SHARD_SPEEDUP)))
    gate_enforced = (cores >= MIN_CORES_FOR_GATE
                     and not os.environ.get("BENCH_DISTRIBUTED_NO_GATE"))

    record = {
        "benchmark": "bench_distributed",
        "n_bins": bins,
        "n_od_pairs": series.n_od_pairs,
        "n_traffic_types": len(series.traffic_types),
        "chunk_bins": CHUNK_BINS,
        "n_workers": N_WORKERS,
        "n_pops": N_POPS,
        "cpu_count": cores,
        "baseline_bins_per_sec": round(bins / single_time, 1),
        "shard_parallel_bins_per_sec": round(bins / shard_time, 1),
        "hierarchical_bins_per_sec": round(bins / hier_time, 1),
        "shard_speedup_vs_baseline": round(shard_speedup, 3),
        "n_events": baseline.n_events,
        # Mismatching events are embedded in full (EventParityReport.to_dict)
        # so a failed parity gate is diagnosable from the artifact alone.
        "parity": {name: parity.to_dict()
                   for name, parity in parities.items()},
        "gate": {
            "min_speedup": min_speedup,
            "min_cores": MIN_CORES_FOR_GATE,
            "enforced": gate_enforced,
        },
    }
    # Written BEFORE any assert: when a gate fails, the artifact holding the
    # evidence must still exist (CI uploads it with if: always()).
    artifact = artifact_path("bench_distributed.json")
    artifact.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    benchmark.extra_info.update(
        {k: v for k, v in record.items() if isinstance(v, (int, float))})
    print(f"\ndistributed modes over {bins} bins on {cores} core(s): "
          f"single {single_time:.2f}s, "
          f"K={N_WORKERS} shard-parallel {shard_time:.2f}s "
          f"({shard_speedup:.2f}x vs single), "
          f"{N_POPS}-PoP hierarchy {hier_time:.2f}s; "
          f"BENCH artifact: {artifact}")

    # The repo's core guarantee, at paper scale, for every distribution
    # strategy — never disabled by BENCH_DISTRIBUTED_NO_GATE.
    for name, parity in parities.items():
        assert parity.exact, (name, parity.to_dict())
    for name, candidate in (("shard_parallel", by_shard),
                            ("hierarchical", by_hier)):
        full = report_parity(baseline, candidate)
        assert all(full["equal"].values()), (name, full["equal"])

    if gate_enforced:
        assert shard_speedup >= min_speedup, (
            f"shard-parallel speedup {shard_speedup:.2f}x is below the "
            f"{min_speedup}x floor on a {cores}-core machine")
    else:
        print(f"speedup gate not enforced (cores={cores}, "
              f"BENCH_DISTRIBUTED_NO_GATE="
              f"{os.environ.get('BENCH_DISTRIBUTED_NO_GATE', '')!r}); "
              f"parity still verified")
