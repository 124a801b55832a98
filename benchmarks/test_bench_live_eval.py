"""Benchmark E12 — live-mode evaluation quality and adaptive thresholds.

Two measurements, both about *detection quality* of the production
streaming path rather than throughput:

* **Live vs batch Table 1/3 analogues** (labeled Abilene week): the
  single-pass streaming pipeline replays the labeled week and its
  Table 1-analogue counts and Table 3-analogue metrics (detection rate,
  false-alarm rate, per-type recall) are compared against the batch
  reference over identical windows and matcher.  Gates
  (machine-independent, never disabled): the
  live detection rate within {MAX_DETECTION_DROP} of batch, live
  false-alarm rate at most {MAX_LIVE_FAR}, and live-vs-batch event span
  recall at least {SPAN_RECALL_FLOOR}.
* **Adaptive vs fixed control limits** (drifting synthetic week: diurnal
  mean ramping, noise variance ramping): ``StreamingConfig(limits=
  "adaptive")`` must produce a false-alarm rate no worse than the fixed
  99.9% limits under both infinite memory and a one-day forgetting
  half-life, while its ground-truth recall stays within
  {MAX_RECALL_DROP} of the fixed policy's.

Every run writes ``benchmarks/artifacts/bench_live_eval.json`` (or
``$BENCH_ARTIFACT_DIR``) before any gate can fail, so CI uploads always
carry the evidence; ``tools/bench_trajectory.py`` folds it into the
``BENCH_streaming.json`` trajectory at the repo root.
"""


import pytest

from conftest import BENCHMARK_SEED, run_once, timed, write_artifact

from repro.datasets import DatasetConfig, generate_drifting_dataset
from repro.evaluation import match_events
from repro.evaluation.live import (
    batch_reference,
    compare_batch_live,
    run_live_evaluation,
)
from repro.streaming import (
    StreamingConfig,
    chunk_series,
    forgetting_from_half_life,
    stream_detect,
)

#: Warmup / recalibration cadence of the live runs.
WARMUP_BINS = 128
RECALIBRATE_BINS = 96
CHUNK_BINS = 32
#: Live detection rate may trail batch by at most this much.
MAX_DETECTION_DROP = 0.15
#: Ceiling on the live false-alarm rate on the stationary labeled week.
MAX_LIVE_FAR = 0.15
#: Floor on live-vs-batch event span recall.
SPAN_RECALL_FLOOR = 0.70
#: Floor on live-vs-batch exact-event recall.
RECALL_FLOOR = 0.55
#: Adaptive recall may trail fixed-limit recall by at most this much.
MAX_RECALL_DROP = 0.05


def _live_config(**overrides):
    return StreamingConfig(min_train_bins=WARMUP_BINS,
                           recalibrate_every_bins=RECALIBRATE_BINS,
                           **overrides)


def _write_section(request, section, record):
    return write_artifact(request, "bench_live_eval.json", record,
                          section=section)


def test_live_table_analogues_vs_batch(benchmark, week_dataset, request):
    """The live run reproduces the batch Table 1/3 numbers."""
    batch_time, batch = timed(batch_reference, week_dataset)
    config = _live_config()

    live_time, live = timed(run_live_evaluation, week_dataset, config,
                            CHUNK_BINS)
    delta = compare_batch_live(batch, live)
    parity = delta.parity()
    run_once(benchmark, run_live_evaluation, week_dataset, config, CHUNK_BINS)

    record = {
        "benchmark": "bench_live_eval",
        "n_bins": week_dataset.n_bins,
        "n_od_pairs": week_dataset.n_od_pairs,
        "n_injected_anomalies": len(week_dataset.ground_truth),
        "chunk_bins": CHUNK_BINS,
        "warmup_bins": WARMUP_BINS,
        "recalibrate_every_bins": RECALIBRATE_BINS,
        "batch_seconds": round(batch_time, 3),
        "live_seconds": round(live_time, 3),
        "batch": batch.to_dict(),
        "live": delta.to_dict(),
        "parity": parity,
        "gate": {
            "max_detection_drop": MAX_DETECTION_DROP,
            "max_live_false_alarm_rate": MAX_LIVE_FAR,
            "span_recall_floor": SPAN_RECALL_FLOOR,
            "recall_floor": RECALL_FLOOR,
        },
    }
    artifact = _write_section(request, "live_vs_batch", record)

    print(f"\nbatch: {batch.total_events} events, detection "
          f"{batch.metrics.detection_rate:.3f}, far "
          f"{batch.metrics.false_alarm_rate:.3f}")
    print(f"live: {live.total_events} events, detection "
          f"{live.metrics.detection_rate:.3f} "
          f"({delta.detection_rate_delta:+.3f}), far "
          f"{live.metrics.false_alarm_rate:.3f}, span recall "
          f"{parity['span_recall']:.3f}")
    print(f"BENCH artifact: {artifact}")

    # Quality gates — machine-independent, never disabled.
    assert delta.detection_rate_delta >= -MAX_DETECTION_DROP, (
        delta.to_dict()["delta"])
    assert live.metrics.false_alarm_rate <= MAX_LIVE_FAR, (
        live.metrics.as_dict())
    assert parity["span_recall"] >= SPAN_RECALL_FLOOR, parity
    assert parity["recall"] >= RECALL_FLOOR, parity


@pytest.fixture(scope="module")
def drifting_week():
    """A non-stationary labeled week: mean +15%/day, noise sigma +35%/day."""
    return generate_drifting_dataset(DatasetConfig(weeks=1.0),
                                     seed=BENCHMARK_SEED)


def _score(dataset, config):
    report = stream_detect(chunk_series(dataset.series, CHUNK_BINS), config)
    match = match_events(report.events, dataset.ground_truth,
                         series=dataset.series)
    return {
        "n_events": report.n_events,
        "detection_rate": round(match.detection_rate, 4),
        "false_alarm_rate": round(match.false_alarm_rate, 4),
    }


def test_adaptive_limits_on_drifting_week(benchmark, drifting_week, request):
    """Adaptive quantile thresholds beat fixed limits under drift."""
    day_half_life = forgetting_from_half_life(288)
    scenarios = {
        "infinite_memory": {},
        "one_day_half_life": {"forgetting": day_half_life},
    }

    results = {}
    for name, knobs in scenarios.items():
        results[name] = {
            "fixed": _score(drifting_week, _live_config(**knobs)),
            "adaptive": _score(drifting_week,
                               _live_config(limits="adaptive", **knobs)),
        }
    run_once(benchmark, _score, drifting_week,
             _live_config(limits="adaptive"))

    record = {
        "benchmark": "bench_adaptive_limits",
        "n_bins": drifting_week.n_bins,
        "n_injected_anomalies": len(drifting_week.ground_truth),
        "chunk_bins": CHUNK_BINS,
        "warmup_bins": WARMUP_BINS,
        "recalibrate_every_bins": RECALIBRATE_BINS,
        "drift": {"level_drift_per_day": 0.15, "variance_ramp_per_day": 0.35},
        "scenarios": results,
        "gate": {"max_recall_drop": MAX_RECALL_DROP},
    }
    artifact = _write_section(request, "adaptive_limits", record)

    for name, scores in results.items():
        fixed, adaptive = scores["fixed"], scores["adaptive"]
        print(f"\n{name}: fixed far {fixed['false_alarm_rate']:.3f} "
              f"recall {fixed['detection_rate']:.3f} "
              f"({fixed['n_events']} events) -> adaptive far "
              f"{adaptive['false_alarm_rate']:.3f} recall "
              f"{adaptive['detection_rate']:.3f} "
              f"({adaptive['n_events']} events)")
    print(f"BENCH artifact: {artifact}")

    # The tentpole gates — machine-independent, never disabled: adaptive
    # must not false-alarm more than fixed on the drifting week, and must
    # not give up more than MAX_RECALL_DROP of ground-truth recall.
    for name, scores in results.items():
        fixed, adaptive = scores["fixed"], scores["adaptive"]
        assert (adaptive["false_alarm_rate"]
                <= fixed["false_alarm_rate"]), (name, scores)
        assert (adaptive["detection_rate"]
                >= fixed["detection_rate"] - MAX_RECALL_DROP), (name, scores)
        # The drift must actually stress the fixed policy, or the
        # comparison is vacuous.
        assert fixed["false_alarm_rate"] >= 0.2, (name, scores)
