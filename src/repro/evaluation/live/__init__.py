"""Live-mode evaluation: online Table 1/3 analogues for the streaming path.

The batch experiments (:mod:`repro.evaluation.experiments`) quantify the
reproduction's detection quality with the paper's own artifacts — Table 1
(events per traffic-type combination) and Table 3 (per-anomaly-type
detection breakdown) — but only for the offline, full-window fit.  This
package replays the same labeled weeks through the **single-pass streaming
pipeline** (:func:`~repro.streaming.pipeline.stream_detect`) and computes
the same analogues online:

* :func:`~repro.evaluation.live.harness.run_live_evaluation` — week-by-week
  live replay, Table 1-analogue label counts plus
  Table 3-analogue detection metrics (detection rate, false-alarm rate,
  per-anomaly-type recall) against the injected ground truth;
* :func:`~repro.evaluation.live.harness.batch_reference` — the batch
  counterpart, windowed and matched **identically**, so every live number
  has an apples-to-apples batch twin;
* :func:`~repro.evaluation.live.delta.compare_batch_live` — the structured
  batch-vs-live delta report (:class:`~repro.evaluation.live.delta
  .BatchLiveDelta`) whose ``to_dict`` feeds the ``BENCH_streaming.json``
  trajectory.
"""

from repro.evaluation.live.delta import BatchLiveDelta, compare_batch_live
from repro.evaluation.live.harness import (
    BatchReference,
    LiveEvaluationResult,
    LiveWindowResult,
    batch_reference,
    run_live_evaluation,
)

__all__ = [
    "BatchReference",
    "BatchLiveDelta",
    "LiveEvaluationResult",
    "LiveWindowResult",
    "batch_reference",
    "compare_batch_live",
    "run_live_evaluation",
]
