"""Shared fixtures for the benchmark harness.

The benchmarks reproduce the paper's tables and figures on a paper-scale
dataset: the 11-PoP Abilene topology with one full week of 5-minute bins
(n = 2016, p = 121) and a randomized anomaly schedule covering every
Table 2 anomaly type.  The paper uses four weeks; one week keeps each
benchmark in the tens-of-seconds range while preserving every structural
claim (the four-week run is a matter of looping the same harness).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.datasets import DatasetConfig, generate_abilene_dataset

#: Seed used by every benchmark so the reported numbers are reproducible.
BENCHMARK_SEED = 2004

#: The committed perf trajectory (see ``tools/bench_trajectory.py``).
TRAJECTORY_PATH = Path(__file__).parent.parent / "BENCH_streaming.json"

#: Safety margin applied to a measured speedup before it becomes a floor.
FLOOR_MARGIN = 0.8


def trajectory_floor(benchmark_name: str, metric: str, default: float) -> float:
    """Speedup floor self-baselined from the committed trajectory.

    When the committed ``BENCH_streaming.json`` record for *benchmark_name*
    was measured with its gate **enforced** (a real multi-core box, no
    ``*_NO_GATE`` escape hatch), the floor is the measured ratio scaled by
    :data:`FLOOR_MARGIN` — so the gate tightens automatically once a
    trustworthy measurement is committed, instead of trusting a hand-picked
    constant forever.  Otherwise (no trajectory, record missing, or the
    committed number came from an un-baselined machine) *default* applies.
    The floor never drops below *default*.
    """
    try:
        record = json.loads(TRAJECTORY_PATH.read_text())[
            "benchmarks"][benchmark_name]
    except (OSError, KeyError, ValueError):
        return default
    gate = record.get("gate")
    measured = record.get(metric)
    if (isinstance(gate, dict) and gate.get("enforced")
            and isinstance(measured, (int, float))):
        return max(default, round(FLOOR_MARGIN * float(measured), 3))
    return default


def write_artifact(request, filename: str, record: dict,
                   section: str = None) -> Path:
    """Write *record* as the JSON artifact *filename* and return its path.

    The file lands in ``benchmarks/artifacts/`` (or ``$BENCH_ARTIFACT_DIR``),
    which ``tools/bench_trajectory.py`` consolidates into the repo-root
    trajectory.  *request* is the producing test's pytest ``request``; the
    record names that test as ``"source"`` (``"<module>::<function>"``,
    module repo-relative), so ``consolidate`` skips the record once the test
    or its module is deleted.  With *section*, the record becomes that key of
    a sectioned artifact.
    """
    directory = Path(os.environ.get("BENCH_ARTIFACT_DIR",
                                    Path(__file__).parent / "artifacts"))
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / filename
    module = Path(request.node.path).resolve().relative_to(
        TRAJECTORY_PATH.parent).as_posix()
    record = dict(record, source=f"{module}::{request.node.originalname}")
    payload = record
    if section is not None:
        payload = json.loads(path.read_text()) if path.is_file() else {}
        payload[section] = record
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def timed(function, *args):
    """``(elapsed_seconds, result)`` of one call."""
    start = time.perf_counter()
    result = function(*args)
    return time.perf_counter() - start, result


def best_of(n, function, *args):
    """``(min elapsed over n calls, last result)`` — scheduler-noise guard."""
    times, result = [], None
    for _ in range(n):
        elapsed, result = timed(function, *args)
        times.append(elapsed)
    return min(times), result


@pytest.fixture(scope="session")
def week_dataset():
    """One week of synthetic Abilene traffic with injected anomalies."""
    return generate_abilene_dataset(DatasetConfig(weeks=1.0), seed=BENCHMARK_SEED)


def run_once(benchmark, function, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing.

    The experiments are deterministic and expensive (seconds to minutes), so
    a single round is both sufficient and necessary to keep the harness
    usable; pytest-benchmark still records the wall-clock time.
    """
    return benchmark.pedantic(function, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)
