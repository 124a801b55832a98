#!/usr/bin/env python
"""Consolidate benchmark JSON artifacts into the BENCH_streaming.json
trajectory and diff a run against the committed baseline.

The streaming benchmarks (``benchmarks/test_bench_distributed.py``,
``benchmarks/test_bench_live_eval.py``, ...) each write a JSON artifact under
``benchmarks/artifacts/``.  This tool folds them into one
``BENCH_streaming.json`` at the repo root — the per-PR perf trajectory,
versioned by git history — and lets CI fail a PR that regresses a tracked
metric beyond a tolerance:

* ``consolidate`` merges every artifact into the trajectory file (each
  top-level record is keyed by its ``"benchmark"`` name; nested sections,
  like the two halves of ``bench_live_eval.json``, are flattened with their
  section key).  ``benchmarks/artifacts/`` is not versioned, so it can hold
  artifacts of benchmarks that were since deleted: a record is merged only
  while the benchmark test its ``"source"`` names (``"<module>::<function>"``,
  stamped by the benchmarks' ``write_artifact``) is still defined, and every
  other record is skipped with a ``STALE:`` note;
* ``check`` compares the *portable* metrics of the current artifacts
  against the committed baseline: **speedup ratios** (any numeric field
  whose name contains ``speedup``) may not fall below
  ``baseline * (1 - tolerance)``, and **parity recalls** (``recall`` /
  ``span_recall`` inside a ``parity`` object) may not fall below
  ``baseline - recall_tolerance`` (absolute).  Raw bins/sec throughputs
  are recorded in the trajectory but never gated — they are machine-bound,
  ratios are not — and a record whose own ``gate.enforced`` is false
  (the benchmark itself judged this machine un-baselined, e.g.
  ``BENCH_INGEST_NO_GATE`` on a small CI runner) has its speedup ratios
  skipped too.  Parity recalls are always gated, but a benchmark that
  documents its own looser floor in the record's gate (e.g.
  ``gate.span_recall_floor``) wins over ``baseline - recall_tolerance``:
  the trajectory is a drift tripwire, the bench owns its tolerance.

Usage::

    python tools/bench_trajectory.py consolidate
    python tools/bench_trajectory.py check --tolerance 0.5 --recall-tolerance 0.05
    python tools/bench_trajectory.py check --summary "$GITHUB_STEP_SUMMARY"

A baseline record with no fresh artifact is an **error** (exit code 2,
``MISSING:`` messages): a benchmark that crashes before writing its JSON
must not slip past the gate, and an empty artifact directory means the
benchmarks did not run at all.  Pass ``--allow-missing`` for deliberate
partial local runs — absent benchmarks are then skipped with a note (an
empty artifact directory stays an error even so).  Unknown new benchmarks
pass and should be consolidated into the baseline in the same PR.

``--summary PATH`` appends a markdown comparison table (benchmark, metric,
baseline, current, floor, status) to *PATH* — CI points it at
``$GITHUB_STEP_SUMMARY`` so trajectory drift is readable from the run page
without downloading artifacts.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_ARTIFACTS = REPO_ROOT / "benchmarks" / "artifacts"
DEFAULT_BASELINE = REPO_ROOT / "BENCH_streaming.json"
SCHEMA_VERSION = 1


def collect_records(artifact_dir: Path) -> Dict[str, Dict]:
    """All benchmark records in *artifact_dir*, keyed by benchmark name.

    A file may hold one record (with a ``"benchmark"`` key) or a mapping of
    section name to record; sections inherit their record's own
    ``"benchmark"`` name when present.
    """
    records: Dict[str, Dict] = {}
    for path in sorted(artifact_dir.glob("*.json")):
        payload = json.loads(path.read_text())
        candidates = ([payload] if "benchmark" in payload
                      else [v for v in payload.values() if isinstance(v, dict)])
        for record in candidates:
            name = record.get("benchmark")
            if isinstance(name, str) and name:
                records[name] = record
    return records


def _test_exists(source: str) -> bool:
    """Whether the ``"<module>::<function>"`` *source* is still defined."""
    module, _, function = source.partition("::")
    path = REPO_ROOT / module
    if not path.is_file():
        return False
    return any(isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and node.name == function
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))


def consolidate(artifact_dir: Path, output: Path) -> Dict:
    """Merge the artifacts into the trajectory file and return the payload.

    Records already in the trajectory but absent from the artifact
    directory are kept (a partial local benchmark run must not silently
    drop another benchmark's baseline — and thereby its gating).  Stale
    artifact records — whose ``"source"`` test is gone, or that name none —
    are skipped with a ``STALE:`` note on stderr.
    """
    records: Dict[str, Dict] = {}
    if output.is_file():
        records.update(json.loads(output.read_text()).get("benchmarks", {}))
    for name, record in collect_records(artifact_dir).items():
        source = record.get("source")
        if not (isinstance(source, str) and "::" in source):
            reason = "it names no producing test (\"source\")"
        elif not _test_exists(source):
            reason = f"its test {source} no longer exists"
        else:
            records[name] = record
            continue
        print(f"STALE: skipped record {name!r}: {reason}", file=sys.stderr)
    payload = {"schema": SCHEMA_VERSION, "benchmarks": records}
    output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def _speedup_metrics(record: Dict, prefix: str = "") -> Iterator[Tuple[str, float]]:
    for key, value in record.items():
        if isinstance(value, dict) and key != "gate":
            yield from _speedup_metrics(value, f"{prefix}{key}.")
        elif isinstance(value, (int, float)) and "speedup" in key:
            yield f"{prefix}{key}", float(value)


def _recall_metrics(record: Dict, prefix: str = "") -> Iterator[Tuple[str, float]]:
    parity = record.get("parity")
    if not isinstance(parity, dict):
        return
    for section_key, section in parity.items():
        if isinstance(section, dict):
            yield from ((f"{prefix}parity.{section_key}.{k}", float(v))
                        for k, v in section.items()
                        if k in ("recall", "span_recall")
                        and isinstance(v, (int, float)))
        elif (section_key in ("recall", "span_recall")
              and isinstance(section, (int, float))):
            yield f"{prefix}parity.{section_key}", float(section)


def _speedup_gate_enforced(record: Dict) -> bool:
    """Whether the benchmark itself considered this machine gate-worthy."""
    gate = record.get("gate")
    return not (isinstance(gate, dict) and gate.get("enforced") is False)


def compare(baseline_path: Path, artifact_dir: Path, tolerance: float,
            recall_tolerance: float = 0.05,
            allow_missing: bool = False) -> Tuple[List[str], List[str], List[Dict]]:
    """``(regressions, missing, rows)`` of the current artifacts vs baseline.

    *regressions* are tolerance violations of tracked metrics; *missing*
    are baseline records (or the whole artifact directory) that produced no
    fresh artifact this run — a distinct failure class, because a benchmark
    that crashes before writing JSON must not read as a pass.  *rows* is
    the full comparison table (one row per tracked metric) for the
    markdown summary.
    """
    if not baseline_path.is_file():
        print(f"no baseline at {baseline_path}; nothing to check")
        return [], [], []
    baseline = json.loads(baseline_path.read_text()).get("benchmarks", {})
    current = collect_records(artifact_dir) if artifact_dir.is_dir() else {}
    failures: List[str] = []
    missing: List[str] = []
    rows: List[Dict] = []
    if baseline and not current:
        missing.append(
            f"no benchmark artifacts at all in {artifact_dir} — the "
            f"benchmarks did not run, or crashed before writing JSON")
        return failures, missing, rows

    def row(name, metric, kind, baseline_value, value, floor, status):
        rows.append({"benchmark": name, "metric": metric, "kind": kind,
                     "baseline": baseline_value, "current": value,
                     "floor": floor, "status": status})

    for name, reference in sorted(baseline.items()):
        record = current.get(name)
        if record is None:
            if allow_missing:
                print(f"note: benchmark {name!r} not in this run; skipped")
                row(name, "-", "-", None, None, None, "skipped (not run)")
            else:
                missing.append(
                    f"benchmark {name!r} is in the baseline but produced no "
                    f"fresh artifact (crashed before writing JSON, or not "
                    f"selected — pass --allow-missing for partial runs)")
                row(name, "-", "-", None, None, None, "MISSING")
            continue
        gate_enforced = _speedup_gate_enforced(record)
        if not gate_enforced:
            print(f"note: {name!r} ran with its speedup gate disabled on "
                  f"this machine; speedup ratios recorded, not checked")
        current_speedups = dict(_speedup_metrics(record))
        gate = record.get("gate") if isinstance(record.get("gate"), dict) else {}
        for metric, floor_value in _speedup_metrics(reference):
            value = current_speedups.get(metric)
            floor = floor_value * (1.0 - tolerance)
            if not gate_enforced:
                row(name, metric, "speedup", floor_value, value, None,
                    "not gated (machine)")
            elif value is None:
                failures.append(f"{name}: tracked metric {metric!r} "
                                f"disappeared from the artifact")
                row(name, metric, "speedup", floor_value, None, floor,
                    "MISSING METRIC")
            elif value < floor:
                failures.append(
                    f"{name}: {metric} regressed to {value:.3f} "
                    f"(baseline {floor_value:.3f}, floor {floor:.3f})")
                row(name, metric, "speedup", floor_value, value, floor,
                    "REGRESSION")
            else:
                row(name, metric, "speedup", floor_value, value, floor, "ok")
        current_recalls = dict(_recall_metrics(record))
        for metric, baseline_value in _recall_metrics(reference):
            value = current_recalls.get(metric)
            floor = baseline_value - recall_tolerance
            # A bench that documents its own floor for this recall (e.g.
            # gate.span_recall_floor) owns the tolerance when it is looser.
            documented = gate.get(f"{metric.rsplit('.', 1)[-1]}_floor")
            if isinstance(documented, (int, float)):
                floor = min(floor, float(documented))
            if value is None:
                failures.append(f"{name}: tracked metric {metric!r} "
                                f"disappeared from the artifact")
                row(name, metric, "recall", baseline_value, None, floor,
                    "MISSING METRIC")
            elif value < floor:
                failures.append(
                    f"{name}: {metric} regressed to {value:.3f} "
                    f"(baseline {baseline_value:.3f}, floor {floor:.3f})")
                row(name, metric, "recall", baseline_value, value, floor,
                    "REGRESSION")
            else:
                row(name, metric, "recall", baseline_value, value, floor,
                    "ok")
    return failures, missing, rows


def check(baseline_path: Path, artifact_dir: Path, tolerance: float,
          recall_tolerance: float = 0.05,
          allow_missing: bool = False) -> List[str]:
    """All failure messages (regressions + missing) for the current run."""
    failures, missing, _ = compare(baseline_path, artifact_dir, tolerance,
                                   recall_tolerance, allow_missing)
    return failures + missing


def _format_value(value) -> str:
    if value is None:
        return "-"
    return f"{value:.3f}" if isinstance(value, float) else str(value)


def render_markdown(rows: List[Dict], failures: List[str],
                    missing: List[str]) -> str:
    """The comparison table as GitHub-flavored markdown (step summaries)."""
    lines = ["### Benchmark trajectory vs committed baseline", ""]
    if rows:
        lines += ["| Benchmark | Metric | Kind | Baseline | Current | Floor "
                  "| Status |",
                  "|---|---|---|---|---|---|---|"]
        for entry in rows:
            status = entry["status"]
            marker = ("✅" if status == "ok"
                      else "❌" if "REGRESSION" in status or "MISSING" in status
                      else "⏭️")
            lines.append(
                f"| {entry['benchmark']} | {entry['metric']} "
                f"| {entry['kind']} | {_format_value(entry['baseline'])} "
                f"| {_format_value(entry['current'])} "
                f"| {_format_value(entry['floor'])} | {marker} {status} |")
    else:
        lines.append("_no tracked metrics compared_")
    if failures or missing:
        lines += ["", "**Failures:**", ""]
        lines += [f"- `{message}`" for message in failures + missing]
    else:
        lines += ["", "All tracked metrics within tolerance."]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=("consolidate", "check"))
    parser.add_argument("--artifacts", type=Path, default=DEFAULT_ARTIFACTS,
                        help="directory of per-benchmark JSON artifacts")
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE,
                        help="trajectory file (committed baseline)")
    parser.add_argument("--tolerance", type=float, default=0.5,
                        help="allowed relative drop of speedup ratios")
    parser.add_argument("--recall-tolerance", type=float, default=0.05,
                        help="allowed absolute drop of parity recalls")
    parser.add_argument("--allow-missing", action="store_true",
                        help="skip baseline records with no fresh artifact "
                             "(deliberate partial local runs) instead of "
                             "failing with exit code 2")
    parser.add_argument("--summary", type=Path, default=None,
                        help="append a markdown comparison table to this "
                             "file (point at $GITHUB_STEP_SUMMARY in CI)")
    args = parser.parse_args(argv)

    if args.command == "consolidate":
        payload = consolidate(args.artifacts, args.baseline)
        print(f"consolidated {len(payload['benchmarks'])} benchmark "
              f"record(s) into {args.baseline}")
        return 0

    failures, missing, rows = compare(args.baseline, args.artifacts,
                                      args.tolerance, args.recall_tolerance,
                                      args.allow_missing)
    if args.summary is not None:
        with open(args.summary, "a", encoding="utf-8") as handle:
            handle.write(render_markdown(rows, failures, missing))
    for message in failures:
        print(f"REGRESSION: {message}", file=sys.stderr)
    for message in missing:
        print(f"MISSING: {message}", file=sys.stderr)
    if not failures and not missing:
        print("benchmark trajectory within tolerance of the baseline")
    if failures:
        return 1
    return 2 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
