"""End-to-end telemetry: instrumented runs, checkpoints, snapshots.

The acceptance contract of the telemetry plane:

* enabling it never changes an event (bit-identical reports on/off);
* the written :class:`HealthSnapshot` reconciles **exactly** with the
  :class:`StreamingReport` of the same run — bins, events by type,
  recalibrations;
* counters survive checkpoint → restore, in-flight spans do not;
* ``tools/status.py`` renders a snapshot file without the package
  installed (PYTHONPATH=src is enough).
"""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

from repro.core.events import count_by_label
from repro.streaming import (
    StreamingConfig,
    StreamingNetworkDetector,
    chunk_series,
    stream_detect,
)
from repro.telemetry import HealthSnapshot

CHUNK = 48


@pytest.fixture(scope="module")
def base_config():
    return StreamingConfig(min_train_bins=128, recalibrate_every_bins=96)


def _telemetry_config(base, tmp_path, **overrides):
    return dataclasses.replace(
        base, telemetry=True, telemetry_sample_rate=1.0,
        telemetry_trace_path=str(tmp_path / "trace.jsonl"),
        telemetry_snapshot_path=str(tmp_path / "health.json"),
        telemetry_snapshot_every_chunks=4, **overrides)


def _assert_reconciles(snapshot, report):
    """Snapshot and report describe the same run, exactly."""
    assert snapshot.bins_processed == report.n_bins_processed
    assert snapshot.chunks_processed == report.n_chunks_processed
    assert snapshot.warmup_bins == report.n_warmup_bins
    assert snapshot.events_total == report.n_events
    assert snapshot.events_by_type == count_by_label(report.events)


class TestFlatPipeline:
    def test_snapshot_reconciles_with_report(self, small_dataset,
                                             base_config, tmp_path):
        config = _telemetry_config(base_config, tmp_path)
        report = stream_detect(chunk_series(small_dataset.series, CHUNK),
                               config)
        snapshot = HealthSnapshot.read(config.telemetry_snapshot_path)
        _assert_reconciles(snapshot, report)
        assert snapshot.recalibrations > 0
        assert snapshot.runtime_seconds == pytest.approx(
            report.runtime_seconds, rel=0.2)
        # Every chunk stage shows up in the latency summary.
        for stage in ("ingest", "center", "update", "detect", "aggregate",
                      "recalibrate"):
            assert snapshot.stage_seconds[stage]["count"] > 0, stage

    def test_trace_records_are_json_lines(self, small_dataset, base_config,
                                          tmp_path):
        config = _telemetry_config(base_config, tmp_path)
        stream_detect(chunk_series(small_dataset.series, CHUNK), config)
        with open(config.telemetry_trace_path, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        assert records
        stages = {record["stage"] for record in records}
        assert {"ingest", "detect", "aggregate"} <= stages
        assert all("duration_seconds" in record for record in records)

    def test_runtime_fields_populated_even_when_disabled(self, small_dataset,
                                                         base_config):
        report = stream_detect(chunk_series(small_dataset.series, CHUNK),
                               base_config)
        assert report.runtime_seconds > 0.0
        assert report.bins_per_second > 0.0
        round_tripped = type(report).from_dict(report.to_dict())
        assert round_tripped.runtime_seconds == report.runtime_seconds
        assert round_tripped.bins_per_second == report.bins_per_second


class TestCheckpointRestore:
    def test_counters_survive_spans_dropped(self, small_dataset, base_config,
                                            tmp_path):
        config = _telemetry_config(base_config, tmp_path)
        chunks = list(chunk_series(small_dataset.series, CHUNK))
        split = 5
        detector = StreamingNetworkDetector(config)
        for chunk in chunks[:split]:
            detector.process_chunk(chunk)
        detector.save(tmp_path / "ckpt")
        assert detector.telemetry.registry.value("checkpoints") == 1

        restored = StreamingNetworkDetector.restore(tmp_path / "ckpt")
        registry = restored.telemetry.registry
        # Counters picked up exactly where the checkpoint left them...
        assert registry.value("bins_processed") == split * CHUNK
        assert registry.value("chunks_processed") == split
        assert registry.value("checkpoints") == 1
        # ...while the tracer is fresh: no in-flight span survives.
        assert restored.telemetry.tracer.active_spans == []
        assert restored.telemetry.tracer.n_chunks_seen == 0

        for chunk in chunks[split:]:
            restored.process_chunk(chunk)
        report = restored.finish()
        snapshot = HealthSnapshot.read(config.telemetry_snapshot_path)
        # The final snapshot covers the whole stream, not just the resumed
        # half — the restart-parity discipline extended to the counters.
        _assert_reconciles(snapshot, report)
        assert report.runtime_seconds > 0.0


class TestStatusCli:
    def _run(self, *args):
        env = dict(os.environ)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env["PYTHONPATH"] = os.path.join(root, "src")
        return subprocess.run(
            [sys.executable, os.path.join(root, "tools", "status.py"),
             *args],
            capture_output=True, text=True, env=env)

    def test_renders_snapshot_file(self, small_dataset, base_config,
                                   tmp_path):
        config = _telemetry_config(base_config, tmp_path)
        report = stream_detect(chunk_series(small_dataset.series, CHUNK),
                               config)
        result = self._run(config.telemetry_snapshot_path)
        assert result.returncode == 0, result.stderr
        assert f"bins processed     {report.n_bins_processed}" \
            in result.stdout
        assert "recalibrations" in result.stdout

    def test_prometheus_flag(self, small_dataset, base_config, tmp_path):
        config = _telemetry_config(base_config, tmp_path)
        stream_detect(chunk_series(small_dataset.series, CHUNK), config)
        result = self._run(config.telemetry_snapshot_path, "--prometheus")
        assert result.returncode == 0, result.stderr
        assert "repro_bins_processed_total" in result.stdout
        assert "# TYPE repro_stage_seconds histogram" in result.stdout

    def test_missing_file_is_an_error(self, tmp_path):
        result = self._run(str(tmp_path / "absent.json"))
        assert result.returncode != 0
