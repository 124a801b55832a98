"""Chaos harness: seeded faults against the full detection stack.

Four parity invariants under injected failure, all deterministic under
fixed seeds (the CI ``chaos`` job runs exactly this file):

1. **Service kill** — the service CLI (``python -m repro.service``)
   SIGKILLed mid-stream, after its second periodic checkpoint, is
   restarted from its checkpoint chain, and the store ends with the
   **byte-identical** ``table_digest()`` of an uninterrupted run.
2. **Checkpoint corruption** — truncating the newest checkpoint
   generation makes ``load_checkpoint(fallback=True)`` quarantine the
   damaged files (never delete), restore the previous verified
   generation, and a suffix replay into the idempotent
   :class:`~repro.service.EventStore` ends with the **byte-identical**
   ``table_digest()`` of an uninterrupted run.
3. **Leaf quarantine** — a silent ingestion leaf is auto-quarantined at
   its watermark deadline, global detection continues over the healthy
   sub-hierarchy (reporting exactly its events), and reintegration
   restores full parity via the exact merge.

When ``CHAOS_ARTIFACT_DIR`` is set (the CI job does), quarantined
checkpoint files are copied there so a failing run uploads the evidence.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.datasets import DatasetConfig, generate_abilene_dataset
from repro.faults import FailingSink, corrupt_checkpoint
from repro.service import AlertDispatcher, EventStore
from repro.streaming import (StreamingConfig, StreamingNetworkDetector,
                             chunk_series, load_checkpoint, save_checkpoint)
from repro.streaming.checkpoint import QUARANTINE_DIRNAME
from repro.streaming.hierarchy import HierarchicalNetworkDetector
from repro.telemetry import (HealthSnapshot, MetricsRegistry,
                             prometheus_exposition)

CHUNK = 48
SEED = 11


@pytest.fixture(scope="module")
def dataset():
    return generate_abilene_dataset(DatasetConfig(weeks=2.0 / 7.0), seed=SEED)


def _preserve_quarantine(checkpoint_dir):
    """Copy quarantined files into CHAOS_ARTIFACT_DIR when CI asks."""
    artifact_dir = os.environ.get("CHAOS_ARTIFACT_DIR", "")
    quarantine = os.path.join(str(checkpoint_dir), QUARANTINE_DIRNAME)
    if artifact_dir and os.path.isdir(quarantine):
        target = os.path.join(artifact_dir,
                              os.path.basename(str(checkpoint_dir)))
        shutil.copytree(quarantine, target, dirs_exist_ok=True)


def _service_args(store, checkpoint=None, *extra):
    args = [sys.executable, "-m", "repro.service", "--store", str(store),
            "--days", "3"]
    if checkpoint is not None:
        args += ["--checkpoint", str(checkpoint)]
    return args + list(extra)


def _service_env():
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH", "")]))
    return env


def _final_json(stdout):
    """The service's last stdout line is its result summary."""
    return json.loads(stdout.strip().splitlines()[-1])


class TestServiceKill:
    def test_sigkilled_service_restarts_to_identical_table(self, tmp_path):
        env = _service_env()
        store = tmp_path / "events.sqlite"
        checkpoint = tmp_path / "ckpt"
        process = subprocess.Popen(
            _service_args(store, checkpoint, "--checkpoint-every-chunks",
                          "3", "--chunk-sleep", "0.2"),
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        try:
            # Kill only once the second periodic checkpoint is on disk, so
            # the restart resumes mid-stream from the checkpoint chain.
            deadline = time.monotonic() + 120
            while not (checkpoint / "manifest-000002.json").exists():
                assert process.poll() is None, process.communicate()
                assert time.monotonic() < deadline, "no second checkpoint"
                time.sleep(0.01)
            assert process.poll() is None, "the run finished before the kill"
            process.send_signal(signal.SIGKILL)
            stdout, _ = process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == -signal.SIGKILL
        assert "table_digest" not in stdout  # killed before its summary

        resumed = subprocess.run(_service_args(store, checkpoint), env=env,
                                 capture_output=True, text=True, timeout=300)
        assert resumed.returncode == 0, resumed.stderr
        resume_bin = int(resumed.stdout.split("resume_bin=")[1].split()[0])
        assert resume_bin > 0  # restored from the chain, not started over
        result = _final_json(resumed.stdout)
        assert not result["interrupted"]

        reference = subprocess.run(
            _service_args(tmp_path / "reference.sqlite"), env=env,
            capture_output=True, text=True, timeout=300)
        assert reference.returncode == 0, reference.stderr
        assert (result["table_digest"]
                == _final_json(reference.stdout)["table_digest"])


class TestCheckpointCorruption:
    def _run_to_store(self, series, store, detector, first_chunk=0,
                      checkpoint_dir=None, checkpoint_every=None,
                      crash_after=None):
        """Feed chunks into *detector*, persisting closed events to *store*."""
        detector.on_events = lambda events: store.add_events(events)
        start_bin = detector.report.n_bins_processed
        for index, chunk in enumerate(chunk_series(
                series.window(start_bin, series.n_bins), CHUNK,
                start_bin=start_bin), start=first_chunk):
            detector.process_chunk(chunk)
            if (checkpoint_every is not None
                    and (index + 1) % checkpoint_every == 0):
                save_checkpoint(detector, checkpoint_dir)
            if crash_after is not None and index >= crash_after:
                return  # simulated crash: no finish(), no final checkpoint
        detector.finish()

    def test_truncated_generation_falls_back_to_byte_identical_table(
            self, dataset, tmp_path):
        config = StreamingConfig(min_train_bins=128,
                                 recalibrate_every_bins=32)
        reference_store = EventStore()
        self._run_to_store(dataset.series, reference_store,
                           StreamingNetworkDetector(config))
        reference_digest = reference_store.table_digest()

        checkpoint_dir = tmp_path / "ckpt"
        store = EventStore(tmp_path / "events.sqlite")
        self._run_to_store(dataset.series, store,
                           StreamingNetworkDetector(config),
                           checkpoint_dir=checkpoint_dir, checkpoint_every=2,
                           crash_after=7)
        # Torn write: the newest generation's arrays are cut in half.
        corrupt_checkpoint(checkpoint_dir, mode="truncate")

        registry = MetricsRegistry()
        restored = load_checkpoint(checkpoint_dir, fallback=True,
                                   registry=registry)
        _preserve_quarantine(checkpoint_dir)
        assert registry.value("checkpoint_fallbacks") == 1
        assert registry.value("checkpoints_quarantined") >= 1
        # Quarantined, not deleted: the corrupt evidence is preserved.
        quarantine = checkpoint_dir / QUARANTINE_DIRNAME
        assert any(quarantine.iterdir())
        # The restored run replays the suffix; the idempotent store absorbs
        # re-emitted events, ending byte-identical to the clean run.
        resume_chunk = restored.report.n_chunks_processed
        self._run_to_store(dataset.series, store, restored,
                           first_chunk=resume_chunk)
        assert store.table_digest() == reference_digest
        snapshot = HealthSnapshot.from_registry(registry)
        assert snapshot.checkpoint_fallbacks == 1
        assert snapshot.checkpoints_quarantined >= 1
        store.close()
        reference_store.close()

    def test_bitflip_damage_is_seed_deterministic(self, dataset, tmp_path):
        config = StreamingConfig(min_train_bins=128,
                                 recalibrate_every_bins=32)
        damaged = []
        for attempt in ("a", "b"):
            directory = tmp_path / attempt
            detector = StreamingNetworkDetector(config)
            for chunk in chunk_series(dataset.series.window(0, 4 * CHUNK),
                                      CHUNK):
                detector.process_chunk(chunk)
            save_checkpoint(detector, directory)
            (victim,) = corrupt_checkpoint(directory, mode="bitflip",
                                           seed=1234)
            with open(victim, "rb") as handle:
                damaged.append(handle.read())
        assert damaged[0] == damaged[1]


class TestLeafQuarantine:
    def test_silent_leaf_reports_healthy_subhierarchy_events(self, dataset):
        config = StreamingConfig(min_train_bins=128,
                                 recalibrate_every_bins=32, telemetry=True)
        chunks = list(chunk_series(dataset.series, CHUNK))
        healthy = [c for i, c in enumerate(chunks) if i % 2 == 0]
        # Flat reference over exactly the healthy pop's chunks.
        flat = StreamingNetworkDetector(
            StreamingConfig(min_train_bins=128, recalibrate_every_bins=32))
        for chunk in healthy:
            flat.process_chunk(chunk)
        flat_report = flat.finish()

        hierarchy = HierarchicalNetworkDetector(
            config, n_pops=2, leaf_deadline_bins=2 * CHUNK)
        for chunk in healthy:
            hierarchy.process_chunk(chunk, pop=0)  # pop 1 stays silent
        report = hierarchy.finish()

        assert hierarchy.quarantined_pops == frozenset({1})
        assert hierarchy.coverage == 0.5
        assert report.events == flat_report.events
        registry = hierarchy.telemetry.registry
        assert registry.value("leaf_quarantines") == 1
        assert registry.value("quarantined_leaves") == 1.0
        assert registry.value("hierarchy_coverage") == 0.5
        snapshot = HealthSnapshot.from_registry(registry)
        assert snapshot.quarantined_leaves == 1
        assert snapshot.coverage == 0.5
        assert ("repro_hierarchy_coverage 0.5"
                in prometheus_exposition(registry))

    def test_reintegration_restores_full_parity(self, dataset):
        config = StreamingConfig(min_train_bins=128,
                                 recalibrate_every_bins=32)
        chunks = list(chunk_series(dataset.series, CHUNK))
        reference = HierarchicalNetworkDetector(config, n_pops=2)
        for chunk in chunks:
            reference.process_chunk(chunk)
        reference_report = reference.finish()

        disturbed = HierarchicalNetworkDetector(config, n_pops=2)
        for index, chunk in enumerate(chunks):
            if index == 1:
                disturbed.quarantine_leaf(1)
                assert disturbed.coverage == 0.5
            # Round-robin routing sends chunk 1 to pop 1, whose arrival
            # auto-reintegrates the quarantined leaf via the exact merge.
            disturbed.process_chunk(chunk)
        report = disturbed.finish()

        assert disturbed.quarantined_pops == frozenset()
        assert disturbed.coverage == 1.0
        assert report.events == reference_report.events


class TestAlertChannelDown:
    def test_failing_sink_dead_letters_but_run_completes(self, dataset,
                                                         tmp_path):
        config = StreamingConfig(min_train_bins=128,
                                 recalibrate_every_bins=32)
        sink = FailingSink()
        registry = MetricsRegistry()
        dispatcher = AlertDispatcher(
            [sink], registry=registry, max_attempts=2,
            sleep=lambda seconds: None,
            dead_letter_path=str(tmp_path / "dead.jsonl"))
        store = EventStore()
        detector = StreamingNetworkDetector(config)
        detector.on_events = lambda events: dispatcher.dispatch_many(
            store.add_events(events))
        for chunk in chunk_series(dataset.series, CHUNK):
            detector.process_chunk(chunk)
        report = detector.finish()

        assert report.n_events > 0
        assert store.count() == report.n_events
        assert registry.value("alerts_dead_lettered",
                              {"sink": "failing"}) == report.n_events
        assert (tmp_path / "dead.jsonl").exists()
        store.close()
