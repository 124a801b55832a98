"""Chaos harness: seeded faults the in-process oracle cannot reach.

Every case is deterministic under fixed seeds:

1. **Service kill** — the service CLI (``python -m repro.service``)
   SIGKILLed mid-stream, after its second periodic checkpoint, is
   restarted from its checkpoint chain, and the store ends with the
   **byte-identical** ``table_digest()`` of an uninterrupted run.
2. **Bit rot** — ``corrupt_checkpoint(mode="bitflip")`` damages the same
   bytes under the same seed.
3. **Alert channel down** — a sink that always fails dead-letters every
   alert while the detection run completes.

The parity-under-failure cells — a truncated checkpoint generation
restored through the fallback chain, a silent leaf quarantined at its
watermark deadline, a quarantined leaf reintegrated — are rows of the
driver oracle (``tests/test_driver_oracle.py``: the ``service_corrupt``,
``leaf_outage`` and ``leaf_reintegrated`` drivers), which the CI ``chaos``
job runs next to this file.
"""

import json
import os
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
                             chunk_series, save_checkpoint)
from repro.telemetry import MetricsRegistry

CHUNK = 48
SEED = 11


@pytest.fixture(scope="module")
def dataset():
    return generate_abilene_dataset(DatasetConfig(weeks=2.0 / 7.0), seed=SEED)


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

        def handle(events):
            for event in store.add_events(events):
                dispatcher.dispatch(event)

        detector.on_events = handle
        for chunk in chunk_series(dataset.series, CHUNK):
            detector.process_chunk(chunk)
        report = detector.finish()

        assert report.n_events > 0
        assert store.count() == report.n_events
        assert registry.value("alerts_dead_lettered",
                              {"sink": "failing"}) == report.n_events
        assert (tmp_path / "dead.jsonl").exists()
        store.close()
