"""Streaming checkpoints: the on-disk format, lineage and fallback chain.

That a detector checkpointed mid-stream restores bit-for-bit and emits the
**identical** remaining events (including runs that span the checkpoint
boundary, and after a fallback to an older generation) is proven by the
restart drivers of ``tests/test_driver_oracle.py``.  This module covers the
format itself: files and manifests, old manifests, errors, lineage and the
generation chain.
"""

import dataclasses
import json
import re

import numpy as np
import pytest

from repro.core.events import Detection
from repro.flows.timeseries import TrafficType
from repro.streaming import (
    CHECKPOINT_FORMAT_VERSION,
    OnlineEventAggregator,
    StreamingConfig,
    StreamingNetworkDetector,
    chunk_series,
    load_checkpoint,
    save_checkpoint,
)
from repro.streaming import has_checkpoint
from repro.streaming.checkpoint import (ARRAYS_FILENAME_PREFIX,
                                        MANIFEST_FILENAME,
                                        QUARANTINE_DIRNAME,
                                        newest_generation)
from repro.telemetry import MetricsRegistry

CHUNK = 48


@pytest.fixture(scope="module")
def live_config():
    return StreamingConfig(min_train_bins=128, recalibrate_every_bins=32)


def _chunks(dataset):
    return list(chunk_series(dataset.series, CHUNK))


class TestCheckpointRoundtrip:
    def test_manifest_and_arrays_on_disk(self, small_dataset, live_config,
                                         tmp_path):
        detector = StreamingNetworkDetector(live_config)
        for chunk in _chunks(small_dataset)[:4]:
            detector.process_chunk(chunk)
        path = save_checkpoint(detector, tmp_path / "ckpt")
        assert (path / MANIFEST_FILENAME).is_file()
        manifest = json.loads((path / MANIFEST_FILENAME).read_text())
        assert manifest["format_version"] == CHECKPOINT_FORMAT_VERSION
        assert manifest["arrays_file"].startswith(ARRAYS_FILENAME_PREFIX)
        assert (path / manifest["arrays_file"]).is_file()
        assert manifest["meta"]["config"]["n_normal"] == live_config.n_normal
        # One engine per traffic type, plus snapshots once warmed up.
        assert set(manifest["meta"]["detectors"]) == \
            {t.value for t in small_dataset.series.traffic_types}
        with np.load(path / manifest["arrays_file"]) as arrays:
            assert sorted(arrays.files) == manifest["array_names"]

    def _saved(self, small_dataset, live_config, path, n_chunks=6):
        detector = StreamingNetworkDetector(live_config)
        for chunk in _chunks(small_dataset)[:n_chunks]:
            detector.process_chunk(chunk)
        path = save_checkpoint(detector, path)
        manifest = json.loads((path / MANIFEST_FILENAME).read_text())
        return path, manifest, detector

    def test_manifest_with_retired_config_keys_restores(
            self, small_dataset, live_config, tmp_path):
        # Manifests written before the column-shard count, the parallel
        # mode, shard mode's bus/poll knobs, the hierarchy's default PoP
        # count, the moment-engine switch with its low-rank knobs, the
        # identification cap, the span-sampling seed and the adaptive
        # policy's knobs left StreamingConfig still carry those keys; they
        # restore the saved state bit for bit and the identical remaining
        # events.
        path, manifest, detector = self._saved(small_dataset, live_config,
                                               tmp_path / "ckpt")
        manifest["meta"]["config"].update(
            n_shards=1, parallel_mode="type", bus_slots=8, poll_seconds=1.0,
            n_pops=2, engine="exact", rank_slack=8, drift_tolerance=1e-10,
            max_identified_flows=16, telemetry_seed=0,
            adaptive_warmup_bins=64, adaptive_smoothing=0.25,
            adaptive_max_drift=0.05, adaptive_block_bins=32,
            adaptive_freeze_factor=4.0)
        (path / MANIFEST_FILENAME).write_text(json.dumps(manifest))

        restored = load_checkpoint(path)
        assert restored.config == live_config
        ours, theirs = restored.state_dict(), detector.state_dict()
        assert ours["meta"] == theirs["meta"]
        assert sorted(ours["arrays"]) == sorted(theirs["arrays"])
        for name, array in theirs["arrays"].items():
            np.testing.assert_array_equal(ours["arrays"][name], array)
        for chunk in _chunks(small_dataset)[6:]:
            restored.process_chunk(chunk)
            detector.process_chunk(chunk)
        assert restored.finish().events == detector.finish().events

    def test_manifest_without_a_position_resumes_at_bins_processed(
            self, small_dataset, live_config, tmp_path):
        # Manifests written before the stream position was checkpointed
        # resume after the bins processed.
        path, manifest, _ = self._saved(small_dataset, live_config,
                                        tmp_path / "ckpt", n_chunks=3)
        assert manifest["meta"].pop("position") == [3 * CHUNK, 3 * CHUNK, 0]
        (path / MANIFEST_FILENAME).write_text(json.dumps(manifest))
        assert load_checkpoint(path).resume_bin == 3 * CHUNK

    def test_sharded_engine_kind_is_rejected(
            self, small_dataset, live_config, tmp_path):
        path, manifest, _ = self._saved(small_dataset, live_config,
                                        tmp_path / "ckpt")
        engine = manifest["meta"]["detectors"]["bytes"]["engine"]
        engine["kind"] = "sharded_online_pca"
        (path / MANIFEST_FILENAME).write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="unknown engine kind"):
            load_checkpoint(path)

    def test_low_rank_engine_kind_names_the_removed_engine(
            self, small_dataset, live_config, tmp_path):
        path, manifest, _ = self._saved(small_dataset, live_config,
                                        tmp_path / "ckpt")
        manifest["meta"]["config"].update(engine="lowrank", rank_slack=8,
                                          drift_tolerance=1e-10)
        manifest["meta"]["detectors"]["bytes"]["engine"]["kind"] = (
            "low_rank_eigen")
        (path / MANIFEST_FILENAME).write_text(json.dumps(manifest))
        with pytest.raises(ValueError,
                           match="low-rank eigenbasis tracker was removed"):
            load_checkpoint(path)


#: Retired config fields with a value an old manifest may carry.
RETIRED = [("engine", "lowrank"), ("rank_slack", 8),
           ("drift_tolerance", 1e-10), ("max_identified_flows", 3),
           ("telemetry_seed", 9), ("adaptive_warmup_bins", 7),
           ("adaptive_smoothing", 0.3), ("adaptive_max_drift", 0.0),
           ("adaptive_block_bins", 9), ("adaptive_freeze_factor", 3.0)]


class TestRetiredConfigFields:
    """The moment-engine switch, the removed low-rank engine's two knobs
    and seven knobs no caller set are gone from the config but stay
    readable in old manifests."""

    def test_config_has_fifteen_fields(self):
        assert len(StreamingConfig().to_dict()) == 15

    def test_docstring_documents_exactly_the_fields(self):
        block = StreamingConfig.__doc__.split("----------\n", 1)[1]
        documented = re.findall(r"^    (\w+):$", block, flags=re.MULTILINE)
        assert documented == [f.name for f in dataclasses.fields(
            StreamingConfig)]

    @pytest.mark.parametrize("field,value", RETIRED)
    def test_from_dict_drops_the_retired_field(self, field, value):
        config = StreamingConfig(min_train_bins=64, forgetting=0.99)
        data = dict(config.to_dict(), **{field: value})
        assert StreamingConfig.from_dict(data) == config

    @pytest.mark.parametrize("field,value", RETIRED)
    def test_retired_field_is_no_longer_an_option(self, field, value):
        assert field not in StreamingConfig().to_dict()
        with pytest.raises(TypeError, match=field):
            StreamingConfig(**{field: value})


class TestAggregatorStateAcrossBoundary:
    def _detection(self, bin_index, traffic_type=TrafficType.BYTES):
        return Detection(traffic_type=traffic_type, bin_index=bin_index,
                         od_flows=(3, 5))

    def test_open_run_survives_roundtrip(self):
        aggregator = OnlineEventAggregator()
        for b in (10, 11, 12):
            aggregator.add(self._detection(b))
        aggregator.advance(12)  # run 10-12 still open at the watermark

        restored = OnlineEventAggregator.from_state(aggregator.state_dict())
        assert restored.watermark == 12
        assert restored.has_open_run
        restored.add(self._detection(13))
        events = restored.advance(14)  # bin 14 empty -> run closes
        events.extend(restored.flush())
        assert [e.bins for e in events] == [(10, 11, 12, 13)]

    def test_pending_bins_survive_roundtrip(self):
        aggregator = OnlineEventAggregator()
        aggregator.add(self._detection(7))
        aggregator.add(self._detection(7, TrafficType.FLOWS))
        aggregator.add(self._detection(9))
        state = aggregator.state_dict()
        assert set(state["pending"]) == {"7", "9"}

        restored = OnlineEventAggregator.from_state(state)
        assert restored.n_pending_bins == 2
        events = restored.advance(10)
        assert [e.traffic_label for e in events] == ["BF", "B"]
        assert events[0].od_flows == frozenset({3, 5})

    def test_roundtrip_equals_uninterrupted_aggregation(self):
        detections = [self._detection(b) for b in (3, 4, 8, 9, 10, 15)]
        straight = OnlineEventAggregator()
        straight.add_many(detections)
        expected = straight.flush()

        closed = []
        first = OnlineEventAggregator()
        first.add_many([d for d in detections if d.bin_index <= 8])
        closed.extend(first.advance(8))  # run (8,) is open at the boundary
        second = OnlineEventAggregator.from_state(first.state_dict())
        second.add_many([d for d in detections if d.bin_index > 8])
        closed.extend(second.flush())
        assert closed == expected


class TestCheckpointErrors:
    def test_missing_files(self, tmp_path):
        with pytest.raises(ValueError):
            load_checkpoint(tmp_path / "nowhere")

    def test_version_mismatch(self, small_dataset, live_config, tmp_path):
        detector = StreamingNetworkDetector(live_config)
        detector.process_chunk(_chunks(small_dataset)[0])
        path = save_checkpoint(detector, tmp_path / "ckpt")
        manifest = json.loads((path / MANIFEST_FILENAME).read_text())
        manifest["format_version"] = 999
        (path / MANIFEST_FILENAME).write_text(json.dumps(manifest))
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_truncated_arrays_detected(self, small_dataset, live_config,
                                       tmp_path):
        detector = StreamingNetworkDetector(live_config)
        detector.process_chunk(_chunks(small_dataset)[0])
        path = save_checkpoint(detector, tmp_path / "ckpt")
        manifest = json.loads((path / MANIFEST_FILENAME).read_text())
        state = detector.state_dict()
        dropped = dict(state["arrays"])
        dropped.pop(sorted(dropped)[0])
        np.savez(path / manifest["arrays_file"], **dropped)
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_interrupted_overwrite_keeps_previous_checkpoint(
            self, small_dataset, live_config, tmp_path):
        """A crash before the manifest replace must not lose the old save."""
        chunks = _chunks(small_dataset)
        detector = StreamingNetworkDetector(live_config)
        for chunk in chunks[:3]:
            detector.process_chunk(chunk)
        path = save_checkpoint(detector, tmp_path / "ckpt")
        bins_at_save = detector.report.n_bins_processed

        # Simulate a second save dying between the arrays landing and the
        # manifest replace: a new content-addressed npz exists, but the
        # manifest still references (and checksums) the old one.
        detector.process_chunk(chunks[3])
        orphan = detector.state_dict()["arrays"]
        np.savez(path / (ARRAYS_FILENAME_PREFIX + "deadbeef.npz"), **orphan)

        restored = load_checkpoint(path)
        assert restored.report.n_bins_processed == bins_at_save


class TestCheckpointLineage:
    """A checkpoint directory belongs to one detector run: overwriting a
    foreign run's checkpoint (and GCing its arrays) must be refused."""

    def _trained(self, small_dataset, live_config, n_chunks=2):
        detector = StreamingNetworkDetector(live_config)
        for chunk in _chunks(small_dataset)[:n_chunks]:
            detector.process_chunk(chunk)
        return detector

    def test_manifest_records_the_run_id(self, small_dataset, live_config,
                                         tmp_path):
        detector = self._trained(small_dataset, live_config)
        path = save_checkpoint(detector, tmp_path / "ckpt")
        manifest = json.loads((path / MANIFEST_FILENAME).read_text())
        assert manifest["meta"]["run_id"] == detector.run_id

    def test_foreign_detector_is_refused(self, small_dataset, live_config,
                                         tmp_path):
        owner = self._trained(small_dataset, live_config)
        save_checkpoint(owner, tmp_path / "ckpt")
        arrays_before = sorted(
            p.name for p in (tmp_path / "ckpt").glob("state-*.npz"))

        intruder = self._trained(small_dataset, live_config)
        with pytest.raises(ValueError, match="different detector run"):
            save_checkpoint(intruder, tmp_path / "ckpt")
        # The owner's checkpoint survived untouched and still loads.
        arrays_after = sorted(
            p.name for p in (tmp_path / "ckpt").glob("state-*.npz"))
        assert arrays_after == arrays_before
        assert load_checkpoint(tmp_path / "ckpt").run_id == owner.run_id

    def test_same_detector_may_overwrite(self, small_dataset, live_config,
                                         tmp_path):
        chunks = _chunks(small_dataset)
        detector = StreamingNetworkDetector(live_config)
        detector.process_chunk(chunks[0])
        save_checkpoint(detector, tmp_path / "ckpt")
        detector.process_chunk(chunks[1])
        save_checkpoint(detector, tmp_path / "ckpt")  # no refusal
        restored = load_checkpoint(tmp_path / "ckpt")
        assert restored.report.n_bins_processed == 2 * CHUNK

    def test_restored_detector_continues_the_lineage(self, small_dataset,
                                                     live_config, tmp_path):
        chunks = _chunks(small_dataset)
        original = self._trained(small_dataset, live_config)
        save_checkpoint(original, tmp_path / "ckpt")

        restored = StreamingNetworkDetector.restore(tmp_path / "ckpt")
        assert restored.run_id == original.run_id
        restored.process_chunk(chunks[2])
        save_checkpoint(restored, tmp_path / "ckpt")  # same run: allowed

    def test_legacy_manifest_without_run_id_stays_overwritable(
            self, small_dataset, live_config, tmp_path):
        owner = self._trained(small_dataset, live_config)
        path = save_checkpoint(owner, tmp_path / "ckpt")
        manifest = json.loads((path / MANIFEST_FILENAME).read_text())
        del manifest["meta"]["run_id"]  # pre-lineage format
        (path / MANIFEST_FILENAME).write_text(json.dumps(manifest))

        other = self._trained(small_dataset, live_config)
        save_checkpoint(other, path)  # compatibility: no refusal
        assert load_checkpoint(path).run_id == other.run_id

    def test_unreadable_manifest_is_overwritable(self, small_dataset,
                                                 live_config, tmp_path):
        (tmp_path / "ckpt").mkdir()
        (tmp_path / "ckpt" / MANIFEST_FILENAME).write_text("{corrupt")
        detector = self._trained(small_dataset, live_config)
        save_checkpoint(detector, tmp_path / "ckpt")
        assert load_checkpoint(tmp_path / "ckpt").run_id == detector.run_id

    def test_hierarchical_saves_keep_one_lineage(self, small_dataset,
                                                 live_config, tmp_path):
        """A hierarchical save writes the merged flat state; the
        checkpoint must carry the hierarchy's own stable id, so its
        repeated saves pass the lineage check."""
        from repro.streaming.hierarchy import HierarchicalNetworkDetector

        chunks = _chunks(small_dataset)
        hierarchy = HierarchicalNetworkDetector(live_config, n_pops=2)
        hierarchy.process_chunk(chunks[0])
        path = save_checkpoint(hierarchy, tmp_path / "ckpt")
        manifest = json.loads((path / MANIFEST_FILENAME).read_text())
        assert manifest["meta"]["run_id"] == hierarchy.run_id

        hierarchy.process_chunk(chunks[1])
        save_checkpoint(hierarchy, path)  # same hierarchy: allowed

        foreign = self._trained(small_dataset, live_config, n_chunks=1)
        with pytest.raises(ValueError, match="different detector run"):
            save_checkpoint(foreign, path)


class TestManifestLayout:
    """Each save encodes its manifest once and writes the same bytes to
    the generation and current manifests; manifests written in the older
    indented layout still restore and pass the lineage and generation
    checks."""

    def _run(self, small_dataset, live_config, directory, saves=(2, 3)):
        detector = StreamingNetworkDetector(live_config)
        for index, chunk in enumerate(_chunks(small_dataset)[:max(saves)],
                                      start=1):
            detector.process_chunk(chunk)
            if index in saves:
                save_checkpoint(detector, directory)
        return detector

    def test_one_save_writes_byte_identical_manifests(
            self, small_dataset, live_config, tmp_path):
        directory = tmp_path / "ckpt"
        self._run(small_dataset, live_config, directory)
        current = (directory / MANIFEST_FILENAME).read_bytes()
        newest = directory / f"manifest-{newest_generation(directory):06d}.json"
        assert newest.read_bytes() == current
        assert current.endswith(b"\n") and current.count(b"\n") == 1

    def test_indented_manifests_restore_and_keep_lineage(
            self, small_dataset, live_config, tmp_path):
        directory = tmp_path / "ckpt"
        original = self._run(small_dataset, live_config, directory)
        manifests = sorted(directory.glob("manifest*.json"))
        assert len(manifests) == 3  # current + two generations
        for manifest_path in manifests:
            manifest = json.loads(manifest_path.read_text())
            with open(manifest_path, "w", encoding="utf-8") as handle:
                json.dump(manifest, handle, indent=2, sort_keys=True)
                handle.write("\n")

        restored = load_checkpoint(directory)
        assert restored.run_id == original.run_id
        assert restored.report.to_dict() == original.report.to_dict()
        assert load_checkpoint(directory, fallback=True).run_id \
            == original.run_id

        # Lineage check: a foreign run is still refused...
        foreign = StreamingNetworkDetector(live_config)
        foreign.process_chunk(_chunks(small_dataset)[0])
        with pytest.raises(ValueError, match="different detector run"):
            save_checkpoint(foreign, directory)
        # ...and the owning run continues the generation chain.
        assert newest_generation(directory) == 2
        restored.process_chunk(_chunks(small_dataset)[3])
        save_checkpoint(restored, directory)
        assert newest_generation(directory) == 3
        assert load_checkpoint(directory).report.n_bins_processed \
            == 4 * CHUNK


class TestGenerationsAndFallback:
    """Fallback chains: keep N verified generations, walk back past rot."""

    def _save_n(self, dataset, config, directory, n_saves,
                keep_generations=3):
        detector = StreamingNetworkDetector(config)
        chunks = _chunks(dataset)
        per_save = max(1, len(chunks) // (n_saves + 1))
        for index, chunk in enumerate(chunks[:n_saves * per_save], start=1):
            detector.process_chunk(chunk)
            if index % per_save == 0:
                save_checkpoint(detector, directory,
                                keep_generations=keep_generations)
        return detector

    def test_save_keeps_last_n_generations(self, small_dataset, live_config,
                                           tmp_path):
        directory = tmp_path / "ckpt"
        self._save_n(small_dataset, live_config, directory, n_saves=5,
                     keep_generations=3)
        generation_manifests = sorted(directory.glob("manifest-*.json"))
        assert len(generation_manifests) == 3
        assert newest_generation(directory) == 5
        # Each retained generation's arrays file is still on disk; no
        # orphaned npz files from dropped generations linger.
        referenced = {
            json.loads(path.read_text())["arrays_file"]
            for path in generation_manifests}
        on_disk = {path.name
                   for path in directory.glob(ARRAYS_FILENAME_PREFIX + "*")}
        assert referenced <= on_disk
        assert len(on_disk) <= 3

    def test_fallback_restores_previous_generation(self, small_dataset,
                                                   live_config, tmp_path):
        directory = tmp_path / "ckpt"
        self._save_n(small_dataset, live_config, directory, n_saves=3)
        newest = json.loads(
            (directory / MANIFEST_FILENAME).read_text())
        # Bit-rot the newest arrays payload.
        victim = directory / newest["arrays_file"]
        payload = bytearray(victim.read_bytes())
        payload[len(payload) // 2] ^= 0xFF
        victim.write_bytes(bytes(payload))

        with pytest.raises(ValueError):
            load_checkpoint(directory)  # strict load still fails fast
        registry = MetricsRegistry()
        restored = load_checkpoint(directory, fallback=True,
                                   registry=registry)
        assert (restored.report.n_bins_processed
                < newest["meta"]["report"]["n_bins_processed"])
        assert registry.value("checkpoint_fallbacks") == 1
        assert registry.value("checkpoints_quarantined") >= 1

    def test_fallback_quarantines_instead_of_deleting(self, small_dataset,
                                                      live_config, tmp_path):
        directory = tmp_path / "ckpt"
        self._save_n(small_dataset, live_config, directory, n_saves=2)
        manifest = json.loads((directory / MANIFEST_FILENAME).read_text())
        victim = directory / manifest["arrays_file"]
        original_bytes = victim.read_bytes()
        victim.write_bytes(original_bytes[:len(original_bytes) // 2])
        load_checkpoint(directory, fallback=True)
        quarantine = directory / QUARANTINE_DIRNAME
        quarantined = list(quarantine.iterdir())
        assert quarantined, "corrupt files must be preserved in quarantine"
        assert any(manifest["arrays_file"] in path.name
                   for path in quarantined)
        # Subsequent saves ignore the quarantine directory entirely.
        detector = load_checkpoint(directory, fallback=True)
        save_checkpoint(detector, directory)
        assert set(quarantine.iterdir()) == set(quarantined)

    def test_fallback_with_everything_corrupt_raises(self, small_dataset,
                                                     live_config, tmp_path):
        directory = tmp_path / "ckpt"
        self._save_n(small_dataset, live_config, directory, n_saves=2)
        for manifest_path in list(directory.glob("manifest*.json")):
            manifest_path.write_text("{ torn", encoding="utf-8")
        with pytest.raises(ValueError, match="every candidate failed"):
            load_checkpoint(directory, fallback=True)

    def test_has_checkpoint(self, small_dataset, live_config, tmp_path):
        directory = tmp_path / "ckpt"
        assert has_checkpoint(directory) is False
        self._save_n(small_dataset, live_config, directory, n_saves=1)
        assert has_checkpoint(directory) is True
        # A directory holding only generation manifests still counts.
        (directory / MANIFEST_FILENAME).unlink()
        assert has_checkpoint(directory) is True
