"""Unit + property tests of the telemetry plane (registry/tracer/health).

The registry's merge is the cross-process fold the distributed drivers
rely on, so it gets the same algebraic treatment as the moment algebra in
``test_streaming_properties.py``: seeded randomized registries, merged in
every order/grouping, must agree bit-for-bit: in any grouping for every
kind, and in any order for the order-independent kinds (counters and
histograms; a gauge keeps the side merged in last).
"""

import json

import numpy as np
import pytest

from repro.telemetry import (
    HealthSnapshot,
    ListSink,
    MetricsRegistry,
    Telemetry,
    Tracer,
    prometheus_exposition,
    render_status_table,
)

#: Number of randomized draws per property (seeded, so deterministic).
N_TRIALS = 10

_NAMES = ("bins_processed", "events", "stage_seconds", "recalibrations",
          "lag")
_LABELS = (None, {"type": "bytes"}, {"type": "flows"},
           {"stage": "detect"}, {"stage": "recalibrate"})


def _dyadic(rng, low, high):
    """A random multiple of 1/8 — sums of these are exact in float64, so
    the algebra properties can be asserted bitwise."""
    return float(rng.integers(low * 8, high * 8)) / 8.0


def _random_registry(rng, gauges=True):
    """A registry with random counters/gauges/histograms over a name pool
    (*gauges* off: counters and histograms only)."""
    registry = MetricsRegistry()
    for _ in range(int(rng.integers(1, 12))):
        name = str(rng.choice(_NAMES))
        labels = _LABELS[int(rng.integers(len(_LABELS)))]
        kind = int(rng.integers(3))
        if kind == 0:
            registry.counter("c_" + name, labels).inc(_dyadic(rng, 0, 9))
        elif kind == 1 and gauges:
            registry.gauge("g_" + name, labels).set(_dyadic(rng, -5, 5))
        else:
            histogram = registry.histogram("h_" + name, labels)
            for _ in range(int(rng.integers(1, 20))):
                histogram.observe(_dyadic(rng, 0, 10))
    return registry


def _copy(registry):
    return MetricsRegistry.from_dict(registry.to_dict())


class TestRegistryBasics:
    def test_counter_only_increases(self):
        registry = MetricsRegistry()
        counter = registry.counter("bins")
        counter.inc(3)
        counter.inc(0.5)
        assert registry.value("bins") == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_metric_identity_is_name_plus_labels(self):
        registry = MetricsRegistry()
        registry.counter("events", {"type": "B"}).inc()
        registry.counter("events", {"type": "F"}).inc(2)
        assert registry.value("events", {"type": "B"}) == 1
        assert registry.value("events", {"type": "F"}) == 2
        assert len(registry.labeled("events")) == 2

    def test_schema_conflicts_are_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")
        registry.histogram("h", bounds=(1.0, 2.0))
        with pytest.raises(ValueError):
            registry.histogram("h", bounds=(1.0, 3.0))

    def test_gauge_merge_keeps_the_merged_in_value(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.gauge("g").set(2.0)
        b.gauge("g").set(5.0)
        a.merge(b)
        assert a.value("g") == 5.0
        assert a.get("g").n_sets == 2

    def test_unset_gauge_contributes_nothing(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.gauge("g").set(4.0)
        b.gauge("g")  # registered but never set
        a.merge(b)
        assert a.value("g") == 4.0

    def test_gauge_mode_entries_still_load(self):
        """Snapshots and checkpoints written while gauges had merge modes
        carry a ``"mode"`` entry per gauge; it is ignored."""
        registry = MetricsRegistry()
        registry.gauge("lag", {"pop": "0"}).set(3.0)
        data = json.loads(json.dumps(registry.to_dict()))
        for entry in data["metrics"]:
            assert "mode" not in entry
            entry["mode"] = "max"
        loaded = MetricsRegistry.from_dict(data)
        assert loaded.value("lag", {"pop": "0"}) == 3.0
        assert loaded.to_dict() == registry.to_dict()

    def test_histogram_buckets_and_quantile(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 1.7, 3.0, 100.0):
            histogram.observe(value)
        assert histogram.counts == [1, 2, 1, 1]  # last = +Inf bucket
        assert histogram.count == 5
        assert histogram.mean == pytest.approx(106.7 / 5)
        assert histogram.quantile(0.5) == 2.0
        assert histogram.quantile(1.0) == 4.0  # overflow reports last edge

    def test_serialization_round_trip(self):
        rng = np.random.default_rng(20040701)
        for _ in range(N_TRIALS):
            registry = _random_registry(rng)
            payload = json.loads(json.dumps(registry.to_dict()))
            assert MetricsRegistry.from_dict(payload).to_dict() \
                == registry.to_dict()


class TestMergeAlgebra:
    """merge() is associative, and commutative for order-free kinds."""

    def test_merge_is_commutative(self):
        rng = np.random.default_rng(20040702)
        for _ in range(N_TRIALS):
            a = _random_registry(rng, gauges=False)
            b = _random_registry(rng, gauges=False)
            ab = _copy(a).merge(_copy(b)).to_dict()
            ba = _copy(b).merge(_copy(a)).to_dict()
            assert sorted(ab["metrics"], key=str) \
                == sorted(ba["metrics"], key=str)

    def test_merge_is_associative(self):
        rng = np.random.default_rng(20040703)
        for _ in range(N_TRIALS):
            a = _random_registry(rng)
            b = _random_registry(rng)
            c = _random_registry(rng)
            left = _copy(a).merge(_copy(b)).merge(_copy(c)).to_dict()
            right = _copy(a).merge(_copy(b).merge(_copy(c))).to_dict()
            assert left == right

    def test_merge_matches_single_stream(self):
        """K partial registries folded == one registry fed everything."""
        rng = np.random.default_rng(20040704)
        for _ in range(N_TRIALS):
            observations = rng.integers(
                0, 80, size=int(rng.integers(5, 40))) / 8.0
            n_parts = int(rng.integers(2, 5))
            whole = MetricsRegistry()
            parts = [MetricsRegistry() for _ in range(n_parts)]
            for i, value in enumerate(observations):
                whole.counter("n").inc()
                whole.histogram("h").observe(value)
                parts[i % n_parts].counter("n").inc()
                parts[i % n_parts].histogram("h").observe(value)
            folded = parts[0]
            for part in parts[1:]:
                folded.merge(part)
            assert folded.to_dict() == whole.to_dict()


class TestTracer:
    def test_sampling_is_deterministic_under_the_seed(self):
        def sampled_set(seed, rate, n=200):
            tracer = Tracer(sample_rate=rate, seed=seed)
            picks = [tracer.begin_chunk(i) for i in range(n)]
            tracer.end_chunk()
            return picks

        assert sampled_set(7, 0.3) == sampled_set(7, 0.3)
        assert sampled_set(7, 0.3) != sampled_set(8, 0.3)
        # Rates 0 and 1 short-circuit but keep chunk accounting exact.
        assert not any(sampled_set(7, 0.0))
        assert all(sampled_set(7, 1.0))

    def test_rate_bounds_sample_volume(self):
        tracer = Tracer(sample_rate=0.2, seed=3)
        for i in range(1000):
            tracer.begin_chunk(i)
        assert 120 <= tracer.n_chunks_sampled <= 280

    def test_histogram_always_fed_sink_only_when_sampled(self):
        registry = MetricsRegistry()
        sink = ListSink()
        tracer = Tracer(sample_rate=0.0, seed=0, registry=registry, sink=sink)
        tracer.begin_chunk(0)
        with tracer.span("detect"):
            pass
        tracer.end_chunk()
        histogram = registry.get("stage_seconds", {"stage": "detect"})
        assert histogram.count == 1
        assert sink.records == []  # unsampled chunk: no structured record

        tracer = Tracer(sample_rate=1.0, seed=0, registry=registry, sink=sink)
        tracer.begin_chunk(4)
        with tracer.span("detect"):
            pass
        tracer.end_chunk()
        assert [r["stage"] for r in sink.records] == ["detect"]
        assert sink.records[0]["chunk"] == 4

    def test_off_chunk_spans_always_emitted(self):
        sink = ListSink()
        tracer = Tracer(sample_rate=0.0, seed=0, sink=sink)
        with tracer.span("checkpoint"):
            pass
        assert [r["stage"] for r in sink.records] == ["checkpoint"]
        assert "chunk" not in sink.records[0]


class TestHealthSnapshot:
    def _populated_registry(self):
        registry = MetricsRegistry()
        registry.counter("bins_processed").inc(576)
        registry.counter("chunks_processed").inc(12)
        registry.counter("warmup_bins").inc(96)
        registry.gauge("runtime_seconds").set(2.0)
        registry.counter("events", {"type": "B"}).inc(3)
        registry.counter("events", {"type": "BF"}).inc(1)
        registry.counter("recalibrations", {"type": "bytes"}).inc(5)
        registry.counter("recalibrations", {"type": "flows"}).inc(5)
        registry.histogram("stage_seconds", {"stage": "detect"}).observe(0.01)
        return registry

    def test_headline_fields_from_registry(self):
        snapshot = HealthSnapshot.from_registry(self._populated_registry())
        assert snapshot.bins_processed == 576
        assert snapshot.chunks_processed == 12
        assert snapshot.warmup_bins == 96
        assert snapshot.bins_per_second == pytest.approx(288.0)
        assert snapshot.events_total == 4
        assert snapshot.events_by_type == {"B": 3, "BF": 1}
        assert snapshot.recalibrations == 10  # summed over the type labels
        assert snapshot.stage_seconds["detect"]["count"] == 1

    def test_write_read_round_trip(self, tmp_path):
        snapshot = HealthSnapshot.from_registry(self._populated_registry())
        path = tmp_path / "nested" / "health.json"
        snapshot.write(str(path))
        loaded = HealthSnapshot.read(str(path))
        assert loaded == snapshot
        assert loaded.registry().to_dict() \
            == self._populated_registry().to_dict()

    def test_status_table_renders_headlines(self):
        snapshot = HealthSnapshot.from_registry(self._populated_registry())
        table = render_status_table(snapshot)
        assert "bins processed     576" in table
        assert "recalibrations     10" in table
        assert "detect" in table


class TestPrometheusExposition:
    def test_counters_get_total_suffix_and_buckets_accumulate(self):
        registry = MetricsRegistry()
        registry.counter("bins_processed", help="Bins").inc(5)
        histogram = registry.histogram("stage_seconds", {"stage": "detect"},
                                       bounds=(1.0, 2.0))
        for value in (0.5, 1.5, 9.0):
            histogram.observe(value)
        text = prometheus_exposition(registry)
        assert "# HELP repro_bins_processed Bins" in text
        assert "repro_bins_processed_total 5.0" in text
        assert 'repro_stage_seconds_bucket{stage="detect",le="1.0"} 1' in text
        assert 'repro_stage_seconds_bucket{stage="detect",le="2.0"} 2' in text
        assert ('repro_stage_seconds_bucket{stage="detect",le="+Inf"} 3'
                in text)
        assert 'repro_stage_seconds_count{stage="detect"} 3' in text


class TestTelemetryFacade:
    class _Config:
        telemetry = True
        telemetry_sample_rate = 0.5
        telemetry_trace_path = ""
        telemetry_snapshot_path = ""
        telemetry_snapshot_every_chunks = 4

    def test_disabled_config_builds_nothing(self):
        class Disabled:
            telemetry = False

        assert Telemetry.from_config(Disabled()) is None

    def test_config_paths_are_used_verbatim(self, tmp_path):
        config = self._Config()
        config.telemetry_trace_path = str(tmp_path / "trace.jsonl")
        config.telemetry_snapshot_path = str(tmp_path / "health.json")
        telemetry = Telemetry.from_config(config)
        assert telemetry.tracer.sink.path == config.telemetry_trace_path
        assert telemetry.snapshot_path == config.telemetry_snapshot_path

    def test_state_round_trip_keeps_counters_drops_spans(self):
        telemetry = Telemetry.from_config(self._Config())
        telemetry.registry.counter("bins_processed").inc(42)
        telemetry.begin_chunk(0)
        span = telemetry.span("detect")
        span.__enter__()
        assert telemetry.tracer.active_spans  # in flight right now
        state = json.loads(json.dumps(telemetry.state_dict()))

        restored = Telemetry.from_config(self._Config())
        restored.restore_state(state)
        assert restored.registry.value("bins_processed") == 42
        assert restored.tracer.active_spans == []  # spans did not survive
        span.__exit__(None, None, None)

    def test_snapshot_cadence(self, tmp_path):
        config = self._Config()
        config.telemetry_snapshot_path = str(tmp_path / "health.json")
        telemetry = Telemetry.from_config(config)
        telemetry.registry.counter("bins_processed").inc(7)
        telemetry.maybe_write_snapshot(3)
        assert not (tmp_path / "health.json").exists()
        telemetry.maybe_write_snapshot(4)
        assert HealthSnapshot.read(str(tmp_path
                                       / "health.json")).bins_processed == 7


class TestSnapshotWriteRaces:
    """Regression tests: the snapshot writer must tolerate concurrency."""

    def _snapshot(self):
        registry = MetricsRegistry()
        registry.counter("bins_processed").inc(7)
        registry.gauge("runtime_seconds").set(1.0)
        return HealthSnapshot.from_registry(registry)

    def test_concurrent_writers_never_tear_the_file(self, tmp_path):
        """Two processes snapshotting one path used to race on a single
        fixed temp name; unique temp names make every rename whole."""
        import threading

        path = tmp_path / "health.json"
        errors = []

        def writer():
            try:
                for _ in range(30):
                    self._snapshot().write(str(path))
            except Exception as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        def reader():
            try:
                for _ in range(60):
                    try:
                        HealthSnapshot.read(str(path))
                    except FileNotFoundError:
                        pass  # before the first write lands
            except Exception as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        threads.append(threading.Thread(target=reader))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert HealthSnapshot.read(str(path)).bins_processed == 7
        assert list(tmp_path.glob("*.tmp")) == []  # nothing left behind

    def test_failed_write_cleans_its_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "health.json"
        snapshot = self._snapshot()
        monkeypatch.setattr(json, "dumps",
                            lambda *a, **k: (_ for _ in ()).throw(
                                OSError("disk full")))
        with pytest.raises(OSError):
            snapshot.write(str(path))
        assert list(tmp_path.iterdir()) == []

    def test_forward_versioned_snapshot_loads_with_warning(self, tmp_path):
        """A snapshot written by a newer version may carry unknown fields;
        an old reader must warn and render what it knows — not crash."""
        path = tmp_path / "health.json"
        self._snapshot().write(str(path))
        data = json.loads(path.read_text())
        data["version"] = 99
        data["hyperdrive_engaged"] = True
        data["flux_capacitance"] = {"gigawatts": 1.21}
        path.write_text(json.dumps(data))
        with pytest.warns(RuntimeWarning, match="unknown fields"):
            loaded = HealthSnapshot.read(str(path))
        assert loaded.bins_processed == 7
        assert not hasattr(loaded, "hyperdrive_engaged")

    def test_retired_worker_fields_load_without_warning(self, tmp_path):
        """Snapshots written while shard mode existed carry its worker
        fields; they are dropped silently and the rest still renders."""
        import warnings

        path = tmp_path / "health.json"
        self._snapshot().write(str(path))
        data = json.loads(path.read_text())
        data.update(workers={"shard-0": 12, "shard-1": 11},
                    worker_restarts=1, degraded=True)
        path.write_text(json.dumps(data))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = HealthSnapshot.read(str(path))
        assert loaded.bins_processed == 7
        assert not hasattr(loaded, "workers")
        table = render_status_table(loaded)
        assert "bins processed     7" in table
        assert "worker" not in table

    def test_known_fields_do_not_warn(self, tmp_path):
        import warnings

        path = tmp_path / "health.json"
        self._snapshot().write(str(path))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            HealthSnapshot.read(str(path))
