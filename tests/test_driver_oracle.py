"""The differential oracle: every driver emits the reference's events.

The paper's output is the fused event list, so every way of driving the
detector must emit the same events for the same input.  This module proves
it once, as a matrix of cells: a seeded corpus, cut into chunks by a named
chunking, run at one recalibration cadence, through one driver.  Every cell
must reproduce its reference ``EventStore.table_digest()`` and, wherever
the driver yields a ``StreamingReport``, pass the full
``report_parity(...)["equal"]`` with equal chunk and bad-chunk counts.

* Live drivers are compared with ``stream_detect`` over the identical
  chunk sequence and config.  Restart cells also require the final
  snapshots' ``normal_axes`` and ``eigenvalues`` bitwise equal to an
  uninterrupted run's.
* The replay driver is compared with the batch
  ``detect_network_anomalies``: identical events and per-type detections.

A new driver is a ``drive_*(case, oracle, tmp_path)`` function and a
``DRIVERS`` row; a new corpus is a builder and its ``CORPORA`` and ``PLAN``
rows.  CI's ``chaos`` job runs the fault cells (``-k "service or leaf"``),
with quarantined checkpoint files copied to ``CHAOS_ARTIFACT_DIR``.
"""

import dataclasses
import json
import os
import shutil
import signal
from functools import cached_property, partial

import numpy as np
import pytest

from repro.core import detect_network_anomalies
from repro.datasets import (DatasetConfig, generate_abilene_dataset,
                            generate_drifting_dataset)
from repro.evaluation import report_parity
from repro.faults import corrupt_checkpoint
from repro.flows.aggregation import aggregate_records
from repro.flows.timeseries import TrafficMatrixSeries
from repro.ingest import FlowCsvSource, IngestConfig, export_flow_csv
from repro.routing.prefixes import format_ipv4
from repro.routing.resolver import PoPResolver
from repro.service import (AlertDispatcher, DetectionService, EventStore,
                           JsonLinesAlertSink, event_key)
from repro.streaming import (ChunkedSeriesSource, HierarchicalNetworkDetector,
                             StreamingConfig, StreamingNetworkDetector,
                             TrafficChunk, replay_network_anomalies,
                             stream_detect)
from repro.streaming.checkpoint import QUARANTINE_DIRNAME
from repro.telemetry import HealthSnapshot, prometheus_exposition
from repro.topology import abilene_topology, random_backbone
from repro.traffic.flowgen import FlowSynthesizer

MIN_TRAIN = 128
PRIME = 37


def abilene_day():
    """One Abilene day rebuilt from its flow records: the CSV drivers'
    reference is ``aggregate_records`` of the records the export holds."""
    network = abilene_topology()
    day = generate_abilene_dataset(DatasetConfig(weeks=1.0 / 7.0), seed=11)
    records = list(FlowSynthesizer(network, seed=3, max_flows_per_cell=1)
                   .synthesize_series(day.series))
    resolved, _ = PoPResolver(network).resolve_records(records)
    return aggregate_records(resolved, network.od_pairs(),
                             day.series.binning), records


def rank_deficient():
    """An Abilene day on which 30 OD flows never carry traffic."""
    series = generate_abilene_dataset(DatasetConfig(weeks=1.0 / 7.0),
                                      seed=13).series
    matrices = {t: series.matrix(t).copy() for t in series.traffic_types}
    for matrix in matrices.values():
        matrix[:, -30:] = 0.0
    return TrafficMatrixSeries(series.od_pairs, series.binning, matrices), None


def backbone(n_pops, weeks, n_bins):
    return lambda: (generate_abilene_dataset(
        DatasetConfig(weeks=weeks), seed=21,
        network=random_backbone(n_pops, seed=3)).series.window(0, n_bins),
        None)


#: name -> (builder, n_bins, config overrides).  "dirty_day" re-sends three
#: chunks of the Abilene day malformed (see _glitched); the drifting week
#: runs the adaptive control limits it is the workload for; snapshot_p324
#: never reaches p = 324 bins; crossing_p400 ends 40 bins past p = 400, so
#: the crossing chunk and the hierarchy's merge-time switch both run.
CORPORA = {
    "abilene_day": (abilene_day, 288, {}),
    "dirty_day": (abilene_day, 288, {"on_bad_chunk": "quarantine"}),
    "drifting_week": (lambda: (generate_drifting_dataset(
        DatasetConfig(weeks=1.0), seed=5).series, None), 2016,
        {"limits": "adaptive"}),
    "rank_deficient": (rank_deficient, 288, {}),
    "snapshot_p324": (backbone(18, 1.0 / 7.0, 288), 288, {}),
    "crossing_p400": (backbone(20, 2.0 / 7.0, 440), 440, {}),
}

#: corpus -> the (chunking, recalibration cadence) pairs it runs.
PLAN = {
    "abilene_day": (("prime", 96), ("ragged", 32), ("whole", 96)),
    "dirty_day": (("prime", 96), ("ragged", 32)),
    "drifting_week": (("prime", 96),),
    "rank_deficient": (("prime", 32), ("ragged", 96)),
    "snapshot_p324": (("one", 96), ("prime", 32), ("ragged", 96)),
    "crossing_p400": (("prime", 96),),
}


def chunk_sizes(chunking, n_bins):
    """Single bins, a prime, a seeded ragged draw, or one chunk."""
    if chunking == "ragged":
        rng = np.random.default_rng(2004)
        sizes = []
        while sum(sizes) < n_bins:
            sizes.append(int(rng.integers(1, 41)))
        return sizes[:-1] + [n_bins - sum(sizes[:-1])]
    size = source_chunk_size(chunking, n_bins)
    return [size] * (n_bins // size) + [n_bins % size] * (n_bins % size > 0)


def source_chunk_size(chunking, n_bins):
    """The fixed size a source cuts ("ragged" has none)."""
    return {"one": 1, "prime": PRIME, "whole": n_bins + 1}.get(chunking)


def _malformed(chunk, n_cols=None, poison=False):
    matrices = {t: m[:, :n_cols].copy() for t, m in chunk.matrices.items()}
    for matrix in matrices.values() if poison else ():
        matrix[matrix.shape[0] // 2, matrix.shape[1] // 2] = np.nan
    return TrafficChunk(start_bin=chunk.start_bin, matrices=matrices)


def _glitched(chunks):
    """Re-send three chunks malformed ahead of their clean copies: the
    first truncated to 5 OD flows *and* NaN-poisoned, the middle one
    truncated, and one two thirds in NaN-poisoned."""
    middle, late = len(chunks) // 2, (2 * len(chunks)) // 3
    glitches = {0: _malformed(chunks[0], n_cols=5, poison=True),
                middle: _malformed(chunks[middle], n_cols=5),
                late: _malformed(chunks[late], poison=True)}
    return [c for i, chunk in enumerate(chunks)
            for c in ([glitches[i]] if i in glitches else []) + [chunk]]


def digest(events):
    with EventStore() as store:
        store.add_events(events)
        return store.table_digest()


@dataclasses.dataclass
class Case:
    corpus: str
    chunking: str
    cadence: int
    series: TrafficMatrixSeries
    records: list

    @cached_property
    def config(self):
        return StreamingConfig(min_train_bins=MIN_TRAIN,
                               recalibrate_every_bins=self.cadence,
                               **CORPORA[self.corpus][2])

    @cached_property
    def chunks(self):
        series, start, chunks = self.series, 0, []
        for size in chunk_sizes(self.chunking, series.n_bins):
            chunks.append(TrafficChunk(start_bin=start, matrices={
                t: series.matrix(t)[start:start + size]
                for t in series.traffic_types}))
            start += size
        return _glitched(chunks) if self.corpus == "dirty_day" else chunks

    @cached_property
    def cut(self):
        """Where restart cells stop and restore: mid-stream; on the dirty
        corpus, just before its truncated middle chunk (one glitch comes
        first), so the restored run first meets the wrong width."""
        if self.corpus != "dirty_day":
            return len(self.chunks) // 2
        return (len(self.chunks) - 3) // 2 + 1

    @cached_property
    def reference(self):
        """``stream_detect`` over the identical chunks and config."""
        report = stream_detect(self.chunks, self.config)
        return report, digest(report.events)

    @cached_property
    def uninterrupted(self):
        """The reference run's detector, for its final snapshots, and the
        number of events each chunk closed."""
        detector = StreamingNetworkDetector(self.config)
        closed = [len(detector.process_chunk(chunk)) for chunk in self.chunks]
        detector.finish()
        return detector, closed


class Oracle:
    """Builds each corpus and case once per module."""

    def __init__(self, workdir):
        self.workdir = workdir
        self._built, self._cases = {}, {}

    def case(self, corpus, chunking, cadence):
        key = (corpus, chunking, cadence)
        if key not in self._cases:
            builder, n_bins, _ = CORPORA[corpus]
            if builder not in self._built:
                self._built[builder] = builder()
            self._cases[key] = Case(*key, *self._built[builder])
            assert self._cases[key].series.n_bins == n_bins
        return self._cases[key]

    @cached_property
    def csv_exports(self):
        """The Abilene day's records as a clean CSV export (one header) and
        a dirty copy (two): CRLF line endings, a second header mid-file,
        and dotted-quad addresses after it."""
        records = self.case("abilene_day", "prime", 96).records
        clean = self.workdir / "flows.csv"
        export_flow_csv(records, clean)
        header, *rows = clean.read_text(encoding="utf-8").splitlines()
        middle = len(rows) // 2
        dotted = [",".join([format_ipv4(int(field)) for field in
                            row.split(",", 2)[:2]] + [row.split(",", 2)[2]])
                  for row in rows[middle:]]
        dirty = self.workdir / "flows-dirty.csv"
        with open(dirty, "w", encoding="utf-8", newline="") as handle:
            handle.write("\r\n".join([header] + rows[:middle] + [header]
                                     + dotted) + "\r\n")
        return {"csv": (clean, 1), "csv_dirty": (dirty, 2)}


@pytest.fixture(scope="module")
def oracle(tmp_path_factory):
    return Oracle(tmp_path_factory.mktemp("oracle"))


def assert_reproduces(case, report, table_digest):
    expected, expected_digest = case.reference
    assert table_digest == expected_digest
    full = report_parity(expected, report)
    assert all(full["equal"].values()), full
    assert report.n_chunks_processed == expected.n_chunks_processed
    assert report.n_bad_chunks == expected.n_bad_chunks


def assert_same_snapshots(case, detector):
    for traffic_type in case.series.traffic_types:
        ours = detector.detector(traffic_type).snapshot
        theirs = case.uninterrupted[0].detector(traffic_type).snapshot
        np.testing.assert_array_equal(ours.normal_axes, theirs.normal_axes)
        np.testing.assert_array_equal(ours.eigenvalues, theirs.eigenvalues)


def assert_same_state(detector, restored):
    ours, theirs = restored.state_dict(), detector.state_dict()
    assert ours["meta"] == theirs["meta"]
    for name in ours["arrays"].keys() | theirs["arrays"].keys():
        np.testing.assert_array_equal(ours["arrays"][name], theirs["arrays"][name])


def drive_stream_detect(case, oracle, tmp_path):
    """The instrumented loop (telemetry on), closed events handed to a
    store through the ``on_events`` hook."""
    store = EventStore()
    report = stream_detect(iter(case.chunks),
                           dataclasses.replace(case.config, telemetry=True),
                           on_events=store.add_events)
    assert_reproduces(case, report, store.table_digest())


def drive_hierarchy(case, oracle, tmp_path, n_pops=2):
    """Two PoPs routed round-robin, or three under seeded skewed routing
    (the merge is order-free).  Each PoP holds only its share of the
    stream; below p bins the merged engine keeps the bins, from p on the
    scatter."""
    pops = (np.random.default_rng(7).choice(3, size=len(case.chunks),
                                            p=[0.6, 0.3, 0.1])
            if n_pops == 3 else [None] * len(case.chunks))
    detector = HierarchicalNetworkDetector(case.config, n_pops=n_pops)
    for chunk, pop in zip(case.chunks, pops):
        detector.process_chunk(chunk, pop)
    report = detector.finish()
    assert_reproduces(case, report, digest(report.events))
    for traffic_type in case.series.traffic_types:
        engine = detector.detector(traffic_type).engine
        merged = engine.merged()
        shares = [e.n_bins_seen for e in engine.engines]
        assert sum(shares) == merged.n_bins_seen
        assert n_pops == 3 or len(case.chunks) < 2 or min(shares) > 0
        assert merged.holds_bins == (merged.n_bins_seen < merged.n_features)


def drive_leaf_reintegrated(case, oracle, tmp_path):
    """Leaf 1 is quarantined while it holds moments; its next chunk
    reintegrates it through the exact merge, restoring full parity.  A
    watermark deadline of the longest chunk never quarantines a leaf that
    delivers every other chunk."""
    detector = HierarchicalNetworkDetector(
        case.config, n_pops=2,
        leaf_deadline_bins=max(chunk.n_bins for chunk in case.chunks))
    for index, chunk in enumerate(case.chunks):
        if index == 3:
            detector.quarantine_leaf(1)
            assert detector.coverage == 0.5
        detector.process_chunk(chunk, pop=index % 2)
        assert detector.quarantined_pops == frozenset()
    assert detector.coverage == 1.0
    report = detector.finish()
    assert_reproduces(case, report, digest(report.events))


def drive_leaf_outage(case, oracle, tmp_path):
    """Leaf 1 delivers one warm-up chunk and falls silent.  The watermark
    deadline quarantines it, and detection goes on over leaf 0 with the
    events of a flat run over leaf 0's chunks alone."""
    chunks = case.chunks
    expected = stream_detect([chunks[0]] + chunks[2:], case.config)
    detector = HierarchicalNetworkDetector(
        dataclasses.replace(case.config, telemetry=True), n_pops=2,
        leaf_deadline_bins=1)
    for index, chunk in enumerate(chunks):
        detector.process_chunk(chunk, pop=int(index == 1))
    report = detector.finish()
    assert digest(report.events) == digest(expected.events)
    full = report_parity(expected, report)["equal"]
    assert full["events"] and full["detections"], full
    # The silent leaf's chunk is counted, as warm-up, on top.
    for counter in ("n_bins_processed", "n_warmup_bins"):
        assert (getattr(report, counter)
                == getattr(expected, counter) + chunks[1].n_bins)
    assert detector.quarantined_pops == frozenset({1})
    registry = detector.telemetry.registry
    snapshot = HealthSnapshot.from_registry(registry)
    assert (snapshot.quarantined_leaves, snapshot.coverage) == (1, 0.5)
    assert "repro_hierarchy_coverage 0.5" in prometheus_exposition(registry)


def drive_checkpoint_restart(case, oracle, tmp_path, n_pops=None):
    """Saved mid-stream and restored from disk: the state is bitwise the
    saved one, and the restored run finishes as if never interrupted.  On
    the dirty corpus the first chunk it meets has the wrong width, which
    it must count and skip.  With *n_pops*, a hierarchy is saved and
    restores as a flat detector of its merged state (the state
    ``to_network_detector()`` builds); its snapshots carry the merge's
    round-off, so they are not compared bitwise with the flat run's."""
    detector = (StreamingNetworkDetector(case.config) if n_pops is None
                else HierarchicalNetworkDetector(case.config, n_pops=n_pops))
    for chunk in case.chunks[:case.cut]:
        detector.process_chunk(chunk)
    detector.save(tmp_path / "ckpt")
    restored = StreamingNetworkDetector.restore(tmp_path / "ckpt")
    assert_same_state(detector if n_pops is None
                      else detector.to_network_detector(), restored)
    for chunk in case.chunks[case.cut:]:
        restored.process_chunk(chunk)
    report = restored.finish()
    assert_reproduces(case, report, digest(report.events))
    if n_pops is None:
        assert_same_snapshots(case, restored)


class _Crash(RuntimeError):
    pass


def _service(case, tmp_path, every=None):
    """The service on one store, checkpoint directory and alert log."""
    return DetectionService(
        case.config, store=EventStore(tmp_path / "events.sqlite"),
        dispatcher=AlertDispatcher([JsonLinesAlertSink(tmp_path / "alerts")]),
        checkpoint_dir=tmp_path / "ckpt", checkpoint_every_chunks=every)


def _faulting(chunks, after, fault):
    for index, chunk in enumerate(chunks, start=1):
        yield chunk
        if index == after:
            fault()


def _crash():
    raise _Crash("simulated power loss")


def _restart(case, tmp_path, source, processed, every=None):
    """Restart on the same store and checkpoints, after a first run that
    processed *processed* chunks, run *source* to its end and match the
    reference: digest, report, snapshots, and one alert per reference event
    over both runs (a replay never pages twice).  The store must count as
    duplicates exactly the events the replayed chunks close again."""
    service = _service(case, tmp_path, every)
    resume_bin = service.resume_bin
    assert 0 < resume_bin < case.series.n_bins
    closed = case.uninterrupted[1]
    resumed = next(i for i, c in enumerate(case.chunks) if c.end_bin > resume_bin)
    stored_before = service.store.count()
    assert stored_before == sum(closed[:processed])
    result = service.run(source)
    assert not result.interrupted
    assert result.events_stored == len(case.reference[0].events) - stored_before
    assert result.events_duplicate == sum(closed[resumed:processed])
    assert_reproduces(case, result.report, service.store.table_digest())
    assert_same_snapshots(case, service.detector)
    service.close()
    alerts = (tmp_path / "alerts").read_text().splitlines()
    assert sorted(json.loads(line)["key"] for line in alerts) == sorted(
        event_key(event) for event in case.reference[0].events)
    return service, resume_bin


def drive_service_sigterm(case, oracle, tmp_path):
    """A real SIGTERM in-process, raised as the source is asked for the
    next chunk: that in-flight chunk finishes and a checkpoint is written.
    The restarted service is handed the full stream and positions the
    source itself: a ``ChunkedSeriesSource`` at the fixed chunkings, the
    chunk list where no source cuts the same chunks or re-sends the dirty
    corpus's glitches."""
    service = _service(case, tmp_path)
    service.install_signal_handlers()
    result = service.run(_faulting(
        case.chunks, len(case.chunks) // 2,
        lambda: signal.raise_signal(signal.SIGTERM)))
    assert result.interrupted
    service.close()
    size = source_chunk_size(case.chunking, case.series.n_bins)
    _restart(case, tmp_path,
             case.chunks if size is None or case.corpus == "dirty_day"
             else ChunkedSeriesSource(case.series, size),
             processed=len(case.chunks) // 2 + 1)


def _crashed(case, tmp_path):
    """Checkpoint every *every* chunks and crash one chunk past the
    second checkpoint; return *every* and the chunks processed."""
    every = max(2, len(case.chunks) // 6)
    service = _service(case, tmp_path, every)
    with pytest.raises(_Crash):
        service.run(_faulting(case.chunks, 2 * every + 1, _crash))
    service.close()
    return every, 2 * every + 1


def drive_service_crash(case, oracle, tmp_path):
    """A crash between periodic checkpoints.  The restart is fed the full
    plain iterable, skips the processed prefix, and replays one chunk into
    the idempotent store."""
    every, processed = _crashed(case, tmp_path)
    _, resume_bin = _restart(case, tmp_path, iter(case.chunks), processed,
                             every)
    assert resume_bin == case.chunks[2 * every - 1].end_bin


def _preserve_quarantine(checkpoint_dir, name):
    """Copy quarantined files into CHAOS_ARTIFACT_DIR when CI asks."""
    quarantine = checkpoint_dir / QUARANTINE_DIRNAME
    if os.environ.get("CHAOS_ARTIFACT_DIR") and quarantine.is_dir():
        shutil.copytree(quarantine, os.path.join(
            os.environ["CHAOS_ARTIFACT_DIR"], name), dirs_exist_ok=True)


def drive_service_corrupt(case, oracle, tmp_path):
    """The newest checkpoint generation is torn after the crash.  The
    restart quarantines it (never deletes), falls back to the previous
    generation and replays the longer suffix to the identical table."""
    every, processed = _crashed(case, tmp_path)
    corrupt_checkpoint(tmp_path / "ckpt", mode="truncate")
    try:
        service, resume_bin = _restart(case, tmp_path, iter(case.chunks),
                                       processed, every)
    finally:  # the evidence survives a failing restart
        _preserve_quarantine(tmp_path / "ckpt", tmp_path.name)
    assert any((tmp_path / "ckpt" / QUARANTINE_DIRNAME).iterdir())
    assert resume_bin == case.chunks[every - 1].end_bin
    assert service.registry.value("checkpoints_quarantined") >= 1
    assert HealthSnapshot.from_registry(
        service.registry).checkpoint_fallbacks == 1


def drive_csv(case, oracle, tmp_path, export="csv"):
    """An export parsed and binned back through ``FlowCsvSource``, bins
    split across parse batches: byte-identical OD matrices, then identical
    detection.  The dirty export has CRLF line endings, a mid-file header
    and dotted-quad addresses."""
    path, n_headers = oracle.csv_exports[export]
    binning = case.series.binning
    source = FlowCsvSource(str(path), network=abilene_topology(),
                           config=IngestConfig(
                               chunk_size=source_chunk_size(
                                   case.chunking, binning.n_bins),
                               batch_rows=257,
                               bin_seconds=binning.bin_seconds,
                               start_seconds=binning.start_seconds,
                               n_bins=binning.n_bins))
    chunks = list(source)
    stats = source.stats.parse
    assert (stats.records, stats.bad_rows, stats.header_rows) == (
        len(case.records), 0, n_headers)
    assert [c.start_bin for c in chunks] == [c.start_bin for c in case.chunks]
    for ours, theirs in zip(chunks, case.chunks):
        for traffic_type in theirs.traffic_types:
            np.testing.assert_array_equal(ours.matrix(traffic_type),
                                          theirs.matrix(traffic_type))
    report = stream_detect(chunks, case.config)
    assert_reproduces(case, report, digest(report.events))


def drive_replay(case, oracle, tmp_path):
    """Two-pass replay against the batch pipeline on the whole window."""
    batch = detect_network_anomalies(case.series)
    replay = replay_network_anomalies(
        case.series, source_chunk_size(case.chunking, case.series.n_bins),
        traffic_types=case.series.traffic_types)
    assert replay.events == batch.events
    assert replay.detections == batch.detections
    assert digest(replay.events) == digest(batch.events)


#: driver -> (function, fewest chunks, corpus/chunking filter or None).
DRIVERS = {
    "stream_detect": (drive_stream_detect, 1, None),
    "hierarchy": (drive_hierarchy, 1, None),
    "hierarchy_skewed": (partial(drive_hierarchy, n_pops=3), 1, None),
    "leaf_reintegrated": (drive_leaf_reintegrated, 4, None),
    "leaf_outage": (drive_leaf_outage, 4, lambda c, k: c != "dirty_day"),
    "checkpoint_restart": (drive_checkpoint_restart, 2, None),
    "hierarchy_checkpoint": (partial(drive_checkpoint_restart, n_pops=2), 2,
                             None),
    "service_sigterm": (drive_service_sigterm, 4, None),
    "service_crash": (drive_service_crash, 6, None),
    "service_corrupt": (drive_service_corrupt, 6, None),
    "csv": (drive_csv, 1, lambda c, k: c == "abilene_day" and k != "ragged"),
    "csv_dirty": (partial(drive_csv, export="csv_dirty"), 1,
                  lambda c, k: c == "abilene_day" and k != "ragged"),
    "replay": (drive_replay, 1, lambda c, k: c != "dirty_day" and k != "ragged"),
}


def _cells():
    for corpus, runs in PLAN.items():
        for chunking, cadence in runs:
            sizes = chunk_sizes(chunking, CORPORA[corpus][1])
            for name, (_, fewest, applies) in DRIVERS.items():
                # The outage cell needs leaf 1's chunk to stay warm-up.
                if name == "leaf_outage" and sum(sizes[:3]) >= MIN_TRAIN:
                    continue
                if len(sizes) >= fewest and (
                        applies is None or applies(corpus, chunking)):
                    yield pytest.param(
                        name, corpus, chunking, cadence,
                        id=f"{name}-{corpus}-{chunking}-c{cadence}")


@pytest.mark.parametrize("driver,corpus,chunking,cadence", list(_cells()))
def test_cell(driver, corpus, chunking, cadence, oracle, tmp_path):
    DRIVERS[driver][0](oracle.case(corpus, chunking, cadence), oracle,
                       tmp_path)


@pytest.mark.parametrize("corpus", list(PLAN))
def test_corpus_exercises_its_path(corpus, oracle):
    """Each corpus reaches the code path it is in the matrix for."""
    case = oracle.case(corpus, *PLAN[corpus][0])
    report, table_digest = case.reference
    assert report.n_events > 0 and report.n_bins_processed == case.series.n_bins
    detectors = [case.uninterrupted[0].detector(t)
                 for t in case.series.traffic_types]
    p, holds_bins = case.series.n_od_pairs, [d.engine.holds_bins for d in detectors]
    if corpus == "snapshot_p324":
        assert all(holds_bins)
    if corpus == "crossing_p400":
        assert p < case.series.n_bins < p + PRIME + 8 and not any(holds_bins)
    if corpus == "rank_deficient":
        assert not any(np.diag(d.engine.covariance())[-30:].any() for d in detectors)
    if corpus == "drifting_week":
        assert all(d.limits_policy is not None for d in detectors)
    if corpus == "dirty_day":
        # Three malformed chunks counted and skipped, none touching the
        # model: exactly the clean day's events.
        assert report.n_bad_chunks == 3
        assert table_digest == oracle.case("abilene_day", *PLAN[corpus][0]).reference[1]
