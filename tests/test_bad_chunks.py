"""Malformed-chunk handling: clear diagnostics or counted-and-skipped.

A collector glitch shows up as NaN/Inf cells or a chunk whose column
count disagrees with the stream's OD-flow dimension.  Under the default
``on_bad_chunk="raise"`` the run dies with a diagnostic naming the
chunk, traffic type, and defect; under ``"quarantine"`` the chunk is
counted (``bad_chunks`` metric, ``report.n_bad_chunks``) and skipped
without perturbing the model or the aggregator watermark.

The per-PoP hierarchy runs the flat detector's chunk loop, so it must
behave alike: every policy case is written against a driver factory
(``make``), and the ``...Hierarchy`` subclasses rerun each case through a
2-PoP :class:`~repro.streaming.HierarchicalNetworkDetector`.  That skipped
chunks leave the events untouched, flat, hierarchical and across a restart,
is the ``dirty_day`` corpus of ``tests/test_driver_oracle.py``; a service
restarted after a lost chunk is ``TestServiceRestartAfterLostChunk``.
"""

import numpy as np
import pytest

from repro.flows.timeseries import TrafficType
from repro.service import DetectionService, EventStore
from repro.streaming import (HierarchicalNetworkDetector, StreamingConfig,
                             StreamingNetworkDetector, TrafficChunk,
                             chunk_series)

P = 12
BINS = 8


def _chunk(start_bin, n_bins=BINS, n_cols=P, poison=None, seed=0,
           types=(TrafficType.BYTES,)):
    rng = np.random.default_rng(seed + start_bin)
    matrices = {}
    for traffic_type in types:
        matrix = rng.gamma(4.0, 25.0, size=(n_bins, n_cols))
        if poison is not None:
            matrix[n_bins // 2, n_cols // 2] = poison
        matrices[traffic_type] = matrix
    return TrafficChunk(start_bin=start_bin, matrices=matrices)


def _config(**overrides):
    base = dict(min_train_bins=16, recalibrate_every_bins=8, use_t2=False)
    base.update(overrides)
    return StreamingConfig(**base)


def _hierarchy(config):
    return HierarchicalNetworkDetector(config, n_pops=2)


class TestRaisePolicy:
    make = StreamingNetworkDetector

    def test_nan_chunk_raises_with_diagnostic(self):
        detector = self.make(_config())
        detector.process_chunk(_chunk(0))
        with pytest.raises(ValueError) as excinfo:
            detector.process_chunk(_chunk(BINS, poison=np.nan))
        message = str(excinfo.value)
        assert "malformed traffic chunk" in message
        assert f"bin {BINS}" in message
        assert "non-finite" in message
        assert "bytes" in message

    def test_inf_chunk_raises(self):
        detector = self.make(_config())
        detector.process_chunk(_chunk(0))
        with pytest.raises(ValueError, match="non-finite"):
            detector.process_chunk(_chunk(BINS, poison=np.inf))

    def test_wrong_column_count_raises_with_expected_width(self):
        detector = self.make(_config())
        detector.process_chunk(_chunk(0))
        with pytest.raises(ValueError) as excinfo:
            detector.process_chunk(_chunk(BINS, n_cols=P - 3))
        message = str(excinfo.value)
        assert f"has {P - 3} columns" in message
        assert f"expected {P}" in message


class TestQuarantinePolicy:
    make = StreamingNetworkDetector

    def test_bad_chunks_counted_and_skipped(self):
        detector = self.make(_config(on_bad_chunk="quarantine"))
        detector.process_chunk(_chunk(0))
        assert detector.process_chunk(_chunk(BINS, poison=np.nan)) == []
        assert detector.process_chunk(_chunk(BINS, n_cols=P + 2)) == []
        detector.process_chunk(_chunk(BINS))
        report = detector.finish()
        assert report.n_bad_chunks == 2
        # Skipped chunks advance neither the bin nor the chunk counters.
        assert report.n_chunks_processed == 2
        assert report.n_bins_processed == 2 * BINS

    def test_rejected_first_chunk_does_not_pin_the_width(self):
        # The stream's OD-flow width and traffic types are the first
        # *accepted* chunk's, not those of a bytes-only chunk it rejected.
        both = (TrafficType.BYTES, TrafficType.FLOWS)
        detector = self.make(_config(on_bad_chunk="quarantine"))
        assert detector.process_chunk(_chunk(0, n_cols=5, poison=np.nan)) == []
        for start in range(0, 4 * BINS, BINS):
            detector.process_chunk(_chunk(start, types=both))
        assert detector.process_chunk(
            _chunk(4 * BINS, n_cols=5, types=both)) == []
        report = detector.finish()
        assert (report.n_bad_chunks, report.n_bins_processed) == (2, 4 * BINS)
        for traffic_type in both:
            assert detector.detector(traffic_type).engine.n_bins_seen == 4 * BINS

    def test_bad_chunks_metric_increments(self):
        detector = self.make(
            _config(on_bad_chunk="quarantine", telemetry=True))
        detector.process_chunk(_chunk(0))
        detector.process_chunk(_chunk(BINS, poison=np.inf))
        assert detector.telemetry.registry.value("bad_chunks") == 1
        assert detector.report.n_bad_chunks == 1

    def test_bad_chunk_count_survives_report_round_trip(self):
        detector = self.make(_config(on_bad_chunk="quarantine"))
        detector.process_chunk(_chunk(0))
        detector.process_chunk(_chunk(BINS, poison=np.nan))
        report = detector.report
        from repro.streaming.pipeline import StreamingReport
        restored = StreamingReport.from_dict(report.to_dict())
        assert restored.n_bad_chunks == 1


class TestRaisePolicyHierarchy(TestRaisePolicy):
    make = staticmethod(_hierarchy)


class TestQuarantinePolicyHierarchy(TestQuarantinePolicy):
    make = staticmethod(_hierarchy)


class TestConfig:
    def test_policy_validated(self):
        with pytest.raises(ValueError, match="on_bad_chunk"):
            StreamingConfig(on_bad_chunk="drop")

    def test_round_trips_through_dict(self):
        config = StreamingConfig(on_bad_chunk="quarantine")
        assert StreamingConfig.from_dict(
            config.to_dict()).on_bad_chunk == "quarantine"


class TestServiceRestartAfterLostChunk:
    """Six 48-bin chunks, the third (or the third and fourth) NaN-poisoned
    and quarantined; the service stops after a bad chunk or one chunk
    later, and restarts on the full chunk list.  It resumes after the last
    accepted chunk and drops the re-sent bad chunks uncounted, so the
    restarted run ends with the uninterrupted run's counts and event
    table."""

    CHUNK = 48

    def _chunks(self, small_dataset, lost):
        chunks = list(chunk_series(
            small_dataset.series.window(0, 6 * self.CHUNK), self.CHUNK))
        for index in lost:
            clean = chunks[index]
            matrices = {t: m.copy() for t, m in clean.matrices.items()}
            matrices[TrafficType.BYTES][self.CHUNK // 2, 0] = np.nan
            chunks[index] = TrafficChunk(start_bin=clean.start_bin,
                                         matrices=matrices)
        return chunks

    def _run(self, chunks, directory, stop_after=None):
        directory.mkdir(exist_ok=True)
        service = DetectionService(
            StreamingConfig(min_train_bins=96, recalibrate_every_bins=48,
                            on_bad_chunk="quarantine"),
            store=EventStore(directory / "events.sqlite"),
            checkpoint_dir=directory / "ckpt")

        def feed():
            for index, chunk in enumerate(chunks, start=1):
                if index == stop_after:
                    service.request_stop()  # honoured once it is processed
                yield chunk

        result = service.run(feed())
        digest = service.store.table_digest()
        service.close()
        return result, digest

    @pytest.mark.parametrize("lost, stop_after",
                             [((2,), 3), ((2,), 4), ((2, 3), 4)])
    def test_restart_matches_the_uninterrupted_run(self, small_dataset,
                                                   tmp_path, lost,
                                                   stop_after):
        chunks = self._chunks(small_dataset, lost)
        reference, reference_digest = self._run(chunks, tmp_path / "ref")
        first, _ = self._run(chunks, tmp_path / "cut", stop_after)
        assert first.interrupted
        restarted, digest = self._run(chunks, tmp_path / "cut")
        expected, report = reference.report, restarted.report
        assert reference.report.n_events > 0
        assert (report.n_bins_processed, report.n_chunks_processed,
                report.n_bad_chunks) == (expected.n_bins_processed,
                                         expected.n_chunks_processed,
                                         len(lost))
        assert report.events == expected.events
        assert digest == reference_digest
