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
2-PoP :class:`~repro.streaming.HierarchicalNetworkDetector`.
"""

import numpy as np
import pytest

from repro.evaluation import report_parity
from repro.flows.timeseries import TrafficType
from repro.streaming import (HierarchicalNetworkDetector, StreamingConfig,
                             StreamingNetworkDetector, TrafficChunk)

P = 12
BINS = 8


def _chunk(start_bin, n_bins=BINS, n_cols=P, poison=None, seed=0):
    rng = np.random.default_rng(seed + start_bin)
    matrix = rng.gamma(4.0, 25.0, size=(n_bins, n_cols))
    if poison is not None:
        matrix[n_bins // 2, n_cols // 2] = poison
    return TrafficChunk(start_bin=start_bin,
                        matrices={TrafficType.BYTES: matrix})


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

    def test_skipped_chunk_leaves_model_untouched(self):
        clean = self.make(_config(on_bad_chunk="quarantine"))
        dirty = self.make(_config(on_bad_chunk="quarantine"))
        for start in (0, BINS, 2 * BINS):
            clean.process_chunk(_chunk(start))
            dirty.process_chunk(_chunk(start))
            dirty.process_chunk(_chunk(start + BINS, poison=np.nan, seed=99))
        clean_report = clean.finish()
        dirty_report = dirty.finish()
        assert dirty_report.n_bad_chunks == 3
        assert clean_report.events == dirty_report.events
        assert (clean_report.n_bins_processed
                == dirty_report.n_bins_processed)

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

    def test_nan_chunk_after_warmup_matches_flat_run(self):
        config = _config(on_bad_chunk="quarantine")
        reference = StreamingNetworkDetector(config)
        detector = self.make(config)
        for start in range(0, 6 * BINS, BINS):
            chunk = _chunk(start)
            reference.process_chunk(chunk)
            detector.process_chunk(chunk)
            if start == 3 * BINS:  # 32 bins in: past min_train_bins=16
                warm = detector.report
                assert warm.n_warmup_bins < warm.n_bins_processed
                bad = _chunk(start + BINS, poison=np.nan, seed=99)
                reference.process_chunk(bad)
                assert detector.process_chunk(bad) == []
        expected = reference.finish()
        report = detector.finish()
        assert report.n_bad_chunks == expected.n_bad_chunks == 1
        full = report_parity(expected, report)
        assert all(full["equal"].values()), full["equal"]


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
