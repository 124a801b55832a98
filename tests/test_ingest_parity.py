"""Round-trip parity: generator path ≡ CSV export → parse → bin path.

The ingestion plane's acceptance bar is bit-identical matrices and
identical detection events against the in-memory generator path, with and
without sampled-NetFlow thinning, plus an unbiasedness property for the
sampling inversion itself.
"""

import numpy as np
import pytest

from repro.flows.sampling import SamplingConfig, sample_flow_records
from repro.ingest import IngestConfig, round_trip_check
from repro.streaming.config import StreamingConfig
from repro.traffic.flowgen import FlowSynthesizer

STREAM_CONFIG = StreamingConfig(min_train_bins=96, recalibrate_every_bins=48)


@pytest.fixture(scope="module")
def window(clean_series):
    return clean_series.window(0, 192)


class TestRoundTrip:
    def test_plain_round_trip_is_byte_identical(self, window, abilene,
                                                tmp_path_factory):
        path = tmp_path_factory.mktemp("rt") / "flows.csv"
        report = round_trip_check(window, abilene, str(path), seed=3,
                                  max_flows_per_cell=2,
                                  streaming_config=STREAM_CONFIG)
        assert report.matrices_identical
        assert report.events_identical
        assert report.max_abs_difference == 0.0
        assert report.n_records_exported > 10_000
        assert report.n_direct_events == report.n_ingest_events > 0
        assert report.ok

    def test_sampled_round_trip_is_byte_identical(self, window, abilene,
                                                  tmp_path_factory):
        path = tmp_path_factory.mktemp("rt") / "sampled.csv"
        report = round_trip_check(window, abilene, str(path), seed=3,
                                  max_flows_per_cell=2,
                                  sampling=SamplingConfig(sampling_rate=0.5),
                                  streaming_config=STREAM_CONFIG)
        assert report.ok
        assert report.max_abs_difference == 0.0

    def test_bin_split_across_parse_batches_is_byte_identical(
            self, clean_dataset, abilene, tmp_path):
        # Small parse batches split chunk-final bins across batches: the
        # high-water bin must stay open until its remaining records (in
        # the next batch) arrived, even with no lateness slack.
        series = clean_dataset.series.window(0, 192)
        binning = series.binning
        ingest = IngestConfig(chunk_size=8, batch_rows=257,
                              bin_seconds=binning.bin_seconds,
                              start_seconds=binning.start_seconds,
                              n_bins=binning.n_bins)
        assert ingest.lateness_bins == 0
        report = round_trip_check(series, abilene,
                                  str(tmp_path / "split.csv"), seed=12,
                                  max_flows_per_cell=2,
                                  streaming_config=STREAM_CONFIG,
                                  ingest_config=ingest)
        assert report.matrices_identical
        assert report.max_abs_difference == 0.0
        assert report.ok

    def test_mismatched_ingest_binning_is_rejected(self, window, abilene,
                                                   tmp_path):
        with pytest.raises(ValueError, match="match the series binning"):
            round_trip_check(window, abilene, str(tmp_path / "x.csv"),
                             seed=3, max_flows_per_cell=2,
                             ingest_config=IngestConfig(bin_seconds=60))


class TestSamplingInversion:
    @pytest.fixture(scope="class")
    def true_records(self, abilene, clean_series):
        synthesizer = FlowSynthesizer(abilene, seed=1, max_flows_per_cell=2)
        return list(synthesizer.synthesize_series(clean_series.window(0, 4)))

    def test_inversion_is_unbiased_over_seeds(self, true_records):
        # Property: E[sampled bytes × 1/q] = true bytes.  Averaging the
        # rescaled estimate over independent sampling seeds must converge
        # on the true total.
        config = SamplingConfig(sampling_rate=0.5)
        true_total = sum(r.bytes for r in true_records)
        estimates = []
        for seed in range(20):
            sampled = sample_flow_records(true_records, config, seed=seed)
            estimates.append(config.inverse_rate
                             * sum(r.bytes for r in sampled))
        assert np.isclose(np.mean(estimates), true_total, rtol=0.02)
        # Individual draws actually vary: this is sampling, not a copy.
        assert np.std(estimates) > 0

    def test_rescaled_exports_need_no_second_inversion(self, true_records):
        # rescale=True bakes 1/q into the records; the binner must then
        # apply 1.0, not 1/q again.
        rescaled = SamplingConfig(sampling_rate=0.5, rescale=True)
        plain = SamplingConfig(sampling_rate=0.5)
        assert IngestConfig(sampling=rescaled).inverse_rate == 1.0
        assert IngestConfig(sampling=plain).inverse_rate == 2.0
        assert IngestConfig().inverse_rate == 1.0

        a = sample_flow_records(true_records, rescaled, seed=9)
        b = sample_flow_records(true_records, plain, seed=9)
        assert sum(r.bytes for r in a) \
            == pytest.approx(2.0 * sum(r.bytes for r in b))
