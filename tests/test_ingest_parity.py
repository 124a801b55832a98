"""Round-trip parity under sampling, and the sampling inversion itself.

The plain CSV round trip — export, parse (with bins split across parse
batches) and bin back to byte-identical OD matrices and identical events,
clean and dirty — is the ``csv`` and ``csv_dirty`` drivers of
``tests/test_driver_oracle.py``.  This module keeps what the oracle does
not run: the round trip with sampled-NetFlow thinning, the binning check of
``round_trip_check``, and an unbiasedness property for the inversion.
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
    def test_sampled_round_trip_is_byte_identical(self, window, abilene,
                                                  tmp_path_factory):
        path = tmp_path_factory.mktemp("rt") / "sampled.csv"
        report = round_trip_check(window, abilene, str(path), seed=3,
                                  max_flows_per_cell=2,
                                  sampling=SamplingConfig(sampling_rate=0.5),
                                  streaming_config=STREAM_CONFIG)
        assert report.ok
        assert report.max_abs_difference == 0.0

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
