"""The live (online) evaluation harness and its batch-vs-live deltas."""

import pytest

from repro.core.events import COMBINATION_LABELS
from repro.core.pipeline import detect_network_anomalies
from repro.datasets import DatasetConfig, generate_drifting_dataset
from repro.evaluation.live import (
    batch_reference,
    compare_batch_live,
    run_live_evaluation,
)
from repro.streaming import StreamingConfig

LIVE_CONFIG = StreamingConfig(min_train_bins=128, recalibrate_every_bins=32)


@pytest.fixture(scope="module")
def live_result(small_dataset):
    return run_live_evaluation(small_dataset, LIVE_CONFIG, chunk_size=48)


@pytest.fixture(scope="module")
def batch(small_dataset):
    return batch_reference(small_dataset)


class TestRunLiveEvaluation:
    def test_label_counts_cover_all_combination_labels(self, live_result):
        assert set(live_result.label_counts) == set(COMBINATION_LABELS)
        assert live_result.total_events == sum(
            len(w.events) for w in live_result.windows)

    def test_windows_tile_the_dataset(self, small_dataset, live_result):
        assert live_result.windows[0].start_bin == 0
        assert live_result.windows[-1].end_bin == small_dataset.n_bins
        for window in live_result.windows:
            assert window.report.n_bins_processed == (window.end_bin
                                                      - window.start_bin)

    def test_detects_most_injected_anomalies(self, live_result):
        assert live_result.metrics.n_ground_truth > 0
        assert live_result.metrics.detection_rate >= 0.5
        assert live_result.n_warmup_bins > 0

    def test_result_records_the_config_and_chunking_it_ran(self,
                                                           live_result):
        assert live_result.config == LIVE_CONFIG
        assert live_result.chunk_size == 48
        assert live_result.to_dict()["chunk_size"] == 48

    def test_to_dict_and_render(self, live_result):
        data = live_result.to_dict()
        assert data["n_events"] == live_result.total_events
        assert data["metrics"]["n_ground_truth"] == \
            live_result.metrics.n_ground_truth
        rendered = live_result.render()
        assert "Table 1 analogue" in rendered
        assert "detection rate" in rendered

    def test_rejects_unlabeled_datasets(self, clean_dataset):
        with pytest.raises(ValueError, match="no injected anomalies"):
            run_live_evaluation(clean_dataset, LIVE_CONFIG)


class TestBatchReference:
    def test_matches_direct_batch_diagnosis(self, small_dataset, batch):
        # small_dataset is shorter than a week: one window, so the counts
        # must equal a direct full-window batch run.
        report = detect_network_anomalies(small_dataset.series)
        assert batch.windows == [(0, small_dataset.n_bins)]
        assert batch.total_events == report.n_events
        for label, count in report.label_counts().items():
            assert batch.label_counts[label] == count

    def test_aggregates_metrics_against_ground_truth(self, small_dataset,
                                                     batch):
        assert batch.metrics.n_ground_truth == len(small_dataset.ground_truth)
        assert 0.0 <= batch.metrics.false_alarm_rate <= 1.0
        assert batch.to_dict()["n_events"] == batch.total_events


class TestCompareBatchLive:
    def test_delta_structure(self, batch, live_result):
        delta = compare_batch_live(batch, live_result)
        data = delta.to_dict()
        assert data["delta"]["n_events"] == (live_result.total_events
                                             - batch.total_events)
        parity = data["parity"]
        assert 0.0 <= parity["recall"] <= 1.0
        assert parity["span_recall"] >= parity["recall"]
        assert parity["n_batch"] == batch.total_events
        assert parity["n_streaming"] == live_result.total_events
        rendered = delta.render()
        assert "batch vs live" in rendered
        assert "event parity" in rendered

    def test_live_approximates_batch_on_stationary_data(self, batch,
                                                        live_result):
        delta = compare_batch_live(batch, live_result)
        # The live run loses at most the warmup region and grazing bins.
        assert delta.parity()["span_recall"] >= 0.5
        assert abs(delta.detection_rate_delta) <= 0.5

    def test_rejects_mismatched_windows(self, small_dataset, batch):
        drifting = generate_drifting_dataset(
            DatasetConfig(weeks=4.0 / 7.0), seed=3)
        other = run_live_evaluation(drifting, LIVE_CONFIG, chunk_size=48)
        with pytest.raises(ValueError, match="different windows"):
            compare_batch_live(batch, other)
