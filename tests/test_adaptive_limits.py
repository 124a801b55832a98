"""The adaptive (empirical-quantile) control-limit policy.

Covers the policy mechanics (freeze-on-alarm censoring, warm-up, clamped
drift, scale bounds), the zero-drift reduction property — with
``max_drift = 0`` the adaptive policy must flag **exactly** the bins the
fixed :func:`~repro.core.limits.control_limits` policy flags, for any
stream and any chunking — and checkpoint restart parity of the adaptive
state.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.limits import ControlLimits
from repro.streaming import (
    AdaptiveControlLimits,
    StreamingConfig,
    StreamingSubspaceDetector,
    chunk_series,
    make_limits_policy,
    replay_network_anomalies,
    stream_detect,
)

_SETTINGS = settings(max_examples=25, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])

LIMITS = ControlLimits(spe=10.0, t2=5.0, confidence=0.999)


def _policy(**overrides):
    knobs = dict(confidence=0.999, warmup_bins=8, smoothing=0.5,
                 max_drift=0.25, block_bins=4, freeze_factor=4.0)
    knobs.update(overrides)
    return AdaptiveControlLimits(**knobs)


class TestPolicyMechanics:
    def test_starts_as_the_fixed_policy(self):
        policy = _policy()
        assert policy.scales == {"spe": 1.0, "t2": 1.0}
        assert policy.apply(LIMITS) == LIMITS

    @pytest.mark.parametrize("knobs", [
        {"confidence": 1.5},
        {"warmup_bins": 0},
        {"smoothing": 0.0},
        {"smoothing": 1.5},
        {"max_drift": -0.1},
        {"block_bins": 0},
        {"freeze_factor": 1.0},
        {"scale_bounds": (0.0, 8.0)},
        {"scale_bounds": (1.5, 8.0)},
        {"scale_bounds": (0.5, 0.9)},
    ])
    def test_rejects_invalid_knobs(self, knobs):
        with pytest.raises(ValueError):
            _policy(**knobs)

    def test_hot_statistics_raise_the_scale_gradually(self):
        policy = _policy(warmup_bins=1, max_drift=0.25)
        hot = np.full(4, 2.0 * LIMITS.spe)       # hot, but under the cap
        calm_t2 = np.full(4, 0.5 * LIMITS.t2)
        policy.observe(hot, calm_t2, LIMITS)
        # One block completed: the SPE scale moved up, clamped to +25%.
        assert policy.scales["spe"] == pytest.approx(1.25)
        assert policy.scales["t2"] == 1.0         # one-sided floor
        assert policy.n_updates == 2
        before = policy.scales["spe"]
        policy.observe(hot, calm_t2, LIMITS)
        assert policy.scales["spe"] == pytest.approx(before * 1.25)

    def test_freeze_on_alarm_censors_extreme_values(self):
        policy = _policy(warmup_bins=1, freeze_factor=4.0)
        anomalous = np.full(4, 100.0 * LIMITS.spe)  # way past the cap
        calm_t2 = np.full(4, 0.5 * LIMITS.t2)
        policy.observe(anomalous, calm_t2, LIMITS)
        # All four SPE values frozen: no SPE block completes, scale pinned.
        assert policy.scales["spe"] == 1.0
        assert policy.n_frozen_bins == 4

    def test_scale_decays_back_to_the_floor(self):
        policy = _policy(warmup_bins=1, max_drift=1.0, smoothing=1.0)
        hot = np.full(4, 3.0 * LIMITS.spe)
        calm_t2 = np.full(4, 0.5 * LIMITS.t2)
        policy.observe(hot, calm_t2, LIMITS)
        assert policy.scales["spe"] > 1.0
        for _ in range(8):
            policy.observe(np.full(4, 0.1 * LIMITS.spe), calm_t2, LIMITS)
        assert policy.scales["spe"] == 1.0        # back at the floor

    def test_scale_bounds_cap_total_drift(self):
        policy = _policy(warmup_bins=1, max_drift=10.0, smoothing=1.0,
                         freeze_factor=1e9, scale_bounds=(1.0, 2.0))
        calm_t2 = np.full(4, 0.5 * LIMITS.t2)
        for _ in range(5):
            policy.observe(np.full(4, 100.0 * LIMITS.spe), calm_t2, LIMITS)
        assert policy.scales["spe"] == 2.0

    def test_warmup_discards_early_blocks(self):
        policy = _policy(warmup_bins=1000)
        hot = np.full(8, 2.0 * LIMITS.spe)
        policy.observe(hot, hot, LIMITS)
        assert policy.n_updates == 0
        assert policy.scales == {"spe": 1.0, "t2": 1.0}
        assert not policy.is_warmed_up

    def test_state_roundtrip_is_exact(self):
        policy = _policy(warmup_bins=1)
        rng = np.random.default_rng(7)
        for _ in range(5):
            policy.observe(rng.gamma(2.0, LIMITS.spe, size=7),
                           rng.gamma(2.0, LIMITS.t2, size=7), LIMITS)
        state = policy.state_dict()
        twin = AdaptiveControlLimits.from_state(state["meta"],
                                                state["arrays"])
        assert twin.scales == policy.scales
        assert twin.n_clean_bins == policy.n_clean_bins
        assert twin.n_frozen_bins == policy.n_frozen_bins
        assert twin.n_updates == policy.n_updates
        assert twin.state_dict()["meta"] == state["meta"]
        for key, value in state["arrays"].items():
            np.testing.assert_array_equal(twin.state_dict()["arrays"][key],
                                          value)

    def test_rejects_unknown_state_kind(self):
        state = _policy().state_dict()
        state["meta"]["kind"] = "something-else"
        with pytest.raises(ValueError):
            AdaptiveControlLimits.from_state(state["meta"], state["arrays"])


class TestConfigWiring:
    def test_fixed_config_has_no_policy(self):
        assert make_limits_policy(StreamingConfig()) is None
        assert StreamingSubspaceDetector(StreamingConfig()).limits_policy is None

    def test_adaptive_config_builds_the_default_policy(self):
        config = StreamingConfig(limits="adaptive", confidence=0.99)
        policy = make_limits_policy(config)
        assert isinstance(policy, AdaptiveControlLimits)
        detector = StreamingSubspaceDetector(config)
        assert isinstance(detector.limits_policy, AdaptiveControlLimits)
        state = detector.limits_policy.state_dict()["meta"]
        assert state == AdaptiveControlLimits(
            confidence=0.99).state_dict()["meta"]

    def test_config_rejects_an_unknown_policy(self):
        with pytest.raises(ValueError):
            StreamingConfig(limits="quantile")

    def test_replay_rejects_adaptive_limits(self, small_dataset):
        with pytest.raises(ValueError, match="fixed control-limit"):
            replay_network_anomalies(small_dataset.series, 64,
                                     StreamingConfig(limits="adaptive"))

    def test_config_roundtrips_through_dict(self):
        config = StreamingConfig(limits="adaptive", confidence=0.99)
        assert StreamingConfig.from_dict(config.to_dict()) == config


def _synthetic_stream(seed, n_bins, n_features):
    rng = np.random.default_rng(seed)
    latent = rng.normal(size=(n_bins, 3))
    mixing = rng.normal(size=(3, n_features)) * np.array([[5.0], [3.0], [2.0]])
    return latent @ mixing + rng.normal(scale=0.5, size=(n_bins, n_features)) + 30.0


@contextmanager
def _zero_drift(**knobs):
    """Detectors built inside get an adaptive policy with ``max_drift = 0``."""
    def policy(config):
        if config.limits != "adaptive":
            return None
        return AdaptiveControlLimits(confidence=config.confidence,
                                     max_drift=0.0, **knobs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.streaming.detector.make_limits_policy", policy)
        yield


class TestZeroDriftReduction:
    """``max_drift = 0`` must reduce the adaptive policy to the fixed one
    exactly."""

    @_SETTINGS
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           chunk=st.integers(min_value=1, max_value=40),
           n_features=st.integers(min_value=5, max_value=12))
    def test_flags_identical_bins_on_any_stream(self, seed, chunk, n_features):
        stream = _synthetic_stream(seed, 120, n_features)
        base = dict(min_train_bins=16, recalibrate_every_bins=8,
                    identify=False)
        fixed = StreamingSubspaceDetector(StreamingConfig(**base))
        with _zero_drift(warmup_bins=1, block_bins=4):
            adaptive = StreamingSubspaceDetector(
                StreamingConfig(limits="adaptive", **base))
        assert adaptive.limits_policy.state_dict()["meta"]["max_drift"] == 0
        for start in range(0, stream.shape[0], chunk):
            block = stream[start:start + chunk]
            result_fixed = fixed.process_chunk(block)
            result_adaptive = adaptive.process_chunk(block)
            assert result_adaptive.warmup == result_fixed.warmup
            assert (result_adaptive.anomalous_bins
                    == result_fixed.anomalous_bins)
            if not result_fixed.warmup:
                assert result_adaptive.limits == result_fixed.limits

    def test_full_pipeline_events_identical(self, small_dataset):
        base = dict(min_train_bins=128, recalibrate_every_bins=32)
        fixed = stream_detect(chunk_series(small_dataset.series, 48),
                              StreamingConfig(**base))
        with _zero_drift():
            adaptive = stream_detect(
                chunk_series(small_dataset.series, 48),
                StreamingConfig(limits="adaptive", **base))
        assert adaptive.events == fixed.events
        assert adaptive.detections == fixed.detections


class TestCheckpointRestartParity:
    """A restored adaptive-limits detector restores its policy state bit for
    bit and emits the identical remaining events: the restart cells of the
    ``drifting_week`` corpus in ``tests/test_driver_oracle.py``.  Here: a
    checkpoint whose policy state disagrees with the config is refused."""

    CHUNK = 48

    @pytest.fixture(scope="class")
    def adaptive_config(self):
        return StreamingConfig(min_train_bins=128, recalibrate_every_bins=32,
                               limits="adaptive")

    def test_mismatched_policy_state_is_rejected(self, small_dataset,
                                                 adaptive_config):
        detector = StreamingSubspaceDetector(adaptive_config)
        detector.process_chunk(small_dataset.series.matrix("bytes")[:200])
        state = detector.state_dict()
        fixed_config = StreamingConfig(min_train_bins=128)
        with pytest.raises(ValueError, match="adaptive-limits state"):
            StreamingSubspaceDetector.from_state(fixed_config, state["meta"],
                                                 state["arrays"])
