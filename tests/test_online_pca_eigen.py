"""The top-k eigenbasis route: ``eigvalsh`` spectrum + filtered top-k block.

:func:`repro.streaming.online_pca.top_eigenbasis` must agree with the full
``eigh_descending`` on every spectrum shape the detector can meet — the
eigenvalues to ``1e-12·λ₁``, the top-k subspace wherever the spectrum has
a gap — and hand back orthonormal, read-only axes.  Where the filter
cannot separate the block (rank ≤ b, p ≤ b, an all-zero covariance) it
must take the ``eigh`` path itself, and a block that misses its tolerance
must fall back to ``eigh`` *and be counted*.  Because the start block is
seeded, the axes are a pure function of the covariance, so a detector
restored from a checkpoint recalibrates to bitwise the same snapshot (the
restart cells of ``tests/test_driver_oracle.py`` check it).
"""

import dataclasses

import numpy as np
import pytest

from repro.datasets import DatasetConfig, generate_abilene_dataset
from repro.streaming import (
    OnlinePCA,
    StreamingConfig,
    StreamingNetworkDetector,
    chunk_series,
    eigh_descending,
)
from repro.streaming import online_pca
from repro.streaming.online_pca import top_eigenbasis
from repro.telemetry import HealthSnapshot
from repro.topology import random_backbone

K = 4
P = 200


def _basis(size, seed):
    """A seeded random ``size x size`` orthogonal matrix."""
    rng = np.random.default_rng(seed)
    return np.linalg.qr(rng.standard_normal((size, size)))[0]


def _covariance(values, seed):
    """``Q diag(values) Qᵀ`` for ``Q = _basis(len(values), seed)``."""
    values = np.asarray(values, dtype=float)
    basis = _basis(values.size, seed)
    return (basis * values) @ basis.T


def _tail(size, start, ratio=0.97):
    return start * ratio ** np.arange(size)


def _sin_top(reference, axes, j):
    """Sine of the largest principal angle between two j-dim subspaces,
    as ``‖(I − RRᵀ)A‖₂`` (``√(1 − cos²)`` bottoms out near 2e-8)."""
    ref, ours = reference[:, :j], axes[:, :j]
    return float(np.linalg.norm(ours - ref @ (ref.T @ ours), 2))


def _assert_matches_eigh(covariance, n_axes=K, gap_at=None):
    """Spectrum within 1e-12·λ₁, orthonormal read-only axes, and the top
    ``gap_at`` subspace within the Davis–Kahan bound of its gap."""
    values, axes, fell_back = top_eigenbasis(covariance, n_axes)
    ref_values, ref_axes = eigh_descending(covariance)
    top = max(float(ref_values[0]), np.finfo(float).tiny)
    assert not fell_back
    assert values.shape == ref_values.shape
    np.testing.assert_allclose(values, ref_values, rtol=0, atol=1e-12 * top)
    assert np.all(np.diff(values) <= 0) and values.min() >= 0.0
    assert axes.shape == (covariance.shape[0], n_axes)
    np.testing.assert_allclose(axes.T @ axes, np.eye(n_axes), atol=1e-12)
    assert not values.flags.writeable and not axes.flags.writeable
    assert axes.flags.c_contiguous and axes.flags.owndata
    if gap_at is not None:
        gap = ref_values[gap_at - 1] - ref_values[gap_at]
        # Davis–Kahan: the route's residuals (≤ 1e-12·λ₁ per axis, so
        # ≤ 2e-12·λ₁ over four) over the gap, with room for eigh's own error.
        assert _sin_top(ref_axes, axes, gap_at) <= 1e-11 * top / gap
    return values, axes


class TestAgreesWithEigh:
    def test_clustered_top_spectrum(self):
        values = np.concatenate([[10.0, 9.99, 9.98, 9.97],
                                 _tail(P - 4, 2.0)])
        covariance = _covariance(values, 1)
        _, axes = _assert_matches_eigh(covariance, gap_at=K)
        ritz = np.einsum("ij,ij->j", axes, covariance @ axes)
        residual = covariance @ axes - axes * ritz
        assert np.linalg.norm(residual, axis=0).max() <= 2e-12 * values[0]

    def test_near_degenerate_k_and_k_plus_1(self):
        # λ_k ≈ λ_{k+1}: the top-k subspace is ill-defined, but the top
        # k-1 (gap below λ_{k-1}) and the spectrum are not.
        values = np.concatenate([[50.0, 20.0, 8.0, 3.0, 3.0 - 1e-9],
                                 _tail(P - 5, 0.5)])
        _assert_matches_eigh(_covariance(values, 2), gap_at=K - 1)

    def test_dominant_first_axis(self):
        # λ₂/λ₁ = 0.02: without re-orthonormalizing between filter rounds
        # every column of the block collapses onto the first axis.
        values = np.concatenate([[1.0, 0.02, 0.015, 0.011],
                                 _tail(P - 4, 0.004)])
        _assert_matches_eigh(_covariance(values, 3), gap_at=K)

    def test_rank_deficient_with_zero_variance_flows(self):
        # n < p bins, and 30 OD flows that never carry traffic.
        rng = np.random.default_rng(4)
        n_bins = 120
        data = rng.standard_normal((n_bins, P)) * np.linspace(5, 0.1, P)
        data[:, :6] += rng.standard_normal((n_bins, 1)) * 40.0
        data[:, -30:] = 7.0
        engine = OnlinePCA().partial_fit(data)
        covariance = engine.covariance()
        values, _ = _assert_matches_eigh(covariance, gap_at=1)
        assert np.count_nonzero(values > 1e-9 * values[0]) < n_bins

    def test_other_axis_counts(self):
        values = np.concatenate([[9.0, 7.0, 5.0, 4.0, 3.0, 2.5],
                                 _tail(P - 6, 1.0)])
        for n_axes in (1, 2, 6):
            _assert_matches_eigh(_covariance(values, 5), n_axes=n_axes,
                                 gap_at=n_axes)


class TestEighPaths:
    """Where the filter interval collapses, the route itself runs eigh."""

    def _assert_is_eigh(self, covariance, n_axes=K):
        values, axes, fell_back = top_eigenbasis(covariance, n_axes)
        ref_values, ref_axes = eigh_descending(covariance)
        assert not fell_back
        np.testing.assert_array_equal(values, ref_values)
        np.testing.assert_array_equal(axes, ref_axes[:, :n_axes])
        assert not values.flags.writeable and not axes.flags.writeable
        assert axes.flags.c_contiguous and axes.flags.owndata

    def test_rank_at_most_block_size(self):
        rng = np.random.default_rng(6)
        engine = OnlinePCA().partial_fit(rng.standard_normal((2 * K, P)))
        assert engine.rank <= 2 * K
        self._assert_is_eigh(engine.covariance())

    def test_p_at_most_block_size(self):
        values = [5.0, 4.0, 3.0, 2.0, 1.0, 0.5]
        self._assert_is_eigh(_covariance(values, 7))

    def test_all_zero_covariance(self):
        self._assert_is_eigh(np.zeros((P, P)))
        values, _, _ = top_eigenbasis(np.zeros((P, P)), K)
        assert not values.any()


class TestEngineEigenbasis:
    @pytest.fixture(scope="class")
    def engine(self):
        rng = np.random.default_rng(8)
        data = rng.standard_normal((400, P)) * np.linspace(6, 0.2, P)
        data[:, :20] += rng.standard_normal((400, 3)) @ rng.random((3, 20)) * 9
        return OnlinePCA().partial_fit(data)

    def test_no_argument_is_the_full_eigh(self, engine):
        values, axes = engine.eigenbasis()
        ref_values, ref_axes = eigh_descending(engine.covariance())
        np.testing.assert_array_equal(values, ref_values)
        np.testing.assert_array_equal(axes, ref_axes)

    def test_top_k_is_cached_per_request(self, engine):
        first = engine.eigenbasis(K)
        assert engine.eigenbasis(K)[1] is first[1]
        assert engine.eigenbasis(K + 1)[1].shape == (P, K + 1)
        assert engine.eigen_fallbacks == 0

    def test_forced_round_cap_falls_back_to_eigh_and_counts(self, engine,
                                                            monkeypatch):
        monkeypatch.setattr(online_pca, "_MAX_FILTER_ROUNDS", 0)
        fresh = OnlinePCA.from_state(**engine.state_dict())
        values, axes = fresh.eigenbasis(K)
        ref_values, ref_axes = eigh_descending(fresh.covariance())
        np.testing.assert_array_equal(values, ref_values)
        np.testing.assert_array_equal(axes, ref_axes[:, :K])
        assert fresh.eigen_fallbacks == 1
        fresh.eigenbasis(K)  # cached: no second decomposition
        assert fresh.eigen_fallbacks == 1


def test_block_missing_a_top_axis_falls_back(monkeypatch):
    # A start block spanning exactly eigenvectors 2..b+1 converges at once
    # onto eigenpairs — small residuals — but not the top ones: the Ritz
    # values must be checked against the spectrum, not only the residuals.
    values = np.concatenate([[10.0, 9.99, 9.98, 9.97], _tail(P - 4, 2.0)])
    basis = _basis(P, 9)
    covariance = (basis * values) @ basis.T
    monkeypatch.setattr(online_pca, "_start_block",
                        lambda p, b: basis[:, 1:b + 1].copy())
    values, axes, fell_back = top_eigenbasis(covariance, K)
    ref_values, ref_axes = eigh_descending(covariance)
    assert fell_back
    np.testing.assert_array_equal(values, ref_values)
    np.testing.assert_array_equal(axes, ref_axes[:, :K])


# --------------------------------------------------------------------- #
# detector integration on a wider backbone
# --------------------------------------------------------------------- #
CHUNK = 32


@pytest.fixture(scope="module")
def wide_series():
    """One day over a random 14-PoP backbone: p = 196 OD flows."""
    network = random_backbone(14, seed=3)
    dataset = generate_abilene_dataset(DatasetConfig(weeks=1.0 / 7.0),
                                       seed=21, network=network)
    assert dataset.series.n_od_pairs == 196
    return dataset.series


@pytest.fixture(scope="module")
def wide_config():
    return StreamingConfig(min_train_bins=96, recalibrate_every_bins=32)


def test_fallbacks_reach_the_registry(wide_series, wide_config, monkeypatch):
    chunks = list(chunk_series(wide_series, CHUNK))[:6]
    config = dataclasses.replace(wide_config, telemetry=True)
    healthy = StreamingNetworkDetector(config)
    for chunk in chunks:
        healthy.process_chunk(chunk)
    snapshot = HealthSnapshot.from_registry(healthy.telemetry.registry)
    assert snapshot.recalibrations > 0 and snapshot.eigen_fallbacks == 0
    assert healthy.telemetry.registry.labeled("eigen_fallbacks")

    monkeypatch.setattr(online_pca, "_MAX_FILTER_ROUNDS", 0)
    capped = StreamingNetworkDetector(config)
    for chunk in chunks:
        capped.process_chunk(chunk)
    snapshot = HealthSnapshot.from_registry(capped.telemetry.registry)
    assert snapshot.eigen_fallbacks == snapshot.recalibrations > 0
