"""Seeded randomized property tests of the streaming moment algebra.

Two algebraic guarantees the streaming and hierarchical drivers rest on:

1. **Chunking invariance** — with ``λ = 1``, any split of a stream into
   chunks yields the same mean/covariance as ``np.cov`` of the full
   history, regardless of chunk boundaries.
2. **Temporal Chan merge** — engines over disjoint consecutive segments
   combine exactly: associative for every ``λ``, commutative at ``λ = 1``.
"""

import numpy as np
import pytest

from repro.streaming import OnlinePCA, merge_online_pca

#: Number of randomized draws per property (seeded, so deterministic).
N_TRIALS = 10


def _random_stream(rng, n_bins=None, n_features=None):
    """A correlated random stream with nontrivial spectrum and offset."""
    n = int(n_bins if n_bins is not None else rng.integers(30, 200))
    p = int(n_features if n_features is not None else rng.integers(3, 24))
    k = int(rng.integers(1, p + 1))
    latent = rng.normal(size=(n, k))
    mixing = rng.normal(size=(k, p))
    return latent @ mixing + rng.normal(scale=20.0, size=p) + 50.0


def _random_splits(rng, n_bins):
    """Random chunk boundaries 0 < s1 < ... < n_bins (possibly none)."""
    n_cuts = int(rng.integers(0, min(8, n_bins)))
    cuts = sorted(rng.choice(np.arange(1, n_bins), size=n_cuts, replace=False))
    return [0] + [int(c) for c in cuts] + [n_bins]


def _feed(engine, matrix, bounds):
    for start, stop in zip(bounds[:-1], bounds[1:]):
        engine.partial_fit(matrix[start:stop])
    return engine


class TestChunkingInvariance:
    def test_any_split_matches_full_history_cov(self):
        rng = np.random.default_rng(20040101)
        for _ in range(N_TRIALS):
            matrix = _random_stream(rng)
            bounds = _random_splits(rng, matrix.shape[0])
            engine = _feed(OnlinePCA(), matrix, bounds)
            np.testing.assert_allclose(engine.mean, matrix.mean(axis=0),
                                       rtol=1e-9, atol=1e-9)
            np.testing.assert_allclose(engine.covariance(),
                                       np.cov(matrix, rowvar=False),
                                       rtol=1e-8, atol=1e-8)

    def test_two_different_splits_agree_with_each_other(self):
        rng = np.random.default_rng(19970423)
        for _ in range(N_TRIALS):
            matrix = _random_stream(rng)
            first = _feed(OnlinePCA(), matrix,
                          _random_splits(rng, matrix.shape[0]))
            second = _feed(OnlinePCA(), matrix,
                           _random_splits(rng, matrix.shape[0]))
            np.testing.assert_allclose(first.covariance(), second.covariance(),
                                       rtol=1e-9, atol=1e-9)
            assert first.n_bins_seen == second.n_bins_seen
            assert first.weight_sum == pytest.approx(second.weight_sum)

    def test_chunking_invariance_extends_to_eigenbasis(self):
        rng = np.random.default_rng(11)
        matrix = _random_stream(rng, n_bins=150, n_features=12)
        whole = OnlinePCA().partial_fit(matrix)
        chunked = _feed(OnlinePCA(), matrix, _random_splits(rng, 150))
        np.testing.assert_allclose(whole.eigenbasis()[0],
                                   chunked.eigenbasis()[0],
                                   rtol=1e-8, atol=1e-8)


class TestTemporalChanMerge:
    def test_merge_equals_single_engine_over_segments(self):
        rng = np.random.default_rng(314)
        for _ in range(N_TRIALS):
            matrix = _random_stream(rng)
            bounds = _random_splits(rng, matrix.shape[0])
            single = _feed(OnlinePCA(), matrix, bounds)
            merged = OnlinePCA()
            for start, stop in zip(bounds[:-1], bounds[1:]):
                merged = merge_online_pca(
                    merged, OnlinePCA().partial_fit(matrix[start:stop]))
            np.testing.assert_allclose(merged.covariance(),
                                       single.covariance(),
                                       rtol=1e-9, atol=1e-9)
            assert merged.n_bins_seen == single.n_bins_seen

    def test_merge_is_associative_for_any_forgetting(self):
        rng = np.random.default_rng(2718)
        for lam in (1.0, 0.97):
            matrix = _random_stream(rng, n_bins=180, n_features=8)
            a = OnlinePCA(forgetting=lam).partial_fit(matrix[:60])
            b = OnlinePCA(forgetting=lam).partial_fit(matrix[60:120])
            c = OnlinePCA(forgetting=lam).partial_fit(matrix[120:])
            left = merge_online_pca(merge_online_pca(a, b), c)
            right = merge_online_pca(a, merge_online_pca(b, c))
            np.testing.assert_allclose(left.covariance(), right.covariance(),
                                       rtol=1e-10, atol=1e-10)
            assert left.weight_sum == pytest.approx(right.weight_sum)
            assert left.effective_samples == \
                pytest.approx(right.effective_samples)

    def test_merge_is_commutative_without_forgetting(self):
        rng = np.random.default_rng(161803)
        matrix = _random_stream(rng, n_bins=100, n_features=9)
        a = OnlinePCA().partial_fit(matrix[:37])
        b = OnlinePCA().partial_fit(matrix[37:])
        ab = merge_online_pca(a, b)
        ba = merge_online_pca(b, a)
        np.testing.assert_allclose(ab.covariance(), ba.covariance(),
                                   rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(ab.mean, ba.mean, rtol=1e-12, atol=1e-12)

    def test_merge_with_empty_engine_is_identity(self):
        rng = np.random.default_rng(5)
        matrix = _random_stream(rng, n_bins=50, n_features=6)
        engine = OnlinePCA().partial_fit(matrix)
        for merged in (merge_online_pca(OnlinePCA(), engine),
                       merge_online_pca(engine, OnlinePCA())):
            np.testing.assert_array_equal(merged.covariance(),
                                          engine.covariance())
            assert merged.n_bins_seen == engine.n_bins_seen

    def test_merge_rejects_mismatched_engines(self):
        with pytest.raises(ValueError):
            merge_online_pca(OnlinePCA(forgetting=1.0),
                             OnlinePCA(forgetting=0.9))
        a = OnlinePCA().partial_fit(np.ones((3, 4)))
        b = OnlinePCA().partial_fit(np.ones((3, 5)))
        with pytest.raises(ValueError):
            merge_online_pca(a, b)
