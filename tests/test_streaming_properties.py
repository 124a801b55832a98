"""Seeded randomized property tests of the streaming moment algebra.

Three algebraic guarantees the sharded/parallel subsystem rests on:

1. **Chunking invariance** — with ``λ = 1``, any split of a stream into
   chunks yields the same mean/covariance as ``np.cov`` of the full
   history, regardless of chunk boundaries.
2. **Shard-merge associativity/commutativity** — for any shard count K
   (including K > p), the scatter assembled from the row blocks of K
   :class:`ShardWorkerMoments` equals the single-engine one, and the order
   the blocks are assembled in is irrelevant (bitwise).
3. **Temporal Chan merge** — engines over disjoint consecutive segments
   combine exactly: associative for every ``λ``, commutative at ``λ = 1``.
"""

import numpy as np
import pytest

from repro.streaming import (
    OnlinePCA,
    ShardWorkerMoments,
    merge_online_pca,
    partition_columns,
)

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


def _shard_workers(n_shards, matrix, bounds, forgetting=1.0):
    """*n_shards* shard workers that each ingested *matrix* in *bounds*."""
    return [_feed(ShardWorkerMoments(i, n_shards, forgetting), matrix,
                  bounds) for i in range(n_shards)]


def _assembled_scatter(workers):
    """The full scatter stacked from the workers' row blocks, in order."""
    p = workers[0].n_features
    scatter = np.full((p, p), np.nan)
    for worker in workers:
        scatter[worker.columns, :] = worker.block
    return scatter


def _assembled_covariance(workers):
    return _assembled_scatter(workers) / (workers[0].weight_sum - 1.0)


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


class TestShardMergeAlgebra:
    def test_random_partitions_match_single_engine(self):
        rng = np.random.default_rng(42)
        for _ in range(N_TRIALS):
            matrix = _random_stream(rng)
            p = matrix.shape[1]
            # Any shard count, including more shards than columns (the
            # trailing workers then own empty blocks).
            n_shards = int(rng.integers(1, p + 4))
            bounds = _random_splits(rng, matrix.shape[0])
            single = _feed(OnlinePCA(), matrix, bounds)
            workers = _shard_workers(n_shards, matrix, bounds)
            np.testing.assert_allclose(_assembled_covariance(workers),
                                       single.covariance(),
                                       rtol=1e-9, atol=1e-9)
            for worker in workers:
                np.testing.assert_array_equal(worker.mean, single.mean)
                assert worker.weight_sum == pytest.approx(single.weight_sum)
                assert worker.n_samples == single.n_samples
            assert sum(w.columns.size for w in workers) == p

    def test_shard_order_is_irrelevant_bitwise(self):
        # Commutativity in the partition: assembling the blocks in reverse
        # order yields the identical scatter, entry for entry.
        rng = np.random.default_rng(7)
        matrix = _random_stream(rng, n_bins=120, n_features=15)
        workers = _shard_workers(4, matrix, [0, 40, 80, 120])
        np.testing.assert_array_equal(
            _assembled_scatter(list(reversed(workers))),
            _assembled_scatter(workers))

    def test_refining_a_partition_is_associative(self):
        # K=2 and its K=4 refinement of the same stream agree: merging
        # (A ∪ B) and (C ∪ D) equals merging A, B, C, D.
        rng = np.random.default_rng(13)
        matrix = _random_stream(rng, n_bins=140, n_features=16)
        bounds = list(range(0, 141, 35))
        coarse = _shard_workers(2, matrix, bounds)
        fine = _shard_workers(4, matrix, bounds)
        assert [c.tolist() for c in partition_columns(16, 2)] == [
            list(range(0, 8)), list(range(8, 16))]
        np.testing.assert_allclose(_assembled_covariance(fine),
                                   _assembled_covariance(coarse),
                                   rtol=1e-12, atol=1e-12)

    def test_sharding_with_forgetting_matches_single_engine(self):
        rng = np.random.default_rng(99)
        for lam in (0.9, 0.99):
            matrix = _random_stream(rng, n_bins=160, n_features=10)
            bounds = list(range(0, 160, 23)) + [160]
            single = _feed(OnlinePCA(forgetting=lam), matrix, bounds)
            workers = _shard_workers(3, matrix, bounds, forgetting=lam)
            np.testing.assert_allclose(_assembled_covariance(workers),
                                       single.covariance(),
                                       rtol=1e-10, atol=1e-10)
            assert workers[0].effective_samples == \
                pytest.approx(single.effective_samples)

    def test_partition_helper_and_validation(self):
        partition = partition_columns(10, 4)
        assert [len(c) for c in partition] == [3, 3, 2, 2]
        assert partition_columns(3, 8) and len(partition_columns(3, 8)) == 3
        with pytest.raises(ValueError):
            partition_columns(10, 0)
        with pytest.raises(ValueError):
            ShardWorkerMoments(0, 0)
        with pytest.raises(ValueError):
            ShardWorkerMoments(2, 2)  # shard index out of range
        with pytest.raises(ValueError):
            ShardWorkerMoments(-1, 2)


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
