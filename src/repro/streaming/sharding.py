"""Column-sharded running moments and the exact parallel-moments merge.

Two ways to split the ``O(m p²)`` moment maintenance of
:class:`~repro.streaming.online_pca.OnlinePCA` across workers, both exact:

* **Column sharding** (:class:`ShardWorkerMoments`): the ``p`` OD-flow
  columns are partitioned into ``K`` shards
  (:func:`partition_columns`); shard ``k`` maintains the rows of the
  centered scatter matrix belonging to its columns (an
  ``|cols_k| x p`` block, ``O(m p²/K)`` work per chunk).  Because the full
  scatter is just the stack of those row blocks, assembling them yields a
  covariance that matches the single-engine one bit-compatibly (up to float
  accumulation order inside the BLAS), for **any** ``K`` — the assembly is
  independent of shard order.  All weighting/decay bookkeeping is
  inherited from the same ``_MomentTracker`` base the single engine uses,
  so the two cannot drift.  The shard-parallel driver
  (:mod:`repro.streaming.parallel`) runs one such shard per worker process.

* **Temporal sharding** (:func:`merge_online_pca`): engines that ingested
  *disjoint consecutive segments* of the stream are combined with the exact
  pairwise Chan et al. parallel-moments update — the same formula
  ``partial_fit`` applies per chunk, lifted to whole moment tuples.  With
  ``forgetting = 1`` the combine is associative *and* commutative, so
  per-worker moments can be reduced in any order.

Both guarantees are enforced by ``tests/test_streaming_properties.py`` and
``tests/test_streaming_sharding.py``.
"""

from __future__ import annotations

from typing import List, Mapping, Optional

import numpy as np

from repro.streaming.online_pca import OnlinePCA, _MomentTracker
from repro.utils.validation import require

__all__ = ["ShardWorkerMoments", "merge_online_pca", "partition_columns"]


def partition_columns(n_features: int, n_shards: int) -> List[np.ndarray]:
    """Contiguous balanced partition of ``range(n_features)`` into shards.

    Shards never exceed the column count: asking for more shards than
    columns yields one shard per column.
    """
    require(n_features >= 1, "n_features must be >= 1")
    require(n_shards >= 1, "n_shards must be >= 1")
    return list(np.array_split(np.arange(n_features), min(n_shards, n_features)))


class _ColumnShard:
    """One shard's rows of the centered scatter matrix."""

    __slots__ = ("columns", "block")

    def __init__(self, columns: np.ndarray, n_features: int) -> None:
        self.columns = columns
        self.block = np.zeros((columns.size, n_features))

    def update(self, centered: np.ndarray, weights: Optional[np.ndarray],
               delta: np.ndarray, decay: float, outer_coefficient: float) -> None:
        """Apply one chunk's scatter update restricted to this shard's rows."""
        own = centered[:, self.columns]
        if weights is None:
            chunk_block = own.T @ centered
        else:
            chunk_block = (own * weights[:, np.newaxis]).T @ centered
        self.block = (
            self.block * decay
            + chunk_block
            + np.outer(delta[self.columns], delta) * outer_coefficient
        )


class ShardWorkerMoments(_MomentTracker):
    """One shard's moments, owned end to end by a remote worker process.

    The distributed driver (:mod:`repro.streaming.parallel`) gives each
    worker process one column shard of **every** per-type detector.  The
    worker replays the full ``_MomentTracker`` scalar
    arithmetic locally — the ``O(m p)`` mean/weight bookkeeping is
    duplicated across workers so no per-chunk scalar messages are needed,
    and because the arithmetic is deterministic on identical float64 input
    every worker's scalars agree bit-for-bit with the coordinator's — while
    storing only its own ``|cols| x p`` row block of the scatter (the
    ``O(m p²/K)`` share that is the point of the split).

    Stacking the blocks of all ``K`` workers reproduces the single-engine
    scatter bit-compatibly, which is what the coordinator does at
    calibration time.
    """

    def __init__(self, shard_index: int, n_shards: int,
                 forgetting: float = 1.0) -> None:
        require(n_shards >= 1, "n_shards must be >= 1")
        require(0 <= shard_index < n_shards,
                "shard_index must lie in [0, n_shards)")
        super().__init__(forgetting)
        self._shard_index = int(shard_index)
        self._total_shards = int(n_shards)
        self._shard: Optional[_ColumnShard] = None

    @property
    def columns(self) -> np.ndarray:
        """This shard's owned columns (empty before the first chunk)."""
        if self._shard is None:
            return np.empty(0, dtype=int)
        return self._shard.columns.copy()

    @property
    def block(self) -> np.ndarray:
        """The owned ``|cols| x p`` scatter row block (copy)."""
        require(self._shard is not None, "no data ingested yet")
        return self._shard.block.copy()

    def _initialize_scatter(self, n_features: int) -> None:
        partition = partition_columns(n_features, self._total_shards)
        # More workers than columns: trailing shards own nothing and their
        # blocks are empty (0 x p) — assembly still covers every row.
        columns = (partition[self._shard_index]
                   if self._shard_index < len(partition)
                   else np.empty(0, dtype=int))
        self._shard = _ColumnShard(columns, n_features)

    @classmethod
    def from_seed(cls, shard_index: int, n_shards: int, forgetting: float,
                  meta: Mapping, mean: np.ndarray,
                  block: np.ndarray) -> "ShardWorkerMoments":
        """A worker tracker resumed from checkpointed flat moments.

        *meta* are the flat engine's scalars (``_scalar_state`` output),
        *mean* its full length-``p`` mean, and *block* the
        ``|cols| x p`` scatter rows this shard owns under
        :func:`partition_columns` — the supervisor's restart path seeds
        replacement workers with exactly the state the dead ones carried
        at the last good checkpoint.
        """
        engine = cls(shard_index, n_shards, forgetting)
        mean = np.array(mean, dtype=float)
        engine._n_features = mean.size
        engine._mean = mean
        engine._initialize_scatter(mean.size)
        block = np.array(block, dtype=float)
        require(block.shape == engine._shard.block.shape,
                "seed block shape does not match this shard's column count")
        engine._shard.block = block
        engine._restore_scalars(meta)
        return engine

    def _apply_scatter_update(self, centered: np.ndarray,
                              weights: Optional[np.ndarray],
                              delta: np.ndarray, decay: float,
                              outer_coefficient: float) -> None:
        self._shard.update(centered, weights, delta, decay, outer_coefficient)

    def covariance(self) -> np.ndarray:
        raise NotImplementedError(
            "a single shard cannot produce the full covariance; assemble "
            "the blocks of all shards in the coordinator")


def merge_online_pca(earlier: OnlinePCA, later: OnlinePCA) -> OnlinePCA:
    """Combine engines over disjoint consecutive stream segments, exactly.

    This is the pairwise Chan et al. parallel-moments update applied to two
    whole moment tuples: *earlier* holds the moments of the first segment,
    *later* those of the segment that follows it.  With ``forgetting = 1``
    the operation is associative and commutative (segment order is
    irrelevant); with ``λ < 1`` it stays associative but weights *earlier*
    down by ``λ^m`` for the ``m`` bins *later* ingested, so order matters —
    exactly as if the segments had been streamed through one engine.

    A pair of :class:`~repro.streaming.low_rank.LowRankEigenTracker`
    engines is dispatched to :func:`~repro.streaming.low_rank.merge_low_rank`
    (the same Chan combine through a small factored core instead of the
    full scatter); mixing a low-rank tracker with an exact engine is
    rejected — compress the exact one first via
    :func:`~repro.streaming.low_rank.compress_engine`.
    """
    from repro.streaming.low_rank import LowRankEigenTracker, merge_low_rank
    low_rank_flags = (isinstance(earlier, LowRankEigenTracker),
                      isinstance(later, LowRankEigenTracker))
    if all(low_rank_flags):
        return merge_low_rank(earlier, later)
    require(not any(low_rank_flags),
            "cannot merge a low-rank tracker with an exact engine; compress "
            "the exact engine via compress_engine first")
    require(earlier.forgetting == later.forgetting,
            "engines must share the same forgetting factor")
    if later.n_features is None:
        return OnlinePCA.from_state(**earlier.state_dict())
    if earlier.n_features is None:
        return OnlinePCA.from_state(**later.state_dict())
    require(earlier.n_features == later.n_features,
            "engines must share the same number of OD flows")

    merged = OnlinePCA.from_state(**earlier.state_dict())
    second = later.state_dict()
    decay = earlier.forgetting ** later.n_bins_seen
    # The shared Chan combine of _MomentTracker, fed a whole moment tuple
    # (the later segment) instead of a raw chunk.
    merged._merge_weighted_chunk(
        chunk_weight=second["meta"]["weight_sum"],
        chunk_weight_sq=second["meta"]["weight_sq_sum"],
        chunk_mean=second["arrays"]["mean"],
        decay=decay,
        decay_sq=decay**2,
        n_bins=later.n_bins_seen,
        scatter_update=lambda delta, coefficient: merged._merge_scatter(
            second["arrays"]["scatter"], delta, decay, coefficient),
    )
    return merged
