"""Incremental rank-``r`` eigenbasis tracking — recalibration without the eigh.

:class:`LowRankEigenTracker` replaces the ``O(p²)`` scatter matrix of
:class:`~repro.streaming.online_pca.OnlinePCA` (and its ``O(p³)``
``eigh_descending`` per recalibration) with the top-``r`` eigenpairs of the
same exponentially-forgotten scatter, maintained directly by Brand-style
rank-``m`` secular updates:

1. an incoming chunk's weighted scatter update is expressed as a **factor**
   ``V`` (``p x (m+1)`` columns: the ``√w``-scaled centered rows plus the
   Chan mean-shift column), so the update is ``M ← λ^m M + V Vᵀ``;
2. ``V`` is split into its component inside the tracked basis (``P = UᵀV``)
   and the orthonormalized out-of-span remainder (``QR`` of ``V − UP``);
3. a small ``(r+m+1) x (r+m+1)`` **core** eigenproblem rotates
   ``[U, Q]`` into the exact eigenbasis of the updated rank-``≤ r+m+1``
   matrix, of which the top ``r`` pairs are kept;
4. the discarded eigenvalue mass is folded into a **residual-energy
   scalar**, so the total trace of the maintained scatter stays *exact*
   (``Σ kept + ρ  ==  λ^m · trace_before + ‖V‖²_F`` holds to float
   round-off) — the Jackson–Mudholkar SPE limit then sees the exact
   residual energy ``φ₁`` with the unseen tail spread isotropically over
   the ``p − r`` untracked directions.

Per chunk of ``m`` bins the cost is ``O(p·(r+m)·m + (r+m)³)`` work and
``O(p·r)`` memory — versus ``O(m p²)`` + ``O(p³)``-per-refresh + ``O(p²)``
for the exact engine — which is what lets frequent-recalibration streaming
scale past the 121-flow Abilene matrix to thousands of OD flows.

Numerical safety comes from a **drift monitor**: every update measures the
basis orthonormality error ``max|UᵀU − I|`` and, when it exceeds the
configured tolerance, re-orthonormalizes via a thin QR plus an exact
``r x r`` core eigh (cost ``O(p r²)``, still never ``O(p³)``).

Interop: :func:`merge_low_rank` combines two trackers over disjoint
consecutive stream segments through the same machinery — the later
tracker's factored basis is one more rank-``r`` update, a small
``(2r+1)``-sized core problem — and :func:`compress_engine` converts an
exact :class:`OnlinePCA` (e.g. after an exact ingest or an exact Chan
merge of hierarchy leaves) into a tracker, so the heavy history can be
ingested exactly and then tracked cheaply.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.streaming.online_pca import _MomentTracker, eigh_descending
from repro.utils.validation import require

__all__ = ["LowRankEigenTracker", "merge_low_rank", "compress_engine"]

#: Relative floor under which an eigenvalue of the core problem is treated
#: as numerical zero (kept out of the basis, folded into residual energy).
_EIGENVALUE_RTOL = 1e-14


class LowRankEigenTracker(_MomentTracker):
    """Top-``r`` eigenpairs of the forgotten scatter, updated in place.

    Drop-in replacement for :class:`OnlinePCA` on the
    :class:`~repro.streaming.detector.StreamingSubspaceDetector` calibration
    path: :meth:`eigenbasis` returns the maintained basis directly — no
    covariance is ever materialized and no ``p x p`` eigendecomposition runs.

    Parameters
    ----------
    rank:
        Number of eigenpairs ``r`` to track.  Must be at least the normal
        subspace dimension ``k`` the consuming detector uses (the
        recommended slack of a few extra pairs keeps the tracked top-``k``
        subspace accurate and the SPE tail well approximated); the
        effective rank is capped at ``p`` on the first chunk.
    forgetting:
        Per-bin decay factor ``λ``, exactly as in :class:`OnlinePCA`.
    drift_tolerance:
        Orthonormality-drift threshold ``max|UᵀU − I|`` above which the
        basis is re-orthonormalized (QR + exact small-core eigh).  ``0``
        re-orthonormalizes after every update; larger values make the
        monitor cheaper to satisfy.
    """

    #: Engine-kind tag written into checkpoint manifests.
    STATE_KIND = "low_rank_eigen"

    def __init__(self, rank: int, forgetting: float = 1.0,
                 drift_tolerance: float = 1e-10) -> None:
        require(rank >= 1, "rank must be >= 1")
        require(drift_tolerance >= 0.0, "drift_tolerance must be >= 0")
        super().__init__(forgetting)
        self._rank = int(rank)
        self._drift_tolerance = float(drift_tolerance)
        self._basis: Optional[np.ndarray] = None      # p x k, k <= rank
        self._eigenvalues: Optional[np.ndarray] = None  # (k,), scatter scale
        self._residual_energy = 0.0
        self._n_reorthogonalizations = 0

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def rank_limit(self) -> int:
        """The configured maximum number of tracked eigenpairs ``r``."""
        return self._rank

    @property
    def tracked_rank(self) -> int:
        """Number of eigenpairs currently held (``<= rank_limit``)."""
        return 0 if self._eigenvalues is None else int(self._eigenvalues.size)

    @property
    def rank(self) -> int:
        """Usable component count: tracked pairs, capped by bins seen.

        Unlike the exact engines (whose ``min(bins, p)`` merely bounds the
        decomposition size), the tracker reports the directions it actually
        holds — rank-deficient input yields fewer than ``r`` pairs and the
        detector's trainability gate sees that directly.
        """
        return min(self.tracked_rank, self._n_bins_seen)

    @property
    def residual_energy(self) -> float:
        """Scatter-scale energy ``ρ`` outside the tracked basis (exact trace
        complement: ``trace(M) == Σ eigenvalues + ρ``)."""
        return self._residual_energy

    @property
    def drift_tolerance(self) -> float:
        """The orthonormality-drift threshold of the re-orth monitor."""
        return self._drift_tolerance

    @property
    def n_reorthogonalizations(self) -> int:
        """How many times the drift monitor re-orthonormalized the basis."""
        return self._n_reorthogonalizations

    # ------------------------------------------------------------------ #
    # scatter storage (factored)
    # ------------------------------------------------------------------ #
    def _initialize_scatter(self, n_features: int) -> None:
        self._rank = min(self._rank, n_features)

    def _apply_scatter_update(self, centered: np.ndarray,
                              weights: Optional[np.ndarray],
                              delta: np.ndarray, decay: float,
                              outer_coefficient: float) -> None:
        if weights is None:
            update_rows = centered
        else:
            update_rows = centered * np.sqrt(weights)[:, np.newaxis]
        # ``centered`` may be the tracker's reusable scratch buffer, so the
        # factor must not alias it past this call; .T is a view, but every
        # consumer below reads it before partial_fit returns.
        factor = update_rows.T
        if outer_coefficient > 0.0:
            factor = np.concatenate(
                [factor, np.sqrt(outer_coefficient) * delta[:, np.newaxis]],
                axis=1)
        self._apply_factored_update(np.ascontiguousarray(factor), decay)

    def _apply_factored_update(self, factor: np.ndarray, decay: float) -> None:
        """Fold ``M ← decay·M + factor @ factorᵀ`` into the tracked pairs.

        ``factor`` is ``p x q``; the update is exact on the rank-``≤ k+q``
        matrix spanned by the current basis and the factor, and the
        eigenvalue mass beyond the top ``r`` pairs goes to the residual
        scalar — keeping the total trace exact.
        """
        if self._basis is None:
            # First update: thin SVD of the factor is the eigendecomposition
            # of factor @ factorᵀ.
            left, singular, _ = np.linalg.svd(factor, full_matrices=False)
            values = singular**2
            keep = self._keep_count(values)
            self._basis = np.ascontiguousarray(left[:, :keep])
            self._eigenvalues = values[:keep].copy()
            self._residual_energy = (self._residual_energy * decay
                                     + float(values[keep:].sum()))
            return

        basis, values = self._basis, self._eigenvalues
        k = values.size
        projected = basis.T @ factor                      # k x q
        remainder = factor - basis @ projected            # p x q
        ortho, triangular = np.linalg.qr(remainder)       # p x q', q' x q
        q_new = triangular.shape[0]

        core = np.empty((k + q_new, k + q_new))
        head = projected @ projected.T
        head[np.arange(k), np.arange(k)] += decay * values
        core[:k, :k] = head
        core[:k, k:] = projected @ triangular.T
        core[k:, :k] = core[:k, k:].T
        core[k:, k:] = triangular @ triangular.T

        core_values, rotation = eigh_descending(core)
        keep = self._keep_count(core_values)
        self._basis = np.concatenate([basis, ortho], axis=1) @ rotation[:, :keep]
        self._eigenvalues = core_values[:keep].copy()
        self._residual_energy = (self._residual_energy * decay
                                 + float(core_values[keep:].sum()))
        self._maybe_reorthogonalize()

    def _keep_count(self, values: np.ndarray) -> int:
        """How many leading eigenvalues to keep: top ``r``, numerically
        nonzero only (junk directions with round-off eigenvalues would
        pollute the basis and inflate the reported rank)."""
        if values.size == 0 or values[0] <= 0.0:
            return 0
        floor = values[0] * _EIGENVALUE_RTOL
        return int(min(self._rank, np.count_nonzero(values > floor)))

    def _maybe_reorthogonalize(self) -> None:
        basis = self._basis
        if basis is None or basis.size == 0:
            return
        gram = basis.T @ basis
        gram[np.arange(gram.shape[0]), np.arange(gram.shape[0])] -= 1.0
        if float(np.abs(gram).max()) <= self._drift_tolerance:
            return
        # Thin QR restores orthonormality; the exact small-core eigh
        # re-diagonalizes the tracked matrix in the repaired basis.  Trace
        # is preserved by folding the (tiny) difference into the residual.
        ortho, triangular = np.linalg.qr(basis)
        core = (triangular * self._eigenvalues) @ triangular.T
        core_values, rotation = eigh_descending(core)
        keep = self._keep_count(core_values)
        kept_before = float(self._eigenvalues.sum())
        self._basis = ortho @ rotation[:, :keep]
        self._eigenvalues = core_values[:keep].copy()
        self._residual_energy = max(
            0.0, self._residual_energy + kept_before
            - float(core_values[:keep].sum()))
        self._n_reorthogonalizations += 1

    # ------------------------------------------------------------------ #
    # derived quantities
    # ------------------------------------------------------------------ #
    def eigenbasis(self, n_axes: Optional[int] = None
                   ) -> Tuple[np.ndarray, np.ndarray]:
        """Maintained eigenpairs — **no decomposition runs here**.

        Returns covariance-scale eigenvalues of full length ``p`` (the
        tracked top pairs exactly as maintained, then the residual energy
        spread evenly over the ``p − k`` untracked directions so the SPE
        limit's ``φ₁`` is exact) and the tracked axes: the first *n_axes*
        of them when given (fewer if fewer are tracked), else all ``k``.
        """
        require(self._basis is not None, "no data ingested yet")
        if self._basis_version != self._version:
            require(self._weight_sum > 1.0,
                    "need total weight > 1 for a sample covariance")
            scale = self._weight_sum - 1.0
            p, k = self._n_features, self._eigenvalues.size
            values = np.zeros(p)
            values[:k] = self._eigenvalues / scale
            if p > k:
                values[k:] = max(self._residual_energy, 0.0) / scale / (p - k)
            axes = self._basis.view()
            values.setflags(write=False)
            axes.setflags(write=False)
            self._cached_eigenvalues = values
            self._cached_axes = axes
            self._basis_version = self._version
        return self._cached_eigenvalues, self._cached_axes[:, :n_axes]

    def covariance(self) -> np.ndarray:
        """The isotropic-completion covariance surrogate (diagnostics only).

        ``(U diag(s − τ) Uᵀ + τ I) / (Σw − 1)`` with the untracked energy
        spread ``τ = ρ / (p − k)`` — the matrix whose eigenpairs
        :meth:`eigenbasis` reports.  Costs ``O(p² k)``; the streaming hot
        path never calls it.
        """
        require(self._basis is not None, "no data ingested yet")
        require(self._weight_sum > 1.0,
                "need total weight > 1 for a sample covariance")
        p, k = self._n_features, self._eigenvalues.size
        tail = max(self._residual_energy, 0.0) / (p - k) if p > k else 0.0
        surrogate = (self._basis * (self._eigenvalues - tail)) @ self._basis.T
        surrogate[np.arange(p), np.arange(p)] += tail
        return surrogate / (self._weight_sum - 1.0)

    # ------------------------------------------------------------------ #
    # serialization (checkpoint/restore)
    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, Dict]:
        """Complete tracker state as ``{"meta": scalars, "arrays": ndarrays}``.

        Float64 arrays round-trip bit-for-bit through the npz checkpoint
        layer, so a restored tracker continues the stream on the identical
        numerical trajectory.
        """
        meta = self._scalar_state(self.STATE_KIND)
        meta["rank"] = self._rank
        meta["drift_tolerance"] = self._drift_tolerance
        meta["residual_energy"] = self._residual_energy
        meta["n_reorthogonalizations"] = self._n_reorthogonalizations
        arrays: Dict[str, np.ndarray] = {}
        if self._n_features is not None:
            arrays["mean"] = np.array(self._mean, dtype=float)
            arrays["basis"] = np.array(self._basis, dtype=float)
            arrays["eigenvalues"] = np.array(self._eigenvalues, dtype=float)
        return {"meta": meta, "arrays": arrays}

    @classmethod
    def from_state(cls, meta: Mapping,
                   arrays: Mapping[str, np.ndarray]) -> "LowRankEigenTracker":
        """Rebuild a tracker from :meth:`state_dict` output."""
        require(meta.get("kind") == cls.STATE_KIND,
                f"state is not a {cls.STATE_KIND} state")
        tracker = cls(rank=int(meta["rank"]),
                      forgetting=float(meta["forgetting"]),
                      drift_tolerance=float(meta["drift_tolerance"]))
        if meta["has_data"]:
            mean = np.array(arrays["mean"], dtype=float)
            basis = np.array(arrays["basis"], dtype=float)
            values = np.array(arrays["eigenvalues"], dtype=float)
            require(basis.ndim == 2 and basis.shape == (mean.size, values.size),
                    "basis shape does not match the mean/eigenvalue sizes")
            require(values.size <= tracker._rank,
                    "state holds more eigenpairs than the tracker rank")
            tracker._n_features = mean.size
            tracker._mean = mean
            tracker._basis = basis
            tracker._eigenvalues = values
        tracker._residual_energy = float(meta["residual_energy"])
        tracker._n_reorthogonalizations = int(meta["n_reorthogonalizations"])
        tracker._restore_scalars(meta)
        return tracker


def merge_low_rank(earlier: LowRankEigenTracker,
                   later: LowRankEigenTracker) -> LowRankEigenTracker:
    """Combine trackers over disjoint consecutive segments — a ``2r`` core.

    The low-rank counterpart of
    :func:`~repro.streaming.online_pca.merge_online_pca`: the later segment's
    factored scatter (``U₂ √S₂``, plus the Chan mean-shift column) is one
    more factored update of the earlier tracker, so the merge costs one
    ``(r₁+r₂+1)``-sized core eigenproblem instead of anything ``O(p²)``.
    The residual energies add (the later one undecayed, exactly as the
    later segment's scatter enters the Chan combine undecayed), keeping
    the merged trace exact.  Associativity holds in the same sense as the
    exact merge; the truncation to the top ``r`` pairs is the only
    deviation from it, bounded by the discarded mass.
    """
    require(earlier.forgetting == later.forgetting,
            "trackers must share the same forgetting factor")
    require(earlier.drift_tolerance == later.drift_tolerance,
            "trackers must share the same drift tolerance")
    if later.n_features is None:
        return LowRankEigenTracker.from_state(**earlier.state_dict())
    if earlier.n_features is None:
        return LowRankEigenTracker.from_state(**later.state_dict())
    require(earlier.n_features == later.n_features,
            "trackers must share the same number of OD flows")

    merged = LowRankEigenTracker.from_state(**earlier.state_dict())
    merged._rank = max(earlier.rank_limit, later.rank_limit)
    second = later.state_dict()
    decay = earlier.forgetting ** later.n_bins_seen
    later_factor = second["arrays"]["basis"] * np.sqrt(
        second["arrays"]["eigenvalues"])

    def scatter_update(delta: np.ndarray, coefficient: float) -> None:
        factor = later_factor
        if coefficient > 0.0:
            factor = np.concatenate(
                [factor, np.sqrt(coefficient) * delta[:, np.newaxis]], axis=1)
        merged._apply_factored_update(factor, decay)
        merged._residual_energy += float(second["meta"]["residual_energy"])

    merged._merge_weighted_chunk(
        chunk_weight=second["meta"]["weight_sum"],
        chunk_weight_sq=second["meta"]["weight_sq_sum"],
        chunk_mean=second["arrays"]["mean"],
        decay=decay,
        decay_sq=decay**2,
        n_bins=later.n_bins_seen,
        scatter_update=scatter_update,
    )
    return merged


def compress_engine(engine, rank: int,
                    drift_tolerance: float = 1e-10) -> LowRankEigenTracker:
    """Compress any moment engine into a :class:`LowRankEigenTracker`.

    Accepts an :class:`OnlinePCA` (the interop path: ingest the heavy
    history exactly, merge, then track cheaply), any engine
    with the same accessor surface, or another tracker (re-compression to
    a smaller rank).  The top-``rank``
    eigenpairs are kept and everything else becomes residual energy, so
    the compressed trace equals the source trace exactly.
    """
    require(rank >= 1, "rank must be >= 1")
    require(engine.n_features is not None, "engine has no data to compress")
    values, axes = engine.eigenbasis()
    scale = engine.weight_sum - 1.0
    require(scale > 0.0, "need total weight > 1 to compress an engine")
    keep = int(min(rank, axes.shape[1], np.count_nonzero(values > 0.0)))
    kept_values = values[:keep] * scale
    total_energy = float(values.sum()) * scale
    meta = {
        "kind": LowRankEigenTracker.STATE_KIND,
        "forgetting": engine.forgetting,
        "weight_sum": engine.weight_sum,
        "weight_sq_sum": engine.weight_sq_sum,
        "n_bins_seen": engine.n_bins_seen,
        "has_data": True,
        "rank": int(rank),
        "drift_tolerance": float(drift_tolerance),
        "residual_energy": max(0.0, total_energy - float(kept_values.sum())),
        "n_reorthogonalizations": 0,
    }
    arrays = {
        "mean": np.array(engine.mean, dtype=float),
        "basis": np.array(axes[:, :keep], dtype=float),
        "eigenvalues": np.array(kept_values, dtype=float),
    }
    return LowRankEigenTracker.from_state(meta, arrays)
