"""Incrementally maintained PCA of the OD-flow ensemble.

:class:`OnlinePCA` replaces the batch SVD of the full timeseries history
with running first and second moments updated chunk by chunk:

* the per-OD-flow **mean** and the ``p x p`` centered **scatter matrix** are
  merged with each incoming chunk using the exact parallel-moments update
  (Chan et al.), so with no forgetting the maintained covariance equals the
  batch sample covariance of everything seen so far — bit-for-bit up to
  floating-point accumulation order;
* an optional per-bin **exponential forgetting factor** ``λ < 1`` decays old
  bins geometrically, implementing the sliding window that lets the normal
  subspace track diurnal drift without refitting;
* the **eigenbasis** is obtained on demand from the maintained covariance
  — once per recalibration instead of ``O(n p²)`` per chunk for a
  full-history SVD — and cached until new data arrives.  The control
  limits need every eigenvalue but the detector only the top ``k`` axes,
  so :meth:`~OnlinePCA.eigenbasis` ``(k)`` computes the spectrum
  with ``eigvalsh`` (no eigenvectors) and the ``k`` axes with a
  Chebyshev-filtered subspace iteration (Zhou & Saad, J. Comput. Phys.
  2007) over a block of ``2k`` vectors: a handful of ``p x p`` by
  ``p x 2k`` products instead of all ``p`` eigenvectors of a full
  ``eigh``.  Spectra the filter cannot separate and requests for every
  axis keep the full ``eigh``; so does a block that misses its residual
  tolerance within the round cap or converges onto the wrong eigenvalues
  (counted in :attr:`~OnlinePCA.eigen_fallbacks`).

Cost per ingested chunk of ``m`` bins is ``O(m p²)`` (one rank-``m`` scatter
update) with ``O(p²)`` memory, independent of the stream length ``n``.

**Snapshot mode.**  A covariance built from ``n < p`` bins has rank below
``n``, so its spectrum and top axes live in the ``n x n`` Gram matrix of the
centered, weighted bins (the method of snapshots, Sirovich 1987).  While an
:class:`OnlinePCA` has seen fewer bins than it has OD flows it therefore
keeps the raw chunks instead of the scatter (``O(m p)`` per chunk, ``O(n p)``
state) and recalibrates from the Gram matrix (``O(n² p + n³)``): the Gram
eigenvalues, padded with zeros to length ``p``, are the spectrum, and the
top axes are the Gram eigenvectors mapped back through the centered rows
(:func:`snapshot_eigenbasis`).  The chunk that brings the count to ``p`` or
more replays the held chunks into the scatter exactly as ``partial_fit``
would have folded them, so from then on the engine is bit for bit the
scatter engine it would have been.  Only the bin count against ``p`` picks
the mode.

Every decomposition here goes through ``numpy.linalg``, never
``scipy.linalg``: scipy ships its own OpenBLAS, and alternating two
2-thread BLAS libraries in one process made each recalibration ~10× slower
on a 2-vCPU box (``tests/test_streaming.py`` checks that a run never
imports it).

:func:`merge_online_pca` combines engines that ingested *disjoint
consecutive segments* of the stream with the same pairwise Chan combine
``partial_fit`` applies per chunk, lifted to whole moment tuples.  With
``forgetting = 1`` it is associative *and* commutative, so segment moments
can be reduced in any order; the hierarchical detector
(:mod:`repro.streaming.hierarchy`) folds its per-PoP leaves with it.  Both
properties are enforced by ``tests/test_streaming_properties.py``.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.utils.validation import ensure_2d, require

__all__ = ["OnlinePCA", "eigh_descending", "merge_online_pca",
           "snapshot_eigenbasis", "top_eigenbasis"]

#: Chebyshev filter degree between two QR re-orthonormalizations of the
#: block.
_FILTER_DEGREE = 4
#: Filter rounds (filter, QR, Rayleigh–Ritz) before the route gives up and
#: falls back to the full ``eigh``; converged blocks take 3-10.
_MAX_FILTER_ROUNDS = 40
#: A returned axis ``v`` with Ritz value ``θ`` satisfies
#: ``‖Cv − θv‖ ≤ _RESIDUAL_TOLERANCE · λ₁``, and ``θ`` lies within the same
#: bound of the matching ``eigvalsh`` eigenvalue.
_RESIDUAL_TOLERANCE = 1e-12
#: Filter interval widths ``λ_{b+1} − λ_min`` at or below this fraction of
#: ``λ₁`` count as collapsed (rank ≤ b, an isotropic tail or an all-zero
#: covariance): nothing separates the block from the damped interval.
_COLLAPSED_INTERVAL = 1e-10
#: Seed of the fixed start block, so the axes are a pure function of the
#: covariance (checkpoint restarts and merged engines reproduce them).
_START_SEED = 20071


def eigh_descending(covariance: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Descending, clipped eigendecomposition of a (near-)symmetric matrix.

    Symmetrizes first so tiny floating-point asymmetries (e.g. from the
    accumulation order of a scatter update or merge) cannot perturb the
    solver, clips negative round-off eigenvalues to zero, and returns
    read-only arrays — the shared eigenbasis step of every exact moment
    engine.
    """
    symmetric = (covariance + covariance.T) * 0.5
    eigenvalues, axes = np.linalg.eigh(symmetric)
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = np.clip(eigenvalues[order], 0.0, None)
    axes = axes[:, order]
    eigenvalues.setflags(write=False)
    axes.setflags(write=False)
    return eigenvalues, axes


@functools.lru_cache(maxsize=8)
def _start_block(n_features: int, block_size: int) -> np.ndarray:
    """The seeded ``p x b`` start block of the filtered iteration."""
    block = np.random.default_rng(_START_SEED).standard_normal(
        (n_features, block_size))
    block.setflags(write=False)
    return block


def _filtered_top_axes(shifted: np.ndarray, targets: np.ndarray,
                       limit: float) -> Optional[np.ndarray]:
    """Top ``len(targets)`` axes by Chebyshev-filtered subspace iteration.

    *shifted* is ``(C − center·I) / half_width``, which maps the damped
    interval ``[λ_min, λ_{b+1}]`` onto ``[−1, 1]``; each round applies
    the degree-:data:`_FILTER_DEGREE` Chebyshev polynomial of it to the
    block (bounded by 1 on the interval, growing fast above it), then
    re-orthonormalizes by QR and rotates the block onto its Ritz vectors.
    The Ritz vectors seed the next round, so each column stays near one
    eigenvector and the QR loses no precision to the dominant axis.
    *targets* are the top eigenvalues from ``eigvalsh`` and *limit* the
    tolerance, both in the shifted scale.  A small residual only shows
    that each axis is *some* eigenvector, so the block is accepted only if
    its Ritz values also match *targets* — a block that lost a top
    direction converges onto lower eigenvalues instead.  Returns ``None``
    on such a mismatch or when the residuals miss *limit* within
    :data:`_MAX_FILTER_ROUNDS` rounds.
    """
    n_axes = targets.size
    block = _start_block(shifted.shape[0], 2 * n_axes)
    for _ in range(_MAX_FILTER_ROUNDS):
        previous, current = block, shifted @ block
        for _ in range(_FILTER_DEGREE - 1):
            following = shifted @ current
            following *= 2.0
            following -= previous
            previous, current = current, following
        basis = np.linalg.qr(current)[0]
        image = shifted @ basis
        ritz_values, rotation = np.linalg.eigh(basis.T @ image)
        rotation = rotation[:, ::-1]
        block = basis @ rotation
        top_ritz = ritz_values[:-n_axes - 1:-1]
        # Residuals in the shifted scale: ‖Av − θ'v‖ = ‖Cv − θv‖ / h.
        residual = image @ rotation[:, :n_axes]
        residual -= block[:, :n_axes] * top_ritz
        if np.einsum("ij,ij->j", residual, residual).max() <= limit * limit:
            if np.abs(top_ritz - targets).max() > limit:
                return None
            return np.ascontiguousarray(block[:, :n_axes])
    return None


def top_eigenbasis(covariance: np.ndarray, n_axes: int
                   ) -> Tuple[np.ndarray, np.ndarray, bool]:
    """The full spectrum and the top *n_axes* axes of a covariance.

    Returns ``(eigenvalues, axes, fell_back)``: every eigenvalue,
    descending and clipped at zero, and the ``p x n_axes`` leading axes,
    both read-only (``axes`` an owned, contiguous array).  The spectrum
    comes from ``eigvalsh`` and the axes from :func:`_filtered_top_axes`,
    with the filter interval ``[λ_min, λ_{b+1}]`` (``b = 2·n_axes``) read
    off that spectrum.  The full :func:`eigh_descending` runs instead when
    ``b ≥ p`` or the interval has collapsed, and — with ``fell_back`` set
    — when the filtered block is not accepted.
    """
    p = covariance.shape[0]
    block_size = 2 * n_axes
    fell_back = False
    if block_size < p:
        symmetric = covariance + covariance.T
        symmetric *= 0.5
        spectrum = np.linalg.eigvalsh(symmetric)[::-1]
        upper, lower = spectrum[block_size], spectrum[-1]
        if upper - lower > _COLLAPSED_INTERVAL * spectrum[0]:
            center, half_width = 0.5 * (upper + lower), 0.5 * (upper - lower)
            shifted = symmetric
            shifted.flat[::p + 1] -= center
            shifted /= half_width
            axes = _filtered_top_axes(
                shifted, (spectrum[:n_axes] - center) / half_width,
                _RESIDUAL_TOLERANCE * spectrum[0] / half_width)
            if axes is not None:
                eigenvalues = np.clip(spectrum, 0.0, None)
                eigenvalues.setflags(write=False)
                axes.setflags(write=False)
                return eigenvalues, axes, False
            fell_back = True
    eigenvalues, all_axes = eigh_descending(covariance)
    axes = np.ascontiguousarray(all_axes[:, :n_axes])
    axes.setflags(write=False)
    return eigenvalues, axes, fell_back


def snapshot_eigenbasis(rows: np.ndarray, n_axes: int
                        ) -> Optional[Tuple[np.ndarray, np.ndarray, bool]]:
    """:func:`top_eigenbasis` of ``C = rowsᵀ rows`` through its Gram matrix.

    *rows* is ``n x p`` with ``n < p``: the centered bins, each scaled by
    ``√(w / (Σw − 1))``.  ``C`` and the ``n x n`` Gram matrix ``rows rowsᵀ``
    share their nonzero eigenvalues, and a Gram eigenvector ``u`` maps to
    the covariance axis ``rowsᵀ u / ‖rowsᵀ u‖``.  Returns the same
    ``(eigenvalues, axes, fell_back)`` triple — the Gram spectrum padded
    with zeros to length ``p`` — or ``None`` when a top-*n_axes* Gram
    eigenvalue is numerically zero, where that map is undefined.
    """
    n, p = rows.shape
    values, gram_axes, fell_back = top_eigenbasis(rows @ rows.T, n_axes)
    if values[n_axes - 1] <= _COLLAPSED_INTERVAL * values[0]:
        return None
    axes = rows.T @ gram_axes
    axes /= np.linalg.norm(axes, axis=0)
    axes.setflags(write=False)
    eigenvalues = np.zeros(p)
    eigenvalues[:n] = values
    eigenvalues.setflags(write=False)
    return eigenvalues, axes, fell_back


#: Memoized λ-power weight vectors and their sums, keyed on ``(m, λ)``.
#: Streams feed constant-size chunks, so without the cache the same vector
#: (and its Σw / Σw² reductions) is rebuilt for every chunk; bounded so a
#: pathological mix of chunk sizes cannot grow it without limit.
_WEIGHT_CACHE: Dict[Tuple[int, float], Tuple[np.ndarray, float, float, float]] = {}
_WEIGHT_CACHE_MAX = 64


def _forgetting_weights(m: int, lam: float) -> Tuple[np.ndarray, float, float, float]:
    """Memoized ``(weights, Σw, Σw², λ^m)`` for an ``m``-row chunk under ``λ``."""
    key = (m, lam)
    entry = _WEIGHT_CACHE.get(key)
    if entry is None:
        if len(_WEIGHT_CACHE) >= _WEIGHT_CACHE_MAX:
            _WEIGHT_CACHE.clear()
        weights = lam ** np.arange(m - 1, -1, -1, dtype=float)
        weights.setflags(write=False)
        entry = (weights, float(weights.sum()), float((weights**2).sum()),
                 lam**m)
        _WEIGHT_CACHE[key] = entry
    return entry


def _chunk_moments(matrix: np.ndarray, lam: float):
    """Per-chunk weighting preamble of :meth:`OnlinePCA.partial_fit`.

    Returns ``(weights, chunk_weight, chunk_weight_sq, decay, decay_sq,
    chunk_mean)`` for an ``m``-row chunk under forgetting ``λ``: row ``i``
    is ``m - 1 - i`` bins old inside the chunk and carries weight
    ``λ^(m-1-i)`` (``weights`` is ``None`` for the unweighted ``λ = 1``
    path), and all previously accumulated weight decays by ``λ^m``.  The
    weight vector and its reductions are memoized on ``(m, λ)``; only the
    chunk mean is computed per call.
    """
    m = matrix.shape[0]
    if lam == 1.0:
        return None, float(m), float(m), 1.0, 1.0, matrix.mean(axis=0)
    weights, chunk_weight, chunk_weight_sq, decay = _forgetting_weights(m, lam)
    chunk_mean = (weights @ matrix) / chunk_weight
    return weights, chunk_weight, chunk_weight_sq, decay, decay**2, chunk_mean


class OnlinePCA:
    """Running mean/covariance PCA with exponential forgetting.

    While fewer than ``p`` bins have been ingested the engine holds the
    bins themselves and recalibrates through their Gram matrix (snapshot
    mode, :attr:`holds_bins`); from the chunk that reaches ``p`` bins on it
    maintains the ``p x p`` scatter.  Both give the same moments.

    Parameters
    ----------
    forgetting:
        Per-bin decay factor ``λ`` in ``(0, 1]``.  With ``λ = 1`` the model
        accumulates all history with uniform weight (and exactly reproduces
        the batch sample covariance); with ``λ < 1`` a bin seen ``d`` bins
        ago carries weight ``λ^d``.
    """

    #: Engine-kind tag written into checkpoint manifests.
    STATE_KIND = "online_pca"

    def __init__(self, forgetting: float = 1.0) -> None:
        require(0.0 < forgetting <= 1.0, "forgetting must be in (0, 1]")
        self._forgetting = float(forgetting)
        self._n_features: Optional[int] = None
        self._mean: Optional[np.ndarray] = None
        self._weight_sum = 0.0
        self._weight_sq_sum = 0.0
        self._n_bins_seen = 0
        self._version = 0
        self._basis_version = -1
        self._basis_axes_requested: Optional[int] = None
        self._cached_eigenvalues: Optional[np.ndarray] = None
        self._cached_axes: Optional[np.ndarray] = None
        # Top-k requests that missed the filtered route's tolerance and
        # ran the full eigh instead (a process-local count, never saved).
        self._eigen_fallbacks = 0
        # Scratch buffer for the centered chunk, reused across partial_fit
        # calls of the same chunk shape (never serialized).
        self._centered_scratch: Optional[np.ndarray] = None
        self._scatter: Optional[np.ndarray] = None
        # Snapshot mode (no scatter yet): copies of the ingested chunks in
        # stream order, kept while they hold fewer than p bins.
        self._chunks: List[np.ndarray] = []

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def forgetting(self) -> float:
        """The per-bin forgetting factor ``λ``."""
        return self._forgetting

    @property
    def n_features(self) -> Optional[int]:
        """Number of OD flows ``p`` (``None`` before the first chunk)."""
        return self._n_features

    @property
    def n_bins_seen(self) -> int:
        """Total number of bins ingested (not decayed)."""
        return self._n_bins_seen

    @property
    def weight_sum(self) -> float:
        """Current total weight ``Σ λ^d`` over all ingested bins."""
        return self._weight_sum

    @property
    def weight_sq_sum(self) -> float:
        """Current total squared weight ``Σ λ^{2d}`` over all ingested bins."""
        return self._weight_sq_sum

    @property
    def eigen_fallbacks(self) -> int:
        """Top-k eigenbasis requests that fell back to the full ``eigh``."""
        return self._eigen_fallbacks

    @property
    def effective_samples(self) -> float:
        """Kish effective sample size ``(Σw)² / Σw²`` of the moments.

        Equals :attr:`n_bins_seen` when ``λ = 1`` and saturates near
        ``(1 + λ) / (1 - λ)`` for long streams with forgetting.
        """
        if self._weight_sq_sum <= 0.0:
            return 0.0
        return self._weight_sum**2 / self._weight_sq_sum

    @property
    def n_samples(self) -> int:
        """The effective sample count rounded to an integer.

        This is the ``n`` handed to the F-based T² control limit; with no
        forgetting it equals the number of ingested bins exactly.
        """
        return int(round(self.effective_samples))

    @property
    def mean(self) -> np.ndarray:
        """The running per-OD-flow mean (length ``p``), as a read-only view."""
        require(self._mean is not None, "no data ingested yet")
        view = self._mean.view()
        view.setflags(write=False)
        return view

    @property
    def rank(self) -> int:
        """Upper bound on the covariance rank, ``min(bins seen, p)``.

        Mirrors the batch decomposition's ``rank`` (which counts available
        SVD components, not the numerical rank).
        """
        if self._n_features is None:
            return 0
        return min(self._n_bins_seen, self._n_features)

    @property
    def holds_bins(self) -> bool:
        """Whether the engine keeps its (fewer than ``p``) bins instead of
        the scatter."""
        return self._n_features is not None and self._scatter is None

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #
    def partial_fit(self, chunk: np.ndarray):
        """Merge a chunk of ``m`` consecutive timebins into the moments.

        Rows must be in time order (the last row is the most recent bin);
        with forgetting, row ``i`` of an ``m``-row chunk receives weight
        ``λ^(m-1-i)`` and all previously accumulated weight decays by
        ``λ^m``.  A chunk that leaves the engine with fewer than ``p`` bins
        is kept (``O(m p)``: the mean and weights update, the scatter does
        not exist yet); the first chunk that reaches ``p`` bins replays the
        kept chunks into the scatter.
        """
        matrix = ensure_2d(chunk, "chunk")
        m, p = matrix.shape
        require(m >= 1, "chunk must contain at least one bin")
        if self._n_features is None:
            self._n_features = p
            self._mean = np.zeros(p)
        require(p == self._n_features, "chunk has the wrong number of OD flows")
        if self._scatter is None:
            if self._n_bins_seen + m < p:
                self._fold_chunk(matrix)
                self._chunks.append(matrix.copy())
                return self
            self._build_scatter(p)
        self._fold_chunk(matrix)
        return self

    def _fold_chunk(self, matrix: np.ndarray) -> None:
        """One chunk's weighted moments through :meth:`_combine`, plus its
        scatter once the engine keeps one."""
        (weights, chunk_weight, chunk_weight_sq, decay, decay_sq,
         chunk_mean) = _chunk_moments(matrix, self._forgetting)
        delta, coefficient = self._combine(
            chunk_weight, chunk_weight_sq, chunk_mean, decay, decay_sq,
            matrix.shape[0])
        if self._scatter is None:
            return  # snapshot mode: partial_fit keeps the chunk itself
        centered = self._centered_scratch
        if centered is None or centered.shape != matrix.shape:
            centered = np.empty_like(matrix)
            self._centered_scratch = centered
        np.subtract(matrix, chunk_mean, out=centered)
        if weights is None:
            chunk_scatter = centered.T @ centered
        else:
            chunk_scatter = (centered * weights[:, np.newaxis]).T @ centered
        self._merge_scatter(chunk_scatter, delta, decay, coefficient)

    def _combine(self, chunk_weight: float, chunk_weight_sq: float,
                 chunk_mean: np.ndarray, decay: float, decay_sq: float,
                 n_bins: int) -> Tuple[np.ndarray, float]:
        """The pairwise Chan parallel-moments combine of mean and weights.

        The single home of the combine arithmetic: :meth:`partial_fit`
        passes a raw chunk's weighted moments here, and
        :func:`merge_online_pca` passes a whole engine's moment tuple —
        both therefore stay exactly in step.  Updates the mean and the
        weight sums in place and returns ``(delta, outer_coefficient)``
        for :meth:`_merge_scatter`.
        """
        prior_weight = self._weight_sum * decay
        total_weight = prior_weight + chunk_weight
        delta = chunk_mean - self._mean
        coefficient = prior_weight * chunk_weight / total_weight
        self._mean = self._mean + delta * (chunk_weight / total_weight)
        self._weight_sum = total_weight
        self._weight_sq_sum = self._weight_sq_sum * decay_sq + chunk_weight_sq
        self._n_bins_seen += n_bins
        self._version += 1
        return delta, coefficient

    def _build_scatter(self, n_features: int) -> None:
        """Leave snapshot mode: fold the kept chunks into a new scatter.

        The moments are rebuilt from zero by the scatter path's own
        per-chunk update, so the result is bitwise the state an engine that
        never held its bins would have reached.
        """
        chunks, self._chunks = self._chunks, []
        self._scatter = np.zeros((n_features, n_features))
        if not chunks:
            return
        self._mean = np.zeros(n_features)
        self._weight_sum = self._weight_sq_sum = 0.0
        self._n_bins_seen = 0
        for chunk in chunks:
            self._fold_chunk(chunk)

    def _merge_scatter(self, chunk_scatter: np.ndarray, delta: np.ndarray,
                       decay: float, outer_coefficient: float) -> None:
        """Fold an already-computed chunk/segment scatter into the state.

        Computes ``scatter * decay + chunk_scatter + outer(delta, delta) *
        outer_coefficient`` in place, in that order (so bitwise that
        expression; multiplying by a decay of 1 is skipped as the no-op it
        is).  *chunk_scatter* is consumed: the outer product reuses it.
        """
        scatter = self._scatter
        if decay != 1.0:
            scatter *= decay
        scatter += chunk_scatter
        outer = np.outer(delta, delta, out=chunk_scatter)
        outer *= outer_coefficient
        scatter += outer

    # ------------------------------------------------------------------ #
    # derived quantities
    # ------------------------------------------------------------------ #
    def _scaled_rows(self) -> np.ndarray:
        """The kept bins, centered and scaled by ``√(w / (Σw − 1))``, so
        that the covariance is ``rowsᵀ rows`` (snapshot mode only)."""
        require(self._weight_sum > 1.0,
                "need total weight > 1 for a sample covariance")
        rows = np.concatenate(self._chunks)
        rows -= self._mean
        scale = 1.0 / np.sqrt(self._weight_sum - 1.0)
        if self._forgetting == 1.0:
            rows *= scale
        else:
            ages = np.arange(rows.shape[0] - 1, -1, -1, dtype=float)
            rows *= (np.sqrt(self._forgetting ** ages) * scale)[:, np.newaxis]
        return rows

    def covariance(self) -> np.ndarray:
        """The maintained sample covariance ``M / (Σw - 1)``.

        With ``λ = 1`` this equals ``np.cov(history, rowvar=False)`` (ddof 1)
        of everything ingested so far.  In snapshot mode it is built from
        the kept bins (``O(n p²)``).
        """
        require(self._n_features is not None, "no data ingested yet")
        if self._scatter is None:
            rows = self._scaled_rows()
            return rows.T @ rows
        require(self._weight_sum > 1.0,
                "need total weight > 1 for a sample covariance")
        return self._scatter / (self._weight_sum - 1.0)

    def eigenbasis(self, n_axes: Optional[int] = None
                   ) -> Tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (descending, length ``p``) and the leading axes.

        Column ``j`` of the axes matrix is the ``j``-th principal axis in
        OD-flow space — the streaming analogue of
        :meth:`~repro.core.pca.EigenflowDecomposition.principal_axes`.
        With *n_axes* only the first ``n_axes`` columns are computed and
        returned (see :func:`top_eigenbasis`, or
        :func:`snapshot_eigenbasis` in snapshot mode); without it, all
        ``p`` (one full ``eigh``).  The result is cached until
        :meth:`partial_fit` is called again or a different *n_axes* is
        requested.
        """
        if (self._basis_version != self._version
                or self._basis_axes_requested != n_axes):
            if n_axes is None:
                eigenvalues, axes = eigh_descending(self.covariance())
            else:
                result = None
                if self.holds_bins and n_axes < self._n_bins_seen:
                    result = snapshot_eigenbasis(self._scaled_rows(), n_axes)
                if result is None:
                    result = top_eigenbasis(self.covariance(), n_axes)
                eigenvalues, axes, fell_back = result
                self._eigen_fallbacks += int(fell_back)
            self._cached_eigenvalues = eigenvalues
            self._cached_axes = axes
            self._basis_version = self._version
            self._basis_axes_requested = n_axes
        return self._cached_eigenvalues, self._cached_axes

    # ------------------------------------------------------------------ #
    # serialization (checkpoint/restore)
    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, Dict]:
        """The complete moment state as ``{"meta": scalars, "arrays": ndarrays}``.

        The returned arrays are copies; restoring them via :meth:`from_state`
        reproduces the engine bit-for-bit (float64 survives an npz round
        trip exactly), so a restored detector continues the stream on the
        identical numerical trajectory.  In snapshot mode the arrays hold
        the kept bins (``rows``) and each chunk's length (``chunk_bins``)
        instead of the scatter.
        """
        arrays: Dict[str, np.ndarray] = {}
        if self._n_features is not None:
            arrays["mean"] = np.array(self._mean, dtype=float)
            if self._scatter is None:
                arrays["rows"] = np.concatenate(self._chunks)
                arrays["chunk_bins"] = np.array(
                    [chunk.shape[0] for chunk in self._chunks], dtype=np.int64)
            else:
                arrays["scatter"] = np.array(self._scatter, dtype=float)
        meta = {
            "kind": self.STATE_KIND,
            "forgetting": self._forgetting,
            "weight_sum": self._weight_sum,
            "weight_sq_sum": self._weight_sq_sum,
            "n_bins_seen": self._n_bins_seen,
            "has_data": self._n_features is not None,
        }
        return {"meta": meta, "arrays": arrays}

    @classmethod
    def from_state(cls, meta: Mapping, arrays: Mapping[str, np.ndarray]) -> "OnlinePCA":
        """Rebuild an engine from :meth:`state_dict` output (either mode)."""
        require(meta.get("kind") == cls.STATE_KIND,
                f"state is not an {cls.STATE_KIND} state")
        engine = cls(forgetting=float(meta["forgetting"]))
        engine._weight_sum = float(meta["weight_sum"])
        engine._weight_sq_sum = float(meta["weight_sq_sum"])
        engine._n_bins_seen = int(meta["n_bins_seen"])
        if meta["has_data"]:
            mean = np.array(arrays["mean"], dtype=float)
            p = mean.size
            if "scatter" in arrays:
                scatter = np.array(arrays["scatter"], dtype=float)
                require(scatter.shape == (p, p),
                        "scatter shape does not match the mean length")
                engine._scatter = scatter
            else:
                require("rows" in arrays and "chunk_bins" in arrays,
                        "state holds neither a scatter nor kept bins")
                rows = np.asarray(arrays["rows"], dtype=float)
                bounds = np.cumsum(np.asarray(arrays["chunk_bins"],
                                              dtype=np.int64))
                require(rows.ndim == 2 and rows.shape[1] == p
                        and bounds.size >= 1
                        and np.all(np.diff(bounds, prepend=0) >= 1)
                        and bounds[-1] == rows.shape[0]
                        == engine._n_bins_seen < p,
                        "kept bins do not match the mean length and bin "
                        "count")
                engine._chunks = [chunk.copy()
                                  for chunk in np.split(rows, bounds[:-1])]
            engine._n_features = p
            engine._mean = mean
        return engine


def merge_online_pca(earlier: OnlinePCA, later: OnlinePCA) -> OnlinePCA:
    """Combine engines over disjoint consecutive stream segments, exactly.

    This is the pairwise Chan et al. parallel-moments update applied to two
    whole moment tuples: *earlier* holds the moments of the first segment,
    *later* those of the segment that follows it.  With ``forgetting = 1``
    the operation is associative and commutative (segment order is
    irrelevant); with ``λ < 1`` it stays associative but weights *earlier*
    down by ``λ^m`` for the ``m`` bins *later* ingested, so order matters —
    exactly as if the segments had been streamed through one engine.  While
    both engines hold their bins and together fewer than ``p``, the merged
    engine holds *earlier*'s bins followed by *later*'s; otherwise each
    side's scatter is combined, and an input that still holds its bins is
    switched to its scatter in place first (its moments are unchanged), so
    repeated merges of the same engines convert each of them only once.
    """
    require(earlier.forgetting == later.forgetting,
            "engines must share the same forgetting factor")
    if later.n_features is None:
        return OnlinePCA.from_state(**earlier.state_dict())
    if earlier.n_features is None:
        return OnlinePCA.from_state(**later.state_dict())
    require(earlier.n_features == later.n_features,
            "engines must share the same number of OD flows")

    p = earlier.n_features
    keep_bins = (earlier.holds_bins and later.holds_bins
                 and earlier.n_bins_seen + later.n_bins_seen < p)
    if not keep_bins:
        for engine in (earlier, later):
            if engine.holds_bins:
                engine._build_scatter(p)
    merged = OnlinePCA.from_state(**earlier.state_dict())
    second = OnlinePCA.from_state(**later.state_dict())
    decay = earlier.forgetting ** later.n_bins_seen
    # The per-chunk Chan combine, fed a whole moment tuple (the later
    # segment) instead of a raw chunk.
    delta, coefficient = merged._combine(
        chunk_weight=second.weight_sum,
        chunk_weight_sq=second.weight_sq_sum,
        chunk_mean=second._mean,
        decay=decay,
        decay_sq=decay**2,
        n_bins=second.n_bins_seen,
    )
    if keep_bins:
        merged._chunks.extend(second._chunks)
    else:
        merged._merge_scatter(second._scatter, delta, decay, coefficient)
    return merged
