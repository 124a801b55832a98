"""Identification of the OD flows responsible for a detection.

The paper uses a deliberately simple heuristic: "determine the smallest set
of OD flows, which if removed from the corresponding statistic, would bring
it under threshold".  We implement that greedily:

* for an SPE detection, OD flows are removed in decreasing order of their
  squared residual contribution ``x̃_f²`` until the remaining sum drops
  below the Q-statistic threshold;
* for a T² detection, OD flows are removed in decreasing order of how much
  their removal reduces the T² value (removing flow ``f`` subtracts its
  contribution ``(x_f - mean_f)·v_{i,f}`` from every normal-subspace
  score) until T² drops below its threshold.

Greedy removal is exactly the paper's procedure for SPE (contributions are
additive there, so greedy = optimal); for T² it is the natural greedy
approximation of "smallest set".

Each T² greedy step is one ``p x k`` array op.  Zeroing flow ``j`` moves
the normal-subspace scores by ``-x_j·U_j``, where ``U_j`` is row ``j`` of
the ``p x k`` normal axes, so the step forms the exact scores of the
masked row once, subtracts the ``p x k`` matrix of shifts and reduces every
candidate with the same expression that gives the current T².  A step
costs O(p·k) in one call instead of O(p²·k) spread over ``p`` Python calls,
and the identified set still takes the first minimum at each step.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.subspace import SubspaceModel, T2Scaling
from repro.utils.validation import ensure_2d, require

#: Cap on the number of OD flows the batch and streaming detectors identify
#: per flagged bin.
MAX_IDENTIFIED_FLOWS = 16

__all__ = [
    "MAX_IDENTIFIED_FLOWS",
    "identify_od_flows",
    "identify_spe_flows",
    "identify_t2_flows",
    "spe_contributions",
    "t2_after_removal",
    "t2_of_centered_row",
]


def spe_contributions(model: SubspaceModel, data: np.ndarray, bin_index: int) -> np.ndarray:
    """Per-OD-flow contribution ``x̃_f²`` to the SPE of one timebin."""
    residual = model.residual_vector(data, bin_index)
    return residual**2


def _safe_eigenvalues(eigenvalues: np.ndarray, k: int) -> np.ndarray:
    """Top-*k* eigenvalues with non-positive ones replaced by ``inf``."""
    lam = np.asarray(eigenvalues, dtype=float)[:k]
    return np.where(lam > 0, lam, np.inf)


def _t2_reduce(scores: np.ndarray, safe: np.ndarray, n_samples: int,
               t2_scaling: T2Scaling) -> np.ndarray:
    """T² of each row of normal-subspace *scores* (last axis)."""
    values = np.sum(scores**2 / safe, axis=-1)
    if T2Scaling(t2_scaling) is T2Scaling.RAW_EIGENFLOW:
        values = values / (n_samples - 1)
    return values


def t2_of_centered_row(
    centered_row: np.ndarray,
    normal_axes: np.ndarray,
    eigenvalues: np.ndarray,
    n_samples: int,
    t2_scaling: T2Scaling = T2Scaling.HOTELLING,
    removed: Sequence[int] = (),
) -> float:
    """T² of one centered state vector, optionally after zeroing *removed* flows.

    Removal is interpreted as "this OD flow behaved normally", i.e. its
    centered value is set to zero, which subtracts its contribution from
    every normal-subspace score.  This is the model-free, one-row form of
    what :func:`identify_t2_flows` evaluates for every candidate at once: it
    needs only the ``p x k`` normal axes, the top-``k`` (or longer)
    eigenvalue spectrum, and the sample count used for ``RAW_EIGENFLOW``
    rescaling.
    """
    if len(removed):
        centered_row = centered_row.copy()
        centered_row[np.asarray(removed, dtype=int)] = 0.0
    scores = centered_row @ normal_axes
    safe = _safe_eigenvalues(eigenvalues, normal_axes.shape[1])
    return float(_t2_reduce(scores, safe, n_samples, t2_scaling))


def t2_after_removal(
    model: SubspaceModel,
    data: np.ndarray,
    bin_index: int,
    removed: Sequence[int],
) -> float:
    """T² of one timebin after zeroing the centered values of *removed* flows."""
    matrix = ensure_2d(data, "data")
    centered = matrix[bin_index] - model.decomposition.column_means
    return t2_of_centered_row(
        centered,
        model.normal_axes,
        model.decomposition.eigenvalues,
        model.n_samples,
        model.t2_scaling,
        removed,
    )


def identify_spe_flows(
    residual_row: np.ndarray,
    threshold: float,
    max_flows: Optional[int] = None,
) -> List[int]:
    """Greedy smallest-set identification for an SPE detection.

    Works directly on the residual vector ``x̃`` of the flagged bin, so both
    the batch and streaming detectors can call it without a fitted
    :class:`SubspaceModel`.  Flows are removed in decreasing order of their
    squared residual contribution until the remaining SPE drops below
    *threshold* (greedy = optimal here because contributions are additive).
    """
    residual_row = np.asarray(residual_row, dtype=float).ravel()
    contributions = residual_row**2
    n_features = contributions.size
    cap = n_features if max_flows is None else min(max_flows, n_features)
    order = np.argsort(contributions)[::-1]
    total = float(contributions.sum())
    identified: List[int] = []
    for flow_index in order:
        if total <= threshold or len(identified) >= cap:
            break
        identified.append(int(flow_index))
        total -= float(contributions[flow_index])
    if not identified:
        identified.append(int(order[0]))
    return identified


def identify_t2_flows(
    centered_row: np.ndarray,
    normal_axes: np.ndarray,
    eigenvalues: np.ndarray,
    n_samples: int,
    threshold: float,
    t2_scaling: T2Scaling = T2Scaling.HOTELLING,
    max_flows: Optional[int] = None,
) -> List[int]:
    """Greedy smallest-set identification for a T² detection.

    Works directly on the centered state vector of the flagged bin plus the
    normal-subspace description (axes, eigenvalues, sample count), removing
    the flow whose zeroing most reduces T² until it drops below *threshold*.

    Each greedy step is one ``p x k`` array op: zeroing flow ``j`` moves the
    scores by ``-x_j·U_j``, so every remaining candidate is scored at once
    and the first minimum is taken.  The current T² comes from the exact
    scores of the masked row through the same reduction, so a removal that
    changes nothing (``x_j = 0``, or a zero row of ``U``) ties it and is
    never taken.
    """
    centered_row = np.asarray(centered_row, dtype=float).ravel()
    n_features = centered_row.size
    cap = n_features if max_flows is None else min(max_flows, n_features)
    safe = _safe_eigenvalues(eigenvalues, normal_axes.shape[1])
    shifts = centered_row[:, np.newaxis] * normal_axes

    identified: List[int] = []
    masked = centered_row.copy()
    while len(identified) < cap:
        scores = masked @ normal_axes
        current = _t2_reduce(scores, safe, n_samples, t2_scaling)
        if not current > threshold:
            break
        candidates = _t2_reduce(scores - shifts, safe, n_samples, t2_scaling)
        candidates[identified] = np.inf
        best_flow = int(np.argmin(candidates))
        if not candidates[best_flow] < current:
            # No single removal reduces the statistic further; stop.
            break
        identified.append(best_flow)
        masked[best_flow] = 0.0
    if not identified:
        # Fall back to the flow with the largest absolute centered value
        # weighted by the normal axes (largest score contribution).
        contribution = np.sum(shifts**2, axis=1)
        identified.append(int(np.argmax(contribution)))
    return identified


def identify_od_flows(
    model: SubspaceModel,
    data: np.ndarray,
    bin_index: int,
    statistic: str,
    threshold: float,
    max_flows: Optional[int] = None,
) -> List[int]:
    """Greedy smallest-set identification of the responsible OD flows.

    Parameters
    ----------
    model:
        The fitted subspace model.
    data:
        The ``n x p`` traffic matrix the detection was made on.
    bin_index:
        The flagged timebin.
    statistic:
        ``"spe"`` or ``"t2"`` — which statistic exceeded its threshold.
    threshold:
        The control limit of that statistic.
    max_flows:
        Safety cap on the number of flows returned (default: all flows).

    Returns
    -------
    list of int
        Column indices of the identified OD flows, most responsible first.
        At least one flow is always returned for a genuinely flagged bin.
    """
    require(statistic in ("spe", "t2"), "statistic must be 'spe' or 't2'")
    matrix = ensure_2d(data, "data")

    if statistic == "spe":
        residual = model.residual_vector(matrix, bin_index)
        return identify_spe_flows(residual, threshold, max_flows)

    centered = matrix[bin_index] - model.decomposition.column_means
    return identify_t2_flows(
        centered,
        model.normal_axes,
        model.decomposition.eigenvalues,
        model.n_samples,
        threshold,
        model.t2_scaling,
        max_flows,
    )
