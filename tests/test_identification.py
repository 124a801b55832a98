"""Greedy T² identification against the per-candidate reference loop.

``identify_t2_flows`` scores every remaining candidate of a greedy step in
one array op.  ``_reference_greedy_t2`` below is the loop it replaced, one
``t2_of_centered_row`` call per candidate per step; both must return the
same flows, in the same order, on every corpus.

Duplicated flows (equal centered value and equal row of the axes) are
indistinguishable: removing either gives the same T².  The loop scores each
one with its own matrix-vector product, whose rounding depends on where the
zeroed entry sits, so it breaks such a tie by rounding noise; the array op
scores them identically and takes the first.  The corpus test therefore
compares flows up to that exchange, and ``test_exact_tie_takes_the_first_flow``
pins the array op's choice.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Sequence

import numpy as np
import pytest

from repro.core.identification import identify_t2_flows, t2_of_centered_row
from repro.core.subspace import T2Scaling
from repro.datasets import DatasetConfig, generate_abilene_dataset
from repro.streaming import StreamingConfig, chunk_series, stream_detect
from repro.streaming import detector as detector_module

SCALINGS = (T2Scaling.HOTELLING, T2Scaling.RAW_EIGENFLOW)
MAX_FLOWS = (None, 1, 2, 3, 4)
THRESHOLD_FRACTIONS = (0.0, 0.01, 0.3, 0.9, 1.5)


def _reference_greedy_t2(
    centered_row: np.ndarray,
    normal_axes: np.ndarray,
    eigenvalues: np.ndarray,
    n_samples: int,
    threshold: float,
    t2_scaling: T2Scaling = T2Scaling.HOTELLING,
    max_flows: Optional[int] = None,
) -> List[int]:
    """The per-candidate greedy loop: one T² evaluation per candidate."""
    centered_row = np.asarray(centered_row, dtype=float).ravel()
    n_features = centered_row.size
    cap = n_features if max_flows is None else min(max_flows, n_features)

    def value_after(removed: Sequence[int]) -> float:
        return t2_of_centered_row(centered_row, normal_axes, eigenvalues,
                                  n_samples, t2_scaling, removed)

    identified: List[int] = []
    remaining = list(range(n_features))
    current = value_after(identified)
    while current > threshold and len(identified) < cap and remaining:
        best_flow = None
        best_value = current
        for flow_index in remaining:
            candidate = value_after(identified + [flow_index])
            if candidate < best_value:
                best_value = candidate
                best_flow = flow_index
        if best_flow is None:
            break
        identified.append(best_flow)
        remaining.remove(best_flow)
        current = best_value
    if not identified:
        contribution = np.sum((centered_row[:, np.newaxis] * normal_axes)**2, axis=1)
        identified.append(int(np.argmax(contribution)))
    return identified


def _has_duplicates(seed: int) -> bool:
    return (seed // 2) % 2 == 0


def _corpus(p: int, k: int, seed: int):
    """A seeded ``(row, axes, eigenvalues, n_samples)`` with the hard cases.

    Zeroed entries and zero rows of the axes (zero-variance flows) always;
    duplicated flows (exact ties) on seeds 0, 1, 4, 5, ...; a zero
    eigenvalue on odd seeds and an integer-valued row on every third seed.
    """
    rng = np.random.default_rng([p, k, seed])
    axes, _ = np.linalg.qr(rng.normal(size=(p, k)))
    if seed % 3 == 0:
        row = rng.integers(-6, 7, size=p).astype(float)
    else:
        row = rng.standard_t(3, size=p) * rng.uniform(0.5, 50.0)
    flows = rng.permutation(p)
    n_special = max(1, p // 8)
    row[flows[:n_special]] = 0.0
    axes[flows[n_special:2 * n_special]] = 0.0
    if _has_duplicates(seed):
        for source, target in zip(flows[2 * n_special:3 * n_special],
                                  flows[3 * n_special:4 * n_special]):
            row[target] = row[source]
            axes[target] = axes[source]
    eigenvalues = np.sort(rng.gamma(2.0, 10.0, size=p))[::-1]
    if seed % 2 == 1:
        eigenvalues[rng.integers(0, k)] = 0.0
    if seed % 4 == 2:
        eigenvalues = eigenvalues[:k]
    n_samples = int(rng.integers(k + 2, 4000))
    return row, axes, eigenvalues, n_samples


def _canonical(flows: List[int], row: np.ndarray, axes: np.ndarray) -> List[int]:
    """*flows* with each duplicated flow replaced by its first copy."""
    keys = [(row[j], *axes[j]) for j in range(row.size)]
    first = {}
    for j, key in enumerate(keys):
        first.setdefault(key, j)
    return [first[keys[j]] for j in flows]


# (p, seeds): the wide corpora are few because the reference loop costs
# O(p²·k) per step.
CORPORA = [(5, 24), (16, 12), (121, 3), (300, 2)]


@pytest.mark.parametrize("p,n_seeds", CORPORA)
def test_matches_reference_loop_on_seeded_corpora(p, n_seeds):
    for k, seed in itertools.product(range(1, 6), range(n_seeds)):
        row, axes, eigenvalues, n_samples = _corpus(p, k, seed)
        for scaling in SCALINGS:
            statistic = t2_of_centered_row(row, axes, eigenvalues,
                                           n_samples, scaling)
            for fraction, max_flows in itertools.product(THRESHOLD_FRACTIONS,
                                                         MAX_FLOWS):
                if p == 300 and max_flows is None and fraction < 0.3:
                    # Hundreds of greedy steps of the O(p²·k) reference.
                    continue
                args = (row, axes, eigenvalues, n_samples,
                        fraction * statistic, scaling, max_flows)
                flows = identify_t2_flows(*args)
                reference = _reference_greedy_t2(*args)
                if _has_duplicates(seed):
                    flows = _canonical(flows, row, axes)
                    reference = _canonical(reference, row, axes)
                assert flows == reference, (p, k, seed, scaling, fraction,
                                            max_flows)


def test_exact_tie_takes_the_first_flow():
    row = np.array([4.0, 1.0, 4.0])
    axes = np.array([[0.5], [0.1], [0.5]])
    flows = identify_t2_flows(row, axes, np.array([1.0]), 50, 0.5,
                              max_flows=1)
    assert flows == [0]


def test_matches_reference_loop_on_streaming_week():
    # Every T² identification of a seeded streaming run over the Abilene
    # week, with that run's snapshot axes, eigenvalues, sample count and
    # limit.  The row is copied: the detector may reuse its buffers.
    series = generate_abilene_dataset(DatasetConfig(weeks=1.0), seed=2004).series
    config = StreamingConfig(min_train_bins=128, recalibrate_every_bins=96)
    calls = []
    real = detector_module.identify_t2_flows

    def recording(*args):
        flows = real(*args)
        calls.append((tuple(np.array(a, copy=True) if isinstance(a, np.ndarray)
                            else a for a in args), flows))
        return flows

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(detector_module, "identify_t2_flows", recording)
        report = stream_detect(chunk_series(series, 32), config)
    assert report.n_events > 0
    assert len(calls) >= 20
    assert any(len(flows) > 1 for _, flows in calls)
    for args, flows in calls:
        assert flows == _reference_greedy_t2(*args)
