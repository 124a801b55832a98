"""Statistical helpers for the subspace method.

This module implements the two threshold statistics the paper relies on:

* the **Q-statistic** (Jackson–Mudholkar, 1979) limit for the squared
  prediction error of the residual subspace, and
* the **Hotelling T²** limit ``k(n-1)/(n-k) · F(k, n-k; alpha)`` for the
  normal subspace.

Both are exposed as plain functions so that they can be unit-tested in
isolation and reused by baselines and ablations.
"""

from __future__ import annotations

import numpy as np
from scipy import special as _special

from repro.utils.validation import ensure_probability, require

__all__ = [
    "normal_quantile",
    "f_quantile",
    "q_statistic_threshold",
    "t_squared_threshold",
    "empirical_quantile_threshold",
]


def normal_quantile(confidence: float) -> float:
    """Return the standard-normal quantile at *confidence* (e.g. 0.999)."""
    ensure_probability(confidence, "confidence")
    return float(_special.ndtri(confidence))


def f_quantile(dfn: int, dfd: int, confidence: float) -> float:
    """Return the F-distribution quantile with *dfn*, *dfd* degrees of freedom."""
    require(dfn >= 1, "dfn must be >= 1")
    require(dfd >= 1, "dfd must be >= 1")
    ensure_probability(confidence, "confidence")
    return float(_special.fdtri(dfn, dfd, confidence))


def q_statistic_threshold(
    eigenvalues: np.ndarray,
    n_normal: int,
    confidence: float = 0.999,
) -> float:
    """Jackson–Mudholkar Q-statistic limit for the squared prediction error.

    Parameters
    ----------
    eigenvalues:
        All eigenvalues of the data covariance, sorted in descending order.
        Only the residual eigenvalues (index >= *n_normal*) enter the limit.
    n_normal:
        Number of principal components in the normal subspace (the paper
        uses ``k = 4``).
    confidence:
        One-sided confidence level ``1 - alpha`` (paper: 0.999).

    Returns
    -------
    float
        The threshold ``delta^2`` such that ``||x~||^2 > delta^2`` flags an
        anomaly at the requested confidence level.

    Notes
    -----
    With ``phi_i = sum_{j>k} lambda_j^i`` and
    ``h0 = 1 - 2 phi_1 phi_3 / (3 phi_2^2)``, the limit is::

        delta^2 = phi_1 * [ c_a sqrt(2 phi_2 h0^2) / phi_1
                            + 1 + phi_2 h0 (h0 - 1) / phi_1^2 ] ** (1 / h0)

    where ``c_a`` is the standard-normal quantile at the confidence level.
    Degenerate cases (no residual variance) return 0.0 so that any non-zero
    residual is flagged.
    """
    ensure_probability(confidence, "confidence")
    lam = np.asarray(eigenvalues, dtype=float).ravel()
    require(lam.ndim == 1 and lam.size > 0, "eigenvalues must be a non-empty 1-D array")
    require(0 <= n_normal < lam.size, "n_normal must satisfy 0 <= n_normal < len(eigenvalues)")
    residual = np.clip(lam[n_normal:], 0.0, None)

    phi1 = float(np.sum(residual))
    phi2 = float(np.sum(residual**2))
    phi3 = float(np.sum(residual**3))
    if phi1 <= 0.0 or phi2 <= 0.0:
        return 0.0

    h0 = 1.0 - 2.0 * phi1 * phi3 / (3.0 * phi2**2)
    if h0 <= 0.0:
        # Jackson & Mudholkar note h0 may turn negative for pathological
        # spectra; fall back to h0 -> small positive, which gives a
        # conservative (large) threshold.
        h0 = 1e-4

    c_alpha = normal_quantile(confidence)
    term = (
        c_alpha * np.sqrt(2.0 * phi2 * h0**2) / phi1
        + 1.0
        + phi2 * h0 * (h0 - 1.0) / phi1**2
    )
    if term <= 0.0:
        return 0.0
    return float(phi1 * term ** (1.0 / h0))


def t_squared_threshold(n_normal: int, n_samples: int, confidence: float = 0.999) -> float:
    """Hotelling T² control limit ``k(n-1)/(n-k) · F(k, n-k; alpha)``.

    Parameters
    ----------
    n_normal:
        Dimension ``k`` of the normal subspace.
    n_samples:
        Number of timebins ``n`` used to fit the model.
    confidence:
        One-sided confidence level ``1 - alpha`` (paper: 0.999).
    """
    require(n_normal >= 1, "n_normal must be >= 1")
    require(n_samples > n_normal + 1, "n_samples must exceed n_normal + 1")
    f_value = f_quantile(n_normal, n_samples - n_normal, confidence)
    return float(n_normal * (n_samples - 1) / (n_samples - n_normal) * f_value)


def empirical_quantile_threshold(values: np.ndarray, confidence: float = 0.999) -> float:
    """Empirical quantile threshold used by the baseline detectors.

    This is intentionally simple: baselines that lack a parametric control
    limit flag values above the empirical *confidence* quantile of their own
    detection statistic.
    """
    ensure_probability(confidence, "confidence")
    array = np.asarray(values, dtype=float).ravel()
    require(array.size > 0, "values must be non-empty")
    return float(np.quantile(array, confidence))
