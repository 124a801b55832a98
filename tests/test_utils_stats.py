"""Unit tests for the statistical threshold helpers."""

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.utils.stats import (
    empirical_quantile_threshold,
    f_quantile,
    normal_quantile,
    q_statistic_threshold,
    t_squared_threshold,
)

CONFIDENCES = (0.9, 0.99, 0.995, 0.999, 0.9999)


class TestNormalQuantile:
    def test_median_is_zero(self):
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_known_value_999(self):
        assert normal_quantile(0.999) == pytest.approx(3.0902, abs=1e-3)

    def test_monotone_in_confidence(self):
        assert normal_quantile(0.99) < normal_quantile(0.999) < normal_quantile(0.9999)

    def test_matches_scipy(self):
        for confidence in (0.5, *CONFIDENCES):
            assert normal_quantile(confidence) == scipy_stats.norm.ppf(confidence)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5])
    def test_rejects_invalid_confidence(self, bad):
        with pytest.raises(ValueError):
            normal_quantile(bad)


class TestFQuantile:
    def test_matches_scipy(self):
        # Bitwise: scipy.stats' F ppf is a wrapper around scipy.special.fdtri.
        for confidence in CONFIDENCES:
            for dfn, dfd in [(1, 30), (4, 92), (4, 2000), (4, 2012), (5, 8060),
                             (10, 20_000), (4, 199_996)]:
                assert (f_quantile(dfn, dfd, confidence)
                        == scipy_stats.f.ppf(confidence, dfn, dfd)), (dfn, dfd, confidence)

    def test_increases_with_confidence(self):
        assert f_quantile(4, 100, 0.99) < f_quantile(4, 100, 0.999)

    def test_rejects_bad_degrees_of_freedom(self):
        with pytest.raises(ValueError):
            f_quantile(0, 10, 0.99)
        with pytest.raises(ValueError):
            f_quantile(10, 0, 0.99)


class TestTSquaredThreshold:
    def test_formula_matches_definition(self):
        k, n, conf = 4, 2016, 0.999
        expected = k * (n - 1) / (n - k) * scipy_stats.f.ppf(conf, k, n - k)
        assert t_squared_threshold(k, n, conf) == pytest.approx(expected)

    def test_grows_with_k(self):
        assert t_squared_threshold(2, 500) < t_squared_threshold(6, 500)

    def test_approaches_chi2_for_large_n(self):
        # For large n the limit tends to the chi-square quantile with k dof.
        value = t_squared_threshold(4, 200_000, 0.999)
        chi2 = scipy_stats.chi2.ppf(0.999, 4)
        assert value == pytest.approx(chi2, rel=1e-2)

    def test_requires_enough_samples(self):
        with pytest.raises(ValueError):
            t_squared_threshold(4, 5)


class TestQStatisticThreshold:
    def test_zero_residual_variance_gives_zero(self):
        eigenvalues = np.array([5.0, 1.0, 0.0, 0.0])
        assert q_statistic_threshold(eigenvalues, 2) == 0.0

    def test_positive_for_positive_residual(self):
        eigenvalues = np.array([10.0, 5.0, 1.0, 0.5, 0.2])
        assert q_statistic_threshold(eigenvalues, 2) > 0.0

    def test_grows_with_confidence(self):
        eigenvalues = np.array([10.0, 5.0, 1.0, 0.5, 0.2])
        low = q_statistic_threshold(eigenvalues, 2, confidence=0.95)
        high = q_statistic_threshold(eigenvalues, 2, confidence=0.999)
        assert high > low

    def test_grows_with_residual_variance(self):
        small = q_statistic_threshold(np.array([10.0, 1.0, 0.1, 0.1]), 1)
        large = q_statistic_threshold(np.array([10.0, 1.0, 1.0, 1.0]), 1)
        assert large > small

    def test_coverage_on_gaussian_noise(self):
        """On i.i.d. Gaussian data the SPE should rarely exceed the limit."""
        rng = np.random.default_rng(0)
        n, p, k = 4000, 30, 4
        data = rng.normal(size=(n, p))
        centered = data - data.mean(axis=0)
        u, s, vt = np.linalg.svd(centered, full_matrices=False)
        eigenvalues = s**2 / (n - 1)
        residual = centered - centered @ vt[:k].T @ vt[:k]
        spe = np.sum(residual**2, axis=1)
        threshold = q_statistic_threshold(eigenvalues, k, confidence=0.999)
        exceed_rate = np.mean(spe > threshold)
        assert exceed_rate < 0.01

    def test_rejects_bad_n_normal(self):
        with pytest.raises(ValueError):
            q_statistic_threshold(np.array([1.0, 0.5]), 2)

    def test_scale_equivariance(self):
        """Scaling the data by c scales the SPE threshold by c^2."""
        eigenvalues = np.array([10.0, 5.0, 1.0, 0.5, 0.2])
        base = q_statistic_threshold(eigenvalues, 2)
        scaled = q_statistic_threshold(eigenvalues * 9.0, 2)
        assert scaled == pytest.approx(9.0 * base, rel=1e-9)


class TestEmpiricalQuantileThreshold:
    def test_matches_numpy_quantile(self):
        values = np.arange(1000, dtype=float)
        assert empirical_quantile_threshold(values, 0.9) == pytest.approx(
            np.quantile(values, 0.9))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            empirical_quantile_threshold(np.array([]), 0.9)


def test_library_does_not_import_scipy_stats():
    # The limits need two quantiles from scipy.special; importing
    # scipy.stats would add its set-up time and memory to every process.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    code = ("import sys, repro.core, repro.streaming, repro.ingest, repro.service; "
            "print('scipy.stats' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
