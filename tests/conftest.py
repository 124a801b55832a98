"""Shared pytest fixtures.

Fixtures are session-scoped where generation is expensive so the suite stays
fast; tests must not mutate fixture objects in place (copy first).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import DatasetConfig, generate_abilene_dataset
from repro.topology import abilene_topology
from repro.traffic import ODTrafficGenerator
from repro.utils.timebins import TimeBinning


@pytest.fixture(scope="session")
def abilene():
    """The 11-PoP Abilene topology."""
    return abilene_topology()


@pytest.fixture(scope="session")
def one_day_binning():
    """One day of 5-minute bins."""
    return TimeBinning(n_bins=288, bin_seconds=300)


@pytest.fixture(scope="session")
def clean_series(abilene, one_day_binning):
    """One day of anomaly-free Abilene traffic (do not mutate; copy first)."""
    generator = ODTrafficGenerator(abilene, seed=5)
    return generator.generate(one_day_binning)


@pytest.fixture(scope="session")
def small_dataset():
    """Two days of Abilene traffic with a scaled-down anomaly schedule."""
    return generate_abilene_dataset(DatasetConfig(weeks=2.0 / 7.0), seed=11)


@pytest.fixture(scope="session")
def clean_dataset():
    """Two days of Abilene traffic without any injected anomalies."""
    return generate_abilene_dataset(DatasetConfig(weeks=2.0 / 7.0, schedule=None), seed=12)


@pytest.fixture()
def rng():
    """A per-test deterministic RNG."""
    return np.random.default_rng(1234)
