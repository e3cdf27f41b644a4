"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro.core.types import Dataset
from repro.datagen.network import NetworkConfig, generate_network_flows
from repro.datagen.tickets import TicketConfig, generate_tickets
from repro.structures.hierarchy import BitHierarchy, ExplicitHierarchy
from repro.structures.product import ProductDomain, line_domain


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow: long-running end-to-end tests (deselect with -m 'not slow')",
    )


@pytest.fixture
def rng():
    """A deterministic random generator for tests."""
    return np.random.default_rng(20260612)


@pytest.fixture
def small_weights(rng):
    """A small heavy-tailed weight vector."""
    return 1.0 + rng.pareto(1.3, size=200)


@pytest.fixture
def line_dataset(rng):
    """A 1-D dataset over an ordered domain of size 10_000."""
    n = 300
    keys = np.sort(rng.choice(10_000, size=n, replace=False))
    weights = 1.0 + rng.pareto(1.2, size=n)
    return Dataset.one_dimensional(keys, weights, size=10_000)


@pytest.fixture
def bit_hier():
    """A 12-bit binary hierarchy."""
    return BitHierarchy(12)


@pytest.fixture
def hier_dataset(rng, bit_hier):
    """A 1-D dataset whose keys live in a 12-bit hierarchy."""
    n = 250
    keys = np.sort(rng.choice(bit_hier.num_leaves, size=n, replace=False))
    weights = 1.0 + rng.pareto(1.2, size=n)
    return Dataset(
        coords=keys.reshape(-1, 1),
        weights=weights,
        domain=ProductDomain([bit_hier]),
    )


@pytest.fixture
def grid_dataset(rng):
    """A 2-D dataset over a 1024 x 1024 product of bit hierarchies."""
    n = 400
    domain = ProductDomain([BitHierarchy(10), BitHierarchy(10)])
    coords = rng.integers(0, 1024, size=(n, 2))
    weights = 1.0 + rng.pareto(1.2, size=n)
    dataset = Dataset(coords=coords, weights=weights, domain=domain)
    return dataset.aggregate_duplicates()


@pytest.fixture(scope="session")
def network_small():
    """A small synthetic network-flow dataset (shared across tests)."""
    config = NetworkConfig(
        n_pairs=3000, n_sources=1000, n_dests=900, bits=20,
        min_prefix=4, max_prefix=12,
    )
    return generate_network_flows(config, seed=99)


@pytest.fixture(scope="session")
def tickets_small():
    """A small synthetic ticket dataset (shared across tests)."""
    config = TicketConfig(n_combinations=3000)
    return generate_tickets(config, seed=77)
