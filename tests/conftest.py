import dataclasses

import pytest

from relaymdp import (
    ModelConfig,
    backward_induction,
    build_forwarding_region,
    build_ordered_family,
    extract_thresholds,
)


@pytest.fixture(scope="session")
def default_config():
    return ModelConfig().validate()


@pytest.fixture(scope="session")
def default_grid(default_config):
    return build_forwarding_region(default_config)


@pytest.fixture(scope="session")
def default_family(default_config, default_grid):
    return build_ordered_family(default_grid, default_config)


@pytest.fixture(scope="session")
def default_tables(default_config, default_family):
    return backward_induction(default_family, default_config)


@pytest.fixture(scope="session")
def default_thresholds(default_tables):
    return extract_thresholds(default_tables)


def small_instance(n_locations, n_bins, n_relays, eta, delta, tau=0.3):
    config = ModelConfig(
        n_locations=n_locations,
        n_reward_bins=n_bins,
        n_relays=n_relays,
        eta=eta,
        delta=delta,
        tau=tau,
    ).validate()
    grid = build_forwarding_region(config)
    family = build_ordered_family(grid, config)
    return config, family


def corrupted(levels):
    """A copy of solved levels whose action tables may be edited."""
    return dataclasses.replace(
        levels, actions=[[a.copy() for a in stage] for stage in levels.actions])


# tracemalloc peaks of the complete-class path on the reference config at
# eta 10 (``memory_peaks.py``), plus 20%: the solve's, its tables included
# (19.71 MB), and the exact sweep's and the conjecture report's above the
# tables they read (13.95 and 2.07 MB).  At six relays the same constants
# bound each peak less the tables, the sweep's less its two largest
# consecutive stages' masses too.
SOLVE_PEAK, SWEEP_PEAK, REPORT_PEAK = 23.7e6, 16.8e6, 2.48e6
