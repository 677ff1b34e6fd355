"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures and prints
the reproduced rows (run pytest with ``-s`` to see them inline).  RL-based
benchmarks run a reduced training budget; scale the configuration up via
``repro.experiments.benchmark_config`` overrides for a longer, closer run.
"""

from __future__ import annotations

import pytest

from repro.experiments import benchmark_config, optimise_suite


@pytest.fixture(scope="session")
def rl_config():
    """The X-RLflow configuration shared by all RL-driven benchmarks."""
    return benchmark_config()


@pytest.fixture(scope="session")
def suite_results(rl_config):
    """TASO + X-RLflow results and trained agents on the full evaluation
    suite (Figures 4–8).

    Computed once per benchmark session and shared, since the figures are
    different views of the same optimisation runs.
    """
    return optimise_suite(config=rl_config)
