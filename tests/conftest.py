"""Shared fixtures. Gain tuning is slow enough to run once per session."""

from __future__ import annotations

import pytest

from spillreg import pidbatch
from spillreg.controllers import tune_pid
from spillreg.spillsim import EnvConfig

TRAIN_SEEDS = tuple(range(9))


def pytest_collection_modifyitems(items):
    # every pin of test_fingerprints.py reruns on the other Pythons (other_pythons in pyproject.toml)
    for item in items:
        if item.path.name == "test_fingerprints.py":
            item.add_marker(pytest.mark.other_pythons)


@pytest.fixture(scope="session")
def env_cfg() -> EnvConfig:
    return EnvConfig()


@pytest.fixture(scope="session")
def short_cfg() -> EnvConfig:
    # small episode for property tests that sweep many episodes
    return EnvConfig(steps_per_episode=40)


@pytest.fixture(scope="session")
def tuned_gains(env_cfg):
    gains, _ = tune_pid(env_cfg, list(TRAIN_SEEDS))
    return gains


@pytest.fixture()
def kernel_passes(monkeypatch):
    """Row counts of the batched-kernel passes the test runs, one entry a pass."""
    passes = []
    real_block = pidbatch._block_sdfs

    def counting_block(config, raw, rows):
        passes.append(len(rows))
        return real_block(config, raw, rows)

    monkeypatch.setattr(pidbatch, "_block_sdfs", counting_block)
    return passes
