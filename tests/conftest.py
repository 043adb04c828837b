import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

HYPOTHESIS_HOME = pytest.StashKey[tempfile.TemporaryDirectory]()

# Tier-1 is deterministic and writes no example database; loaded before the
# test modules are collected, so every @settings inherits it
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")


def spawned_seed(seed, *key):
    """The 128-bit seed that ``SeedSequence(seed, spawn_key=(4, *key))`` gives.

    Tests whose tolerances were calibrated on these per-case seeds keep them;
    the package no longer derives seeds itself.
    """
    words = np.random.SeedSequence(seed, spawn_key=(4, *key)).generate_state(2, np.uint64)
    return int(words[0]) + (int(words[1]) << 64)


def random_symmetric(m, rng, scale=1.0):
    X = rng.standard_normal((m, m))
    return scale * 0.5 * (X + X.T)


def random_psd(m, rng, scale=1.0):
    B = rng.standard_normal((m, m))
    return scale * (B @ B.T) / m


def random_herglotz(m, rng, eta=0.3):
    """Complex symmetric matrix with Im part >= eta (a valid Green sample)."""
    return random_symmetric(m, rng) + 1j * (random_psd(m, rng) + eta * np.eye(m))


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)


def pytest_configure(config):
    # hypothesis caches the constants of local modules at collection, even with
    # database=None; a home for the session keeps that cache out of the tree
    home = config.stash[HYPOTHESIS_HOME] = tempfile.TemporaryDirectory(
        prefix="hypothesis-")
    set_hypothesis_home_dir(home.name)


def pytest_unconfigure(config):
    config.stash[HYPOTHESIS_HOME].cleanup()
