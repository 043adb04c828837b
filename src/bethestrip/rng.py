"""Deterministic random-number streams.

Every stochastic routine in the package derives its generator from a user
seed plus a structural key (what the stream is for, which sweep, which chunk,
which disorder realization).  Streams are therefore reproducible bit-for-bit
across runs and across worker counts: parallelism only changes who computes a
chunk, never which stream the chunk uses.
"""

import numpy as np

# Stream tags.  These are part of the on-disk reproducibility contract:
# changing them changes every sampled number.
TAG_SWEEP = 1        # population resampling sweeps: (TAG, sweep_index, chunk)
TAG_MEASURE = 2      # observable estimation draws: (TAG, context...)
TAG_REALIZATION = 3  # disorder realizations, all sites in BFS order: (TAG, realization)
TAG_GENERIC = 4      # anything else that just needs a named stream


def keyed_rng(seed, *key):
    """Return a Generator for the stream identified by (seed, key).

    The same (seed, key) always yields the same sequence.  Distinct keys give
    statistically independent Philox streams.
    """
    key = tuple(int(k) for k in key)
    if any(k < 0 for k in key):
        raise ValueError("stream key components must be non-negative")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


def child_seed(seed, *key) -> int:
    """Derive an independent sub-seed, e.g. one per scan grid point.

    Unlike ``seed + index`` arithmetic this cannot collide across runs with
    adjacent seeds.
    """
    key = tuple(int(k) for k in key)
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(TAG_GENERIC,) + key)
    words = ss.generate_state(2, np.uint64)
    return int(words[0]) + (int(words[1]) << 64)
