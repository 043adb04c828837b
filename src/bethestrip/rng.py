"""Deterministic random-number streams, version 3.

Every stochastic routine in the package derives its generator from a user
seed plus a structural key (what the stream is for, which sweep, which chunk,
which disorder realization), never from the energy: every energy of a run
reads the same streams.  They are reproducible bit-for-bit across runs and
worker counts: parallelism only changes who computes a chunk, never which
stream the chunk uses.
"""

from functools import lru_cache

import numpy as np

# Stream tags.  These are part of the on-disk reproducibility contract:
# changing them changes every sampled number.
TAG_SWEEP = 1        # population resampling sweeps: (TAG, sweep_index, chunk)
TAG_MEASURE = 2      # observable estimation draws: (TAG, context...)
TAG_REALIZATION = 3  # disorder realizations, all sites in BFS order: (TAG, realization)


@lru_cache(maxsize=1024)
def _run_sequence(seed):  # np.random loads here, not at import
    return np.random.SeedSequence(seed)


def keyed_rng(seed, *key):
    """Return a Generator for the stream identified by (seed, key).

    Counter-based Philox (Salmon et al., SC'11) keyed by SeedSequence(seed): the
    key (at most 3 components in [0, 2**64)) fills counter words 1-3 and its length
    the top 2 bits of word 0, so distinct keys, even (3,) and (3, 0), start disjoint
    counter ranges.
    """
    key = tuple(int(k) for k in key)
    if len(key) > 3 or any(k < 0 or k >> 64 for k in key):
        raise ValueError("a stream key is at most 3 components, each in [0, 2**64)")
    counter = np.array([len(key) << 62, *key, 0, 0, 0][:4], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_run_sequence(int(seed)), counter=counter))
