"""The stream contract of ``bethestrip.rng.keyed_rng``, unchanged since stream version 2."""

import numpy as np
import pytest

from bethestrip.rng import keyed_rng


def raw(rng, n=8):
    return rng.bit_generator.random_raw(n)


class TestKeyedStreams:
    def test_same_seed_and_key_same_bytes(self):
        assert raw(keyed_rng(5, 1, 2, 3)).tobytes() == raw(keyed_rng(5, 1, 2, 3)).tobytes()
        a = keyed_rng(5, 2, 7).standard_normal(100)
        assert a.tobytes() == keyed_rng(5, 2, 7).standard_normal(100).tobytes()

    @pytest.mark.parametrize("key_a, key_b", [
        ((3,), (3, 0)),          # differ only in length
        ((3, 0), (3, 0, 0)),
        ((), (0,)),
        ((1, 0, 0), (1, 0, 1)),
        ((1, 2), (2, 1)),
        ((2**32,), (0, 1)),      # one word per component, not 32-bit pieces
    ])
    def test_distinct_keys_distinct_streams(self, key_a, key_b):
        assert not np.array_equal(raw(keyed_rng(5, *key_a)), raw(keyed_rng(5, *key_b)))

    def test_distinct_seeds_distinct_streams(self):
        assert not np.array_equal(raw(keyed_rng(5, 3)), raw(keyed_rng(6, 3)))

    def test_largest_components_accepted(self):
        assert raw(keyed_rng(5, 2**64 - 1, 0, 2**64 - 1)).shape == (8,)

    @pytest.mark.parametrize("key", [(1, 2, 3, 4), (2**64,), (1, -1)])
    def test_bad_keys_raise(self, key):
        with pytest.raises(ValueError):
            keyed_rng(5, *key)

    def test_pinned_words(self):
        # a silent change of the stream construction changes every output
        assert raw(keyed_rng(13, 1, 0, 0), 4).tolist() == [
            12945478933868363012, 14856470068897859855,
            7845401438755053333, 177329347437187908]
