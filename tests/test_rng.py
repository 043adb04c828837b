"""The stream contract of ``bethestrip.rng.keyed_rng`` (stream version 2)."""

import numpy as np
import pytest

from bethestrip.rng import child_seed, keyed_rng


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


class TestChildSeed:
    def test_pinned_values(self):
        # the grid-point sub-seeds of every scan depend on these
        assert child_seed(5, 0, 1) == 68689400818766659852950557622155580173
        assert child_seed(5, 2**32 - 1) == 97574069597909191690794333904478404931

    @pytest.mark.parametrize("key, clash", [((2**32,), (0, 1)), ((2**33,), (0, 2))])
    def test_wide_components_raise_instead_of_colliding(self, key, clash):
        # SeedSequence would split 2**32 into the words (0, 1)
        child_seed(5, *clash)
        with pytest.raises(ValueError, match=r"\[0, 2\*\*32\)"):
            child_seed(5, *key)

    def test_negative_component_raises(self):
        with pytest.raises(ValueError, match=r"\[0, 2\*\*32\)"):
            child_seed(5, -1)
