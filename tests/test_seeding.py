"""Seed derivation builds numpy's own SeedSequence pool from uint32 words."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smaup.seeding import derive_rng, derive_seed

# masters and path elements of one word, of several words, and 0
masters = st.integers(0, 2**64 - 1) | st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1])
elements = st.integers(0, 2**32 - 1) | st.integers(2**32, 2**96) | st.just(0)


def numpy_seed_sequence(master, path):
    return np.random.SeedSequence(entropy=master, spawn_key=tuple(path))


class TestDeriveSeed:
    @settings(max_examples=500, deadline=None)
    @given(masters, st.lists(elements, max_size=8))
    def test_equals_numpy_seed_sequence(self, master, path):
        expected = int(numpy_seed_sequence(master, path).generate_state(1, dtype=np.uint64)[0])
        assert derive_seed(master, *path) == expected

    @settings(max_examples=100, deadline=None)
    @given(masters, st.lists(elements, max_size=8))
    def test_rng_equals_numpy_seed_sequence(self, master, path):
        expected = np.random.default_rng(numpy_seed_sequence(master, path))
        got = derive_rng(master, *path)
        assert got.bit_generator.state == expected.bit_generator.state
        assert got.integers(0, 2**63, size=4).tolist() == expected.integers(0, 2**63, size=4).tolist()

    def test_numpy_integers_accepted(self):
        assert derive_seed(np.uint64(2**63), np.int64(3)) == derive_seed(2**63, 3)

    @pytest.mark.parametrize("args", [(-1,), (5, -1), (5, 2, -(2**40))])
    def test_negative_refused_as_numpy_does(self, args):
        with pytest.raises(ValueError):
            numpy_seed_sequence(args[0], args[1:])
        with pytest.raises(ValueError):
            derive_seed(*args)

    @pytest.mark.parametrize("args", [(1.5, 2), (1, 2.0), (True,), (3, False), (np.float64(1),)],
                             ids=["seed-fraction", "path-float", "seed-bool", "path-bool", "seed-numpy-float"])
    def test_non_integer_refused(self, args):
        with pytest.raises(ValueError, match="non-negative integer"):
            derive_seed(*args)
        with pytest.raises(ValueError, match="non-negative integer"):
            derive_rng(*args)
