"""Block stream keys: the vectorised SeedSequence port against numpy itself."""

import numpy as np
import pytest

from kljn import DistributionKind, NoiseSpec, sample, stream
from kljn.noise import BlockStreams, philox_keys

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# Bit indices on both sides of 2**32, where an index grows a second
# spawn_key word, and up to the end of the two-word range.
INDICES = st.one_of(
    st.integers(0, 2**32 - 1),
    st.integers(2**32 - 8, 2**32 + 8),
    st.integers(2**32, 2**64 - 8),
)


def numpy_key(seed, i, channel):
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(i, channel))
    return seq.generate_state(2, np.uint64)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(seed=st.integers(0, 2**128 - 1), start=INDICES, width=st.integers(1, 6))
def test_block_keys_equal_seed_sequence_keys(seed, start, width):
    rows = range(start, start + width)
    keys = philox_keys(seed, rows)
    assert keys.shape == (3, width, 2)
    for k, i in enumerate(rows):
        for channel in range(3):
            assert np.array_equal(keys[channel, k], numpy_key(seed, i, channel))


@pytest.mark.parametrize("seed", [0, 5, 2**32 + 7, 2**64 - 1, 2**73 + 12345, 2**200 + 3])
def test_keys_of_long_seeds_and_indices_beyond_two_words(seed):
    # Seeds past four words and indices past 2**64 take numpy's extra
    # mixing rounds; a block crossing a word boundary is split in runs.
    for rows in (range(2**32 - 2, 2**32 + 2), range(2**64 - 2, 2**64 + 2)):
        keys = philox_keys(seed, rows)
        for k, i in enumerate(rows):
            for channel in range(3):
                assert np.array_equal(keys[channel, k], numpy_key(seed, i, channel))


def test_empty_block_has_no_keys():
    assert philox_keys(3, range(5, 5)).shape == (3, 0, 2)


def test_rejects_negative_seed_and_non_consecutive_rows():
    with pytest.raises(ValueError):
        philox_keys(-1, range(3))
    with pytest.raises(ValueError):
        philox_keys(1, range(0, 10, 2))
    with pytest.raises(ValueError):
        BlockStreams(-1, range(3))


@pytest.mark.parametrize("kind", list(DistributionKind))
@pytest.mark.parametrize("channel", [1, 2])
def test_block_draws_equal_stream_draws(kind, channel):
    seed, rows, n = 2**40 + 17, range(2**32 - 3, 2**32 + 3), 257
    specs = [NoiseSpec(kind, 0.5 + k) for k in range(len(rows))]
    streams = BlockStreams(seed, rows).each(channel)
    block = [sample(spec, n, rng) for spec, rng in zip(specs, streams)]
    for k, i in enumerate(rows):
        expected = sample(specs[k], n, stream(seed, i, channel))
        assert np.array_equal(block[k], expected)


def test_block_coins_equal_stream_coins():
    seed, rows = 321, range(40, 75)
    streams = BlockStreams(seed, rows)
    pairs = [rng.integers(0, 2, size=2) for rng in streams.each(0)]
    singles = [rng.integers(0, 2) for rng in streams.each(0)]
    for k, i in enumerate(rows):
        assert np.array_equal(pairs[k], stream(seed, i, 0).integers(0, 2, size=2))
        assert singles[k] == stream(seed, i, 0).integers(0, 2)
        # Trials read the first of a session's two coins, so they share one draw.
        assert singles[k] == pairs[k][0]


def test_each_restarts_every_stream_from_its_first_draw():
    # A stream consumed partly (or by more than one buffered word) must
    # not leak state into the next bit's stream or into a second pass.
    streams = BlockStreams(9, range(3))
    first = [rng.standard_normal(3) for rng in streams.each(1)]
    for rng in streams.each(1):
        rng.integers(0, 2**31)
    again = [rng.standard_normal(3) for rng in streams.each(1)]
    for k in range(3):
        assert np.array_equal(first[k], again[k])
        assert np.array_equal(first[k], stream(9, k, 1).standard_normal(3))
