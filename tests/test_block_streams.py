"""Stream addressing: the counter rule against numpy's own Philox jumps."""

import warnings

import numpy as np
import pytest

from kljn import DistributionKind, NoiseSpec, sample, stream
from kljn.engine import _coins
from kljn.noise import BlockStreams

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# Counter words of 2**63 and above are where numpy, given the counter as a
# list of words, would round through float64; 2**32 is where a bit index
# outgrows one uint32 word.
WORDS = st.one_of(
    st.integers(0, 2**32 + 8),
    st.integers(2**63 - 2, 2**63 + 2),
    st.integers(2**64 - 8, 2**64 - 1),
    st.integers(0, 2**64 - 1),
)


def jumped(seed, i, channel):
    return np.random.Generator(np.random.Philox(seed).jumped(i + channel * 2**64))


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(seed=st.integers(0, 2**200), i=WORDS, channel=WORDS)
def test_stream_equals_philox_jumped_by_bit_and_channel(seed, i, channel):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        draws = stream(seed, i, channel).random(6)
    assert np.array_equal(draws, jumped(seed, i, channel).random(6))


@pytest.mark.parametrize("seed", [0, 5, 2**32 + 7, 2**64 - 1, 2**73 + 12345, 2**200 + 3])
def test_keys_of_long_seeds_and_indices_beyond_two_words(seed):
    # A seed of any length gives one key. Bit indices run through two uint32
    # words, one counter word, across 2**32 and 2**63 up to 2**64 - 1;
    # a block that reaches 2**64 is refused.
    for rows in (range(2**32 - 2, 2**32 + 2), range(2**63 - 2, 2**63 + 2), range(2**64 - 4, 2**64)):
        for channel in range(3):
            block = [rng.random(5) for rng in BlockStreams(seed, rows).each(channel)]
            assert len(block) == len(rows)
            for k, i in enumerate(rows):
                assert np.array_equal(block[k], stream(seed, i, channel).random(5))
    with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
        BlockStreams(seed, range(2**64 - 2, 2**64 + 2))


def test_streams_default_to_bit_and_channel_zero():
    assert np.array_equal(stream(8).random(4), stream(8, 0, 0).random(4))
    assert np.array_equal(stream(8).random(4), np.random.Generator(np.random.Philox(8)).random(4))


def test_empty_block_has_no_streams():
    assert list(BlockStreams(3, range(5, 5)).each(1)) == []


@pytest.mark.parametrize("bit, channel", [(-1, 0), (0, -1), (2**64, 0), (0, 2**64), (2**70, 1)])
def test_rejects_bit_or_channel_outside_one_counter_word(bit, channel):
    with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
        stream(1, bit, channel)


def test_rejects_negative_seed_and_blocks_outside_one_counter_word():
    with pytest.raises(ValueError, match="seed"):
        stream(-1)
    with pytest.raises(ValueError, match="seed"):
        BlockStreams(-1, range(3))
    with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
        BlockStreams(1, range(-1, 3))


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


@pytest.mark.parametrize("seed", [0, 1, 7, 2**40])
def test_run_coins_are_each_streams_first_two_integer_coins(seed):
    # A run takes bits 31 and 63 of each stream's first raw word, which is
    # what integers(0, 2, size=2) draws from the buffered halves of that word.
    for rows in (range(1000), range(2**64 - 50, 2**64)):
        want = [stream(seed, i, 0).integers(0, 2, size=2) for i in rows]
        assert np.array_equal(_coins(BlockStreams(seed, rows)), np.array(want, dtype=bool))


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
