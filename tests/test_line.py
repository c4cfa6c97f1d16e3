"""Line observables: divider algebra and the three-level variance ladder."""

import math

import numpy as np
import pytest

import kljn.line
from kljn import (
    DistributionKind,
    NoiseSpec,
    ResistorPair,
    line_signals,
    sample,
    stream,
    theoretical_line_variance,
)
from kljn.line import BLOCK_SAMPLES, line_block
from kljn.noise import BlockStreams

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # hypothesis is a test extra; its property test is skipped without it
    given = None

PAIR = ResistorPair(1.0, 4.0)


def test_equal_sources_equal_resistors():
    voltage, current = line_signals(np.array([1.0]), np.array([1.0]), 2.0, 2.0)
    assert voltage[0] == 1.0
    assert current[0] == 0.0


def test_worked_divider_example():
    # v_a=4, v_b=0 behind r_a=1, r_b=3: voltage 3, current -1
    # (current positive when it flows from Bob toward Alice).
    voltage, current = line_signals(np.array([4.0]), np.array([0.0]), 1.0, 3.0)
    assert voltage[0] == 3.0
    assert current[0] == -1.0


def test_silent_bob_is_recoverable_from_the_pair():
    # With v_b = 0 the combination V + I * r_b must vanish identically,
    # because that combination reconstructs Bob's source.
    rng = np.random.default_rng(0)
    v_a = rng.normal(size=256)
    v_b = np.zeros(256)
    voltage, current = line_signals(v_a, v_b, 1.0, 3.0)
    recovered_bob = voltage + current * 3.0
    assert np.max(np.abs(recovered_bob)) < 1e-14
    recovered_alice = voltage - current * 1.0
    assert np.max(np.abs(recovered_alice - v_a)) < 1e-12


def test_linearity_in_sources():
    rng = np.random.default_rng(1)
    a1, a2 = rng.normal(size=(2, 128))
    b1, b2 = rng.normal(size=(2, 128))
    sum_v, sum_i = line_signals(a1 + a2, b1 + b2, 1.0, 4.0)
    v1, i1 = line_signals(a1, b1, 1.0, 4.0)
    v2, i2 = line_signals(a2, b2, 1.0, 4.0)
    assert np.allclose(sum_v, v1 + v2, rtol=1e-12, atol=1e-12)
    assert np.allclose(sum_i, i1 + i2, rtol=1e-12, atol=1e-12)


def test_swapping_parties_flips_current_only():
    rng = np.random.default_rng(2)
    v_a = rng.normal(size=64)
    v_b = rng.normal(size=64)
    fwd_v, fwd_i = line_signals(v_a, v_b, 1.0, 4.0)
    rev_v, rev_i = line_signals(v_b, v_a, 4.0, 1.0)
    assert np.array_equal(fwd_v, rev_v)
    assert np.array_equal(fwd_i, -rev_i)


@pytest.mark.parametrize("kind", [DistributionKind.GAUSSIAN, DistributionKind.UNIFORM])
def test_block_solved_in_place_equals_the_whole_array_formula(kind):
    # Two rows go in chunks of BLOCK_SAMPLES // 2 columns, so this n ends in
    # a ragged chunk of 7. The block gets the leading rows of NaN-filled
    # arrays; its rows must be overwritten and the rows after them untouched.
    rows, n, seed = 2, 3 * BLOCK_SAMPLES + 7, 5
    spec_low, spec_high = NoiseSpec(kind, 1.0), NoiseSpec(kind, 2.0)
    alice_high = np.array([False, True])
    out = np.full((2, rows + 1, n), np.nan)
    voltage, current = line_block(
        BlockStreams(seed, range(rows)),
        alice_high,
        ~alice_high,
        PAIR,
        spec_low,
        spec_high,
        out[:, :rows],
    )
    assert np.shares_memory(voltage, out[0]) and np.shares_memory(current, out[1])
    specs = (spec_low, spec_high)
    streams = BlockStreams(seed, range(rows))
    v_a, v_b = (
        np.array([sample(specs[h], n, g) for h, g in zip(high.tolist(), streams.each(channel))])
        for high, channel in ((alice_high, 1), (~alice_high, 2))
    )
    r_a = np.where(alice_high, PAIR.r_high, PAIR.r_low)[:, None]
    r_b = np.where(~alice_high, PAIR.r_high, PAIR.r_low)[:, None]
    expected_voltage, expected_current = line_signals(v_a, v_b, r_a, r_b)
    assert np.array_equal(voltage, expected_voltage)
    assert np.array_equal(current, expected_current)
    assert np.isnan(out[:, rows]).all()


def solve_one_mixed_bit(pair, spec_low, spec_high, n=1000):
    """``line_block`` on one Alice-low, Bob-high bit of seed 3."""
    high = np.array([False])
    out = np.empty((2, 1, n))
    return line_block(BlockStreams(3, range(1)), high, ~high, pair, spec_low, spec_high, out)


def test_block_refuses_non_finite_draws(monkeypatch):
    # A NoiseSpec's scale has a finite square, so no real draw overflows;
    # an infinity planted in one of Bob's draws must still be refused.
    low, high = NoiseSpec(DistributionKind.GAUSSIAN, 1.0), NoiseSpec(DistributionKind.GAUSSIAN, 2.0)

    def overflowing(spec, n, rng, out):
        sample(spec, n, rng, out=out)
        if spec is high:
            out[7] = math.inf
        return out

    monkeypatch.setattr(kljn.line, "sample", overflowing)
    with pytest.raises(ValueError, match="finite"):
        solve_one_mixed_bit(PAIR, low, high)


def test_block_refuses_a_divider_product_that_overflows():
    # The uniform draws reach sqrt(3) * 1e150, finite, but times r_b = 1e160
    # they overflow in the voltage's divider mix.
    pair, spec = ResistorPair(1.0, 1e160), NoiseSpec(DistributionKind.UNIFORM, 1e150)
    for channel in (1, 2):
        assert np.isfinite(sample(spec, 1000, stream(3, 0, channel))).all()
    with pytest.raises(ValueError, match="finite"):
        solve_one_mixed_bit(pair, spec, spec)


class TestTheoreticalVariance:
    """The (1, 4) ohm pair with sigmas (1, 2) gives the 0.5 / 0.8 / 2.0 ladder."""

    def test_reference_ladder(self):
        ll = theoretical_line_variance(PAIR, 1.0, 2.0, False, False)
        lh = theoretical_line_variance(PAIR, 1.0, 2.0, False, True)
        hh = theoretical_line_variance(PAIR, 1.0, 2.0, True, True)
        assert ll == pytest.approx(0.5, rel=1e-15)
        assert lh == pytest.approx(0.8, rel=1e-15)
        assert hh == pytest.approx(2.0, rel=1e-15)

    def test_mixed_states_coincide_exactly(self):
        lh = theoretical_line_variance(PAIR, 1.0, 2.0, False, True)
        hl = theoretical_line_variance(PAIR, 1.0, 2.0, True, False)
        assert lh == hl

    def test_ladder_is_ordered(self):
        ll = theoretical_line_variance(PAIR, 1.0, 2.0, False, False)
        lh = theoretical_line_variance(PAIR, 1.0, 2.0, False, True)
        hh = theoretical_line_variance(PAIR, 1.0, 2.0, True, True)
        assert ll < lh < hh

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            theoretical_line_variance(PAIR, 0.0, 2.0, False, False)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_sigma(self, bad):
        with pytest.raises(ValueError, match="sigma_low must be positive and finite"):
            theoretical_line_variance(PAIR, bad, 2.0, False, True)
        with pytest.raises(ValueError, match="sigma_high must be positive and finite"):
            theoretical_line_variance(PAIR, 1.0, bad, False, True)

    @pytest.mark.parametrize("kind", [DistributionKind.GAUSSIAN, DistributionKind.UNIFORM])
    @pytest.mark.parametrize(
        "alice_high,bob_high",
        [(False, False), (False, True), (True, False), (True, True)],
        ids=["low-low", "low-high", "high-low", "high-high"],
    )
    def test_monte_carlo_agrees(self, kind, alice_high, bob_high):
        n = 200_000
        sigmas, resistances = (1.0, 2.0), (PAIR.r_low, PAIR.r_high)
        v_a = sample(NoiseSpec(kind, sigmas[alice_high]), n, stream(10))
        v_b = sample(NoiseSpec(kind, sigmas[bob_high]), n, stream(11))
        voltage, _ = line_signals(v_a, v_b, resistances[alice_high], resistances[bob_high])
        observed = float(np.mean(voltage**2))
        expected = theoretical_line_variance(PAIR, *sigmas, alice_high, bob_high)
        assert abs(observed / expected - 1.0) < 5.0 * math.sqrt(2.0 / n)

    def test_current_variance_symmetry_between_mixed_states(self):
        # The current variance is (sigma_a^2 + sigma_b^2) / (r_a + r_b)^2,
        # also identical across the two mixed states.
        n = 200_000
        v_low = sample(NoiseSpec(DistributionKind.GAUSSIAN, 1.0), n, stream(20))
        v_high = sample(NoiseSpec(DistributionKind.GAUSSIAN, 2.0), n, stream(21))
        _, lh = line_signals(v_low, v_high, 1.0, 4.0)
        _, hl = line_signals(v_high, v_low, 4.0, 1.0)
        expected = (1.0**2 + 2.0**2) / (1.0 + 4.0) ** 2
        for current in (lh, hl):
            observed = float(np.mean(current**2))
            assert abs(observed / expected - 1.0) < 5.0 * math.sqrt(2.0 / n)


if given is not None:

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(1e-3, 1e3),
        st.floats(1e-3, 1e3),
        st.floats(1e-3, 1e3),
        st.floats(1e-3, 1e3),
    )
    def test_variance_is_the_divider_formula_at_every_state(r_low, r_step, sigma_low, sigma_high):
        pair = ResistorPair(r_low, r_low + r_step)
        for alice_high in (False, True):
            for bob_high in (False, True):
                r_a = pair.r_high if alice_high else pair.r_low
                r_b = pair.r_high if bob_high else pair.r_low
                s_a = sigma_high if alice_high else sigma_low
                s_b = sigma_high if bob_high else sigma_low
                want = (s_a**2 * r_b**2 + s_b**2 * r_a**2) / (r_a + r_b) ** 2
                got = theoretical_line_variance(pair, sigma_low, sigma_high, alice_high, bob_high)
                assert got == want

else:

    def test_variance_is_the_divider_formula_at_every_state():
        pytest.skip("needs hypothesis")
