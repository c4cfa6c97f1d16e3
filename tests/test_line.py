"""Line observables: divider algebra and the three-level variance ladder."""

import math

import numpy as np
import pytest

from kljn import (
    DistributionKind,
    LineTrace,
    NoiseSpec,
    ResistorPair,
    SwitchState,
    Trace,
    line_signals,
    resistance_for,
    sample,
    sigma_for,
    theoretical_line_variance,
)

PAIR = ResistorPair(1.0, 4.0)


def test_equal_sources_equal_resistors():
    lt = line_signals(Trace([1.0]), Trace([1.0]), 2.0, 2.0)
    assert lt.voltage.samples[0] == 1.0
    assert lt.current.samples[0] == 0.0


def test_worked_divider_example():
    # v_a=4, v_b=0 behind r_a=1, r_b=3: voltage 3, current -1
    # (current positive when it flows from Bob toward Alice).
    lt = line_signals(Trace([4.0]), Trace([0.0]), 1.0, 3.0)
    assert lt.voltage.samples[0] == 3.0
    assert lt.current.samples[0] == -1.0


def test_silent_bob_is_recoverable_from_the_pair():
    # With v_b = 0 the combination V + I * r_b must vanish identically,
    # because that combination reconstructs Bob's source.
    rng = np.random.default_rng(0)
    v_a = Trace(rng.normal(size=256))
    v_b = Trace(np.zeros(256))
    lt = line_signals(v_a, v_b, 1.0, 3.0)
    recovered_bob = lt.voltage.samples + lt.current.samples * 3.0
    assert np.max(np.abs(recovered_bob)) < 1e-14
    recovered_alice = lt.voltage.samples - lt.current.samples * 1.0
    assert np.max(np.abs(recovered_alice - v_a.samples)) < 1e-12


def test_linearity_in_sources():
    rng = np.random.default_rng(1)
    a1, a2 = rng.normal(size=(2, 128))
    b1, b2 = rng.normal(size=(2, 128))
    lt_sum = line_signals(Trace(a1 + a2), Trace(b1 + b2), 1.0, 4.0)
    lt1 = line_signals(Trace(a1), Trace(b1), 1.0, 4.0)
    lt2 = line_signals(Trace(a2), Trace(b2), 1.0, 4.0)
    assert np.allclose(
        lt_sum.voltage.samples, lt1.voltage.samples + lt2.voltage.samples, rtol=1e-12, atol=1e-12
    )
    assert np.allclose(
        lt_sum.current.samples, lt1.current.samples + lt2.current.samples, rtol=1e-12, atol=1e-12
    )


def test_swapping_parties_flips_current_only():
    rng = np.random.default_rng(2)
    v_a = Trace(rng.normal(size=64))
    v_b = Trace(rng.normal(size=64))
    fwd = line_signals(v_a, v_b, 1.0, 4.0)
    rev = line_signals(v_b, v_a, 4.0, 1.0)
    assert np.array_equal(fwd.voltage.samples, rev.voltage.samples)
    assert np.array_equal(fwd.current.samples, -rev.current.samples)


def test_rejects_length_mismatch_and_bad_resistance():
    with pytest.raises(ValueError):
        line_signals(Trace([1.0, 2.0]), Trace([1.0]), 1.0, 1.0)
    with pytest.raises(ValueError):
        line_signals(Trace([1.0]), Trace([1.0]), 0.0, 1.0)
    with pytest.raises(ValueError):
        LineTrace(voltage=Trace([1.0, 2.0]), current=Trace([1.0]))


def test_state_helpers():
    assert resistance_for(PAIR, SwitchState.LOW) == 1.0
    assert resistance_for(PAIR, SwitchState.HIGH) == 4.0
    assert sigma_for(SwitchState.LOW, 1.0, 2.0) == 1.0
    assert sigma_for(SwitchState.HIGH, 1.0, 2.0) == 2.0


class TestTheoreticalVariance:
    """The (1, 4) ohm pair with sigmas (1, 2) gives the 0.5 / 0.8 / 2.0 ladder."""

    def test_reference_ladder(self):
        ll = theoretical_line_variance(PAIR, 1.0, 2.0, SwitchState.LOW, SwitchState.LOW)
        lh = theoretical_line_variance(PAIR, 1.0, 2.0, SwitchState.LOW, SwitchState.HIGH)
        hh = theoretical_line_variance(PAIR, 1.0, 2.0, SwitchState.HIGH, SwitchState.HIGH)
        assert ll == pytest.approx(0.5, rel=1e-15)
        assert lh == pytest.approx(0.8, rel=1e-15)
        assert hh == pytest.approx(2.0, rel=1e-15)

    def test_mixed_states_coincide_exactly(self):
        lh = theoretical_line_variance(PAIR, 1.0, 2.0, SwitchState.LOW, SwitchState.HIGH)
        hl = theoretical_line_variance(PAIR, 1.0, 2.0, SwitchState.HIGH, SwitchState.LOW)
        assert lh == hl

    def test_ladder_is_ordered(self):
        ll = theoretical_line_variance(PAIR, 1.0, 2.0, SwitchState.LOW, SwitchState.LOW)
        lh = theoretical_line_variance(PAIR, 1.0, 2.0, SwitchState.LOW, SwitchState.HIGH)
        hh = theoretical_line_variance(PAIR, 1.0, 2.0, SwitchState.HIGH, SwitchState.HIGH)
        assert ll < lh < hh

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            theoretical_line_variance(PAIR, 0.0, 2.0, SwitchState.LOW, SwitchState.LOW)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_sigma(self, bad):
        with pytest.raises(ValueError, match="sigma_low must be positive and finite"):
            theoretical_line_variance(PAIR, bad, 2.0, SwitchState.LOW, SwitchState.HIGH)
        with pytest.raises(ValueError, match="sigma_high must be positive and finite"):
            theoretical_line_variance(PAIR, 1.0, bad, SwitchState.LOW, SwitchState.HIGH)

    @pytest.mark.parametrize("kind", [DistributionKind.GAUSSIAN, DistributionKind.UNIFORM])
    @pytest.mark.parametrize(
        "state_a,state_b",
        [
            (SwitchState.LOW, SwitchState.LOW),
            (SwitchState.LOW, SwitchState.HIGH),
            (SwitchState.HIGH, SwitchState.LOW),
            (SwitchState.HIGH, SwitchState.HIGH),
        ],
    )
    def test_monte_carlo_agrees(self, kind, state_a, state_b):
        n = 200_000
        sigma_low, sigma_high = 1.0, 2.0
        v_a = sample(NoiseSpec(kind, sigma_for(state_a, sigma_low, sigma_high)), n, seed=10)
        v_b = sample(NoiseSpec(kind, sigma_for(state_b, sigma_low, sigma_high)), n, seed=11)
        lt = line_signals(
            v_a, v_b, resistance_for(PAIR, state_a), resistance_for(PAIR, state_b)
        )
        observed = float(np.mean(lt.voltage.samples**2))
        expected = theoretical_line_variance(PAIR, sigma_low, sigma_high, state_a, state_b)
        assert abs(observed / expected - 1.0) < 5.0 * math.sqrt(2.0 / n)

    def test_current_variance_symmetry_between_mixed_states(self):
        # The current variance is (sigma_a^2 + sigma_b^2) / (r_a + r_b)^2,
        # also identical across the two mixed states.
        n = 200_000
        v_low = sample(NoiseSpec(DistributionKind.GAUSSIAN, 1.0), n, seed=20)
        v_high = sample(NoiseSpec(DistributionKind.GAUSSIAN, 2.0), n, seed=21)
        lh = line_signals(v_low, v_high, 1.0, 4.0)
        hl = line_signals(v_high, v_low, 4.0, 1.0)
        expected = (1.0**2 + 2.0**2) / (1.0 + 4.0) ** 2
        for lt in (lh, hl):
            observed = float(np.mean(lt.current.samples**2))
            assert abs(observed / expected - 1.0) < 5.0 * math.sqrt(2.0 / n)
