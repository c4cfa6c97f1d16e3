"""Eavesdropper: reconstruction algebra, tests, and hypothesis decisions."""

import json
import math

import numpy as np
import pytest

from kljn import (
    DistributionKind,
    EveDecision,
    LineTrace,
    NoiseSpec,
    ResistorPair,
    SwitchState,
    Trace,
    attack,
    attack_trials,
    decision_credit,
    line_signals,
    reconstruct_alice,
    reconstruct_bob,
    reference_grid,
    sample,
    security_sigma_ratio,
    shape_test,
    stream,
    variance_test,
    weights,
    wrong_hypothesis_variance,
)
from kljn.eve import _ks_steps, _reference_cdf, _shape_rows

PAIR = ResistorPair(1.0, 4.0)
GAUSS_LOW = NoiseSpec(DistributionKind.GAUSSIAN, 1.0)
GAUSS_HIGH = NoiseSpec(DistributionKind.GAUSSIAN, 2.0)


def mixed_line(spec_low, spec_high, n, seed, alice_low=True):
    """One mixed-state bit's sources and line signals."""
    a_state = SwitchState.LOW if alice_low else SwitchState.HIGH
    b_state = SwitchState.HIGH if alice_low else SwitchState.LOW
    spec_a = spec_low if alice_low else spec_high
    spec_b = spec_high if alice_low else spec_low
    v_a = sample(spec_a, n, stream(seed, 1))
    v_b = sample(spec_b, n, stream(seed, 2))
    r_a = PAIR.r_low if alice_low else PAIR.r_high
    r_b = PAIR.r_high if alice_low else PAIR.r_low
    return v_a, v_b, line_signals(v_a, v_b, r_a, r_b)


class TestReconstruction:
    def test_worked_example(self):
        line = LineTrace(voltage=Trace([3.0]), current=Trace([-1.0]))
        assert reconstruct_alice(line, 3.0).samples[0] == 6.0
        assert reconstruct_bob(line, 1.0).samples[0] == 2.0

    def test_correct_hypothesis_recovers_sources_exactly(self):
        v_a, v_b, line = mixed_line(GAUSS_LOW, GAUSS_HIGH, 4096, seed=3)
        got_a = reconstruct_alice(line, PAIR.r_low)
        got_b = reconstruct_bob(line, PAIR.r_high)
        assert np.max(np.abs(got_a.samples - v_a.samples)) < 1e-12
        assert np.max(np.abs(got_b.samples - v_b.samples)) < 1e-12

    def test_reconstructions_recombine_to_line_voltage(self):
        # Under any resistance guess (r_a, r_b), mixing the two party
        # reconstructions through the divider returns the line voltage.
        _, _, line = mixed_line(GAUSS_LOW, GAUSS_HIGH, 1024, seed=4)
        for r_a, r_b in ((1.0, 4.0), (4.0, 1.0), (2.5, 7.0)):
            est_a = reconstruct_alice(line, r_a).samples
            est_b = reconstruct_bob(line, r_b).samples
            mixed = (est_a * r_b + est_b * r_a) / (r_a + r_b)
            assert np.max(np.abs(mixed - line.voltage.samples)) < 1e-12

    def test_wrong_hypothesis_is_a_scaled_mixture(self):
        # Swapping the resistor guess turns the reconstruction into
        # alpha * (v_a / sigma_low) - beta * (v_b / sigma_high) sample
        # by sample, not merely in distribution.
        sigma_low, sigma_high = 1.0, 2.0
        v_a, v_b, line = mixed_line(GAUSS_LOW, GAUSS_HIGH, 4096, seed=5)
        w = weights(PAIR, sigma_low, sigma_high)
        est = reconstruct_alice(line, PAIR.r_high).samples
        predicted = w.alpha * (v_a.samples / sigma_low) - w.beta * (v_b.samples / sigma_high)
        assert np.max(np.abs(est - predicted)) < 1e-12

    def test_rejects_nonpositive_resistance(self):
        line = LineTrace(voltage=Trace([1.0]), current=Trace([1.0]))
        with pytest.raises(ValueError):
            reconstruct_alice(line, 0.0)
        with pytest.raises(ValueError):
            reconstruct_bob(line, -1.0)


class TestWrongHypothesisVariance:
    def test_reference_values(self):
        # At the compliant ratio the wrong guess reproduces sigma_high^2;
        # with both amplitudes equal it lands on 2.92 for this pair.
        assert wrong_hypothesis_variance(PAIR, 1.0, 2.0) == pytest.approx(4.0, rel=1e-12)
        assert wrong_hypothesis_variance(PAIR, 1.0, 1.0) == pytest.approx(2.92, rel=1e-12)

    @pytest.mark.parametrize(
        "r_low,r_high,sigma_low",
        [(1.0, 4.0, 1.0), (0.5, 2.0, 0.3), (3.0, 27.0, 2.0), (1.0, 1.0001, 5.0)],
    )
    def test_compliant_ratio_is_a_fixed_point(self, r_low, r_high, sigma_low):
        pair = ResistorPair(r_low, r_high)
        sigma_high = sigma_low * security_sigma_ratio(pair)
        got = wrong_hypothesis_variance(pair, sigma_low, sigma_high)
        assert abs(got - sigma_high**2) <= 1e-12 * sigma_high**2

    @pytest.mark.parametrize("kind", [DistributionKind.GAUSSIAN, DistributionKind.UNIFORM])
    @pytest.mark.parametrize("sigma_high", [1.0, 2.0, 3.0])
    def test_monte_carlo_agreement(self, kind, sigma_high):
        n = 100_000
        sigma_low = 1.0
        spec_low = NoiseSpec(kind, sigma_low)
        spec_high = NoiseSpec(kind, sigma_high)
        _, _, line = mixed_line(spec_low, spec_high, n, seed=17)
        est = reconstruct_alice(line, PAIR.r_high)
        observed = float(np.mean(est.samples**2))
        expected = wrong_hypothesis_variance(PAIR, sigma_low, sigma_high)
        assert abs(observed / expected - 1.0) < 5.0 * math.sqrt(2.0 / n)

    def test_security_sigma_ratio(self):
        assert security_sigma_ratio(ResistorPair(1.0, 9.0)) == 3.0
        assert security_sigma_ratio(PAIR) == 2.0

    def test_rejects_nonpositive_sigmas(self):
        with pytest.raises(ValueError):
            wrong_hypothesis_variance(PAIR, 0.0, 1.0)


class TestVarianceTest:
    def test_exact_z_value(self):
        # 100 samples of +-1 have second moment exactly 1; against an
        # expected sigma of 0.5 the z score is 0.75 / (0.25 sqrt(0.02)).
        trace = Trace(np.tile([1.0, -1.0], 50))
        result = variance_test(trace, expected_sigma=0.5, significance=0.01)
        assert result.sample_variance == pytest.approx(1.0, rel=1e-15)
        assert result.z == pytest.approx(0.75 / (0.25 * math.sqrt(0.02)), rel=1e-12)
        assert result.reject

    def test_matching_variance_not_rejected(self):
        trace = Trace(np.tile([1.0, -1.0], 50))
        result = variance_test(trace, expected_sigma=1.0, significance=0.01)
        assert result.z == 0.0
        assert result.p_value == 1.0
        assert not result.reject

    def test_rejection_rate_matches_significance(self):
        # Null calibration: Gaussian data at the claimed sigma.
        n, trials, significance = 100_000, 1000, 0.01
        rejections = 0
        for t in range(trials):
            trace = sample(GAUSS_LOW, n, stream(901, t))
            if variance_test(trace, 1.0, significance).reject:
                rejections += 1
        rate = rejections / trials
        assert 0.0006 < rate < 0.0194  # 3 binomial sigmas around 0.01

    def test_preconditions(self):
        trace = Trace(np.ones(99))
        with pytest.raises(ValueError):
            variance_test(trace, 1.0, 0.01)
        good = Trace(np.ones(100))
        with pytest.raises(ValueError):
            variance_test(good, 0.0, 0.01)
        with pytest.raises(ValueError):
            variance_test(good, 1.0, 0.0)
        with pytest.raises(ValueError):
            variance_test(good, 1.0, 1.0)

    def test_serializes(self):
        result = variance_test(Trace(np.tile([1.0, -1.0], 50)), 1.0, 0.01)
        round_tripped = json.loads(json.dumps(result.to_dict()))
        assert round_tripped["n"] == 100
        assert round_tripped["reject"] is False


class TestShapeTest:
    def test_rejection_rate_matches_significance(self):
        n, trials, significance = 10_000, 1000, 0.01
        ref = reference_grid(GAUSS_LOW)
        rejections = 0
        for t in range(trials):
            trace = sample(GAUSS_LOW, n, stream(902, t))
            if shape_test(trace, ref, significance).reject:
                rejections += 1
        rate = rejections / trials
        # the asymptotic tail is slightly conservative at finite n
        assert 0.002 < rate < 0.0194

    def test_detects_trapezoid_against_uniform(self):
        # The wrong-hypothesis mixture of uniforms is trapezoidal; its
        # population KS distance from the matched uniform is 1/24.
        spec_low = NoiseSpec(DistributionKind.UNIFORM, 1.0)
        spec_high = NoiseSpec(DistributionKind.UNIFORM, 2.0)
        _, _, line = mixed_line(spec_low, spec_high, 100_000, seed=23)
        est = reconstruct_alice(line, PAIR.r_high)
        result = shape_test(est, reference_grid(spec_high), 0.01)
        assert result.statistic > 0.03
        assert result.p_value < 1e-8
        assert result.reject

    def test_matching_shape_survives(self):
        trace = sample(GAUSS_HIGH, 50_000, seed=29)
        result = shape_test(trace, reference_grid(GAUSS_HIGH), 0.01)
        assert not result.reject

    def test_statistic_shrinks_against_own_histogram(self):
        # A reference built from the samples themselves should fit them
        # better and better as n grows.
        def self_distance(n, seed):
            trace = sample(GAUSS_LOW, n, seed=seed)
            counts, edges = np.histogram(trace.samples, bins=400, density=True)
            centers = 0.5 * (edges[:-1] + edges[1:])
            dx = float(centers[1] - centers[0])
            total = float(np.trapezoid(counts, dx=dx))
            from kljn import PdfGrid

            ref = PdfGrid(x0=float(centers[0]), dx=dx, values=counts / total)
            return shape_test(trace, ref, 0.01).statistic

        d_small = self_distance(2_000, seed=31)
        d_large = self_distance(100_000, seed=31)
        assert d_large < d_small
        assert d_large < 0.02

    def test_unnormalized_reference_rejected(self):
        ref = reference_grid(GAUSS_LOW)
        # sidestep the frozen dataclass to emulate a corrupted grid
        object.__setattr__(ref, "values", ref.values * 2.0)
        with pytest.raises(ValueError):
            shape_test(sample(GAUSS_LOW, 1000, seed=1), ref, 0.01)

    @pytest.mark.parametrize("rows, n", [(1, 100), (1, 4099), (9, 1000)])
    def test_statistic_is_bitwise_the_plain_formula(self, rows, n):
        reference = _reference_cdf(reference_grid(GAUSS_HIGH))
        rng = np.random.default_rng(rows * n)
        # Wide draws put some samples off the grid, where the CDF clamps.
        x = np.sort(rng.standard_normal((rows, n)) * 7.0, axis=1)
        cdf = np.interp(x, *reference)
        i = np.arange(1, n + 1, dtype=np.float64)
        plain = np.maximum(np.max(i / n - cdf, axis=1), np.max(cdf - (i - 1.0) / n, axis=1))
        got = _shape_rows(x.copy(), reference, _ks_steps(n), 0.01).statistic
        assert (got == plain).all()

    def test_preconditions(self):
        ref = reference_grid(GAUSS_LOW)
        with pytest.raises(ValueError):
            shape_test(Trace(np.ones(99)), ref, 0.01)
        with pytest.raises(ValueError):
            shape_test(Trace(np.ones(100)), ref, 1.0)


class TestAttack:
    def test_secure_gaussian_is_mostly_undecided(self):
        undecided = 0
        for t in range(30):
            _, _, line = mixed_line(GAUSS_LOW, GAUSS_HIGH, 5000, seed=600 + t, alice_low=bool(t % 2))
            verdict = attack(line, PAIR, GAUSS_LOW, GAUSS_HIGH)
            if verdict.decision is EveDecision.UNDECIDED:
                undecided += 1
        assert undecided >= 25

    def test_amplitude_violation_is_detected(self):
        spec_high = NoiseSpec(DistributionKind.GAUSSIAN, 3.0)  # 1.5x the compliant value
        summary = attack_trials(PAIR, GAUSS_LOW, spec_high, 10_000, 50, seed=71)
        assert summary.accuracy >= 0.95

    def test_uniform_violation_is_shape_driven(self):
        spec_low = NoiseSpec(DistributionKind.UNIFORM, 1.0)
        spec_high = NoiseSpec(DistributionKind.UNIFORM, 2.0)
        _, _, line = mixed_line(spec_low, spec_high, 100_000, seed=37)
        verdict = attack(line, PAIR, spec_low, spec_high)
        assert verdict.decision is EveDecision.ALICE_LOW
        wrong = verdict.reports[EveDecision.ALICE_HIGH.value]
        # amplitudes comply, so the variance screens stay quiet and the
        # shape screens must carry the detection
        assert not wrong.alice_variance.reject
        assert not wrong.bob_variance.reject
        assert wrong.alice_shape.reject or wrong.bob_shape.reject
        assert wrong.rejected

    def test_uniform_attack_accuracy(self):
        spec_low = NoiseSpec(DistributionKind.UNIFORM, 1.0)
        spec_high = NoiseSpec(DistributionKind.UNIFORM, 2.0)
        summary = attack_trials(PAIR, spec_low, spec_high, 20_000, 50, seed=73)
        assert summary.accuracy >= 0.9

    def test_non_mixed_line_rejects_both_hypotheses(self):
        n = 10_000
        v_a = sample(GAUSS_LOW, n, stream(41, 1))
        v_b = sample(GAUSS_LOW, n, stream(41, 2))
        line = line_signals(v_a, v_b, PAIR.r_low, PAIR.r_low)
        verdict = attack(line, PAIR, GAUSS_LOW, GAUSS_HIGH)
        assert verdict.decision is EveDecision.UNDECIDED
        assert verdict.reports[EveDecision.ALICE_LOW.value].rejected
        assert verdict.reports[EveDecision.ALICE_HIGH.value].rejected

    def test_cauchy_sources_skip_variance_tests(self):
        spec_low = NoiseSpec(DistributionKind.CAUCHY, 1.0)
        spec_high = NoiseSpec(DistributionKind.CAUCHY, 2.0)
        _, _, line = mixed_line(spec_low, spec_high, 2000, seed=43)
        verdict = attack(line, PAIR, spec_low, spec_high)
        for report in verdict.reports.values():
            assert report.alice_variance is None
            assert report.bob_variance is None
            assert report.alice_shape is not None
            assert report.bob_shape is not None

    def test_explicit_references_change_nothing(self):
        _, _, line = mixed_line(GAUSS_LOW, GAUSS_HIGH, 5000, seed=47)
        refs = (reference_grid(GAUSS_LOW), reference_grid(GAUSS_HIGH))
        with_refs = attack(line, PAIR, GAUSS_LOW, GAUSS_HIGH, references=refs)
        without = attack(line, PAIR, GAUSS_LOW, GAUSS_HIGH)
        assert with_refs.decision is without.decision
        assert with_refs.to_dict() == without.to_dict()

    def test_verdict_serializes(self):
        _, _, line = mixed_line(GAUSS_LOW, GAUSS_HIGH, 1000, seed=53)
        verdict = attack(line, PAIR, GAUSS_LOW, GAUSS_HIGH)
        blob = json.dumps(verdict.to_dict(), sort_keys=True)
        parsed = json.loads(blob)
        assert parsed["decision"] in {d.value for d in EveDecision}
        assert set(parsed["hypotheses"]) == {"alice_low", "alice_high"}

    def test_significance_bounds(self):
        _, _, line = mixed_line(GAUSS_LOW, GAUSS_HIGH, 1000, seed=59)
        with pytest.raises(ValueError):
            attack(line, PAIR, GAUSS_LOW, GAUSS_HIGH, significance=0.0)
        with pytest.raises(ValueError):
            attack(line, PAIR, GAUSS_LOW, GAUSS_HIGH, significance=1.0)

    def test_short_line_rejected(self):
        line = LineTrace(voltage=Trace(np.ones(10)), current=Trace(np.ones(10)))
        with pytest.raises(ValueError):
            attack(line, PAIR, GAUSS_LOW, GAUSS_HIGH)


class TestDecisions:
    def test_decision_credit(self):
        assert decision_credit(EveDecision.ALICE_LOW, SwitchState.LOW) == 1.0
        assert decision_credit(EveDecision.ALICE_LOW, SwitchState.HIGH) == 0.0
        assert decision_credit(EveDecision.ALICE_HIGH, SwitchState.HIGH) == 1.0
        assert decision_credit(EveDecision.ALICE_HIGH, SwitchState.LOW) == 0.0
        assert decision_credit(EveDecision.UNDECIDED, SwitchState.LOW) == 0.5
        assert decision_credit(EveDecision.UNDECIDED, SwitchState.HIGH) == 0.5


class TestAttackTrials:
    def test_deterministic(self):
        a = attack_trials(PAIR, GAUSS_LOW, GAUSS_HIGH, 1000, 10, seed=5)
        b = attack_trials(PAIR, GAUSS_LOW, GAUSS_HIGH, 1000, 10, seed=5)
        assert a.accuracy == b.accuracy
        assert a.decisions == b.decisions
        assert a.truths == b.truths

    def test_counts_are_consistent(self):
        s = attack_trials(PAIR, GAUSS_LOW, GAUSS_HIGH, 1000, 25, seed=6)
        assert s.correct + s.wrong + s.undecided == s.trials == 25
        assert s.accuracy == pytest.approx((s.correct + 0.5 * s.undecided) / s.trials)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            attack_trials(PAIR, GAUSS_LOW, GAUSS_HIGH, 1000, 0, seed=1)
        with pytest.raises(ValueError):
            attack_trials(PAIR, GAUSS_LOW, GAUSS_HIGH, 50, 5, seed=1)
