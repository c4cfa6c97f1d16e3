"""Eavesdropper: reconstruction algebra, tests, and hypothesis decisions."""

import math
import threading

import numpy as np
import pytest

import kljn.eve
import kljn.line
from kljn import (
    BlockAttack,
    DistributionKind,
    EveDecision,
    NoiseSpec,
    ResistorPair,
    SwitchState,
    attack_trials,
    decision_credit,
    line_signals,
    reference_grid,
    resistance_for,
    sample,
    security_sigma_ratio,
    stream,
    weights,
    wrong_hypothesis_variance,
)
from kljn.eve import (
    _HYPOTHESES,
    _ks_statistic,
    _reconstruct,
    _reference_cdf,
    _shape_results,
    _variance_results,
    _variance_z,
)
from kljn.line import BLOCK_SAMPLES, line_block
from kljn.noise import BlockStreams

try:
    from hypothesis import assume, example, given, settings
    from hypothesis import strategies as st
except ImportError:  # hypothesis is a test extra; its property test is skipped without it
    given = None

PAIR = ResistorPair(1.0, 4.0)
GAUSS_LOW = NoiseSpec(DistributionKind.GAUSSIAN, 1.0)
GAUSS_HIGH = NoiseSpec(DistributionKind.GAUSSIAN, 2.0)


def mixed_line(spec_low, spec_high, n, seed, alice_low=True):
    """One mixed-state bit's sources and line voltage and current."""
    spec_a = spec_low if alice_low else spec_high
    spec_b = spec_high if alice_low else spec_low
    v_a = sample(spec_a, n, stream(seed, 1))
    v_b = sample(spec_b, n, stream(seed, 2))
    r_a = PAIR.r_low if alice_low else PAIR.r_high
    r_b = PAIR.r_high if alice_low else PAIR.r_low
    return v_a, v_b, line_signals(v_a, v_b, r_a, r_b)


def block_attack(spec_low=GAUSS_LOW, spec_high=GAUSS_HIGH, significance=0.01):
    references = (reference_grid(spec_low), reference_grid(spec_high))
    return BlockAttack(PAIR, spec_low, spec_high, significance, references)


def one_row(line):
    """One bit's line signals as a one-row block."""
    voltage, current = line
    return voltage[None, :], current[None, :]


def variance_rows(x, expected_sigma, level):
    """The variance sub-test kernel of BlockAttack on rows ``x`` at per-test ``level``."""
    return _variance_results(x.shape[1], [_variance_z(x, expected_sigma)], level)[0]


def shape_rows(x, reference, level):
    """The shape sub-test kernel of BlockAttack on rows ``x`` at per-test ``level``."""
    x = np.sort(x, axis=1)
    statistic = _ks_statistic(x, _reference_cdf(reference))
    return _shape_results(x.shape[1], [statistic], level)[0]


class TestReconstruction:
    def test_worked_example(self):
        voltage, current = np.array([3.0]), np.array([-1.0])
        assert _reconstruct(voltage, current, 3.0, alice=True)[0] == 6.0
        assert _reconstruct(voltage, current, 1.0, alice=False)[0] == 2.0

    def test_correct_hypothesis_recovers_sources_exactly(self):
        v_a, v_b, (voltage, current) = mixed_line(GAUSS_LOW, GAUSS_HIGH, 4096, seed=3)
        got_a = _reconstruct(voltage, current, PAIR.r_low, alice=True)
        got_b = _reconstruct(voltage, current, PAIR.r_high, alice=False)
        assert np.max(np.abs(got_a - v_a)) < 1e-12
        assert np.max(np.abs(got_b - v_b)) < 1e-12

    def test_reconstructions_recombine_to_line_voltage(self):
        # Under any resistance guess (r_a, r_b), mixing the two party
        # reconstructions through the divider returns the line voltage.
        _, _, (voltage, current) = mixed_line(GAUSS_LOW, GAUSS_HIGH, 1024, seed=4)
        for r_a, r_b in ((1.0, 4.0), (4.0, 1.0), (2.5, 7.0)):
            est_a = _reconstruct(voltage, current, r_a, alice=True)
            est_b = _reconstruct(voltage, current, r_b, alice=False)
            mixed = (est_a * r_b + est_b * r_a) / (r_a + r_b)
            assert np.max(np.abs(mixed - voltage)) < 1e-12

    def test_wrong_hypothesis_is_a_scaled_mixture(self):
        # Swapping the resistor guess turns the reconstruction into
        # alpha * (v_a / sigma_low) - beta * (v_b / sigma_high) sample
        # by sample, not merely in distribution.
        sigma_low, sigma_high = 1.0, 2.0
        v_a, v_b, (voltage, current) = mixed_line(GAUSS_LOW, GAUSS_HIGH, 4096, seed=5)
        w = weights(PAIR, sigma_low, sigma_high)
        est = _reconstruct(voltage, current, PAIR.r_high, alice=True)
        predicted = w.alpha * (v_a / sigma_low) - w.beta * (v_b / sigma_high)
        assert np.max(np.abs(est - predicted)) < 1e-12

    def test_rejects_nonpositive_resistance(self):
        # The attack reconstructs only with the resistances of its
        # ResistorPair, which refuses a non-positive one before any attack
        # exists.
        references = (reference_grid(GAUSS_LOW), reference_grid(GAUSS_HIGH))
        for r_low in (0.0, -1.0):
            with pytest.raises(ValueError, match="resistances must be positive"):
                BlockAttack(ResistorPair(r_low, 4.0), GAUSS_LOW, GAUSS_HIGH, 0.01, references)


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

    if given is not None:

        @settings(max_examples=300, deadline=None)
        @given(
            r_low=st.floats(1e-3, 1e3),
            r_high=st.floats(1e-3, 1e3),
            sigma_low=st.floats(1e-2, 1e2),
            sigma_high=st.floats(1e-2, 1e2),
        )
        @example(r_low=1.0, r_high=4.0, sigma_low=1.0, sigma_high=1.0)
        @example(r_low=0.5, r_high=2.0, sigma_low=0.3, sigma_high=1.0)
        @example(r_low=3.0, r_high=27.0, sigma_low=2.0, sigma_high=1.0)
        @example(r_low=1.0, r_high=1.0001, sigma_low=5.0, sigma_high=1.0)
        def test_amplitude_law_property(self, r_low, r_high, sigma_low, sigma_high):
            # The amplitude law is the fixed point of the alpha^2 + beta^2
            # identity: at the compliant sigma_high the wrong guess gives
            # back sigma_high^2, and at any sigma_high the closed form holds.
            assume(r_low < r_high)
            pair = ResistorPair(r_low, r_high)
            compliant = sigma_low * security_sigma_ratio(pair)
            got = wrong_hypothesis_variance(pair, sigma_low, compliant)
            assert abs(got - compliant**2) <= 1e-12 * compliant**2
            closed_form = (
                4.0 * sigma_low**2 * r_high**2 + sigma_high**2 * (r_high - r_low) ** 2
            ) / (r_low + r_high) ** 2
            got = wrong_hypothesis_variance(pair, sigma_low, sigma_high)
            assert abs(got - closed_form) <= 1e-12 * closed_form

    else:

        def test_amplitude_law_property(self):
            pytest.skip("needs hypothesis")

    @pytest.mark.parametrize("kind", [DistributionKind.GAUSSIAN, DistributionKind.UNIFORM])
    @pytest.mark.parametrize("sigma_high", [1.0, 2.0, 3.0])
    def test_monte_carlo_agreement(self, kind, sigma_high):
        n = 100_000
        sigma_low = 1.0
        spec_low = NoiseSpec(kind, sigma_low)
        spec_high = NoiseSpec(kind, sigma_high)
        _, _, (voltage, current) = mixed_line(spec_low, spec_high, n, seed=17)
        est = _reconstruct(voltage, current, PAIR.r_high, alice=True)
        observed = float(np.mean(est**2))
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
        rows = np.tile([1.0, -1.0], 50)[None, :]
        result = variance_rows(rows, expected_sigma=0.5, level=0.01)
        assert result.observed[0] == pytest.approx(1.0, rel=1e-15)
        assert result.z[0] == pytest.approx(0.75 / (0.25 * math.sqrt(0.02)), rel=1e-12)
        assert result.reject[0]

    def test_matching_variance_not_rejected(self):
        rows = np.tile([1.0, -1.0], 50)[None, :]
        result = variance_rows(rows, expected_sigma=1.0, level=0.01)
        assert result.z[0] == 0.0
        assert result.p[0] == 1.0
        assert not result.reject[0]

    def test_rejection_rate_matches_significance(self):
        # Null calibration: Gaussian data at the claimed sigma.
        n, trials, significance = 100_000, 1000, 0.01
        rejections = 0
        for t in range(trials):
            trace = sample(GAUSS_LOW, n, stream(901, t))
            if variance_rows(trace[None, :], 1.0, significance).reject[0]:
                rejections += 1
        rate = rejections / trials
        assert 0.0006 < rate < 0.0194  # 3 binomial sigmas around 0.01

    def test_preconditions(self):
        # The attack refuses rows too short to test, a non-positive
        # expected sigma (no such NoiseSpec exists) and a significance
        # outside (0, 1).
        eve = block_attack()
        with pytest.raises(ValueError, match="at least 100 samples"):
            eve.tests(np.ones((1, 99)), np.ones((1, 99)))
        with pytest.raises(ValueError):
            NoiseSpec(DistributionKind.GAUSSIAN, 0.0)
        with pytest.raises(ValueError, match="significance"):
            block_attack(significance=0.0)
        with pytest.raises(ValueError, match="significance"):
            block_attack(significance=1.0)


def compliant_null_block(rows, n=1000):
    """Compliant Gaussian line signals with Alice low on every row, and the references."""
    alice_high = np.zeros(rows, dtype=bool)
    voltage, current = line_block(
        BlockStreams(77, range(rows)), alice_high, ~alice_high, PAIR, GAUSS_LOW, GAUSS_HIGH, n
    )
    return voltage, current, (reference_grid(GAUSS_LOW), reference_grid(GAUSS_HIGH))


class TestShapeTest:
    def test_rejection_rate_matches_significance(self):
        n, trials, significance = 10_000, 1000, 0.01
        ref = reference_grid(GAUSS_LOW)
        rejections = 0
        for t in range(trials):
            trace = sample(GAUSS_LOW, n, stream(902, t))
            if shape_rows(trace[None, :], ref, significance).reject[0]:
                rejections += 1
        rate = rejections / trials
        # the asymptotic tail is slightly conservative at finite n
        assert 0.002 < rate < 0.0194

    def test_detects_trapezoid_against_uniform(self):
        # The wrong-hypothesis mixture of uniforms is trapezoidal; its
        # population KS distance from the matched uniform is 1/24.
        spec_low = NoiseSpec(DistributionKind.UNIFORM, 1.0)
        spec_high = NoiseSpec(DistributionKind.UNIFORM, 2.0)
        _, _, (voltage, current) = mixed_line(spec_low, spec_high, 100_000, seed=23)
        est = _reconstruct(voltage, current, PAIR.r_high, alice=True)
        result = shape_rows(est[None, :], reference_grid(spec_high), 0.01)
        assert result.statistic[0] > 0.03
        assert result.p[0] < 1e-8
        assert result.reject[0]

    def test_matching_shape_survives(self):
        trace = sample(GAUSS_HIGH, 50_000, stream(29))
        result = shape_rows(trace[None, :], reference_grid(GAUSS_HIGH), 0.01)
        assert not result.reject[0]

    def test_statistic_shrinks_against_own_histogram(self):
        # A reference built from the samples themselves should fit them
        # better and better as n grows.
        def self_distance(n, seed):
            trace = sample(GAUSS_LOW, n, stream(seed))
            counts, edges = np.histogram(trace, bins=400, density=True)
            centers = 0.5 * (edges[:-1] + edges[1:])
            dx = float(centers[1] - centers[0])
            total = float(np.trapezoid(counts, dx=dx))
            from kljn import PdfGrid

            ref = PdfGrid(x0=float(centers[0]), dx=dx, values=counts / total)
            return shape_rows(trace[None, :], ref, 0.01).statistic[0]

        d_small = self_distance(2_000, seed=31)
        d_large = self_distance(100_000, seed=31)
        assert d_large < d_small
        assert d_large < 0.02

    def test_unnormalized_reference_rejected(self):
        ref = reference_grid(GAUSS_LOW)
        # sidestep the frozen dataclass to emulate a corrupted grid
        object.__setattr__(ref, "values", ref.values * 2.0)
        with pytest.raises(ValueError, match="not normalized"):
            BlockAttack(PAIR, GAUSS_LOW, GAUSS_HIGH, 0.01, (ref, reference_grid(GAUSS_HIGH)))

    def test_block_sub_tests_are_calibrated_under_the_null(self):
        # Compliant Gaussian noise with Alice low on every row: under the
        # true hypothesis each reconstruction is exactly that party's
        # source, so all four of its sub-tests see the null. Significance
        # 0.2 over four sub-tests puts each at level 0.05; the p-values
        # come from the block's stacked kernels.
        rows = 2000
        voltage, current, references = compliant_null_block(rows)
        eve = BlockAttack(PAIR, GAUSS_LOW, GAUSS_HIGH, 0.2, references)
        assert eve.level == pytest.approx(0.05, rel=1e-15)
        true = eve.tests(voltage, current)[EveDecision.ALICE_LOW]
        trials = 2 * rows
        bound = 5.0 * math.sqrt(0.05 * 0.95 / trials)
        pairs = ((true.alice_shape, true.bob_shape), (true.alice_variance, true.bob_variance))
        for alice, bob in pairs:
            rate = (np.count_nonzero(alice.reject) + np.count_nonzero(bob.reject)) / trials
            assert abs(rate - 0.05) <= bound

    def test_whole_attack_is_calibrated_under_the_null(self):
        # The same compliant block at significance 0.05: each of the four
        # sub-tests runs at 0.0125, so the true hypothesis, rejected when
        # any of them rejects, is rejected at a rate between 0.0125 (the
        # sub-tests always agree) and 0.05 (they never overlap; Bonferroni).
        rows = 2000
        voltage, current, references = compliant_null_block(rows)
        eve = BlockAttack(PAIR, GAUSS_LOW, GAUSS_HIGH, 0.05, references)
        rate = np.count_nonzero(eve.tests(voltage, current)[EveDecision.ALICE_LOW].rejected) / rows

        def sigma(p):
            return math.sqrt(p * (1.0 - p) / rows)

        assert 0.0125 - 5.0 * sigma(0.0125) <= rate <= 0.05 + 5.0 * sigma(0.05)

    @pytest.mark.parametrize("rows, n", [(1, 100), (1, 4099), (9, 1000)])
    def test_statistic_is_bitwise_the_plain_formula(self, rows, n):
        reference = _reference_cdf(reference_grid(GAUSS_HIGH))
        rng = np.random.default_rng(rows * n)
        # Wide draws put some samples off the grid, where the CDF clamps.
        x = np.sort(rng.standard_normal((rows, n)) * 7.0, axis=1)
        cdf = np.interp(x, *reference)
        i = np.arange(1, n + 1, dtype=np.float64)
        plain = np.maximum(np.max(i / n - cdf, axis=1), np.max(cdf - (i - 1.0) / n, axis=1))
        got = _ks_statistic(x.copy(), reference)
        assert (got == plain).all()

    @pytest.mark.parametrize("block_samples", [1, 7, 1000, 10**6])
    @pytest.mark.parametrize("rows", [1, 3])
    def test_statistic_does_not_depend_on_the_column_chunks(
        self, monkeypatch, rows, block_samples
    ):
        # The last two rows lie far below and far above the grid: a CDF of
        # 0 puts D = 1 at k = n alone, a CDF of 1 at k = 1 alone, so a chunk
        # loop that skips an end column shows. Chunks are
        # BLOCK_SAMPLES // (rows + 2) columns wide, and 1001 is no multiple.
        n = 1001
        reference = _reference_cdf(reference_grid(GAUSS_HIGH))
        x = np.sort(np.random.default_rng(rows).standard_normal((rows, n)) * 7.0, axis=1)
        x = np.concatenate([x, np.full((1, n), -1e3), np.full((1, n), 1e3)])
        whole = _ks_statistic(x.copy(), reference)
        monkeypatch.setattr(kljn.line, "BLOCK_SAMPLES", block_samples)
        got = _ks_statistic(x.copy(), reference)
        assert np.array_equal(got, whole)
        assert got[-2:] == pytest.approx([1.0, 1.0], abs=1e-6)

    def test_preconditions(self):
        with pytest.raises(ValueError, match="at least 100 samples"):
            block_attack().tests(np.ones((1, 99)), np.ones((1, 99)))
        with pytest.raises(ValueError, match="significance"):
            block_attack(significance=1.0)


class TestAttack:
    def test_secure_gaussian_is_mostly_undecided(self):
        eve = block_attack()
        undecided = 0
        for t in range(30):
            _, _, line = mixed_line(GAUSS_LOW, GAUSS_HIGH, 5000, seed=600 + t, alice_low=bool(t % 2))
            if eve.decisions(*one_row(line))[0] is EveDecision.UNDECIDED:
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
        eve = block_attack(spec_low, spec_high)
        assert eve.decisions(*one_row(line)) == [EveDecision.ALICE_LOW]
        wrong = eve.tests(*one_row(line))[EveDecision.ALICE_HIGH]
        # amplitudes comply, so the variance screens stay quiet and the
        # shape screens must carry the detection
        assert not wrong.alice_variance.reject[0]
        assert not wrong.bob_variance.reject[0]
        assert wrong.alice_shape.reject[0] or wrong.bob_shape.reject[0]
        assert wrong.rejected[0]

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
        eve = block_attack()
        assert eve.decisions(*one_row(line)) == [EveDecision.UNDECIDED]
        tests = eve.tests(*one_row(line))
        assert tests[EveDecision.ALICE_LOW].rejected[0]
        assert tests[EveDecision.ALICE_HIGH].rejected[0]

    def test_cauchy_sources_skip_variance_tests(self):
        spec_low = NoiseSpec(DistributionKind.CAUCHY, 1.0)
        spec_high = NoiseSpec(DistributionKind.CAUCHY, 2.0)
        _, _, line = mixed_line(spec_low, spec_high, 2000, seed=43)
        for rows in block_attack(spec_low, spec_high).tests(*one_row(line)).values():
            assert rows.alice_variance is None
            assert rows.bob_variance is None
            assert rows.alice_shape is not None
            assert rows.bob_shape is not None

    def test_significance_bounds(self):
        with pytest.raises(ValueError, match="significance must lie in"):
            block_attack(significance=0.0)
        with pytest.raises(ValueError, match="significance must lie in"):
            block_attack(significance=1.0)

    def test_short_line_rejected(self):
        with pytest.raises(ValueError, match="attack needs at least 100 samples"):
            block_attack().tests(np.ones((1, 10)), np.ones((1, 10)))


def plain_tests(eve, voltage, current):
    """Every ``BlockAttack.tests`` field from the plain formulas: full-length arrays, one thread.

    Returns, per decision, the variance fields ``(observed, z, p, reject)``
    of Alice and Bob (None for Cauchy), the shape fields ``(statistic, p,
    reject)`` of Alice and Bob, and ``rejected``.
    """
    n = voltage.shape[1]
    i = np.arange(1, n + 1, dtype=np.float64)
    moments, statistics = [], []
    for _, alice_state, bob_state in _HYPOTHESES:
        for alice, state in ((True, alice_state), (False, bob_state)):
            spec, reference = eve.by_state[state]
            x = _reconstruct(voltage, current, resistance_for(PAIR, state), alice)
            if spec.kind is DistributionKind.CAUCHY:
                moments.append(None)
            else:
                expected = spec.scale**2
                observed = np.mean(x**2, axis=1)
                z = (observed - expected) / (expected * math.sqrt(2.0 / n))
                moments.append((expected, observed, z))
            cdf = np.interp(np.sort(x, axis=1), *reference)
            d_plus = np.max(i / n - cdf, axis=1)
            statistics.append(np.maximum(d_plus, np.max(cdf - (i - 1.0) / n, axis=1)))
    tested = iter(_variance_results(n, [m for m in moments if m is not None], eve.level))
    variances = [None if m is None else next(tested) for m in moments]
    shapes = _shape_results(n, statistics, eve.level)
    out = {}
    for k, (decision, _, _) in enumerate(_HYPOTHESES):
        cells = [*variances[2 * k : 2 * k + 2], *shapes[2 * k : 2 * k + 2]]
        rejected = np.logical_or.reduce([c.reject for c in cells if c is not None])
        out[decision] = (
            [None if v is None else (v.observed, v.z, v.p, v.reject) for v in cells[:2]],
            [(s.statistic, s.p, s.reject) for s in cells[2:]],
            rejected,
        )
    return out


def long_block(kind, rows, n, seed):
    """A block of mixed-state line signals, Alice low on even rows, and its attack."""
    spec_low, spec_high = NoiseSpec(kind, 1.0), NoiseSpec(kind, 2.0)
    alice_high = np.arange(rows) % 2 == 1
    voltage, current = line_block(
        BlockStreams(seed, range(rows)), alice_high, ~alice_high, PAIR, spec_low, spec_high, n
    )
    return block_attack(spec_low, spec_high), voltage, current


class TestThreadedPath:
    """Rows longer than ``BLOCK_SAMPLES`` test the two hypotheses on two threads."""

    @pytest.mark.parametrize(
        "rows, n", [(2, BLOCK_SAMPLES + 1), (3, 3 * BLOCK_SAMPLES + 7), (0, BLOCK_SAMPLES + 1)]
    )
    @pytest.mark.parametrize("kind", list(DistributionKind))
    def test_every_field_is_bitwise_the_plain_formula(self, monkeypatch, kind, rows, n):
        threaded = []
        original = kljn.eve._on_two_threads
        monkeypatch.setattr(
            kljn.eve, "_on_two_threads", lambda *jobs: threaded.append(1) or original(*jobs)
        )
        eve, voltage, current = long_block(kind, rows, n, seed=rows * n)
        got = eve.tests(voltage, current)
        assert threaded == [1]
        for decision, (variances, shapes, rejected) in plain_tests(eve, voltage, current).items():
            rows_got = got[decision]
            for cell, expected in zip((rows_got.alice_variance, rows_got.bob_variance), variances):
                if expected is None:
                    assert cell is None
                else:
                    for field, value in zip((cell.observed, cell.z, cell.p, cell.reject), expected):
                        assert np.array_equal(field, value)
            for cell, expected in zip((rows_got.alice_shape, rows_got.bob_shape), shapes):
                for field, value in zip((cell.statistic, cell.p, cell.reject), expected):
                    assert np.array_equal(field, value)
            assert np.array_equal(rows_got.rejected, rejected)

    def test_an_error_on_the_helper_thread_is_raised_by_the_caller(self, monkeypatch):
        original = kljn.eve._ks_statistic

        def failing(x, reference):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("kernel failed on the helper thread")
            return original(x, reference)

        monkeypatch.setattr(kljn.eve, "_ks_statistic", failing)
        eve, voltage, current = long_block(DistributionKind.UNIFORM, 1, BLOCK_SAMPLES + 1, seed=3)
        with pytest.raises(RuntimeError, match="helper thread"):
            eve.tests(voltage, current)


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
        with pytest.raises(ValueError, match="significance"):
            attack_trials(PAIR, GAUSS_LOW, GAUSS_HIGH, 1000, 5, significance=1.0, seed=1)
        with pytest.raises(ValueError, match="seed must be non-negative"):
            attack_trials(PAIR, GAUSS_LOW, GAUSS_HIGH, 1000, 5, seed=-1)
