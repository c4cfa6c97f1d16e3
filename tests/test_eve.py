"""Eavesdropper: reconstruction algebra, tests, verdicts and their credit.

The run engine's tests (``kljn.engine``: its run loop, its shares on
forked workers and the per-bit columns it joins) are here too, under the
test ids they have had since that code lived in ``kljn.eve``.
"""

import math
import os
import re
import signal
import subprocess
import sys
import threading
import time
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import kljn.engine
import kljn.eve
import kljn.line
from kljn import (
    BlockAttack,
    DistributionKind,
    NoiseSpec,
    ResistorPair,
    SessionConfig,
    VERDICTS,
    attack_trials,
    credits,
    line_signals,
    run_session,
    sample,
    security_sigma_ratio,
    stream,
    weights,
    wrong_hypothesis_variance,
)
from kljn.cli import main
from kljn.eve import (
    _KS_MARGIN,
    _kolmogorov_sf,
    _ks_statistic,
    _shape_cdf,
    mean_square,
    _reconstruct,
    _z_p_value,
)
from kljn.line import BLOCK_SAMPLES, line_block
from kljn.noise import LAWS, BlockStreams
from test_blocks import assert_same_outcome, reference_bit
from test_noise import LAW_GRIDS

try:
    from hypothesis import assume, example, given, settings
    from hypothesis import strategies as st
except ImportError:  # hypothesis is a test extra; its property test is skipped without it
    given = None

PAIR = ResistorPair(1.0, 4.0)
GAUSS_LOW = NoiseSpec(DistributionKind.GAUSSIAN, 1.0)
GAUSS_HIGH = NoiseSpec(DistributionKind.GAUSSIAN, 2.0)
# Index of each hypothesis along the first axis of the evidence arrays.
LOW, HIGH = 0, 1


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
    return BlockAttack(PAIR, spec_low, spec_high, significance)


def one_row(line):
    """One bit's line signals as a one-row block."""
    voltage, current = line
    return voltage[None, :], current[None, :]


def plain_z(mean_square, expected_sigma, n, kappa=3.0):
    """Variance z score of rows with the given mean square, for a law of kurtosis ``kappa``.

    The standard error of a mean square of ``n`` draws is ``sigma^2 *
    sqrt((kappa - 1) / n)``; the default is the Gaussian one.
    """
    expected = expected_sigma**2
    return (mean_square - expected) / (expected * math.sqrt((kappa - 1.0) / n))


def variance_rows(x, expected_sigma, level):
    """BlockAttack's variance sub-test of rows ``x``: mean square, z, p and verdict at ``level``."""
    observed = mean_square(x.copy())
    z = plain_z(observed, expected_sigma, x.shape[1])
    p = _z_p_value(z)
    return observed, z, p, p < level


def shape_rows(x, cdf, level):
    """The shape sub-test of BlockAttack on rows ``x`` against a CDF: KS D, p and verdict."""
    x = np.sort(x, axis=1)
    statistic = _ks_statistic(x, cdf)
    p = _kolmogorov_sf(math.sqrt(x.shape[1]) * statistic)
    return statistic, p, p < level


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
        for r_low in (0.0, -1.0):
            with pytest.raises(ValueError, match="resistances must be positive"):
                BlockAttack(ResistorPair(r_low, 4.0), GAUSS_LOW, GAUSS_HIGH, 0.01)


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
        observed, z, _, reject = variance_rows(rows, expected_sigma=0.5, level=0.01)
        assert observed[0] == pytest.approx(1.0, rel=1e-15)
        assert z[0] == pytest.approx(0.75 / (0.25 * math.sqrt(0.02)), rel=1e-12)
        assert reject[0]

    def test_matching_variance_not_rejected(self):
        rows = np.tile([1.0, -1.0], 50)[None, :]
        _, z, p, reject = variance_rows(rows, expected_sigma=1.0, level=0.01)
        assert z[0] == 0.0
        assert p[0] == 1.0
        assert not reject[0]

    def test_rejection_rate_matches_significance(self):
        # Null calibration: Gaussian data at the claimed sigma.
        n, trials, significance = 100_000, 1000, 0.01
        rejections = 0
        for t in range(trials):
            trace = sample(GAUSS_LOW, n, stream(901, t))
            _, _, _, reject = variance_rows(trace[None, :], 1.0, significance)
            if reject[0]:
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


def compliant_null_block(rows, n=1000, spec_low=GAUSS_LOW, spec_high=GAUSS_HIGH):
    """Compliant line signals with Alice low on every row; Gaussian by default."""
    alice_high = np.zeros(rows, dtype=bool)
    return line_block(
        BlockStreams(77, range(rows)),
        alice_high,
        ~alice_high,
        PAIR,
        spec_low,
        spec_high,
        np.empty((2, rows, n)),
    )


# The shortest row that _ks_statistic prunes: isqrt(n) // 4 is 64.
FIRST_PRUNED = 65536
LONG_ROW = 1_000_000


def plain_statistic(x, cdf):
    """KS distance of sorted rows from ``cdf`` by the plain formula, on full-length arrays.

    ``cdf`` is called only on a block with rows, as in the attack.
    """
    n = x.shape[1]
    f = cdf(x) if len(x) else x
    i = np.arange(1, n + 1, dtype=np.float64)
    return np.maximum(np.max(i / n - f, axis=1), np.max(f - (i - 1.0) / n, axis=1))


def law_grid(kind):
    """The points of ``kind``'s unit-scale grid in ``LAW_GRIDS``."""
    half, step = LAW_GRIDS[kind]
    k = round(half / step)
    return np.arange(-k, k + 1) * step


def pruned_rows(cdf, kind, rows, n, row):
    """Sorted rows against ``cdf``, the CDF of ``kind`` at unit scale.

    ``far`` rows are drawn at 1.5 times the scale, so few sub-blocks can
    hold D. ``near`` rows are ``cdf``'s quantiles, interpolated on the
    law's grid, so almost every sub-block is kept. ``edges`` rows mix
    values on grid points, beyond both grid ends (where a tabulated CDF
    clamps) and long runs of one repeated value into a draw.
    """
    xp = law_grid(kind)
    rng = np.random.default_rng(n + rows)
    if row == "near":
        levels = (np.arange(n) + rng.uniform(0.25, 0.75, (rows, 1))) / n
        return np.interp(levels, cdf(xp[None, :])[0], xp)
    x = np.stack([sample(NoiseSpec(kind, 1.5), n, rng) for _ in range(rows)])
    if row == "edges":
        cut = np.cumsum(rng.multinomial(n // 4, [0.25] * 4, size=rows), axis=1)
        for r, (on_grid, below, above, repeated) in enumerate(cut):
            x[r, :on_grid] = rng.choice(xp, on_grid)
            x[r, on_grid:below] = xp[0] - rng.exponential(1.0, below - on_grid)
            x[r, below:above] = xp[-1] + rng.exponential(1.0, above - below)
            x[r, above:repeated] = x[r, -1]
    return np.sort(x, axis=1)


def wrong_hypothesis_row(spec_low, spec_high, n=LONG_ROW):
    """One sorted row of Alice's source under the wrong hypothesis, and the CDF it is tested on.

    Alice is low, so the reconstruction as Alice high mixes both sources.
    """
    voltage, current = line_block(
        BlockStreams(7, range(1)),
        np.zeros(1, dtype=bool),
        np.ones(1, dtype=bool),
        PAIR,
        spec_low,
        spec_high,
        np.empty((2, 1, n)),
    )
    x = _reconstruct(voltage, current, PAIR.r_high, True)
    return np.sort(x, axis=1), _shape_cdf(spec_high)


UNIFORM_PAIR = NoiseSpec(DistributionKind.UNIFORM, 1.0), NoiseSpec(DistributionKind.UNIFORM, 2.0)


def unit_cdf(x):
    """F(x) = x on [0, 1], 0 below and 1 above."""
    return np.clip(x, 0.0, 1.0)


class TestShapeTest:
    def test_rejection_rate_matches_significance(self):
        n, trials, significance = 10_000, 1000, 0.01
        ref = _shape_cdf(GAUSS_LOW)
        rejections = 0
        for t in range(trials):
            trace = sample(GAUSS_LOW, n, stream(902, t))
            _, _, reject = shape_rows(trace[None, :], ref, significance)
            if reject[0]:
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
        statistic, p, reject = shape_rows(est[None, :], _shape_cdf(spec_high), 0.01)
        assert statistic[0] > 0.03
        assert p[0] < 1e-8
        assert reject[0]

    def test_matching_shape_survives(self):
        trace = sample(GAUSS_HIGH, 50_000, stream(29))
        _, _, reject = shape_rows(trace[None, :], _shape_cdf(GAUSS_HIGH), 0.01)
        assert not reject[0]

    def test_statistic_shrinks_against_own_histogram(self):
        # A CDF built from the samples themselves should fit them better
        # and better as n grows.
        def self_distance(n, seed):
            trace = sample(GAUSS_LOW, n, stream(seed))
            counts, edges = np.histogram(trace, bins=400)
            levels = np.concatenate([[0.0], np.cumsum(counts) / n])
            statistic, _, _ = shape_rows(trace[None, :], lambda x: np.interp(x, edges, levels), 0.01)
            return statistic[0]

        d_small = self_distance(2_000, seed=31)
        d_large = self_distance(100_000, seed=31)
        assert d_large < d_small
        assert d_large < 0.02

    @pytest.mark.parametrize("significance", [0.2, 0.04])
    @pytest.mark.parametrize("kind", list(LAWS))
    def test_block_sub_tests_are_calibrated_under_the_null(self, kind, significance):
        # Compliant noise of each law with Alice low on every row: under
        # the true hypothesis each reconstruction is exactly that party's
        # source, so every one of its sub-tests sees the null. Four
        # sub-tests (two for a law without a variance) share the
        # significance; the p-values come from the block's stacked kernels.
        # Each sub-test must reject at its level, within 5 binomial sigmas.
        rows = 2000
        spec_low, spec_high = NoiseSpec(kind, 1.0), NoiseSpec(kind, 2.0)
        eve = block_attack(spec_low, spec_high, significance)
        assert eve.level == pytest.approx(significance / (4 if LAWS[kind].variance else 2))
        evidence = eve.tests(*compliant_null_block(rows, spec_low=spec_low, spec_high=spec_high))
        trials = 2 * rows
        bound = 5.0 * math.sqrt(eve.level * (1.0 - eve.level) / trials)
        sub_tests = {"shape": evidence.shape_p[LOW], "variance": evidence.variance_p[LOW]}
        if not LAWS[kind].variance:
            assert np.isnan(sub_tests.pop("variance")).all()
            assert np.isnan(evidence.z).all()
        for name, p in sub_tests.items():
            rate = np.count_nonzero(p < eve.level) / trials
            assert abs(rate - eve.level) <= bound, name

    def test_whole_attack_is_calibrated_under_the_null(self):
        # The same compliant block at significance 0.05: each of the four
        # sub-tests runs at 0.0125, so the true hypothesis, rejected when
        # any of them rejects, is rejected at a rate between 0.0125 (the
        # sub-tests always agree) and 0.05 (they never overlap; Bonferroni).
        rows = 2000
        evidence = block_attack(significance=0.05).tests(*compliant_null_block(rows))
        rate = np.count_nonzero(evidence.rejected[LOW]) / rows

        def sigma(p):
            return math.sqrt(p * (1.0 - p) / rows)

        assert 0.0125 - 5.0 * sigma(0.0125) <= rate <= 0.05 + 5.0 * sigma(0.05)

    if given is not None:

        @settings(max_examples=10, deadline=None)
        @given(
            seed=st.integers(0, 2**64 - 1),
            r_low=st.floats(1e-2, 1e2),
            ratio=st.floats(1.1, 100.0),
        )
        @example(seed=0, r_low=1.0, ratio=4.0)
        def test_whole_attack_type_one_rate_over_seeds_and_pairs(self, seed, r_low, ratio):
            # Compliant Gaussian noise on any pair, Alice low on even rows and
            # high on odd ones. The true hypothesis of a row is rejected when
            # any of its four sub-tests rejects at significance / 4, so its
            # rate lies between significance / 4 and significance.
            rows, n, significance = 1000, 400, 0.2
            pair = ResistorPair(r_low, r_low * ratio)
            spec_low = GAUSS_LOW
            spec_high = NoiseSpec(DistributionKind.GAUSSIAN, security_sigma_ratio(pair))
            alice_high = np.arange(rows) % 2 == 1
            voltage, current = line_block(
                BlockStreams(seed, range(rows)),
                alice_high,
                ~alice_high,
                pair,
                spec_low,
                spec_high,
                np.empty((2, rows, n)),
            )
            evidence = BlockAttack(pair, spec_low, spec_high, significance).tests(voltage, current)
            true_rejected = evidence.rejected[alice_high.astype(int), np.arange(rows)]
            rate = np.count_nonzero(true_rejected) / rows

            def sigma(p):
                return math.sqrt(p * (1.0 - p) / rows)

            low, high = significance / 4.0, significance
            assert low - 5.0 * sigma(low) <= rate <= high + 5.0 * sigma(high)

    else:

        def test_whole_attack_type_one_rate_over_seeds_and_pairs(self):
            pytest.skip("needs hypothesis")

    @pytest.mark.parametrize("rows, n", [(1, 100), (1, 4099), (9, 1000)])
    def test_statistic_is_bitwise_the_plain_formula(self, rows, n):
        cdf = _shape_cdf(GAUSS_HIGH)
        rng = np.random.default_rng(rows * n)
        # Wide draws put some samples off the table, where the CDF clamps.
        x = np.sort(rng.standard_normal((rows, n)) * 7.0, axis=1)
        f = cdf(x)
        i = np.arange(1, n + 1, dtype=np.float64)
        plain = np.maximum(np.max(i / n - f, axis=1), np.max(f - (i - 1.0) / n, axis=1))
        got = _ks_statistic(x.copy(), cdf)
        assert (got == plain).all()

    @pytest.mark.parametrize("block_samples", [1, 7, 1000, 10**6])
    @pytest.mark.parametrize("rows", [1, 3])
    def test_statistic_does_not_depend_on_the_column_chunks(
        self, monkeypatch, rows, block_samples
    ):
        # The last two rows lie far below and far above the table: a CDF of
        # 0 puts D = 1 at k = n alone, a CDF of 1 at k = 1 alone, so a chunk
        # loop that skips an end column shows. At 1001 chunks are
        # BLOCK_SAMPLES // (rows + 2) columns wide, and 1001 is no multiple;
        # 70001 is pruned in sub-blocks of 66 and batches of
        # BLOCK_SAMPLES // 4, and is no multiple of either.
        cdf = _shape_cdf(GAUSS_HIGH)
        for n in (1001, 70001):
            x = np.sort(np.random.default_rng(rows).standard_normal((rows, n)) * 7.0, axis=1)
            x = np.concatenate([x, np.full((1, n), -1e3), np.full((1, n), 1e3)])
            whole = _ks_statistic(x.copy(), cdf)
            with monkeypatch.context() as patch:
                patch.setattr(kljn.line, "BLOCK_SAMPLES", block_samples)
                got = _ks_statistic(x.copy(), cdf)
            assert np.array_equal(got, whole)
            assert got[-2:] == pytest.approx([1.0, 1.0], abs=1e-6)

    # Whole rows (1000, 5000 and 32 769 values) and pruned ones: the shortest
    # pruned row, rows whose length is a multiple of no sub-block or batch
    # width, and the longest.
    @pytest.mark.parametrize("row", ["far", "near", "edges"])
    @pytest.mark.parametrize(
        "rows, n",
        [(1, 2**20), (3, 5000), (2, FIRST_PRUNED), (3, 1000), (2, 32769), (2, 98311), (1, LONG_ROW)],
    )
    @pytest.mark.parametrize("kind", list(LAWS))
    def test_pruned_statistic_is_bitwise_the_plain_formula(self, kind, rows, n, row):
        cdf = _shape_cdf(NoiseSpec(kind, 1.0))
        x = pruned_rows(cdf, kind, rows, n, row)
        assert (_ks_statistic(x.copy(), cdf) == plain_statistic(x, cdf)).all()

    @pytest.mark.parametrize("n", [1000, LONG_ROW])
    @pytest.mark.parametrize("kind", list(LAWS))
    def test_a_row_of_mid_quantiles_is_half_a_step_from_its_law(self, kind, n):
        # The row x_i = Q((i - 1/2) / n) of the law's exact quantiles Q has
        # D = 1 / (2n) from the law's own CDF. The uniform and Cauchy F are
        # that CDF, so only rounding separates them; the Gaussian F
        # interpolates it within 7.6e-7.
        scale = 1.7
        levels = (np.arange(n) + 0.5) / n
        if kind is DistributionKind.GAUSSIAN:
            x, tol = scale * pytest.importorskip("scipy.special").ndtri(levels), 1e-6
        elif kind is DistributionKind.UNIFORM:
            x, tol = scale * math.sqrt(3.0) * (2.0 * levels - 1.0), 1e-12
        else:
            x, tol = scale * np.tan(math.pi * (levels - 0.5)), 1e-12
        d = _ks_statistic(x[None, :], _shape_cdf(NoiseSpec(kind, scale)))
        assert abs(d[0] - 0.5 / n) <= tol

    @pytest.mark.parametrize("scale", [1.0, 2.5])
    def test_the_gaussian_table_is_within_1e_6_of_the_normal_cdf(self, scale):
        ndtr = pytest.importorskip("scipy.special").ndtr
        x = np.linspace(-12.0, 12.0, 2_400_001)[None, :] * scale
        f = _shape_cdf(NoiseSpec(DistributionKind.GAUSSIAN, scale))(x)
        assert np.max(np.abs(f - ndtr(x / scale))) <= 1e-6

    @pytest.mark.parametrize("kind", [DistributionKind.UNIFORM, DistributionKind.CAUCHY])
    def test_a_closed_form_f_is_the_law_cdf_and_monotone_within_the_margin(self, kind):
        # The pruned statistic skips a sub-block only if F is non-decreasing
        # to within _KS_MARGIN along a sorted row.
        spec = NoiseSpec(kind, 1.3)
        x = np.sort(sample(spec, LONG_ROW, stream(53)))[None, :]
        f = _shape_cdf(spec)(x)
        assert np.array_equal(f, LAWS[kind].cdf(x, spec.scale))
        assert np.min(np.diff(f)) >= -_KS_MARGIN

    def test_a_maximum_on_the_last_column_of_a_kept_run_is_found(self):
        # Against F(x) = x, a row of midpoints (i + 1/2) / n has every term
        # at most 1/(2n). Two spikes, each followed by a plateau that keeps
        # the row sorted, make d- = F(x_i) - i/n reach H - 1/(2n) at the
        # head n/4 and H at column n/2 - 1 alone. The head n/2 then sees
        # H - 1/n, so its sub-block's bounds stay below what the heads saw,
        # and the run kept before it ends at n/2, right after that column.
        n, height = FIRST_PRUNED, 0.05
        x = (np.arange(n) + 0.5) / n
        x[n // 4] = (n // 4 - 0.5) / n + height
        x[n // 2 - 1] = (n // 2 - 1) / n + height
        x = np.maximum.accumulate(x)[None, :]
        plain = plain_statistic(x, unit_cdf)
        assert plain == pytest.approx(height)
        assert (_ks_statistic(x.copy(), unit_cdf) == plain).all()

    def test_a_sub_block_whose_bound_is_d_itself_is_kept(self):
        # Against F(x) = x, the first n/2 values lie below 0, where F is 0,
        # so d+ = (i+1)/n peaks at D = 1/2 on column n/2 - 1. The rest
        # sit 1/(2n) short of that: F(x_i) = (i + 3/2 - n/2) / n. The last
        # sub-block below 0 then has the d+ bound (n/2)/n - 0, which is D
        # exactly, while the heads and the last value see D - 1/(2n). Only a
        # margin of at least 0 keeps that sub-block.
        n = FIRST_PRUNED
        x = np.concatenate([np.full(n // 2, -0.5), (np.arange(n // 2) + 1.5) / n])[None, :]
        plain = plain_statistic(x, unit_cdf)
        assert plain == 0.5
        assert (_ks_statistic(x.copy(), unit_cdf) == plain).all()

    def test_a_far_row_evaluates_its_cdf_at_few_of_its_values(self):
        x, cdf = wrong_hypothesis_row(*UNIFORM_PAIR)
        sizes = []
        _ks_statistic(x, lambda part: sizes.append(part.size) or cdf(part))
        assert sum(sizes) < 0.05 * x.size

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
            if VERDICTS[eve.verdicts(*one_row(line))[0]] == "undecided":
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
        assert [VERDICTS[k] for k in eve.verdicts(*one_row(line))] == ["alice_low"]
        evidence = eve.tests(*one_row(line))
        # amplitudes comply, so the variance screens stay quiet and the
        # shape screens must carry the detection
        assert not (evidence.variance_p[HIGH, :, 0] < eve.level).any()
        assert (evidence.shape_p[HIGH, :, 0] < eve.level).any()
        assert evidence.rejected[HIGH, 0]

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
        assert [VERDICTS[k] for k in eve.verdicts(*one_row(line))] == ["undecided"]
        rejected = eve.tests(*one_row(line)).rejected
        assert rejected[LOW, 0]
        assert rejected[HIGH, 0]

    def test_cauchy_sources_skip_variance_tests(self):
        spec_low = NoiseSpec(DistributionKind.CAUCHY, 1.0)
        spec_high = NoiseSpec(DistributionKind.CAUCHY, 2.0)
        _, _, line = mixed_line(spec_low, spec_high, 2000, seed=43)
        evidence = block_attack(spec_low, spec_high).tests(*one_row(line))
        assert np.isnan(evidence.z).all()
        assert np.isnan(evidence.variance_p).all()
        assert np.isfinite(evidence.statistic).all()
        assert np.isfinite(evidence.shape_p).all()

    def test_mixed_kinds_test_variance_only_where_it_exists(self):
        # A Cauchy low party beside a Gaussian high one: three sub-tests per
        # hypothesis. The Cauchy party is Alice under ALICE_LOW and Bob under
        # ALICE_HIGH; only its variance cells are NaN, and they never reject.
        spec_low = NoiseSpec(DistributionKind.CAUCHY, 1.0)
        alice_high = np.arange(8) % 2 == 1
        voltage, current = line_block(
            BlockStreams(47, range(8)),
            alice_high,
            ~alice_high,
            PAIR,
            spec_low,
            GAUSS_HIGH,
            np.empty((2, 8, 2000)),
        )
        eve = BlockAttack(PAIR, spec_low, GAUSS_HIGH, 0.03)
        assert eve.level == pytest.approx(0.01, rel=1e-15)
        evidence = eve.tests(voltage, current)
        cauchy = np.array([[True, False], [False, True]])
        for cells in (evidence.z, evidence.variance_p):
            assert (np.isnan(cells) == cauchy[:, :, None]).all()
        assert np.isfinite(evidence.statistic).all() and np.isfinite(evidence.shape_p).all()
        finite_rejects = [
            [evidence.variance_p[LOW, 1], evidence.shape_p[LOW, 0], evidence.shape_p[LOW, 1]],
            [evidence.variance_p[HIGH, 0], evidence.shape_p[HIGH, 0], evidence.shape_p[HIGH, 1]],
        ]
        expected = [np.logical_or.reduce([p < eve.level for p in h]) for h in finite_rejects]
        assert np.array_equal(evidence.rejected, expected)
        assert evidence.rejected.any() and not evidence.rejected.all()

    def test_significance_bounds(self):
        with pytest.raises(ValueError, match="significance must lie in"):
            block_attack(significance=0.0)
        with pytest.raises(ValueError, match="significance must lie in"):
            block_attack(significance=1.0)

    def test_short_line_rejected(self):
        with pytest.raises(ValueError, match="attack needs at least 100 samples"):
            block_attack().tests(np.ones((1, 10)), np.ones((1, 10)))


# Whether each party is high under each hypothesis, (Alice, Bob): Alice low, then Alice high.
HYPOTHESES = ((False, True), (True, False))


def plain_tests(eve, voltage, current):
    """Every ``BlockAttack.tests`` array from the plain formulas: full-length arrays, one thread.

    Returns ``(z, variance_p, statistic, shape_p, rejected)``; z is NaN for
    a party whose law has no variance (Cauchy).
    """
    rows, n = voltage.shape
    i = np.arange(1, n + 1, dtype=np.float64)
    z, statistic = np.empty((2, 2, rows)), np.empty((2, 2, rows))
    for h, parties in enumerate(HYPOTHESES):
        for party, high in enumerate(parties):
            spec = eve.specs[high]
            x = _reconstruct(voltage, current, PAIR.r_high if high else PAIR.r_low, party == 0)
            z[h, party] = np.nan
            kappa = LAWS[spec.kind].kappa
            if kappa is not None:
                z[h, party] = plain_z(np.mean(x**2, axis=1), spec.scale, n, kappa)
            statistic[h, party] = plain_statistic(np.sort(x, axis=1), _shape_cdf(spec))
    variance_p = _z_p_value(z)
    shape_p = _kolmogorov_sf(math.sqrt(n) * statistic)
    cells = [variance_p[:, 0], variance_p[:, 1], shape_p[:, 0], shape_p[:, 1]]
    rejected = np.logical_or.reduce([p < eve.level for p in cells])
    return z, variance_p, statistic, shape_p, rejected


def long_block(kind, rows, n, seed):
    """A block of mixed-state line signals, Alice low on even rows, and its attack."""
    spec_low, spec_high = NoiseSpec(kind, 1.0), NoiseSpec(kind, 2.0)
    alice_high = np.arange(rows) % 2 == 1
    voltage, current = line_block(
        BlockStreams(seed, range(rows)),
        alice_high,
        ~alice_high,
        PAIR,
        spec_low,
        spec_high,
        np.empty((2, rows, n)),
    )
    return block_attack(spec_low, spec_high), voltage, current


def switch_block(spec_low, spec_high, alice_high, n, mixed=True, seed=11):
    """Line signals of one bit per row with Alice's switches ``alice_high``.

    Bob holds the other resistor on a row where ``mixed`` is set and the
    same one elsewhere; ``mixed`` is one flag for every row or one per row.
    """
    alice_high = np.asarray(alice_high, dtype=bool)
    bob_high = np.where(mixed, ~alice_high, alice_high)
    rows = len(alice_high)
    streams = BlockStreams(seed, range(rows))
    out = np.empty((2, rows, n))
    return line_block(streams, alice_high, bob_high, PAIR, spec_low, spec_high, out)


class TestLongRows:
    """Rows longer than ``BLOCK_SAMPLES`` test the four cells in turn in one scratch array."""

    @pytest.mark.parametrize(
        "rows, n", [(2, BLOCK_SAMPLES + 1), (3, 3 * BLOCK_SAMPLES + 7), (0, BLOCK_SAMPLES + 1)]
    )
    @pytest.mark.parametrize("kind", list(DistributionKind))
    def test_every_field_is_bitwise_the_plain_formula(self, kind, rows, n):
        eve, voltage, current = long_block(kind, rows, n, seed=rows * n)
        got = eve.tests(voltage, current)
        for field, expected in zip(got, plain_tests(eve, voltage, current)):
            assert field.shape == expected.shape
            assert np.array_equal(field, expected, equal_nan=True)


def use_cores(monkeypatch, cores):
    """Let this process see ``cores`` cores, which sets how many shares a run splits into."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)


def count_forks(monkeypatch) -> list[int]:
    """A list that gains an entry each time ``os.fork`` is called from this process."""
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def in_worker(kernel):
    """``kernel`` in a forked worker of this process; the original function elsewhere.

    It patches ``kljn.eve._shape_reconstruction``, which every shape cell
    of every verdict calls, whether counts, bands or D decide the cell.
    """
    original, parent = kljn.eve._shape_reconstruction, os.getpid()

    def patched(*args):
        if os.getpid() != parent:
            kernel()
        return original(*args)

    return patched


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# Uniform rows of 150 samples, ten bits a block: 40 bits are four blocks.
WORKER_SAMPLES, WORKER_BITS = 150, 40
UNIFORM_LOW, UNIFORM_HIGH = NoiseSpec("uniform", 1.0), NoiseSpec("uniform", 2.0)


def worker_runs():
    session = run_session(
        SessionConfig(PAIR, "uniform", 1.0, 3.0, WORKER_SAMPLES, WORKER_BITS, seed=5)
    )
    trials = attack_trials(PAIR, UNIFORM_LOW, UNIFORM_HIGH, WORKER_SAMPLES, WORKER_BITS, seed=5)
    return session, trials


def worker_artifacts(out_dir):
    """The bytes of every file of a ``simulate --csv`` and an ``attack --csv`` of four blocks."""
    common = ["--kind", "uniform", "--seed", "5", "--csv"]
    files = {}
    for command, size in (("simulate", "--samples-per-bit"), ("attack", "--samples")):
        out = out_dir / command
        argv = [command, size, str(WORKER_SAMPLES), "--out", str(out), *common]
        count_flag = "--bits" if command == "simulate" else "--trials"
        assert main(argv + [count_flag, str(WORKER_BITS)]) == 0
        files.update((f"{command}/{p.name}", p.read_bytes()) for p in sorted(out.iterdir()))
    return files


class TestWorkers:
    """A run's bits split into shares of whole blocks; each share after the first runs in a fork."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(kljn.line, "BLOCK_SAMPLES", 10 * WORKER_SAMPLES)

    @pytest.mark.parametrize("cores", [2, 3, 7])
    def test_every_field_and_artifact_is_bitwise_the_same_for_any_worker_count(
        self, monkeypatch, tmp_path, capsys, cores
    ):
        use_cores(monkeypatch, 1)
        forks = count_forks(monkeypatch)
        (session, trials), files = worker_runs(), worker_artifacts(tmp_path / "one")
        assert forks == []
        use_cores(monkeypatch, cores)
        got_session, got_trials = worker_runs()
        assert_same_outcome(got_session, session)
        assert_same_outcome(got_trials, trials)
        assert worker_artifacts(tmp_path / "many") == files
        # Four runs of four blocks each: min(cores, 4) shares, all but one forked.
        assert len(forks) == 4 * (min(cores, 4) - 1)
        assert_no_child_left()

    @pytest.mark.parametrize("cores", [1, 2, 3])
    def test_power_is_the_mean_square_of_each_reference_voltage(self, monkeypatch, cores):
        use_cores(monkeypatch, cores)
        forks = count_forks(monkeypatch)
        config = SessionConfig(PAIR, "uniform", 1.0, 3.0, WORKER_SAMPLES, WORKER_BITS, seed=5)
        specs = NoiseSpec(config.kind, config.sigma_low), NoiseSpec(config.kind, config.sigma_high)
        eve = BlockAttack(config.pair, *specs, config.significance)
        bits = kljn.engine.run(
            eve, config.samples_per_bit, config.bits, config.seed, lambda c: (c[:, 0], c[:, 1])
        )
        voltage = np.array([reference_bit(config, i)[2] for i in range(config.bits)])
        expected = np.mean(voltage**2, axis=1)
        assert bits.power.dtype == expected.dtype
        assert bits.power.tobytes() == expected.tobytes()
        assert len(forks) == cores - 1
        assert_no_child_left()

    @pytest.mark.parametrize("cores", [1, 2])
    def test_a_run_without_power_keeps_every_other_column(self, monkeypatch, cores):
        use_cores(monkeypatch, cores)
        eve = BlockAttack(PAIR, UNIFORM_LOW, UNIFORM_HIGH, 0.05)
        args = eve, WORKER_SAMPLES, WORKER_BITS, 5, lambda c: (~c[:, 0], c[:, 0])
        full, bare = kljn.engine.run(*args), kljn.engine.run(*args, power=False)
        assert len(full.power) == WORKER_BITS and len(bare.power) == 0
        for name in ("alice_high", "bob_high", "verdicts"):
            assert getattr(bare, name).tobytes() == getattr(full, name).tobytes()
        assert_no_child_left()

    @pytest.mark.parametrize(
        "samples, bits, seed, setting",
        [(0, 10, 0, "samples"), (50, 2000, 0, "samples"), (150, 0, 0, "bits"), (150, 40, -1, "seed")],
    )
    def test_a_refused_run_forks_no_worker(self, monkeypatch, samples, bits, seed, setting):
        use_cores(monkeypatch, 4)
        forks = count_forks(monkeypatch)
        eve = BlockAttack(PAIR, UNIFORM_LOW, UNIFORM_HIGH, 0.05)
        with pytest.raises(ValueError, match=f"^{setting} must"):
            kljn.engine.run(eve, samples, bits, seed, lambda c: (c[:, 0], c[:, 1]))
        assert forks == []
        assert_no_child_left()

    @pytest.mark.parametrize("bits, samples", [(1, 100), (40, 150), (41, 150), (7, 1000), (9, 33)])
    @pytest.mark.parametrize("cores", [1, 2, 3, 64])
    def test_shares_are_contiguous_runs_of_whole_blocks(self, monkeypatch, bits, samples, cores):
        use_cores(monkeypatch, cores)
        row_blocks = kljn.line.blocks(bits, samples)
        shares = kljn.engine._shares(bits, samples)
        assert len(shares) == min(cores, len(row_blocks))
        assert [i for share in shares for i in share] == list(range(bits))
        assert {share.start for share in shares} <= {rows.start for rows in row_blocks}

    def test_one_share_without_fork_or_beside_another_thread(self, monkeypatch):
        use_cores(monkeypatch, 4)
        run = partial(attack_trials, PAIR, UNIFORM_LOW, UNIFORM_HIGH, WORKER_SAMPLES, WORKER_BITS)
        expected = run(seed=2)
        monkeypatch.setattr(os, "fork", mock.Mock(side_effect=AssertionError("forked")))
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        other.start()
        try:
            beside_a_thread = run(seed=2)
        finally:
            stop.set()
            other.join(timeout=10)
        assert not other.is_alive()
        monkeypatch.delattr(os, "fork")
        without_fork = run(seed=2)
        assert_same_outcome(beside_a_thread, expected)
        assert_same_outcome(without_fork, expected)

    def test_a_kernel_failing_in_a_worker_raises_in_the_caller(self, monkeypatch):
        use_cores(monkeypatch, 2)

        def fail():
            raise FloatingPointError("kernel failed in a worker")

        monkeypatch.setattr(kljn.eve, "_shape_reconstruction", in_worker(fail))
        with pytest.raises(FloatingPointError) as raised:
            attack_trials(PAIR, UNIFORM_LOW, UNIFORM_HIGH, WORKER_SAMPLES, WORKER_BITS, seed=2)
        assert str(raised.value) == "kernel failed in a worker"
        if sys.version_info >= (3, 11):  # the worker's traceback goes with it as a note
            assert "raised in the worker that ran bits 20 to 39" in raised.value.__notes__[0]
        assert_no_child_left()

    def test_a_worker_error_is_the_cli_one_line_error(self, monkeypatch, tmp_path, capsys):
        use_cores(monkeypatch, 2)

        def fail():
            raise FloatingPointError("overflow encountered in multiply")

        monkeypatch.setattr(kljn.eve, "_shape_reconstruction", in_worker(fail))
        out = tmp_path / "out"
        argv = ["attack", "--kind", "uniform", "--samples", str(WORKER_SAMPLES), "--csv"]
        assert main(argv + ["--trials", str(WORKER_BITS), "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err == "error: FloatingPointError: overflow encountered in multiply\n"
        assert captured.out == ""
        assert list(out.iterdir()) == []
        assert_no_child_left()

    def test_an_exception_that_does_not_pickle_arrives_as_its_repr(self, monkeypatch):
        use_cores(monkeypatch, 2)

        class Local(Exception):
            pass

        def fail():
            raise Local("not importable")

        monkeypatch.setattr(kljn.eve, "_shape_reconstruction", in_worker(fail))
        refused = r"a worker raised .*Local\('not importable'\)"
        with pytest.raises(kljn.engine.WorkerError, match=refused):
            attack_trials(PAIR, UNIFORM_LOW, UNIFORM_HIGH, WORKER_SAMPLES, WORKER_BITS, seed=2)
        assert_no_child_left()

    def test_a_killed_worker_is_an_error(self, monkeypatch, tmp_path, capsys):
        use_cores(monkeypatch, 2)
        kill = in_worker(lambda: os.kill(os.getpid(), signal.SIGKILL))
        monkeypatch.setattr(kljn.eve, "_shape_reconstruction", kill)
        killed = r"ended without a result \(killed by signal 9\)"
        with pytest.raises(kljn.engine.WorkerError, match=killed):
            attack_trials(PAIR, UNIFORM_LOW, UNIFORM_HIGH, WORKER_SAMPLES, WORKER_BITS, seed=2)
        assert_no_child_left()
        out = tmp_path / "out"
        argv = ["simulate", "--kind", "uniform", "--samples-per-bit", str(WORKER_SAMPLES)]
        assert main(argv + ["--bits", str(WORKER_BITS), "--csv", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: worker \d+ " + killed + "\n", err)
        assert list(out.iterdir()) == []
        assert_no_child_left()

    def test_an_interrupt_kills_and_reaps_every_worker(self, monkeypatch):
        use_cores(monkeypatch, 3)
        parent = os.getpid()

        def interrupted(*args):
            if os.getpid() != parent:
                time.sleep(60)  # a worker still busy when the run is interrupted
            raise KeyboardInterrupt

        monkeypatch.setattr(kljn.eve, "_shape_reconstruction", interrupted)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            attack_trials(PAIR, UNIFORM_LOW, UNIFORM_HIGH, WORKER_SAMPLES, WORKER_BITS, seed=2)
        assert time.monotonic() - start < 30
        assert_no_child_left()

    def test_no_run_leaves_a_child_process(self, monkeypatch, tmp_path, capsys):
        use_cores(monkeypatch, 2)
        forks = count_forks(monkeypatch)
        worker_runs()
        assert_no_child_left()
        argv = ["simulate", "--bits", str(WORKER_BITS), "--samples-per-bit", str(WORKER_SAMPLES)]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        assert_no_child_left()
        assert len(forks) == 3

    def test_a_worker_stops_once_the_run_that_forked_it_has_gone(self, monkeypatch):
        # One bit a block, so the worker of bits 20 to 39 checks for its run
        # between bits. Its four shape cells a bit take a quarter second,
        # five seconds in all if it went on to the end.
        monkeypatch.setattr(kljn.line, "BLOCK_SAMPLES", WORKER_SAMPLES)
        use_cores(monkeypatch, 2)
        read, write = os.pipe()
        original, runner = kljn.eve._shape_reconstruction, []

        def slow(*args):
            if os.getpid() != runner[0]:  # the worker writes a byte a call
                os.write(write, b".")
                time.sleep(0.0625)
            return original(*args)

        monkeypatch.setattr(kljn.eve, "_shape_reconstruction", slow)
        run = os.fork()
        if run == 0:  # the run, which forks the worker; the pipe ends when both have
            try:
                runner.append(os.getpid())
                attack_trials(PAIR, UNIFORM_LOW, UNIFORM_HIGH, WORKER_SAMPLES, WORKER_BITS)
            finally:
                os._exit(0)
        os.close(write)
        try:
            assert os.read(read, 1) == b"."  # the worker is running
            os.kill(run, signal.SIGKILL)
            os.waitpid(run, 0)
            start = time.monotonic()
            while os.read(read, 64):
                pass
            assert time.monotonic() - start < 2.5
        finally:
            os.close(read)


def test_the_cli_prints_its_summary_once_from_a_forking_subprocess(tmp_path):
    # Two cores and four blocks, so one worker is forked. A worker that left
    # other than through os._exit would go on through main and print the
    # summary again, or flush the stdout buffer it inherited.
    src = str(Path(kljn.eve.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import os, sys; os.sched_getaffinity = lambda pid: {0, 1}; import kljn.cli; "
        "sys.exit(kljn.cli.main(sys.argv[1:]))"
    )
    argv = ["simulate", "--bits", "100", "--samples-per-bit", "1000", "--out", str(tmp_path)]
    out = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stderr == ""
    assert len(out.stdout.splitlines()) == 1 and out.stdout.startswith("bits=100 ")


def attributes(eve):
    """Each attribute of an attack and the identity of its value."""
    return {name: id(value) for name, value in vars(eve).items()}


class TestKeptBuffers:
    """One attack on blocks of any shape, each tested in a slab of the caller's one kept array."""

    @pytest.mark.parametrize("kind", list(DistributionKind))
    def test_a_reused_attack_equals_a_fresh_one_per_block(self, kind):
        # Fewer rows, more rows, another row length and long rows, each in
        # the leading rows of one larger array of stale values, as
        # engine.run_blocks hands the attack its scratch.
        shapes = [(5, 1000), (2, 1000), (7, 1000), (2, BLOCK_SAMPLES + 1), (5, 1000)]
        arrays = np.full((3, 7, BLOCK_SAMPLES + 1), np.nan)
        eve = block_attack(NoiseSpec(kind, 1.0), NoiseSpec(kind, 2.0))
        for k, (rows, n) in enumerate(shapes):
            fresh, voltage, current = long_block(kind, rows, n, seed=k)
            expected = fresh.tests(voltage, current)
            got = eve.tests(voltage, current, out=arrays[k % 3, :rows, :n])
            for field, want in zip(got, expected):
                assert field.shape == want.shape
                assert np.array_equal(field, want, equal_nan=True)

    def test_threads_sharing_one_attack_give_the_sequential_evidence(self):
        # Three threads at a time, more than this host's cores, on rows long
        # enough that numpy drops the GIL in their sorts and kernels, so the
        # calls overlap; one scratch shared by them would mix their
        # reconstructions.
        eve = block_attack(UNIFORM_LOW, UNIFORM_HIGH)
        blocks = [long_block(DistributionKind.UNIFORM, 2, 40000, seed=k)[1:] for k in range(6)]
        expected = [eve.tests(voltage, current) for voltage, current in blocks]
        state = attributes(eve)
        got = [None] * len(blocks)
        start = threading.Barrier(3, timeout=60)

        def attack(k):
            voltage, current = blocks[k]
            start.wait()
            got[k] = eve.tests(voltage, current, out=np.empty_like(voltage))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for first in range(0, len(blocks), 3):
                threads = [threading.Thread(target=attack, args=(first + k,)) for k in range(3)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert None not in got
        for evidence, want in zip(got, expected):
            for field, want_field in zip(evidence, want):
                assert np.array_equal(field, want_field, equal_nan=True)
        assert attributes(eve) == state

    def test_threads_building_the_bands_at_once_give_the_sequential_codes(self):
        # Three threads at a time, more than this host's cores, each on a
        # fresh attack's first block, so all three build its shape bands at
        # once; each attack keeps one set of them.
        blocks = [long_block(DistributionKind.GAUSSIAN, 16, 1000, seed=k)[1:] for k in range(6)]
        expected = [block_attack().verdicts(voltage, current) for voltage, current in blocks]
        got = [None] * len(blocks)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for first in range(0, len(blocks), 3):
                eve = block_attack()
                start = threading.Barrier(3, timeout=60)

                def attack(k):
                    voltage, current = blocks[k]
                    start.wait()
                    got[k] = eve.verdicts(voltage, current, out=np.empty_like(voltage))

                threads = [threading.Thread(target=attack, args=(first + k,)) for k in range(3)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                assert list(eve._bands_by_length) == [1000]
        finally:
            sys.setswitchinterval(interval)
        for codes, want in zip(got, expected):
            assert np.array_equal(codes, want)

    @pytest.mark.parametrize("kind", list(DistributionKind))
    def test_testing_a_block_assigns_nothing_to_the_attack(self, kind):
        eve, voltage, current = long_block(kind, 3, 500, seed=2)
        state = attributes(eve)
        eve.tests(voltage, current)
        eve.verdicts(voltage, current, out=np.empty_like(voltage))
        assert attributes(eve) == state


class TestDecisions:
    def test_credit_table_matches_the_scalar_rule(self):
        def rule(decision: str, true_alice_state: str) -> float:
            """1 correct, 0 wrong, 0.5 undecided."""
            if decision == "undecided":
                return 0.5
            guessed_low = decision == "alice_low"
            return 1.0 if guessed_low == (true_alice_state == "low") else 0.0

        cells = [(code, high) for code in range(len(VERDICTS)) for high in (False, True)]
        assert len(cells) == 8
        codes, alice_high = map(np.array, zip(*cells))
        states = ("low", "high")
        expected = [rule(VERDICTS[code], states[high]) for code, high in cells]
        assert credits(codes, alice_high).tolist() == expected

    def test_verdict_codes_decode_both_rejection_flags(self):
        # Real line blocks reach every code: compliant Gaussian mixed rows
        # reject neither hypothesis, the uniform shape leak rejects exactly
        # the wrong one whichever state Alice holds, and a same-state block
        # rejects both.
        blocks = [
            (GAUSS_LOW, GAUSS_HIGH, [False, True, False, True], 1000, True, ["undecided"] * 4),
            (UNIFORM_LOW, UNIFORM_HIGH, [False, True], 100_000, True, ["alice_low", "alice_high"]),
            (GAUSS_LOW, GAUSS_HIGH, [False, True], 10_000, False, ["undecided"] * 2),
        ]
        reached = set()
        for spec_low, spec_high, alice_high, n, mixed, names in blocks:
            eve = block_attack(spec_low, spec_high)
            voltage, current = switch_block(spec_low, spec_high, alice_high, n, mixed=mixed)
            codes = eve.verdicts(voltage, current)
            low_rejected, high_rejected = eve.tests(voltage, current).rejected
            assert codes.tolist() == (low_rejected + 2 * high_rejected).tolist()
            assert [VERDICTS[k] for k in codes] == names
            reached.update(codes.tolist())
        assert reached == {0, 1, 2, 3}

    def test_every_outcome_column_is_read_only(self):
        summary = attack_trials(PAIR, GAUSS_LOW, GAUSS_HIGH, 200, 4, seed=2)
        outcome = run_session(
            SessionConfig(PAIR, DistributionKind.GAUSSIAN, 1.0, 2.0, 150, bits=6, seed=2)
        )
        columns = [summary.alice_high, summary.verdicts]
        columns += [outcome.alice_high, outcome.bob_high, outcome.levels, outcome.verdicts]
        for column in columns:
            assert not column.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                column[...] = 0


# Sigma_high at these multiples of the compliant 2.0 of PAIR and sigma_low 1.0.
SIGMA_FACTORS = (1.0, 1.05, 2.0)


def law_specs(kind, factor):
    """Low and high specs of ``kind``, the high scale ``factor`` times the compliant one."""
    return NoiseSpec(kind, 1.0), NoiseSpec(kind, factor * security_sigma_ratio(PAIR))


def codes_of(evidence):
    """The verdict code of each row of a block's evidence, ``low + 2 * high``."""
    low_rejected, high_rejected = evidence.rejected
    return low_rejected + 2 * high_rejected


def assert_codes_are_the_evidence(eve, voltage, current):
    """``verdicts`` in a scratch of stale values equals the codes of ``tests``; returns the evidence."""
    evidence = eve.tests(voltage, current)
    codes = eve.verdicts(voltage, current, out=np.full(voltage.shape, np.nan))
    expected = codes_of(evidence)
    assert codes.dtype == expected.dtype and codes.shape == expected.shape
    assert np.array_equal(codes, expected)
    return evidence


def count_shape_cells(monkeypatch) -> list[int]:
    """A list that gains an entry at each shape cell run (each ``_shape_reconstruction`` call)."""
    calls, original = [], kljn.eve._shape_reconstruction

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(kljn.eve, "_shape_reconstruction", counted)
    return calls


class TestVerdictsStopEarly:
    """``verdicts`` skips the shape cells of a hypothesis that every row of its block rejects."""

    if given is not None:

        @settings(max_examples=20, deadline=None)
        @given(
            rows=st.sampled_from([0, 1, 3, 16]),
            n=st.sampled_from([100, 1000]),
            seed=st.integers(0, 2**64 - 1),
            alice=st.integers(0, 2**16 - 1),
            same=st.integers(0, 2**16 - 1),
            significance=st.floats(1e-9, 0.99),
        )
        @example(rows=0, n=100, seed=0, alice=0, same=0, significance=0.01)
        @example(rows=1, n=100, seed=0, alice=0, same=0, significance=0.01)
        @example(rows=3, n=100, seed=0, alice=0b010, same=0, significance=0.5)
        @example(rows=16, n=100, seed=0, alice=0x5555, same=0, significance=1e-6)
        @example(rows=0, n=1000, seed=0, alice=0, same=0, significance=0.01)
        @example(rows=1, n=1000, seed=0, alice=1, same=0, significance=0.01)
        @example(rows=3, n=1000, seed=0, alice=0b101, same=0b100, significance=0.5)
        @example(rows=16, n=1000, seed=0, alice=0x5555, same=0x1111, significance=1e-6)
        @pytest.mark.parametrize("factor", SIGMA_FACTORS)
        @pytest.mark.parametrize("kind", list(DistributionKind))
        def test_codes_equal_the_codes_of_the_evidence(
            self, kind, factor, rows, n, seed, alice, same, significance
        ):
            # Alice is high on the rows whose bit of ``alice`` is set, and
            # Bob holds her resistor on the rows whose bit of ``same`` is.
            bits = np.arange(rows)
            alice_high, mixed = (alice >> bits) & 1 == 1, (same >> bits) & 1 == 0
            spec_low, spec_high = law_specs(kind, factor)
            voltage, current = switch_block(spec_low, spec_high, alice_high, n, mixed, seed)
            eve = block_attack(spec_low, spec_high, significance)
            assert_codes_are_the_evidence(eve, voltage, current)

    else:

        def test_codes_equal_the_codes_of_the_evidence(self):
            pytest.skip("needs hypothesis")

    @pytest.mark.parametrize("kind", list(DistributionKind))
    def test_codes_equal_the_evidence_where_some_rows_reject(self, kind):
        # Every fourth row is a same-state bit, which rejects both
        # hypotheses; on the mixed rows the amplitude violation rejects
        # only the wrong one. So each hypothesis is rejected on some rows
        # of the block and not on others, and no shape cell is skipped.
        rows = 16
        alice_high = np.arange(rows) % 2 == 1
        spec_low, spec_high = law_specs(kind, 2.0)
        mixed = np.arange(rows) % 4 != 0
        voltage, current = switch_block(spec_low, spec_high, alice_high, 1000, mixed)
        evidence = assert_codes_are_the_evidence(block_attack(spec_low, spec_high), voltage, current)
        rejected = evidence.rejected.sum(axis=1)
        assert (0 < rejected).all() and (rejected < rows).all()

    @pytest.mark.parametrize("factor", SIGMA_FACTORS)
    @pytest.mark.parametrize("kind", list(DistributionKind))
    def test_a_pruned_row_gives_the_codes_of_its_evidence(self, kind, factor):
        spec_low, spec_high = law_specs(kind, factor)
        voltage, current = switch_block(spec_low, spec_high, [False], FIRST_PRUNED)
        assert_codes_are_the_evidence(block_attack(spec_low, spec_high), voltage, current)

    def test_a_long_uniform_trial_skips_the_second_shape_cell_of_its_wrong_hypothesis(
        self, monkeypatch
    ):
        # Alice is low; Alice's shape cell of the Alice-high hypothesis
        # rejects it, so Bob's is not run.
        calls = count_shape_cells(monkeypatch)
        eve = block_attack(UNIFORM_LOW, UNIFORM_HIGH)
        voltage, current = switch_block(UNIFORM_LOW, UNIFORM_HIGH, [False], 100_000)
        assert VERDICTS[eve.verdicts(voltage, current)[0]] == "alice_low"
        assert len(calls) == 3
        eve.tests(voltage, current)
        assert len(calls) == 3 + 4

    @pytest.mark.parametrize(
        "factor, alice_high, statistics",
        [
            (2.0, np.zeros(16, dtype=bool), 2),
            (2.0, np.arange(16) % 2 == 1, 4),
            (1.0, np.zeros(16, dtype=bool), 4),
        ],
        ids=["alice-low-violated", "alice-alternating-violated", "alice-low-compliant"],
    )
    def test_a_shape_cell_runs_unless_its_whole_block_rejects(
        self, monkeypatch, factor, alice_high, statistics
    ):
        # At twice the compliant sigma_high the variance cells reject the
        # Alice-high hypothesis on every row where Alice is low. Only when
        # that is every row of the block are its two shape cells skipped.
        spec_low, spec_high = law_specs(DistributionKind.GAUSSIAN, factor)
        voltage, current = switch_block(spec_low, spec_high, alice_high, 1000)
        calls = count_shape_cells(monkeypatch)
        block_attack(spec_low, spec_high).verdicts(voltage, current)
        assert len(calls) == statistics


def count_exact_rows(monkeypatch) -> list[int]:
    """A list that gains the row count of each ``kljn.eve._ks_statistic`` call."""
    rows, original = [], kljn.eve._ks_statistic

    def counted(x, cdf):
        rows.append(len(x))
        return original(x, cdf)

    monkeypatch.setattr(kljn.eve, "_ks_statistic", counted)
    return rows


def boundary_statistic(n, level):
    """The largest KS distance D of rows of ``n`` values whose p-value is ``level`` or more."""
    low, high = 0.0, 1.0
    while True:
        mid = 0.5 * (low + high)
        if mid in (low, high):
            return low
        if _kolmogorov_sf(np.array([math.sqrt(n) * mid]))[0] >= level:
            low = mid
        else:
            high = mid


def inverse_cdf(cdf, target):
    """The least float x with ``cdf(x) >= target``, by bisection on the CDF the attack calls."""
    low, high = -1e3, 1e3
    while True:
        mid = 0.5 * (low + high)
        if mid in (low, high):
            return high
        if cdf(np.array([[mid]]))[0, 0] >= target:
            high = mid
        else:
            low = mid


# Distances of the boundary rows' D from the level's D, on either side.
BOUNDARY_OFFSETS = (-1e-6, -1e-9, -1e-12, 1e-12, 1e-9, 1e-6)


def boundary_rows(spec, n, level):
    """The rows of :func:`iter_boundary_rows` as one block, and each one's intended offset."""
    rows, offsets = zip(*iter_boundary_rows(spec, n, level))
    return np.array(rows), np.array(offsets)


def iter_boundary_rows(spec, n, level):
    """Sorted rows of ``n`` values whose KS distance from ``spec`` straddles the level's D.

    Each row is ``spec``'s quantiles at the levels ``(i + 1/2) / n`` with
    one run of values moved, about the median so that the mean square
    hardly moves, to put one term of D ``BOUNDARY_OFFSETS`` from the
    level's D:

    - a spike: ``x_k`` raised so that ``F(x_k) - k/n`` is D, and the values
      after it raised to ``x_k`` until the quantiles pass it, with ``k`` on
      a sub-block head (where the bounds probe F, so the largest probe
      term is D) and between two heads;
    - a dip: the values before column ``e``, a sub-block's end, lowered to
      one value ``x`` with ``e/n - F(x)`` equal to D, so that the sub-block
      ending there has D itself as its bound.

    Two more rows lie far on either side: the quantiles alone, and a
    spike at twice the level's D. Yields each row, one at a time, with its
    intended offset (``-inf`` and ``inf`` for the far rows).
    """
    cdf, quantiles = _shape_cdf(spec), quantile_row(spec, n)
    d, width = boundary_statistic(n, level), kljn.eve._sub_block_width(n)
    head, end = (width * int((0.5 + side * d) * n / width) for side in (-1, 0.5))

    def spike(k, target):
        x = quantiles.copy()
        x[k] = inverse_cdf(cdf, k / n + target)
        return np.maximum.accumulate(x)

    def dip(target):
        x = quantiles.copy()
        x[:end] = np.minimum(x[:end], inverse_cdf(cdf, end / n - target))
        return x

    yield quantiles, -math.inf
    yield spike(head, 2.0 * d), math.inf
    for offset in BOUNDARY_OFFSETS:
        yield spike(head, d + offset), offset
        yield spike(head + width // 2, d + offset), offset
        yield dip(d + offset), offset


class TestVerdictBounds:
    """``verdicts`` decides a shape cell's rows from their KS bounds, and D only for the rest."""

    @pytest.mark.parametrize("significance", [1e-6, 0.01, 0.5])
    @pytest.mark.parametrize("n", [100, 1000, FIRST_PRUNED])
    @pytest.mark.parametrize("kind", list(DistributionKind))
    def test_rows_at_the_level_get_the_codes_of_their_evidence(
        self, monkeypatch, kind, n, significance
    ):
        # Both specs are one spec and the current is 0, so all four cells
        # reconstruct the designed rows exactly and test them against it.
        spec = NoiseSpec(kind, 1.3)
        eve = block_attack(spec, spec, significance)
        voltage, offsets = boundary_rows(spec, n, eve.level)
        current = np.zeros_like(voltage)
        evidence = eve.tests(voltage, current)
        d = boundary_statistic(n, eve.level)
        near = np.isfinite(offsets)
        achieved = evidence.statistic[0, 0] - d
        assert (np.abs(achieved[near] - offsets[near]) <= 1e-15).all()
        assert (np.abs(achieved[near]) >= 0.5e-12).all() and (np.abs(achieved[near]) <= 2e-6).all()
        p, above = evidence.shape_p[0, 0], offsets > 0
        assert (p[above] < eve.level).all() and (p[~above] >= eve.level).all()
        # The shape channel alone decides the near rows.
        assert not (evidence.variance_p[..., near] < eve.level).any()
        exact_rows = count_exact_rows(monkeypatch)
        codes = eve.verdicts(voltage, current, out=np.full(voltage.shape, np.nan))
        assert np.array_equal(codes, codes_of(evidence))
        # The far rows are decided from the bounds; some near ones are not.
        assert 0 < sum(exact_rows) <= 4 * (len(offsets) - 2)

    def test_a_level_below_the_floor_leaves_every_row_open(self, monkeypatch):
        # Below 1e-300 the p-values' relative accuracy is not held, so each
        # cell computes D for every row that its hypothesis has not yet
        # rejected; at compliance that is every row of all four cells.
        spec_low, spec_high = law_specs(DistributionKind.GAUSSIAN, 1.0)
        voltage, current = switch_block(spec_low, spec_high, np.arange(16) % 2 == 1, 1000)
        eve = block_attack(spec_low, spec_high, 1e-301)
        assert eve.level < kljn.eve._P_FLOOR
        exact_rows = count_exact_rows(monkeypatch)
        codes = eve.verdicts(voltage, current)
        assert sum(exact_rows) == 4 * 16
        assert np.array_equal(codes, codes_of(eve.tests(voltage, current)))

    def test_a_shape_cell_takes_a_p_value_call_only_for_its_open_rows(self, monkeypatch):
        spec_low, spec_high = law_specs(DistributionKind.GAUSSIAN, 1.0)
        voltage, current = switch_block(spec_low, spec_high, np.arange(16) % 2 == 1, 1000)
        eve = block_attack(spec_low, spec_high)
        eve.verdicts(voltage, current)  # builds the bands of 1000-value rows
        calls = []
        marks = {"_shape_reconstruction": "c", "_kolmogorov_sf": "p", "_ks_statistic": "d"}
        for name, mark in marks.items():
            original = getattr(kljn.eve, name)
            counted = partial(lambda f, m, *args: calls.append(m) or f(*args), original, mark)
            monkeypatch.setattr(kljn.eve, name, counted)
        eve.verdicts(voltage, current)
        # A cell sorts and compares its probes with the bands; only if they
        # leave rows open does it take the D of each and their p-values in one call.
        assert re.fullmatch("(c(d+p)?){4}", "".join(calls))
        assert calls.count("d") < 16

    def test_a_compliant_block_evaluates_its_cdf_at_few_of_its_values(self, monkeypatch):
        sizes, original = [], kljn.eve._shape_cdf

        def counted_cdf(spec):
            cdf = original(spec)
            return lambda x: sizes.append(x.size) or cdf(x)

        monkeypatch.setattr(kljn.eve, "_shape_cdf", counted_cdf)
        spec_low, spec_high = law_specs(DistributionKind.GAUSSIAN, 1.0)
        voltage, current = switch_block(spec_low, spec_high, np.arange(16) % 2 == 1, 1000)
        eve = block_attack(spec_low, spec_high)
        eve.tests(voltage, current)
        cells = 4 * voltage.size
        assert sum(sizes) == cells  # every value of the four shape cells
        sizes.clear()
        eve.verdicts(voltage, current)  # builds the bands, from F at few values
        assert sum(sizes) < 0.25 * cells
        sizes.clear()
        exact_rows = count_exact_rows(monkeypatch)
        eve.verdicts(voltage, current)
        # With the bands built, F is called only on the rows they leave open.
        assert sum(sizes) == voltage.shape[1] * sum(exact_rows) < 0.25 * cells


def band_levels(n, d):
    """Level and side (:func:`kljn.eve._threshold`) of each band of ``n``-value rows at ``d* = d``.

    Rebuilt from the KS terms at the probes: the sub-block heads ``s``,
    then the last column. The accept bands hold each term of a sub-block
    ``[s, e)`` at most ``A = d* - delta`` (``F(x_s) >= e/n - A`` and ``F``
    at the next probe ``<= s/n + A``); the reject bands give a probe term
    of at least ``R = d* + delta``. An infinite level bounds nothing.
    """
    width = kljn.eve._sub_block_width(n)
    heads = np.arange(0, n, width)
    probes = np.append(heads, n - 1)
    accept, reject = d - kljn.eve._KS_DELTA, d + kljn.eve._KS_DELTA
    return [
        (np.append(np.minimum(heads + width, n) / n - accept, -np.inf), 1),
        (np.append(np.inf, heads / n + accept), -1),
        ((probes + 1.0) / n - reject, -1),
        (probes / n + reject, 1),
    ]


def quantile_row(spec, n):
    """The quantiles of ``spec`` at the levels ``(i + 1/2) / n``, interpolated on its law's grid."""
    grid = law_grid(spec.kind) * spec.scale
    return np.interp((np.arange(n) + 0.5) / n, _shape_cdf(spec)(grid[None, :])[0], grid)


def non_finite_rows(spec, n):
    """Eight sorted rows of ``n`` values, six of them holding an infinity or NaN.

    A row of mid-quantiles of ``spec``, which its bands accept, and the same
    row moved two scales up, which they reject; each followed by itself
    with a -inf, an inf or a NaN in place of one value.
    """
    quantiles = quantile_row(spec, n)
    rows = []
    for x in (quantiles, quantiles + 2.0 * spec.scale):
        rows.append(x)
        for k, value in ((0, -np.inf), (n // 2, np.inf), (n // 3, np.nan)):
            rows.append(np.sort(np.concatenate([np.delete(x, k), [value]])))
    return np.array(rows)


class TestShapeBands:
    """The sample-space bands ``verdicts`` compares a shape cell's sorted rows with."""

    @pytest.mark.parametrize("significance", [1e-9, 1e-4, 0.01, 0.5, 0.99])
    @pytest.mark.parametrize("n", [100, 1000, FIRST_PRUNED, LONG_ROW])
    @pytest.mark.parametrize("kind", list(DistributionKind))
    def test_each_threshold_lies_on_its_side_of_the_cdf(self, kind, n, significance):
        spec_low, spec_high = NoiseSpec(kind, 0.7), NoiseSpec(kind, 2.9)
        eve = block_attack(spec_low, spec_high, significance)
        d = boundary_statistic(n, eve.level)
        assert kljn.eve._level_statistic(n, eve.level) == d
        for spec, (bands, _) in zip(eve.specs, eve._bands(n)):
            cdf = _shape_cdf(spec)
            bottom, top = cdf(np.array([-np.inf, np.inf]))
            assert bands.shape == (4, len(band_levels(n, d)[0][0]))
            for band, (t, side) in zip(bands, band_levels(n, d)):
                near, far = (bottom, top) if side > 0 else (top, bottom)
                # NaN exactly where no x, infinities included, passes the level.
                unreachable = side * (far - t) < _KS_MARGIN
                assert np.array_equal(np.isnan(band), unreachable)
                # An infinite threshold only where every x passes it.
                everywhere = np.isinf(band)
                assert (band[everywhere] == -side * np.inf).all()
                assert (side * (near - t[everywhere]) >= _KS_MARGIN).all()
                # Every finite threshold has F past its level by the margin
                # F is monotone within, and gives away less than delta.
                finite = np.isfinite(band)
                past = side * (cdf(band[finite]) - t[finite])
                assert (past >= _KS_MARGIN).all() and (past < kljn.eve._KS_DELTA).all()

    @pytest.mark.parametrize("n", [100, 1000])
    @pytest.mark.parametrize("kind", list(DistributionKind))
    def test_a_row_holding_an_infinity_or_nan_is_never_decided_by_the_bands(
        self, monkeypatch, kind, n
    ):
        spec = NoiseSpec(kind, 1.3)
        eve = block_attack(spec, spec)
        cdf = _shape_cdf(spec)
        x = non_finite_rows(spec, n)
        exact_rows = count_exact_rows(monkeypatch)
        rejected = np.zeros(len(x), dtype=bool)
        kljn.eve._shape_rejections(x.copy(), cdf, eve._bands(n)[0], eve.level, rejected)
        # One D for each of the six rows that are not finite, in one call, none for the rest.
        assert exact_rows == [6]
        assert rejected.tolist() == [False] * 4 + [True] * 3 + [False]
        p = kljn.eve._shape_p_value(_ks_statistic(x.copy(), cdf), n)
        assert (rejected == (p < eve.level)).all()


def count_verdicts(monkeypatch) -> list:
    """A list that gains what each ``kljn.eve._count_verdict`` call decides: True, False or None."""
    verdicts, original = [], kljn.eve._count_verdict

    def counted(row, counts):
        verdicts.append(original(row, counts))
        return verdicts[-1]

    monkeypatch.setattr(kljn.eve, "_count_verdict", counted)
    return verdicts


def probe_verdict(x, probes):
    """What the bands ``probes`` decide of the sorted row ``x``: True rejects, False accepts, None."""
    n = len(x)
    low, high, below, above = probes
    values = x[np.minimum(np.arange(probes.shape[1]) * kljn.eve._sub_block_width(n), n - 1)]
    if (values < below).any() or (values > above).any():
        return True
    if (values >= low).all() and (values <= high).all():
        return False
    return None


COUNTED_KINDS = [DistributionKind.UNIFORM, DistributionKind.GAUSSIAN]


class TestCountBands:
    """``verdicts`` decides long uniform and Gaussian rows from their counts on a grid, unsorted."""

    def test_only_long_rows_of_a_law_flat_outside_a_finite_range_get_a_grid(self):
        for kind in DistributionKind:
            spec = NoiseSpec(kind, 1.3)
            eve = block_attack(spec, spec)
            assert eve._bands(FIRST_PRUNED - 1)[0].counts is None
            assert (eve._bands(FIRST_PRUNED)[0].counts is None) == (kind == DistributionKind.CAUCHY)

    @pytest.mark.parametrize("n", [FIRST_PRUNED, LONG_ROW])
    @pytest.mark.parametrize("kind", COUNTED_KINDS)
    def test_long_rows_at_the_level_get_the_codes_of_their_evidence(self, monkeypatch, kind, n):
        # The rows of TestVerdictBounds, one block each: D at 1e-12, 1e-9
        # and 1e-6 either side of the level's D, and two far rows.
        spec = NoiseSpec(kind, 1.3)
        eve = block_attack(spec, spec)
        d = boundary_statistic(n, eve.level)
        decided = count_verdicts(monkeypatch)
        for x, offset in iter_boundary_rows(spec, n, eve.level):
            voltage, current = x[None, :], np.zeros((1, n))
            evidence = eve.tests(voltage, current)
            if math.isfinite(offset):
                assert abs(evidence.statistic[0, 0, 0] - d - offset) <= 1e-15
            decided.clear()
            codes = eve.verdicts(voltage, current, out=np.full(voltage.shape, np.nan))
            assert np.array_equal(codes, codes_of(evidence))
            # The counts decide the two far rows: the quantiles in all four
            # cells, and the spike at twice the level's D in the first cell
            # of each hypothesis, which it rejects.
            if offset == -math.inf:
                assert decided == [False] * 4
            elif offset == math.inf:
                assert decided == [True] * 2

    @pytest.mark.parametrize("kind", COUNTED_KINDS)
    def test_values_on_a_grid_edge_are_decided_as_the_sorted_row_is(self, kind):
        # Mid-row quantiles with the probe value at one column moved to each
        # band's threshold: down for low and below (with every value before
        # it), up for high and above (with every value after it). It goes to
        # the grid edges from three bins below the threshold's bin to three
        # above, on them and one ulp either side, where the bin of a value
        # and so the counts change; the counts decide a band only about
        # two bins out.
        spec, n = NoiseSpec(kind, 1.3), FIRST_PRUNED
        eve = block_attack(spec, spec)
        bands = eve._bands(n)[0]
        grid, quantiles = bands.counts, quantile_row(spec, n)
        j = n // 2 // kljn.eve._sub_block_width(n)
        p = j * kljn.eve._sub_block_width(n)
        for threshold, up in zip(bands.probes[:, j], (False, True, False, True)):
            assert math.isfinite(threshold)
            b = int((threshold - grid.low) * grid.scale)
            rows = []
            for k in range(b - 3, b + 4):
                edge = grid.low + k / grid.scale
                for value in (np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)):
                    x = quantiles.copy()
                    if up:
                        x[p:] = np.maximum(x[p:], value)
                    else:
                        x[: p + 1] = np.minimum(x[: p + 1], value)
                    rows.append(x)
            voltage = np.array(rows)
            counted = [kljn.eve._count_verdict(x, grid) for x in voltage]
            for x, verdict in zip(voltage, counted):
                assert verdict is None or verdict == probe_verdict(x, bands.probes)
            # The counts decide some of the rows, and leave some open.
            assert None in counted and {True, False} & set(counted)
            assert_codes_are_the_evidence(eve, voltage, np.zeros_like(voltage))

    @pytest.mark.parametrize("kind", COUNTED_KINDS)
    def test_a_long_row_holding_an_infinity_or_nan_is_never_decided_by_counts(
        self, monkeypatch, kind
    ):
        spec, n = NoiseSpec(kind, 1.3), FIRST_PRUNED
        eve = block_attack(spec, spec)
        cdf = _shape_cdf(spec)
        x = non_finite_rows(spec, n)
        decided = count_verdicts(monkeypatch)
        exact_rows = count_exact_rows(monkeypatch)
        rejected = np.zeros(len(x), dtype=bool)
        kljn.eve._shape_rejections(x[::-1].copy(), cdf, eve._bands(n)[0], eve.level, rejected)
        rejected = rejected[::-1]
        # The finite rows are decided by counts; each of the six others gets D.
        assert decided[::-1] == [False, None, None, None, True, None, None, None]
        assert exact_rows == [1] * 6
        assert rejected.tolist() == [False] * 4 + [True] * 3 + [False]
        p = kljn.eve._shape_p_value(_ks_statistic(x.copy(), cdf), n)
        assert (rejected == (p < eve.level)).all()

    def test_a_long_uniform_trial_counts_its_shape_cells_without_sorting(self, monkeypatch):
        # Each shape cell's reconstruction is handed on read-only, so a sort
        # in place would raise. Alice is high: both cells of the true
        # hypothesis and the first of the wrong one are decided by counts.
        voltage, current = switch_block(UNIFORM_LOW, UNIFORM_HIGH, [True], LONG_ROW)
        eve = block_attack(UNIFORM_LOW, UNIFORM_HIGH)
        expected = codes_of(eve.tests(voltage, current))
        calls, original = [], kljn.eve._shape_reconstruction

        def read_only(*args):
            x = original(*args).view()
            x.flags.writeable = False
            calls.append(1)
            return x

        monkeypatch.setattr(kljn.eve, "_shape_reconstruction", read_only)
        decided = count_verdicts(monkeypatch)
        codes = eve.verdicts(voltage, current)
        assert VERDICTS[codes[0]] == "alice_high" and np.array_equal(codes, expected)
        assert len(calls) == 3 and decided == [True, False, False]


class TestAttackTrials:
    def test_deterministic(self):
        a = attack_trials(PAIR, GAUSS_LOW, GAUSS_HIGH, 1000, 10, seed=5)
        b = attack_trials(PAIR, GAUSS_LOW, GAUSS_HIGH, 1000, 10, seed=5)
        assert a.accuracy == b.accuracy
        assert np.array_equal(a.alice_high, b.alice_high)
        assert np.array_equal(a.verdicts, b.verdicts)

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

    def test_run_blocks_refuses_a_run_it_cannot_make_before_drawing(self):
        def switches(coins):
            return coins[:, 0], coins[:, 1]

        # The attack refuses its own significance (test_preconditions).
        run = partial(kljn.engine.run_blocks, block_attack())
        with mock.patch.object(kljn.engine, "BlockStreams", side_effect=AssertionError("drew")):
            with pytest.raises(ValueError, match="bits must be at least 1"):
                list(run(1000, range(0), 1, switches))
            with pytest.raises(ValueError, match="samples must be at least 100"):
                list(run(99, range(5), 1, switches))
            with pytest.raises(ValueError, match="seed must be non-negative"):
                list(run(1000, range(5), -1, switches))

    def test_each_caller_names_its_own_setting(self):
        with pytest.raises(ValueError, match="^trials must be at least 1$"):
            attack_trials(PAIR, GAUSS_LOW, GAUSS_HIGH, 1000, 0, seed=1)
        with pytest.raises(ValueError, match="^samples_per_trial must be at least 100$"):
            attack_trials(PAIR, GAUSS_LOW, GAUSS_HIGH, 99, 5, seed=1)
        session = partial(SessionConfig, PAIR, DistributionKind.GAUSSIAN, 1.0, 2.0)
        with pytest.raises(ValueError, match="^bits must be at least 1$"):
            session(150, bits=0, seed=1)
        with pytest.raises(ValueError, match="^samples_per_bit must be at least 100$"):
            session(99, bits=5, seed=1)
