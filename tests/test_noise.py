"""Noise sources: amplitude law, sampling distributions, stream discipline."""

import math

import numpy as np
import pytest

from kljn import (
    DistributionKind,
    NoiseSpec,
    ResistorPair,
    johnson_sigma,
    sample,
    scaled_sigma_high,
    stream,
)
from kljn.density import TRUNCATION_BUDGET, symmetric_grid
from kljn.eve import _kolmogorov_sf
from kljn.noise import LAWS, check_finite, check_variance

BOLTZMANN = 1.380649e-23  # exact SI definition


class TestJohnsonSigma:
    def test_reference_value(self):
        # Independent arithmetic oracle: sqrt(4 k T R B) at 10 kOhm,
        # 300 K, 10 kHz.
        oracle = math.sqrt(4.0 * BOLTZMANN * 300.0 * 1.0e4 * 1.0e4)
        got = johnson_sigma(1.0e4, 300.0, 1.0e4)
        assert got == pytest.approx(oracle, rel=1e-12)
        assert got == pytest.approx(1.2872e-6, rel=1e-3)

    def test_quadrupling_resistance_doubles_sigma(self):
        assert johnson_sigma(4.0e4, 300.0, 1.0e4) == 2.0 * johnson_sigma(1.0e4, 300.0, 1.0e4)

    @pytest.mark.parametrize("field", ["resistance", "temperature", "bandwidth"])
    def test_rejects_nonpositive(self, field):
        kwargs = {"resistance": 1.0e4, "temperature": 300.0, "bandwidth": 1.0e4}
        for bad in (0.0, -1.0):
            kwargs[field] = bad
            with pytest.raises(ValueError):
                johnson_sigma(**kwargs)

    def test_continuous_at_zero_resistance(self):
        # The function rejects zero but must tend to zero smoothly.
        assert johnson_sigma(1e-30, 300.0, 1.0e4) < 1e-18

    def test_monotone_in_each_argument(self):
        base = johnson_sigma(1.0e4, 300.0, 1.0e4)
        assert johnson_sigma(2.0e4, 300.0, 1.0e4) > base
        assert johnson_sigma(1.0e4, 600.0, 1.0e4) > base
        assert johnson_sigma(1.0e4, 300.0, 2.0e4) > base


class TestScaledSigmaHigh:
    def test_nine_to_one_pair_triples(self):
        assert scaled_sigma_high(ResistorPair(1.0, 9.0), 1.0) == 3.0

    def test_four_to_one_pair_doubles(self):
        assert scaled_sigma_high(ResistorPair(1.0, 4.0), 1.5) == 3.0

    # The square of 1e200 overflows, which the amplitude rule refuses too.
    @pytest.mark.parametrize("sigma_low", [0.0, math.nan, math.inf, 1e200])
    def test_rejects_nonpositive_sigma(self, sigma_low):
        with pytest.raises(ValueError, match="sigma_low must be positive and finite"):
            scaled_sigma_high(ResistorPair(1.0, 4.0), sigma_low)


class TestResistorPair:
    @pytest.mark.parametrize("r_low,r_high", [(0.0, 1.0), (-1.0, 2.0), (2.0, 2.0), (3.0, 2.0)])
    def test_rejects_bad_pairs(self, r_low, r_high):
        with pytest.raises(ValueError):
            ResistorPair(r_low, r_high)

    def test_accepts_ordered_pair(self):
        pair = ResistorPair(1.0, 4.0)
        assert pair.r_low == 1.0 and pair.r_high == 4.0


class TestNoiseSpec:
    def test_rejects_nonpositive_scale(self):
        # 1e200 is finite, but its square, which the attack takes, is not;
        # 1e-200 is positive, but its square, which the attack divides by, is 0
        for bad in (0.0, -2.0, math.inf, math.nan, 1e200, 1e-200):
            with pytest.raises(ValueError):
                NoiseSpec(DistributionKind.GAUSSIAN, bad)

    def test_accepts_kind_by_value(self):
        assert NoiseSpec("uniform", 1.0).kind is DistributionKind.UNIFORM


class TestSampling:
    def test_deterministic_for_fixed_seed(self):
        spec = NoiseSpec(DistributionKind.GAUSSIAN, 2.0)
        a = sample(spec, 1000, stream(123))
        b = sample(spec, 1000, stream(123))
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        spec = NoiseSpec(DistributionKind.GAUSSIAN, 1.0)
        a = sample(spec, 100, stream(1))
        b = sample(spec, 100, stream(2))
        assert not np.array_equal(a, b)

    def test_rejects_zero_draws(self):
        with pytest.raises(ValueError):
            sample(NoiseSpec(DistributionKind.GAUSSIAN, 1.0), 0, stream(0))

    @pytest.mark.parametrize("kind", [DistributionKind.GAUSSIAN, DistributionKind.UNIFORM])
    @pytest.mark.parametrize("n", [10_000, 1_000_000])
    def test_sample_variance_tracks_scale(self, kind, n):
        # Relative error bound 5 standard errors of the variance
        # estimator; the uniform kurtosis is below Gaussian so the same
        # bound is conservative there.
        spec = NoiseSpec(kind, 1.7)
        trace = sample(spec, n, stream(42))
        observed = float(np.mean(trace**2))
        assert abs(observed / spec.scale**2 - 1.0) < 5.0 * math.sqrt(2.0 / n)

    def test_gaussian_mean_near_zero(self):
        trace = sample(NoiseSpec(DistributionKind.GAUSSIAN, 1.0), 1_000_000, stream(7))
        assert abs(float(np.mean(trace))) < 5.0 / math.sqrt(1_000_000)

    def test_uniform_support_is_sqrt3_scale(self):
        scale = 1.3
        bound = math.sqrt(3.0) * scale
        trace = sample(NoiseSpec(DistributionKind.UNIFORM, scale), 1_000_000, stream(5))
        assert float(np.max(trace)) <= bound
        assert float(np.min(trace)) >= -bound
        # mass actually reaches toward both edges
        assert float(np.max(trace)) > 0.999 * bound
        assert float(np.min(trace)) < -0.999 * bound

    def test_cauchy_draws_are_finite_with_heavy_tails(self):
        scale = 2.0
        trace = sample(NoiseSpec(DistributionKind.CAUCHY, scale), 1_000_000, stream(11))
        assert np.isfinite(trace).all()
        # |X| has median equal to the scale parameter.
        assert float(np.median(np.abs(trace))) == pytest.approx(scale, rel=0.01)
        # About 2/(10 pi) of the mass lies beyond 10 scales; a Gaussian
        # would put essentially nothing there.
        far = float(np.mean(np.abs(trace) > 10.0 * scale))
        assert 0.04 < far < 0.09


class TestCheckFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [0, 3, -1])
    def test_refuses_a_non_finite_value_anywhere(self, bad, where):
        x = np.linspace(-1.0, 1.0, 7)
        x[where] = bad
        with pytest.raises(ValueError, match="trace samples must be finite"):
            check_finite(x)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_refuses_a_non_finite_value_in_two_dimensions(self, bad):
        x = np.zeros((3, 5))
        x[1, 2] = bad
        with pytest.raises(ValueError, match="trace samples must be finite"):
            check_finite(x)

    @pytest.mark.parametrize("shape", [(0,), (0, 5), (3, 0)])
    def test_accepts_an_empty_array(self, shape):
        check_finite(np.empty(shape))

    def test_accepts_the_largest_finite_values(self):
        big = np.finfo(np.float64).max
        check_finite(np.array([[-big, 0.0], [5e-324, big]]))


class TestStreams:
    def test_same_path_reproduces(self):
        a = stream(99, 3, 1).standard_normal(8)
        b = stream(99, 3, 1).standard_normal(8)
        assert np.array_equal(a, b)

    def test_disjoint_paths_are_distinct(self):
        a = stream(99, 3, 1).standard_normal(8)
        b = stream(99, 3, 2).standard_normal(8)
        c = stream(99, 4, 1).standard_normal(8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_rejects_negative_seed_or_path(self):
        with pytest.raises(ValueError):
            stream(-1)
        with pytest.raises(ValueError):
            stream(1, -2)

    def test_generator_passthrough(self):
        gen = stream(4, 0)
        first = sample(NoiseSpec(DistributionKind.GAUSSIAN, 1.0), 4, gen)
        second = sample(NoiseSpec(DistributionKind.GAUSSIAN, 1.0), 4, gen)
        # One generator advances across calls instead of restarting.
        assert not np.array_equal(first, second)


LAW_SCALE = 2.5
# A grid per law, as ``(half width, step)`` in scale units, wide enough to
# hold all but the truncation budget of its mass and fine enough for its
# trapezoids: the uniform law's jumps need a finer step, the Cauchy tails
# a wider span.
LAW_GRIDS = {
    DistributionKind.GAUSSIAN: (8.0, 1.0 / 200.0),
    DistributionKind.UNIFORM: (8.0, 1.0 / 2000.0),
    DistributionKind.CAUCHY: (800.0, 1.0 / 200.0),
}


def test_every_kind_has_one_law():
    assert set(LAWS) == set(DistributionKind)


@pytest.mark.parametrize("kind", list(DistributionKind), ids=lambda kind: kind.value)
class TestSourceLaws:
    """Checks every entry of the law table gets, so a new law needs only its entry."""

    def test_draws_pass_a_ks_test_against_the_cdf(self, kind):
        n = 20_000
        x = np.sort(sample(NoiseSpec(kind, LAW_SCALE), n, stream(11, 0)))
        cdf = LAWS[kind].cdf(x, LAW_SCALE)
        d = max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n))
        assert _kolmogorov_sf(np.array([math.sqrt(n) * d]))[0] > 1e-6

    def test_pdf_trapezoid_matches_cdf_differences(self, kind):
        law = LAWS[kind]
        half, step = LAW_GRIDS[kind]
        x0, dx, m = symmetric_grid(half * LAW_SCALE, step * LAW_SCALE)
        x = x0 + dx * np.arange(m)
        p = law.pdf(x, LAW_SCALE)
        cumulative = np.concatenate(([0.0], np.cumsum(0.5 * (p[1:] + p[:-1]) * dx)))
        cdf = law.cdf(x, LAW_SCALE)
        # The trapezoid errs by at most half a cell's mass at each jump of a density.
        assert np.max(np.abs(cumulative - (cdf - cdf[0]))) <= p.max() * dx
        # The grid holds all but the truncation budget.
        assert cdf[-1] - cdf[0] > 1.0 - TRUNCATION_BUDGET

    def test_variance_flag_matches_the_draws(self, kind):
        x = sample(NoiseSpec(kind, LAW_SCALE), 200_000, stream(12, 0))
        tracks_scale = abs(np.mean(x * x) / LAW_SCALE**2 - 1.0) < 0.05
        assert tracks_scale == LAWS[kind].variance
        assert LAWS[kind].variance == (LAWS[kind].kappa is not None)

    def test_kappa_matches_the_draws(self, kind):
        # The z test's standard error rests on kappa = E[x^4] / sigma^4.
        kappa = LAWS[kind].kappa
        if kappa is None:
            pytest.skip(f"the {kind.value} law has no variance")
        x = sample(NoiseSpec(kind, LAW_SCALE), 200_000, stream(13, 0)) / LAW_SCALE
        assert np.mean(x**4) == pytest.approx(kappa, rel=0.03)

    def test_refusal_follows_the_variance_flag(self, kind):
        if LAWS[kind].variance:
            check_variance(kind, "sessions")
        else:
            with pytest.raises(ValueError, match=f"sessions need finite-variance noise.*{kind.value}"):
                check_variance(kind, "sessions")
