"""Mixture densities: weights, grids, convolution, closure residuals."""

import json
import math

import numpy as np
import pytest

import kljn.density
from kljn import (
    DistributionKind,
    HypothesisWeights,
    PdfGrid,
    ResistorPair,
    TruncationError,
    analytic_pdf,
    closure_pair,
    closure_residual,
    convolve_scaled,
    weights,
)
from kljn.density import (
    _convolve_grids,
    _fast_len,
    l1_residual,
    mixture_grid,
    symmetric_grid,
)
from kljn.noise import LAWS
from uniform_oracle import uniform_mixture_l1_by_quadrature, uniform_mixture_l1_oracle

SQRT3 = math.sqrt(3.0)
PAIR = ResistorPair(1.0, 4.0)


def test_oracle_value_is_frozen():
    # For scales (1.6, 1.2) the piecewise integral works out to 49/150.
    assert uniform_mixture_l1_oracle(1.6, 1.2) == pytest.approx(49.0 / 150.0, rel=1e-9)


@pytest.mark.parametrize("alpha, beta", [(1.6, 1.2), (1.0, 1.0), (3.0, 0.2), (0.5, 2.0)])
def test_oracle_matches_quadrature(alpha, beta):
    quad = pytest.importorskip("scipy.integrate").quad
    exact = uniform_mixture_l1_oracle(alpha, beta)
    assert uniform_mixture_l1_by_quadrature(alpha, beta, quad) == pytest.approx(exact, rel=1e-9)


class TestWeights:
    def test_reference_values(self):
        w = weights(PAIR, 1.0, 2.0)
        assert w.alpha == 1.6
        assert w.beta == 1.2

    def test_weights_recover_wrong_hypothesis_variance(self):
        w = weights(PAIR, 1.0, 2.0)
        assert w.alpha**2 + w.beta**2 == pytest.approx(4.0, rel=1e-12)

    @pytest.mark.parametrize("r_low,r_high,sigma_low", [(1.0, 4.0, 1.0), (2.0, 3.0, 0.7), (0.5, 8.0, 2.5)])
    def test_compliant_amplitudes_give_matched_mixture_scale(self, r_low, r_high, sigma_low):
        pair = ResistorPair(r_low, r_high)
        sigma_high = sigma_low * math.sqrt(r_high / r_low)
        w = weights(pair, sigma_low, sigma_high)
        assert math.hypot(w.alpha, w.beta) == pytest.approx(sigma_high, rel=1e-12)

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            weights(PAIR, 0.0, 1.0)
        with pytest.raises(ValueError):
            weights(PAIR, 1.0, -1.0)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            HypothesisWeights(0.0, 1.0)
        with pytest.raises(ValueError):
            HypothesisWeights(1.0, -0.1)
        # a vanishing second component is a legal degenerate case
        assert HypothesisWeights(1.0, 0.0).beta == 0.0


class TestFamilyShapes:
    def test_gaussian_peak(self):
        grid = analytic_pdf(DistributionKind.GAUSSIAN, 1.0, *symmetric_grid(8.0, 0.005))
        mid = grid.values.size // 2
        assert grid.values[mid] == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-9)

    def test_uniform_peak(self):
        grid = analytic_pdf(DistributionKind.UNIFORM, 1.0, *symmetric_grid(8.0, 0.005))
        mid = grid.values.size // 2
        # renormalization on a grid whose points straddle the jumps can
        # move the plateau by a slight amount
        assert grid.values[mid] == pytest.approx(1.0 / (2.0 * SQRT3), rel=5e-3)

    def test_cauchy_peak_needs_wide_grid(self):
        grid = analytic_pdf(DistributionKind.CAUCHY, 1.0, *symmetric_grid(800.0, 0.01))
        mid = grid.values.size // 2
        assert grid.values[mid] == pytest.approx(1.0 / math.pi, rel=2e-3)

    @pytest.mark.parametrize(
        "kind,half",
        [
            (DistributionKind.GAUSSIAN, 8.0),
            (DistributionKind.UNIFORM, 8.0),
            (DistributionKind.CAUCHY, 800.0),
        ],
    )
    def test_normalized_and_symmetric(self, kind, half):
        grid = analytic_pdf(kind, 1.3, *symmetric_grid(half * 1.3, 1.3 / 200.0))
        assert abs(grid.integral() - 1.0) <= 1e-6
        assert np.max(np.abs(grid.values - grid.values[::-1])) < 1e-9

    def test_gaussian_second_moment(self):
        grid = analytic_pdf(DistributionKind.GAUSSIAN, 1.5, *symmetric_grid(12.0, 0.005))
        assert grid.second_moment() == pytest.approx(2.25, rel=1e-6)

    def test_truncation_rejected(self):
        with pytest.raises(TruncationError):
            analytic_pdf(DistributionKind.GAUSSIAN, 1.0, *symmetric_grid(2.0, 0.01))
        # quadratic tails hold ~0.16 percent beyond 400 scales
        with pytest.raises(TruncationError):
            analytic_pdf(DistributionKind.CAUCHY, 1.0, *symmetric_grid(8.0, 0.01))

    def test_truncation_deficit_recorded(self):
        grid = analytic_pdf(DistributionKind.GAUSSIAN, 1.0, *symmetric_grid(8.0, 0.005))
        assert abs(grid.truncation_deficit) < 1e-3

    def test_family_cdf_limits(self):
        for kind in DistributionKind:
            lo, hi = LAWS[kind].cdf(np.array([-1e9, 1e9]), 1.0)
            assert lo == pytest.approx(0.0, abs=1e-6)
            assert hi == pytest.approx(1.0, abs=1e-6)

    def test_family_pdf_uniform_edge_midpoint(self):
        half = SQRT3 * 1.0
        vals = LAWS[DistributionKind.UNIFORM].pdf(np.array([-half, 0.0, half]), 1.0)
        assert vals[1] == pytest.approx(1.0 / (2.0 * half))
        assert vals[0] == pytest.approx(0.5 / (2.0 * half))
        assert vals[2] == vals[0]

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError, match="scale must be positive"):
            analytic_pdf(DistributionKind.GAUSSIAN, 0.0, *symmetric_grid(8.0, 0.01))


class TestPdfGrid:
    def test_rejects_negative_values(self):
        bad = np.array([0.5, -0.1, 0.5])
        with pytest.raises(ValueError):
            PdfGrid(x0=-1.0, dx=1.0, values=bad)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            PdfGrid(x0=-1.0, dx=1.0, values=np.array([1.0, 1.0, 1.0]))

    def test_rejects_tiny_grids_and_bad_spacing(self):
        with pytest.raises(ValueError):
            PdfGrid(x0=0.0, dx=1.0, values=np.array([1.0]))
        with pytest.raises(ValueError):
            PdfGrid(x0=0.0, dx=0.0, values=np.array([0.5, 0.5, 0.5]))

    def test_values_read_only(self):
        grid = analytic_pdf(DistributionKind.GAUSSIAN, 1.0, *symmetric_grid(8.0, 0.01))
        with pytest.raises(ValueError):
            grid.values[0] = 1.0

    def test_cdf_monotone_and_bounded(self):
        grid = analytic_pdf(DistributionKind.GAUSSIAN, 1.0, *symmetric_grid(8.0, 0.01))
        cdf = grid.cdf()
        assert cdf[0] == 0.0
        assert cdf[-1] == 1.0
        assert np.all(np.diff(cdf) >= 0.0)


class TestConvolution:
    def test_gaussian_closure_reference_case(self):
        w = HypothesisWeights(3.0, 4.0)
        residual = closure_residual(DistributionKind.GAUSSIAN, w, dx=0.05, half_width=40.0)
        assert residual <= 1e-6

    def test_gaussian_closure_second_moment(self):
        w = HypothesisWeights(3.0, 4.0)
        mixture = convolve_scaled(DistributionKind.GAUSSIAN, w, dx=0.05, half_width=40.0)
        assert mixture.second_moment() == pytest.approx(25.0, rel=5e-3)

    @pytest.mark.parametrize("kind", [DistributionKind.GAUSSIAN, DistributionKind.UNIFORM])
    def test_second_moments_add(self, kind):
        w = HypothesisWeights(1.6, 1.2)
        mixture = convolve_scaled(kind, w)
        assert mixture.second_moment() == pytest.approx(1.6**2 + 1.2**2, rel=5e-3)

    def test_kind_and_grid_paths_agree(self):
        w = HypothesisWeights(1.0, 2.0)
        dx, half = 0.01, 20.0
        via_kind = convolve_scaled(DistributionKind.GAUSSIAN, w, dx=dx, half_width=half)
        # the narrower component spans as many of its own scales as the wider one
        a = analytic_pdf(DistributionKind.GAUSSIAN, 1.0, *symmetric_grid(half * 1 / 2, dx))
        b = analytic_pdf(DistributionKind.GAUSSIAN, 2.0, *symmetric_grid(half, dx))
        via_grids = _convolve_grids(a, b)
        assert via_kind.x0 == via_grids.x0
        assert np.array_equal(via_kind.values, via_grids.values)

    @pytest.mark.parametrize(
        "kind,w,dx",
        [
            (DistributionKind.GAUSSIAN, HypothesisWeights(1.6, 1.2), None),
            (DistributionKind.UNIFORM, HypothesisWeights(1.6, 1.2), None),
            # nearly equal resistors, r 1.0 / 1.1, at a quarter of the default resolution
            (DistributionKind.UNIFORM, weights(ResistorPair(1.0, 1.1), 1.0, math.sqrt(1.1)), 0.001),
        ],
    )
    def test_fft_matches_direct_sum(self, monkeypatch, kind, w, dx):
        components = []

        def convolve(a, b):
            components.append((a, b))
            return _convolve_grids(a, b)

        # Compare on the component grids that convolve_scaled builds.
        monkeypatch.setattr(kljn.density, "_convolve_grids", convolve)
        got = convolve_scaled(kind, w, dx=dx)
        [(a, b)] = components
        va, vb = a.values.copy(), b.values.copy()
        va[[0, -1]] *= 0.5
        vb[[0, -1]] *= 0.5
        raw = np.maximum(np.convolve(va, vb) * a.dx, 0.0)
        want = raw / np.trapezoid(raw, dx=a.dx)
        assert got.x0 == a.x0 + b.x0
        assert got.values.size == want.size
        assert np.max(np.abs(got.values - want)) <= 1e-12 * np.max(want)

    def test_fast_len_is_smallest_5_smooth_bound(self):
        def smooth(m):
            for p in (2, 3, 5):
                while m % p == 0:
                    m //= p
            return m == 1

        for n in range(1, 5001):
            want = next(m for m in range(n, 2 * n + 1) if smooth(m))
            assert _fast_len(n) == want, n

    def test_cauchy_components_truncate_alike(self):
        # Both components keep 800 of their own scales, so each passes the
        # truncation budget and the sum matches the Cauchy with summed scale.
        w = HypothesisWeights(1.6, 1.2)
        mixture = convolve_scaled(DistributionKind.CAUCHY, w, dx=0.02, half_width=800.0 * 1.6)
        core = np.abs(mixture.x) <= 3.0 * 2.8
        want = LAWS[DistributionKind.CAUCHY].pdf(mixture.x[core], 2.8)
        assert np.max(np.abs(mixture.values[core] / want - 1.0)) < 3e-3

    def test_component_narrower_than_a_step_acts_as_point_mass(self):
        w = HypothesisWeights(1.0, 0.001)
        mixture = convolve_scaled(DistributionKind.GAUSSIAN, w, dx=0.05)
        want = analytic_pdf(DistributionKind.GAUSSIAN, 1.0, mixture.x0, 0.05, mixture.values.size)
        assert np.max(np.abs(mixture.values - want.values)) < 1e-9

    def test_mismatched_spacing_rejected(self):
        a = analytic_pdf(DistributionKind.GAUSSIAN, 1.0, *symmetric_grid(8.0, 0.01))
        b = analytic_pdf(DistributionKind.GAUSSIAN, 1.0, *symmetric_grid(8.0, 0.02))
        with pytest.raises(ValueError):
            _convolve_grids(a, b)

    def test_degenerate_beta_returns_scaled_component(self):
        w = HypothesisWeights(2.0, 0.0)
        got = convolve_scaled(DistributionKind.GAUSSIAN, w, dx=0.01, half_width=16.0)
        want = analytic_pdf(DistributionKind.GAUSSIAN, 2.0, *symmetric_grid(16.0, 0.01))
        assert np.array_equal(got.values, want.values)
        assert closure_residual(DistributionKind.GAUSSIAN, w, dx=0.01, half_width=16.0) == 0.0

    def test_uniform_equal_scales_give_triangle(self):
        alpha = 1.0
        w = HypothesisWeights(alpha, alpha)
        mixture = convolve_scaled(DistributionKind.UNIFORM, w, dx=alpha / 400.0)
        xs = mixture.x
        a = SQRT3 * alpha
        peak = float(np.interp(0.0, xs, mixture.values))
        assert peak == pytest.approx(1.0 / (2.0 * a), rel=5e-3)
        # midpoint of the ramp sits at half the peak
        mid = float(np.interp(a, xs, mixture.values))
        assert mid == pytest.approx(0.5 / (2.0 * a), rel=2e-2)
        # support ends at 2a
        beyond = xs > 2.0 * a + 4.0 * mixture.dx
        assert np.max(mixture.values[beyond]) < 1e-12


class TestClosureResidual:
    def test_uniform_counterexample_matches_oracle(self):
        w = weights(PAIR, 1.0, 2.0)
        residual = closure_residual(DistributionKind.UNIFORM, w)
        oracle = uniform_mixture_l1_oracle(w.alpha, w.beta)
        assert residual > 0.05
        assert residual == pytest.approx(oracle, rel=0.02)

    def test_residual_converges_under_refinement(self):
        w = weights(PAIR, 1.0, 2.0)
        coarse = closure_residual(DistributionKind.UNIFORM, w, dx=1.2 / 200.0)
        fine = closure_residual(DistributionKind.UNIFORM, w, dx=1.2 / 400.0)
        assert abs(fine - coarse) / coarse < 0.1

    def test_small_second_component_shrinks_residual(self):
        big = closure_residual(DistributionKind.UNIFORM, HypothesisWeights(1.6, 1.2))
        small = closure_residual(DistributionKind.UNIFORM, HypothesisWeights(1.6, 0.016))
        assert small < 0.05 < big

    def test_gaussian_residual_small_on_default_grid(self):
        w = weights(PAIR, 1.0, 2.0)
        assert closure_residual(DistributionKind.GAUSSIAN, w) <= 1e-6

    def test_gaussian_closure_floor_is_round_off(self):
        assert closure_residual(DistributionKind.GAUSSIAN, weights(PAIR, 1.0, 2.0)) <= 1e-13

    def test_default_grid(self):
        dx, half_width = mixture_grid(HypothesisWeights(1.6, 1.2))
        assert dx == 1.2 / 200.0
        assert half_width == 8.0 * 2.0
        assert mixture_grid(HypothesisWeights(2.0, 0.0)) == (2.0 / 200.0, 16.0)

    def test_a_given_grid_value_is_kept(self):
        w = HypothesisWeights(1.6, 1.2)
        assert mixture_grid(w, 0.5, None) == (0.5, 16.0)
        assert mixture_grid(w, None, 3.0) == (1.2 / 200.0, 3.0)
        assert mixture_grid(w, 0.5, 3.0) == (0.5, 3.0)

    def test_l1_residual_needs_one_grid(self):
        mixture, reference = closure_pair(DistributionKind.UNIFORM, weights(PAIR, 1.0, 2.0))
        assert l1_residual(mixture, reference) == closure_residual(
            DistributionKind.UNIFORM, weights(PAIR, 1.0, 2.0)
        )
        shifted = PdfGrid(x0=reference.x0 + reference.dx, dx=reference.dx, values=reference.values)
        with pytest.raises(ValueError):
            l1_residual(mixture, shifted)

    def test_closure_pair_shares_grid(self):
        mixture, reference = closure_pair(DistributionKind.UNIFORM, weights(PAIR, 1.0, 2.0))
        assert mixture.x0 == reference.x0
        assert mixture.dx == reference.dx
        assert mixture.values.size == reference.values.size

    def test_cauchy_refused(self):
        with pytest.raises(ValueError, match="[Cc]auchy"):
            closure_residual(DistributionKind.CAUCHY, HypothesisWeights(1.0, 1.0))

    def test_oversized_default_grid_is_a_named_refusal(self):
        # The default half width times the larger weight overflows to inf.
        w = weights(PAIR, 3e153, 6e153)
        with pytest.raises(ValueError, match="finite squares"):
            closure_pair(DistributionKind.GAUSSIAN, w)

    @pytest.mark.parametrize(
        "w, dx, half_width, message",
        [
            # The default grid: 2667 steps a side at dx 6e-155.
            (weights(PAIR, 1e-152, 2e-152), None, None, "too fine to convolve"),
            (HypothesisWeights(1.0, 1.0), 1e-154, 1.0, "too fine to convolve"),
            (HypothesisWeights(1.6e-200, 1.2e-200), None, None, "must not underflow"),
            (HypothesisWeights(1.0, 1e-300), 1.0, 1e-10, "must not underflow"),
        ],
    )
    def test_a_grid_the_convolution_cannot_tabulate_is_refused(self, w, dx, half_width, message):
        with pytest.raises(ValueError, match=message):
            mixture_grid(w, dx, half_width)

    @pytest.mark.filterwarnings("error")
    def test_a_grid_inside_the_convolution_bound_is_kept(self):
        # Each component sums to 1 / dx = 1e152, and the padded length is 360 points.
        w = weights(PAIR, 1e-152, 2e-152)
        assert mixture_grid(w, 1e-152, 1e-150) == (1e-152, 1e-150)
        assert closure_pair(DistributionKind.GAUSSIAN, w, dx=1e-152, half_width=1e-150)
        # One component has no convolution, so its grid keeps any spacing.
        assert mixture_grid(HypothesisWeights(1.0, 0.0), 1e-154, 1.0) == (1e-154, 1.0)

    @pytest.mark.parametrize(
        "dx,half_width",
        [(0.0, 8.0), (math.inf, 8.0), (math.nan, 8.0), (0.01, -1.0), (0.01, math.inf), (0.01, 1e160)],
    )
    def test_unusable_grid_refused(self, dx, half_width):
        with pytest.raises(ValueError, match="half-width"):
            convolve_scaled(
                DistributionKind.UNIFORM, HypothesisWeights(1.0, 1.0), dx=dx, half_width=half_width
            )


class TestCauchyScaleArithmetic:
    @pytest.mark.parametrize("x", [0.0, 0.7, 2.5])
    def test_convolution_identity_by_quadrature(self, x):
        # Independent check that two scaled Cauchy shapes convolve to the
        # Cauchy with the summed scale.
        alpha, beta = 1.6, 1.2

        def cauchy(u, s):
            return s / (math.pi * (u * u + s * s))

        quad = pytest.importorskip("scipy.integrate").quad
        got, _ = quad(lambda t: cauchy(t, alpha) * cauchy(x - t, beta), -np.inf, np.inf)
        want = cauchy(x, alpha + beta)
        assert got == pytest.approx(want, rel=1e-6)


def test_grids_serialize_for_inspection(tmp_path):
    # The tabulated mixture is something users dump and plot; keep the
    # metadata JSON-friendly.
    w = weights(PAIR, 1.0, 2.0)
    mixture = convolve_scaled(DistributionKind.UNIFORM, w)
    meta = {
        "x0": mixture.x0,
        "dx": mixture.dx,
        "points": int(mixture.values.size),
        "deficit": mixture.truncation_deficit,
    }
    text = json.dumps(meta, sort_keys=True)
    assert json.loads(text)["points"] == mixture.values.size
