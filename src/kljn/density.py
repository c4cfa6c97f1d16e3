"""Numerical density machinery for the eavesdropper's reconstruction.

When an observer inverts the line equations under the wrong resistor
hypothesis, the result is not one source but a weighted sum of both unit
shapes, with weights fixed by the resistor ratio and the source scales.
Its density is therefore a convolution of two scaled copies of the family
shape. For the Gaussian family that convolution lands back on the family
(only wider), so the mixture is indistinguishable from a legitimate
source. For any other finite-variance family it does not, and the
mismatch is an exploitable fingerprint. This module computes those
convolutions and the size of the mismatch on explicit grids.

Grid conventions
----------------
A density lives on a uniform grid ``x0 + k * dx`` for ``k in [0, m)``.
Integrals use the trapezoidal rule. Builders renormalize to unit mass and
record the pre-normalization deficit; if the closed-form tail mass left
outside the grid reaches 0.1 percent the grid is rejected outright, since
silently renormalizing that much mass would distort tail comparisons.
Default resolution is 200 points per scale unit of the finer component.
The wider component's grid extends 8 mixture scales each side and the
narrower one the same number of its own scale units, which keeps Gaussian
and uniform tail loss far below the rejection threshold. Cauchy tails
decay only quadratically, so Cauchy grids must be requested much wider
explicitly. Convolutions run as zero-padded real FFTs.

A family's closed-form density and CDF are its entry of
:data:`kljn.noise.LAWS`, and so is whether it has a variance to match, so
nothing here depends on which family it is.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .noise import LAWS, DistributionKind, ResistorPair, check_sigmas, check_variance

NORMALIZATION_TOL = 1e-6
TRUNCATION_BUDGET = 1e-3
POINTS_PER_SCALE = 200
HALF_WIDTH_SCALES = 8.0


class TruncationError(ValueError):
    """Raised when a requested grid cannot hold enough probability mass."""


@dataclass(frozen=True)
class PdfGrid:
    """A probability density tabulated on a uniform grid.

    ``truncation_deficit`` is the mass that renormalization had to add
    back (negative when the raw tabulation overshot unit mass). The
    stored values always integrate to 1 within ``NORMALIZATION_TOL``.
    """

    x0: float
    dx: float
    values: np.ndarray
    truncation_deficit: float = 0.0

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("a density grid needs at least two points")
        if not (math.isfinite(self.x0) and math.isfinite(self.dx)) or self.dx <= 0.0:
            raise ValueError("grid spacing must be positive and finite")
        if not np.isfinite(arr).all():
            raise ValueError("density values must be finite")
        if (arr < 0.0).any():
            raise ValueError("density values must be non-negative")
        total = float(np.trapezoid(arr, dx=self.dx))
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"density must integrate to 1, got {total!r}")
        if arr is self.values:
            arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def x(self) -> np.ndarray:
        """Grid abscissae."""
        return self.points(slice(None))

    def points(self, rows: slice) -> np.ndarray:
        """The abscissae of the grid rows that ``rows`` selects."""
        return _abscissae(self.x0, self.dx, range(self.values.size)[rows])

    def integral(self) -> float:
        return float(np.trapezoid(self.values, dx=self.dx))

    def second_moment(self) -> float:
        """Trapezoidal estimate of the variance about zero."""
        return float(np.trapezoid(self.values * self.x**2, dx=self.dx))

    def cdf(self) -> np.ndarray:
        """Cumulative trapezoid of the values, rescaled to end at 1.

        The steps ``0.5 * (v[k] + v[k-1]) * dx`` and their running sum are
        written into the one array returned.
        """
        out = np.empty(self.values.size)
        out[0] = 0.0
        steps = np.add(self.values[1:], self.values[:-1], out=out[1:])
        steps *= 0.5
        steps *= self.dx
        np.cumsum(steps, out=steps)
        out /= out[-1]
        return out


@dataclass(frozen=True)
class HypothesisWeights:
    """Scale factors of the two unit shapes in a wrong-hypothesis mix.

    ``beta`` may be zero, the degenerate case of an equal-resistor pair
    where the second component vanishes.
    """

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError("weights must be finite")
        if self.alpha <= 0.0 or self.beta < 0.0:
            raise ValueError("alpha must be positive and beta non-negative")


def weights(pair: ResistorPair, sigma_low: float, sigma_high: float) -> HypothesisWeights:
    """Mixture weights seen by an observer assuming the wrong resistor.

    When the true state is low/high but the observer inverts for Alice
    with the high resistance, the reconstruction equals
    ``alpha * (low unit shape) + beta * (high unit shape)`` with
    ``alpha = sigma_low * 2 r_high / (r_low + r_high)`` and
    ``beta = sigma_high * (r_high - r_low) / (r_low + r_high)``.
    """
    check_sigmas(sigma_low, sigma_high)
    denom = pair.r_low + pair.r_high
    alpha = sigma_low * 2.0 * pair.r_high / denom
    beta = sigma_high * (pair.r_high - pair.r_low) / denom
    return HypothesisWeights(alpha=alpha, beta=beta)


def symmetric_grid(half_width: float, dx: float) -> tuple[float, float, int]:
    """Grid parameters ``(x0, dx, m)`` covering ``[-half_width, half_width]``."""
    if half_width <= 0.0 or dx <= 0.0:
        raise ValueError("half_width and dx must be positive")
    k = int(round(half_width / dx))
    if k < 1:
        raise ValueError("grid must span at least one step each side")
    return (-k * dx, dx, 2 * k + 1)


def _abscissae(x0: float, dx: float, ks: range) -> np.ndarray:
    """The grid points ``x0 + dx * k`` for each ``k`` in ``ks``, made in one array."""
    x = np.arange(ks.start, ks.stop, ks.step, dtype=np.float64)
    x *= dx
    x += x0
    return x


def _normalized(x0: float, dx: float, raw: np.ndarray, what: str) -> PdfGrid:
    """``raw`` rescaled in place to unit trapezoidal mass, recording the mass it lacked."""
    total = float(np.trapezoid(raw, dx=dx))
    if total <= 0.0:
        raise TruncationError(f"{what} holds no probability mass")
    raw /= total
    return PdfGrid(x0=x0, dx=dx, values=raw, truncation_deficit=1.0 - total)


def analytic_pdf(kind: DistributionKind, scale: float, x0: float, dx: float, m: int) -> PdfGrid:
    """Tabulate a family density (``LAWS[kind].pdf``) on an explicit grid and renormalize.

    Raises
    ------
    TruncationError
        If the closed-form mass outside ``[x0, x0 + (m - 1) dx]`` is at
        least ``TRUNCATION_BUDGET``; such a grid would hide real tail
        probability behind renormalization.
    """
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    if m < 2:
        raise ValueError("grid needs at least two points")
    if dx <= 0.0:
        raise ValueError("dx must be positive")
    law = LAWS[kind]
    x_end = x0 + dx * (m - 1)
    first, last = law.cdf(np.array([x0, x_end]), scale).tolist()
    missing = 1.0 - (last - first)
    if missing >= TRUNCATION_BUDGET:
        raise TruncationError(
            f"grid [{x0}, {x_end}] misses {missing:.3e} of the {kind.value} mass; widen it"
        )
    return _normalized(x0, dx, law.pdf(_abscissae(x0, dx, range(m)), scale), "grid")


def mixture_grid(
    w: HypothesisWeights, dx: float | None = None, half_width: float | None = None
) -> tuple[float, float]:
    """The spacing and half width ``(dx, half_width)`` that tabulate the mixture of ``w``.

    A missing spacing resolves the finer component with
    ``POINTS_PER_SCALE`` points per scale unit, and a missing half width
    spans ``HALF_WIDTH_SCALES`` mixture scales. Both must be positive and
    finite. :meth:`PdfGrid.second_moment` squares x, and each component's
    grid spans the half width times its weight over the larger weight, so
    neither the half width nor the larger weight may have a square that
    overflows, and the half width times the smaller weight may not
    underflow. Each component of a convolution sums to ``1 / dx``, so its
    FFT's sums reach that squared times the padded length, which is under
    ``8 * (half_width / dx + 1)`` points; that bound must stay finite.
    """
    if dx is None:
        dx = (w.alpha if w.beta == 0.0 else min(w.alpha, w.beta)) / POINTS_PER_SCALE
    if half_width is None:
        half_width = HALF_WIDTH_SCALES * math.hypot(w.alpha, w.beta)
    if not (0.0 < dx < math.inf and 0.0 < half_width < math.inf):
        raise ValueError("dx and half-width must be positive and finite")
    if not all(math.isfinite(v * v) for v in (half_width, max(w.alpha, w.beta))):
        raise ValueError("half-width and mixture weights must have finite squares")
    if w.beta > 0.0:
        if half_width * min(w.alpha, w.beta) < sys.float_info.min:
            raise ValueError("half-width times the smaller mixture weight must not underflow")
        if not math.isfinite(8.0 * (half_width / dx + 1.0) / dx / dx):
            raise ValueError(f"dx {dx:.3g} too fine to convolve over half-width {half_width:.3g}")
    return dx, half_width


def _fast_len(n: int) -> int:
    """Smallest 5-smooth integer ``>= n``, a length the FFT handles quickly."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _spectrum(grids: list[PdfGrid], size: int) -> np.ndarray:
    """Real FFT, zero-padded to ``size``, of the first of ``grids`` with its end values halved.

    The grid is popped and its values copied, so it is freed before the
    FFT runs. Trapezoidal end weights make the discrete sum of a
    convolution match the trapezoidal integral of the continuous one.
    """
    signal = grids.pop(0).values.copy()
    signal[[0, -1]] *= 0.5
    return np.fft.rfft(signal, size)


def _convolve_grids(grids: list[PdfGrid]) -> PdfGrid:
    """Density of the sum of two independent variables whose densities are ``grids``.

    ``grids`` holds the two densities and is emptied as the convolution
    reads it, so no component outlives its spectrum.
    """
    a, b = grids
    if not math.isclose(a.dx, b.dx, rel_tol=1e-12):
        raise ValueError("grids must share the same spacing")
    x0, dx, m = a.x0 + b.x0, a.dx, a.values.size + b.values.size - 1
    del a, b
    # Linear convolution by FFT: zero-pad to a fast length, crop back. The
    # spectrum is dropped as soon as the inverse FFT has used it.
    size = _fast_len(m)
    spectrum = _spectrum(grids, size)
    spectrum *= _spectrum(grids, size)
    raw = np.fft.irfft(spectrum, size)[:m]
    del spectrum
    raw *= dx
    return _normalized(x0, dx, np.maximum(raw, 0.0, out=raw), "convolution")


def convolve_scaled(
    kind: DistributionKind,
    w: HypothesisWeights,
    *,
    dx: float | None = None,
    half_width: float | None = None,
) -> PdfGrid:
    """Density of ``alpha * X + beta * Y`` for independent unit draws of ``kind``.

    The grid is :func:`mixture_grid`'s. Each component is tabulated over the
    same number of its own scale units: the wider one spans ``half_width``
    and the narrower one the same multiple of its own scale, so truncation
    is judged alike for both and no grid holds a far tail of exact zeros. A
    grid keeps at least one step each side, so a component narrower than
    the spacing acts as a point mass. With ``beta == 0`` the mixture is the
    alpha-scaled density over ``half_width``. The result is renormalized,
    with the deficit recorded on the grid.
    """
    dx, half_width = mixture_grid(w, dx, half_width)
    if w.beta == 0.0:
        return analytic_pdf(kind, w.alpha, *symmetric_grid(half_width, dx))
    top = max(w.alpha, w.beta)
    return _convolve_grids(
        [
            analytic_pdf(kind, scale, *symmetric_grid(max(half_width * scale / top, dx), dx))
            for scale in (w.alpha, w.beta)
        ]
    )


def closure_pair(
    kind: DistributionKind,
    w: HypothesisWeights,
    *,
    dx: float | None = None,
    half_width: float | None = None,
) -> tuple[PdfGrid, PdfGrid]:
    """The mixture density and the family member with matched variance.

    Returns ``(mixture, reference)`` on one common grid, where the
    reference has scale ``sqrt(alpha^2 + beta^2)``. The family is closed
    under the mixture exactly when these two coincide. A family without a
    variance (Cauchy) is refused, as there is none to match.
    """
    check_variance(kind, "closure comparisons")
    sigma_mix = math.hypot(w.alpha, w.beta)
    mixture = convolve_scaled(kind, w, dx=dx, half_width=half_width)
    reference = analytic_pdf(kind, sigma_mix, mixture.x0, mixture.dx, mixture.values.size)
    return mixture, reference


def l1_residual(mixture: PdfGrid, reference: PdfGrid) -> float:
    """Trapezoidal L1 distance between two densities on one grid."""
    if (mixture.x0, mixture.dx, mixture.values.size) != (
        reference.x0,
        reference.dx,
        reference.values.size,
    ):
        raise ValueError("residual needs both densities on one grid")
    return float(np.trapezoid(np.abs(mixture.values - reference.values), dx=mixture.dx))


def closure_residual(
    kind: DistributionKind,
    w: HypothesisWeights,
    *,
    dx: float | None = None,
    half_width: float | None = None,
) -> float:
    """L1 distance between the mixture and the variance-matched family member.

    Zero (up to grid effects) means the wrong-hypothesis reconstruction is
    exactly a legitimate family member and shape analysis learns nothing.
    The Gaussian family has this closure; finite-variance alternatives do
    not, and the residual is their detectable signature.
    """
    return l1_residual(*closure_pair(kind, w, dx=dx, half_width=half_width))
