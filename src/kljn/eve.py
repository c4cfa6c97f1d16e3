"""Eavesdropper model: hypothesis inversion and statistical detection.

The observer knows the resistor pair and both noise specs but not who
holds which resistor during a mixed-state bit. She inverts the line
equations under each of the two mixed hypotheses and asks, for each one,
whether the reconstructed sources look like the sources the hypothesis
claims they are. Under the correct hypothesis the reconstruction is exact.
Under the wrong one it is a scaled mixture of both sources, and whether
that mixture is distinguishable from a legitimate source is precisely the
security question: Gaussian shape plus the square-root amplitude law make
it indistinguishable even in variance, and any deviation opens a gap that
two tests can see. Per party and hypothesis, a variance z test checks the
amplitude law and a Kolmogorov-Smirnov shape test checks Gaussianity.
What the attack needs of a source family comes from its entry of
:data:`kljn.noise.LAWS`: its shape reference grid, and whether it has a
variance to test, which also sets the Bonferroni count.

:class:`BlockAttack` is the one attack. It holds line signals one bit per
row, so a single bit is a one-row block, and :meth:`BlockAttack.tests`
returns one :class:`Evidence` record per block: each sub-test's statistic
and p-value as arrays indexed ``[hypothesis, party, row]``, and which
hypotheses each row rejects. That is the per-bit evidence behind each
verdict, split into the variance channel and the shape channel. A verdict
is an int code per row, :meth:`BlockAttack.verdicts`; :data:`VERDICTS`
decodes it to an :class:`EveDecision` and :func:`credits` scores it. The
runs that attack bits block by block are :mod:`kljn.engine`'s.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import line
from .density import PdfGrid, analytic_pdf, symmetric_grid, weights
from .noise import LAWS, DistributionKind, NoiseSpec, ResistorPair
# Unused here; bench/test_bench.py checks that its tracer wraps this binding.
from .noise import stream  # noqa: F401

MIN_TEST_SAMPLES = 100

# Kolmogorov survival function (see _kolmogorov_sf). Below the cutover it
# is 1 minus the Jacobi theta form of the CDF,
# sqrt(2 pi) / x * sum_k exp(-(2k - 1)^2 pi^2 / (8 x^2)) for k = 1, 2; from
# the cutover up it is the alternating series
# 2 * sum_k (-1)^(k - 1) exp(-2 k^2 x^2) for k = 1 .. 5. The first term left
# out is below 1e-19 of the value on either side. At or below the floor the
# theta form underflows to 0, so the function is exactly 1 there.
_KS_CUTOVER = 0.82
_KS_FLOOR = 0.04
# One row per term; the values run along axis 1.
_THETA_EXPONENTS = -(np.array([[1.0], [9.0]]) * math.pi**2 / 8.0)
_SERIES_EXPONENTS = -2.0 * np.arange(1.0, 6.0).reshape(-1, 1) ** 2
_SERIES_SIGNS = np.array([[2.0], [-2.0], [2.0], [-2.0], [2.0]])
_SQRT2PI = math.sqrt(2.0 * math.pi)
# The KS statistic prunes a row once its sub-blocks are this many columns
# wide, and keeps a sub-block whose bound comes this close to D (see
# _ks_statistic).
_KS_MIN_WIDTH = 64
_KS_MARGIN = 1e-12


class EveDecision(str, Enum):
    """Outcome of one attack on one mixed-state bit."""

    ALICE_LOW = "alice_low"
    ALICE_HIGH = "alice_high"
    UNDECIDED = "undecided"


def _reconstruct(
    voltage: np.ndarray, current: np.ndarray, r: float, alice: bool, out: np.ndarray | None = None
) -> np.ndarray:
    """Source estimate of Alice (or Bob) presenting ``r``, for arrays of any shape.

    This is ``voltage - current * r`` for Alice and ``voltage + current * r``
    for Bob, written into ``out`` when it is given.
    """
    out = np.multiply(current, r, out=out)
    return np.subtract(voltage, out, out=out) if alice else np.add(voltage, out, out=out)


def wrong_hypothesis_variance(pair: ResistorPair, sigma_low: float, sigma_high: float) -> float:
    """Variance of the reconstruction made under the wrong resistor guess.

    For a true low/high bit inverted with the resistors swapped, the
    reconstruction mixes both sources and its variance is
    ``(4 sigma_low^2 r_high^2 + sigma_high^2 (r_high - r_low)^2) /
    (r_low + r_high)^2``. At the square-root amplitude ratio this equals
    ``sigma_high^2`` exactly, which is why the variance test alone cannot
    break a compliant system. It is ``alpha^2 + beta^2`` of the mixture
    :func:`kljn.density.weights`.
    """
    w = weights(pair, sigma_low, sigma_high)
    return w.alpha**2 + w.beta**2


def check_significance(significance: float) -> None:
    """Refuse a significance outside (0, 1)."""
    if not 0.0 < significance < 1.0:
        raise ValueError("significance must lie in (0, 1)")


def mean_square(x: np.ndarray) -> np.ndarray:
    """Per-row mean square: the z test's variance estimator and a bit's power (:mod:`kljn.engine`).

    ``x`` is squared in place, so it is overwritten; the result is bitwise
    ``np.mean(x**2, axis=1)``.
    """
    return np.mean(np.square(x, out=x), axis=1)


def _z_p_value(z: np.ndarray) -> np.ndarray:
    """Two-sided p-value of standard normal scores, ``2 Phi(-|z|) = erfc(|z| / sqrt 2)``."""
    return 2.0 * LAWS[DistributionKind.GAUSSIAN].cdf(-np.abs(z), 1.0)


def _kolmogorov_sf(x: np.ndarray) -> np.ndarray:
    """Survival function ``P(K > x)`` of the Kolmogorov distribution, elementwise.

    This is the asymptotic p-value of ``sqrt(n) * D``. Both series are
    evaluated for every element and ``np.where`` picks one, so the cost is
    a fixed handful of array operations whatever the values; NaN stays NaN.
    """
    x = np.asarray(x, dtype=np.float64)
    t = np.maximum(x, _KS_FLOOR).reshape(1, -1)
    t2 = t * t
    theta = np.add.reduce(np.exp(_THETA_EXPONENTS / t2)) * (_SQRT2PI / t[0])
    series = np.add.reduce(np.exp(_SERIES_EXPONENTS * t2) * _SERIES_SIGNS)
    return np.where(x < _KS_CUTOVER, 1.0 - theta.reshape(x.shape), series.reshape(x.shape))


def _interp(x: np.ndarray, reference: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """``np.interp(x, *reference)`` of rows sorted in ascending order, on the grid slice they span.

    The slice runs from the last grid point at or below the rows' smallest
    head to the first one at or above their largest tail, so each value
    falls between the same two grid points as on the whole grid, and a
    value off the slice is off the grid too and clamps to the same end.
    The result is bitwise that of the whole grid, but ``np.interp`` builds
    its slope table for the slice alone.
    """
    xp, fp = reference
    lo = max(int(np.searchsorted(xp, x[:, 0].min(), "right")) - 1, 0)
    hi = int(np.searchsorted(xp, x[:, -1].max())) + 1
    return np.interp(x, xp[lo:hi], fp[lo:hi])


def _fold_ks(
    part: np.ndarray,
    start: int,
    n: int,
    reference: tuple[np.ndarray, np.ndarray],
    lowest: np.ndarray,
    highest: np.ndarray,
) -> None:
    """Fold the KS terms of columns ``start ..`` of sorted rows into ``lowest`` and ``highest``.

    ``lowest`` takes the per-row minimum of ``cdf - k/n`` and ``highest``
    the maximum of ``cdf - (k-1)/n``, for the 1-based column numbers ``k``
    of ``part``; ``part`` is overwritten.
    """
    cdf = _interp(part, reference)
    steps = np.arange(start, start + part.shape[1] + 1, dtype=np.float64)
    steps /= n
    np.minimum(lowest, np.min(np.subtract(cdf, steps[1:], out=part), axis=1), out=lowest)
    np.maximum(highest, np.max(np.subtract(cdf, steps[:-1], out=part), axis=1), out=highest)


def _ks_statistic(x: np.ndarray, reference: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """KS distance of rows sorted in ascending order; ``x`` is reused as scratch and overwritten.

    ``d+ = max(k/n - cdf) = -min(cdf - k/n)`` over ``k = 1 .. n`` and
    ``d- = max(cdf - (k-1)/n)``; IEEE subtraction is antisymmetric, so both
    are bitwise the plain formulas. The CDF is :func:`_interp` of one run
    of columns at a time, on the grid slice the run spans, so neither it
    nor the levels ``k/n`` are held at full length. Rows shorter than 65536
    go whole, in :func:`kljn.line.column_chunks`. A longer row of ``n``
    values is pruned, in sub-blocks ``[s, e)`` of ``w = isqrt(n) // 4``
    columns (64 or more); below that length a row's Python loop over its
    runs costs more than the values it skips:

    - The row is sorted and the CDF F is non-decreasing, so in a sub-block
      every ``d+`` term ``(i+1)/n - F(x_i)`` is at most ``e/n - F(x_s)``
      and every ``d-`` term ``F(x_i) - i/n`` at most ``F(x_e) - s/n``,
      where ``x_e`` is the next sub-block's head, or the row's last value.
    - F is first computed at the sub-block heads and the last value. Their
      terms are terms of D, so their maximum is a lower bound on it.
    - Only the sub-blocks whose bound plus ``_KS_MARGIN`` (1e-12) exceeds
      that lower bound are computed in full, in runs of consecutive
      sub-blocks. The margin covers F's rounding, which keeps it monotone
      only to a few ulps, so every term of a skipped sub-block is at most
      D. A row far from its reference keeps few sub-blocks: on a 1M-sample
      uniform trial a wrong hypothesis keeps ~4 of 4000, a true one a few
      hundred.
    - A run goes in batches of ``BLOCK_SAMPLES // 4`` columns. A batch's
      CDF and levels, 64 KiB each, stay below the 128 KiB at which glibc's
      malloc maps or trims memory, so batches of any length reuse the same
      pages instead of faulting in new ones.

    Minima and maxima are exact whatever terms they see and in whatever
    order, so D is bitwise the plain formula on either path.
    """
    rows, n = x.shape
    if not rows:
        return np.empty(0)
    lowest = np.full(rows, np.inf)
    highest = np.full(rows, -np.inf)
    width = math.isqrt(n) // 4
    if width < _KS_MIN_WIDTH:
        for cols in line.column_chunks(rows, n):
            _fold_ks(x[:, cols], cols.start, n, reference, lowest, highest)
        return np.maximum(-lowest, highest)
    heads = np.arange(0, n, width)
    probes = np.append(heads, n - 1)
    cdf = _interp(x[:, probes], reference)
    np.min(cdf - (probes + 1.0) / n, axis=1, out=lowest)
    np.max(cdf - probes / n, axis=1, out=highest)
    bound = np.maximum(np.minimum(heads + width, n) / n - cdf[:, :-1], cdf[:, 1:] - heads / n)
    keep = bound + _KS_MARGIN > np.maximum(-lowest, highest)[:, None]
    # Run edges in sub-blocks, row by row: each run's start, then its stop.
    row_of, edges = np.nonzero(np.diff(keep, axis=1, prepend=False, append=False))
    starts, stops = edges[::2] * width, np.minimum(edges[1::2] * width, n)
    batch = max(1, line.BLOCK_SAMPLES // 4)
    for r, start, stop in zip(row_of[::2].tolist(), starts.tolist(), stops.tolist()):
        for first in range(start, stop, batch):
            cols = slice(first, min(first + batch, stop))
            part, low, high = x[r : r + 1, cols], lowest[r : r + 1], highest[r : r + 1]
            _fold_ks(part, first, n, reference, low, high)
    return np.maximum(-lowest, highest)


def reference_grid(spec: NoiseSpec) -> PdfGrid:
    """Tabulate a noise spec's density on its law's ``reference`` grid, for the shape test."""
    widths, steps = LAWS[spec.kind].reference
    grid = symmetric_grid(widths * spec.scale, steps * spec.scale)
    return analytic_pdf(spec.kind, spec.scale, *grid)


# Decision of each verdict code, low_rejected + 2 * high_rejected: none or
# both rejected leaves the bit undecided.
VERDICTS = (
    EveDecision.UNDECIDED,
    EveDecision.ALICE_HIGH,
    EveDecision.ALICE_LOW,
    EveDecision.UNDECIDED,
)
# Credit of each verdict code [code, alice_high]: 1 correct, 0 wrong, 0.5 undecided.
_CREDITS = np.array([[0.5, 0.5], [0.0, 1.0], [1.0, 0.0], [0.5, 0.5]])
_CREDITS.setflags(write=False)


class Evidence(NamedTuple):
    """Every sub-test of a block: arrays indexed ``[hypothesis, party, row]``.

    Hypotheses are ``ALICE_LOW``, then ``ALICE_HIGH``, and Alice is
    party 0. ``z`` and ``variance_p`` are the variance channel: the mean
    square of the reconstruction against the claimed variance, in units
    of the Gaussian-sampling standard error ``variance * sqrt(2 / n)``,
    and its two-sided p-value; both are NaN for a party whose law has no
    variance (Cauchy). ``statistic`` (the KS distance D from the
    reference CDF, which clamps to 0 or 1 off its grid) and ``shape_p``
    (the asymptotic Kolmogorov p-value of ``sqrt(n) * D``) are the shape
    channel. ``rejected[hypothesis, row]`` is set when any p-value of
    that row is below the attack's level; a NaN p-value never rejects.
    """

    z: np.ndarray
    variance_p: np.ndarray
    statistic: np.ndarray
    shape_p: np.ndarray
    rejected: np.ndarray


class BlockAttack:
    """Both mixed-state hypotheses, tested on blocks of bits held one per row.

    Built once per run, before its shares fork (:func:`kljn.engine.run`),
    and handed to :func:`kljn.engine.run_blocks`. Its one table holds the
    four sub-test cells ``[hypothesis][party]``: the resistance the party
    presents, the spec it claims and that spec's shape reference
    (:func:`reference_grid`) as ``(x, cdf)``. Hypotheses are Alice low,
    then Alice high, and Alice is party 0. Each reference is built here
    once, and every worker inherits it. The significance must lie in
    (0, 1) and each row must hold at least ``MIN_TEST_SAMPLES`` samples.

    Nothing is assigned to an instance after it is built: the four cells
    are tested in turn in a ``(rows, n)`` scratch array that the caller
    passes as ``out``, or that a call allocates, so threads may share an
    instance as long as each passes its own scratch.
    """

    def __init__(
        self, pair: ResistorPair, spec_low: NoiseSpec, spec_high: NoiseSpec, significance: float
    ) -> None:
        check_significance(significance)
        self.pair = pair
        self.specs = (spec_low, spec_high)
        self.significance = significance
        low, high = (
            (r, spec, (grid.x, grid.cdf()))
            for r, spec, grid in zip(
                (pair.r_low, pair.r_high), self.specs, map(reference_grid, self.specs)
            )
        )
        self._table = ((low, high), (high, low))
        # The variance each party claims, shaped [hypothesis, party, 1].
        self._variance = np.array(
            [[spec.scale**2 for _, spec, _ in cells] for cells in self._table]
        )[:, :, None]
        # Each hypothesis tests one low and one high party, so both share
        # one Bonferroni level; a source without a variance gets a shape test only.
        n_tests = sum(1 + LAWS[spec.kind].variance for spec in self.specs)
        self.level = significance / n_tests

    def tests(
        self, voltage: np.ndarray, current: np.ndarray, out: np.ndarray | None = None
    ) -> Evidence:
        """Every sub-test of both hypotheses on a block of line signals.

        Each hypothesis screens each party with a variance test and a shape
        test (shape only for sources without a variance). The per-test
        level is the significance divided by the number of sub-tests
        (Bonferroni), so a true hypothesis survives with probability at
        least ``1 - significance``. Each kind of p-value is computed once per
        block, over all of its hypotheses, parties and rows together.

        Each cell works in ``out``, a float64 ``(rows, n)`` scratch array
        apart from the signals, or in one allocated here when it is not
        given; the scratch never changes a result. There the party's
        reconstruction is squared in place for the mean square, then made
        again and sorted in place for the shape test.
        """
        rows, n = voltage.shape
        if n < MIN_TEST_SAMPLES:
            raise ValueError(f"attack needs at least {MIN_TEST_SAMPLES} samples")
        scratch = np.empty((rows, n)) if out is None else out
        mean_squares, statistic = np.full((2, 2, rows), np.nan), np.empty((2, 2, rows))
        for h, cells in enumerate(self._table):
            for party, (r, spec, reference) in enumerate(cells):
                alice = party == 0
                if LAWS[spec.kind].variance:
                    x = _reconstruct(voltage, current, r, alice, scratch)
                    mean_squares[h, party] = mean_square(x)
                _reconstruct(voltage, current, r, alice, scratch).sort(axis=1)
                statistic[h, party] = _ks_statistic(scratch, reference)
        z = (mean_squares - self._variance) / (self._variance * math.sqrt(2.0 / n))
        variance_p = _z_p_value(z)
        shape_p = _kolmogorov_sf(math.sqrt(n) * statistic)
        rejected = ((variance_p < self.level) | (shape_p < self.level)).any(axis=1)
        return Evidence(z, variance_p, statistic, shape_p, rejected)

    def verdicts(
        self, voltage: np.ndarray, current: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """One verdict code per row of a block of line signals, decoded by :data:`VERDICTS`.

        The code is ``low_rejected + 2 * high_rejected``. A verdict names the
        surviving hypothesis when exactly one of the two was rejected; it is
        undecided when both survive (the secure situation) and also when
        both are rejected, which points at a non-mixed bit or a model
        mismatch rather than at either mixed assignment. ``out`` is the
        scratch of :meth:`tests`.
        """
        low_rejected, high_rejected = self.tests(voltage, current, out).rejected
        return low_rejected + 2 * high_rejected


def credits(verdicts: np.ndarray, alice_high: np.ndarray) -> np.ndarray:
    """Score verdict codes against Alice's true switches: 1 correct, 0 wrong, 0.5 undecided."""
    return _CREDITS[verdicts, np.asarray(alice_high, dtype=np.intp)]
