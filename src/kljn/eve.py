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
:data:`kljn.noise.LAWS`: its CDF; the nodes to tabulate that CDF at when
it is too slow to call per sample; its quantile, the CDF's inverse, where
the shape bands start (a tabulated CDF is read backwards instead); the
finite range outside which its CDF is flat, the table's nodes or the
quantiles at 0 and 1, without which no long row is counted; and its
kurtosis, whose absence means no variance to test and also sets the
Bonferroni count.

:class:`BlockAttack` is the one attack. It holds line signals one bit per
row, so a single bit is a one-row block, and :meth:`BlockAttack.tests`
returns one :class:`Evidence` record per block: each sub-test's statistic
and p-value as arrays indexed ``[hypothesis, party, row]``, and which
hypotheses each row rejects. That is the per-bit evidence behind each
verdict, split into the variance channel and the shape channel. A verdict
is an int code per row, :meth:`BlockAttack.verdicts`; :data:`VERDICTS`
decodes it to the decision's name and :func:`credits` scores it. A
hypothesis is rejected when any one of its sub-tests is, so ``verdicts``
runs the variance cells first and then only the shape cells that can
still change a code: one whose hypothesis every row of the block already
rejects is skipped. A shape cell that runs decides each row in sample
space: its sorted values at one column in every ``isqrt(n) // 4`` and the
last are compared with bands built once per row length from the CDF's
inverse and the KS distance ``d*`` at which the p-value crosses the
level. A row inside its accept bands has every term of its KS distance D
below ``d* - _KS_DELTA``, and one outside its reject bands has a term
above ``d* + _KS_DELTA``, far more than the rounding of D and of its
p-value from ``d*``. A row of 65 536 values or more, of a law whose CDF
is flat outside a finite range, is first decided with no sort: its values
are counted on a grid of equal bins, and the counts below each band's
threshold tell where the sorted row's probes lie. Only the rows the
counts and then the bands leave open get D itself and a p-value. So the
codes stay those of ``tests``, which computes every D.
The runs that attack bits block by block are :mod:`kljn.engine`'s.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from . import line
from .density import weights
from .noise import LAWS, DistributionKind, NoiseSpec, ResistorPair
# Unused here; bench/test_bench.py checks that its tracer wraps this binding.
from .noise import stream  # noqa: F401

MIN_TEST_SAMPLES = 100

# A shape test's CDF F, called on sorted rows (see _shape_cdf).
ShapeCdf = Callable[[np.ndarray], np.ndarray]

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
# A verdict decides a shape-test row from bands that hold its KS distance this
# far from the level's distance d*, at levels down to the floor (see
# _shape_rejections).
_KS_DELTA = 1e-9
_P_FLOOR = 1e-300
# Probes per step of a band build (see _shape_bands), and the points at
# which each step of the bisection for d* divides its interval.
_BAND_PROBES = 1024
_BISECTION_STEPS = np.arange(65.0) / 64.0
# Equal bins of the grid on which a row that _ks_statistic would prune is
# counted, where its law allows (see _count_bands).
_COUNT_BINS = 2**14


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


def _fold_ks(
    part: np.ndarray,
    start: int,
    n: int,
    cdf: ShapeCdf,
    lowest: np.ndarray,
    highest: np.ndarray,
) -> None:
    """Fold the KS terms of columns ``start ..`` of sorted rows into ``lowest`` and ``highest``.

    ``lowest`` takes the per-row minimum of ``F - k/n`` and ``highest``
    the maximum of ``F - (k-1)/n``, for the CDF ``F = cdf(part)`` and the
    1-based column numbers ``k`` of ``part``; ``part`` is overwritten.
    """
    f = cdf(part)
    steps = np.arange(start, start + part.shape[1] + 1, dtype=np.float64)
    steps /= n
    np.minimum(lowest, np.min(np.subtract(f, steps[1:], out=part), axis=1), out=lowest)
    np.maximum(highest, np.max(np.subtract(f, steps[:-1], out=part), axis=1), out=highest)


def _sub_block_width(n: int) -> int:
    """Columns per sub-block of a row of ``n`` values: ``max(1, isqrt(n) // 4)``."""
    return max(1, math.isqrt(n) // 4)


def _ks_bounds(x: np.ndarray, cdf: ShapeCdf) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The probe terms and sub-block bounds of the KS distance of sorted rows ``x`` from ``cdf``.

    A row of ``n`` values splits into sub-blocks ``[s, e)`` of
    :func:`_sub_block_width` columns, and F is computed only at their
    heads and the row's last value. Returns ``(lowest, highest, bound)``:
    per row, the minimum of the probes' ``F - k/n`` and the maximum of
    their ``F - (k-1)/n``, which are terms of D, so ``max(-lowest,
    highest)`` is at most D; and per row and sub-block, ``bound``:

    - The row is sorted and F is non-decreasing, so in a sub-block every
      ``d+`` term ``(i+1)/n - F(x_i)`` is at most ``e/n - F(x_s)`` and
      every ``d-`` term ``F(x_i) - i/n`` at most ``F(x_e) - s/n``, where
      ``x_e`` is the next sub-block's head, or the row's last value.
    - F is monotone only to within its rounding (``np.arctan`` keeps the
      Cauchy F monotone only to a few ulps), so every term of a sub-block
      is at most its bound plus ``_KS_MARGIN`` (1e-12), and D is at most
      the largest bound plus that margin.
    """
    n = x.shape[1]
    width = _sub_block_width(n)
    heads = np.arange(0, n, width)
    probes = np.append(heads, n - 1)
    f = cdf(x[:, probes])
    lowest = np.min(f - (probes + 1.0) / n, axis=1)
    highest = np.max(f - probes / n, axis=1)
    bound = np.maximum(np.minimum(heads + width, n) / n - f[:, :-1], f[:, 1:] - heads / n)
    return lowest, highest, bound


def _ks_statistic(x: np.ndarray, cdf: ShapeCdf) -> np.ndarray:
    """KS distance from ``cdf`` of rows sorted in ascending order; ``x`` is overwritten.

    ``x`` is reused as scratch. ``d+ = max(k/n - F) = -min(F - k/n)`` over
    ``k = 1 .. n`` and ``d- = max(F - (k-1)/n)``, for ``F = cdf(x)``; IEEE
    subtraction is antisymmetric, so both are bitwise the plain formulas.
    ``cdf`` is called on one run of columns at a time, so neither F nor
    the levels ``k/n`` are held at full length. Rows shorter than 65536
    go whole, in :func:`kljn.line.column_chunks`. A longer row is pruned,
    in sub-blocks of 64 columns or more; below that length a row's Python
    loop over its runs costs more than the values it skips:

    - F is first computed at the sub-block heads and the last value
      (:func:`_ks_bounds`). Their terms are terms of D, so their maximum
      is a lower bound on it.
    - Only the sub-blocks whose bound plus ``_KS_MARGIN`` exceeds that
      lower bound are computed in full, in runs of consecutive
      sub-blocks, so every term of a skipped sub-block is at most D. A
      row far from its law keeps few sub-blocks: on a 1M-sample uniform
      trial a wrong hypothesis keeps ~4 of 4000, a true one a few hundred.
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
    width = _sub_block_width(n)
    if width < _KS_MIN_WIDTH:
        lowest = np.full(rows, np.inf)
        highest = np.full(rows, -np.inf)
        for cols in line.column_chunks(rows, n):
            _fold_ks(x[:, cols], cols.start, n, cdf, lowest, highest)
        return np.maximum(-lowest, highest)
    lowest, highest, bound = _ks_bounds(x, cdf)
    keep = bound + _KS_MARGIN > np.maximum(-lowest, highest)[:, None]
    # Run edges in sub-blocks, row by row: each run's start, then its stop.
    row_of, edges = np.nonzero(np.diff(keep, axis=1, prepend=False, append=False))
    starts, stops = edges[::2] * width, np.minimum(edges[1::2] * width, n)
    batch = max(1, line.BLOCK_SAMPLES // 4)
    for r, start, stop in zip(row_of[::2].tolist(), starts.tolist(), stops.tolist()):
        for first in range(start, stop, batch):
            cols = slice(first, min(first + batch, stop))
            part, low, high = x[r : r + 1, cols], lowest[r : r + 1], highest[r : r + 1]
            _fold_ks(part, first, n, cdf, low, high)
    return np.maximum(-lowest, highest)


def _cdf_nodes(spec: NoiseSpec) -> np.ndarray:
    """The nodes ``k * step``, ``|k * step| <= half width`` in scale units, of ``cdf_nodes``."""
    half, step = LAWS[spec.kind].cdf_nodes
    k = round(half / step)
    nodes = np.arange(-k, k + 1.0)
    nodes *= step * spec.scale
    return nodes


def _shape_cdf(spec: NoiseSpec) -> ShapeCdf:
    """The CDF F of ``spec`` that its shape test calls on sorted rows.

    F is the law's ``cdf`` at the spec's scale. A law with ``cdf_nodes``
    has its ``cdf`` tabulated here once, at those nodes (:func:`_cdf_nodes`),
    and F is ``np.interp`` of that table.
    """
    law = LAWS[spec.kind]
    if law.cdf_nodes is None:
        return lambda x: law.cdf(x, spec.scale)
    nodes = _cdf_nodes(spec)
    table = law.cdf(nodes, spec.scale)
    return lambda x: np.interp(x, nodes, table)


def _shape_quantile(spec: NoiseSpec, cdf: ShapeCdf) -> ShapeCdf:
    """An inverse of the shape CDF ``cdf`` of ``spec``, where :func:`_threshold` starts.

    It is the law's ``quantile`` at the spec's scale, or, for a law with
    ``cdf_nodes``, F's own table read backwards: ``np.interp`` of the nodes
    at F's values there.
    """
    law = LAWS[spec.kind]
    if law.cdf_nodes is None:
        return lambda t: law.quantile(t, spec.scale)
    nodes = _cdf_nodes(spec)
    table = cdf(nodes)
    return lambda t: np.interp(t, table, nodes)


def _block_scratch(voltage: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """The ``(rows, n)`` scratch of an attack block: ``out``, or a new array; refuses short rows."""
    if voltage.shape[1] < MIN_TEST_SAMPLES:
        raise ValueError(f"attack needs at least {MIN_TEST_SAMPLES} samples")
    return np.empty(voltage.shape) if out is None else out


def _shape_reconstruction(
    voltage: np.ndarray, current: np.ndarray, r: float, alice: bool, out: np.ndarray
) -> np.ndarray:
    """A party's reconstruction under resistance ``r``, in ``out``, for a shape cell.

    Every shape cell of :meth:`BlockAttack.tests` and of
    :meth:`BlockAttack.verdicts` starts here (:func:`_reconstruct`), once;
    ``tests`` sorts its rows, ``verdicts`` counts or sorts them
    (:func:`_shape_rejections`).
    """
    return _reconstruct(voltage, current, r, alice, out)


def _shape_p_value(statistic: np.ndarray, n: int) -> np.ndarray:
    """Asymptotic Kolmogorov p-value of KS distances ``statistic`` of rows of ``n`` values."""
    return _kolmogorov_sf(math.sqrt(n) * statistic)


def _level_statistic(n: int, level: float) -> float:
    """The largest KS distance ``d*`` of rows of ``n`` values whose p-value is at least ``level``.

    Found by bisection on :func:`_shape_p_value` down to adjacent floats,
    64 parts at a time, so the float after ``d*`` has a p-value below
    ``level``; it is 1.0 when even a distance of 1 keeps the p-value at
    the level.
    """
    low, high = 0.0, 1.0
    if _shape_p_value(np.array([high]), n)[0] >= level:
        return high
    while math.nextafter(low, high) < high:
        d = low + (high - low) * _BISECTION_STEPS
        d[-1] = high
        first_below = np.flatnonzero(_shape_p_value(d, n) < level)[0]
        low, high = float(d[first_below - 1]), float(d[first_below])
    return low


def _threshold(cdf: ShapeCdf, quantile: ShapeCdf, target: np.ndarray, side: int) -> np.ndarray:
    """Per level ``t`` of ``target``, a value c past which F is past t.

    With ``side`` 1 every ``x >= c`` has ``F(x) >= t``; with ``side`` -1
    every ``x <= c`` has ``F(x) <= t``. c starts at the quantile of t
    moved two ``_KS_MARGIN`` toward ``side``, and steps that way, each step
    twice the last, until ``side * (F(c) - t)`` is at least ``_KS_MARGIN``:
    F is monotone to within that margin, so every x beyond c is past t. A
    level that every x passes, infinities included, gets ``-side * inf``;
    one that no x passes gets NaN, which every comparison fails. A NaN
    quantile stays NaN.
    """
    bottom, top = cdf(np.array([-np.inf, np.inf]))
    near, far = (bottom, top) if side > 0 else (top, bottom)
    everywhere = side * (near - target) >= _KS_MARGIN
    todo = np.flatnonzero(~everywhere & (side * (far - target) >= _KS_MARGIN))
    band = np.where(everywhere, -side * np.inf, np.nan)
    t = target[todo]
    c = quantile(np.clip(t + 2.0 * side * _KS_MARGIN, bottom, top))
    step = np.spacing(np.abs(c))
    short = np.arange(len(c))
    while len(short := short[side * (cdf(c[short]) - t[short]) < _KS_MARGIN]):
        c[short] += side * step[short]
        step[short] *= 2.0
    band[todo] = c
    return band


def _shape_bands(cdf: ShapeCdf, quantile: ShapeCdf, n: int, d: float) -> np.ndarray:
    """The sample-space bands of a shape cell's rows of ``n`` values, at ``d*`` = ``d``.

    Returns the ``(4, probes)`` array ``low, high, below, above`` over the
    probes of :func:`_ks_bounds`: the sub-block heads ``s`` (every
    :func:`_sub_block_width` columns), then the last column. With ``A =
    d - _KS_DELTA`` and ``R = d + _KS_DELTA`` (:func:`_threshold`):

    - A sub-block ``[s, e)``'s head at or above ``low`` gives ``F(x_s) >=
      e/n - A``, and the next probe at or below ``high`` gives ``F(x_e)
      <= s/n + A``. The row is sorted, so every ``d+`` term ``(i+1)/n -
      F(x_i)`` and ``d-`` term ``F(x_i) - i/n`` of the sub-block is at
      most A. The last column has no ``low`` and the first head no
      ``high``: their levels are infinite, so every x passes them.
    - A probe ``k`` below ``below`` gives ``F(x_k) <= (k+1)/n - R`` and one
      above ``above`` gives ``F(x_k) >= k/n + R``: a term of D of at least R.
    """
    width = _sub_block_width(n)
    last = -(-n // width)  # the last column's probe, after the heads
    accept, reject = d - _KS_DELTA, d + _KS_DELTA
    bands = np.empty((4, last + 1))
    # A few probes at a time, so that no temporary holds a long row's probes.
    for first in range(0, last + 1, _BAND_PROBES):
        j = np.arange(first, min(first + _BAND_PROBES, last + 1))
        probe = np.minimum(j * width, n - 1)
        cols = slice(first, first + len(j))
        low = np.where(j == last, -np.inf, np.minimum(probe + width, n) / n - accept)
        bands[0, cols] = _threshold(cdf, quantile, low, 1)
        high = np.where(j == 0, np.inf, (j - 1) * width / n + accept)
        bands[1, cols] = _threshold(cdf, quantile, high, -1)
        bands[2, cols] = _threshold(cdf, quantile, (probe + 1.0) / n - reject, -1)
        bands[3, cols] = _threshold(cdf, quantile, probe / n + reject, 1)
    return bands


class _CountBands(NamedTuple):
    """Shape bands read through a row's value counts on a grid of equal bins (:func:`_count_bands`).

    A value x lies in bin ``trunc((clip(x, low, high) - low) * scale)``
    (:func:`_bin_index`), one of ``_COUNT_BINS + 1``. ``at[b, j]``, an
    int32 array half the size of the bands, is the place in a row's
    cumulative counts (:func:`_cumulative_counts`) that decides band ``b``
    of :func:`_shape_bands` at probe ``j``.
    """

    low: float
    high: float
    scale: float
    at: np.ndarray


class _Bands(NamedTuple):
    """A spec's shape bands for rows of one length (:meth:`BlockAttack._bands`).

    ``probes`` is the ``(4, probes)`` array of :func:`_shape_bands` and
    ``counts`` the same bands on a count grid (:func:`_count_bands`), or
    None where the rows are sorted instead.
    """

    probes: np.ndarray
    counts: _CountBands | None


def _counts_can_decide(kind: DistributionKind) -> bool:
    """Whether long shape-cell rows of ``kind`` are counted: its CDF is flat outside a finite range.

    A tabulated CDF is constant beyond its nodes (the Gaussian's 8
    scales). A closed-form one is when its quantiles at 0 and 1 are finite
    and its density is 0 beyond them, at twice their distance: the
    uniform's support. The Cauchy quantiles at 0 and 1 are finite only by
    rounding (``tan`` at ``pi/2``), and its density is 0 nowhere; its
    bands' thresholds reach a hundred scales and more, far too wide for
    the bins to resolve its centre, so its rows are sorted.
    """
    law = LAWS[kind]
    if law.cdf_nodes is not None:
        return True
    ends = law.quantile(np.array([0.0, 1.0]), 1.0)
    return bool(np.isfinite(ends).all() and not law.pdf(2.0 * ends, 1.0).any())


def _bin_index(x: np.ndarray, counts: _CountBands, scratch: np.ndarray) -> np.ndarray:
    """The bin of each value of ``x`` on the grid of ``counts``, as an intp view of ``scratch``.

    ``scratch`` is a float64 array of ``x``'s shape; the bins overwrite it
    in place. Each step (a clip, a subtraction, a product and its
    truncation) is exact or correctly rounded, so the bin never decreases
    as x grows. ``x`` must hold no NaN.
    """
    np.clip(x, counts.low, counts.high, out=scratch)
    scratch -= counts.low
    return np.multiply(scratch, counts.scale, out=scratch.view(np.intp), casting="unsafe")


def _count_bands(probes: np.ndarray, n: int) -> _CountBands:
    """The bands ``probes`` (:func:`_shape_bands`) of rows of ``n`` values on a count grid.

    The grid spans the bands' finite thresholds in ``_COUNT_BINS`` equal
    bins; values beyond it count in its end bins. Let ``c[i]`` be the
    number of a row's values in the bins below ``i`` and ``b`` the bin of
    a threshold t. The bin never decreases as x grows, so every value at
    or below t is in bin b or lower, and every value in a bin below b is
    below t: ``c[b + 1]`` is at least the count of values at or below t,
    and ``c[b]`` at most the count below it. ``at`` takes one bin of
    slack more on each side, ``c[b + 2]`` and ``c[b - 1]``, so that a
    threshold a rounding away from a bin edge decides nothing it should
    not. A sorted row's value ``x_p`` at column p is then:

    - at or above ``low`` if ``c[b + 2] <= p``, and above ``above`` if
      that holds for ``above``'s bin: at most p values lie at or below t;
    - at or below ``high`` if ``c[b - 1] >= p + 1``, and below ``below``
      if that holds for ``below``'s bin: p + 1 values or more lie below t.

    An infinite threshold has exact counts: none of a finite row's values
    is at or below ``-inf`` and all of them are below ``inf``, ``c[0]``
    and ``c[_COUNT_BINS + 1]``. A NaN threshold, which no value passes,
    points where its test fails: ``c[_COUNT_BINS + 1] = n`` against at
    most p, ``c[0] = 0`` against at least p + 1.
    """
    finite = np.isfinite(probes)
    ends = probes[finite]
    low, high = (float(ends.min()), float(ends.max())) if len(ends) else (0.0, 0.0)
    b = np.zeros(probes.shape, dtype=np.intp)
    counts = _CountBands(low, high, _COUNT_BINS / (high - low) if high > low else 0.0, b)
    b[finite] = _bin_index(ends, counts, np.empty(len(ends)))
    top = _COUNT_BINS + 1
    # low and above hold at most p values at or below them; high and below p + 1 or more below them.
    at_most = np.array([[True], [False], [False], [True]])
    at = np.where(at_most, np.minimum(b + 2, top), np.maximum(b - 1, 0))
    at[probes == -np.inf] = 0
    at[probes == np.inf] = top
    at = np.where(np.isnan(probes), np.where(at_most, top, 0), at)
    return counts._replace(at=at.astype(np.int32))


def _cumulative_counts(row: np.ndarray, counts: _CountBands) -> np.ndarray | None:
    """``c[i]``, how many values of ``row`` lie in the bins below ``i`` of ``counts``'s grid.

    ``i`` runs over ``0 .. _COUNT_BINS + 1``; None if the row holds an
    infinity or NaN. The row goes in batches of ``BLOCK_SAMPLES // 2``
    columns. A batch's values are clipped and scaled in one 128 KiB
    buffer, which then holds their bins (:func:`_bin_index`), and the
    counts take 128 KiB more; both serve every batch of the row, so no
    array of the row's length is made, and a later trial of a run maps no
    fresh pages (``tests/test_blocks.py``).
    """
    n = len(row)
    batch = min(n, max(1, line.BLOCK_SAMPLES // 2))
    scratch = np.empty(batch)
    c = np.zeros(_COUNT_BINS + 2, dtype=np.intp)
    for first in range(0, n, batch):
        part = row[first : first + batch]
        if not (math.isfinite(part.min()) and math.isfinite(part.max())):
            return None
        np.add.at(c[1:], _bin_index(part, counts, scratch[: len(part)]), 1)
    return np.cumsum(c, out=c)


def _count_verdict(row: np.ndarray, counts: _CountBands) -> bool | None:
    """The shape test's rejection of one cell row from its counts (:func:`_count_bands`), unsorted.

    True when some probe of the sorted row would lie outside a reject band,
    False when every probe would lie inside the accept bands, and None
    when the counts show neither or the row holds an infinity or NaN.
    """
    c = _cumulative_counts(row, counts)
    if c is None:
        return None
    n = len(row)
    low, high, below, above = counts.at
    column = np.minimum(np.arange(counts.at.shape[1]) * _sub_block_width(n), n - 1)
    if (c[below] > column).any() or (c[above] <= column).any():
        return True
    if (c[low] <= column).all() and (c[high] > column).all():
        return False
    return None


def _shape_rejections(
    x: np.ndarray, cdf: ShapeCdf, bands: _Bands | None, level: float, rejected: np.ndarray
) -> None:
    """OR into ``rejected`` the rows of a shape cell ``x`` whose shape test rejects at ``level``.

    ``x`` holds the cell's reconstruction (:func:`_shape_reconstruction`)
    and is overwritten. Only rows not yet in ``rejected`` are decided, in
    up to three steps, each for the rows the last left open:

    - Rows of 65 536 values or more whose spec has a count grid
      (``bands.counts``) are counted on it (:func:`_count_verdict`), with
      no sort. A row that holds an infinity or NaN is decided by no count.
    - The other rows are sorted in place, and their probes compared with
      ``bands.probes`` (:func:`_shape_bands`), which cost no CDF and no
      p-value: a row is accepted when every probe lies in ``[low, high]``
      and rejected when some probe is below ``below`` or above ``above``.
      A row that holds an infinity or NaN (sorted, its first or last
      value) is decided by none of them, and neither is any row when
      ``bands`` is None.
    - The rest get D (:func:`_ks_statistic`) and its p-value, in one
      :func:`_kolmogorov_sf` call. Shorter rows go to one
      ``_ks_statistic`` call, gathered; longer ones each as a view of
      ``x``, which is never copied.

    A count decides only what the probes of the sorted row would decide
    (:func:`_count_bands`), so every decision is the bands', or D's own.
    Each is the one that D's own p-value makes, as
    :meth:`BlockAttack.tests` computes it. An accepted row has D at most
    ``d* - _KS_DELTA`` and a rejected one at least ``d* + _KS_DELTA``, to
    within a few roundings of 1e-16, and the float after ``d*`` has a
    p-value below ``level`` (:func:`_level_statistic`):

    - ``sqrt(n)`` times D lies at least ``10 * _KS_DELTA``, about 1e-8,
      from ``sqrt(n)`` times ``d*`` and the float after it (rows hold
      100 values or more), against a rounding of ~1e-16.
    - Every level is below 1/2 (at least two sub-tests share the
      significance). Where the p-value is below 0.6 it falls by a relative
      2.7 or more per unit of its argument, so across that gap by a
      relative 2.7e-8 or more; a p-value above 0.6 is above every level.
    - ``_kolmogorov_sf`` is within 1e-13 relative of the true function
      wherever that is above 1e-300 (``tests/test_pvalues.py``), far less
      than that fall, so the computed p-values keep the order of their
      arguments across the gap. Below 1e-300 that accuracy is not held,
      so at a level that small there are no bands and every row is left
      open.
    """
    n = x.shape[1]
    todo = np.flatnonzero(~rejected)
    counts = None if bands is None else bands.counts
    if counts is None:
        x.sort(axis=1)
    else:
        left = []
        for r in todo.tolist():
            verdict = _count_verdict(x[r], counts)
            if verdict is None:
                x[r].sort()
                left.append(r)
            else:
                rejected[r] = verdict
        todo = np.array(left, dtype=np.intp)
    if bands is not None and len(todo):
        low, high, below, above = bands.probes
        heads, first, last = x[:, :: _sub_block_width(n)][todo], x[todo, 0], x[todo, -1]
        finite = np.isfinite(first) & np.isfinite(last)
        outside = (heads < below[:-1]).any(axis=1) | (heads > above[:-1]).any(axis=1)
        outside = finite & (outside | (last < below[-1]) | (last > above[-1]))
        inside = (heads >= low[:-1]).all(axis=1) & (heads <= high[:-1]).all(axis=1)
        inside &= finite & (last >= low[-1]) & (last <= high[-1])
        rejected[todo[outside]] = True
        todo = todo[~outside & ~inside]
    if len(todo):
        if _sub_block_width(n) < _KS_MIN_WIDTH:
            statistic = _ks_statistic(x[todo], cdf)
        else:
            statistic = np.concatenate([_ks_statistic(x[r : r + 1], cdf) for r in todo.tolist()])
        rejected[todo] = _shape_p_value(statistic, n) < level


# The decision of each verdict code, low_rejected + 2 * high_rejected, as
# records and trials.csv name it: none or both rejected leaves the bit
# undecided.
VERDICTS = ("undecided", "alice_high", "alice_low", "undecided")
# Credit of each verdict code [code, alice_high]: 1 correct, 0 wrong, 0.5 undecided.
_CREDITS = np.array([[0.5, 0.5], [0.0, 1.0], [1.0, 0.0], [0.5, 0.5]])
_CREDITS.setflags(write=False)


class Evidence(NamedTuple):
    """Every sub-test of a block: arrays indexed ``[hypothesis, party, row]``.

    Hypotheses are ``ALICE_LOW``, then ``ALICE_HIGH``, and Alice is
    party 0. ``z`` and ``variance_p`` are the variance channel: the mean
    square of the reconstruction against the claimed variance, in units
    of its standard error under the claimed law, ``variance * sqrt((kappa
    - 1) / n)`` with the law's kurtosis ``kappa`` (``sqrt(2 / n)`` for a
    Gaussian), and its two-sided p-value; both are NaN for a party whose
    law has no variance (Cauchy). ``statistic`` (the KS distance D from
    the claimed spec's CDF, :func:`_shape_cdf`) and ``shape_p`` (the
    asymptotic Kolmogorov p-value of ``sqrt(n) * D``) are the shape
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
    presents, the spec it claims, that spec's CDF (:func:`_shape_cdf`) and
    its index in ``specs``. Hypotheses are Alice low, then Alice high, and
    Alice is party 0. A CDF that interpolates a table has the table built
    here once, and every worker inherits it. The significance must lie in
    (0, 1) and each row must hold at least ``MIN_TEST_SAMPLES`` samples.

    :meth:`tests` runs every cell and returns the complete evidence;
    :meth:`verdicts` runs the variance cells and then only the shape cells
    that can still change its codes, and computes D only for the rows
    whose shape bands leave the decision open. Nothing is assigned to an
    instance after it is built. Its one mutable part holds each spec's
    shape bands per row length (:meth:`_bands`), O(probes) each, filled at
    the first shape cell of that length; threads that race to fill it
    store equal bands. The cells are tested in turn in a ``(rows, n)``
    scratch array that the caller passes as ``out``, or that a call
    allocates, so threads may share an instance as long as each passes its
    own scratch.
    """

    def __init__(
        self, pair: ResistorPair, spec_low: NoiseSpec, spec_high: NoiseSpec, significance: float
    ) -> None:
        check_significance(significance)
        self.pair = pair
        self.specs = (spec_low, spec_high)
        self.significance = significance
        low, high = (
            (r, spec, _shape_cdf(spec), k)
            for k, (r, spec) in enumerate(zip((pair.r_low, pair.r_high), self.specs))
        )
        self._table = ((low, high), (high, low))
        self._bands_by_length: dict[int, tuple[_Bands, _Bands]] = {}
        # The variance each party claims, and kappa - 1 of its law: the
        # variance of a squared draw over the variance squared. A kappa of
        # None (no variance) becomes NaN. Each is shaped [hypothesis, party, 1].
        claims = [[spec for _, spec, *_ in cells] for cells in self._table]
        self._variance = np.array([[spec.scale**2 for spec in c] for c in claims])[:, :, None]
        kappa = np.array([[LAWS[spec.kind].kappa for spec in c] for c in claims], dtype=float)
        self._square_spread = (kappa - 1.0)[:, :, None]
        # Each hypothesis tests one low and one high party, so both share
        # one Bonferroni level; a source without a variance gets a shape test only.
        n_tests = sum(1 + LAWS[spec.kind].variance for spec in self.specs)
        self.level = significance / n_tests

    def _z(self, voltage: np.ndarray, current: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """Variance z score of every cell ``[hypothesis, party, row]``; NaN where no variance.

        Each cell's reconstruction is made in ``scratch`` and squared there
        for its mean square, which is compared with the claimed variance in
        units of its standard error.
        """
        rows, n = voltage.shape
        mean_squares = np.full((2, 2, rows), np.nan)
        for h, cells in enumerate(self._table):
            for party, (r, spec, *_) in enumerate(cells):
                if LAWS[spec.kind].variance:
                    x = _reconstruct(voltage, current, r, party == 0, scratch)
                    mean_squares[h, party] = mean_square(x)
        error = self._variance * np.sqrt(self._square_spread / n)
        return (mean_squares - self._variance) / error

    def _bands(self, n: int) -> tuple[_Bands | None, _Bands | None]:
        """Each spec's shape bands for rows of ``n`` values.

        Each is :func:`_shape_bands`, with their count grid
        (:func:`_count_bands`) where rows of ``n`` values are long enough
        for :func:`_ks_statistic` to prune and the spec's law
        :func:`_counts_can_decide`. They are built at the first call for
        ``n`` and kept; below a level of ``_P_FLOOR`` there are none.
        """
        if self.level < _P_FLOOR:
            return None, None
        bands = self._bands_by_length.get(n)
        if bands is None:
            d = _level_statistic(n, self.level)
            long_rows = _sub_block_width(n) >= _KS_MIN_WIDTH
            built = []
            for _, spec, cdf, _ in self._table[0]:
                probes = _shape_bands(cdf, _shape_quantile(spec, cdf), n, d)
                counted = long_rows and _counts_can_decide(spec.kind)
                built.append(_Bands(probes, _count_bands(probes, n) if counted else None))
            # Threads that race here built equal bands; all keep the first stored.
            bands = self._bands_by_length.setdefault(n, tuple(built))
        return bands

    def tests(
        self, voltage: np.ndarray, current: np.ndarray, out: np.ndarray | None = None
    ) -> Evidence:
        """Every sub-test of both hypotheses on a block of line signals: the complete evidence.

        Each hypothesis screens each party with a variance test and a shape
        test (shape only for sources without a variance). The per-test
        level is the significance divided by the number of sub-tests
        (Bonferroni), so a true hypothesis survives with probability at
        least ``1 - significance``. All four cells run whatever their
        results, and each kind of p-value is computed once per block, over
        all of its hypotheses, parties and rows together.

        Each cell works in ``out``, a float64 ``(rows, n)`` scratch array
        apart from the signals, or in one allocated here when it is not
        given; the scratch never changes a result. There the party's
        reconstruction is squared in place for the mean square, then made
        again and sorted in place for the shape test.
        """
        scratch = _block_scratch(voltage, out)
        z = self._z(voltage, current, scratch)
        statistic = np.empty(z.shape)
        for h, cells in enumerate(self._table):
            for party, (r, _, cdf, _) in enumerate(cells):
                x = _shape_reconstruction(voltage, current, r, party == 0, scratch)
                x.sort(axis=1)
                statistic[h, party] = _ks_statistic(x, cdf)
        variance_p, shape_p = _z_p_value(z), _shape_p_value(statistic, voltage.shape[1])
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

        Only the sub-tests that a code can still depend on are run. The
        variance cells of both hypotheses come first (no sort), their
        p-values taken in one call. The shape cells follow hypothesis by
        hypothesis, Alice then Bob, and one is skipped when every row of
        the block already rejects its hypothesis. Only whole blocks skip.
        A trace longer than ``BLOCK_SAMPLES // 2`` runs alone in its block
        (:func:`kljn.line.blocks`), so its wrong hypothesis stops at the
        first cell that rejects it; a block of many rows mixes Alice's
        states, so each hypothesis is wrong for only some of its rows and
        the block rarely skips.

        A shape cell that runs decides each row in sample space: it
        compares the row's values at the sub-block heads, one in every
        ``isqrt(n) // 4`` columns, and its last value with the spec's bands
        for rows of that length (:meth:`_bands`), built at the first such
        cell from the CDF's inverse and the KS distance ``d*`` at which the
        p-value crosses the level. A row inside its accept bands has D
        below ``d* - _KS_DELTA``, and one outside its reject bands has D
        above ``d* + _KS_DELTA``. Neither costs a CDF value or a p-value:
        D itself, and one p-value call, is taken only for the rows left
        open (:func:`_shape_rejections` says why each decision is the one
        D's own p-value makes). A rejection is the OR of its sub-tests'
        rejections, so every code equals ``low + 2 * high`` of
        ``tests(...).rejected``. A row is sorted to find those values,
        unless it holds 65 536 values or more of a uniform or Gaussian
        spec: then its values are counted on a grid first, and it is
        sorted only if the counts leave it open. At compliance the bands
        leave few rows open: a 1000-sample row has D ~0.027 against a
        rejection above ~0.058 at the default level, so a 2000-bit session
        computes D for 25 of its 3996 shape-cell rows.
        """
        scratch = _block_scratch(voltage, out)
        rejected = (_z_p_value(self._z(voltage, current, scratch)) < self.level).any(axis=1)
        for h, cells in enumerate(self._table):
            for party, (r, _, cdf, k) in enumerate(cells):
                if rejected[h].all():
                    break
                x = _shape_reconstruction(voltage, current, r, party == 0, scratch)
                _shape_rejections(x, cdf, self._bands(x.shape[1])[k], self.level, rejected[h])
        low_rejected, high_rejected = rejected
        return low_rejected + 2 * high_rejected


def credits(verdicts: np.ndarray, alice_high: np.ndarray) -> np.ndarray:
    """Score verdict codes against Alice's true switches: 1 correct, 0 wrong, 0.5 undecided."""
    return _CREDITS[verdicts, np.asarray(alice_high, dtype=np.intp)]
