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

:class:`BlockAttack` is the one attack. It holds line signals one bit per
row, so a single bit is a one-row block, and :meth:`BlockAttack.tests`
returns one :class:`Evidence` record per block: each sub-test's statistic
and p-value as arrays indexed ``[hypothesis, party, row]``, and which
hypotheses each row rejects. That is the per-bit evidence behind each
:class:`EveDecision`, split into the variance channel and the shape
channel. :func:`run_blocks` is the one run loop: it draws, solves and
attacks a run's bits block by block for :func:`kljn.protocol.run_session`
and for :func:`attack_trials`, which runs it over fresh mixed-state bits
and scores the decisions.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import NamedTuple, TypeVar

import numpy as np

from . import line
from .density import PdfGrid, analytic_pdf, family_cdf, symmetric_grid, weights
from .line import SwitchState, blocks, line_block, resistance_for
from .noise import BlockStreams, DistributionKind, NoiseSpec, ResistorPair
# Unused here; bench/test_bench.py checks that its tracer wraps this binding.
from .noise import stream  # noqa: F401

MIN_TEST_SAMPLES = 100

# Tabulation policy for reference densities handed to the shape test.
# Uniform gets a finer grid because its jump discontinuities dominate
# the CDF interpolation error; Cauchy needs width, not resolution.
_REFERENCE_POLICY = {
    DistributionKind.GAUSSIAN: (8.0, 1.0 / 200.0),
    DistributionKind.UNIFORM: (8.0, 1.0 / 2000.0),
    DistributionKind.CAUCHY: (800.0, 1.0 / 200.0),
}

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

_T = TypeVar("_T")


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


def _check_significance(significance: float) -> None:
    if not 0.0 < significance < 1.0:
        raise ValueError("significance must lie in (0, 1)")


def _mean_square(x: np.ndarray) -> np.ndarray:
    """Per-row mean square of zero-mean rows, the variance estimator of the z test.

    ``x`` is squared in place, so it is overwritten; the result is bitwise
    ``np.mean(x**2, axis=1)``.
    """
    return np.mean(np.square(x, out=x), axis=1)


def _z_p_value(z: np.ndarray) -> np.ndarray:
    """Two-sided p-value of standard normal scores, ``2 Phi(-|z|) = erfc(|z| / sqrt 2)``."""
    return 2.0 * family_cdf(DistributionKind.GAUSSIAN, 1.0, -np.abs(z))


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


def _ks_statistic(x: np.ndarray, reference: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """KS distance of rows sorted in ascending order; ``x`` is reused as scratch and overwritten.

    ``d+ = max(k/n - cdf) = -min(cdf - k/n)`` over ``k = 1 .. n`` and
    ``d- = max(cdf - (k-1)/n)``; IEEE subtraction is antisymmetric, so both
    are bitwise the plain formulas. The columns go in
    :func:`kljn.line.column_chunks`, so the CDF and the levels ``k / n`` are
    never held at full length; minima and maxima over chunks are exact, so
    D does not depend on the chunking.
    """
    rows, n = x.shape
    lowest = np.full(rows, np.inf)
    highest = np.full(rows, -np.inf)
    for cols in line.column_chunks(rows, n):
        part = x[:, cols]
        cdf = np.interp(part, *reference)
        steps = np.arange(cols.start, cols.stop + 1, dtype=np.float64) / n
        np.minimum(lowest, np.min(np.subtract(cdf, steps[1:], out=part), axis=1), out=lowest)
        np.maximum(highest, np.max(np.subtract(cdf, steps[:-1], out=part), axis=1), out=highest)
    return np.maximum(-lowest, highest)


def reference_grid(spec: NoiseSpec) -> PdfGrid:
    """Tabulate the density of a noise spec for use as a shape reference."""
    widths, steps = _REFERENCE_POLICY[spec.kind]
    return analytic_pdf(
        spec.kind,
        spec.scale,
        *symmetric_grid(widths * spec.scale, steps * spec.scale),
    )


# The two mixed assignments: (decision if it survives, Alice's state, Bob's state).
_HYPOTHESES = (
    (EveDecision.ALICE_LOW, SwitchState.LOW, SwitchState.HIGH),
    (EveDecision.ALICE_HIGH, SwitchState.HIGH, SwitchState.LOW),
)
# Decision by low_rejected + 2 * high_rejected: none or both rejected leaves
# the bit undecided.
_VERDICTS = (
    EveDecision.UNDECIDED,
    EveDecision.ALICE_HIGH,
    EveDecision.ALICE_LOW,
    EveDecision.UNDECIDED,
)


class Evidence(NamedTuple):
    """Every sub-test of a block: arrays indexed ``[hypothesis, party, row]``.

    Hypotheses are in ``_HYPOTHESES`` order (``ALICE_LOW``, then
    ``ALICE_HIGH``) and Alice is party 0. ``z`` and ``variance_p`` are the
    variance channel: the mean square of the reconstruction against the
    claimed variance, in units of the Gaussian-sampling standard error
    ``variance * sqrt(2 / n)``, and its two-sided p-value; both are NaN
    for a Cauchy party, which has no variance. ``statistic`` (the KS
    distance D from the reference CDF, which clamps to 0 or 1 off its
    grid) and ``shape_p`` (the asymptotic Kolmogorov p-value of
    ``sqrt(n) * D``) are the shape channel. ``rejected[hypothesis, row]``
    is set when any p-value of that row is below the attack's level; a
    NaN p-value never rejects.
    """

    z: np.ndarray
    variance_p: np.ndarray
    statistic: np.ndarray
    shape_p: np.ndarray
    rejected: np.ndarray


class BlockAttack:
    """Both mixed-state hypotheses, tested on blocks of bits held one per row.

    Built once per attack, session or trial run: each party's shape
    reference (:func:`reference_grid`) and its CDF are built here once
    rather than once per bit. The significance must lie in (0, 1) and each
    row must hold at least ``MIN_TEST_SAMPLES`` samples. A block whose
    rows are longer than ``kljn.line.BLOCK_SAMPLES`` (a long trace, which
    runs alone) has its two hypotheses tested on two threads, one buffer
    each; the outcome does not depend on the threading.

    The two hypothesis buffers belong to the instance and are kept from
    one block to the next. They grow when a block has more rows or another
    row length; the old pair is released before the new one is allocated.
    Because the buffers are shared by its calls, an instance must not be
    shared between threads.
    """

    def __init__(
        self, pair: ResistorPair, spec_low: NoiseSpec, spec_high: NoiseSpec, significance: float
    ) -> None:
        _check_significance(significance)
        self.pair = pair
        self.significance = significance
        self.by_state = {}
        for state, spec in ((SwitchState.LOW, spec_low), (SwitchState.HIGH, spec_high)):
            reference = reference_grid(spec)
            self.by_state[state] = (spec, (reference.x, reference.cdf()))
        # The variance each party claims, shaped [hypothesis, party, 1].
        self._variance = np.array(
            [[self.by_state[s][0].scale ** 2 for s in parties] for _, *parties in _HYPOTHESES]
        )[:, :, None]
        # Each hypothesis tests one low and one high party, so both share
        # one Bonferroni level; Cauchy sources get a shape test only.
        n_tests = sum(
            1 if spec.kind is DistributionKind.CAUCHY else 2 for spec in (spec_low, spec_high)
        )
        self.level = significance / n_tests
        # Scratch of the two hypotheses, shaped [hypothesis, row, sample].
        self._buffers: np.ndarray | None = None

    def tests(self, voltage: np.ndarray, current: np.ndarray) -> Evidence:
        """Every sub-test of both hypotheses on a block of line signals.

        Each hypothesis screens each party with a variance test and a shape
        test (shape only for Cauchy sources). The per-test level is the
        significance divided by the number of sub-tests (Bonferroni), so a
        true hypothesis survives with probability at least
        ``1 - significance``. Each kind of p-value is computed once per
        block, over all of its hypotheses, parties and rows together.

        Each hypothesis works in one buffer of the block's shape, the
        leading rows of the instance's kept buffers. Rows longer than
        ``kljn.line.BLOCK_SAMPLES`` test ``ALICE_HIGH`` on a helper thread
        while ``ALICE_LOW`` runs on the calling thread; the sort,
        interpolation and arithmetic kernels release the GIL. Shorter
        rows hold the GIL too much of the time to gain, so they run the two
        in turn. The results are bitwise the same either way.
        """
        rows, n = voltage.shape
        if n < MIN_TEST_SAMPLES:
            raise ValueError(f"attack needs at least {MIN_TEST_SAMPLES} samples")
        buffers = self._buffers
        if buffers is None or rows > buffers.shape[1] or n != buffers.shape[2]:
            # Allocated here, not on the helper thread, which would take them
            # from a malloc arena of its own and raise peak memory. The old
            # pair goes first, so the two pairs are never held at once.
            self._buffers = buffers = None
            self._buffers = buffers = np.empty((2, rows, n))
        jobs = [
            partial(self._hypothesis, voltage, current, alice, bob, buffer[:rows])
            for (_, alice, bob), buffer in zip(_HYPOTHESES, buffers)
        ]
        hypotheses = _on_two_threads(*jobs) if n > line.BLOCK_SAMPLES else [job() for job in jobs]
        mean_square, statistic = map(np.array, zip(*hypotheses))
        z = (mean_square - self._variance) / (self._variance * math.sqrt(2.0 / n))
        variance_p = _z_p_value(z)
        shape_p = _kolmogorov_sf(math.sqrt(n) * statistic)
        rejected = ((variance_p < self.level) | (shape_p < self.level)).any(axis=1)
        return Evidence(z, variance_p, statistic, shape_p, rejected)

    def _hypothesis(
        self,
        voltage: np.ndarray,
        current: np.ndarray,
        alice_state: SwitchState,
        bob_state: SwitchState,
        buffer: np.ndarray,
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-row mean squares (NaN for Cauchy) and KS distances of Alice and Bob.

        Both parties work inside ``buffer``: the reconstruction is squared
        in place for the mean square, made again and sorted in place for the
        shape test. This can run on a helper thread, so it calls none of
        the functions ``bench/spans.py`` wraps: its tracer keeps one span
        stack and assumes one thread.
        """
        mean_squares, statistics = [], []
        for alice, state in ((True, alice_state), (False, bob_state)):
            spec, reference = self.by_state[state]
            r = resistance_for(self.pair, state)
            if spec.kind is DistributionKind.CAUCHY:
                mean_squares.append(np.full(len(buffer), np.nan))
            else:
                mean_squares.append(_mean_square(_reconstruct(voltage, current, r, alice, buffer)))
            _reconstruct(voltage, current, r, alice, buffer).sort(axis=1)
            statistics.append(_ks_statistic(buffer, reference))
        return mean_squares, statistics

    def decisions(self, voltage: np.ndarray, current: np.ndarray) -> list[EveDecision]:
        """One decision per row of a block of line signals.

        A decision names the surviving hypothesis when exactly one of the
        two was rejected; it is undecided when both survive (the secure
        situation) and also when both are rejected, which points at a
        non-mixed bit or a model mismatch rather than at either mixed
        assignment.
        """
        low_rejected, high_rejected = self.tests(voltage, current).rejected
        return [_VERDICTS[k] for k in (low_rejected + 2 * high_rejected).tolist()]


def _on_two_threads(first: Callable[[], _T], second: Callable[[], _T]) -> list[_T]:
    """``[first(), second()]``, with ``second`` run on a helper thread meanwhile.

    An exception raised on the helper thread is raised again here, once
    both calls have ended.
    """
    outcome: dict[str, object] = {}

    def helper() -> None:
        try:
            outcome["value"] = second()
        except BaseException as exc:
            outcome["error"] = exc

    thread = threading.Thread(target=helper, name="kljn-hypothesis")
    thread.start()
    try:
        value = first()
    finally:
        thread.join()
    if "error" in outcome:
        raise outcome["error"]
    return [value, outcome["value"]]


def decision_credit(decision: EveDecision, true_alice_state: SwitchState) -> float:
    """Score one attack decision: 1 correct, 0 wrong, 0.5 undecided."""
    if decision is EveDecision.UNDECIDED:
        return 0.5
    guessed_low = decision is EveDecision.ALICE_LOW
    truly_low = true_alice_state is SwitchState.LOW
    return 1.0 if guessed_low == truly_low else 0.0


@dataclass(frozen=True)
class AttackTrialSummary:
    """Aggregate outcome of repeated attacks on fresh mixed-state bits."""

    trials: int
    correct: int
    wrong: int
    undecided: int
    accuracy: float
    decisions: tuple[EveDecision, ...]
    truths: tuple[SwitchState, ...]

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "correct": self.correct,
            "trials": self.trials,
            "undecided": self.undecided,
            "wrong": self.wrong,
        }


def check_trial_settings(
    samples_per_trial: int, trials: int, significance: float, seed: int
) -> None:
    """Refuse settings :func:`attack_trials` cannot run, before anything is drawn."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if samples_per_trial < MIN_TEST_SAMPLES:
        raise ValueError(f"trials need at least {MIN_TEST_SAMPLES} samples each")
    _check_significance(significance)
    if seed < 0:
        raise ValueError("seed must be non-negative")


def run_blocks(
    pair: ResistorPair,
    spec_low: NoiseSpec,
    spec_high: NoiseSpec,
    samples: int,
    bits: int,
    significance: float,
    seed: int,
    switches: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
) -> Iterator[tuple[range, np.ndarray, np.ndarray, np.ndarray, list[EveDecision]]]:
    """Draw, solve and attack ``bits`` bits of ``samples`` samples each, one block at a time.

    This is the one run loop of sessions and attack trials. Bit ``i`` draws
    its two coins from stream ``(seed, i, 0)`` as ``integers(0, 2,
    size=2)``; ``switches`` maps the block's ``(rows, 2)`` boolean coin
    array to the switch states ``(alice_high, bob_high)``. The sources and
    the line follow (:func:`kljn.line.line_block`), and the mixed rows are
    attacked, without a copy when every row is mixed. Each block yields
    ``(rows, alice_high, bob_high, voltage, verdicts)``: its bit indices,
    its switch states, its line voltage (scratch once yielded; the next
    block overwrites it) and one :class:`EveDecision` per mixed row.

    Bits run in blocks of ``kljn.line.BLOCK_SAMPLES // samples`` (at least
    one), held as ``(bits, samples)`` arrays. The run allocates its two
    line arrays once, shaped like the first block, and each block is drawn
    and solved in their leading rows; with the attack's two kept hypothesis
    buffers, a run holds four arrays of its block's size at most. A longer
    trace runs alone in its block, and its two hypotheses run on two
    threads, one buffer each (see :meth:`BlockAttack.tests`). Every bit
    keeps its own streams (a block's keys are derived in one pass,
    :class:`kljn.noise.BlockStreams`), so the outcome depends neither on
    the block size nor on the threading.
    """
    eve = BlockAttack(pair, spec_low, spec_high, significance)
    bit_blocks = blocks(bits, samples)
    line_arrays = np.empty((2, len(bit_blocks[0]), samples))
    for rows in bit_blocks:
        streams = BlockStreams(seed, rows)
        coins = np.array([rng.integers(0, 2, size=2) for rng in streams.each(0)], dtype=bool)
        alice_high, bob_high = switches(coins)
        voltage, current = line_block(
            streams, alice_high, bob_high, pair, spec_low, spec_high, line_arrays[:, : len(rows)]
        )
        mixed = alice_high != bob_high
        attacked = (voltage, current) if mixed.all() else (voltage[mixed], current[mixed])
        yield rows, alice_high, bob_high, voltage, eve.decisions(*attacked)


def attack_trials(
    pair: ResistorPair,
    spec_low: NoiseSpec,
    spec_high: NoiseSpec,
    samples_per_trial: int,
    trials: int,
    significance: float = 0.01,
    seed: int = 0,
) -> AttackTrialSummary:
    """Measure attack accuracy over independent mixed-state bits.

    Each trial draws a fresh random mixed state and fresh sources, runs
    the attack, and scores it with half credit for undecided outcomes, so
    0.5 is the blind-guessing baseline. Trials run in :func:`run_blocks`
    with the streams of a session's bits: trial ``i``'s first coin ``c0``
    sets Alice low, so the switches are ``(~c0, c0)``.
    """
    check_trial_settings(samples_per_trial, trials, significance, seed)
    states = (SwitchState.LOW, SwitchState.HIGH)
    decisions: list[EveDecision] = []
    truths: list[SwitchState] = []

    def switches(coins: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return ~coins[:, 0], coins[:, 0]

    run = run_blocks(
        pair, spec_low, spec_high, samples_per_trial, trials, significance, seed, switches
    )
    for _, alice_high, _, _, verdicts in run:
        decisions += verdicts
        truths += [states[high] for high in alice_high.tolist()]
    credits = [decision_credit(d, s) for d, s in zip(decisions, truths)]
    n_correct = credits.count(1.0)
    n_undecided = decisions.count(EveDecision.UNDECIDED)
    return AttackTrialSummary(
        trials=trials,
        correct=n_correct,
        wrong=trials - n_correct - n_undecided,
        undecided=n_undecided,
        accuracy=sum(credits) / trials,
        decisions=tuple(decisions),
        truths=tuple(truths),
    )
