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
returns every sub-test's statistic, p-value and verdict per row: the
per-bit evidence behind each :class:`EveDecision`. :func:`attack_trials`
runs it over fresh mixed-state bits and scores the decisions.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Callable
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


def _reference_cdf(reference: PdfGrid) -> tuple[np.ndarray, np.ndarray]:
    """Abscissae and CDF of a shape reference, checked for unit mass."""
    if abs(reference.integral() - 1.0) > 1e-6:
        raise ValueError("reference density is not normalized")
    return reference.x, reference.cdf()


class _VarianceRows(NamedTuple):
    """Two-sided variance z test of every row of a block: one entry per row.

    The sources are zero-mean by construction, so the variance estimator
    is the plain mean of squares (``observed``) and ``z`` compares it to
    the expected variance in units of the Gaussian-sampling standard error
    ``expected * sqrt(2 / n)``.
    """

    n: int
    expected: float
    observed: np.ndarray
    z: np.ndarray
    p: np.ndarray
    reject: np.ndarray


class _ShapeRows(NamedTuple):
    """One-sample KS test of every row of a block against a tabulated density.

    The reference CDF is the cumulative trapezoid of the grid; sample CDF
    values outside the grid clamp to 0 or 1. The p-value uses the
    asymptotic Kolmogorov distribution of ``sqrt(n) * D``.
    """

    n: int
    statistic: np.ndarray
    p: np.ndarray
    reject: np.ndarray


def _variance_z(x: np.ndarray, expected_sigma: float) -> tuple[float, np.ndarray, np.ndarray]:
    """Expected variance, per-row mean square and per-row z score of zero-mean rows.

    ``x`` is squared in place, so it is overwritten; the mean square is
    bitwise ``np.mean(x**2, axis=1)``.
    """
    n = x.shape[1]
    expected = expected_sigma**2
    observed = np.mean(np.square(x, out=x), axis=1)
    z = (observed - expected) / (expected * math.sqrt(2.0 / n))
    return expected, observed, z


def _variance_results(
    n: int, moments: list[tuple[float, np.ndarray, np.ndarray]], level: float
) -> list[_VarianceRows]:
    """Variance tests from :func:`_variance_z` outputs, all p-values in one kernel call."""
    if not moments:
        return []
    p_values = _z_p_value(np.array([z for _, _, z in moments]))
    return [
        _VarianceRows(n, expected, observed, z, p, reject)
        for (expected, observed, z), p, reject in zip(moments, p_values, p_values < level)
    ]


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
    are bitwise the plain formulas. The columns go in chunks of
    ``kljn.line.BLOCK_SAMPLES // rows`` (at least one), so the CDF and the
    levels ``k / n`` are never held at full length; minima and maxima over
    chunks are exact, so D does not depend on the chunking.
    """
    rows, n = x.shape
    width = max(1, line.BLOCK_SAMPLES // max(rows, 1))
    lowest = np.full(rows, np.inf)
    highest = np.full(rows, -np.inf)
    for start in range(0, n, width):
        part = x[:, start : start + width]
        cdf = np.interp(part, *reference)
        steps = np.arange(start, start + part.shape[1] + 1, dtype=np.float64) / n
        np.minimum(lowest, np.min(np.subtract(cdf, steps[1:], out=part), axis=1), out=lowest)
        np.maximum(highest, np.max(np.subtract(cdf, steps[:-1], out=part), axis=1), out=highest)
    return np.maximum(-lowest, highest)


def _shape_results(n: int, statistics: list[np.ndarray], level: float) -> list[_ShapeRows]:
    """KS tests from :func:`_ks_statistic` outputs, all p-values in one kernel call."""
    p_values = _kolmogorov_sf(math.sqrt(n) * np.array(statistics))
    return [_ShapeRows(n, *row) for row in zip(statistics, p_values, p_values < level)]


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


class BlockAttack:
    """Both mixed-state hypotheses, tested on blocks of bits held one per row.

    Built once per attack, session or trial run, so each reference CDF is
    built and checked for unit mass once rather than once per bit. The
    significance must lie in (0, 1) and each row must hold at least
    ``MIN_TEST_SAMPLES`` samples. A block whose rows are longer than
    ``kljn.line.BLOCK_SAMPLES`` (a long trace, which runs alone) has its
    two hypotheses tested on two threads, one buffer each; the outcome
    does not depend on the threading.
    """

    def __init__(
        self,
        pair: ResistorPair,
        spec_low: NoiseSpec,
        spec_high: NoiseSpec,
        significance: float,
        references: tuple[PdfGrid, PdfGrid],
    ) -> None:
        _check_significance(significance)
        self.pair = pair
        self.significance = significance
        self.by_state = {
            SwitchState.LOW: (spec_low, _reference_cdf(references[0])),
            SwitchState.HIGH: (spec_high, _reference_cdf(references[1])),
        }
        # Each hypothesis tests one low and one high party, so both share
        # one Bonferroni level; Cauchy sources get a shape test only.
        n_tests = sum(
            1 if spec.kind is DistributionKind.CAUCHY else 2 for spec in (spec_low, spec_high)
        )
        self.level = significance / n_tests

    def tests(self, voltage: np.ndarray, current: np.ndarray) -> dict[EveDecision, _HypothesisRows]:
        """Every sub-test of both hypotheses on a block of line signals.

        Each hypothesis screens each party with a variance test and a shape
        test (shape only for Cauchy sources). The per-test level is the
        significance divided by the number of sub-tests (Bonferroni), so a
        true hypothesis survives with probability at least
        ``1 - significance``. The block's p-values are computed once per
        kind of test, over all of its rows and sub-tests together.

        Each hypothesis works in one buffer of the block's shape. Rows
        longer than ``kljn.line.BLOCK_SAMPLES`` test ``ALICE_HIGH`` on a
        helper thread while ``ALICE_LOW`` runs on the calling thread; the
        sort, interpolation and arithmetic kernels release the GIL. Shorter
        rows hold the GIL too much of the time to gain, so they run the two
        in turn. The results are bitwise the same either way.
        """
        n = voltage.shape[1]
        if n < MIN_TEST_SAMPLES:
            raise ValueError(f"attack needs at least {MIN_TEST_SAMPLES} samples")
        # Allocated here, not on the helper thread, which would take them
        # from a malloc arena of its own and raise peak memory.
        jobs = [
            partial(self._hypothesis, voltage, current, alice, bob, np.empty(voltage.shape))
            for _, alice, bob in _HYPOTHESES
        ]
        hypotheses = _on_two_threads(*jobs) if n > line.BLOCK_SAMPLES else [job() for job in jobs]
        moments, statistics = zip(*[party for hypothesis in hypotheses for party in hypothesis])
        tested = iter(_variance_results(n, [m for m in moments if m is not None], self.level))
        variances = [None if m is None else next(tested) for m in moments]
        shapes = _shape_results(n, statistics, self.level)
        out = {}
        for k, (decision, _, _) in enumerate(_HYPOTHESES):
            parties = slice(2 * k, 2 * k + 2)
            cells = [*variances[parties], *shapes[parties]]
            rejected = np.logical_or.reduce([c.reject for c in cells if c is not None])
            out[decision] = _HypothesisRows(*cells, rejected)
        return out

    def _hypothesis(
        self,
        voltage: np.ndarray,
        current: np.ndarray,
        alice_state: SwitchState,
        bob_state: SwitchState,
        buffer: np.ndarray,
    ) -> list[tuple[tuple[float, np.ndarray, np.ndarray] | None, np.ndarray]]:
        """Variance moments (None for Cauchy) and KS distance of Alice, then Bob, in one hypothesis.

        Both parties work inside ``buffer``: the reconstruction is squared
        in place for the variance, made again and sorted in place for the
        shape test. This can run on a helper thread, so it calls none of
        the functions ``bench/spans.py`` wraps: its tracer keeps one span
        stack and assumes one thread.
        """
        out = []
        for alice, state in ((True, alice_state), (False, bob_state)):
            spec, ref = self.by_state[state]
            r = resistance_for(self.pair, state)
            moment = None
            if spec.kind is not DistributionKind.CAUCHY:
                moment = _variance_z(_reconstruct(voltage, current, r, alice, buffer), spec.scale)
            _reconstruct(voltage, current, r, alice, buffer).sort(axis=1)
            out.append((moment, _ks_statistic(buffer, ref)))
        return out

    def decisions(self, voltage: np.ndarray, current: np.ndarray) -> list[EveDecision]:
        """One decision per row of a block of line signals.

        A decision names the surviving hypothesis when exactly one of the
        two was rejected; it is undecided when both survive (the secure
        situation) and also when both are rejected, which points at a
        non-mixed bit or a model mismatch rather than at either mixed
        assignment.
        """
        tests = self.tests(voltage, current)
        low_rejected = tests[EveDecision.ALICE_LOW].rejected.tolist()
        high_rejected = tests[EveDecision.ALICE_HIGH].rejected.tolist()
        return [_decide(low, high) for low, high in zip(low_rejected, high_rejected)]


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


class _HypothesisRows(NamedTuple):
    """All sub-tests of one hypothesis on a block; ``rejected`` flags each row."""

    alice_variance: _VarianceRows | None
    bob_variance: _VarianceRows | None
    alice_shape: _ShapeRows
    bob_shape: _ShapeRows
    rejected: np.ndarray


def _decide(low_rejected: bool, high_rejected: bool) -> EveDecision:
    if low_rejected and not high_rejected:
        return EveDecision.ALICE_HIGH
    if high_rejected and not low_rejected:
        return EveDecision.ALICE_LOW
    return EveDecision.UNDECIDED


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
    0.5 is the blind-guessing baseline. Streams are derived per trial
    from ``seed`` exactly as the protocol derives per-bit streams.

    Trials run in blocks of ``kljn.line.BLOCK_SAMPLES // samples_per_trial``
    (at least one), held as ``(trials, samples)`` arrays. The budget of
    2**15 float64 samples (256 KiB) per array keeps each array in L2 and
    peak memory flat however many trials run. A longer trace runs alone
    in its block, and its two hypotheses run on two threads, one buffer
    each (see :meth:`BlockAttack.tests`). Every trial keeps its own
    streams, so the outcome depends neither on the block size nor on the
    threading.
    """
    check_trial_settings(samples_per_trial, trials, significance, seed)
    references = (reference_grid(spec_low), reference_grid(spec_high))
    eve = BlockAttack(pair, spec_low, spec_high, significance, references)
    decisions: list[EveDecision] = []
    truths: list[SwitchState] = []
    for block in blocks(trials, samples_per_trial):
        streams = BlockStreams(seed, block)
        alice_low = np.array([bool(rng.integers(0, 2)) for rng in streams.each(0)])
        voltage, current = line_block(
            streams, ~alice_low, alice_low, pair, spec_low, spec_high, samples_per_trial
        )
        decisions += eve.decisions(voltage, current)
        truths += [SwitchState.LOW if low else SwitchState.HIGH for low in alice_low.tolist()]
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
