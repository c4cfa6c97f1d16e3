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
the two tests below can see.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np
from scipy import special

from .density import PdfGrid, analytic_pdf, symmetric_grid, weights
from .line import LineTrace, SwitchState, blocks, line_block, resistance_for
from .noise import BlockStreams, DistributionKind, NoiseSpec, ResistorPair, Trace
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


class EveDecision(str, Enum):
    """Outcome of one attack on one mixed-state bit."""

    ALICE_LOW = "alice_low"
    ALICE_HIGH = "alice_high"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class VarianceTestResult:
    """Two-sided z test of a sample second moment against a known variance.

    The sources are zero-mean by construction, so the variance estimator
    is the plain mean of squares and ``z`` compares it to the expected
    variance in units of the Gaussian-sampling standard error
    ``expected * sqrt(2 / n)``.
    """

    n: int
    sample_variance: float
    expected_variance: float
    z: float
    p_value: float
    reject: bool

    def to_dict(self) -> dict:
        return {
            "expected_variance": self.expected_variance,
            "n": self.n,
            "p_value": self.p_value,
            "reject": self.reject,
            "sample_variance": self.sample_variance,
            "z": self.z,
        }


@dataclass(frozen=True)
class ShapeTestResult:
    """One-sample Kolmogorov-Smirnov test against a tabulated density."""

    n: int
    statistic: float
    p_value: float
    reject: bool

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "p_value": self.p_value,
            "reject": self.reject,
            "statistic": self.statistic,
        }


@dataclass(frozen=True)
class HypothesisReport:
    """All sub-test results for one candidate assignment.

    Variance entries are ``None`` when the corresponding source is
    Cauchy, which has no variance to test.
    """

    alice_variance: VarianceTestResult | None
    bob_variance: VarianceTestResult | None
    alice_shape: ShapeTestResult
    bob_shape: ShapeTestResult
    rejected: bool

    def to_dict(self) -> dict:
        return {
            "alice_shape": self.alice_shape.to_dict(),
            "alice_variance": None if self.alice_variance is None else self.alice_variance.to_dict(),
            "bob_shape": self.bob_shape.to_dict(),
            "bob_variance": None if self.bob_variance is None else self.bob_variance.to_dict(),
            "rejected": self.rejected,
        }


@dataclass(frozen=True)
class EveVerdict:
    """Attack outcome: a decision plus the evidence behind it.

    The decision names the surviving hypothesis when exactly one of the
    two was rejected at the configured significance; it is undecided when
    both survive (the secure situation) and also when both are rejected,
    which points at a non-mixed bit or a model mismatch rather than at
    either mixed assignment.
    """

    decision: EveDecision
    significance: float
    reports: dict[str, HypothesisReport]

    def to_dict(self) -> dict:
        return {
            "decision": self.decision.value,
            "hypotheses": {k: v.to_dict() for k, v in sorted(self.reports.items())},
            "significance": self.significance,
        }


def reconstruct_alice(line: LineTrace, r_alice: float) -> Trace:
    """Invert the loop for Alice's source assuming she presents ``r_alice``."""
    if r_alice <= 0.0:
        raise ValueError("resistance must be positive")
    return Trace(_reconstruct(line.voltage.samples, line.current.samples, r_alice, alice=True))


def reconstruct_bob(line: LineTrace, r_bob: float) -> Trace:
    """Invert the loop for Bob's source assuming he presents ``r_bob``."""
    if r_bob <= 0.0:
        raise ValueError("resistance must be positive")
    return Trace(_reconstruct(line.voltage.samples, line.current.samples, r_bob, alice=False))


def _reconstruct(voltage: np.ndarray, current: np.ndarray, r: float, alice: bool) -> np.ndarray:
    """Source estimate of Alice (or Bob) presenting ``r``, for arrays of any shape."""
    return voltage - current * r if alice else voltage + current * r


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


def variance_test(samples: Trace, expected_sigma: float, significance: float) -> VarianceTestResult:
    """Test whether a zero-mean trace has the claimed standard deviation."""
    n = len(samples)
    if n < MIN_TEST_SAMPLES:
        raise ValueError(f"variance test needs at least {MIN_TEST_SAMPLES} samples")
    if expected_sigma <= 0.0:
        raise ValueError("expected_sigma must be positive")
    _check_significance(significance)
    return _variance_rows(samples.samples[None, :], expected_sigma, significance).result(0)


def shape_test(samples: Trace, reference: PdfGrid, significance: float) -> ShapeTestResult:
    """One-sample KS test of a trace against a tabulated reference density.

    The reference CDF is the cumulative trapezoid of the grid; sample CDF
    values outside the grid clamp to 0 or 1. The p-value uses the
    asymptotic Kolmogorov distribution of ``sqrt(n) * D``.
    """
    n = len(samples)
    if n < MIN_TEST_SAMPLES:
        raise ValueError(f"shape test needs at least {MIN_TEST_SAMPLES} samples")
    _check_significance(significance)
    rows = np.sort(samples.samples[None, :], axis=1)
    return _shape_rows(rows, _reference_cdf(reference), _ks_steps(n), significance).result(0)


def _check_significance(significance: float) -> None:
    if not 0.0 < significance < 1.0:
        raise ValueError("significance must lie in (0, 1)")


def _reference_cdf(reference: PdfGrid) -> tuple[np.ndarray, np.ndarray]:
    """Abscissae and CDF of a shape reference, checked for unit mass."""
    if abs(reference.integral() - 1.0) > 1e-6:
        raise ValueError("reference density is not normalized")
    return reference.x, reference.cdf()


class _VarianceRows(NamedTuple):
    """Variance z test of every row of a block: one entry per row."""

    n: int
    expected: float
    observed: np.ndarray
    z: np.ndarray
    p: np.ndarray
    reject: np.ndarray

    def result(self, k: int) -> VarianceTestResult:
        return VarianceTestResult(
            n=self.n,
            sample_variance=float(self.observed[k]),
            expected_variance=self.expected,
            z=float(self.z[k]),
            p_value=float(self.p[k]),
            reject=bool(self.reject[k]),
        )


class _ShapeRows(NamedTuple):
    """KS test of every row of a block: one entry per row."""

    n: int
    statistic: np.ndarray
    p: np.ndarray
    reject: np.ndarray

    def result(self, k: int) -> ShapeTestResult:
        return ShapeTestResult(
            n=self.n,
            statistic=float(self.statistic[k]),
            p_value=float(self.p[k]),
            reject=bool(self.reject[k]),
        )


def _variance_rows(x: np.ndarray, expected_sigma: float, level: float) -> _VarianceRows:
    n = x.shape[1]
    expected = expected_sigma**2
    observed = np.mean(x**2, axis=1)
    z = (observed - expected) / (expected * math.sqrt(2.0 / n))
    p = 2.0 * special.ndtr(-np.abs(z))
    return _VarianceRows(n, expected, observed, z, p, p < level)


def _ks_steps(n: int) -> np.ndarray:
    """Empirical CDF levels ``k / n`` for ``k = 0 .. n``, shared by a block's KS tests."""
    return np.arange(n + 1, dtype=np.float64) / n


def _shape_rows(
    x: np.ndarray, reference: tuple[np.ndarray, np.ndarray], steps: np.ndarray, level: float
) -> _ShapeRows:
    """KS test of rows sorted in ascending order; ``x`` is reused as scratch and overwritten.

    ``d+ = max(k/n - cdf) = -min(cdf - k/n)`` over ``k = 1 .. n`` and
    ``d- = max(cdf - (k-1)/n)``; IEEE subtraction is antisymmetric, so both
    are bitwise the plain formulas.
    """
    n = x.shape[1]
    cdf = np.interp(x, *reference)
    diff = np.subtract(cdf, steps[1:], out=x)
    d_plus = -np.min(diff, axis=1)
    diff = np.subtract(cdf, steps[:-1], out=x)
    d_minus = np.max(diff, axis=1)
    statistic = np.maximum(d_plus, d_minus)
    p = special.kolmogorov(math.sqrt(n) * statistic)
    return _ShapeRows(n, statistic, p, p < level)


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
    built and checked for unit mass once rather than once per bit.
    """

    def __init__(
        self,
        pair: ResistorPair,
        spec_low: NoiseSpec,
        spec_high: NoiseSpec,
        significance: float,
        references: tuple[PdfGrid, PdfGrid],
    ) -> None:
        self.pair = pair
        self.significance = significance
        self.by_state = {
            SwitchState.LOW: (spec_low, _reference_cdf(references[0])),
            SwitchState.HIGH: (spec_high, _reference_cdf(references[1])),
        }

    def tests(self, voltage: np.ndarray, current: np.ndarray) -> dict[EveDecision, _HypothesisRows]:
        """Every sub-test of both hypotheses on a block of line signals.

        The per-test level is the significance divided by the number of
        sub-tests (Bonferroni); Cauchy sources get a shape test only.
        """
        steps = _ks_steps(voltage.shape[1])
        out = {}
        for decision, alice_state, bob_state in _HYPOTHESES:
            parties = ((True, alice_state), (False, bob_state))
            n_tests = sum(
                1 if self.by_state[state][0].kind is DistributionKind.CAUCHY else 2
                for _, state in parties
            )
            level = self.significance / n_tests
            variances: list[_VarianceRows | None] = []
            shapes: list[_ShapeRows] = []
            rejected = np.zeros(voltage.shape[0], dtype=bool)
            for alice, state in parties:
                spec, ref = self.by_state[state]
                x = _reconstruct(voltage, current, resistance_for(self.pair, state), alice)
                if spec.kind is DistributionKind.CAUCHY:
                    variances.append(None)
                else:
                    variances.append(_variance_rows(x, spec.scale, level))
                    rejected |= variances[-1].reject
                x.sort(axis=1)
                shapes.append(_shape_rows(x, ref, steps, level))
                rejected |= shapes[-1].reject
            out[decision] = _HypothesisRows(*variances, *shapes, rejected)
        return out

    def decisions(self, voltage: np.ndarray, current: np.ndarray) -> list[EveDecision]:
        """One decision per row of a block of line signals."""
        tests = self.tests(voltage, current)
        low_rejected = tests[EveDecision.ALICE_LOW].rejected.tolist()
        high_rejected = tests[EveDecision.ALICE_HIGH].rejected.tolist()
        return [_decide(low, high) for low, high in zip(low_rejected, high_rejected)]


class _HypothesisRows(NamedTuple):
    """All sub-tests of one hypothesis on a block; ``rejected`` flags each row."""

    alice_variance: _VarianceRows | None
    bob_variance: _VarianceRows | None
    alice_shape: _ShapeRows
    bob_shape: _ShapeRows
    rejected: np.ndarray

    def report(self, k: int) -> HypothesisReport:
        return HypothesisReport(
            alice_variance=None if self.alice_variance is None else self.alice_variance.result(k),
            bob_variance=None if self.bob_variance is None else self.bob_variance.result(k),
            alice_shape=self.alice_shape.result(k),
            bob_shape=self.bob_shape.result(k),
            rejected=bool(self.rejected[k]),
        )


def _decide(low_rejected: bool, high_rejected: bool) -> EveDecision:
    if low_rejected and not high_rejected:
        return EveDecision.ALICE_HIGH
    if high_rejected and not low_rejected:
        return EveDecision.ALICE_LOW
    return EveDecision.UNDECIDED


def attack(
    line: LineTrace,
    pair: ResistorPair,
    spec_low: NoiseSpec,
    spec_high: NoiseSpec,
    significance: float = 0.01,
    references: tuple[PdfGrid, PdfGrid] | None = None,
) -> EveVerdict:
    """Try both mixed-state hypotheses against one bit's line signals.

    Each hypothesis is screened with a variance test and a shape test per
    party; the per-test level is the configured significance divided by
    the number of sub-tests (Bonferroni), so a true hypothesis survives
    with probability at least ``1 - significance``. ``references`` lets a
    caller reuse pre-tabulated low and high reference densities across
    many bits.
    """
    _check_significance(significance)
    if len(line) < MIN_TEST_SAMPLES:
        raise ValueError(f"attack needs at least {MIN_TEST_SAMPLES} samples")
    if references is None:
        references = (reference_grid(spec_low), reference_grid(spec_high))
    eve = BlockAttack(pair, spec_low, spec_high, significance, references)
    tests = eve.tests(line.voltage.samples[None, :], line.current.samples[None, :])
    reports = {decision.value: rows.report(0) for decision, rows in tests.items()}
    decision = _decide(
        reports[EveDecision.ALICE_LOW.value].rejected,
        reports[EveDecision.ALICE_HIGH.value].rejected,
    )
    return EveVerdict(decision=decision, significance=significance, reports=reports)


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
    peak memory flat however many trials run; a long trace runs alone.
    Every trial keeps its own streams, so the outcome does not depend on
    the block size.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if samples_per_trial < MIN_TEST_SAMPLES:
        raise ValueError(f"trials need at least {MIN_TEST_SAMPLES} samples each")
    _check_significance(significance)
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
