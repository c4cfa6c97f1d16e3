"""Full key-exchange sessions: bit exchange, sifting, and leak accounting.

Per bit, both parties flip an independent fair coin for their switch and
drive the line for a fixed number of samples. Everyone classifies the
measured line-voltage variance into one of three levels. The outer levels
expose both switch positions and are discarded; the middle level is the
secure regime in which each party learns the other's bit by elimination.
An eavesdropper instance attacks every truly mixed bit, and the session
records how often she wins beyond the coin-flip baseline.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .eve import (
    MIN_TEST_SAMPLES,
    BlockAttack,
    EveDecision,
    _check_significance,
    _mean_square,
    decision_credit,
)
from .line import SwitchState, blocks, line_block, theoretical_line_variance
from .noise import (
    BlockStreams,
    DistributionKind,
    NoiseSpec,
    ResistorPair,
    check_sigmas,
    security_sigma_ratio,
)
# Unused here; bench/test_bench.py checks that its tracer wraps this binding.
from .noise import stream  # noqa: F401


class Level(str, Enum):
    """Classified line-voltage variance band."""

    LOW = "low"
    MID = "mid"
    HIGH = "high"


@dataclass(frozen=True)
class SessionConfig:
    """Everything needed to reproduce a session bit for bit."""

    pair: ResistorPair
    kind: DistributionKind
    sigma_low: float
    sigma_high: float
    samples_per_bit: int
    bits: int
    seed: int
    significance: float = 0.01

    def __post_init__(self) -> None:
        if not isinstance(self.kind, DistributionKind):
            object.__setattr__(self, "kind", DistributionKind(self.kind))
        if self.kind is DistributionKind.CAUCHY:
            raise ValueError("sessions need finite-variance noise for level classification")
        check_sigmas(self.sigma_low, self.sigma_high)
        if self.samples_per_bit < MIN_TEST_SAMPLES:
            raise ValueError(f"samples_per_bit must be at least {MIN_TEST_SAMPLES}")
        if self.bits < 1:
            raise ValueError("bits must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        _check_significance(self.significance)
        _level_cuts(self.pair, self.sigma_low, self.sigma_high)

    def to_dict(self) -> dict:
        return {
            "bits": self.bits,
            "kind": self.kind.value,
            "r_high": self.pair.r_high,
            "r_low": self.pair.r_low,
            "samples_per_bit": self.samples_per_bit,
            "seed": self.seed,
            "sigma_high": self.sigma_high,
            "sigma_low": self.sigma_low,
            "significance": self.significance,
        }


@dataclass(frozen=True)
class BitRecord:
    """One exchanged bit as every observer bookkeeps it."""

    bit_index: int
    alice_state: SwitchState
    bob_state: SwitchState
    classified_level: Level
    secure: bool
    discarded: bool
    key_bit: int | None
    eve_decision: EveDecision | None

    def to_dict(self) -> dict:
        return {
            "alice_state": self.alice_state.value,
            "bit_index": self.bit_index,
            "bob_state": self.bob_state.value,
            "classified_level": self.classified_level.value,
            "discarded": self.discarded,
            "eve_decision": None if self.eve_decision is None else self.eve_decision.value,
            "key_bit": self.key_bit,
            "secure": self.secure,
        }


@dataclass(frozen=True)
class SessionOutcome:
    """Session aggregates plus the full per-bit record."""

    records: tuple[BitRecord, ...]
    secure_bit_fraction: float
    bit_error_rate: float
    eve_accuracy: float | None

    def to_dict(self) -> dict:
        return {
            "aggregates": {
                "bit_error_rate": self.bit_error_rate,
                "eve_accuracy": self.eve_accuracy,
                "secure_bit_fraction": self.secure_bit_fraction,
            },
            "bits": [r.to_dict() for r in self.records],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


_CSV_HEADER = "bit_index,alice_state,bob_state,classified_level,secure,discarded,key_bit,eve_decision"


def records_csv(records: tuple[BitRecord, ...]) -> str:
    """Per-bit records as CSV text: comma separated, LF line endings."""
    rows = [_CSV_HEADER]
    for r in records:
        rows.append(
            ",".join(
                (
                    str(r.bit_index),
                    r.alice_state.value,
                    r.bob_state.value,
                    r.classified_level.value,
                    "true" if r.secure else "false",
                    "true" if r.discarded else "false",
                    "" if r.key_bit is None else str(r.key_bit),
                    "" if r.eve_decision is None else r.eve_decision.value,
                )
            )
        )
    return "\n".join(rows) + "\n"


_LEVELS = (Level.LOW, Level.MID, Level.HIGH)


def _level_cuts(pair: ResistorPair, sigma_low: float, sigma_high: float) -> tuple[float, float]:
    """Cut points between adjacent levels: geometric means of their theoretical variances."""
    v_low = theoretical_line_variance(pair, sigma_low, sigma_high, SwitchState.LOW, SwitchState.LOW)
    v_mid = theoretical_line_variance(pair, sigma_low, sigma_high, SwitchState.LOW, SwitchState.HIGH)
    v_high = theoretical_line_variance(
        pair, sigma_low, sigma_high, SwitchState.HIGH, SwitchState.HIGH
    )
    if not v_low < v_mid < v_high:
        raise ValueError("level variances are not strictly ordered for this configuration")
    return math.sqrt(v_low * v_mid), math.sqrt(v_mid * v_high)


def _classify_rows(measured: np.ndarray, cuts: tuple[float, float]) -> list[Level]:
    """Level of each measured variance, nearest in log space.

    A value exactly on a cut falls to the lower level.
    """
    if not (np.isfinite(measured).all() and (measured >= 0.0).all()):
        raise ValueError("measured variance must be non-negative and finite")
    return [_LEVELS[k] for k in np.searchsorted(cuts, measured).tolist()]


def _true_level(a_state: SwitchState, b_state: SwitchState) -> Level:
    if a_state is b_state:
        return Level.LOW if a_state is SwitchState.LOW else Level.HIGH
    return Level.MID


def run_session(config: SessionConfig) -> SessionOutcome:
    """Exchange ``config.bits`` bits and attack every secure one.

    Per bit ``i`` the streams are ``(seed, i, 0)`` for the two switch
    coins, ``(seed, i, 1)`` for Alice's source and ``(seed, i, 2)`` for
    Bob's, making sessions reproducible and parallel-safe. A bit is
    discarded when its classified level disagrees with the true joint
    state. On a kept mid-level bit Alice's key bit is her own switch
    (low is 0, high is 1) and Bob takes the complement of his switch;
    the two derivations agree whenever the bit really is mixed.

    Bits are processed in blocks of ``kljn.line.BLOCK_SAMPLES //
    samples_per_bit`` (at least one), held as ``(bits, samples)`` arrays.
    The budget of 2**15 float64 samples (256 KiB) per array keeps each
    array in L2 and peak memory flat however many bits a session has. The
    session allocates its two line arrays once, shaped like the first
    block, and each block is drawn and solved in their leading rows
    (:func:`kljn.line.line_block`); with the attack's two kept hypothesis
    buffers, four arrays of the block's size at most. Every bit keeps its
    own streams (a block's keys are derived in one pass,
    :class:`kljn.noise.BlockStreams`), so the outcome does not depend on
    the block size.
    """
    pair = config.pair
    spec_low = NoiseSpec(config.kind, config.sigma_low)
    spec_high = NoiseSpec(config.kind, config.sigma_high)
    eve = BlockAttack(pair, spec_low, spec_high, config.significance)
    cuts = _level_cuts(pair, config.sigma_low, config.sigma_high)
    samples = config.samples_per_bit
    states = (SwitchState.LOW, SwitchState.HIGH)
    records: list[BitRecord] = []
    credits: list[float] = []
    bit_blocks = blocks(config.bits, samples)
    line_arrays = np.empty((2, len(bit_blocks[0]), samples))
    for bits in bit_blocks:
        streams = BlockStreams(config.seed, bits)
        coins = np.array([rng.integers(0, 2, size=2) for rng in streams.each(0)], dtype=bool)
        alice_high, bob_high = coins[:, 0], coins[:, 1]
        voltage, current = line_block(
            streams, alice_high, bob_high, pair, spec_low, spec_high, line_arrays[:, : len(bits)]
        )
        mixed = alice_high != bob_high
        # A long bit runs alone in its block; when it is mixed, it needs no copy.
        attacked = (voltage, current) if mixed.all() else (voltage[mixed], current[mixed])
        verdicts = iter(eve.decisions(*attacked))
        # Last use of the block's voltage, so it is squared in place.
        levels = _classify_rows(_mean_square(voltage), cuts)
        for i, a_high, b_high, level in zip(bits, alice_high.tolist(), bob_high.tolist(), levels):
            a_state = states[a_high]
            b_state = states[b_high]
            secure = a_state is not b_state
            discarded = level is not _true_level(a_state, b_state)
            key_bit: int | None = None
            if secure and not discarded:
                key_bit = 0 if a_state is SwitchState.LOW else 1
            eve_decision: EveDecision | None = None
            if secure:
                eve_decision = next(verdicts)
                credits.append(decision_credit(eve_decision, a_state))
            records.append(
                BitRecord(
                    bit_index=i,
                    alice_state=a_state,
                    bob_state=b_state,
                    classified_level=level,
                    secure=secure,
                    discarded=discarded,
                    key_bit=key_bit,
                    eve_decision=eve_decision,
                )
            )
    n_secure = len(credits)
    return SessionOutcome(
        records=tuple(records),
        secure_bit_fraction=n_secure / config.bits,
        bit_error_rate=0.0,  # sifting checks the true joint state, so every kept bit agrees
        eve_accuracy=None if n_secure == 0 else sum(credits) / n_secure,
    )


@dataclass(frozen=True)
class SweepPoint:
    """Eavesdropper accuracy at one amplitude-ratio multiplier."""

    multiplier: float
    eve_accuracy: float | None

    def to_dict(self) -> dict:
        return {"eve_accuracy": self.eve_accuracy, "multiplier": self.multiplier}


def sweep_configs(base: SessionConfig, multipliers: list[float]) -> list[SessionConfig]:
    """The session of each sweep point, checked before any of them runs.

    Each multiplier ``m`` replaces ``sigma_high`` with ``m`` times the
    indistinguishability value ``sigma_low * sqrt(r_high / r_low)``, so a
    multiplier whose product overflows is refused here.
    """
    if not multipliers:
        raise ValueError("multipliers must be non-empty")
    if any(not math.isfinite(m) or m <= 0.0 for m in multipliers):
        raise ValueError("multipliers must be positive and finite")
    ratio = security_sigma_ratio(base.pair)
    return [replace(base, sigma_high=m * base.sigma_low * ratio) for m in multipliers]


def leak_sweep(base: SessionConfig, multipliers: list[float]) -> list[SweepPoint]:
    """Rerun a session at scaled high-side amplitudes and track the leak.

    The sessions are :func:`sweep_configs`: multiplier 1.0 is the compliant
    operating point and anything else violates the amplitude law by that
    factor.
    """
    return [
        SweepPoint(multiplier=m, eve_accuracy=run_session(config).eve_accuracy)
        for m, config in zip(multipliers, sweep_configs(base, multipliers))
    ]
