"""Full key-exchange sessions: bit exchange, sifting, and leak accounting.

Per bit, both parties flip an independent fair coin for their switch and
drive the line for a fixed number of samples. Everyone classifies the
measured line-voltage variance into one of three levels. The outer levels
expose both switch positions and are discarded; the middle level is the
secure regime in which each party learns the other's bit by elimination.
An eavesdropper instance attacks every truly mixed bit, and the session
records how often she wins beyond the coin-flip baseline.
:func:`attack_trials` runs the same attack alone, over fresh mixed-state
bits. Both run their bits in :func:`kljn.engine.run`.

A session's outcome is a table of read-only numpy columns: each party's
switch and the classified level per bit, and the attack's verdict code per
secure bit. Its aggregates, like those of :class:`AttackTrialSummary`, are
derived from its columns when it is built. Apart from its index, a bit's
record is one of a few categorical values, so it is one code:
:meth:`SessionOutcome.codes` gives each bit's code and :data:`RECORDS` the
record of each code, derived once by :func:`_record`. ``session.json`` and
``bits.csv`` render a bit as its index and its code's text, so rendering a
session holds one code per bit, never the session's records.
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from functools import cache

import numpy as np

from .engine import check_run_settings, run
from .eve import VERDICTS, BlockAttack, credits
from .line import theoretical_line_variance
from .noise import DistributionKind, NoiseSpec, ResistorPair, check_sigmas, check_variance
from .noise import security_sigma_ratio
# Unused here; bench/test_bench.py checks that its tracer wraps this binding.
from .noise import stream  # noqa: F401


# The names records give a switch (by the bool, high when set) and a
# classified level (by its index, low to high).
SWITCHES = ("low", "high")
LEVELS = ("low", "mid", "high")

# The per-bit fields of a session's records, in the column order of bits.csv.
BIT_FIELDS = (
    "bit_index",
    "alice_state",
    "bob_state",
    "classified_level",
    "secure",
    "discarded",
    "key_bit",
    "eve_decision",
)


def _record(alice_high: int, bob_high: int, level: int, verdict: int) -> tuple:
    """A bit's fields after ``bit_index`` (``BIT_FIELDS[1:]``): the one rule that derives them.

    ``alice_high`` and ``bob_high`` are the switches (1 when high), ``level``
    the classified level's index, low to high, and ``verdict`` the attack's
    verdict code, -1 for a bit that is not secure. Each is named by its
    entry in :data:`SWITCHES`, :data:`LEVELS` or :data:`kljn.eve.VERDICTS`.
    A bit is discarded when its level is not the true one, which the
    number of high switches indexes. Its ``key_bit`` (Alice's switch, low 0
    and high 1) is None unless it is secure and kept, and its
    ``eve_decision`` is None unless it is secure.
    """
    secure = alice_high != bob_high
    discarded = level != alice_high + bob_high
    return (
        SWITCHES[alice_high],
        SWITCHES[bob_high],
        LEVELS[level],
        secure,
        discarded,
        alice_high if secure and not discarded else None,
        None if verdict < 0 else VERDICTS[verdict],
    )


# The record of each code ((alice_high * 2 + bob_high) * 3 + level) * 5 +
# verdict + 1, which SessionOutcome.codes gives per bit. A bit has a verdict
# exactly when it is secure, so 30 of the 60 codes occur.
RECORDS = tuple(
    itertools.starmap(_record, itertools.product(range(2), range(2), range(3), range(-1, 4)))
)


@cache
def _json_records() -> tuple[str, ...]:
    """Each code's record as an item of session.json's "bits" list, ``%d`` for its ``bit_index``.

    The text is ``json.dumps(indent=2, sort_keys=True)`` of the record,
    indented to the depth of the list's items. Built on first use, so a
    command that renders no session does not pay for it.
    """
    texts = []
    for record in RECORDS:
        text = json.dumps(dict(zip(BIT_FIELDS, (0, *record))), indent=2, sort_keys=True)
        text = text.replace('"bit_index": 0', '"bit_index": %d')
        texts.append("    " + text.replace("\n", "\n    "))
    return tuple(texts)


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
        check_variance(self.kind, "sessions")
        check_sigmas(self.sigma_low, self.sigma_high)
        names = ("samples_per_bit", "bits")
        check_run_settings(self.samples_per_bit, self.bits, self.significance, self.seed, names)
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


@dataclass(frozen=True, eq=False)
class SessionOutcome:
    """The per-bit outcome of a session as read-only columns, and its aggregates.

    ``alice_high``, ``bob_high`` (each party's switch, high when set) and
    ``levels`` (the classified level's index in :data:`LEVELS`)
    hold one entry per bit, of which there is at least one. ``verdicts``
    holds the attack's verdict code (:data:`kljn.eve.VERDICTS`) of each
    secure bit, in bit order. The aggregates are derived from the columns
    when the outcome is built: ``secure_bit_fraction`` is the share of
    secure bits and ``eve_accuracy`` the mean :func:`kljn.eve.credits` of
    their verdicts, None when no bit is secure.

    A bit's record is its index and the record (:data:`RECORDS`) of its
    code (:meth:`codes`): :meth:`json_chunks` streams ``session.json`` from
    the codes and the CLI's ``bits.csv`` takes its cells from them.
    :meth:`to_dict` is the whole outcome as one dict.
    """

    alice_high: np.ndarray
    bob_high: np.ndarray
    levels: np.ndarray
    verdicts: np.ndarray
    secure_bit_fraction: float = field(init=False)
    # Sifting checks the true joint state, so every kept bit agrees.
    bit_error_rate: float = field(init=False, default=0.0)
    eve_accuracy: float | None = field(init=False)

    def __post_init__(self) -> None:
        if not len(self.alice_high):
            raise ValueError("a session outcome needs at least one bit")
        for column in (self.alice_high, self.bob_high, self.levels, self.verdicts):
            column.setflags(write=False)
        n_secure = len(self.verdicts)
        credit = credits(self.verdicts, self.alice_high[self.alice_high != self.bob_high])
        object.__setattr__(self, "secure_bit_fraction", n_secure / len(self.alice_high))
        object.__setattr__(self, "eve_accuracy", None if n_secure == 0 else float(credit.mean()))

    def codes(self) -> np.ndarray:
        """Each bit's code, the index of its record in :data:`RECORDS`, as a ``uint8`` column."""
        secure = self.alice_high != self.bob_high
        verdict = np.zeros(len(secure), dtype=np.uint8)  # verdict + 1, 0 unless secure
        verdict[secure] = self.verdicts + 1
        switches = self.alice_high * np.uint8(2) + self.bob_high
        return (switches * 3 + self.levels.astype(np.uint8)) * 5 + verdict

    def _aggregates(self) -> dict:
        return {
            "bit_error_rate": self.bit_error_rate,
            "eve_accuracy": self.eve_accuracy,
            "secure_bit_fraction": self.secure_bit_fraction,
        }

    def to_dict(self) -> dict:
        return {
            "aggregates": self._aggregates(),
            "bits": [
                dict(zip(BIT_FIELDS, (i, *RECORDS[code])))
                for i, code in enumerate(self.codes().tobytes())
            ],
        }

    def json_chunks(self) -> Iterator[str]:
        """The text of :meth:`to_json` in pieces: the aggregates, then one piece per bit record.

        The text is ``json.dumps(self.to_dict(), indent=2, sort_keys=True)``
        and a final newline. A bit's record is its code's text
        (:func:`_json_records`) with its index filled in, so a consumer that
        writes each piece holds the codes, one byte per bit, and one
        record's text at a time.
        """
        empty = json.dumps(
            {"aggregates": self._aggregates(), "bits": []}, indent=2, sort_keys=True
        )
        head, tail = empty.split("[]")  # the bits list is the only list
        texts = _json_records()
        separator = head + "[\n"
        for i, code in enumerate(self.codes().tobytes()):
            yield separator + texts[code] % i
            separator = ",\n"
        yield "\n  ]" + tail + "\n"

    def to_json(self) -> str:
        return "".join(self.json_chunks())


def _level_cuts(pair: ResistorPair, sigma_low: float, sigma_high: float) -> tuple[float, float]:
    """Cut points between adjacent levels: geometric means of their theoretical variances."""
    v_low, v_mid, v_high = variances = [
        theoretical_line_variance(pair, sigma_low, sigma_high, a, b)
        for a, b in ((False, False), (False, True), (True, True))
    ]
    if not all(map(math.isfinite, variances)):
        raise ValueError("level variances overflow to infinity for this configuration")
    if not v_low < v_mid < v_high:
        raise ValueError("level variances are not strictly ordered for this configuration")
    return _geometric_mean(v_low, v_mid), _geometric_mean(v_mid, v_high)


def _geometric_mean(a: float, b: float) -> float:
    """``sqrt(a * b)`` of two positive finite floats, whose product may underflow or overflow.

    With ``a = m_a * 2**e_a`` and ``b = m_b * 2**e_b`` (:func:`math.frexp`)
    and ``e = e_a + e_b``, the root of ``m_a * m_b * 2**(e % 2)`` is a
    normal float, scaled then by ``2**(e // 2)``. Every scaling is by an
    exact power of two, so wherever ``a * b`` is a normal float the result
    is bitwise ``math.sqrt(a * b)``, and elsewhere it is finite and positive.
    """
    (m_a, e_a), (m_b, e_b) = math.frexp(a), math.frexp(b)
    e = e_a + e_b
    return math.ldexp(math.sqrt(math.ldexp(m_a * m_b, e % 2)), e // 2)


def _classify_rows(measured: np.ndarray, cuts: tuple[float, float]) -> np.ndarray:
    """Level index (in :data:`LEVELS`) of each measured variance, nearest in log space.

    A value exactly on a cut falls to the lower level.
    """
    if not (np.isfinite(measured).all() and (measured >= 0.0).all()):
        raise ValueError("measured variance must be non-negative and finite")
    return np.searchsorted(cuts, measured)


def run_session(config: SessionConfig) -> SessionOutcome:
    """Exchange ``config.bits`` bits and attack every secure one.

    Per bit ``i`` the streams are ``(seed, i, 0)`` for the two switch
    coins, ``(seed, i, 1)`` for Alice's source and ``(seed, i, 2)`` for
    Bob's, making sessions reproducible and parallel-safe; the bits run in
    :func:`kljn.engine.run`, and the coins ``(c0, c1)`` are the switches of
    Alice and Bob, high when set. Each bit's level is classified from its
    ``power`` column, the mean square of its line voltage. A
    bit is discarded when its classified level disagrees with the true
    joint state. On a kept mid-level bit Alice's key bit is her own switch
    (low is 0, high is 1) and Bob takes the complement of his switch; the
    two derivations agree whenever the bit really is mixed.
    """
    cuts = _level_cuts(config.pair, config.sigma_low, config.sigma_high)
    specs = (NoiseSpec(config.kind, config.sigma_low), NoiseSpec(config.kind, config.sigma_high))
    eve = BlockAttack(config.pair, *specs, config.significance)

    def switches(coins: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return coins[:, 0], coins[:, 1]

    bits = run(eve, config.samples_per_bit, config.bits, config.seed, switches)
    levels = _classify_rows(bits.power, cuts)
    return SessionOutcome(bits.alice_high, bits.bob_high, levels, bits.verdicts)


@dataclass(frozen=True, eq=False)
class AttackTrialSummary:
    """Repeated attacks on fresh mixed-state bits: read-only columns and their aggregates.

    ``alice_high`` (Alice's true switch) and ``verdicts`` (the attack's
    verdict codes) hold one entry per trial, of which there is at least
    one. The aggregates are derived from the columns when the summary is
    built: the number of ``trials``, how many of them the attack got
    ``correct``, ``wrong`` and ``undecided`` by :func:`kljn.eve.credits`,
    and the mean credit, ``accuracy``.
    """

    alice_high: np.ndarray
    verdicts: np.ndarray
    trials: int = field(init=False)
    correct: int = field(init=False)
    wrong: int = field(init=False)
    undecided: int = field(init=False)
    accuracy: float = field(init=False)

    def __post_init__(self) -> None:
        if not len(self.alice_high):
            raise ValueError("an attack summary needs at least one trial")
        for column in (self.alice_high, self.verdicts):
            column.setflags(write=False)
        credit = credits(self.verdicts, self.alice_high)
        correct = int(np.count_nonzero(credit == 1.0))
        undecided = int(np.count_nonzero(credit == 0.5))
        object.__setattr__(self, "trials", len(credit))
        object.__setattr__(self, "correct", correct)
        object.__setattr__(self, "wrong", len(credit) - correct - undecided)
        object.__setattr__(self, "undecided", undecided)
        object.__setattr__(self, "accuracy", float(credit.mean()))

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
    0.5 is the blind-guessing baseline. Trials run in
    :func:`kljn.engine.run` with the streams of a session's bits: trial
    ``i``'s first coin ``c0`` sets Alice low, so the switches are ``(~c0,
    c0)``. The summary keeps the run's ``alice_high`` and ``verdicts``
    columns; no trial's power is taken.
    """
    check_run_settings(
        samples_per_trial, trials, significance, seed, ("samples_per_trial", "trials")
    )
    eve = BlockAttack(pair, spec_low, spec_high, significance)

    def switches(coins: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return ~coins[:, 0], coins[:, 0]

    bits = run(eve, samples_per_trial, trials, seed, switches, power=False)
    return AttackTrialSummary(bits.alice_high, bits.verdicts)


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
