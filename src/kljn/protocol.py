"""Full key-exchange sessions: bit exchange, sifting, and leak accounting.

Per bit, both parties flip an independent fair coin for their switch and
drive the line for a fixed number of samples. Everyone classifies the
measured line-voltage variance into one of three levels. The outer levels
expose both switch positions and are discarded; the middle level is the
secure regime in which each party learns the other's bit by elimination.
An eavesdropper instance attacks every truly mixed bit, and the session
records how often she wins beyond the coin-flip baseline.

A session's outcome is a table of read-only numpy columns: each party's
switch and the classified level per bit, and the attack's verdict code per
secure bit. :meth:`SessionOutcome.bit_blocks` derives the per-bit records
from them one block of bits at a time, for ``session.json`` and
``bits.csv`` alike, so rendering a session holds one block's records, not
the session's.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .eve import MIN_TEST_SAMPLES, VERDICTS, _check_significance, _mean_square, credits, run_blocks
from .line import SwitchState, theoretical_line_variance
from .noise import DistributionKind, NoiseSpec, ResistorPair, check_sigmas, security_sigma_ratio
# Unused here; bench/test_bench.py checks that its tracer wraps this binding.
from .noise import stream  # noqa: F401


class Level(str, Enum):
    """Classified line-voltage variance band."""

    LOW = "low"
    MID = "mid"
    HIGH = "high"


# Object arrays, so every list taken from them shares these few strings.
_LEVEL_VALUES = np.array([level.value for level in Level], dtype=object)
_STATE_VALUES = np.array([SwitchState.LOW.value, SwitchState.HIGH.value], dtype=object)
_DECISION_VALUES = np.array([decision.value for decision in VERDICTS], dtype=object)
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
# Bits per block of per-bit fields: a session's records are derived and
# rendered one block at a time, so their memory is flat in the bit count.
_BIT_BLOCK = 4096
# One record of session.json's "bits" list as json.dumps(indent=2,
# sort_keys=True) lays it out: fields in sorted order, bit_index an int
# and every other value its JSON text.
_JSON_RECORD = """\
    {
      "alice_state": %s,
      "bit_index": %d,
      "bob_state": %s,
      "classified_level": %s,
      "discarded": %s,
      "eve_decision": %s,
      "key_bit": %s,
      "secure": %s
    }"""


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


@dataclass(frozen=True, eq=False)
class SessionOutcome:
    """Session aggregates plus the per-bit outcome as read-only columns.

    ``alice_high``, ``bob_high`` (each party's switch, high when set) and
    ``levels`` (the classified level's index in ``Level``, low to high)
    hold one entry per bit. ``verdicts`` holds the attack's verdict code
    (:data:`kljn.eve.VERDICTS`) of each secure bit, in bit order.

    The per-bit records are derived from the columns a block of bits at a
    time (:meth:`bit_blocks`): :meth:`json_chunks` streams ``session.json``
    from them and the CLI's ``bits.csv`` takes its cells from them.
    :meth:`to_dict` is the whole outcome as one dict.
    """

    alice_high: np.ndarray
    bob_high: np.ndarray
    levels: np.ndarray
    verdicts: np.ndarray
    secure_bit_fraction: float
    bit_error_rate: float
    eve_accuracy: float | None

    def __post_init__(self) -> None:
        for column in (self.alice_high, self.bob_high, self.levels, self.verdicts):
            column.setflags(write=False)

    def bit_fields(self, start: int, stop: int, first_verdict: int) -> dict[str, list | range]:
        """The per-bit fields (``BIT_FIELDS``) of the block of bits ``start`` to ``stop``.

        Each field is a list in bit order, except ``bit_index``, a range.
        ``first_verdict`` is the number of secure bits before ``start``,
        which is where the block's entries of ``verdicts`` begin. States,
        levels and decisions are their enum values. A bit's ``key_bit``
        (Alice's switch, low 0 and high 1) is None unless the bit is secure
        and kept, and its ``eve_decision`` is None unless it is secure.
        """
        alice_high, bob_high = self.alice_high[start:stop], self.bob_high[start:stop]
        secure = alice_high != bob_high
        # The number of high switches indexes the true level.
        discarded = self.levels[start:stop] != alice_high + bob_high.astype(np.intp)
        verdicts = self.verdicts[first_verdict : first_verdict + np.count_nonzero(secure)]
        decisions = np.full(len(secure), None)
        decisions[secure] = _DECISION_VALUES[verdicts]
        columns = (
            range(start, start + len(secure)),
            _STATE_VALUES[alice_high.astype(np.intp)].tolist(),
            _STATE_VALUES[bob_high.astype(np.intp)].tolist(),
            _LEVEL_VALUES[self.levels[start:stop]].tolist(),
            secure.tolist(),
            discarded.tolist(),
            np.where(secure & ~discarded, alice_high.astype(np.intp), None).tolist(),
            decisions.tolist(),
        )
        return dict(zip(BIT_FIELDS, columns))

    def bit_blocks(self) -> Iterator[dict[str, list | range]]:
        """:meth:`bit_fields` of each block of ``_BIT_BLOCK`` (4096) bits, in bit order.

        The number of secure bits before a block is carried from block to
        block, so no field of the whole session is ever built.
        """
        first_verdict = 0
        for start in range(0, len(self.alice_high), _BIT_BLOCK):
            fields = self.bit_fields(start, start + _BIT_BLOCK, first_verdict)
            first_verdict += fields["secure"].count(True)
            yield fields

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
                dict(zip(fields, bit))
                for fields in self.bit_blocks()
                for bit in zip(*fields.values())
            ],
        }

    def json_chunks(self) -> Iterator[str]:
        """The text of :meth:`to_json` in pieces: the aggregates, then one piece per bit record.

        The text is ``json.dumps(self.to_dict(), indent=2, sort_keys=True)``
        and a final newline. Records come from :meth:`bit_blocks`, so a
        consumer that writes each piece holds one block's fields and one
        record's text at a time; a piece per block would hold a block's
        records twice, as a list and as their join. Within a block each
        field's distinct values are encoded once with ``json.dumps``, and
        ``bit_index``, an int, is formatted as its digits.
        """
        empty = json.dumps(
            {"aggregates": self._aggregates(), "bits": []}, indent=2, sort_keys=True
        )
        head, tail = empty.split("[]")  # the bits list is the only list
        if not len(self.alice_high):
            yield empty + "\n"
            return
        separator = head + "[\n"
        for fields in self.bit_blocks():
            columns = [
                column if name == "bit_index" else _json_texts(column)
                for name, column in sorted(fields.items())
            ]
            for record in zip(*columns):
                yield separator + _JSON_RECORD % record
                separator = ",\n"
        yield "\n  ]" + tail + "\n"

    def to_json(self) -> str:
        return "".join(self.json_chunks())


def _json_texts(column: list) -> Iterator[str]:
    """The JSON text of each value, ``json.dumps`` run once per distinct value."""
    texts = {value: json.dumps(value) for value in set(column)}
    return map(texts.__getitem__, column)


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


def _classify_rows(measured: np.ndarray, cuts: tuple[float, float]) -> np.ndarray:
    """Level index (in ``Level``, low to high) of each measured variance, nearest in log space.

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
    blocks in :func:`kljn.eve.run_blocks`, and the coins ``(c0, c1)`` are
    the switches of Alice and Bob, high when set. A bit is discarded when
    its classified level disagrees with the true joint state. On a kept
    mid-level bit Alice's key bit is her own switch (low is 0, high is 1)
    and Bob takes the complement of his switch; the two derivations agree
    whenever the bit really is mixed.
    """
    cuts = _level_cuts(config.pair, config.sigma_low, config.sigma_high)

    def switches(coins: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return coins[:, 0], coins[:, 1]

    run = run_blocks(
        config.pair,
        NoiseSpec(config.kind, config.sigma_low),
        NoiseSpec(config.kind, config.sigma_high),
        config.samples_per_bit,
        config.bits,
        config.significance,
        config.seed,
        switches,
    )
    # The block's voltage is scratch past its block, so it is squared in place.
    blocks = [(a, b, _classify_rows(_mean_square(v), cuts), d) for a, b, v, d in run]
    alice_high, bob_high, levels, verdicts = (np.concatenate(c) for c in zip(*blocks))
    n_secure = len(verdicts)
    secure_credits = credits(verdicts, alice_high[alice_high != bob_high])
    return SessionOutcome(
        alice_high=alice_high,
        bob_high=bob_high,
        levels=levels,
        verdicts=verdicts,
        secure_bit_fraction=n_secure / config.bits,
        bit_error_rate=0.0,  # sifting checks the true joint state, so every kept bit agrees
        eve_accuracy=None if n_secure == 0 else float(secure_credits.mean()),
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
