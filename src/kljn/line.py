"""The shared wire: what a passive observer of the loop can measure.

Each party connects one resistor and one noise source in series to a
common line. With Alice driving ``v_a`` behind resistance ``r_a`` and Bob
driving ``v_b`` behind ``r_b``, the loop current and the node voltage are
set by the voltage divider over ``r_a + r_b``. Everything an eavesdropper
sees derives from these two public signals.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .noise import BlockStreams, NoiseSpec, ResistorPair, check_finite, check_sigmas, sample

# Budget of float64 samples per block array: 256 KiB, which fits in L2
# and keeps peak memory flat whatever the session length. A run
# (engine.run_blocks) makes one (3, rows, samples) allocation, shaped like
# its first (largest) block: the two line arrays of line_block and the
# scratch of eve.BlockAttack. The rest is computed in place in them or one
# column chunk of this budget at a time, so a long trace that runs alone
# peaks at three float64 arrays of its own length in each process.
BLOCK_SAMPLES = 2**15


class SwitchState(str, Enum):
    """Which resistor a party has connected for the current bit."""

    LOW = "low"
    HIGH = "high"


def resistance_for(pair: ResistorPair, state: SwitchState) -> float:
    """Resistance a party presents to the line in a given switch state."""
    return pair.r_low if state is SwitchState.LOW else pair.r_high


def sigma_for(state: SwitchState, sigma_low: float, sigma_high: float) -> float:
    """Noise scale a party drives in a given switch state."""
    return sigma_low if state is SwitchState.LOW else sigma_high


def line_signals(
    v_alice: np.ndarray,
    v_bob: np.ndarray,
    r_alice,
    r_bob,
    out: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve the two-source loop for the observable line voltage and current.

    Voltage is the divider mix ``(v_a * r_b + v_b * r_a) / (r_a + r_b)``;
    current is ``(v_b - v_a) / (r_a + r_b)``, positive when flowing from
    Bob toward Alice. The sources are arrays of one shape; the positive
    resistances (a :class:`ResistorPair` guarantees them on every engine
    path) are scalars or arrays that broadcast against the sources, such
    as one column entry per row of a block.

    The voltage and current are written into ``out`` when it is given and
    returned; the values are the same. ``out`` may be the sources
    themselves, ``(v_alice, v_bob)``: each source is read before its
    array is written.
    """
    voltage, current = (None, None) if out is None else out
    denom = r_alice + r_bob
    mix = v_bob * r_alice
    current = np.subtract(v_bob, v_alice, out=current)
    voltage = np.multiply(v_alice, r_bob, out=voltage)
    voltage += mix
    voltage /= denom
    current /= denom
    return voltage, current


def blocks(stop: int, samples: int, start: int = 0) -> list[range]:
    """``range(start, stop)`` in blocks of ``BLOCK_SAMPLES // samples`` bits (at least 1)."""
    step = max(1, BLOCK_SAMPLES // samples)
    return [range(first, min(first + step, stop)) for first in range(start, stop, step)]


def column_chunks(rows: int, n: int) -> list[slice]:
    """Column slices of a ``(rows, n)`` array, ``BLOCK_SAMPLES // rows`` columns each (at least 1)."""
    width = max(1, BLOCK_SAMPLES // max(rows, 1))
    return [slice(start, min(start + width, n)) for start in range(0, n, width)]


def line_block(
    streams: BlockStreams,
    alice_high: np.ndarray,
    bob_high: np.ndarray,
    pair: ResistorPair,
    spec_low: NoiseSpec,
    spec_high: NoiseSpec,
    out: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Line voltage and current of a block of bits, one row of ``n`` samples per bit.

    ``alice_high`` and ``bob_high`` are boolean switch states per bit of
    the block ``streams`` keys. Bit ``i`` draws Alice's source from stream
    ``(seed, i, 1)`` and Bob's from ``(seed, i, 2)``, so each row equals
    what :func:`line_signals` gives for that bit alone.

    ``out`` is a float64 ``(2, bits, n)`` array. Each row of Alice's
    sources is one :func:`kljn.noise.sample` call drawn in place in
    ``out[0]``, and Bob's in ``out[1]``; then :func:`line_signals` solves
    each :func:`column_chunks` chunk in place, the voltage over Alice's
    sources and the current over Bob's. The two arrays are returned as
    ``(voltage, current)``, each checked for finiteness once. That one
    check covers the draws too: a non-finite source always reaches the
    current, ``(v_b - v_a) / (r_a + r_b)``.
    """
    voltage, current = out
    n = voltage.shape[1]
    specs = (spec_low, spec_high)
    r_a = np.where(alice_high, pair.r_high, pair.r_low)[:, None]
    r_b = np.where(bob_high, pair.r_high, pair.r_low)[:, None]
    # An overflow leaves an infinity or NaN that the check below refuses,
    # so numpy need not warn of it as well.
    with np.errstate(over="ignore", invalid="ignore"):
        for rows, high, channel in ((voltage, alice_high, 1), (current, bob_high, 2)):
            for row, h, rng in zip(rows, high.tolist(), streams.each(channel)):
                sample(specs[h], n, rng, out=row)
        for cols in column_chunks(*voltage.shape):
            v_chunk, i_chunk = voltage[:, cols], current[:, cols]
            line_signals(v_chunk, i_chunk, r_a, r_b, out=(v_chunk, i_chunk))
    check_finite(voltage)
    check_finite(current)
    return voltage, current


def theoretical_line_variance(
    pair: ResistorPair,
    sigma_low: float,
    sigma_high: float,
    state_alice: SwitchState,
    state_bob: SwitchState,
) -> float:
    """Exact variance of the line voltage for one joint switch state.

    With independent zero-mean sources the divider gives
    ``(sigma_a^2 * r_b^2 + sigma_b^2 * r_a^2) / (r_a + r_b)^2``. The two
    mixed states yield the same value, which is what makes them useless
    to an observer and therefore the bit-carrying states.
    """
    check_sigmas(sigma_low, sigma_high)
    r_a = resistance_for(pair, state_alice)
    r_b = resistance_for(pair, state_bob)
    s_a = sigma_for(state_alice, sigma_low, sigma_high)
    s_b = sigma_for(state_bob, sigma_low, sigma_high)
    denom = (r_a + r_b) ** 2
    return (s_a**2 * r_b**2 + s_b**2 * r_a**2) / denom
