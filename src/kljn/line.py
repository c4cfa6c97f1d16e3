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

from .noise import (
    BlockStreams,
    NoiseSpec,
    ResistorPair,
    check_finite,
    check_sigmas,
    draw_rows,
)

# Budget of float64 samples per block array: 256 KiB, which fits in L2
# and keeps peak memory flat whatever the session length. A run allocates
# its block arrays once, shaped like its first (largest) block: the two
# line arrays of line_block and the two hypothesis buffers of
# eve.BlockAttack. The rest is computed in place in them or one column
# chunk of this budget at a time, so a long trace that runs alone peaks at
# four float64 arrays of its own length (plus a one-byte-per-sample
# finiteness mask of the draws).
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


def blocks(count: int, samples: int) -> list[range]:
    """Split ``range(count)`` into blocks of ``BLOCK_SAMPLES // samples`` bits (at least 1)."""
    step = max(1, BLOCK_SAMPLES // samples)
    return [range(start, min(start + step, count)) for start in range(0, count, step)]


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

    ``out`` is a float64 ``(2, bits, n)`` array that the run allocates
    once and hands in for every block (a leading-row view of it for a
    shorter block). Alice's sources are drawn into ``out[0]`` and Bob's
    into ``out[1]``; then :func:`line_signals` solves each
    :func:`column_chunks` chunk in place, the voltage over Alice's sources
    and the current over Bob's. The two arrays are returned as
    ``(voltage, current)``. Beyond them, the solve allocates one chunk-sized
    temporary and the draws' finiteness check one byte per sample.
    """
    voltage, current = out
    n = voltage.shape[1]
    specs = (spec_low, spec_high)
    draw_rows([specs[h] for h in alice_high.tolist()], n, streams.each(1), out=voltage)
    draw_rows([specs[h] for h in bob_high.tolist()], n, streams.each(2), out=current)
    r_a = np.where(alice_high, pair.r_high, pair.r_low)[:, None]
    r_b = np.where(bob_high, pair.r_high, pair.r_low)[:, None]
    for cols in column_chunks(*voltage.shape):
        v_chunk, i_chunk = voltage[:, cols], current[:, cols]
        line_signals(v_chunk, i_chunk, r_a, r_b, out=(v_chunk, i_chunk))
        check_finite(v_chunk)
        check_finite(i_chunk)
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
