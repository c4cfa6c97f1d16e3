"""Noise sources and the amplitude law that ties them to resistor choices.

Randomness policy
-----------------
All sampling goes through numpy's counter-based Philox bit generator so
that independent streams can be derived from a single session seed without
any shared state. A stream is addressed by the session seed plus an
integer path; :func:`stream` is the single-stream form::

    Generator(Philox(SeedSequence(entropy=seed, spawn_key=path)))

Sessions and attack trials (see :func:`kljn.eve.run_blocks`) give bit
``i`` the paths ``(i, 0)``, ``(i, 1)`` and ``(i, 2)``. They derive the
Philox keys of a whole block of bits in one pass (:func:`philox_keys`, a
port of ``SeedSequence``'s entropy mixing to uint32 array arithmetic),
which are the same keys ``SeedSequence`` gives, and re-key one reused
generator per bit (:class:`BlockStreams`). Each row of a block is one
:func:`sample` call on its bit's stream, drawn in place. Two streams with
different paths are statistically independent, and the same ``(seed,
path)`` always reproduces the same draws on every platform numpy
supports.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from enum import Enum

import numpy as np
# Imported here, not on first use: numpy 2 loads numpy.random lazily, which
# would move its import cost from start-up into the first session.
import numpy.random  # noqa: F401

# J/K, exact by the 2019 SI definition.
Boltzmann = 1.380649e-23

_SQRT3 = math.sqrt(3.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)
_SQRT1_2 = math.sqrt(0.5)

# Stream channels of a bit: (i, 0) the two switch coins, (i, 1) Alice's
# source, (i, 2) Bob's source.
CHANNELS = 3

# numpy's SeedSequence constants: the running hash constant of the entropy
# mixing (A) and of generate_state (B), and the two mix multipliers.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF


class DistributionKind(str, Enum):
    """Shape family of a noise source, all centered at zero."""

    GAUSSIAN = "gaussian"
    UNIFORM = "uniform"
    CAUCHY = "cauchy"


@dataclass(frozen=True)
class ResistorPair:
    """The two resistance values a party can switch between, in ohms."""

    r_low: float
    r_high: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.r_low) and math.isfinite(self.r_high)):
            raise ValueError("resistances must be finite")
        if self.r_low <= 0.0 or self.r_high <= 0.0:
            raise ValueError("resistances must be positive")
        if not self.r_low < self.r_high:
            raise ValueError("r_low must be strictly less than r_high")


@dataclass(frozen=True)
class NoiseSpec:
    """A noise source: shape family plus scale parameter.

    For the Gaussian and uniform kinds ``scale`` is the standard
    deviation. For the Cauchy kind, which has no variance, ``scale`` is
    the half-width-at-half-maximum parameter of the density.
    """

    kind: DistributionKind
    scale: float

    def __post_init__(self) -> None:
        if not isinstance(self.kind, DistributionKind):
            object.__setattr__(self, "kind", DistributionKind(self.kind))
        # The attack squares each scale, so the square must be finite too.
        # math.fabs gives a Python float, whose square overflows without a warning.
        scale = math.fabs(self.scale)
        if not (self.scale > 0.0 and math.isfinite(scale * scale)):
            raise ValueError("scale must be positive and finite, and so must its square")


def check_finite(samples: np.ndarray) -> None:
    """Refuse sample arrays, of any shape, that hold an infinity or NaN.

    A NaN propagates through both ``min`` and ``max``, and an infinity is
    one of them, so checking the two needs no one-byte-per-sample mask.
    """
    if samples.size and not (math.isfinite(samples.min()) and math.isfinite(samples.max())):
        raise ValueError("trace samples must be finite")


def stream(seed: int, *path: int) -> np.random.Generator:
    """Derive an independent Philox generator for ``(seed, path)``.

    Parameters
    ----------
    seed:
        Session-level entropy, any non-negative integer (u64 range in
        practice).
    path:
        Zero or more non-negative integers naming the substream.
    """
    if seed < 0:
        raise ValueError("seed must be non-negative")
    if any(p < 0 for p in path):
        raise ValueError("stream path entries must be non-negative")
    seq = np.random.SeedSequence(entropy=seed, spawn_key=tuple(path))
    return np.random.Generator(np.random.Philox(seq))


def philox_keys(seed: int, rows: range) -> np.ndarray:
    """Philox keys of the streams ``(seed, i, ch)``, ``i`` in ``rows``, for every channel.

    Entry ``[ch, k]`` equals ``SeedSequence(entropy=seed, spawn_key=(rows[k],
    ch)).generate_state(2, np.uint64)``, the key :func:`stream` seeds its
    Philox with. The seed's words fill the first four pool words, so the
    pool after the first two mixing passes is shared by every stream of the
    seed; each index word and the channel word are then mixed in for all
    rows at once. numpy mixes in every uint32 word of an index, so a block
    that crosses 2**32 is keyed in runs of equal word count.
    """
    if seed < 0:
        raise ValueError("seed must be non-negative")
    if rows.step != 1 or rows.start < 0:
        raise ValueError("rows must be consecutive non-negative indices")
    seed_words = _uint32_words(seed)
    seed_words += [0] * (_POOL_SIZE - len(seed_words))
    index_words = len(_uint32_words(max(rows.stop - 1, 0)))
    steps_a = _POOL_SIZE * (len(seed_words) + index_words + 1)
    consts_a = _running_constants(_INIT_A, _MULT_A, steps_a)
    consts_b = np.array(_running_constants(_INIT_B, _MULT_B, _POOL_SIZE), dtype=np.uint32)
    shared, step = _seed_pool(seed_words, consts_a)
    channel_words = np.arange(CHANNELS, dtype=np.uint32)[:, None, None]
    keys = np.empty((CHANNELS, len(rows), 2), dtype=np.uint64)
    start = rows.start
    while start < rows.stop:
        n_words = len(_uint32_words(start))
        stop = min(rows.stop, 1 << 32 * n_words)
        index = np.arange(start, stop, dtype=np.uint64 if stop <= 1 << 64 else object)
        pool = np.array(shared, dtype=np.uint32)
        at = step
        for j in range(n_words):
            word = (index >> 32 * j & _MASK32).astype(np.uint32)
            pool = _mix_word(pool, word[:, None], consts_a[at : at + _POOL_SIZE + 1])
            at += _POOL_SIZE
        pool = _mix_word(pool, channel_words, consts_a[at : at + _POOL_SIZE + 1])
        state = _hash(pool, consts_b[:-1], consts_b[1:])
        keys[:, start - rows.start : stop - rows.start] = state.astype("<u4").view("<u8")
        start = stop
    return keys


class BlockStreams:
    """The streams ``(seed, i, channel)`` of a block of bits, keyed in one pass.

    :meth:`each` re-keys one reused Philox generator for every bit in turn,
    with a zero counter and an empty buffer: the state a fresh
    ``stream(seed, i, channel)`` starts from, so its draws are the same.
    """

    def __init__(self, seed: int, rows: range) -> None:
        self._keys = philox_keys(seed, rows).tolist()
        self._bitgen = np.random.Philox(0)
        self._rng = np.random.Generator(self._bitgen)

    def each(self, channel: int) -> Iterator[np.random.Generator]:
        """Stream ``(seed, i, channel)`` for each bit ``i`` in turn, valid until the next."""
        state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": None},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        for key in self._keys[channel]:
            state["state"]["key"] = key
            self._bitgen.state = state
            yield self._rng


def _uint32_words(value: int) -> list[int]:
    """Little-endian uint32 words of a non-negative int, as numpy splits entropy (0 is one word)."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _running_constants(init: int, mult: int, steps: int) -> list[int]:
    """The hash constant before and after each of ``steps`` hash steps."""
    consts = [init]
    for _ in range(steps):
        consts.append(consts[-1] * mult & _MASK32)
    return consts


def _hash(value, const, next_const):
    """SeedSequence's hash step on Python ints or uint32 arrays (numpy's ``hashmix``)."""
    value = (value ^ const) * next_const & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    """SeedSequence's mix of two uint32 words, on Python ints or uint32 arrays."""
    value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return value ^ value >> 16


def _mix_word(pool: np.ndarray, word: np.ndarray, consts: list[int]) -> np.ndarray:
    """Mix one entropy word into each of the four pool words, one hash step each."""
    consts = np.array(consts, dtype=np.uint32)
    return _mix(pool, _hash(word, consts[:-1], consts[1:]))


def _seed_pool(seed_words: list[int], consts: list[int]) -> tuple[list[int], int]:
    """The pool once the seed's words are mixed in, and the hash steps used so far."""
    pool = [_hash(w, consts[k], consts[k + 1]) for k, w in enumerate(seed_words[:_POOL_SIZE])]
    step = _POOL_SIZE
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], consts[step], consts[step + 1]))
                step += 1
    for word in seed_words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hash(word, consts[step], consts[step + 1]))
            step += 1
    return pool, step


def johnson_sigma(resistance: float, temperature: float, bandwidth: float) -> float:
    """RMS voltage of thermal noise across a resistor.

    Computes ``sqrt(4 k T R B)`` with the exact SI (2019) Boltzmann
    constant, so the RMS amplitude grows with the square root of the
    resistance. All three arguments must be strictly positive; the value
    tends to zero continuously as any of them does.
    """
    if resistance <= 0.0:
        raise ValueError("resistance must be positive")
    if temperature <= 0.0:
        raise ValueError("temperature must be positive")
    if bandwidth <= 0.0:
        raise ValueError("bandwidth must be positive")
    return math.sqrt(4.0 * Boltzmann * temperature * resistance * bandwidth)


def check_sigmas(sigma_low: float, sigma_high: float) -> None:
    """Refuse source amplitudes that are not positive and finite, naming the one at fault."""
    for name, sigma in (("sigma_low", sigma_low), ("sigma_high", sigma_high)):
        if not (sigma > 0.0 and math.isfinite(sigma)):
            raise ValueError(f"{name} must be positive and finite")


def security_sigma_ratio(pair: ResistorPair) -> float:
    """Amplitude ratio ``sigma_high / sigma_low`` that closes the variance leak.

    This is the square-root amplitude law, ``sqrt(r_high / r_low)``; every
    other use of the law in the package goes through this function.
    """
    return math.sqrt(pair.r_high / pair.r_low)


def scaled_sigma_high(pair: ResistorPair, sigma_low: float) -> float:
    """Amplitude the high-resistor source needs for indistinguishability.

    Returns ``sigma_low * sqrt(r_high / r_low)``, the unique high-side
    amplitude under which an observer of the line signals cannot tell
    which party holds which resistor.
    """
    if sigma_low <= 0.0:
        raise ValueError("sigma_low must be positive")
    return sigma_low * security_sigma_ratio(pair)


def sample(
    spec: NoiseSpec, n: int, rng: np.random.Generator, out: np.ndarray | None = None
) -> np.ndarray:
    """Draw ``n`` independent samples from a noise source.

    The draws are ``LAWS[spec.kind].draw``'s (see :data:`LAWS`): ``scale``
    times standard normals, uniforms on ``[-sqrt(3) * scale, sqrt(3) *
    scale]`` so that the standard deviation equals ``scale``, or ``scale``
    times standard Cauchy variates, the rare non-finite values at the
    inverse-CDF sampler's poles redrawn from the same stream, so the result
    stays deterministic for a given generator state. The draws are not
    checked for finiteness here; :func:`kljn.line.line_block` checks the
    line they drive instead.

    The samples are written into ``out`` (a float64 array of ``n``
    values) when it is given and returned; the values are the same.
    """
    if n < 1:
        raise ValueError("sample count must be at least 1")
    if out is None:
        out = np.empty(n)
    LAWS[spec.kind].draw(rng, spec.scale, out)
    return out


def _erfc(x: np.ndarray) -> np.ndarray:
    """``math.erfc`` of every element (numpy has no erfc ufunc)."""
    return np.fromiter(map(math.erfc, x.ravel().tolist()), np.float64, x.size).reshape(x.shape)


def _draw_gaussian(rng: np.random.Generator, scale: float, out: np.ndarray) -> None:
    rng.standard_normal(out=out)
    out *= scale


def _draw_uniform(rng: np.random.Generator, scale: float, out: np.ndarray) -> None:
    # numpy's uniform(low, high) is low + (high - low) * random().
    bound = _SQRT3 * scale
    rng.random(out=out)
    out *= bound - -bound
    out += -bound


def _draw_cauchy(rng: np.random.Generator, scale: float, out: np.ndarray) -> None:
    np.multiply(rng.standard_cauchy(out.size), scale, out=out)
    bad = ~np.isfinite(out)
    while bad.any():
        out[bad] = rng.standard_cauchy(int(bad.sum())) * scale
        bad = ~np.isfinite(out)


def _uniform_pdf(x: np.ndarray, scale: float) -> np.ndarray:
    """The uniform density, with the midpoint value at its two jump points.

    The midpoint keeps trapezoidal integrals of grids whose endpoints
    straddle the jumps as close to exact as the grid permits.
    """
    half = _SQRT3 * scale
    height = 1.0 / (2.0 * half)
    at_edge = np.isclose(np.abs(x), half, rtol=1e-12, atol=0.0)
    inside = np.abs(x) < half
    return np.select([at_edge, inside], [0.5 * height, height], default=0.0)


@dataclass(frozen=True)
class SourceLaw:
    """Everything the package knows about one source family, centred at zero.

    ``draw(rng, scale, out)`` fills the float64 array ``out`` with draws.
    ``pdf(x, scale)`` and ``cdf(x, scale)`` are the closed-form density and
    CDF at the points of a float64 array. ``variance`` is False for a
    family without one, which the level-based protocol and the
    variance-matched closure comparison refuse, and whose parties the
    attack screens by shape only. ``reference`` is the shape reference
    grid's ``(half width, step)`` in scale units (see
    :func:`kljn.eve.reference_grid`).
    """

    draw: Callable[[np.random.Generator, float, np.ndarray], None]
    pdf: Callable[[np.ndarray, float], np.ndarray]
    cdf: Callable[[np.ndarray, float], np.ndarray]
    variance: bool
    reference: tuple[float, float]


# The one table of source laws: no other module branches on a kind. The
# uniform reference is finer because its jumps dominate the CDF
# interpolation error; Cauchy's needs width, not resolution. The Gaussian
# CDF is also the normal CDF behind kljn.eve's two-sided z p-values.
LAWS = {
    DistributionKind.GAUSSIAN: SourceLaw(
        draw=_draw_gaussian,
        pdf=lambda x, scale: np.exp(-0.5 * (x / scale) ** 2) / (scale * _SQRT2PI),
        cdf=lambda x, scale: 0.5 * _erfc(-(x / scale) * _SQRT1_2),
        variance=True,
        reference=(8.0, 1.0 / 200.0),
    ),
    DistributionKind.UNIFORM: SourceLaw(
        draw=_draw_uniform,
        pdf=_uniform_pdf,
        cdf=lambda x, scale: np.clip((x + _SQRT3 * scale) / (2.0 * _SQRT3 * scale), 0.0, 1.0),
        variance=True,
        reference=(8.0, 1.0 / 2000.0),
    ),
    DistributionKind.CAUCHY: SourceLaw(
        draw=_draw_cauchy,
        pdf=lambda x, scale: scale / (math.pi * (x * x + scale * scale)),
        cdf=lambda x, scale: 0.5 + np.arctan(x / scale) / math.pi,
        variance=False,
        reference=(800.0, 1.0 / 200.0),
    ),
}


def check_variance(kind: DistributionKind, use: str) -> None:
    """Refuse a family without a variance for ``use``, which needs one."""
    if not LAWS[kind].variance:
        raise ValueError(f"{use} need finite-variance noise, which the {kind.value} family lacks")
