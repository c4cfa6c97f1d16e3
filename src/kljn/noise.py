"""Noise sources and the amplitude law that ties them to resistor choices.

Randomness policy
-----------------
All sampling goes through numpy's counter-based Philox bit generator so
that independent streams can be derived from a single session seed without
any shared state. A stream is addressed by the session seed plus an
integer path, combined as::

    Generator(Philox(SeedSequence(entropy=seed, spawn_key=path)))

Callers that need per-bit, per-party streams (see :mod:`kljn.protocol`)
use paths like ``(bit_index, channel)``. Two streams with different paths
are statistically independent, and the same ``(seed, path)`` always
reproduces the same draws on every platform numpy supports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.constants import Boltzmann

_SQRT3 = math.sqrt(3.0)


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
        if not math.isfinite(self.scale) or self.scale <= 0.0:
            raise ValueError("scale must be positive and finite")


@dataclass(frozen=True)
class Trace:
    """An immutable 1-D array of voltage samples.

    The backing array is locked read-only at construction; downstream
    arithmetic must copy rather than mutate.
    """

    samples: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("a trace must be one-dimensional")
        if arr.size < 1:
            raise ValueError("a trace must hold at least one sample")
        check_finite(arr)
        if arr is self.samples:
            arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    def __len__(self) -> int:
        return int(self.samples.size)


def check_finite(samples: np.ndarray) -> None:
    """Refuse sample arrays, of any shape, that hold an infinity or NaN."""
    if not np.isfinite(samples).all():
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


def _as_generator(seed: int | np.random.SeedSequence | np.random.Generator) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.Generator(np.random.Philox(seed))
    return stream(int(seed))


def johnson_sigma(resistance: float, temperature: float, bandwidth: float) -> float:
    """RMS voltage of thermal noise across a resistor.

    Computes ``sqrt(4 k T R B)`` with the CODATA Boltzmann constant, so
    the RMS amplitude grows with the square root of the resistance. All
    three arguments must be strictly positive; the value tends to zero
    continuously as any of them does.
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
    spec: NoiseSpec,
    n: int,
    seed: int | np.random.SeedSequence | np.random.Generator,
) -> Trace:
    """Draw ``n`` independent samples from a noise source.

    Gaussian draws are ``scale`` times standard normals. Uniform draws
    cover ``[-sqrt(3) * scale, sqrt(3) * scale]`` so that the standard
    deviation equals ``scale``. Cauchy draws are ``scale`` times standard
    Cauchy variates; the rare non-finite values the inverse-CDF sampler
    can emit at the distribution's poles are redrawn from the same
    stream, keeping the result deterministic for a given seed.
    """
    if n < 1:
        raise ValueError("sample count must be at least 1")
    return Trace(_draw(spec, n, _as_generator(seed)))


def draw_rows(specs: list[NoiseSpec], n: int, seed: int, rows: range, channel: int) -> np.ndarray:
    """Sources of a block of bits, one row of ``n`` samples per bit.

    Row ``k`` holds ``sample(specs[k], n, stream(seed, rows[k], channel))``
    bit for bit; the block is checked for finiteness once.
    """
    out = np.empty((len(rows), n))
    for k, (i, spec) in enumerate(zip(rows, specs)):
        out[k] = _draw(spec, n, stream(seed, i, channel))
    check_finite(out)
    return out


def _draw(spec: NoiseSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """The draw policy behind :func:`sample` and :func:`draw_rows`."""
    if spec.kind is DistributionKind.GAUSSIAN:
        return rng.standard_normal(n) * spec.scale
    if spec.kind is DistributionKind.UNIFORM:
        bound = _SQRT3 * spec.scale
        return rng.uniform(-bound, bound, n)
    if spec.kind is DistributionKind.CAUCHY:
        values = rng.standard_cauchy(n) * spec.scale
        bad = ~np.isfinite(values)
        while bad.any():
            values[bad] = rng.standard_cauchy(int(bad.sum())) * spec.scale
            bad = ~np.isfinite(values)
        return values
    raise ValueError(f"unknown distribution kind: {spec.kind!r}")  # pragma: no cover
