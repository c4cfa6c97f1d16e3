"""Noise sources and the amplitude law that ties them to resistor choices.

Randomness policy
-----------------
All sampling goes through numpy's counter-based Philox bit generator, so
that independent streams come from a single session seed without any
shared state. A stream is addressed by the seed, a bit index and a
channel, each of the last two in ``[0, 2**64)``; the counter itself names
the stream (:func:`stream`)::

    Generator(Philox(seed, counter=bit << 128 | channel << 192))

The key is the seed's ordinary ``Philox(seed)`` key; the bit fills counter
word 2 and the channel word 3. That is ``Philox(seed).jumped(bit + channel
* 2**64)``: numpy documents jumps of ``2**128`` draws as non-overlapping
sequences, and a stream would need ``2**130`` draws to reach the next.

Sessions and attack trials (see :func:`kljn.engine.run_blocks`) give bit
``i`` channel 0 for its two switch coins, 1 for Alice's source and 2 for
Bob's. A block of bits re-keys one reused generator per bit by setting its
counter (:class:`BlockStreams`), and each row of a block is one
:func:`sample` call on its bit's stream, drawn in place. The same ``(seed,
bit, channel)`` reproduces the same draws under the same numpy release.
numpy's random policy (NEP 19) freezes only raw bit-generator output: the
switch coins are raw Philox words (:func:`kljn.engine.run_blocks`), but the
source draws go through ``Generator`` methods, which a release may change.
The README's "Determinism" section gives the measured scope.
``numpy.random`` loads at each process's first draw, so a command that
draws nothing never pays for it.

Source laws
-----------
:data:`LAWS` is the one table of source families. Each entry gives the
family's draws, closed-form density and CDF, and kurtosis, which sets
the variance test's standard error (None for a family without a
variance). Where the CDF is too slow for the shape test to call on every
sample, the entry also names the nodes at which the test tabulates it;
otherwise it gives the CDF's inverse, from which the test's per-probe
thresholds start.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from enum import Enum

import numpy as np

# J/K, exact by the 2019 SI definition.
Boltzmann = 1.380649e-23

_SQRT3 = math.sqrt(3.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)
_SQRT1_2 = math.sqrt(0.5)

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
        _check_amplitude("scale", self.scale)


def check_finite(samples: np.ndarray) -> None:
    """Refuse sample arrays, of any shape, that hold an infinity or NaN.

    A NaN propagates through both ``min`` and ``max``, and an infinity is
    one of them, so checking the two needs no one-byte-per-sample mask.
    """
    if samples.size and not (math.isfinite(samples.min()) and math.isfinite(samples.max())):
        raise ValueError("trace samples must be finite")


def stream(seed: int, bit: int = 0, channel: int = 0) -> np.random.Generator:
    """The Philox generator of stream ``(seed, bit, channel)``.

    ``seed`` is any non-negative integer; ``bit`` and ``channel`` lie in
    ``[0, 2**64)`` and set counter words 2 and 3 (see the module notes).
    The counter goes to numpy as one integer: given as a list of words,
    numpy would round a word of ``2**63`` or more through float64.
    """
    _check_stream(seed, bit, channel)
    counter = operator.index(bit) << 128 | operator.index(channel) << 192
    return np.random.Generator(np.random.Philox(seed, counter=counter))


class BlockStreams:
    """The streams ``(seed, i, channel)`` of the bits ``i`` in ``rows``, under one key.

    The key is the seed's ``Philox(seed)`` key, derived once. :meth:`each`
    re-keys one reused Philox generator for every bit in turn, setting the
    counter ``[0, 0, i, channel]`` and emptying the buffer: the state a
    fresh ``stream(seed, i, channel)`` starts from, so its draws are the
    same.
    """

    def __init__(self, seed: int, rows: range) -> None:
        # A range's first and last entries are its extremes.
        _check_stream(seed, *rows[:1], *rows[-1:])
        self._rows = rows
        self._bitgen = np.random.Philox(seed)
        self._rng = np.random.Generator(self._bitgen)
        self._key = self._bitgen.state["state"]["key"].tolist()

    def each(self, channel: int) -> Iterator[np.random.Generator]:
        """Stream ``(seed, i, channel)`` for each bit ``i`` in turn, valid until the next."""
        counter = [0, 0, 0, channel]
        state = {
            "bit_generator": "Philox",
            "state": {"counter": counter, "key": self._key},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        for i in self._rows:
            counter[2] = i
            self._bitgen.state = state
            yield self._rng


def _check_stream(seed: int, *words: int) -> None:
    """Refuse a negative seed, or a bit or channel outside ``[0, 2**64)``."""
    if seed < 0:
        raise ValueError("seed must be non-negative")
    if not all(0 <= word < 2**64 for word in words):
        raise ValueError("stream bit and channel must lie in [0, 2**64)")


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


def _check_amplitude(name: str, value: float) -> None:
    """Refuse an amplitude ``value`` unless it and its square are positive and finite.

    The attack squares each scale and divides by the square, and the line
    variances square each amplitude. math.fabs gives a Python float, whose
    square overflows or underflows without a warning.
    """
    magnitude = math.fabs(value)
    if not (value > 0.0 and 0.0 < magnitude * magnitude < math.inf):
        raise ValueError(f"{name} must be positive and finite, and so must its square")


def check_sigmas(sigma_low: float, sigma_high: float) -> None:
    """Refuse source amplitudes that :class:`NoiseSpec` refuses, naming the one at fault."""
    _check_amplitude("sigma_low", sigma_low)
    _check_amplitude("sigma_high", sigma_high)


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
    _check_amplitude("sigma_low", sigma_low)
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
    out = np.abs(x)
    inside = out < half
    # A jump point is np.isclose(|x|, half, rtol=1e-12, atol=0), made in place.
    out -= half
    at_edge = np.abs(out, out=out) <= 1e-12 * half
    np.multiply(inside, height, out=out)
    out[at_edge] = 0.5 * height
    return out


@dataclass(frozen=True)
class SourceLaw:
    """Everything the package knows about one source family, centred at zero.

    ``draw(rng, scale, out)`` fills the float64 array ``out`` with draws.
    ``pdf(x, scale)`` and ``cdf(x, scale)`` are the closed-form density and
    CDF at the points of a float64 array. ``kappa`` is the kurtosis
    ``E[x^4] / sigma^4``, so a mean square of ``n`` draws has standard
    error ``sigma^2 * sqrt((kappa - 1) / n)``; it is None for a family
    without a variance, which the level-based protocol and the
    variance-matched closure comparison refuse, and whose parties the
    attack screens by shape only. ``cdf_nodes`` is None when ``cdf`` is
    cheap enough for the shape test to call on every sample; otherwise it
    is the ``(half width, step)``, in scale units, of the nodes at which
    the shape test tabulates ``cdf`` once and interpolates it.
    ``quantile(t, scale)`` is the inverse of ``cdf`` at levels ``t`` in
    ``[0, 1]``, where the shape test's sample-space thresholds start
    (:func:`kljn.eve._threshold`, :func:`kljn.eve._shape_bands`); it is
    None for a law with ``cdf_nodes``, whose table the test reads
    backwards instead. A law whose ``cdf_nodes`` are set, or whose
    quantiles at 0 and 1 are finite, has a CDF flat outside a finite
    range, and the attack counts its long rows on a grid instead of
    sorting them (:func:`kljn.eve._counts_can_decide`).
    """

    draw: Callable[[np.random.Generator, float, np.ndarray], None]
    pdf: Callable[[np.ndarray, float], np.ndarray]
    cdf: Callable[[np.ndarray, float], np.ndarray]
    kappa: float | None
    cdf_nodes: tuple[float, float] | None
    quantile: Callable[[np.ndarray, float], np.ndarray] | None

    @property
    def variance(self) -> bool:
        """Whether the family has a variance."""
        return self.kappa is not None


# The one table of source laws: no other module branches on a kind. The
# Gaussian CDF calls math.erfc per element, over ten times the cost of
# np.interp, so the shape test interpolates it between nodes 1/200 of a
# scale apart, which stays within 7.6e-7 of it (h^2 / 8 times the largest
# |pdf'|); beyond the nodes' 8 scales it clamps to the end values, within
# 6.2e-16 of 0 and 1.
# It is also the normal CDF behind kljn.eve's two-sided z p-values.
LAWS = {
    DistributionKind.GAUSSIAN: SourceLaw(
        draw=_draw_gaussian,
        pdf=lambda x, scale: np.exp(-0.5 * (x / scale) ** 2) / (scale * _SQRT2PI),
        cdf=lambda x, scale: 0.5 * _erfc(-(x / scale) * _SQRT1_2),
        kappa=3.0,
        cdf_nodes=(8.0, 1.0 / 200.0),
        quantile=None,
    ),
    DistributionKind.UNIFORM: SourceLaw(
        draw=_draw_uniform,
        pdf=_uniform_pdf,
        cdf=lambda x, scale: np.clip((x + _SQRT3 * scale) / (2.0 * _SQRT3 * scale), 0.0, 1.0),
        kappa=1.8,
        cdf_nodes=None,
        quantile=lambda t, scale: (2.0 * t - 1.0) * (_SQRT3 * scale),
    ),
    DistributionKind.CAUCHY: SourceLaw(
        draw=_draw_cauchy,
        pdf=lambda x, scale: scale / (math.pi * (x * x + scale * scale)),
        cdf=lambda x, scale: 0.5 + np.arctan(x / scale) / math.pi,
        kappa=None,
        cdf_nodes=None,
        quantile=lambda t, scale: scale * np.tan(math.pi * (t - 0.5)),
    ),
}


def check_variance(kind: DistributionKind, use: str) -> None:
    """Refuse a family without a variance for ``use``, which needs one."""
    if not LAWS[kind].variance:
        raise ValueError(f"{use} need finite-variance noise, which the {kind.value} family lacks")
