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
What the attack needs of a source family comes from its entry of
:data:`kljn.noise.LAWS`: its shape reference grid, and whether it has a
variance to test, which also sets the Bonferroni count.

:class:`BlockAttack` is the one attack. It holds line signals one bit per
row, so a single bit is a one-row block, and :meth:`BlockAttack.tests`
returns one :class:`Evidence` record per block: each sub-test's statistic
and p-value as arrays indexed ``[hypothesis, party, row]``, and which
hypotheses each row rejects. That is the per-bit evidence behind each
verdict, split into the variance channel and the shape channel. A verdict
is an int code per row, :meth:`BlockAttack.verdicts`; :data:`VERDICTS`
decodes it to an :class:`EveDecision` and :func:`credits` scores it.
:func:`run_blocks` is the one run loop: it draws, solves and attacks a
range of bits block by block for :func:`kljn.protocol.run_session` and for
:func:`attack_trials`, which runs it over fresh mixed-state bits and
scores the verdicts. :func:`run_shares` is the one parallel path: it
splits a run's bits into contiguous shares of whole blocks, runs the first
in this process and each other one in a forked worker, and joins the
per-bit columns that the caller reduces each block to, in bit order.
"""

from __future__ import annotations

import math
import os
import pickle
import threading
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import NamedTuple, NoReturn

import numpy as np

from . import line
from .density import PdfGrid, analytic_pdf, symmetric_grid, weights
from .line import SwitchState, blocks, line_block, resistance_for
from .noise import LAWS, BlockStreams, DistributionKind, NoiseSpec, ResistorPair
# Unused here; bench/test_bench.py checks that its tracer wraps this binding.
from .noise import stream  # noqa: F401

MIN_TEST_SAMPLES = 100

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


def _mean_square(x: np.ndarray) -> np.ndarray:
    """Per-row mean square of zero-mean rows, the variance estimator of the z test.

    ``x`` is squared in place, so it is overwritten; the result is bitwise
    ``np.mean(x**2, axis=1)``.
    """
    return np.mean(np.square(x, out=x), axis=1)


def _z_p_value(z: np.ndarray) -> np.ndarray:
    """Two-sided p-value of standard normal scores, ``2 Phi(-|z|) = erfc(|z| / sqrt 2)``."""
    return 2.0 * LAWS[DistributionKind.GAUSSIAN].cdf(-np.abs(z), 1.0)


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
    are bitwise the plain formulas. The columns go in
    :func:`kljn.line.column_chunks`, so the CDF and the levels ``k / n`` are
    never held at full length; minima and maxima over chunks are exact, so
    D does not depend on the chunking.
    """
    rows, n = x.shape
    lowest = np.full(rows, np.inf)
    highest = np.full(rows, -np.inf)
    for cols in line.column_chunks(rows, n):
        part = x[:, cols]
        cdf = np.interp(part, *reference)
        steps = np.arange(cols.start, cols.stop + 1, dtype=np.float64) / n
        np.minimum(lowest, np.min(np.subtract(cdf, steps[1:], out=part), axis=1), out=lowest)
        np.maximum(highest, np.max(np.subtract(cdf, steps[:-1], out=part), axis=1), out=highest)
    return np.maximum(-lowest, highest)


def reference_grid(spec: NoiseSpec) -> PdfGrid:
    """Tabulate a noise spec's density on its law's ``reference`` grid, for the shape test."""
    widths, steps = LAWS[spec.kind].reference
    grid = symmetric_grid(widths * spec.scale, steps * spec.scale)
    return analytic_pdf(spec.kind, spec.scale, *grid)


# The two mixed assignments, (Alice's state, Bob's state): ALICE_LOW, then ALICE_HIGH.
_HYPOTHESES = (
    (SwitchState.LOW, SwitchState.HIGH),
    (SwitchState.HIGH, SwitchState.LOW),
)
# Decision of each verdict code, low_rejected + 2 * high_rejected: none or
# both rejected leaves the bit undecided.
VERDICTS = (
    EveDecision.UNDECIDED,
    EveDecision.ALICE_HIGH,
    EveDecision.ALICE_LOW,
    EveDecision.UNDECIDED,
)
# Credit of each verdict code [code, alice_high]: 1 correct, 0 wrong, 0.5 undecided.
_CREDITS = np.array([[0.5, 0.5], [0.0, 1.0], [1.0, 0.0], [0.5, 0.5]])
_CREDITS.setflags(write=False)


class Evidence(NamedTuple):
    """Every sub-test of a block: arrays indexed ``[hypothesis, party, row]``.

    Hypotheses are in ``_HYPOTHESES`` order (``ALICE_LOW``, then
    ``ALICE_HIGH``) and Alice is party 0. ``z`` and ``variance_p`` are the
    variance channel: the mean square of the reconstruction against the
    claimed variance, in units of the Gaussian-sampling standard error
    ``variance * sqrt(2 / n)``, and its two-sided p-value; both are NaN
    for a party whose law has no variance (Cauchy). ``statistic`` (the KS
    distance D from the reference CDF, which clamps to 0 or 1 off its
    grid) and ``shape_p`` (the asymptotic Kolmogorov p-value of
    ``sqrt(n) * D``) are the shape channel. ``rejected[hypothesis, row]``
    is set when any p-value of that row is below the attack's level; a
    NaN p-value never rejects.
    """

    z: np.ndarray
    variance_p: np.ndarray
    statistic: np.ndarray
    shape_p: np.ndarray
    rejected: np.ndarray


class BlockAttack:
    """Both mixed-state hypotheses, tested on blocks of bits held one per row.

    Built once per run of bits (:func:`run_blocks`): each party's shape
    reference (:func:`reference_grid`) and its CDF are built here once
    rather than once per bit. The significance must lie in (0, 1) and each
    row must hold at least ``MIN_TEST_SAMPLES`` samples.

    The two hypotheses are tested in turn in one ``(rows, n)`` buffer that
    belongs to the instance and is kept from one block to the next. It
    grows when a block has more rows or another row length; the old buffer
    is released before the new one is allocated. Because the buffer is
    shared by its calls, an instance must not be shared between threads.
    """

    def __init__(
        self, pair: ResistorPair, spec_low: NoiseSpec, spec_high: NoiseSpec, significance: float
    ) -> None:
        _check_significance(significance)
        self.pair = pair
        self.significance = significance
        self.by_state = {}
        for state, spec in ((SwitchState.LOW, spec_low), (SwitchState.HIGH, spec_high)):
            reference = reference_grid(spec)
            self.by_state[state] = (spec, (reference.x, reference.cdf()))
        # The variance each party claims, shaped [hypothesis, party, 1].
        self._variance = np.array(
            [[self.by_state[s][0].scale ** 2 for s in parties] for parties in _HYPOTHESES]
        )[:, :, None]
        # Each hypothesis tests one low and one high party, so both share
        # one Bonferroni level; a source without a variance gets a shape test only.
        n_tests = sum(1 + LAWS[spec.kind].variance for spec in (spec_low, spec_high))
        self.level = significance / n_tests
        # Scratch of both hypotheses, shaped [row, sample].
        self._buffer: np.ndarray | None = None

    def tests(self, voltage: np.ndarray, current: np.ndarray) -> Evidence:
        """Every sub-test of both hypotheses on a block of line signals.

        Each hypothesis screens each party with a variance test and a shape
        test (shape only for sources without a variance). The per-test
        level is the significance divided by the number of sub-tests
        (Bonferroni), so a true hypothesis survives with probability at
        least ``1 - significance``. Each kind of p-value is computed once per
        block, over all of its hypotheses, parties and rows together. Both
        hypotheses work in turn in the leading rows of the instance's kept
        buffer.
        """
        rows, n = voltage.shape
        if n < MIN_TEST_SAMPLES:
            raise ValueError(f"attack needs at least {MIN_TEST_SAMPLES} samples")
        buffer = self._buffer
        if buffer is None or rows > len(buffer) or n != buffer.shape[1]:
            # The old buffer goes first, so two are never held at once.
            self._buffer = buffer = None
            self._buffer = buffer = np.empty((rows, n))
        hypotheses = [
            self._hypothesis(voltage, current, alice, bob, buffer[:rows])
            for alice, bob in _HYPOTHESES
        ]
        mean_square, statistic = map(np.array, zip(*hypotheses))
        z = (mean_square - self._variance) / (self._variance * math.sqrt(2.0 / n))
        variance_p = _z_p_value(z)
        shape_p = _kolmogorov_sf(math.sqrt(n) * statistic)
        rejected = ((variance_p < self.level) | (shape_p < self.level)).any(axis=1)
        return Evidence(z, variance_p, statistic, shape_p, rejected)

    def _hypothesis(
        self,
        voltage: np.ndarray,
        current: np.ndarray,
        alice_state: SwitchState,
        bob_state: SwitchState,
        buffer: np.ndarray,
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-row mean squares (NaN without a variance) and KS distances of Alice and Bob.

        Both parties work inside ``buffer``: the reconstruction is squared
        in place for the mean square, made again and sorted in place for the
        shape test.
        """
        mean_squares, statistics = [], []
        for alice, state in ((True, alice_state), (False, bob_state)):
            spec, reference = self.by_state[state]
            r = resistance_for(self.pair, state)
            if LAWS[spec.kind].variance:
                mean_squares.append(_mean_square(_reconstruct(voltage, current, r, alice, buffer)))
            else:
                mean_squares.append(np.full(len(buffer), np.nan))
            _reconstruct(voltage, current, r, alice, buffer).sort(axis=1)
            statistics.append(_ks_statistic(buffer, reference))
        return mean_squares, statistics

    def verdicts(self, voltage: np.ndarray, current: np.ndarray) -> np.ndarray:
        """One verdict code per row of a block of line signals, decoded by :data:`VERDICTS`.

        The code is ``low_rejected + 2 * high_rejected``. A verdict names the
        surviving hypothesis when exactly one of the two was rejected; it is
        undecided when both survive (the secure situation) and also when
        both are rejected, which points at a non-mixed bit or a model
        mismatch rather than at either mixed assignment.
        """
        low_rejected, high_rejected = self.tests(voltage, current).rejected
        return low_rejected + 2 * high_rejected


def credits(verdicts: np.ndarray, alice_high: np.ndarray) -> np.ndarray:
    """Score verdict codes against Alice's true switches: 1 correct, 0 wrong, 0.5 undecided."""
    return _CREDITS[verdicts, np.asarray(alice_high, dtype=np.intp)]


@dataclass(frozen=True, eq=False)
class AttackTrialSummary:
    """Aggregate outcome of repeated attacks on fresh mixed-state bits.

    ``alice_high`` (Alice's true switch) and ``verdicts`` (the attack's
    verdict codes) are read-only columns, one entry per trial.
    """

    trials: int
    correct: int
    wrong: int
    undecided: int
    accuracy: float
    alice_high: np.ndarray
    verdicts: np.ndarray

    def __post_init__(self) -> None:
        for column in (self.alice_high, self.verdicts):
            column.setflags(write=False)

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "correct": self.correct,
            "trials": self.trials,
            "undecided": self.undecided,
            "wrong": self.wrong,
        }


def check_run_settings(
    samples: int,
    bits: int,
    significance: float,
    seed: int,
    names: tuple[str, str] = ("samples", "bits"),
) -> None:
    """Refuse settings :func:`run_blocks` cannot run, naming the one at fault.

    ``names`` are the caller's names for ``samples`` and ``bits``. Sessions
    (:class:`kljn.protocol.SessionConfig`), :func:`attack_trials`, the
    CLI's ``attack`` validator and :func:`run_blocks` itself call this
    before anything is drawn.
    """
    samples_name, bits_name = names
    if bits < 1:
        raise ValueError(f"{bits_name} must be at least 1")
    if samples < MIN_TEST_SAMPLES:
        raise ValueError(f"{samples_name} must be at least {MIN_TEST_SAMPLES}")
    _check_significance(significance)
    if seed < 0:
        raise ValueError("seed must be non-negative")


def run_blocks(
    pair: ResistorPair,
    spec_low: NoiseSpec,
    spec_high: NoiseSpec,
    samples: int,
    bits: int | range,
    significance: float,
    seed: int,
    switches: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Draw, solve and attack a range of bits of ``samples`` samples each, one block at a time.

    This is the one run loop of sessions and attack trials. ``bits`` is
    the range of bit indices to run, or a count of bits from 0. Its
    settings are checked (:func:`check_run_settings`) when the first block
    is asked for, before anything is drawn. Bit ``i`` draws
    its two coins from stream ``(seed, i, 0)`` as ``integers(0, 2,
    size=2)``; ``switches`` maps the block's ``(rows, 2)`` boolean coin
    array to the switch states ``(alice_high, bob_high)``. The sources and
    the line follow (:func:`kljn.line.line_block`), and the mixed rows are
    attacked, without a copy when every row is mixed. Each block yields
    ``(alice_high, bob_high, voltage, verdicts)``, in bit order: its switch
    states, its line voltage (scratch once yielded; the next block
    overwrites it) and the verdict code of each mixed row
    (:meth:`BlockAttack.verdicts`).

    Bits run in blocks of ``kljn.line.BLOCK_SAMPLES // samples`` (at least
    one), held as ``(bits, samples)`` arrays. The run allocates its two
    line arrays once, shaped like the first block, and each block is drawn
    and solved in their leading rows; with the attack's kept hypothesis
    buffer, a run holds three arrays of its block's size at most, and a
    longer trace runs alone in its block. Every bit keeps its own streams,
    addressed by its index under the run's one key
    (:class:`kljn.noise.BlockStreams`), so the outcome depends neither on
    the block size nor on how the bits are split between runs
    (:func:`run_shares`).
    """
    span = bits if isinstance(bits, range) else range(bits)
    check_run_settings(samples, len(span), significance, seed)
    eve = BlockAttack(pair, spec_low, spec_high, significance)
    row_blocks = blocks(span.stop, samples, span.start)
    line_arrays = np.empty((2, len(row_blocks[0]), samples))
    for rows in row_blocks:
        streams = BlockStreams(seed, rows)
        coins = np.array([rng.integers(0, 2, size=2) for rng in streams.each(0)], dtype=bool)
        alice_high, bob_high = switches(coins)
        voltage, current = line_block(
            streams, alice_high, bob_high, pair, spec_low, spec_high, line_arrays[:, : len(rows)]
        )
        mixed = alice_high != bob_high
        attacked = (voltage, current) if mixed.all() else (voltage[mixed], current[mixed])
        yield alice_high, bob_high, voltage, eve.verdicts(*attacked)


class WorkerError(RuntimeError):
    """A worker ended without a result, or raised an exception that cannot be sent back."""


def _shares(bits: int, samples: int) -> list[range]:
    """Split ``range(bits)`` into contiguous shares of whole blocks, one per process.

    There are as many shares as cores this process may run on, and at most
    one per block (:func:`kljn.line.blocks`). There is one share where
    ``os.fork`` is missing, and where another Python thread runs: a fork
    copies only the calling thread, so a lock another thread holds would
    stay held in the worker.
    """
    row_blocks = blocks(bits, samples)
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    workers = max(1, min(cores, len(row_blocks)))
    if not hasattr(os, "fork") or threading.active_count() > 1:
        workers = 1
    starts = [row_blocks[len(row_blocks) * k // workers].start for k in range(1, workers)]
    cuts = [0, *starts, bits]
    return [range(start, stop) for start, stop in zip(cuts, cuts[1:])]


def run_shares(
    bits: int, samples: int, columns: Callable[[range], Iterable[Sequence[np.ndarray]]]
) -> list[np.ndarray]:
    """The per-bit columns of ``range(bits)``, run in shares on forked workers.

    ``columns(share)`` runs a range of bits (through :func:`run_blocks`)
    and yields each block's columns, in bit order: arrays of one entry per
    bit, or per some of its bits. The bits are split into contiguous shares
    of whole blocks, one per core (:func:`_shares`). This process runs the
    first share; each other share runs in a worker forked from it, which
    pickles its columns back over a pipe. The columns are joined in bit
    order. Every bit draws from its own streams, so the result is bitwise
    the same for any number of workers.

    An exception raised in a worker is raised here with its type and
    message. One that cannot be pickled, and a worker that ends without a
    result (killed by a signal, or out of memory), is a
    :class:`WorkerError`. Every worker is reaped before this returns, and
    killed first if the run fails or is interrupted.
    """
    first, *rest = _shares(bits, samples)
    parent = os.getpid()
    workers: dict[int, int] = {}  # pid -> read end of its pipe, while not reaped
    try:
        for share in rest:
            read, write = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    _work(columns, share, write, parent)  # never returns
            except BaseException:
                os.close(read)
                raise
            finally:
                os.close(write)
            workers[pid] = read
        parts = [list(columns(first))]
        for pid, read in list(workers.items()):
            with open(read, "rb", closefd=False) as pipe:
                sent = pipe.read()
            status = os.waitpid(pid, 0)[1]
            os.close(workers.pop(pid))
            parts.append(_received(pid, sent, status))
    finally:
        _kill(workers)
    return [np.concatenate(column) for column in zip(*chain.from_iterable(parts))]


def _work(
    columns: Callable[[range], Iterable[Sequence[np.ndarray]]], share: range, pipe: int, parent: int
) -> NoReturn:
    """Run one share in a forked worker, send its columns or its exception, and exit.

    The worker leaves only through ``os._exit``, so it runs no atexit
    handler and flushes no output buffer it inherited. It stops between
    blocks once ``parent`` has gone, so a killed run leaves no worker.
    """
    status = 1
    try:
        try:
            sent = []
            for block in columns(share):
                if os.getppid() != parent:
                    os._exit(1)
                sent.append(block)
            message = (True, sent)
        except BaseException as exc:
            message = (False, _portable(exc, share))
        with open(pipe, "wb") as out:
            pickle.dump(message, out, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _portable(exc: BaseException, share: range) -> BaseException:
    """``exc`` with its traceback as a note, or a :class:`WorkerError` if it does not pickle."""
    import traceback  # only a failing worker pays for it

    if hasattr(exc, "add_note"):  # Python 3.11 and later
        where = f"raised in the worker that ran bits {share.start} to {share.stop - 1}:\n"
        exc.add_note(where + "".join(traceback.format_tb(exc.__traceback__)))
    try:
        pickle.loads(pickle.dumps(exc, pickle.HIGHEST_PROTOCOL))
    except Exception:
        return WorkerError(f"a worker raised {exc!r}")
    return exc


def _received(pid: int, sent: bytes, status: int) -> list:
    """The block columns a reaped worker sent; what it raised is raised here.

    A worker exits with status 0 only once its whole message is written,
    so any other status means that ``sent`` is missing or cut short.
    """
    code = os.waitstatus_to_exitcode(status)
    if code:
        how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
        raise WorkerError(f"worker {pid} ended without a result ({how})")
    ok, value = pickle.loads(sent)
    if not ok:
        raise value
    return value


def _kill(workers: dict[int, int]) -> None:
    """Kill, reap and close every worker of a run that failed or was interrupted."""
    if not workers:
        return
    import signal  # only a failed run pays for it

    for pid, read in workers.items():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
        os.close(read)
    workers.clear()


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
    0.5 is the blind-guessing baseline. Trials run in :func:`run_blocks`
    with the streams of a session's bits: trial ``i``'s first coin ``c0``
    sets Alice low, so the switches are ``(~c0, c0)``. They run in shares
    on forked workers (:func:`run_shares`), each reduced to its
    ``alice_high`` and ``verdicts`` columns.
    """
    check_run_settings(
        samples_per_trial, trials, significance, seed, ("samples_per_trial", "trials")
    )

    def switches(coins: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return ~coins[:, 0], coins[:, 0]

    def columns(share: range) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        run = run_blocks(
            pair, spec_low, spec_high, samples_per_trial, share, significance, seed, switches
        )
        return ((a, v) for a, _, _, v in run)

    alice_high, verdicts = run_shares(trials, samples_per_trial, columns)
    credit = credits(verdicts, alice_high)
    n_correct = int(np.count_nonzero(credit == 1.0))
    n_undecided = int(np.count_nonzero(credit == 0.5))
    return AttackTrialSummary(
        trials=trials,
        correct=n_correct,
        wrong=trials - n_correct - n_undecided,
        undecided=n_undecided,
        accuracy=float(credit.mean()),
        alice_high=alice_high,
        verdicts=verdicts,
    )
