"""Run engine: a run's bits drawn, solved and attacked, in shares on forked workers.

:func:`run` is the one entry point of sessions
(:func:`kljn.protocol.run_session`) and attack trials
(:func:`kljn.protocol.attack_trials`). It splits a run's bits into
contiguous shares of whole blocks, runs the first in this process and each
other one in a forked worker, and joins the per-bit columns of every block
(:class:`BitColumns`) by name, in bit order. :func:`run_blocks` is the one
run loop that each share goes through: it draws, solves and attacks a
range of bits block by block. :func:`check_run_settings` refuses the
settings it cannot run before anything is drawn.
"""

from __future__ import annotations

import os
import pickle
import threading
from collections.abc import Callable, Iterator
from itertools import chain
from typing import NamedTuple, NoReturn

import numpy as np

from .eve import MIN_TEST_SAMPLES, BlockAttack, check_significance, mean_square
from .line import blocks, line_block
from .noise import BlockStreams

# Maps a block's (rows, 2) boolean coin array to its switches (alice_high, bob_high).
Switches = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
# The bits of a stream's first raw word that are its two coins.
_COIN_BITS = np.array([31, 63], dtype=np.uint64)
# The power column of a block whose power is not taken.
_NO_POWER = np.empty(0)


class BitColumns(NamedTuple):
    """The per-bit columns of a block of bits, or of a whole run, in bit order.

    ``alice_high`` and ``bob_high`` are each party's switch (high when
    set) and ``power`` the mean square of the bit's line voltage, one entry
    per bit; ``power`` is empty in a run that does not take it
    (:func:`run_blocks`). ``verdicts`` holds the attack's verdict code
    (:meth:`kljn.eve.BlockAttack.verdicts`) of each mixed bit.
    """

    alice_high: np.ndarray
    bob_high: np.ndarray
    power: np.ndarray
    verdicts: np.ndarray


def check_run_settings(
    samples: int,
    bits: int,
    significance: float,
    seed: int,
    names: tuple[str, str] = ("samples", "bits"),
) -> None:
    """Refuse settings :func:`run_blocks` cannot run, naming the one at fault.

    ``names`` are the caller's names for ``samples`` and ``bits``. Sessions
    (:class:`kljn.protocol.SessionConfig`),
    :func:`kljn.protocol.attack_trials`, the CLI's ``attack`` validator and
    :func:`run_blocks` itself call this before anything is drawn.
    """
    samples_name, bits_name = names
    if bits < 1:
        raise ValueError(f"{bits_name} must be at least 1")
    if samples < MIN_TEST_SAMPLES:
        raise ValueError(f"{samples_name} must be at least {MIN_TEST_SAMPLES}")
    check_significance(significance)
    if seed < 0:
        raise ValueError("seed must be non-negative")


def run_blocks(
    eve: BlockAttack, samples: int, bits: range, seed: int, switches: Switches, power: bool = True
) -> Iterator[BitColumns]:
    """Draw, solve and attack a range of bits of ``samples`` samples each, one block at a time.

    This is the one run loop of sessions and attack trials. ``eve`` is the
    run's attack, which also holds its resistor pair and noise specs.
    ``bits`` is the range of bit indices to run. Its settings are checked
    (:func:`check_run_settings`) when the first block is asked for, before
    anything is drawn. Bit ``i`` draws its two coins from stream ``(seed,
    i, 0)`` (:func:`_coins`); ``switches`` maps the block's
    ``(rows, 2)`` boolean coin array to the switch states ``(alice_high,
    bob_high)``. The sources and the line follow
    (:func:`kljn.line.line_block`), and the mixed rows are attacked,
    without a copy when every row is mixed. Each block yields its
    :class:`BitColumns`, in bit order: its switch states, the verdict code
    of each mixed row (:meth:`BlockAttack.verdicts`) and each row's power,
    the mean square of its voltage, which is squared in place after the
    attack. A run that reads no power (``power`` false) skips that square,
    and its power column is empty.

    Bits run in blocks of ``kljn.line.BLOCK_SAMPLES // samples`` (at least
    one), held as ``(bits, samples)`` arrays. The run makes one allocation,
    a ``(3, rows, samples)`` array shaped like the first block: each block
    is drawn and solved in the leading rows of the two line arrays, and
    the attack works in the leading rows of the third, its scratch. So a
    run holds three arrays of its block's size, and a longer trace runs
    alone in its block. Every bit keeps its own streams,
    addressed by its index under the run's one key
    (:class:`kljn.noise.BlockStreams`), so the outcome depends neither on
    the block size nor on how the bits are split between runs
    (:func:`run`).
    """
    check_run_settings(samples, len(bits), eve.significance, seed)
    row_blocks = blocks(bits.stop, samples, bits.start)
    arrays = np.empty((3, len(row_blocks[0]), samples))
    for rows in row_blocks:
        streams = BlockStreams(seed, rows)
        alice_high, bob_high = switches(_coins(streams))
        voltage, current = line_block(
            streams, alice_high, bob_high, eve.pair, *eve.specs, arrays[:2, : len(rows)]
        )
        mixed = alice_high != bob_high
        attacked = (voltage, current) if mixed.all() else (voltage[mixed], current[mixed])
        # Before the voltage is squared in place, in the leading rows of the scratch.
        verdicts = eve.verdicts(*attacked, out=arrays[2, : len(attacked[0])])
        # A copy of the mixed rows would otherwise live on through the next block's draws.
        del attacked
        power_column = mean_square(voltage) if power else _NO_POWER
        yield BitColumns(alice_high, bob_high, power_column, verdicts)


def _coins(streams: BlockStreams) -> np.ndarray:
    """Each bit's two coins as a ``(rows, 2)`` boolean array, from its stream's first raw word.

    They are bits 31 and 63 of that word, which are ``integers(0, 2,
    size=2)`` of stream ``(seed, i, 0)``. numpy
    draws each of those by Lemire's method from the next buffered 32-bit
    half of a raw Philox word, low half first, and for a range of two that
    is the half's top bit. Philox's raw output is fixed across numpy
    releases, unlike ``Generator`` methods.
    """
    words = np.fromiter((rng.bit_generator.random_raw() for rng in streams.each(0)), np.uint64)
    return (words[:, None] >> _COIN_BITS & 1).astype(bool)


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


def run(
    eve: BlockAttack, samples: int, bits: int, seed: int, switches: Switches, power: bool = True
) -> BitColumns:
    """The per-bit columns of ``range(bits)``, run in shares on forked workers.

    Each share runs in :func:`run_blocks` with ``power`` and the run's
    attack ``eve``, built before the workers fork, so every worker inherits
    its shape CDFs' tables. The bits are split into contiguous shares of
    whole blocks, one per core (:func:`_shares`). This process runs the
    first share; each other share runs in a worker forked from it, which
    pickles its blocks' columns back over a pipe. The columns of every
    block are joined by name, in bit order. Every bit draws from its own
    streams, so the result is bitwise the same for any number of workers.

    An exception raised in a worker is raised here with its type and
    message. One that cannot be pickled, and a worker that ends without a
    result (killed by a signal, or out of memory), is a
    :class:`WorkerError`. Every worker is reaped before this returns, and
    killed first if the run fails or is interrupted. Settings the run
    cannot make (:func:`check_run_settings`) are refused before it splits.
    """
    check_run_settings(samples, bits, eve.significance, seed)
    first, *rest = _shares(bits, samples)
    parent = os.getpid()
    workers: dict[int, int] = {}  # pid -> read end of its pipe, while not reaped
    try:
        for share in rest:
            read, write = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:  # never returns
                    share_blocks = run_blocks(eve, samples, share, seed, switches, power)
                    _work(share_blocks, share, write, parent)
            except BaseException:
                os.close(read)
                raise
            finally:
                os.close(write)
            workers[pid] = read
        parts = [list(run_blocks(eve, samples, first, seed, switches, power))]
        for pid, read in list(workers.items()):
            with open(read, "rb", closefd=False) as pipe:
                sent = pipe.read()
            status = os.waitpid(pid, 0)[1]
            os.close(workers.pop(pid))
            parts.append(_received(pid, sent, status))
    finally:
        _kill(workers)
    # Every block is a BitColumns, so its fields line up by name.
    return BitColumns._make(map(np.concatenate, zip(*chain.from_iterable(parts))))


def _work(share_blocks: Iterator[BitColumns], share: range, pipe: int, parent: int) -> NoReturn:
    """Run one share's blocks in a forked worker, send their columns or its exception, and exit.

    The worker leaves only through ``os._exit``, so it runs no atexit
    handler and flushes no output buffer it inherited. It stops between
    blocks once ``parent`` has gone, so a killed run leaves no worker.
    """
    status = 1
    try:
        try:
            sent = []
            for block in share_blocks:
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


def _received(pid: int, sent: bytes, status: int) -> list[BitColumns]:
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
