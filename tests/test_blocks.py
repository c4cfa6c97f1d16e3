"""Block engine: parity with the per-bit algorithm, pinned outputs, chunking invariance."""

import dataclasses
import functools
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import kljn
import kljn.line
from kljn import (
    BlockAttack,
    DistributionKind,
    NoiseSpec,
    ResistorPair,
    SessionConfig,
    SessionOutcome,
    VERDICTS,
    attack_trials,
    closure_pair,
    line_signals,
    run_session,
    sample,
    stream,
    theoretical_line_variance,
    weights,
)
from kljn.density import convolve_scaled, l1_residual
from test_protocol import first_seed_mixing

try:
    from hypothesis import example, given, settings
    from hypothesis import strategies as st
except ImportError:  # hypothesis is a test extra; its property test is skipped without it
    given = None

PAIR = ResistorPair(1.0, 4.0)


def reference_level(measured: float, config: SessionConfig) -> str:
    """Nearest level in log space: cuts at the geometric means of the ladder, ties fall lower."""
    low, mid, high = (
        theoretical_line_variance(config.pair, config.sigma_low, config.sigma_high, a, b)
        for a, b in ((False, False), (False, True), (True, True))
    )
    if measured <= math.sqrt(low * mid):
        return "low"
    if measured <= math.sqrt(mid * high):
        return "mid"
    return "high"


def one_bit_verdict(eve: BlockAttack, voltage, current) -> int:
    """The attack's verdict code on one bit, held as a one-row block."""
    [verdict] = eve.verdicts(voltage[None, :], current[None, :]).tolist()
    return verdict


def reference_bit(config: SessionConfig, i: int):
    """Bit ``i`` of a session through the public API: both switches (high when set) and the line."""
    specs = (NoiseSpec(config.kind, config.sigma_low), NoiseSpec(config.kind, config.sigma_high))
    resistances = (config.pair.r_low, config.pair.r_high)
    a_high, b_high = (bool(c) for c in stream(config.seed, i, 0).integers(0, 2, size=2))
    v_a = sample(specs[a_high], config.samples_per_bit, stream(config.seed, i, 1))
    v_b = sample(specs[b_high], config.samples_per_bit, stream(config.seed, i, 2))
    voltage, current = line_signals(v_a, v_b, resistances[a_high], resistances[b_high])
    return a_high, b_high, voltage, current


def reference_session(config: SessionConfig) -> tuple[SessionOutcome, list[dict], tuple]:
    """The per-bit session loop, one bit at a time through the public API.

    Returns the outcome of its columns and, derived here bit by bit, its
    per-bit records as ``session.json`` holds them and its secure-bit
    fraction and Eve's accuracy. Eve's credit on a secure bit is 1 when
    her decision names Alice's switch, 0 when it names the other and 1/2
    when she is undecided; her accuracy is the mean credit, None without
    a secure bit.
    """
    spec_low = NoiseSpec(config.kind, config.sigma_low)
    spec_high = NoiseSpec(config.kind, config.sigma_high)
    eve = BlockAttack(config.pair, spec_low, spec_high, config.significance)
    states = ("low", "high")
    alice_high, bob_high, levels, verdicts, credit, bits = [], [], [], [], [], []
    for i in range(config.bits):
        a_high, b_high, voltage, current = reference_bit(config, i)
        a_state, b_state = states[a_high], states[b_high]
        level = reference_level(float(np.mean(voltage**2)), config)
        secure = a_high != b_high
        if secure:
            true_level = "mid"
        else:
            true_level = "high" if a_high else "low"
        discarded = level != true_level
        decision = None
        alice_high.append(a_high)
        bob_high.append(b_high)
        levels.append(("low", "mid", "high").index(level))
        if secure:
            verdicts.append(one_bit_verdict(eve, voltage, current))
            decision = VERDICTS[verdicts[-1]]
            names_alice = decision == f"alice_{a_state}"
            credit.append(0.5 if decision == "undecided" else float(names_alice))
        bits.append(
            {
                "alice_state": a_state,
                "bit_index": i,
                "bob_state": b_state,
                "classified_level": level,
                "discarded": discarded,
                "eve_decision": decision,
                "key_bit": None if discarded or not secure else int(a_high),
                "secure": secure,
            }
        )
    outcome = SessionOutcome(
        alice_high=np.array(alice_high),
        bob_high=np.array(bob_high),
        levels=np.array(levels, dtype=np.intp),
        verdicts=np.array(verdicts, dtype=np.intp),
    )
    aggregates = (len(credit) / config.bits, sum(credit) / len(credit) if credit else None)
    return outcome, bits, aggregates


def reference_trials(spec_low, spec_high, samples, trials, seed):
    """The per-trial attack loop: Alice's true switches and the verdict codes."""
    specs, resistances = (spec_low, spec_high), (PAIR.r_low, PAIR.r_high)
    eve = BlockAttack(PAIR, spec_low, spec_high, 0.01)
    alice_high, verdicts = [], []
    for t in range(trials):
        a_high = not stream(seed, t, 0).integers(0, 2)
        v_a = sample(specs[a_high], samples, stream(seed, t, 1))
        v_b = sample(specs[not a_high], samples, stream(seed, t, 2))
        line = line_signals(v_a, v_b, resistances[a_high], resistances[not a_high])
        verdicts.append(one_bit_verdict(eve, *line))
        alice_high.append(a_high)
    return np.array(alice_high), np.array(verdicts, dtype=np.intp)


def assert_same_outcome(got, want):
    """Every column (values and dtype) and every aggregate of two run outcomes agree.

    The outcome types compare by identity (their columns are arrays), so
    this compares field by field, then the serialised form.
    """
    assert type(got) is type(want)
    for field in dataclasses.fields(want):
        g, w = getattr(got, field.name), getattr(want, field.name)
        if isinstance(w, np.ndarray):
            assert g.dtype == w.dtype and np.array_equal(g, w), field.name
        else:
            assert g == w, field.name
    assert got.to_dict() == want.to_dict()


def session_config(kind, sigma_high, samples, bits, seed) -> SessionConfig:
    return SessionConfig(
        pair=PAIR,
        kind=kind,
        sigma_low=1.0,
        sigma_high=sigma_high,
        samples_per_bit=samples,
        bits=bits,
        seed=seed,
    )


def digest(outcome: SessionOutcome) -> str:
    return hashlib.sha256(outcome.to_json().encode()).hexdigest()


# Bit counts are not multiples of the default block (327, 218 and 32 bits).
@pytest.mark.parametrize("samples, bits", [(100, 400), (150, 250), (1000, 45)])
@pytest.mark.parametrize("sigma_high", [2.0, 3.0])
@pytest.mark.parametrize("kind", [DistributionKind.GAUSSIAN, DistributionKind.UNIFORM])
def test_session_matches_per_bit_loop(kind, sigma_high, samples, bits):
    config = session_config(kind, sigma_high, samples, bits, seed=samples + bits)
    outcome = run_session(config)
    reference, bits, aggregates = reference_session(config)
    assert_same_outcome(outcome, reference)
    assert (outcome.secure_bit_fraction, outcome.eve_accuracy) == aggregates
    # JSON text, so a bool where an int belongs (True == 1) shows too
    assert json.dumps(outcome.to_dict()["bits"], sort_keys=True) == json.dumps(bits, sort_keys=True)


@pytest.mark.parametrize(
    "kind, sigma_high, samples, trials",
    [
        (DistributionKind.GAUSSIAN, 2.0, 100, 400),
        (DistributionKind.GAUSSIAN, 3.0, 1000, 45),
        (DistributionKind.UNIFORM, 2.0, 150, 250),
        (DistributionKind.UNIFORM, 3.0, 1000, 40),
        (DistributionKind.CAUCHY, 2.0, 1000, 40),
    ],
)
def test_attack_trials_match_per_trial_loop(kind, sigma_high, samples, trials):
    spec_low, spec_high = NoiseSpec(kind, 1.0), NoiseSpec(kind, sigma_high)
    summary = attack_trials(PAIR, spec_low, spec_high, samples, trials, seed=trials)
    alice_high, verdicts = reference_trials(spec_low, spec_high, samples, trials, seed=trials)
    assert summary.alice_high.dtype == alice_high.dtype
    assert np.array_equal(summary.alice_high, alice_high)
    assert summary.verdicts.dtype == verdicts.dtype
    assert np.array_equal(summary.verdicts, verdicts)


def test_criterion_8_session_digest_is_pinned():
    config = session_config(DistributionKind.GAUSSIAN, 2.0, 1000, 10_000, seed=2718)
    assert digest(run_session(config)) == (
        "b2766c7e534c8bdd44a77373cdbe7bcb736fb1e134ea4fe9d78679c903d3df22"
    )


def test_uniform_session_digest_is_pinned():
    # Pinned since the uniform z test takes the uniform law's standard error,
    # variance * sqrt(0.8 / n); with the Gaussian sqrt(2 / n) it read d1f1567e.
    config = session_config(DistributionKind.UNIFORM, 2.0, 150, 300, seed=3)
    assert digest(run_session(config)) == (
        "70be3c8fedd9ca279142ed259d449b4b81a665f8ef74d6e66cb0b46f05dcab3a"
    )


@pytest.mark.parametrize("bits_per_block", [1, 7, None])
def test_outputs_do_not_depend_on_the_block_size(monkeypatch, bits_per_block):
    samples, bits = 150, 60
    config = session_config(DistributionKind.UNIFORM, 3.0, samples, bits, seed=9)
    spec_low, spec_high = NoiseSpec("uniform", 1.0), NoiseSpec("uniform", 2.0)
    expected_session = run_session(config)
    expected_trials = attack_trials(PAIR, spec_low, spec_high, samples, bits, seed=9)
    monkeypatch.setattr(kljn.line, "BLOCK_SAMPLES", samples * (bits_per_block or bits))
    assert [len(b) for b in kljn.line.blocks(bits, samples)][0] == (bits_per_block or bits)
    assert_same_outcome(run_session(config), expected_session)
    trials = attack_trials(PAIR, spec_low, spec_high, samples, bits, seed=9)
    assert_same_outcome(trials, expected_trials)


CHUNKED_SAMPLES, CHUNKED_BITS = 120, 30


@functools.cache
def unchunked_runs():
    """Session and attack trials of the chunking property at the default block size."""
    config = session_config(DistributionKind.UNIFORM, 3.0, CHUNKED_SAMPLES, CHUNKED_BITS, seed=11)
    spec_low, spec_high = NoiseSpec("uniform", 1.0), NoiseSpec("uniform", 2.0)
    trials = attack_trials(PAIR, spec_low, spec_high, CHUNKED_SAMPLES, CHUNKED_BITS, seed=11)
    return config, run_session(config), trials


if given is not None:

    # Budgets below the row length put every row alone in its block, with KS
    # chunks of a few columns. The cores split the blocks into worker shares.
    @settings(max_examples=25, deadline=None)
    @given(
        st.one_of(
            st.integers(1, CHUNKED_SAMPLES),
            st.integers(CHUNKED_SAMPLES + 1, 2 * CHUNKED_SAMPLES * CHUNKED_BITS),
        ),
        st.integers(1, 4),
    )
    @example(1, 1)
    @example(CHUNKED_SAMPLES - 1, 3)
    @example(CHUNKED_SAMPLES, 2)
    @example(CHUNKED_SAMPLES * 7 + 3, 4)
    def test_outputs_do_not_depend_on_any_chunking(block_samples, cores):
        config, session, trials = unchunked_runs()
        spec_low, spec_high = NoiseSpec("uniform", 1.0), NoiseSpec("uniform", 2.0)
        affinity = mock.patch.object(
            os, "sched_getaffinity", lambda pid: set(range(cores)), create=True
        )
        with mock.patch.object(kljn.line, "BLOCK_SAMPLES", block_samples), affinity:
            assert_same_outcome(run_session(config), session)
            assert_same_outcome(
                attack_trials(PAIR, spec_low, spec_high, CHUNKED_SAMPLES, CHUNKED_BITS, seed=11),
                trials,
            )

else:

    def test_outputs_do_not_depend_on_any_chunking():
        pytest.skip("needs hypothesis")


def test_reference_cdfs_are_built_once_per_session(monkeypatch):
    # Two cores split the session's three blocks into two shares. The worker
    # inherits the attack built before the fork, with the node table of each
    # Gaussian spec's CDF; a table built in it fails the run.
    calls, forks, parent = [], [], os.getpid()
    original, fork = kljn.eve._shape_cdf, os.fork

    def counted(spec):
        assert os.getpid() == parent, "a worker built its own CDF table"
        if kljn.noise.LAWS[spec.kind].cdf_nodes is not None:
            calls.append(spec)
        return original(spec)

    monkeypatch.setattr(kljn.eve, "_shape_cdf", counted)
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    run_session(session_config(DistributionKind.GAUSSIAN, 2.0, 100, 700, seed=1))
    assert len(forks) == 1
    assert len(calls) == 2


def traced_peak(run) -> int:
    """Peak bytes ``tracemalloc`` sees while ``run()`` runs; numpy reports its buffers to it."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


LONG_TRACE = 1_000_000


def long_attack():
    spec_low, spec_high = NoiseSpec("uniform", 1.0), NoiseSpec("uniform", 2.0)
    attack_trials(PAIR, spec_low, spec_high, LONG_TRACE, 2, seed=1)


def long_session():
    # One mixed bit that the attack tests and one that it does not.
    seed = first_seed_mixing([True, False])
    outcome = run_session(session_config(DistributionKind.GAUSSIAN, 2.0, LONG_TRACE, 2, seed=seed))
    assert (outcome.alice_high != outcome.bob_high).tolist() == [True, False]


@pytest.mark.parametrize("run", [long_attack, long_session], ids=["attack", "session"])
def test_a_long_trace_peaks_below_four_trace_sizes(monkeypatch, run):
    # One core, so this process runs both bits and tracemalloc sees all of
    # it. Each 1M-sample bit runs alone in its block. The run's two line
    # arrays and the attack's hypothesis buffer are the only arrays of the
    # trace's length, and they are allocated once for both bits.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert traced_peak(run) < 4 * 8 * LONG_TRACE


@pytest.mark.parametrize("kind", ["uniform", "cauchy"])
def test_building_an_attack_on_a_closed_form_cdf_tabulates_nothing(kind):
    # The uniform and Cauchy shape tests call their law's CDF on each row,
    # so building the attack makes no array of any length. A Cauchy density
    # tabulated over 800 scales took 12.2 MiB.
    specs = (NoiseSpec(kind, 1.0), NoiseSpec(kind, 3.0))
    assert traced_peak(lambda: BlockAttack(PAIR, *specs, 0.05)) < 16 * 1024


def test_the_pdf_command_arithmetic_peaks_below_four_and_a_half_grids():
    # The pdf command's mixture and reference, its residual and both second
    # moments on the grid of resistors 1.0 and 1.1 (70 405 points). Each
    # step makes its grid-length arrays once and writes into them, so with
    # the two densities kept no step holds more than two more.
    w = weights(ResistorPair(1.0, 1.1), 1.0, math.sqrt(1.1))
    sizes = []

    def run():
        mixture, reference = closure_pair(DistributionKind.UNIFORM, w)
        l1_residual(mixture, reference)
        mixture.second_moment()
        reference.second_moment()
        sizes.append(mixture.values.nbytes)

    peak = traced_peak(run)
    assert sizes == [70_405 * 8]
    assert peak < 4.5 * sizes[0]


def test_the_convolution_peaks_below_two_and_a_half_grids():
    # The same mixture alone. Its wider component spans 0.95 of the grid,
    # and the convolution frees each component once its end-weighted copy
    # is made, so no step holds more than that component being built or
    # the two spectra (2.27 grids). While the caller kept both components
    # alive through the FFT it took 3.10.
    w = weights(ResistorPair(1.0, 1.1), 1.0, math.sqrt(1.1))
    sizes = []
    peak = traced_peak(
        lambda: sizes.append(convolve_scaled(DistributionKind.UNIFORM, w).values.nbytes)
    )
    assert sizes == [70_405 * 8]
    assert peak < 2.5 * sizes[0]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux page faults")
def test_a_long_trial_after_the_first_reuses_its_pages():
    # The first trial allocates the run's arrays; each later one draws,
    # solves and attacks in them. The KS statistic interpolates few of a
    # far row's values, on the grid slice they span, in batches small
    # enough for the allocator to reuse their pages. Handed the whole
    # 32 001-point grid, np.interp mapped a fresh slope table on each call:
    # 7 596 faults a trial. The count needs a fresh interpreter (see
    # page_faults.py).
    src = str(Path(kljn.__file__).resolve().parents[1])
    path = os.pathsep.join([src, str(Path(__file__).parent)])
    code = "import page_faults; print(page_faults.later_trial_faults())"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    faults = json.loads(out.stdout)
    assert max(faults) < 1500, faults


def test_session_peak_does_not_grow_with_its_length():
    peaks = [
        traced_peak(lambda: run_session(session_config(DistributionKind.GAUSSIAN, 2.0, 1000, bits, 3)))
        for bits in (64, 512)
    ]
    assert peaks[1] - peaks[0] < 8 * kljn.line.BLOCK_SAMPLES


def test_a_share_of_many_blocks_peaks_with_a_share_of_one(monkeypatch):
    # Two cores split 64 bits into two shares of one block each, and 512
    # bits into two shares of eight. This process runs the first share.
    # Each block's attack copies its mixed rows; released once the attack
    # is done, the copies are gone before the next block draws, so a share
    # of many blocks peaks no higher than one of a single block. Kept until
    # the next block's attack, they raised the peak by ~200 KB.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    def run(bits):
        run_session(session_config(DistributionKind.GAUSSIAN, 2.0, 1000, bits, 3))

    run(64)  # what a first session loads is loaded before either peak
    one, many = (traced_peak(lambda: run(bits)) for bits in (64, 512))
    assert many - one < 64 * 1024
