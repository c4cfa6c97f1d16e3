"""Block engine: parity with the per-bit algorithm, pinned outputs, chunking invariance."""

import dataclasses
import functools
import hashlib
import json
import math
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest

import kljn.line
from kljn import (
    BlockAttack,
    DistributionKind,
    Level,
    NoiseSpec,
    PdfGrid,
    ResistorPair,
    SessionConfig,
    SessionOutcome,
    SwitchState,
    VERDICTS,
    attack_trials,
    credits,
    line_signals,
    resistance_for,
    run_session,
    sample,
    stream,
    theoretical_line_variance,
)
from test_protocol import first_seed_mixing

try:
    from hypothesis import example, given, settings
    from hypothesis import strategies as st
except ImportError:  # hypothesis is a test extra; its property test is skipped without it
    given = None

PAIR = ResistorPair(1.0, 4.0)


def reference_level(measured: float, config: SessionConfig) -> Level:
    """Nearest level in log space: cuts at the geometric means of the ladder, ties fall lower."""
    low, mid, high = (
        theoretical_line_variance(config.pair, config.sigma_low, config.sigma_high, a, b)
        for a, b in (
            (SwitchState.LOW, SwitchState.LOW),
            (SwitchState.LOW, SwitchState.HIGH),
            (SwitchState.HIGH, SwitchState.HIGH),
        )
    )
    if measured <= math.sqrt(low * mid):
        return Level.LOW
    if measured <= math.sqrt(mid * high):
        return Level.MID
    return Level.HIGH


def one_bit_verdict(eve: BlockAttack, voltage, current) -> int:
    """The attack's verdict code on one bit, held as a one-row block."""
    [verdict] = eve.verdicts(voltage[None, :], current[None, :]).tolist()
    return verdict


def reference_session(config: SessionConfig) -> tuple[SessionOutcome, list[dict]]:
    """The per-bit session loop, one bit at a time through the public API.

    Returns the outcome and, derived here bit by bit, its per-bit records
    as ``session.json`` holds them.
    """
    spec_low = NoiseSpec(config.kind, config.sigma_low)
    spec_high = NoiseSpec(config.kind, config.sigma_high)
    by_state = {SwitchState.LOW: spec_low, SwitchState.HIGH: spec_high}
    eve = BlockAttack(config.pair, spec_low, spec_high, config.significance)
    alice_high, bob_high, levels, verdicts, secure_alice_high, bits = [], [], [], [], [], []
    for i in range(config.bits):
        coins = stream(config.seed, i, 0).integers(0, 2, size=2)
        a_state = SwitchState.HIGH if coins[0] else SwitchState.LOW
        b_state = SwitchState.HIGH if coins[1] else SwitchState.LOW
        v_a = sample(by_state[a_state], config.samples_per_bit, stream(config.seed, i, 1))
        v_b = sample(by_state[b_state], config.samples_per_bit, stream(config.seed, i, 2))
        voltage, current = line_signals(
            v_a, v_b, resistance_for(config.pair, a_state), resistance_for(config.pair, b_state)
        )
        level = reference_level(float(np.mean(voltage**2)), config)
        secure = a_state is not b_state
        if secure:
            true_level = Level.MID
        else:
            true_level = Level.LOW if a_state is SwitchState.LOW else Level.HIGH
        discarded = level is not true_level
        decision = None
        alice_high.append(a_state is SwitchState.HIGH)
        bob_high.append(b_state is SwitchState.HIGH)
        levels.append(list(Level).index(level))
        if secure:
            verdicts.append(one_bit_verdict(eve, voltage, current))
            secure_alice_high.append(a_state is SwitchState.HIGH)
            decision = VERDICTS[verdicts[-1]].value
        bits.append(
            {
                "alice_state": a_state.value,
                "bit_index": i,
                "bob_state": b_state.value,
                "classified_level": level.value,
                "discarded": discarded,
                "eve_decision": decision,
                "key_bit": None if discarded or not secure else int(a_state is SwitchState.HIGH),
                "secure": secure,
            }
        )
    credit = credits(np.array(verdicts, dtype=np.intp), np.array(secure_alice_high, dtype=bool))
    outcome = SessionOutcome(
        alice_high=np.array(alice_high),
        bob_high=np.array(bob_high),
        levels=np.array(levels, dtype=np.intp),
        verdicts=np.array(verdicts, dtype=np.intp),
        secure_bit_fraction=len(verdicts) / config.bits,
        bit_error_rate=0.0,
        eve_accuracy=float(credit.mean()) if verdicts else None,
    )
    return outcome, bits


def reference_trials(spec_low, spec_high, samples, trials, seed):
    """The per-trial attack loop: Alice's true switches and the verdict codes."""
    by_state = {SwitchState.LOW: spec_low, SwitchState.HIGH: spec_high}
    eve = BlockAttack(PAIR, spec_low, spec_high, 0.01)
    alice_high, verdicts = [], []
    for t in range(trials):
        alice_low = bool(stream(seed, t, 0).integers(0, 2))
        a_state = SwitchState.LOW if alice_low else SwitchState.HIGH
        b_state = SwitchState.HIGH if alice_low else SwitchState.LOW
        v_a = sample(by_state[a_state], samples, stream(seed, t, 1))
        v_b = sample(by_state[b_state], samples, stream(seed, t, 2))
        line = line_signals(v_a, v_b, resistance_for(PAIR, a_state), resistance_for(PAIR, b_state))
        verdicts.append(one_bit_verdict(eve, *line))
        alice_high.append(not alice_low)
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
    reference, bits = reference_session(config)
    assert_same_outcome(outcome, reference)
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
    config = session_config(DistributionKind.UNIFORM, 2.0, 150, 300, seed=3)
    assert digest(run_session(config)) == (
        "d1f1567ec1917c47e23fe14756f964d19b38cef240634cba614b1e9ade2a0448"
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
    calls = []
    original = PdfGrid.cdf

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(PdfGrid, "cdf", counted)
    run_session(session_config(DistributionKind.GAUSSIAN, 2.0, 100, 700, seed=1))
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


def test_session_peak_does_not_grow_with_its_length():
    peaks = [
        traced_peak(lambda: run_session(session_config(DistributionKind.GAUSSIAN, 2.0, 1000, bits, 3)))
        for bits in (64, 512)
    ]
    assert peaks[1] - peaks[0] < 8 * kljn.line.BLOCK_SAMPLES
