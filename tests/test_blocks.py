"""Block engine: parity with the per-bit algorithm, pinned outputs, chunking invariance."""

import functools
import hashlib
import math
from unittest import mock

import numpy as np
import pytest

import kljn.line
from kljn import (
    BitRecord,
    BlockAttack,
    DistributionKind,
    Level,
    NoiseSpec,
    PdfGrid,
    ResistorPair,
    SessionConfig,
    SessionOutcome,
    SwitchState,
    attack_trials,
    decision_credit,
    line_signals,
    reference_grid,
    resistance_for,
    run_session,
    sample,
    stream,
    theoretical_line_variance,
)

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


def one_bit_decision(eve: BlockAttack, voltage, current):
    """The attack's decision on one bit, held as a one-row block."""
    [decision] = eve.decisions(voltage[None, :], current[None, :])
    return decision


def reference_session(config: SessionConfig) -> SessionOutcome:
    """The per-bit session loop, one bit at a time through the public API."""
    spec_low = NoiseSpec(config.kind, config.sigma_low)
    spec_high = NoiseSpec(config.kind, config.sigma_high)
    by_state = {SwitchState.LOW: spec_low, SwitchState.HIGH: spec_high}
    references = (reference_grid(spec_low), reference_grid(spec_high))
    eve = BlockAttack(config.pair, spec_low, spec_high, config.significance, references)
    records, credits = [], []
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
        if secure:
            decision = one_bit_decision(eve, voltage, current)
            credits.append(decision_credit(decision, a_state))
        records.append(
            BitRecord(
                bit_index=i,
                alice_state=a_state,
                bob_state=b_state,
                classified_level=level,
                secure=secure,
                discarded=discarded,
                key_bit=None if discarded or not secure else int(a_state is SwitchState.HIGH),
                eve_decision=decision,
            )
        )
    return SessionOutcome(
        records=tuple(records),
        secure_bit_fraction=len(credits) / config.bits,
        bit_error_rate=0.0,
        eve_accuracy=sum(credits) / len(credits) if credits else None,
    )


def reference_trials(spec_low, spec_high, samples, trials, seed):
    """The per-trial attack loop: decisions and truths."""
    by_state = {SwitchState.LOW: spec_low, SwitchState.HIGH: spec_high}
    references = (reference_grid(spec_low), reference_grid(spec_high))
    eve = BlockAttack(PAIR, spec_low, spec_high, 0.01, references)
    decisions, truths = [], []
    for t in range(trials):
        alice_low = bool(stream(seed, t, 0).integers(0, 2))
        a_state = SwitchState.LOW if alice_low else SwitchState.HIGH
        b_state = SwitchState.HIGH if alice_low else SwitchState.LOW
        v_a = sample(by_state[a_state], samples, stream(seed, t, 1))
        v_b = sample(by_state[b_state], samples, stream(seed, t, 2))
        line = line_signals(v_a, v_b, resistance_for(PAIR, a_state), resistance_for(PAIR, b_state))
        decisions.append(one_bit_decision(eve, *line))
        truths.append(a_state)
    return tuple(decisions), tuple(truths)


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
    assert run_session(config).to_json() == reference_session(config).to_json()


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
    decisions, truths = reference_trials(spec_low, spec_high, samples, trials, seed=trials)
    assert summary.decisions == decisions
    assert summary.truths == truths


def test_criterion_8_session_digest_is_pinned():
    config = session_config(DistributionKind.GAUSSIAN, 2.0, 1000, 10_000, seed=2718)
    assert digest(run_session(config)) == (
        "cb73a22d5798de68a8d5f41f13df3692ee724630f7359097b5a3a8fc863e890b"
    )


def test_uniform_session_digest_is_pinned():
    config = session_config(DistributionKind.UNIFORM, 2.0, 150, 300, seed=3)
    assert digest(run_session(config)) == (
        "ce109a0149128cc46ec45719c2afb71e597d1c865a7f65c1e9fbfaa71c853832"
    )


@pytest.mark.parametrize("bits_per_block", [1, 7, None])
def test_outputs_do_not_depend_on_the_block_size(monkeypatch, bits_per_block):
    samples, bits = 150, 60
    config = session_config(DistributionKind.UNIFORM, 3.0, samples, bits, seed=9)
    spec_low, spec_high = NoiseSpec("uniform", 1.0), NoiseSpec("uniform", 2.0)
    expected_session = run_session(config).to_json()
    expected_trials = attack_trials(PAIR, spec_low, spec_high, samples, bits, seed=9)
    monkeypatch.setattr(kljn.line, "BLOCK_SAMPLES", samples * (bits_per_block or bits))
    assert [len(b) for b in kljn.line.blocks(bits, samples)][0] == (bits_per_block or bits)
    assert run_session(config).to_json() == expected_session
    assert attack_trials(PAIR, spec_low, spec_high, samples, bits, seed=9) == expected_trials


CHUNKED_SAMPLES, CHUNKED_BITS = 120, 30


@functools.cache
def unchunked_runs():
    """Session JSON and attack trials of the chunking property at the default block size."""
    config = session_config(DistributionKind.UNIFORM, 3.0, CHUNKED_SAMPLES, CHUNKED_BITS, seed=11)
    spec_low, spec_high = NoiseSpec("uniform", 1.0), NoiseSpec("uniform", 2.0)
    trials = attack_trials(PAIR, spec_low, spec_high, CHUNKED_SAMPLES, CHUNKED_BITS, seed=11)
    return config, run_session(config).to_json(), trials


if given is not None:

    # Budgets below the row length put every row alone in its block and run
    # the two hypotheses on two threads, with KS chunks of a few columns.
    @settings(max_examples=25, deadline=None)
    @given(
        st.one_of(
            st.integers(1, CHUNKED_SAMPLES),
            st.integers(CHUNKED_SAMPLES + 1, 2 * CHUNKED_SAMPLES * CHUNKED_BITS),
        )
    )
    @example(1)
    @example(CHUNKED_SAMPLES - 1)
    @example(CHUNKED_SAMPLES)
    @example(CHUNKED_SAMPLES * 7 + 3)
    def test_outputs_do_not_depend_on_any_chunking(block_samples):
        config, session, trials = unchunked_runs()
        spec_low, spec_high = NoiseSpec("uniform", 1.0), NoiseSpec("uniform", 2.0)
        with mock.patch.object(kljn.line, "BLOCK_SAMPLES", block_samples):
            assert run_session(config).to_json() == session
            assert attack_trials(
                PAIR, spec_low, spec_high, CHUNKED_SAMPLES, CHUNKED_BITS, seed=11
            ) == trials

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
