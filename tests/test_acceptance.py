"""End-to-end acceptance checks.

Each test prints one pass/fail line; run with ``pytest
tests/test_acceptance.py -v -s`` to see them all. Tolerances are fixed
here and nowhere else; the seeds pin every random quantity so reruns are
exact.
"""

import numpy as np
import pytest

from kljn import (
    BlockAttack,
    DistributionKind,
    HypothesisWeights,
    NoiseSpec,
    ResistorPair,
    SessionConfig,
    attack_trials,
    closure_residual,
    convolve_scaled,
    line_signals,
    run_session,
    sample,
    security_sigma_ratio,
    stream,
    theoretical_line_variance,
    wrong_hypothesis_variance,
)
from kljn.eve import _reconstruct
from uniform_oracle import uniform_mixture_l1_oracle

PAIR = ResistorPair(1.0, 4.0)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_compliant_amplitude_is_invisible_in_variance():
    # The square-root amplitude law makes the wrong-hypothesis variance
    # land exactly on sigma_high^2: algebraically to 1e-12 relative over
    # random configurations, and empirically within 1 percent at n=1e6.
    rng = np.random.default_rng(20260822)
    worst_exact = 0.0
    configs = []
    for _ in range(10):
        r_low = float(rng.uniform(0.5, 10.0))
        r_high = r_low * float(rng.uniform(1.5, 20.0))
        sigma_low = float(rng.uniform(0.5, 3.0))
        pair = ResistorPair(r_low, r_high)
        sigma_high = sigma_low * security_sigma_ratio(pair)
        got = wrong_hypothesis_variance(pair, sigma_low, sigma_high)
        worst_exact = max(worst_exact, abs(got - sigma_high**2) / sigma_high**2)
        configs.append((pair, sigma_low, sigma_high))
    exact_ok = worst_exact <= 1e-12

    n = 1_000_000
    worst_mc = 0.0
    for idx, (pair, sigma_low, sigma_high) in enumerate(configs[:3]):
        v_a = sample(NoiseSpec(DistributionKind.GAUSSIAN, sigma_low), n, stream(101, idx, 1))
        v_b = sample(NoiseSpec(DistributionKind.GAUSSIAN, sigma_high), n, stream(101, idx, 2))
        voltage, current = line_signals(v_a, v_b, pair.r_low, pair.r_high)
        est = _reconstruct(voltage, current, pair.r_high, alice=True)
        observed = float(np.mean(est**2))
        worst_mc = max(worst_mc, abs(observed / sigma_high**2 - 1.0))
    mc_ok = worst_mc < 0.01
    report(
        1,
        exact_ok and mc_ok,
        f"fixed point exact to {worst_exact:.2e} (limit 1e-12), "
        f"Monte Carlo off by {worst_mc:.4f} (limit 0.01)",
    )


def test_criterion_2_gaussian_compliant_attack_is_blind():
    summary = attack_trials(
        PAIR,
        NoiseSpec(DistributionKind.GAUSSIAN, 1.0),
        NoiseSpec(DistributionKind.GAUSSIAN, 2.0),
        samples_per_trial=10_000,
        trials=1000,
        significance=0.01,
        seed=1001,
    )
    ok = 0.45 <= summary.accuracy <= 0.55
    report(
        2,
        ok,
        f"accuracy {summary.accuracy:.4f} within [0.45, 0.55] "
        f"({summary.correct} correct / {summary.wrong} wrong / {summary.undecided} undecided "
        f"over {summary.trials} trials at n=10000)",
    )


def test_criterion_3_amplitude_violation_leaks():
    # sigma_high 1.5x the compliant value. The screening level is set a
    # decade tighter than the default so that spurious rejections of the
    # true hypothesis cost almost no credit; the violation itself sits
    # dozens of standard errors out and is insensitive to the level.
    compliant = security_sigma_ratio(PAIR) * 1.0
    summary = attack_trials(
        PAIR,
        NoiseSpec(DistributionKind.GAUSSIAN, 1.0),
        NoiseSpec(DistributionKind.GAUSSIAN, 1.5 * compliant),
        samples_per_trial=100_000,
        trials=200,
        significance=0.001,
        seed=1003,
    )
    ok = summary.accuracy > 0.99
    report(
        3,
        ok,
        f"accuracy {summary.accuracy:.4f} > 0.99 at 1.5x amplitude violation "
        f"({summary.correct} correct / {summary.wrong} wrong / {summary.undecided} undecided)",
    )


def test_criterion_4_uniform_noise_leaks_through_shape_alone():
    spec_low = NoiseSpec(DistributionKind.UNIFORM, 1.0)
    spec_high = NoiseSpec(DistributionKind.UNIFORM, 2.0)  # compliant amplitudes
    summary = attack_trials(
        PAIR,
        spec_low,
        spec_high,
        samples_per_trial=100_000,
        trials=200,
        significance=0.01,
        seed=1004,
    )
    accuracy_ok = summary.accuracy > 0.95

    # The leak must come from shape, not amplitude: on a fresh bit the
    # wrong hypothesis passes both variance screens yet fails a shape
    # screen.
    v_a = sample(spec_low, 100_000, stream(1005, 1))
    v_b = sample(spec_high, 100_000, stream(1005, 2))
    voltage, current = line_signals(v_a, v_b, PAIR.r_low, PAIR.r_high)
    eve = BlockAttack(PAIR, spec_low, spec_high, 0.01)
    evidence = eve.tests(voltage[None, :], current[None, :])
    alice_high = 1  # hypothesis ALICE_HIGH, the wrong one here; axes are [hypothesis, party, row]
    shape_driven = bool(
        not (evidence.variance_p[alice_high, :, 0] < eve.level).any()
        and (evidence.shape_p[alice_high, :, 0] < eve.level).any()
    )
    report(
        4,
        accuracy_ok and shape_driven,
        f"accuracy {summary.accuracy:.4f} > 0.95 with compliant amplitudes; "
        f"wrong hypothesis rejected by shape while variance screens pass: {shape_driven}",
    )


def test_criterion_5_gaussian_mixture_closure():
    w = HypothesisWeights(3.0, 4.0)
    residual = closure_residual(DistributionKind.GAUSSIAN, w, dx=0.05, half_width=40.0)
    mixture = convolve_scaled(DistributionKind.GAUSSIAN, w, dx=0.05, half_width=40.0)
    second = mixture.second_moment()
    residual_ok = residual <= 1e-6
    moment_ok = abs(second - 25.0) / 25.0 <= 0.005
    report(
        5,
        residual_ok and moment_ok,
        f"L1 residual {residual:.3e} <= 1e-6 and second moment {second:.6f} "
        f"within 0.5% of 25",
    )


def test_criterion_6_uniform_mixture_breaks_closure():
    w = HypothesisWeights(1.6, 1.2)
    residual = closure_residual(DistributionKind.UNIFORM, w)
    oracle = uniform_mixture_l1_oracle(1.6, 1.2)
    big_enough = residual > 0.05
    matches = abs(residual - oracle) / oracle <= 0.02
    report(
        6,
        big_enough and matches,
        f"L1 residual {residual:.5f} > 0.05 and within 2% of the closed form {oracle:.5f}",
    )


def test_criterion_7_level_ladder():
    n = 1_000_000
    sigmas, resistances = (1.0, 2.0), (PAIR.r_low, PAIR.r_high)
    # Joint switch states (Alice, Bob), high when set, and their variances.
    expected = {(False, False): 0.5, (False, True): 0.8, (True, False): 0.8, (True, True): 2.0}
    worst = 0.0
    details = []
    for idx, ((a_high, b_high), want) in enumerate(expected.items()):
        assert theoretical_line_variance(PAIR, *sigmas, a_high, b_high) == (
            pytest.approx(want, rel=1e-12)
        )
        v_a = sample(NoiseSpec(DistributionKind.GAUSSIAN, sigmas[a_high]), n, stream(107, idx, 1))
        v_b = sample(NoiseSpec(DistributionKind.GAUSSIAN, sigmas[b_high]), n, stream(107, idx, 2))
        voltage, _ = line_signals(v_a, v_b, resistances[a_high], resistances[b_high])
        observed = float(np.mean(voltage**2))
        rel = abs(observed / want - 1.0)
        worst = max(worst, rel)
        details.append(f"{('low', 'high')[a_high]}/{('low', 'high')[b_high]}={observed:.4f}")
    ok = worst < 0.01
    report(
        7,
        ok,
        f"measured ladder {', '.join(details)} matches 0.5/0.8/0.8/2.0 "
        f"(worst relative error {worst:.4f} < 0.01)",
    )


def test_criterion_8_full_session_statistics_and_replay():
    config = SessionConfig(
        pair=PAIR,
        kind=DistributionKind.GAUSSIAN,
        sigma_low=1.0,
        sigma_high=2.0,
        samples_per_bit=1000,
        bits=10_000,
        seed=2718,
        significance=0.01,
    )
    outcome = run_session(config)
    fraction_ok = 0.485 <= outcome.secure_bit_fraction <= 0.515
    agreement_ok = outcome.bit_error_rate == 0.0
    replay = run_session(config)
    replay_ok = outcome.to_json() == replay.to_json()
    report(
        8,
        fraction_ok and agreement_ok and replay_ok,
        f"secure fraction {outcome.secure_bit_fraction:.4f} in [0.485, 0.515], "
        f"bit error rate {outcome.bit_error_rate}, eve accuracy "
        f"{outcome.eve_accuracy:.4f}, replay byte-identical: {replay_ok}",
    )
