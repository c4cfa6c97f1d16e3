"""Sessions: level sifting, key agreement, leak accounting, sweeps."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from kljn import (
    DistributionKind,
    Level,
    ResistorPair,
    SessionConfig,
    SwitchState,
    leak_sweep,
    run_session,
    stream,
    theoretical_line_variance,
)
import kljn.cli
import kljn.protocol
from kljn.cli import _simulate
from kljn.protocol import SessionOutcome, _classify_rows, _level_cuts, sweep_configs

PAIR = ResistorPair(1.0, 4.0)


def config(**overrides) -> SessionConfig:
    base = dict(
        pair=PAIR,
        kind=DistributionKind.GAUSSIAN,
        sigma_low=1.0,
        sigma_high=2.0,
        samples_per_bit=400,
        bits=100,
        seed=12,
        significance=0.01,
    )
    base.update(overrides)
    return SessionConfig(**base)


def level_of(measured, pair, sigma_low, sigma_high):
    """The level run_session gives one measured line-voltage variance."""
    cuts = _level_cuts(pair, sigma_low, sigma_high)
    return list(Level)[_classify_rows(np.array([measured], dtype=np.float64), cuts)[0]]


def records(outcome):
    """Per-bit records of a session, as ``session.json`` holds them."""
    return outcome.to_dict()["bits"]


class TestClassifyLevel:
    def test_exact_levels(self):
        assert level_of(0.5, PAIR, 1.0, 2.0) is Level.LOW
        assert level_of(0.8, PAIR, 1.0, 2.0) is Level.MID
        assert level_of(2.0, PAIR, 1.0, 2.0) is Level.HIGH

    def test_boundaries_fall_to_the_lower_level(self):
        low_mid = math.sqrt(0.5 * 0.8)
        mid_high = math.sqrt(0.8 * 2.0)
        assert level_of(low_mid, PAIR, 1.0, 2.0) is Level.LOW
        assert level_of(math.nextafter(low_mid, 2.0), PAIR, 1.0, 2.0) is Level.MID
        assert level_of(mid_high, PAIR, 1.0, 2.0) is Level.MID
        assert level_of(math.nextafter(mid_high, 3.0), PAIR, 1.0, 2.0) is Level.HIGH

    def test_extremes(self):
        assert level_of(0.0, PAIR, 1.0, 2.0) is Level.LOW
        assert level_of(100.0, PAIR, 1.0, 2.0) is Level.HIGH

    def test_rejects_negative_or_non_finite(self):
        with pytest.raises(ValueError):
            level_of(-0.1, PAIR, 1.0, 2.0)
        with pytest.raises(ValueError):
            level_of(math.nan, PAIR, 1.0, 2.0)

    def test_rejects_unordered_ladder(self):
        # a tiny high-side amplitude collapses the ladder ordering, which
        # a session refuses as soon as it is configured
        with pytest.raises(ValueError, match="not strictly ordered"):
            level_of(0.5, PAIR, 1.0, 0.1)
        with pytest.raises(ValueError, match="not strictly ordered"):
            config(sigma_high=0.1)


class TestRunSession:
    def test_reference_statistics(self):
        cfg = config(bits=1000, samples_per_bit=10_000, seed=2024)
        out = run_session(cfg)
        assert abs(out.secure_bit_fraction - 0.5) < 0.05
        assert out.bit_error_rate == 0.0
        assert abs(out.eve_accuracy - 0.5) < 0.05

    def test_bit_bookkeeping_invariants(self):
        out = run_session(config(bits=200, seed=99))
        for r in records(out):
            mixed = r["alice_state"] != r["bob_state"]
            assert r["secure"] == mixed
            assert (r["eve_decision"] is not None) == r["secure"]
            if r["key_bit"] is not None:
                assert r["secure"] and not r["discarded"]
                assert r["classified_level"] == Level.MID.value
            if r["secure"] and not r["discarded"]:
                assert r["key_bit"] is not None
        assert len(out.verdicts) == np.count_nonzero(out.alice_high != out.bob_high)

    def test_parties_agree_on_every_kept_bit(self):
        out = run_session(config(bits=300, seed=7))
        kept = [r for r in records(out) if r["key_bit"] is not None]
        assert kept, "expected some key bits at these settings"
        for r in kept:
            alice_bit = 0 if r["alice_state"] == SwitchState.LOW.value else 1
            bob_bit = 1 - (0 if r["bob_state"] == SwitchState.LOW.value else 1)
            assert r["key_bit"] == alice_bit == bob_bit
        assert out.bit_error_rate == 0.0

    def test_non_mixed_bits_never_carry_key_material(self):
        out = run_session(config(bits=300, seed=8))
        for r in records(out):
            if r["alice_state"] == r["bob_state"]:
                assert r["key_bit"] is None
                assert r["eve_decision"] is None

    def test_secure_fraction_counts_mixed_bits(self):
        out = run_session(config(bits=250, seed=13))
        mixed = sum(1 for r in records(out) if r["alice_state"] != r["bob_state"])
        assert out.secure_bit_fraction == mixed / 250

    def test_deterministic_replay(self):
        cfg = config(bits=60, samples_per_bit=250, seed=4)
        first = run_session(cfg)
        second = run_session(cfg)
        assert first.to_json() == second.to_json()

    def test_seed_changes_outcomes(self):
        a = run_session(config(bits=60, samples_per_bit=250, seed=1))
        b = run_session(config(bits=60, samples_per_bit=250, seed=2))
        assert a.to_json() != b.to_json()

    def test_switch_coins_match_stream_contract(self):
        cfg = config(bits=20, samples_per_bit=150, seed=321)
        out = run_session(cfg)
        for i, (alice_high, bob_high) in enumerate(zip(out.alice_high, out.bob_high)):
            coins = stream(cfg.seed, i, 0).integers(0, 2, size=2)
            assert alice_high == bool(coins[0])
            assert bob_high == bool(coins[1])

    def test_discards_follow_the_chi_square_law(self):
        # For Gaussian sources the line voltage of a bit is Gaussian with its
        # level's variance v, so n * s^2 / v ~ chi^2_n and the chance that a
        # level is misread follows exactly from the cut points.
        chi2 = pytest.importorskip("scipy.stats").chi2
        n = 100
        outcome = run_session(config(samples_per_bit=n, bits=4000, seed=11))
        edges = (0.0, *_level_cuts(PAIR, 1.0, 2.0), math.inf)
        low, high = SwitchState.LOW, SwitchState.HIGH
        ladder = ([(low, low)], [(low, high), (high, low)], [(high, high)])
        for k, true_states in enumerate(ladder):
            variance = theoretical_line_variance(PAIR, 1.0, 2.0, *true_states[0])
            lower, upper = (chi2.cdf(n * edge / variance, n) for edge in edges[k : k + 2])
            misread = 1.0 - (upper - lower)
            bits = [
                r
                for r in records(outcome)
                if (SwitchState(r["alice_state"]), SwitchState(r["bob_state"])) in true_states
            ]
            discards = sum(r["discarded"] for r in bits)
            spread = math.sqrt(len(bits) * misread * (1.0 - misread))
            assert abs(discards - len(bits) * misread) <= 5.0 * spread

    def test_eve_accuracy_none_without_secure_bits(self):
        for seed in range(50):
            coins = stream(seed, 0, 0).integers(0, 2, size=2)
            if coins[0] == coins[1]:
                out = run_session(config(bits=1, seed=seed))
                assert out.eve_accuracy is None
                assert out.secure_bit_fraction == 0.0
                return
        pytest.fail("no seed with a non-mixed first bit in range")

    def test_cauchy_sessions_refused(self):
        with pytest.raises(ValueError, match="sessions need finite-variance noise"):
            run_session(config(kind=DistributionKind.CAUCHY))

    def test_uniform_sessions_leak(self):
        out = run_session(config(kind=DistributionKind.UNIFORM, bits=60, samples_per_bit=20_000, seed=55))
        assert out.eve_accuracy is not None
        assert out.eve_accuracy > 0.9

    def test_csv_dump(self, tmp_path):
        artifacts, _ = _simulate(config(bits=5, samples_per_bit=150, seed=77), csv=True)
        path = tmp_path / "bits.csv"
        path.write_bytes(b"".join(artifacts["bits.csv"]))
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "bit_index,alice_state,bob_state,classified_level,secure,discarded,key_bit,eve_decision"
        )
        assert len(lines) == 6
        fields = lines[1].split(",")
        assert fields[0] == "0"
        assert fields[1] in ("low", "high")
        assert fields[4] in ("true", "false")


def random_outcome(bits: int) -> SessionOutcome:
    """An outcome of random columns, any level and verdict for any bit, with no engine run."""
    rng = np.random.default_rng(bits)
    alice_high = rng.integers(0, 2, bits).astype(bool)
    bob_high = rng.integers(0, 2, bits).astype(bool)
    verdicts = rng.integers(0, 4, int(np.count_nonzero(alice_high != bob_high)))
    levels = rng.integers(0, 3, bits)
    return SessionOutcome(alice_high, bob_high, levels, verdicts, verdicts.size / bits, 0.0, 0.5)


def simulate_artifacts(outcome: SessionOutcome, monkeypatch) -> dict[str, bytes]:
    """The bytes of each artifact ``simulate --csv`` writes for ``outcome``."""
    monkeypatch.setattr(kljn.cli, "run_session", lambda cfg: outcome)
    artifacts, _ = _simulate(config(), csv=True)
    return {name: b"".join(chunks) for name, chunks in artifacts.items()}


RENDERED_OUTCOMES = [
    *(
        pytest.param(lambda bits=bits: run_session(config(bits=bits, samples_per_bit=150, seed=bits)),
                     id=f"bits-{bits}")
        for bits in (1, 2, 5, 13)
    ),
    pytest.param(lambda: run_session(config(bits=2, samples_per_bit=150, seed=2)), id="no-secure-bit"),
    pytest.param(
        lambda: run_session(
            config(kind=DistributionKind.UNIFORM, sigma_high=3.0, bits=13, samples_per_bit=2000, seed=0)
        ),
        id="uniform-off-law",
    ),
    pytest.param(lambda: random_outcome(13), id="random-columns"),
]


class TestRendering:
    @pytest.mark.parametrize("make", RENDERED_OUTCOMES)
    def test_blocks_of_four_bits_render_what_one_block_does(self, make, monkeypatch):
        outcome = make()
        whole_dict = outcome.to_dict()
        whole = simulate_artifacts(outcome, monkeypatch)
        monkeypatch.setattr(kljn.protocol, "_BIT_BLOCK", 4)
        # the rule to_json followed before it streamed its records
        assert outcome.to_json() == json.dumps(outcome.to_dict(), indent=2, sort_keys=True) + "\n"
        assert outcome.to_dict() == whole_dict
        assert simulate_artifacts(outcome, monkeypatch) == whole
        assert whole["session.json"] == outcome.to_json().encode("ascii")

    def test_a_session_with_no_secure_bit_has_no_accuracy(self):
        outcome = run_session(config(bits=2, samples_per_bit=150, seed=2))
        assert outcome.eve_accuracy is None
        assert '"eve_accuracy": null' in outcome.to_json()

    def test_an_empty_outcome_renders_an_empty_bits_list(self):
        columns = (np.zeros(0, dtype=bool), np.zeros(0, dtype=bool), np.zeros(0, dtype=np.intp))
        outcome = SessionOutcome(*columns, np.zeros(0, dtype=np.int64), 0.0, 0.0, None)
        assert outcome.to_json() == json.dumps(outcome.to_dict(), indent=2, sort_keys=True) + "\n"
        assert outcome.to_dict()["bits"] == []


class TestSessionConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            config(samples_per_bit=99)
        with pytest.raises(ValueError):
            config(bits=0)
        with pytest.raises(ValueError):
            config(seed=-1)
        with pytest.raises(ValueError):
            config(sigma_low=0.0)
        with pytest.raises(ValueError):
            config(significance=1.0)

    def test_non_finite_sigmas_refused(self):
        for sigmas in ((math.inf, 2.0), (1.0, math.inf), (math.nan, 2.0), (1.0, math.nan)):
            with pytest.raises(ValueError, match="must be positive and finite"):
                config(sigma_low=sigmas[0], sigma_high=sigmas[1])

    def test_kind_coercion(self):
        assert config(kind="uniform").kind is DistributionKind.UNIFORM

    def test_to_dict_is_flat_and_sorted_friendly(self):
        d = config().to_dict()
        assert d["r_low"] == 1.0 and d["r_high"] == 4.0
        assert d["kind"] == "gaussian"


class TestLeakSweep:
    def test_accuracy_grows_with_violation(self):
        base = config(bits=400, samples_per_bit=300, seed=5)
        points = leak_sweep(base, [1.0, 1.2, 2.0])
        acc = {p.multiplier: p.eve_accuracy for p in points}
        assert 0.35 < acc[1.0] < 0.65
        assert acc[1.2] > acc[1.0]
        assert acc[2.0] >= acc[1.2]
        assert acc[2.0] > 0.9

    def test_multiplier_one_reproduces_compliant_session(self):
        base = config(bits=80, samples_per_bit=300, seed=9)
        points = leak_sweep(base, [1.0])
        compliant = run_session(replace(base, sigma_high=2.0))
        assert points[0].eve_accuracy == compliant.eve_accuracy

    def test_sweep_overrides_sigma_high(self):
        # the base high-side amplitude is ignored; multipliers scale the
        # compliant value instead
        skewed = config(bits=80, samples_per_bit=300, seed=9, sigma_high=5.0)
        points = leak_sweep(skewed, [1.0])
        compliant = run_session(replace(skewed, sigma_high=2.0))
        assert points[0].eve_accuracy == compliant.eve_accuracy

    def test_validation(self):
        base = config(bits=10, samples_per_bit=150)
        with pytest.raises(ValueError):
            leak_sweep(base, [])
        with pytest.raises(ValueError):
            leak_sweep(base, [1.0, 0.0])
        with pytest.raises(ValueError):
            leak_sweep(base, [-2.0])
        with pytest.raises(ValueError):
            leak_sweep(base, [math.inf])

    def test_overflowing_sigma_high_is_refused_before_any_session(self):
        base = config(bits=10, samples_per_bit=150)
        with pytest.raises(ValueError, match="sigma_high must be positive and finite"):
            sweep_configs(base, [1.0, 1e308])
        with pytest.raises(ValueError, match="sigma_high must be positive and finite"):
            leak_sweep(base, [1.0, 1e308])

    def test_configs_scale_the_compliant_sigma_high(self):
        base = config(bits=10, samples_per_bit=150, sigma_high=5.0)
        configs = sweep_configs(base, [1.0, 1.5])
        assert [c.sigma_high for c in configs] == [2.0, 3.0]
        assert all(replace(c, sigma_high=5.0) == base for c in configs)
