"""The three benchmark workloads and the checks on their outputs.

Each workload is one ``kljn`` CLI command. Its checks are invariants
that hold for every seed, not golden values, and each returns a list of
problems (empty when the outputs are right). ``items`` is the unit of
work behind ``items_per_s``: bits for a session, attack trials for an
attack, one tabulated mixture for ``pdf``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Chance that a correct program fails a check, at most.
FALSE_ALARM = 1e-6
# How many standard errors a binomial proportion may stray from its
# mean; at 5 the two-sided normal tail (5.7e-7) is below FALSE_ALARM.
Z_LIMIT = 5.0

SESSION_BITS = 2000
ATTACK_SAMPLES = 1_000_000
ATTACK_TRIALS = 8
# The attack's significance: the chance, per trial, that the true
# hypothesis is rejected and the trial ends undecided despite the leak.
ATTACK_SIGNIFICANCE = 0.01

PDF_R_LOW = 1.0
PDF_R_HIGH = 1.1
# L1 distance between the uniform mixture and its variance-matched
# uniform at the default grid policy. A relative tolerance of 1e-3 admits
# FFT round-off (~1e-13) and support-sized component grids. It rejects a
# component 10% too wide (1e-1 relative), the large component 0.1% too
# wide (4e-2) and a mixture shifted by 11 or more grid steps.
PDF_RESIDUAL = 0.0248487
PDF_RESIDUAL_RTOL = 1e-3
# The trapezoidal second moment of the mixture sits ~4e-5 (relative)
# above sigma_mix^2 on this grid, from the uniform components' jumps.
PDF_MOMENT_RTOL = 2e-4


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    seeded: bool
    items: int
    args: tuple[str, ...]
    check: Callable[[Path], list[str]]
    trace_samples: int  # samples per float64 trace, for the computed sizes

    def argv(self, seed: int, out_dir: Path) -> list[str]:
        seed_args = ["--seed", str(seed)] if self.seeded else []
        return [*self.args, *seed_args, "--out", str(out_dir)]


def _read_json(path: Path, problems: list[str]) -> dict | None:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        problems.append(f"{path.name}: unreadable ({exc})")
        return None


def check_manifest(out_dir: Path, expected: tuple[str, ...]) -> list[str]:
    """The manifest lists exactly the expected artifacts, each with its true sha256."""
    problems: list[str] = []
    manifest = _read_json(out_dir / "manifest.json", problems)
    if manifest is None:
        return problems
    outputs = manifest.get("outputs", {})
    if sorted(outputs) != sorted(expected):
        problems.append(f"manifest lists {sorted(outputs)}, expected {sorted(expected)}")
    for name, digest in outputs.items():
        path = out_dir / name
        if not path.is_file() or hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            problems.append(f"manifest digest of {name} does not match the file")
    return problems


def _half_slack(n: int) -> float:
    """Largest allowed distance from 1/2 of a mean of n fair-coin-like outcomes."""
    return Z_LIMIT * 0.5 / math.sqrt(n)


def binomial_upper(n: int, p: float) -> int:
    """Smallest k with P(Binomial(n, p) > k) below FALSE_ALARM."""
    tail = 1.0
    for k in range(n + 1):
        tail -= math.comb(n, k) * p**k * (1.0 - p) ** (n - k)
        if tail < FALSE_ALARM:
            return k
    return n


def _csv_rows(path: Path, header: str, problems: list[str]) -> list[str]:
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        problems.append(f"{path.name}: unreadable ({exc})")
        return []
    if not lines or lines[0] != header:
        problems.append(f"{path.name}: header is not {header!r}")
        return []
    return lines[1:]


def check_session(out_dir: Path, bits: int = SESSION_BITS) -> list[str]:
    """Secure fraction and Eve's blindness within binomial bounds; one CSV row per bit."""
    problems = check_manifest(out_dir, ("session.json", "bits.csv"))
    session = _read_json(out_dir / "session.json", problems)
    if session is not None:
        agg = session["aggregates"]
        records = session["bits"]
        if len(records) != bits:
            problems.append(f"session.json holds {len(records)} bits, expected {bits}")
        fraction = agg["secure_bit_fraction"]
        if abs(fraction - 0.5) > _half_slack(bits):
            problems.append(f"secure_bit_fraction {fraction} is outside binomial bounds of 1/2")
        secure = sum(1 for r in records if r["secure"])
        accuracy = agg["eve_accuracy"]
        if accuracy is None or secure == 0 or abs(accuracy - 0.5) > _half_slack(secure):
            problems.append(f"eve_accuracy {accuracy} is not blind (0.5) over {secure} secure bits")
    rows = _csv_rows(
        out_dir / "bits.csv",
        "bit_index,alice_state,bob_state,classified_level,secure,discarded,key_bit,eve_decision",
        problems,
    )
    if [r.split(",", 1)[0] for r in rows] != [str(i) for i in range(bits)]:
        problems.append(f"bits.csv rows: {len(rows)}, expected one per bit ({bits}) in order")
    return problems


def check_attack(out_dir: Path, trials: int = ATTACK_TRIALS) -> list[str]:
    """The uniform shape leak lets Eve name nearly every trial."""
    problems = check_manifest(out_dir, ("attack.json", "trials.csv"))
    summary = _read_json(out_dir / "attack.json", problems)
    if summary is not None:
        if summary["trials"] != trials:
            problems.append(f"attack.json reports {summary['trials']} trials, expected {trials}")
        if summary["correct"] + summary["wrong"] + summary["undecided"] != summary["trials"]:
            problems.append("attack.json outcome counts do not add up to its trials")
        # Undecided trials (true hypothesis rejected) each cost half a point.
        floor = 1.0 - 0.5 * binomial_upper(trials, ATTACK_SIGNIFICANCE) / trials
        if summary["accuracy"] < floor:
            problems.append(f"accuracy {summary['accuracy']} is below {floor}: the shape leak is lost")
    rows = _csv_rows(out_dir / "trials.csv", "trial,true_alice,decision,credit", problems)
    if len(rows) != trials:
        problems.append(f"trials.csv rows: {len(rows)}, expected {trials}")
    return problems


def mixture_variance(r_low: float, r_high: float, sigma_low: float = 1.0) -> float:
    """sigma_mix^2 = alpha^2 + beta^2 for the wrong-hypothesis mixture at compliant amplitudes."""
    sigma_high = sigma_low * math.sqrt(r_high / r_low)
    alpha = sigma_low * 2.0 * r_high / (r_low + r_high)
    beta = sigma_high * (r_high - r_low) / (r_low + r_high)
    return alpha * alpha + beta * beta


def check_pdf(out_dir: Path) -> list[str]:
    """Uniform closure residual and the mixture's second moment match the theory."""
    problems = check_manifest(out_dir, ("pdf.csv", "pdf.json"))
    summary = _read_json(out_dir / "pdf.json", problems)
    if summary is not None:
        residual = summary["residual"]
        if not math.isclose(residual, PDF_RESIDUAL, rel_tol=PDF_RESIDUAL_RTOL):
            problems.append(f"residual {residual} differs from {PDF_RESIDUAL} beyond {PDF_RESIDUAL_RTOL}")
        expected = mixture_variance(PDF_R_LOW, PDF_R_HIGH)
        moment = summary["second_moment_mixture"]
        if not math.isclose(moment, expected, rel_tol=PDF_MOMENT_RTOL):
            problems.append(f"mixture second moment {moment} differs from sigma_mix^2 {expected}")
    try:
        with open(out_dir / "pdf.csv", "rb") as fh:
            header = fh.readline()
            rows = sum(1 for _ in fh)
    except OSError as exc:
        problems.append(f"pdf.csv: unreadable ({exc})")
    else:
        if header != b"x,p_a,p_h\n" or rows < 2:
            problems.append(f"pdf.csv: bad header or only {rows} rows")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="session_default",
            why=(
                "the paper's secure operating point and README example; "
                "time goes to per-bit Python overhead (eve.attack, Philox streams)"
            ),
            seeded=True,
            items=SESSION_BITS,
            args=("simulate", "--bits", str(SESSION_BITS), "--csv"),
            check=check_session,
            trace_samples=1000,
        ),
        Workload(
            name="attack_long",
            why=(
                "the uniform shape leak on a few 1M-sample traces; "
                "time goes to per-sample kernels (sort, interp, draws), not per-trial overhead"
            ),
            seeded=True,
            items=ATTACK_TRIALS,
            args=(
                "attack", "--kind", "uniform", "--samples", str(ATTACK_SAMPLES),
                "--trials", str(ATTACK_TRIALS), "--csv",
            ),
            check=check_attack,
            trace_samples=ATTACK_SAMPLES,
        ),
        Workload(
            name="pdf_near_equal",
            why=(
                "nearly equal resistors make the mixture grid fine, so the O(n^2) "
                "convolution dominates; only density and cli work, no noise is drawn"
            ),
            seeded=False,
            items=1,
            args=("pdf", "--kind", "uniform", "--r-low", str(PDF_R_LOW), "--r-high", str(PDF_R_HIGH)),
            check=check_pdf,
            trace_samples=0,
        ),
    )
}
