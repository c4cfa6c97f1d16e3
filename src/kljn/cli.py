"""Command-line front end.

Four subcommands: ``simulate`` runs a full key-exchange session,
``attack`` measures eavesdropper accuracy over fresh mixed-state bits,
``pdf`` tabulates the wrong-hypothesis mixture density next to its
variance-matched reference, and ``sweep`` tracks the leak as the
amplitude law is violated by growing factors.

Every invocation writes its artifacts plus a ``manifest.json`` recording
the command, the fully resolved configuration, the seed, the package
version, and a sha256 digest of each artifact. Outputs are deterministic
byte for byte given the same configuration. Settings resolve in the
order: built-in defaults, then a ``--config`` JSON file, then explicit
flags.

Exit codes: 0 on success, 2 for unusable arguments or configuration, 3
for failures while computing or writing results.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .density import TruncationError, closure_pair, default_grid, l1_residual, weights
from .eve import attack_trials, decision_credit
from .noise import DistributionKind, NoiseSpec, ResistorPair
from .protocol import SessionConfig, leak_sweep, records_csv, run_session

_KIND_CHOICES = tuple(k.value for k in DistributionKind)

_SESSION_DEFAULTS = {
    "r_low": 1.0,
    "r_high": 4.0,
    "kind": "gaussian",
    "sigma_low": 1.0,
    "sigma_high": None,
    "samples_per_bit": 1000,
    "bits": 100,
    "seed": 0,
    "significance": 0.01,
}


class UsageError(ValueError):
    """Configuration that can never produce a run."""


@dataclass(frozen=True)
class RunManifest:
    """Provenance record written next to every command's artifacts."""

    command: str
    config: dict
    seed: int | None
    version: str
    outputs: dict[str, str]

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "config": self.config,
            "outputs": self.outputs,
            "seed": self.seed,
            "version": self.version,
        }


def _json_bytes(obj: object) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("ascii")


def _write_artifact(out_dir: Path, name: str, data: bytes, outputs: dict[str, str]) -> None:
    path = out_dir / name
    path.write_bytes(data)
    outputs[name] = hashlib.sha256(data).hexdigest()


def _write_manifest(out_dir: Path, manifest: RunManifest) -> None:
    (out_dir / "manifest.json").write_bytes(_json_bytes(manifest.to_dict()))


def _load_config_file(path: str, allowed: set[str]) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise UsageError("config file must hold a JSON object")
    unknown = set(raw) - allowed
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    return raw


def _resolve(defaults: dict, args: argparse.Namespace, config_keys: set[str]) -> dict:
    resolved = dict(defaults)
    if getattr(args, "config", None):
        resolved.update(_load_config_file(args.config, config_keys))
    for key in defaults:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            resolved[key] = flag_value
    return resolved


def _session_config(resolved: dict) -> SessionConfig:
    try:
        pair = ResistorPair(r_low=float(resolved["r_low"]), r_high=float(resolved["r_high"]))
        kind = DistributionKind(resolved["kind"])
        sigma_low = float(resolved["sigma_low"])
        sigma_high = resolved["sigma_high"]
        if sigma_high is None:
            # Default to the amplitude the security condition demands.
            sigma_high = sigma_low * math.sqrt(pair.r_high / pair.r_low) if sigma_low > 0 else 0.0
        return SessionConfig(
            pair=pair,
            kind=kind,
            sigma_low=sigma_low,
            sigma_high=float(sigma_high),
            samples_per_bit=int(resolved["samples_per_bit"]),
            bits=int(resolved["bits"]),
            seed=int(resolved["seed"]),
            significance=float(resolved["significance"]),
        )
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from exc


def _parse_multipliers(text: str) -> list[float]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise UsageError("multipliers must be a non-empty comma-separated list")
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise UsageError(f"bad multiplier: {exc}") from exc
    if any(not math.isfinite(v) or v <= 0.0 for v in values):
        raise UsageError("multipliers must be positive and finite")
    return values


def _add_pair_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--r-low", dest="r_low", type=float, help="low resistance in ohms")
    sub.add_argument("--r-high", dest="r_high", type=float, help="high resistance in ohms")
    sub.add_argument("--kind", choices=_KIND_CHOICES, help="noise shape family")
    sub.add_argument("--sigma-low", dest="sigma_low", type=float, help="low-side noise scale")
    sub.add_argument(
        "--sigma-high",
        dest="sigma_high",
        type=float,
        help="high-side noise scale (default: the value the security condition demands)",
    )


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON file with settings, overridden by explicit flags")
    sub.add_argument("--out", default=".", help="directory for artifacts (default: current)")
    sub.add_argument("--seed", type=int, help="session seed (default 0)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kljn",
        description="Simulate the resistor-switching key exchange and measure what leaks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    sim = commands.add_parser("simulate", help="run a full key-exchange session")
    _add_common_flags(sim)
    _add_pair_flags(sim)
    sim.add_argument("--samples-per-bit", dest="samples_per_bit", type=int)
    sim.add_argument("--bits", type=int)
    sim.add_argument("--significance", type=float)
    sim.add_argument("--csv", action="store_true", help="also write per-bit records as CSV")
    sim.set_defaults(handler=cmd_simulate)

    atk = commands.add_parser("attack", help="attack fresh mixed-state bits and report accuracy")
    _add_common_flags(atk)
    _add_pair_flags(atk)
    atk.add_argument("--samples", type=int, help="samples per trial (default 10000)")
    atk.add_argument("--trials", type=int, help="number of trials (default 200)")
    atk.add_argument("--significance", type=float)
    atk.add_argument("--csv", action="store_true", help="also write per-trial decisions as CSV")
    atk.set_defaults(handler=cmd_attack)

    pdf = commands.add_parser("pdf", help="tabulate the wrong-hypothesis mixture density")
    _add_common_flags(pdf)
    _add_pair_flags(pdf)
    pdf.add_argument("--dx", type=float, help="grid spacing (default: finer scale / 200)")
    pdf.add_argument(
        "--half-width",
        dest="half_width",
        type=float,
        help="half width of the wider component's grid (default: 8 mixture scales)",
    )
    pdf.set_defaults(handler=cmd_pdf)

    swp = commands.add_parser("sweep", help="rerun sessions at scaled amplitude violations")
    _add_common_flags(swp)
    _add_pair_flags(swp)
    swp.add_argument("--samples-per-bit", dest="samples_per_bit", type=int)
    swp.add_argument("--bits", type=int)
    swp.add_argument("--significance", type=float)
    swp.add_argument(
        "--multipliers",
        help="comma-separated factors applied to the compliant amplitude (default 1.0,1.2,1.5,2.0)",
    )
    swp.set_defaults(handler=cmd_sweep)
    return parser


def cmd_simulate(args: argparse.Namespace) -> int:
    resolved = _resolve(_SESSION_DEFAULTS, args, set(_SESSION_DEFAULTS))
    config = _session_config(resolved)
    if config.kind is DistributionKind.CAUCHY:
        raise UsageError("simulate needs finite-variance noise; choose gaussian or uniform")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    outcome = run_session(config)

    outputs: dict[str, str] = {}
    _write_artifact(out_dir, "session.json", outcome.to_json().encode("ascii"), outputs)
    if args.csv:
        _write_artifact(out_dir, "bits.csv", records_csv(outcome.records).encode("ascii"), outputs)
    _write_manifest(
        out_dir,
        RunManifest(
            command="simulate",
            config=config.to_dict(),
            seed=config.seed,
            version=__version__,
            outputs=outputs,
        ),
    )
    acc = outcome.eve_accuracy
    print(
        f"bits={config.bits} secure_fraction={outcome.secure_bit_fraction:.6g} "
        f"bit_error_rate={outcome.bit_error_rate:.6g} "
        f"eve_accuracy={'n/a' if acc is None else f'{acc:.6g}'}"
    )
    return 0


def cmd_attack(args: argparse.Namespace) -> int:
    defaults = dict(_SESSION_DEFAULTS)
    defaults.pop("samples_per_bit")
    defaults.pop("bits")
    defaults.update({"samples": 10000, "trials": 200})
    resolved = _resolve(defaults, args, set(defaults))
    try:
        samples = int(resolved["samples"])
        trials = int(resolved["trials"])
        significance = float(resolved["significance"])
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from exc
    if samples < 100:
        raise UsageError("samples must be at least 100")
    if trials < 1:
        raise UsageError("trials must be at least 1")
    if not 0.0 < significance < 1.0:
        raise UsageError("significance must lie in (0, 1)")
    session_like = dict(resolved)
    session_like.update({"samples_per_bit": samples, "bits": 1})
    session_like.pop("samples")
    session_like.pop("trials")
    config = _session_config(session_like)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    summary = attack_trials(
        config.pair,
        NoiseSpec(config.kind, config.sigma_low),
        NoiseSpec(config.kind, config.sigma_high),
        samples_per_trial=samples,
        trials=trials,
        significance=significance,
        seed=config.seed,
    )

    resolved_config = {
        "kind": config.kind.value,
        "r_high": config.pair.r_high,
        "r_low": config.pair.r_low,
        "samples": samples,
        "seed": config.seed,
        "sigma_high": config.sigma_high,
        "sigma_low": config.sigma_low,
        "significance": significance,
        "trials": trials,
    }
    outputs: dict[str, str] = {}
    _write_artifact(out_dir, "attack.json", _json_bytes(summary.to_dict()), outputs)
    if args.csv:
        lines = ["trial,true_alice,decision,credit"]
        for t, (truth, decision) in enumerate(zip(summary.truths, summary.decisions)):
            lines.append(
                f"{t},{truth.value},{decision.value},{decision_credit(decision, truth)!r}"
            )
        _write_artifact(out_dir, "trials.csv", ("\n".join(lines) + "\n").encode("ascii"), outputs)
    _write_manifest(
        out_dir,
        RunManifest(
            command="attack",
            config=resolved_config,
            seed=config.seed,
            version=__version__,
            outputs=outputs,
        ),
    )
    print(
        f"trials={summary.trials} accuracy={summary.accuracy:.6g} "
        f"correct={summary.correct} wrong={summary.wrong} undecided={summary.undecided}"
    )
    return 0


def cmd_pdf(args: argparse.Namespace) -> int:
    defaults = dict(_SESSION_DEFAULTS)
    defaults.pop("samples_per_bit")
    defaults.pop("bits")
    defaults.pop("seed")
    defaults.pop("significance")
    defaults.update({"dx": None, "half_width": None})
    resolved = _resolve(defaults, args, set(defaults))
    try:
        pair = ResistorPair(r_low=float(resolved["r_low"]), r_high=float(resolved["r_high"]))
        kind = DistributionKind(resolved["kind"])
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from exc
    if kind is DistributionKind.CAUCHY:
        raise UsageError(
            "pdf compares against a variance-matched reference, which the Cauchy family lacks"
        )
    try:
        sigma_low = float(resolved["sigma_low"])
        if sigma_low <= 0.0:
            raise UsageError("sigma_low must be positive")
        sigma_high = resolved["sigma_high"]
        if sigma_high is None:
            sigma_high = sigma_low * math.sqrt(pair.r_high / pair.r_low)
        sigma_high = float(sigma_high)
        if sigma_high <= 0.0:
            raise UsageError("sigma_high must be positive")
        w = weights(pair, sigma_low, sigma_high)
        sigma_mix = math.hypot(w.alpha, w.beta)
        dx, half_width = default_grid(w)
        if resolved["dx"] is not None:
            dx = float(resolved["dx"])
        if resolved["half_width"] is not None:
            half_width = float(resolved["half_width"])
    except (TypeError, ValueError) as exc:
        if isinstance(exc, UsageError):
            raise
        raise UsageError(str(exc)) from exc
    if dx <= 0.0 or half_width <= 0.0:
        raise UsageError("dx and half-width must be positive")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    mixture, reference = closure_pair(kind, w, dx=dx, half_width=half_width)
    residual = l1_residual(mixture, reference)

    lines = ["x,p_a,p_h"]
    xs = mixture.x
    for xv, pa, ph in zip(xs, mixture.values, reference.values):
        lines.append(f"{float(xv)!r},{float(pa)!r},{float(ph)!r}")
    summary = {
        "alpha": w.alpha,
        "beta": w.beta,
        "dx": dx,
        "half_width": half_width,
        "kind": kind.value,
        "residual": residual,
        "second_moment_mixture": mixture.second_moment(),
        "second_moment_reference": reference.second_moment(),
        "sigma_mix": sigma_mix,
    }
    resolved_config = {
        "dx": dx,
        "half_width": half_width,
        "kind": kind.value,
        "r_high": pair.r_high,
        "r_low": pair.r_low,
        "sigma_high": sigma_high,
        "sigma_low": sigma_low,
    }
    outputs: dict[str, str] = {}
    _write_artifact(out_dir, "pdf.csv", ("\n".join(lines) + "\n").encode("ascii"), outputs)
    _write_artifact(out_dir, "pdf.json", _json_bytes(summary), outputs)
    _write_manifest(
        out_dir,
        RunManifest(
            command="pdf", config=resolved_config, seed=None, version=__version__, outputs=outputs
        ),
    )
    print(
        f"kind={kind.value} alpha={w.alpha:.6g} beta={w.beta:.6g} "
        f"sigma_mix={sigma_mix:.6g} residual={residual:.6g}"
    )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    defaults = dict(_SESSION_DEFAULTS)
    defaults["multipliers"] = "1.0,1.2,1.5,2.0"
    resolved = _resolve(defaults, args, set(defaults))
    raw_multipliers = resolved["multipliers"]
    try:
        multipliers = (
            _parse_multipliers(raw_multipliers)
            if isinstance(raw_multipliers, str)
            else [float(v) for v in raw_multipliers]
        )
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from exc
    if not multipliers or any(not math.isfinite(v) or v <= 0.0 for v in multipliers):
        raise UsageError("multipliers must be positive and finite")
    session_like = dict(resolved)
    session_like.pop("multipliers")
    config = _session_config(session_like)
    if config.kind is DistributionKind.CAUCHY:
        raise UsageError("sweep needs finite-variance noise; choose gaussian or uniform")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    points = leak_sweep(config, multipliers)

    csv_lines = ["multiplier,eve_accuracy"]
    for p in points:
        acc = "" if p.eve_accuracy is None else repr(p.eve_accuracy)
        csv_lines.append(f"{p.multiplier!r},{acc}")
    summary = {
        "base_config": config.to_dict(),
        "points": [p.to_dict() for p in points],
    }
    manifest_config = config.to_dict()
    manifest_config["multipliers"] = multipliers
    outputs: dict[str, str] = {}
    _write_artifact(out_dir, "sweep.csv", ("\n".join(csv_lines) + "\n").encode("ascii"), outputs)
    _write_artifact(out_dir, "sweep.json", _json_bytes(summary), outputs)
    _write_manifest(
        out_dir,
        RunManifest(
            command="sweep",
            config=manifest_config,
            seed=config.seed,
            version=__version__,
            outputs=outputs,
        ),
    )
    for p in points:
        acc = "n/a" if p.eve_accuracy is None else f"{p.eve_accuracy:.6g}"
        print(f"multiplier={p.multiplier:.6g} eve_accuracy={acc}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code in (0, None):
            return 0
        return 2
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TruncationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
