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

All four commands take one path through :func:`main`: resolve settings,
validate them, create ``--out``, run, write the artifacts, write the
manifest, print. A command supplies only its defaults, a validator that
maps resolved settings to the manifest's config and the run's inputs, and
a run that maps those inputs and ``--csv`` to its artifacts, keyed by file
name, and the text to print. An artifact is an iterable of encoded byte
chunks (a JSON summary is one chunk), which :func:`main` writes and feeds
to the artifact's sha256 as they arrive. The large artifacts are rendered
a block of rows or bits at a time, so none is ever held whole and a run's
memory does not grow with its output. Each artifact is written under a
temporary name in ``--out`` and renamed once every digest is taken, before
the manifest is written; a run that fails removes the files it staged, so
it leaves no partial artifact behind.

Exit codes: 0 on success, 2 for unusable arguments or configuration, 3
for failures while computing or writing results. A value error or an
arithmetic error (such as a float overflow from amplitudes too large to
square) is a usage error while the settings are validated, before
``--out`` is created, and a run failure after that.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from collections.abc import Iterable, Iterator
from itertools import chain, islice
from pathlib import Path

import numpy as np

from . import __version__
from .density import check_grid, closure_pair, default_grid, l1_residual, weights
from .eve import VERDICTS, attack_trials, check_trial_settings, credits
from .line import SwitchState
from .noise import DistributionKind, NoiseSpec, ResistorPair, check_sigmas, check_variance
from .noise import scaled_sigma_high
from .protocol import BIT_FIELDS, SessionConfig, leak_sweep, run_session, sweep_configs

_KIND_CHOICES = tuple(k.value for k in DistributionKind)
_CSV_BLOCK = 4096

_NOISE_DEFAULTS = {
    "r_low": 1.0,
    "r_high": 4.0,
    "kind": "gaussian",
    "sigma_low": 1.0,
    "sigma_high": None,
}
_SESSION_DEFAULTS = {
    **_NOISE_DEFAULTS,
    "samples_per_bit": 1000,
    "bits": 100,
    "seed": 0,
    "significance": 0.01,
}
# Built-in settings of each command; a --config file may set exactly these keys.
_DEFAULTS = {
    "simulate": _SESSION_DEFAULTS,
    "attack": {**_NOISE_DEFAULTS, "samples": 10000, "trials": 200, "seed": 0, "significance": 0.01},
    "pdf": {**_NOISE_DEFAULTS, "dx": None, "half_width": None},
    "sweep": {**_SESSION_DEFAULTS, "multipliers": "1.0,1.2,1.5,2.0"},
}
# Settings a --config file must give as JSON integers, as their flags take
# only integers; a fraction would otherwise be truncated.
_INTEGER_KEYS = {"bits", "samples_per_bit", "samples", "trials", "seed"}


def _json_bytes(obj: object) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("ascii")


def _csv_bytes(header: str, rows: Iterable[Iterable[str]]) -> Iterator[bytes]:
    """CSV text of pre-formatted rows, encoded: the header line, then one chunk per 4096 rows.

    Every chunk ends in a newline, and only one block of ``_CSV_BLOCK``
    (4096) rows is held at a time, so the whole text never is. Each row is
    joined as it arrives, which lets ``zip`` reuse its row tuple.
    """
    yield (header + "\n").encode("ascii")
    lines = map(",".join, rows)
    for first in lines:
        yield "\n".join(chain((first,), islice(lines, _CSV_BLOCK - 1), ("",))).encode("ascii")


def _float_column(values: np.ndarray) -> Iterator[str]:
    """``repr`` of each array value as a Python float, ``_CSV_BLOCK`` (4096) at a time.

    Within a block, values are keyed by their 64-bit pattern, so ``repr`` runs
    once per distinct pattern and its text is reused for every repeat. Bit
    patterns keep ``-0.0`` apart from ``0.0``, unlike float equality, and a
    per-block key keeps memory flat however long the column is.
    """
    values = np.asarray(values, dtype=np.float64)
    return chain.from_iterable(
        _block_texts(values[i : i + _CSV_BLOCK]) for i in range(0, values.size, _CSV_BLOCK)
    )


def _block_texts(block: np.ndarray) -> list[str]:
    """The ``repr`` of each value in one block, one call per distinct bit pattern."""
    keys, inverse = np.unique(block.view(np.uint64), return_inverse=True)
    if keys.size == block.size:  # no repeats: nothing to reuse, so skip the gather
        return list(map(repr, block.tolist()))
    texts = np.array(list(map(repr, keys.view(np.float64).tolist())), dtype=object)
    return texts[inverse].tolist()


def _csv_cell(value: object) -> str:
    """A per-bit field as ``bits.csv`` writes it: booleans as ``true``/``false``, None as nothing."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return "" if value is None else str(value)


def _csv_cells(column: list) -> Iterator[str]:
    """The :func:`_csv_cell` of each value in a column, computed once per distinct value."""
    cells = {value: _csv_cell(value) for value in set(column)}
    return map(cells.__getitem__, column)


def _load_config_file(path: str, allowed: set[str]) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError("config file must hold a JSON object")
    unknown = set(raw) - allowed
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key, value in raw.items():
        # JSON true is no setting, though Python would read it as 1.
        if any(isinstance(v, bool) for v in (value if isinstance(value, list) else [value])):
            raise ValueError(f"config key {key!r} must not be a boolean")
        if key in _INTEGER_KEYS and not isinstance(value, int):
            raise ValueError(f"config key {key!r} must be an integer")
    return raw


def _resolve(args: argparse.Namespace) -> dict:
    defaults = _DEFAULTS[args.command]
    resolved = dict(defaults)
    if args.config:
        resolved.update(_load_config_file(args.config, set(defaults)))
    for key in defaults:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            resolved[key] = flag_value
    return resolved


def _noise(s: dict) -> tuple[ResistorPair, DistributionKind, float, float]:
    """Pair, family and both amplitudes; an unset ``sigma_high`` follows the amplitude law."""
    pair = ResistorPair(r_low=float(s["r_low"]), r_high=float(s["r_high"]))
    kind = DistributionKind(s["kind"])
    sigma_low = float(s["sigma_low"])
    sigma_high = s["sigma_high"]
    sigma_high = scaled_sigma_high(pair, sigma_low) if sigma_high is None else float(sigma_high)
    return pair, kind, sigma_low, sigma_high


def _session(s: dict) -> SessionConfig:
    pair, kind, sigma_low, sigma_high = _noise(s)
    return SessionConfig(
        pair=pair,
        kind=kind,
        sigma_low=sigma_low,
        sigma_high=sigma_high,
        samples_per_bit=int(s["samples_per_bit"]),
        bits=int(s["bits"]),
        seed=int(s["seed"]),
        significance=float(s["significance"]),
    )


def _multipliers(raw: str | list) -> list[float]:
    parts = [p.strip() for p in raw.split(",") if p.strip()] if isinstance(raw, str) else raw
    if not parts:
        raise ValueError("multipliers must be a non-empty comma-separated list")
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise ValueError(f"bad multiplier: {exc}") from exc
    return values


def _simulate_inputs(s: dict) -> tuple[dict, SessionConfig]:
    config = _session(s)
    return config.to_dict(), config


def _simulate(config: SessionConfig, csv: bool) -> tuple[dict[str, Iterable[bytes]], str]:
    outcome = run_session(config)
    artifacts = {"session.json": map(str.encode, outcome.json_chunks())}
    if csv:
        # Each block's cells; bit_index, whose values are all distinct, needs no table.
        rows = chain.from_iterable(
            zip(*(map(str, c) if name == "bit_index" else _csv_cells(c) for name, c in f.items()))
            for f in outcome.bit_blocks()
        )
        artifacts["bits.csv"] = _csv_bytes(",".join(BIT_FIELDS), rows)
    acc = outcome.eve_accuracy
    return artifacts, (
        f"bits={config.bits} secure_fraction={outcome.secure_bit_fraction:.6g} "
        f"bit_error_rate={outcome.bit_error_rate:.6g} "
        f"eve_accuracy={'n/a' if acc is None else f'{acc:.6g}'}"
    )


def _attack_inputs(s: dict) -> tuple[dict, tuple]:
    pair, kind, sigma_low, sigma_high = _noise(s)
    check_sigmas(sigma_low, sigma_high)
    samples, trials, seed = int(s["samples"]), int(s["trials"]), int(s["seed"])
    significance = float(s["significance"])
    check_trial_settings(samples, trials, significance, seed)
    config = {
        "kind": kind.value,
        "r_high": pair.r_high,
        "r_low": pair.r_low,
        "samples": samples,
        "seed": seed,
        "sigma_high": sigma_high,
        "sigma_low": sigma_low,
        "significance": significance,
        "trials": trials,
    }
    return config, (pair, NoiseSpec(kind, sigma_low), NoiseSpec(kind, sigma_high), config)


def _attack(inputs: tuple, csv: bool) -> tuple[dict[str, Iterable[bytes]], str]:
    pair, spec_low, spec_high, c = inputs
    summary = attack_trials(
        pair, spec_low, spec_high, c["samples"], c["trials"], c["significance"], c["seed"]
    )
    artifacts = {"attack.json": (_json_bytes(summary.to_dict()),)}
    if csv:
        columns = (
            map(str, range(summary.trials)),
            np.where(summary.alice_high, SwitchState.HIGH.value, SwitchState.LOW.value).tolist(),
            [VERDICTS[k].value for k in summary.verdicts.tolist()],
            map(repr, credits(summary.verdicts, summary.alice_high).tolist()),
        )
        artifacts["trials.csv"] = _csv_bytes("trial,true_alice,decision,credit", zip(*columns))
    return artifacts, (
        f"trials={summary.trials} accuracy={summary.accuracy:.6g} "
        f"correct={summary.correct} wrong={summary.wrong} undecided={summary.undecided}"
    )


def _pdf_inputs(s: dict) -> tuple[dict, tuple]:
    pair, kind, sigma_low, sigma_high = _noise(s)
    check_variance(kind, "variance-matched pdf comparisons")
    w = weights(pair, sigma_low, sigma_high)
    dx, half_width = default_grid(w)
    dx = dx if s["dx"] is None else float(s["dx"])
    half_width = half_width if s["half_width"] is None else float(s["half_width"])
    check_grid(w, dx, half_width)
    config = {
        "dx": dx,
        "half_width": half_width,
        "kind": kind.value,
        "r_high": pair.r_high,
        "r_low": pair.r_low,
        "sigma_high": sigma_high,
        "sigma_low": sigma_low,
    }
    return config, (kind, w, dx, half_width)


def _pdf(inputs: tuple, csv: bool) -> tuple[dict[str, Iterable[bytes]], str]:
    kind, w, dx, half_width = inputs
    mixture, reference = closure_pair(kind, w, dx=dx, half_width=half_width)
    residual = l1_residual(mixture, reference)
    sigma_mix = math.hypot(w.alpha, w.beta)
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
    columns = (mixture.x, mixture.values, reference.values)
    artifacts = {
        "pdf.csv": _csv_bytes("x,p_a,p_h", zip(*map(_float_column, columns))),
        "pdf.json": (_json_bytes(summary),),
    }
    return artifacts, (
        f"kind={kind.value} alpha={w.alpha:.6g} beta={w.beta:.6g} "
        f"sigma_mix={sigma_mix:.6g} residual={residual:.6g}"
    )


def _sweep_inputs(s: dict) -> tuple[dict, tuple[SessionConfig, list[float]]]:
    multipliers = _multipliers(s["multipliers"])
    config = _session(s)
    sweep_configs(config, multipliers)  # checks every point's sigma_high before --out exists
    return {**config.to_dict(), "multipliers": multipliers}, (config, multipliers)


def _sweep(
    inputs: tuple[SessionConfig, list[float]], csv: bool
) -> tuple[dict[str, Iterable[bytes]], str]:
    config, multipliers = inputs
    points = leak_sweep(config, multipliers)
    summary = {"base_config": config.to_dict(), "points": [p.to_dict() for p in points]}
    artifacts = {
        "sweep.csv": _csv_bytes(
            "multiplier,eve_accuracy",
            zip(
                [repr(p.multiplier) for p in points],
                ["" if p.eve_accuracy is None else repr(p.eve_accuracy) for p in points],
            ),
        ),
        "sweep.json": (_json_bytes(summary),),
    }
    return artifacts, "\n".join(
        f"multiplier={p.multiplier:.6g} "
        f"eve_accuracy={'n/a' if p.eve_accuracy is None else f'{p.eve_accuracy:.6g}'}"
        for p in points
    )


_COMMANDS = {
    "simulate": (_simulate_inputs, _simulate),
    "attack": (_attack_inputs, _attack),
    "pdf": (_pdf_inputs, _pdf),
    "sweep": (_sweep_inputs, _sweep),
}


def _add_command(commands, name: str, help_text: str) -> argparse.ArgumentParser:
    sub = commands.add_parser(name, help=help_text)
    sub.add_argument("--config", help="JSON file with settings, overridden by explicit flags")
    sub.add_argument("--out", default=".", help="directory for artifacts (default: current)")
    if "seed" in _DEFAULTS[name]:
        sub.add_argument("--seed", type=int, help="session seed (default 0)")
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
    return sub


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kljn",
        description="Simulate the resistor-switching key exchange and measure what leaks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    sim = _add_command(commands, "simulate", "run a full key-exchange session")
    sim.add_argument("--samples-per-bit", dest="samples_per_bit", type=int)
    sim.add_argument("--bits", type=int)
    sim.add_argument("--significance", type=float)
    sim.add_argument("--csv", action="store_true", help="also write per-bit records as CSV")

    atk = _add_command(commands, "attack", "attack fresh mixed-state bits and report accuracy")
    atk.add_argument("--samples", type=int, help="samples per trial (default 10000)")
    atk.add_argument("--trials", type=int, help="number of trials (default 200)")
    atk.add_argument("--significance", type=float)
    atk.add_argument("--csv", action="store_true", help="also write per-trial decisions as CSV")

    pdf = _add_command(commands, "pdf", "tabulate the wrong-hypothesis mixture density")
    pdf.add_argument("--dx", type=float, help="grid spacing (default: finer scale / 200)")
    pdf.add_argument(
        "--half-width",
        dest="half_width",
        type=float,
        help="half width of the wider component's grid (default: 8 mixture scales)",
    )

    swp = _add_command(commands, "sweep", "rerun sessions at scaled amplitude violations")
    swp.add_argument("--samples-per-bit", dest="samples_per_bit", type=int)
    swp.add_argument("--bits", type=int)
    swp.add_argument("--significance", type=float)
    swp.add_argument(
        "--multipliers",
        help="comma-separated factors applied to the compliant amplitude (default 1.0,1.2,1.5,2.0)",
    )
    return parser


def _print_error(exc: Exception) -> None:
    """One ``error:`` line on stderr; an arithmetic error is named, its text alone says little."""
    detail = f"{type(exc).__name__}: {exc}" if isinstance(exc, ArithmeticError) else exc
    print(f"error: {detail}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    validate, run = _COMMANDS[args.command]
    try:
        config, inputs = validate(_resolve(args))
    except (TypeError, ValueError, ArithmeticError) as exc:
        _print_error(exc)
        return 2
    out_dir = Path(args.out)
    staged = {}  # artifact name -> the temporary path it is written under
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        artifacts, report = run(inputs, getattr(args, "csv", False))
        outputs = {}
        for name, chunks in artifacts.items():
            digest = hashlib.sha256()
            staged[name] = out_dir / f".{name}.part"
            with open(staged[name], "wb") as fh:
                for chunk in chunks:
                    fh.write(chunk)
                    digest.update(chunk)
            outputs[name] = digest.hexdigest()
        for name, path in staged.items():
            path.replace(out_dir / name)
        staged.clear()
        manifest = {
            "command": args.command,
            "config": config,
            "outputs": outputs,
            "seed": config.get("seed"),
            "version": __version__,
        }
        (out_dir / "manifest.json").write_bytes(_json_bytes(manifest))
    except (ValueError, ArithmeticError, OSError) as exc:
        _print_error(exc)
        return 3
    finally:
        for path in staged.values():
            path.unlink(missing_ok=True)
    print(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
