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

Each setting is declared once, in ``_SETTINGS`` (its type, default and
flag help), and ``_COMMAND_FLAGS`` names each command's settings. The
flags, the type check of each ``--config`` value and the keys of the
manifest's config all come from these two tables.

All four commands take one path through :func:`main`: resolve settings,
validate them, create ``--out``, run, write the artifacts, write the
manifest, print. A command supplies only a validator, which fills in the
settings derived from the others and maps them to the manifest's config
and the run's inputs, and a run that maps those inputs and ``--csv`` to
its artifacts, keyed by file name, and the text to print. An artifact is
an iterable of encoded byte chunks (a JSON summary is one chunk), which
:func:`main` writes and feeds to the artifact's sha256 as they arrive.
The large artifacts are rendered a block of CSV rows or a session record
at a time, so none is ever held whole and a run's memory does not grow
with its output.
Each artifact is written under a temporary name in ``--out`` and renamed
once every digest is taken, before the manifest is written; a run that
fails removes the files it staged, so it leaves no partial artifact
behind.

Exit codes: 0 on success, 2 for unusable arguments or configuration, 3
for failures while computing or writing results. A value error or an
arithmetic error (such as a float overflow from amplitudes too large to
square) is a usage error while the settings are validated, before
``--out`` is created, and a run failure after that. A run that cannot
get the memory it asks for (a trace or grid too large to hold) is a run
failure too, and so is a worker process of the run that ends without a
result (:class:`kljn.engine.WorkerError`).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from collections.abc import Iterable, Iterator
from itertools import chain, count, islice
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .density import closure_pair, l1_residual, mixture_grid, weights
from .engine import WorkerError, check_run_settings
from .eve import VERDICTS, credits
from .line import SwitchState
from .noise import DistributionKind, NoiseSpec, ResistorPair, check_sigmas, check_variance
from .noise import scaled_sigma_high
from .protocol import BIT_FIELDS, RECORDS, SessionConfig, attack_trials, leak_sweep, run_session
from .protocol import sweep_configs

_CSV_BLOCK = 4096


class _Setting(NamedTuple):
    """A setting's type, built-in default, flag help and, for ``kind``, its choices.

    ``type`` is ``int``, ``float``, ``str`` or ``list``; a ``list`` setting
    is a comma-separated string on the command line. A default of None
    means the value is derived from the other settings, and only such a
    setting may be ``null`` in a ``--config`` file.
    """

    type: type
    default: object
    help: str | None = None
    choices: list[str] | None = None


# Every setting of every command: the one place each is declared.
_SETTINGS = {
    "seed": _Setting(int, 0, "session seed (default 0)"),
    "r_low": _Setting(float, 1.0, "low resistance in ohms"),
    "r_high": _Setting(float, 4.0, "high resistance in ohms"),
    "kind": _Setting(str, "gaussian", "noise shape family", [k.value for k in DistributionKind]),
    "sigma_low": _Setting(float, 1.0, "low-side noise scale"),
    "sigma_high": _Setting(
        float, None, "high-side noise scale (default: the value the security condition demands)"
    ),
    "samples_per_bit": _Setting(int, 1000),
    "bits": _Setting(int, 100),
    "samples": _Setting(int, 10000, "samples per trial (default 10000)"),
    "trials": _Setting(int, 200, "number of trials (default 200)"),
    "significance": _Setting(float, 0.01),
    "dx": _Setting(float, None, "grid spacing (default: finer scale / 200)"),
    "half_width": _Setting(
        float, None, "half width of the wider component's grid (default: 8 mixture scales)"
    ),
    "multipliers": _Setting(
        list,
        "1.0,1.2,1.5,2.0",
        "comma-separated factors applied to the compliant amplitude (default 1.0,1.2,1.5,2.0)",
    ),
}
_NOISE = ("r_low", "r_high", "kind", "sigma_low", "sigma_high")
_SESSION = ("seed", *_NOISE, "samples_per_bit", "bits", "significance")
# Each command's help, its settings in flag order (exactly the keys its
# --config file may set and its manifest records), and the help of its
# --csv flag, None where it has none.
_COMMAND_FLAGS = {
    "simulate": ("run a full key-exchange session", _SESSION, "also write per-bit records as CSV"),
    "attack": (
        "attack fresh mixed-state bits and report accuracy",
        ("seed", *_NOISE, "samples", "trials", "significance"),
        "also write per-trial decisions as CSV",
    ),
    "pdf": ("tabulate the wrong-hypothesis mixture density", (*_NOISE, "dx", "half_width"), None),
    "sweep": ("rerun sessions at scaled amplitude violations", (*_SESSION, "multipliers"), None),
}
# The JSON a --config value of each setting type must be: the Python types
# json.load gives for it, and its name in a refusal. A list holds numbers.
_JSON_FORMS = {
    int: (int, "a JSON integer"),
    float: ((int, float), "a JSON number"),
    str: (str, "a JSON string"),
    list: ((str, list), "a comma-separated JSON string or a JSON list of numbers"),
}


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


def _is_json_form(value: object, setting_type: type) -> bool:
    """Whether a config value is the JSON a setting of ``setting_type`` takes; no boolean is."""
    if isinstance(value, list):
        return setting_type is list and all(_is_json_form(v, float) for v in value)
    return not isinstance(value, bool) and isinstance(value, _JSON_FORMS[setting_type][0])


def _load_config_file(path: str, names: tuple[str, ...]) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError("config file must hold a JSON object")
    unknown = set(raw) - set(names)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key, value in raw.items():
        setting = _SETTINGS[key]
        if not (value is None and setting.default is None or _is_json_form(value, setting.type)):
            form = _JSON_FORMS[setting.type][1] + (" or null" if setting.default is None else "")
            raise ValueError(f"config key {key!r} must be {form}")
        if setting.choices and value not in setting.choices:
            raise ValueError(f"config key {key!r} must be one of {setting.choices}")
        if setting.type is float and value is not None:
            try:
                raw[key] = float(value)
            except OverflowError:
                raise ValueError(f"config key {key!r} is too large for a float") from None
    return raw


def _resolve(args: argparse.Namespace) -> dict:
    """The command's settings from defaults, then ``--config``, then flags.

    Float settings are floats from every source: the defaults and flags
    already, and :func:`_load_config_file` converts JSON integers.
    """
    names = _COMMAND_FLAGS[args.command][1]
    resolved = {name: _SETTINGS[name].default for name in names}
    if args.config:
        resolved.update(_load_config_file(args.config, names))
    resolved.update((name, v) for name in names if (v := getattr(args, name)) is not None)
    return resolved


def _noise(s: dict) -> ResistorPair:
    """The resistor pair; an unset ``sigma_high`` is filled in from the amplitude law."""
    pair = ResistorPair(s["r_low"], s["r_high"])
    if s["sigma_high"] is None:
        s["sigma_high"] = scaled_sigma_high(pair, s["sigma_low"])
    return pair


def _session(s: dict) -> SessionConfig:
    """The session; its fields are the session settings, the two resistances joined as ``pair``."""
    pair = _noise(s)
    return SessionConfig(pair=pair, **{k: s[k] for k in _SESSION if k not in ("r_low", "r_high")})


def _multipliers(raw: str | list) -> list[float]:
    """The factors in a comma-separated string or a list; ``sweep_configs`` checks their values."""
    parts = [p for p in raw.split(",") if p.strip()] if isinstance(raw, str) else raw
    try:
        return [float(p) for p in parts]
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"bad multiplier: {exc}") from exc


# Each validator maps the resolved settings to the manifest's config (the
# same settings, derived values filled in) and the run's inputs.
def _simulate_inputs(s: dict) -> tuple[dict, SessionConfig]:
    return s, _session(s)


def _simulate(config: SessionConfig, csv: bool) -> tuple[dict[str, Iterable[bytes]], str]:
    outcome = run_session(config)
    artifacts = {"session.json": map(str.encode, outcome.json_chunks())}
    if csv:
        cells = [",".join(map(_csv_cell, record)) for record in RECORDS]
        rows = zip(map(str, count()), map(cells.__getitem__, outcome.codes().tobytes()))
        artifacts["bits.csv"] = _csv_bytes(",".join(BIT_FIELDS), rows)
    acc = outcome.eve_accuracy
    return artifacts, (
        f"bits={config.bits} secure_fraction={outcome.secure_bit_fraction:.6g} "
        f"bit_error_rate={outcome.bit_error_rate:.6g} "
        f"eve_accuracy={'n/a' if acc is None else f'{acc:.6g}'}"
    )


def _attack_inputs(s: dict) -> tuple[dict, tuple]:
    pair = _noise(s)
    check_sigmas(s["sigma_low"], s["sigma_high"])
    trial = s["samples"], s["trials"], s["significance"], s["seed"]
    check_run_settings(*trial, ("samples", "trials"))
    specs = NoiseSpec(s["kind"], s["sigma_low"]), NoiseSpec(s["kind"], s["sigma_high"])
    return s, (pair, *specs, *trial)  # the arguments of attack_trials


def _attack(inputs: tuple, csv: bool) -> tuple[dict[str, Iterable[bytes]], str]:
    summary = attack_trials(*inputs)
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
    pair = _noise(s)
    kind = DistributionKind(s["kind"])
    check_variance(kind, "variance-matched pdf comparisons")
    w = weights(pair, s["sigma_low"], s["sigma_high"])
    s["dx"], s["half_width"] = mixture_grid(w, s["dx"], s["half_width"])
    return s, (kind, w, s["dx"], s["half_width"])


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
    s["multipliers"] = _multipliers(s["multipliers"])
    config = _session(s)
    sweep_configs(config, s["multipliers"])  # checks every point's sigma_high before --out exists
    return s, (config, s["multipliers"])


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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kljn",
        description="Simulate the resistor-switching key exchange and measure what leaks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, names, csv_help) in _COMMAND_FLAGS.items():
        sub = commands.add_parser(command, help=help_text)
        sub.add_argument("--config", help="JSON file with settings, overridden by explicit flags")
        sub.add_argument("--out", default=".", help="directory for artifacts (default: current)")
        for name in names:
            setting = _SETTINGS[name]
            sub.add_argument(
                "--" + name.replace("_", "-"),
                type=str if setting.type is list else setting.type,
                choices=setting.choices,
                help=setting.help,
            )
        if csv_help is not None:
            sub.add_argument("--csv", action="store_true", help=csv_help)
    return parser


def _print_error(exc: Exception) -> None:
    """One ``error:`` line on stderr, naming an arithmetic or memory error, whose text is terse."""
    named = isinstance(exc, (ArithmeticError, MemoryError))
    detail = f"{type(exc).__name__}: {exc}" if named else exc
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
    except (ValueError, ArithmeticError, MemoryError, OSError, WorkerError) as exc:
        _print_error(exc)
        return 3
    finally:
        for path in staged.values():
            path.unlink(missing_ok=True)
    print(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
