"""Command-line behavior: artifacts, manifests, determinism, exit codes."""

import ast
import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import kljn
import kljn.cli
from kljn.cli import _COMMAND_FLAGS, _COMMANDS, _CSV_BLOCK, _SETTINGS, _csv_bytes, _float_column
from kljn.cli import main
from test_protocol import random_outcome


def run(argv):
    return main(argv)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def check_manifest(out_dir):
    manifest = read_json(out_dir / "manifest.json")
    for name, digest in manifest["outputs"].items():
        actual = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        assert actual == digest, f"digest mismatch for {name}"
    return manifest


class TestSimulate:
    def test_writes_session_and_manifest(self, tmp_path, capsys):
        code = run(
            ["simulate", "--bits", "20", "--samples-per-bit", "200", "--seed", "1", "--out", str(tmp_path)]
        )
        assert code == 0
        session = read_json(tmp_path / "session.json")
        assert len(session["bits"]) == 20
        assert 0.0 <= session["aggregates"]["secure_bit_fraction"] <= 1.0
        manifest = check_manifest(tmp_path)
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 1
        assert manifest["config"]["bits"] == 20
        assert "secure_fraction=" in capsys.readouterr().out
        assert not (tmp_path / "bits.csv").exists()

    def test_csv_flag_adds_per_bit_records(self, tmp_path):
        code = run(
            [
                "simulate",
                "--bits",
                "10",
                "--samples-per-bit",
                "150",
                "--seed",
                "2",
                "--csv",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        lines = (tmp_path / "bits.csv").read_text().splitlines()
        assert len(lines) == 11
        assert lines[0].startswith("bit_index,")
        manifest = check_manifest(tmp_path)
        assert set(manifest["outputs"]) == {"session.json", "bits.csv"}
        # Staged artifacts were renamed, so no temporary file is left beside them.
        assert {p.name for p in tmp_path.iterdir()} == {"session.json", "bits.csv", "manifest.json"}

    def test_byte_identical_reruns(self, tmp_path):
        args = ["simulate", "--bits", "15", "--samples-per-bit", "150", "--seed", "3", "--csv"]
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--out", str(d1)]) == 0
        assert run(args + ["--out", str(d2)]) == 0
        for name in ("session.json", "bits.csv", "manifest.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_csv_artifact_matches_session_json(self, tmp_path):
        args = ["simulate", "--bits", "15", "--samples-per-bit", "150", "--seed", "3", "--csv"]
        assert run(args + ["--out", str(tmp_path)]) == 0
        header = "bit_index,alice_state,bob_state,classified_level,secure,discarded,key_bit,eve_decision"

        def cell(value):
            if isinstance(value, bool):
                return "true" if value else "false"
            return "" if value is None else str(value)

        bits = read_json(tmp_path / "session.json")["bits"]
        rows = [",".join(cell(r[name]) for name in header.split(",")) for r in bits]
        written = (tmp_path / "bits.csv").read_bytes()
        assert written == "\n".join([header, *rows, ""]).encode("ascii")
        assert hashlib.sha256(written).hexdigest() == (
            "62b3e34667ef7ae81e83d0d10425abfe2a025dfdead0e76b5d7d396a7590836d"
        )

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bits": 30, "samples_per_bit": 150, "seed": 4}))
        out = tmp_path / "out"
        code = run(["simulate", "--config", str(cfg), "--bits", "12", "--out", str(out)])
        assert code == 0
        session = read_json(out / "session.json")
        assert len(session["bits"]) == 12
        manifest = read_json(out / "manifest.json")
        assert manifest["config"]["bits"] == 12
        assert manifest["config"]["samples_per_bit"] == 150

    def test_default_sigma_high_is_the_compliant_value(self, tmp_path):
        code = run(["simulate", "--bits", "5", "--samples-per-bit", "150", "--out", str(tmp_path)])
        assert code == 0
        manifest = read_json(tmp_path / "manifest.json")
        assert manifest["config"]["sigma_high"] == 2.0  # sqrt(4/1) * sigma_low

    def test_usage_errors(self, tmp_path):
        assert run(["simulate", "--bits", "0", "--out", str(tmp_path)]) == 2
        assert run(["simulate", "--kind", "cauchy", "--out", str(tmp_path)]) == 2
        assert run(["simulate", "--samples-per-bit", "50", "--out", str(tmp_path)]) == 2

    def test_overflowing_sigma_high_is_usage_error(self, tmp_path, capsys):
        # the compliant sigma_high, 2e308, overflows to inf
        out = tmp_path / "out"
        argv = ["simulate", "--sigma-low", "1e308", "--bits", "5", "--samples-per-bit", "150"]
        assert run(argv + ["--out", str(out)]) == 2
        assert not out.exists()
        assert "sigma_high must be positive and finite" in capsys.readouterr().err

    def test_bad_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert run(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        cfg.write_text(json.dumps({"unknown_key": 1}))
        assert run(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert run(["simulate", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path)]) == 2


class TestAttack:
    def test_writes_accuracy_report(self, tmp_path, capsys):
        code = run(
            ["attack", "--samples", "1000", "--trials", "8", "--seed", "5", "--out", str(tmp_path)]
        )
        assert code == 0
        report = read_json(tmp_path / "attack.json")
        assert report["trials"] == 8
        assert report["correct"] + report["wrong"] + report["undecided"] == 8
        assert 0.0 <= report["accuracy"] <= 1.0
        manifest = check_manifest(tmp_path)
        assert manifest["config"]["samples"] == 1000
        assert "accuracy=" in capsys.readouterr().out

    def test_csv_flag_dumps_trials(self, tmp_path):
        code = run(
            [
                "attack",
                "--samples",
                "1000",
                "--trials",
                "6",
                "--seed",
                "5",
                "--csv",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        lines = (tmp_path / "trials.csv").read_text().splitlines()
        assert lines[0] == "trial,true_alice,decision,credit"
        assert len(lines) == 7

    def test_shape_violation_detected_from_cli(self, tmp_path):
        code = run(
            [
                "attack",
                "--kind",
                "uniform",
                "--samples",
                "20000",
                "--trials",
                "10",
                "--seed",
                "6",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        report = read_json(tmp_path / "attack.json")
        assert report["accuracy"] >= 0.9

    def test_usage_errors(self, tmp_path):
        assert run(["attack", "--trials", "0", "--out", str(tmp_path)]) == 2
        assert run(["attack", "--samples", "50", "--out", str(tmp_path)]) == 2
        assert run(["attack", "--significance", "0", "--out", str(tmp_path)]) == 2

    def test_infinite_sigma_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["attack", "--sigma-high", "inf", "--samples", "200", "--trials", "2"]
        assert run(argv + ["--out", str(out)]) == 2
        assert not out.exists()
        assert "sigma_high must be positive and finite" in capsys.readouterr().err


class TestPdf:
    def test_gaussian_closure_from_cli(self, tmp_path):
        code = run(["pdf", "--out", str(tmp_path)])
        assert code == 0
        summary = read_json(tmp_path / "pdf.json")
        assert summary["residual"] <= 1e-6
        assert summary["kind"] == "gaussian"
        lines = (tmp_path / "pdf.csv").read_text().splitlines()
        assert lines[0] == "x,p_a,p_h"
        assert len(lines) > 1000
        x, p_a, p_h = lines[1].split(",")
        float(x), float(p_a), float(p_h)
        check_manifest(tmp_path)

    def test_uniform_residual_from_cli(self, tmp_path, capsys):
        code = run(["pdf", "--kind", "uniform", "--out", str(tmp_path)])
        assert code == 0
        summary = read_json(tmp_path / "pdf.json")
        assert summary["residual"] > 0.05
        assert summary["alpha"] == 1.6
        assert summary["beta"] == 1.2
        assert "residual=" in capsys.readouterr().out

    def test_explicit_grid_parameters(self, tmp_path):
        code = run(
            ["pdf", "--dx", "0.05", "--half-width", "40", "--sigma-low", "3.0", "--sigma-high", "4.0",
             "--r-low", "1.0", "--r-high", "1000000.0", "--out", str(tmp_path)]
        )
        # near-degenerate pair: alpha ~ 2 sigma_low, beta ~ sigma_high
        assert code == 0
        manifest = read_json(tmp_path / "manifest.json")
        assert manifest["config"]["dx"] == 0.05
        assert manifest["seed"] is None

    def test_usage_and_runtime_errors(self, tmp_path):
        assert run(["pdf", "--kind", "cauchy", "--out", str(tmp_path)]) == 2
        assert run(["pdf", "--dx", "0", "--out", str(tmp_path)]) == 2
        assert run(["pdf", "--dx", "-1", "--out", str(tmp_path)]) == 2
        # a grid too narrow for the tails is a computation failure
        assert run(["pdf", "--half-width", "1.0", "--out", str(tmp_path)]) == 3

    @pytest.mark.filterwarnings("error")
    def test_largest_squarable_grid_still_runs(self, tmp_path):
        # the default half width at sigma_low 1e150 is 1.6e151, whose square is finite
        assert run(["pdf", "--sigma-low", "1e150", "--out", str(tmp_path)]) == 0
        assert read_json(tmp_path / "pdf.json")["residual"] <= 1e-6


class TestSweep:
    def test_writes_points(self, tmp_path, capsys):
        code = run(
            [
                "sweep",
                "--bits",
                "20",
                "--samples-per-bit",
                "300",
                "--multipliers",
                "1.0,2.0",
                "--seed",
                "7",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "multiplier,eve_accuracy"
        assert len(lines) == 3
        summary = read_json(tmp_path / "sweep.json")
        assert [p["multiplier"] for p in summary["points"]] == [1.0, 2.0]
        manifest = check_manifest(tmp_path)
        assert manifest["config"]["multipliers"] == [1.0, 2.0]
        out = capsys.readouterr().out
        assert out.count("multiplier=") == 2

    def test_multipliers_from_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"bits": 10, "samples_per_bit": 150, "multipliers": [1.5], "seed": 3})
        )
        out = tmp_path / "out"
        code = run(["sweep", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        summary = read_json(out / "sweep.json")
        assert [p["multiplier"] for p in summary["points"]] == [1.5]

    def test_usage_errors(self, tmp_path):
        assert run(["sweep", "--multipliers", "", "--out", str(tmp_path)]) == 2
        assert run(["sweep", "--multipliers", "1.0,-2.0", "--out", str(tmp_path)]) == 2
        assert run(["sweep", "--multipliers", "abc", "--out", str(tmp_path)]) == 2
        assert run(["sweep", "--kind", "cauchy", "--out", str(tmp_path)]) == 2


class TestParser:
    def test_no_command_is_usage_error(self):
        assert run([]) == 2

    def test_unknown_flag_is_usage_error(self):
        assert run(["simulate", "--frombulate"]) == 2

    def test_unknown_kind_is_usage_error(self):
        assert run(["simulate", "--kind", "poisson"]) == 2

    def test_version_flag(self, capsys):
        assert run(["--version"]) == 0
        assert "kljn" in capsys.readouterr().out


# manifest.json holds the sha256 of every artifact, so its own digest pins
# all of a command's output bytes.
PINNED_MANIFESTS = [
    pytest.param(
        ["simulate", "--bits", "40", "--samples-per-bit", "150", "--seed", "3", "--csv"],
        "52a21300e0e7653fdd692a542cc45192ae42ee22f2f676dfafe9e457af6b12e3",
        id="simulate",
    ),
    pytest.param(
        ["attack", "--kind", "uniform", "--samples", "1000", "--trials", "6", "--seed", "5",
         "--csv"],
        "9f003be8be394d0baf7efad2c76e0e417deb8a4437899709f60f464ceab7014b",
        id="attack",
    ),
    pytest.param(
        ["pdf", "--kind", "uniform"],
        "ce35aa4900c3ee2c5870516a799dfd110dbbb45a2818656b48ae8f407f2e1aca",
        id="pdf",
    ),
    # the benchmark's pdf: 70 405 rows, few distinct mixture and reference values
    pytest.param(
        ["pdf", "--kind", "uniform", "--r-low", "1.0", "--r-high", "1.1"],
        "7a96125ac054d00064d0042c6a5e4d22578085d16bc1493b50875d92198310df",
        id="pdf-near-equal",
    ),
    # Gaussian: most values in every column are distinct
    pytest.param(
        ["pdf"],
        "415fb8b94df24ee969f9aa700d90a79c2bc3220cb828fdc6c836cc451ed1b27e",
        id="pdf-gaussian",
    ),
    pytest.param(
        ["sweep", "--bits", "20", "--samples-per-bit", "300", "--multipliers", "1.0,2.0",
         "--seed", "7"],
        "6a98021b07b5cff3abbb9c1f60f90307b633e258a3d98f15ddb54586de49b6d2",
        id="sweep",
    ),
    # 1.1 gives an accuracy of 0.5625, strictly between the extremes, so this
    # pin follows the session streams, the coins and the attack
    pytest.param(
        ["sweep", "--bits", "20", "--samples-per-bit", "300", "--multipliers", "1.0,1.1,2.0",
         "--seed", "7"],
        "2a4146d70363501467cdac5e0df27447ba31a25bc50ff2e6a6325a2c09b8f74c",
        id="sweep-between",
    ),
]


@pytest.mark.parametrize("argv, digest", PINNED_MANIFESTS)
def test_manifest_digest_pins_every_artifact(tmp_path, argv, digest):
    assert run(argv + ["--out", str(tmp_path)]) == 0
    check_manifest(tmp_path)
    assert hashlib.sha256((tmp_path / "manifest.json").read_bytes()).hexdigest() == digest


# Every exit-2 command line above that takes --out, plus pdf --seed (pdf
# draws no noise, so it takes no seed), a negative attack seed and
# non-finite pdf grids; "{cfg}" stands for a config file holding the
# paired text, or for a missing file when it is None.
USAGE_CASES = [
    (["simulate", "--bits", "0"], None),
    (["simulate", "--kind", "cauchy"], None),
    (["simulate", "--samples-per-bit", "50"], None),
    (["simulate", "--sigma-low", "1e308", "--bits", "5", "--samples-per-bit", "150"], None),
    (["simulate", "--config", "{cfg}"], "{not json"),
    (["simulate", "--config", "{cfg}"], json.dumps({"unknown_key": 1})),
    (["simulate", "--config", "{cfg}"], None),
    (["simulate", "--frombulate"], None),
    (["simulate", "--kind", "poisson"], None),
    (["attack", "--trials", "0"], None),
    (["attack", "--samples", "50"], None),
    (["attack", "--significance", "0"], None),
    (["attack", "--sigma-high", "inf", "--samples", "200", "--trials", "2"], None),
    (["attack", "--seed", "-1"], None),
    (["pdf", "--kind", "cauchy"], None),
    (["pdf", "--dx", "0"], None),
    (["pdf", "--dx", "-1"], None),
    (["pdf", "--dx", "nan"], None),
    (["pdf", "--half-width", "inf"], None),
    (["pdf", "--seed", "5"], None),
    (["sweep", "--multipliers", ""], None),
    (["sweep", "--multipliers", "1.0,-2.0"], None),
    (["sweep", "--multipliers", "abc"], None),
    (["sweep", "--kind", "cauchy"], None),
    (["sweep", "--bits", "10", "--samples-per-bit", "150", "--multipliers", "1.0,1e308"], None),
    (["simulate", "--bits", "20", "--samples-per-bit", "150", "--sigma-high", "1.0"], None),
    (["sweep", "--bits", "20", "--samples-per-bit", "150", "--multipliers", "0.5"], None),
    # config integers are JSON integers, and no setting is a JSON boolean
    (["simulate", "--config", "{cfg}"], json.dumps({"bits": 2.9})),
    (["simulate", "--config", "{cfg}"], json.dumps({"samples_per_bit": 150.5})),
    (["simulate", "--config", "{cfg}"], json.dumps({"seed": True})),
    (["simulate", "--config", "{cfg}"], json.dumps({"bits": "12"})),
    (["simulate", "--config", "{cfg}"], json.dumps({"sigma_low": True})),
    (["attack", "--config", "{cfg}"], json.dumps({"samples": 200.5})),
    (["attack", "--config", "{cfg}"], json.dumps({"trials": 2.5})),
    (["attack", "--config", "{cfg}"], json.dumps({"sigma_high": True})),
    (["pdf", "--config", "{cfg}"], json.dumps({"dx": True})),
    (["sweep", "--config", "{cfg}"], json.dumps({"multipliers": [1.0, True]})),
    # a pdf grid whose half width, or larger weight, has an overflowing square
    (["pdf", "--half-width", "1e160"], None),
    (["pdf", "--sigma-low", "1e200", "--half-width", "1e150"], None),
    # a float setting is a JSON number, kind a string, multipliers a string
    # or a list of numbers, and null only where the default is derived
    (["simulate", "--config", "{cfg}"], json.dumps({"sigma_low": "2", "r_high": "9"})),
    (["attack", "--config", "{cfg}"], json.dumps({"significance": "0.05"})),
    (["sweep", "--config", "{cfg}"], json.dumps({"multipliers": ["1.0", "2"]})),
    (["sweep", "--config", "{cfg}"], json.dumps({"multipliers": [[1.0]]})),
    (["pdf", "--config", "{cfg}"], json.dumps({"kind": 1})),
    (["pdf", "--config", "{cfg}"], json.dumps({"r_low": None})),
    (["simulate", "--config", "{cfg}"], json.dumps({"bits": None})),
    (["sweep", "--config", "{cfg}"], json.dumps({"multipliers": [1.0, 10**400]})),
    # an amplitude whose square, the variance the attack divides by, underflows to 0
    (["attack", "--samples", "100", "--trials", "1", "--sigma-high", "1e-200"], None),
    # a pdf grid so fine that the convolution's sums overflow, and weights
    # so small that the half width times the smaller one underflows
    (["pdf", "--sigma-low", "1e-152"], None),
    (["pdf", "--kind", "uniform", "--sigma-low", "1e-152"], None),
    (["pdf", "--sigma-low", "1e-200"], None),
]


@pytest.mark.parametrize("argv, config_text", USAGE_CASES)
def test_usage_errors_create_no_output_directory(tmp_path, argv, config_text):
    cfg = tmp_path / "cfg.json"
    if config_text is not None:
        cfg.write_text(config_text)
    out = tmp_path / "fresh"
    argv = [str(cfg) if a == "{cfg}" else a for a in argv]
    assert run(argv + ["--out", str(out)]) == 2
    assert not out.exists()


MISTYPED_CONFIGS = [
    ("simulate", {"sigma_low": "2", "r_high": "9"}, "'sigma_low' must be a JSON number"),
    ("simulate", {"bits": 2.9}, "'bits' must be a JSON integer"),
    ("attack", {"r_low": None}, "'r_low' must be a JSON number"),
    ("pdf", {"dx": "0.1"}, "'dx' must be a JSON number or null"),
    ("pdf", {"kind": 1}, "'kind' must be a JSON string"),
    ("sweep", {"multipliers": ["1.0", "2"]},
     "'multipliers' must be a comma-separated JSON string or a JSON list of numbers"),
    ("pdf", {"kind": "Gaussian"}, f"'kind' must be one of {_SETTINGS['kind'].choices}"),
    ("simulate", {"r_low": 10**400}, "'r_low' is too large for a float"),
]


@pytest.mark.parametrize("command, config, message", MISTYPED_CONFIGS)
def test_a_mistyped_config_value_names_its_key_and_json_type(tmp_path, capsys, command, config,
                                                             message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run([command, "--config", str(cfg), "--out", str(tmp_path / "fresh")]) == 2
    assert capsys.readouterr().err == f"error: config key {message}\n"


# A config value writes the manifest that the same value as a flag does;
# null is the derived default, and a list of multipliers a comma-separated one.
CONFIG_AS_FLAGS = [
    pytest.param(["simulate", "--bits", "5", "--samples-per-bit", "150"], ["--r-low", "1"],
                 {"r_low": 1}, id="int-as-float"),
    pytest.param(["pdf", "--kind", "uniform"], [], {"sigma_high": None, "dx": None,
                                                    "half_width": None}, id="null-derived"),
    pytest.param(["sweep", "--bits", "5", "--samples-per-bit", "150"],
                 ["--multipliers", "1,2.0"], {"multipliers": [1, 2.0]}, id="multiplier-list"),
]


@pytest.mark.parametrize("argv, flags, config", CONFIG_AS_FLAGS)
def test_a_config_value_writes_the_manifest_of_its_flag(tmp_path, argv, flags, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run(argv + flags + ["--out", str(tmp_path / "flags")]) == 0
    assert run(argv + ["--config", str(cfg), "--out", str(tmp_path / "config")]) == 0
    manifests = [(tmp_path / d / "manifest.json").read_bytes() for d in ("flags", "config")]
    assert manifests[0] == manifests[1]


# A small run of each command, for the keys of its manifest's config.
SMALL_RUNS = {
    "simulate": ["--bits", "5", "--samples-per-bit", "150"],
    "attack": ["--samples", "200", "--trials", "2"],
    "pdf": [],
    "sweep": ["--bits", "5", "--samples-per-bit", "150", "--multipliers", "1.0"],
}


@pytest.mark.parametrize("command", list(_COMMAND_FLAGS))
def test_the_settings_table_gives_the_flags_and_the_manifest_config(tmp_path, capsys, command):
    _, names, csv_help = _COMMAND_FLAGS[command]
    assert run([command, "--help"]) == 0
    options = capsys.readouterr().out.split("\noptions:\n", 1)[1]
    flags = re.findall(r"^  (?:-h, )?(--[a-z-]+)", options, flags=re.MULTILINE)
    settings = ["--" + name.replace("_", "-") for name in names]
    assert flags == ["--help", "--config", "--out", *settings, *["--csv"] * (csv_help is not None)]
    assert run([command, *SMALL_RUNS[command], "--out", str(tmp_path)]) == 0
    assert sorted(read_json(tmp_path / "manifest.json")["config"]) == sorted(names)


def readme_setting_list(label: str) -> list[str]:
    """The backticked names in the parenthesis after ``label`` in README's config typing rule."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    listed = re.search(re.escape(label) + r"\s+\(([^)]*)\)", section)
    assert listed, f"README's Command line section has no {label!r} list"
    return sorted(re.findall(r"`(\w+)`", listed[1]))


def test_readme_names_the_settings_of_each_config_type():
    ints = sorted(name for name, setting in _SETTINGS.items() if setting.type is int)
    nullable = sorted(name for name, setting in _SETTINGS.items() if setting.default is None)
    assert readme_setting_list("integer settings") == ints
    assert readme_setting_list("derived default") == nullable


# Finite settings whose squares, grid sizes or line products overflow a
# float: a usage error where validation meets the overflow, a run failure
# where the run does, and never a numpy warning.
OVERFLOW_CASES = [
    pytest.param(["simulate", "--sigma-low", "1e200"], 2, id="simulate"),
    pytest.param(["sweep", "--sigma-low", "1e200"], 2, id="sweep"),
    pytest.param(["attack", "--sigma-low", "1e200", "--samples", "200", "--trials", "2"], 2,
                 id="attack"),
    pytest.param(["pdf", "--sigma-low", "1e200"], 2, id="pdf"),
    pytest.param(["pdf", "--sigma-low", "3e153"], 2, id="pdf-grid"),
    pytest.param(["attack", "--r-high", "1e160", "--sigma-low", "1e150", "--sigma-high", "1e150",
                  "--samples", "200", "--trials", "2"], 3, id="attack-line"),
    # Five blocks of 163 trials, so the run splits into worker shares.
    pytest.param(["attack", "--r-high", "1e160", "--sigma-low", "1e150", "--sigma-high", "1e150",
                  "--samples", "200", "--trials", "800"], 3, id="attack-line-blocks"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, code", OVERFLOW_CASES)
def test_float_overflow_is_a_one_line_error(tmp_path, capsys, argv, code):
    out = tmp_path / "fresh"
    assert run(argv + ["--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert out.exists() == (code == 3)
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", ["gaussian", "uniform"])
def test_a_tiny_pdf_grid_inside_the_convolution_bound_runs(tmp_path, capsys, kind):
    # 1e-152 refuses its default grid (a usage error above); this coarser
    # grid of 201 points keeps the convolution's sums finite.
    argv = ["pdf", "--kind", kind, "--sigma-low", "1e-152", "--half-width", "1e-150",
            "--dx", "1e-152", "--out", str(tmp_path)]
    assert run(argv) == 0
    assert capsys.readouterr().err == ""
    assert json.loads((tmp_path / "pdf.json").read_text())["dx"] == 1e-152


def test_a_renderer_failing_mid_artifact_is_a_run_failure(monkeypatch, tmp_path, capsys):
    def failing_chunks():
        yield b"{\n"
        raise ValueError("renderer failed")

    validate, _ = _COMMANDS["simulate"]
    monkeypatch.setitem(
        _COMMANDS, "simulate", (validate, lambda inputs, csv: ({"session.json": failing_chunks()}, "done"))
    )
    assert run(["simulate", "--out", str(tmp_path)]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: renderer failed\n"
    assert captured.out == ""
    # The artifact was staged under a temporary name, which the failure removed.
    assert list(tmp_path.iterdir()) == []


def test_running_out_of_memory_is_a_run_failure(monkeypatch, tmp_path, capsys):
    # Raised, not provoked: where memory is overcommitted, a huge allocation
    # can succeed and the process be killed later.
    def exhausted_chunks():
        yield b"trial,true_alice,decision,credit\n"
        raise MemoryError("Unable to allocate 7.28 TiB")

    validate, _ = _COMMANDS["attack"]
    monkeypatch.setitem(
        _COMMANDS, "attack", (validate, lambda inputs, csv: ({"trials.csv": exhausted_chunks()}, "done"))
    )
    assert run(["attack", "--out", str(tmp_path)]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: MemoryError: Unable to allocate 7.28 TiB\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def artifact_peak(monkeypatch, out_dir, bits, csv):
    """Peak bytes ``tracemalloc`` sees while ``main`` writes the artifacts of a random session."""
    outcome = random_outcome(bits)
    monkeypatch.setattr(kljn.cli, "run_session", lambda config: outcome)
    argv = ["simulate", "--bits", str(bits), "--samples-per-bit", "150", "--out", str(out_dir)]
    tracemalloc.start()
    try:
        assert run(argv + ["--csv"] * csv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("csv", [False, True], ids=["json", "json-and-csv"])
def test_artifact_peak_does_not_grow_with_the_session(monkeypatch, tmp_path, capsys, csv):
    # A session is rendered from one code per bit, one record's text at a
    # time, and a whole session.json of 40 000 bits is ~9 MB
    small, large = (artifact_peak(monkeypatch, tmp_path / str(b), b, csv) for b in (2000, 40_000))
    assert large - small < 2**20


def plain_csv(header, columns):
    """The reference renderer: ``repr`` of every value, one row at a time."""
    rows = zip(*(map(repr, c.tolist()) for c in columns))
    return ("\n".join([header, *map(",".join, rows)]) + "\n").encode("ascii")


def mixed_columns(rows):
    # one distinct column, one with many repeats, one evenly spaced
    rng = np.random.default_rng(rows)
    x = rng.standard_normal(rows)
    return (x, np.round(x, 1), np.linspace(-3.0, 3.0, rows))


def one_column(*values):
    return (np.array(values, dtype=np.float64),)


def repeat_across_boundary():
    # 0.1 fills the end of the first block and the start of the second
    x = np.arange(2 * _CSV_BLOCK, dtype=np.float64)
    x[_CSV_BLOCK - 3 : _CSV_BLOCK + 3] = 0.1
    return (x, np.full(x.size, 0.1))


RENDER_CASES = [
    *(
        pytest.param(mixed_columns(rows), id=f"rows-{rows}")
        for rows in (0, 1, _CSV_BLOCK - 1, _CSV_BLOCK, _CSV_BLOCK + 1, 3 * _CSV_BLOCK + 1)
    ),
    pytest.param(one_column(0.0, -0.0, 0.0, -0.0, -0.0, 1.0), id="signed-zeros"),
    pytest.param(one_column(5e-324, 1e16, 1e-5, -5e-324, 1e16, 9999999999999998.0), id="formats"),
    pytest.param(repeat_across_boundary(), id="repeat-across-blocks"),
]


@pytest.mark.parametrize("columns", RENDER_CASES)
def test_block_renderer_matches_plain_repr(columns):
    header = ",".join(f"c{k}" for k in range(len(columns)))
    got = b"".join(_csv_bytes(header, zip(*map(_float_column, columns))))
    assert got == plain_csv(header, columns)


def modules_loaded_by_importing_the_cli(*packages: str) -> list[str]:
    """Modules of ``packages`` that ``import kljn.cli`` loads in a fresh interpreter.

    A None entry of ``sys.modules`` is an import blocked on purpose, not a
    loaded module.
    """
    src = str(Path(kljn.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, kljn.cli; print(sorted(name for name, module in sys.modules.items()"
        f" if module is not None and name.split('.')[0] in {packages!r}))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    return ast.literal_eval(out.stdout.strip())


def test_importing_the_cli_loads_no_scipy():
    # scipy is a test-only oracle; a fresh interpreter shows what the
    # command line itself imports.
    assert modules_loaded_by_importing_the_cli("scipy") == []


def test_importing_the_cli_loads_no_thread_or_process_pool():
    # A run's shares go to workers made by os.fork, and the two hypotheses of
    # a long trace run in turn in one process, so start-up pays for no pool.
    assert modules_loaded_by_importing_the_cli("concurrent", "multiprocessing") == []
