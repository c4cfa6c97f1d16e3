"""Self-tests of the benchmark: tracer counts, self-time arithmetic, output checks.

Run from the repository root::

    python3 -m pytest -q bench
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import kljn  # noqa: E402
import kljn.cli  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, aggregate, self_times  # noqa: E402


def _traced_cli(argv: list[str]) -> dict:
    with Tracer() as tracer:
        assert kljn.cli.main(argv) == 0
    return aggregate(tracer.spans)


def _calls(layers: dict, name: str) -> int:
    return layers.get(name, {}).get("calls", 0)


def _assert_counts(layers: dict, bits: int, secure: int) -> None:
    assert _calls(layers, "noise.stream") == 3 * bits
    assert _calls(layers, "noise.sample") == 2 * bits
    assert _calls(layers, "line.line_signals") == bits
    for name in ("eve.shape_test", "eve.variance_test", "density.cdf", "density.integral"):
        assert _calls(layers, name) == 4 * secure, name
    assert _calls(layers, "eve.reference_grid") == 2
    assert _calls(layers, "eve.attack") == secure
    assert _calls(layers, "cli.main") == 1


def test_session_call_counts(tmp_path):
    bits = 60
    layers = _traced_cli(
        ["simulate", "--bits", str(bits), "--samples-per-bit", "200", "--seed", "3", "--out", str(tmp_path)]
    )
    records = json.loads((tmp_path / "session.json").read_text())["bits"]
    secure = sum(1 for r in records if r["secure"])
    assert 0 < secure < bits
    _assert_counts(layers, bits, secure)
    assert _calls(layers, "protocol.classify_level") == bits
    assert layers["noise.sample"]["work"] == 2 * bits * 200
    assert layers["eve.shape_test"]["work"] == 4 * secure * 200
    mid = sum(1 for r in records if r["classified_level"] == "mid")
    metrics = {name: fn(layers) for name, (_, fn) in run.PER_LAYER.items()}
    assert metrics["protocol.mid_ratio"] == mid / bits
    assert metrics["density.support_ratio"] == 1.0  # Gaussian references span 8 scales


def test_attack_call_counts(tmp_path):
    trials = 4
    layers = _traced_cli(
        ["attack", "--kind", "uniform", "--samples", "2000", "--trials", str(trials),
         "--seed", "5", "--out", str(tmp_path)]
    )
    _assert_counts(layers, trials, trials)
    assert _calls(layers, "eve.attack_trials") == 1
    assert _calls(layers, "protocol.classify_level") == 0


def test_pdf_convolution_inputs(tmp_path):
    layers = _traced_cli(["pdf", "--kind", "uniform", "--dx", "0.01", "--out", str(tmp_path)])
    rows = (tmp_path / "pdf.csv").read_text().count("\n") - 1
    # Two component grids of k points each feed a convolution of 2k - 1 points.
    assert layers["density.convolve_scaled"]["child_work"] == rows + 1
    assert _calls(layers, "noise.sample") == 0


def test_tracer_restores_originals():
    def bindings():
        return {
            (mod.__name__, attr): getattr(mod, attr)
            for mod in (kljn, kljn.noise, kljn.line, kljn.density, kljn.eve, kljn.protocol, kljn.cli)
            for attr in dir(mod)
            if callable(getattr(mod, attr))
        } | {("PdfGrid", m): getattr(kljn.density.PdfGrid, m) for m in ("cdf", "integral")}

    before = bindings()
    with pytest.raises(RuntimeError):
        with Tracer():
            assert kljn.eve.stream is not before[("kljn.noise", "stream")]
            raise RuntimeError("escape")
    after = bindings()
    assert all(after[k] is v for k, v in before.items())


def test_every_namespace_binding_is_wrapped():
    original = kljn.noise.stream
    with Tracer():
        for mod in (kljn, kljn.noise, kljn.eve, kljn.protocol):
            assert mod.stream is not original
            assert mod.stream.__wrapped__ is original
    assert kljn.protocol.stream is original


def test_self_time_on_nested_fake_spans():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 7].
    fake = [
        ("a", -1, 0.0, 10.0, 1.0, 1.0),
        ("b", 0, 1.0, 4.0, 2.0, 1.0),
        ("c", 0, 5.0, 9.0, 3.0, 0.0),
        ("d", 2, 6.0, 7.0, 5.0, 5.0),
        ("b", -1, 11.0, 12.5, 4.0, 4.0),
    ]
    assert self_times(fake) == [3.0, 3.0, 3.0, 1.0, 1.5]
    totals = aggregate(fake)
    assert totals["b"]["calls"] == 2
    assert totals["b"]["self_s"] == 4.5
    assert totals["b"]["work"] == 6.0 and totals["b"]["useful"] == 5.0
    assert totals["a"]["child_work"] == 5.0
    assert totals["c"]["child_work"] == 5.0
    assert sum(self_times(fake)) == pytest.approx(10.0 + 1.5)


def _rewrite(path: Path, edit) -> None:
    path.write_text(edit(path.read_text()))


def _edit_json(path: Path, key_path: tuple[str, ...], value) -> None:
    data = json.loads(path.read_text())
    holder = data
    for key in key_path[:-1]:
        holder = holder[key]
    holder[key_path[-1]] = value
    path.write_text(json.dumps(data))


def _has(problems: list[str], text: str) -> bool:
    return any(text in p for p in problems)


@pytest.fixture(scope="module")
def session_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("session")
    assert kljn.cli.main(
        ["simulate", "--bits", "400", "--samples-per-bit", "100", "--csv", "--seed", "8", "--out", str(out)]
    ) == 0
    return out


@pytest.fixture(scope="module")
def attack_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("attack")
    assert kljn.cli.main(
        ["attack", "--kind", "uniform", "--samples", "100000", "--trials", "4", "--csv",
         "--seed", "9", "--out", str(out)]
    ) == 0
    return out


def _copy(src: Path, tmp_path: Path) -> Path:
    dst = tmp_path / "copy"
    shutil.copytree(src, dst)
    return dst


def test_session_check_accepts_real_output(session_out):
    assert workloads.check_session(session_out, bits=400) == []


@pytest.mark.parametrize(
    ("key_path", "value", "expected"),
    [
        (("aggregates", "secure_bit_fraction"), 0.7, "secure_bit_fraction"),
        (("aggregates", "eve_accuracy"), 1.0, "eve_accuracy"),
    ],
)
def test_session_check_rejects_tampered_summary(session_out, tmp_path, key_path, value, expected):
    out = _copy(session_out, tmp_path)
    _edit_json(out / "session.json", key_path, value)
    problems = workloads.check_session(out, bits=400)
    assert _has(problems, expected)
    assert _has(problems, "manifest digest of session.json")


def test_session_check_rejects_missing_csv_row(session_out, tmp_path):
    out = _copy(session_out, tmp_path)
    _rewrite(out / "bits.csv", lambda text: "".join(text.splitlines(keepends=True)[:-1]))
    assert _has(workloads.check_session(out, bits=400), "bits.csv rows")


def test_attack_check(attack_out, tmp_path):
    assert workloads.check_attack(attack_out, trials=4) == []
    out = _copy(attack_out, tmp_path)
    _edit_json(out / "attack.json", ("accuracy",), 0.5)
    assert _has(workloads.check_attack(out, trials=4), "shape leak is lost")
    assert _has(workloads.check_attack(attack_out, trials=5), "expected 5")


def _write_pdf_outputs(out: Path, residual: float, moment: float) -> None:
    out.mkdir(exist_ok=True)
    (out / "pdf.csv").write_text("x,p_a,p_h\n-1.0,0.0,0.0\n0.0,1.0,1.0\n1.0,0.0,0.0\n")
    (out / "pdf.json").write_text(json.dumps({"residual": residual, "second_moment_mixture": moment}))
    digests = {n: hashlib.sha256((out / n).read_bytes()).hexdigest() for n in ("pdf.csv", "pdf.json")}
    (out / "manifest.json").write_text(json.dumps({"outputs": digests}))


@pytest.mark.parametrize(
    ("residual_factor", "moment_factor", "expected"),
    [
        (1.0, 1.0, None),
        (1.0 + 1e-11, 1.0 - 1.3e-5, None),  # FFT round-off and the grid's moment deficit pass
        (1.002, 1.0, "residual"),
        (0.99, 1.0, "residual"),
        (1.0, 1.001, "second moment"),
    ],
)
def test_pdf_check(tmp_path, residual_factor, moment_factor, expected):
    sigma2 = workloads.mixture_variance(workloads.PDF_R_LOW, workloads.PDF_R_HIGH)
    _write_pdf_outputs(tmp_path, workloads.PDF_RESIDUAL * residual_factor, sigma2 * moment_factor)
    problems = workloads.check_pdf(tmp_path)
    assert problems == [] if expected is None else _has(problems, expected)


def test_pdf_check_rejects_changed_artifact(tmp_path):
    sigma2 = workloads.mixture_variance(workloads.PDF_R_LOW, workloads.PDF_R_HIGH)
    _write_pdf_outputs(tmp_path, workloads.PDF_RESIDUAL, sigma2)
    _rewrite(tmp_path / "pdf.csv", lambda text: text.replace("1.0,1.0", "1.0,0.9"))
    assert _has(workloads.check_pdf(tmp_path), "manifest digest of pdf.csv")


def test_replay_and_count_mismatches_fail_the_repeat():
    reps = [
        {"problems": [], "manifest": "m", "layers": {"noise.stream.calls": 3, "noise.stream.self_s": 0.1}},
        {"problems": [], "manifest": "m", "layers": {"noise.stream.calls": 3, "noise.stream.self_s": 0.2}},
        {"problems": [], "manifest": "other"},
        {"problems": [], "manifest": "m", "layers": {"noise.stream.calls": 4, "noise.stream.self_s": 0.1}},
    ]
    run.flag_inconsistent(reps)
    assert [bool(r["problems"]) for r in reps] == [False, False, True, True]


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    units = {name: unit for name, (unit, _) in run.PER_LAYER.items()} | run.PER_LAYER_EXTRA
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == units


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "session_default", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
