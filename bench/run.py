"""Benchmark of the ``kljn`` command line.

Usage, from the root of a checkout::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repeat runs one CLI command (see ``workloads.py``) in a fresh
interpreter, one repeat at a time, with the BLAS thread pools pinned to
one thread. Repeats go on until ``--seconds`` have passed (at least
``MIN_REPEATS``). Every repeat's outputs are checked, and all repeats at
one seed must write byte-identical ``manifest.json`` files.

With ``--trace 0`` the end-to-end metrics are reported: medians over the
repeats of set-up time (spawn until ``import kljn.cli`` returns), the
``kljn.cli.main`` call, items per second and peak RSS. With ``--trace 1``
untraced and traced repeats alternate; the traced ones wrap the layer
calls from outside (``spans.py``) and give the per-layer metrics, and
``trace.overhead_s`` is the difference of the two medians of ``wall_s``.

The last line on stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Samples, quartiles and the
machine facts also go to ``.bench_build/bench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".bench_build" / "bench"

MIN_REPEATS = 3
# Every run ends within this many seconds, whatever --seconds says.
RUN_LIMIT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MiB",
}


def _field(span: str, field: str):
    return lambda layers: layers.get(span, {}).get(field, 0.0)


def _ratio(span: str):
    def value(layers: dict) -> float:
        entry = layers.get(span)
        return entry["useful"] / entry["work"] if entry and entry["work"] else 0.0

    return value


def _self_s(*spans: str):
    return lambda layers: sum(layers.get(s, {}).get("self_s", 0.0) for s in spans)


def _layer_self_s(layer: str):
    return lambda layers: sum(v["self_s"] for k, v in layers.items() if k.split(".")[0] == layer)


# Per-layer metric -> (unit, value from the aggregated spans of one traced repeat).
PER_LAYER = {
    "noise.stream.calls": ("count", _field("noise.stream", "calls")),
    "noise.stream.self_s": ("s", _self_s("noise.stream")),
    "noise.sample.calls": ("count", _field("noise.sample", "calls")),
    "noise.sample.self_s": ("s", _self_s("noise.sample")),
    "noise.sample.values": ("count", _field("noise.sample", "work")),
    "line.line_signals.calls": ("count", _field("line.line_signals", "calls")),
    "line.line_signals.self_s": ("s", _self_s("line.line_signals")),
    "protocol.run_session.self_s": ("s", _self_s("protocol.run_session")),
    "protocol.classify_level.calls": ("count", _field("protocol.classify_level", "calls")),
    "protocol.classify_level.self_s": ("s", _self_s("protocol.classify_level")),
    "protocol.mid_ratio": ("ratio", _ratio("protocol.classify_level")),
    "eve.attack_trials.self_s": ("s", _self_s("eve.attack_trials")),
    "eve.attack.calls": ("count", _field("eve.attack", "calls")),
    "eve.attack.self_s": ("s", _self_s("eve.attack")),
    "eve.decided_ratio": ("ratio", _ratio("eve.attack")),
    "eve.reconstruct.self_s": ("s", _self_s("eve.reconstruct_alice", "eve.reconstruct_bob")),
    "eve.variance_test.calls": ("count", _field("eve.variance_test", "calls")),
    "eve.variance_test.self_s": ("s", _self_s("eve.variance_test")),
    "eve.shape_test.calls": ("count", _field("eve.shape_test", "calls")),
    "eve.shape_test.self_s": ("s", _self_s("eve.shape_test")),
    "eve.shape_test.values": ("count", _field("eve.shape_test", "work")),
    "eve.reference_grid.calls": ("count", _field("eve.reference_grid", "calls")),
    "eve.reference_grid.self_s": ("s", _self_s("eve.reference_grid")),
    "density.cdf.calls": ("count", _field("density.cdf", "calls")),
    "density.integral.calls": ("count", _field("density.integral", "calls")),
    "density.cdf.self_s": ("s", _self_s("density.cdf", "density.integral")),
    "density.analytic_pdf.self_s": ("s", _self_s("density.analytic_pdf")),
    "density.analytic_pdf.points": ("count", _field("density.analytic_pdf", "work")),
    "density.support_ratio": ("ratio", _ratio("density.analytic_pdf")),
    "density.convolve_scaled.self_s": ("s", _self_s("density.convolve_scaled")),
    "density.convolve_scaled.input_points": ("count", _field("density.convolve_scaled", "child_work")),
    "cli.main.self_s": ("s", _self_s("cli.main")),
    **{f"{layer}.self_s": ("s", _layer_self_s(layer)) for layer in ("noise", "line", "eve", "density", "protocol", "cli")},
}
# Measured by run.py itself rather than from spans.
PER_LAYER_EXTRA = {"cli.artifact_bytes": "B", "trace.overhead_s": "s"}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Benchmark the kljn command line.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_ref() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def machine_facts() -> dict:
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "kljn").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_ref": _git_ref(),
        "source_sha256": source.hexdigest(),
    }


def run_repeat(workload: Workload, seed: int, rep_dir: Path, traced: bool, timeout: float) -> dict:
    """One fresh interpreter running the workload's CLI command; returns its measurements."""
    out_dir = rep_dir / "out"
    result_path = rep_dir / "result.json"
    cmd = [
        sys.executable, str(BENCH_DIR / "child.py"),
        str(result_path), "1" if traced else "0", str(rep_dir / "spans.csv"), "--",
        *workload.argv(seed, out_dir),
    ]
    rep: dict = {"traced": traced, "problems": []}
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        rep["problems"].append(f"timed out after {timeout:.0f} s")
        return rep
    if proc.returncode != 0 or not result_path.is_file():
        rep["problems"].append(f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return rep
    child = json.loads(result_path.read_text())
    if child["exit_code"] != 0:
        rep["problems"].append(f"kljn exited {child['exit_code']}: {proc.stderr.strip()[-500:]}")
        return rep
    if not Path(child["kljn_file"]).resolve().is_relative_to(ROOT / "src"):
        rep["problems"].append(f"imported kljn from {child['kljn_file']}, not from this checkout")
        return rep
    try:
        rep["problems"].extend(workload.check(out_dir))
    except (KeyError, TypeError, ValueError) as exc:
        rep["problems"].append(f"malformed output: {exc!r}")
    if (out_dir / "manifest.json").is_file():
        rep["manifest"] = (out_dir / "manifest.json").read_bytes()
    rep["setup_s"] = child["setup_end"] - spawned
    rep["wall_s"] = child["wall_s"]
    rep["items_per_s"] = workload.items / child["wall_s"]
    rep["peak_rss_mb"] = child["peak_rss_mb"]
    if traced:
        layers = child["layers"]
        rep["layers"] = {name: fn(layers) for name, (_, fn) in PER_LAYER.items()}
        rep["layers"]["cli.artifact_bytes"] = child["artifact_bytes"]
    return rep


def flag_inconsistent(reps: list[dict]) -> None:
    """Add a problem to each repeat that breaks replay or count repeatability.

    All repeats at one seed must write the same ``manifest.json`` bytes,
    and all traced repeats must count the same calls, values and points.
    """
    reference = next((r["manifest"] for r in reps if "manifest" in r), None)
    for r in reps:
        if "manifest" in r and r["manifest"] != reference:
            r["problems"].append("manifest.json differs from the first repeat at this seed")
    first = None
    for r in reps:
        if "layers" not in r:
            continue
        counts = {k: v for k, v in r["layers"].items() if PER_LAYER.get(k, ("B",))[0] != "s"}
        first = counts if first is None else first
        if counts != first:
            r["problems"].append("traced counts differ from the first traced repeat")


def summary(values: list[float]) -> dict:
    """Median and quartiles with the sample count."""
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    start = time.monotonic()
    args = parse_args(argv)
    if not (ROOT / "src" / "kljn" / "cli.py").is_file():
        print(f"error: no kljn sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run_name = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    run_dir = WORK_DIR / run_name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    # Warm the file cache and write bytecode once, outside any timed repeat.
    subprocess.run(
        [sys.executable, "-c", "import kljn.cli"], env=child_env(), capture_output=True, timeout=60
    )

    measuring = time.monotonic()
    modes = (False, True) if args.trace else (False,)
    reps: list[dict] = []
    while True:
        for traced in modes:
            remaining = RUN_LIMIT_S - (time.monotonic() - start)
            rep_dir = run_dir / f"rep{len(reps):03d}"
            rep_dir.mkdir()
            reps.append(run_repeat(workload, args.seed, rep_dir, traced, max(remaining, 1.0)))
            if (rep_dir / "spans.csv").exists():
                (rep_dir / "spans.csv").replace(run_dir / "spans.csv")  # keep the last traced run's
            shutil.rmtree(rep_dir)
        now = time.monotonic()
        if now - start >= RUN_LIMIT_S:
            break
        if now - measuring >= args.seconds and sum(not r["traced"] for r in reps) >= MIN_REPEATS:
            break

    flag_inconsistent(reps)
    good = [r for r in reps if not r["problems"] and "wall_s" in r]
    failed = len(reps) - len(good)
    good_untraced = [r for r in good if not r["traced"]]
    good_traced = [r for r in good if r["traced"]]
    if not good_untraced or (args.trace and not good_traced):
        for r in reps:
            for p in r["problems"]:
                print(f"error: {p}", file=sys.stderr)
        print("error: no repeat completed with correct outputs", file=sys.stderr)
        return 1

    samples = {name: [r[name] for r in good_untraced] for name in END_TO_END}
    stats = {name: summary(values) for name, values in samples.items()}
    if args.trace:
        wall_traced = summary([r["wall_s"] for r in good_traced])
        layers = {
            name: statistics.median(r["layers"][name] for r in good_traced)
            for name in good_traced[0]["layers"]
        }
        layers["trace.overhead_s"] = wall_traced["median"] - stats["wall_s"]["median"]
        units = {name: unit for name, (unit, _) in PER_LAYER.items()} | PER_LAYER_EXTRA
        metrics = {name: _metric(layers[name], units[name]) for name in units}
        stats["wall_s_traced"] = wall_traced
    else:
        metrics = {name: _metric(stats[name]["median"], unit) for name, unit in END_TO_END.items()}

    facts = machine_facts()
    computed = {"float64_trace_bytes": 8 * workload.trace_samples, "note": "computed from sample counts, not measured"}
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "trace": args.trace,
        "argv": workload.argv(args.seed, Path("OUT")),
        "machine": facts,
        "computed_sizes": computed,
        "stats": stats,
        "samples": samples,
        "problems": [p for r in reps for p in r["problems"]],
        "attempted": len(reps),
        "failed": failed,
        "metrics": metrics,
    }
    results_dir = WORK_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{run_name}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    for p in record["problems"]:
        print(f"problem: {p}")
    print(f"machine: {json.dumps(facts, sort_keys=True)}")
    print(f"computed sizes: {json.dumps(computed)}")
    for name, s in stats.items():
        print(f"{name}: median {s['median']:.6g} q1 {s['q1']:.6g} q3 {s['q3']:.6g} n={s['n']}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(reps), "failed": failed, "metrics": metrics}))
    return 0


def _exit_on_sigterm(signum, frame) -> None:
    # SystemExit unwinds through subprocess.run, which kills and reaps the child.
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    sys.exit(main())
