"""Spans recorded around calls into the ``kljn`` layers, from outside the package.

A :class:`Tracer` replaces each traced public function with a timing
wrapper in every ``kljn`` namespace that binds it (``eve.stream`` and
``protocol.stream`` are the same function imported twice), keeps one span
per call in memory, and puts the originals back on :meth:`Tracer.uninstall`.
Nothing inside ``src/`` changes.

A span is ``(name, parent, start, end, work, useful)``. ``parent`` is the
index of the enclosing traced call or -1. ``work`` and ``useful`` are
per-call counts (samples drawn, grid points tabulated, bits classified
mid-level, ...) from which the layer ratios are formed.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("noise", "line", "density", "eve", "protocol", "cli")

# Mirrors kljn.density.HALF_WIDTH_SCALES; read from the package when it has it.
_DEFAULT_HALF_WIDTH_SCALES = 8.0


def _one(args, kwargs, result):
    return 1.0, 1.0


def _sample_values(args, kwargs, result):
    n = float(len(result))
    return n, n


def _shape_values(args, kwargs, result):
    n = float(result.n)
    return n, n


def _is_mid(args, kwargs, result):
    return 1.0, float(result.value == "mid")


def _is_decided(args, kwargs, result):
    return 1.0, float(result.decision.value != "undecided")


def _grid_points(half_width_scales):
    def measure(args, kwargs, result):
        scale = args[1] if len(args) > 1 else kwargs["scale"]
        inside = np.count_nonzero(np.abs(result.x) <= half_width_scales * scale)
        return float(result.values.size), float(inside)

    return measure


def targets(half_width_scales: float = _DEFAULT_HALF_WIDTH_SCALES) -> dict:
    """Traced callables: span name -> (defining module, attribute path, measure)."""
    return {
        "noise.stream": ("kljn.noise", "stream", _one),
        "noise.sample": ("kljn.noise", "sample", _sample_values),
        "line.line_signals": ("kljn.line", "line_signals", _one),
        "density.analytic_pdf": ("kljn.density", "analytic_pdf", _grid_points(half_width_scales)),
        "density.convolve_scaled": ("kljn.density", "convolve_scaled", _one),
        "density.closure_pair": ("kljn.density", "closure_pair", _one),
        "density.cdf": ("kljn.density", "PdfGrid.cdf", _one),
        "density.integral": ("kljn.density", "PdfGrid.integral", _one),
        "eve.reconstruct_alice": ("kljn.eve", "reconstruct_alice", _one),
        "eve.reconstruct_bob": ("kljn.eve", "reconstruct_bob", _one),
        "eve.variance_test": ("kljn.eve", "variance_test", _one),
        "eve.shape_test": ("kljn.eve", "shape_test", _shape_values),
        "eve.reference_grid": ("kljn.eve", "reference_grid", _one),
        "eve.attack": ("kljn.eve", "attack", _is_decided),
        "eve.attack_trials": ("kljn.eve", "attack_trials", _one),
        "protocol.classify_level": ("kljn.protocol", "classify_level", _is_mid),
        "protocol.run_session": ("kljn.protocol", "run_session", _one),
        "cli.main": ("kljn.cli", "main", _one),
    }


class Tracer:
    """Wraps the traced ``kljn`` callables and records one span per call."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, measure):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (name, parent, start, clock(), 0.0, 0.0)
                raise
            finally:
                stack.pop()
            spans[index] = (name, parent, start, clock(), *measure(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Wrap every traced callable in each ``kljn`` module that binds it."""
        namespaces = [importlib.import_module(f"kljn.{layer}") for layer in LAYERS]
        namespaces.append(importlib.import_module("kljn"))
        half_width = getattr(
            importlib.import_module("kljn.density"), "HALF_WIDTH_SCALES", _DEFAULT_HALF_WIDTH_SCALES
        )
        for name, (module_name, path, measure) in targets(half_width).items():
            owner = importlib.import_module(module_name)
            *class_path, attr = path.split(".")
            for part in class_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue  # the program no longer has this callable: its counts read 0
            wrapper = self._wrap(name, original, measure)
            if class_path:
                self._rebind(owner, attr, original, wrapper)
                continue
            for namespace in namespaces:
                if getattr(namespace, attr, None) is original:
                    self._rebind(namespace, attr, original, wrapper)

    def _rebind(self, holder, attr: str, original, wrapper) -> None:
        setattr(holder, attr, wrapper)
        self._restore.append((holder, attr, original))

    def uninstall(self) -> None:
        """Put every original callable back."""
        while self._restore:
            holder, attr, original = self._restore.pop()
            setattr(holder, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write(self, path: str | Path) -> None:
        """Write the recorded spans as CSV, start and end relative to the first span."""
        origin = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", newline="") as fh:
            fh.write("index,name,parent,start_s,end_s,work,useful\n")
            for i, (name, parent, start, end, work, useful) in enumerate(self.spans):
                fh.write(f"{i},{name},{parent},{start - origin!r},{end - origin!r},{work!r},{useful!r}\n")


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Calls are single-threaded, so the children of one span never overlap
    and their durations add up to the part of the parent they cover.
    """
    own = [end - start for _, _, start, end, _, _ in spans]
    for _, parent, start, end, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def aggregate(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``self_s``, ``work``, ``useful`` and ``child_work``.

    ``child_work`` sums the ``work`` of the span's direct children, so the
    grid points tabulated inside ``density.convolve_scaled`` are its input.
    """
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "work": 0.0, "useful": 0.0, "child_work": 0.0}
    )
    for (name, parent, _, _, work, useful), own in zip(spans, self_times(spans)):
        entry = totals[name]
        entry["calls"] += 1
        entry["self_s"] += own
        entry["work"] += work
        entry["useful"] += useful
        if parent >= 0:
            totals[spans[parent][0]]["child_work"] += work
    return dict(totals)
