"""Run one ``kljn`` CLI command in this fresh interpreter and record its cost.

Usage::

    python3 bench/child.py RESULT_JSON TRACE SPANS_CSV -- CLI_ARGS...

``kljn`` must be importable from the checkout's ``src`` (``run.py`` sets
``PYTHONPATH``). The first thing this script does is import ``kljn.cli``;
the monotonic clock reading right after that import ends the set-up
interval that ``run.py`` started before spawning the process. With
``TRACE`` 1 the layer calls are wrapped by :class:`spans.Tracer`, the
spans go to ``SPANS_CSV`` after the command and their aggregates into the
result.
"""

import time

import kljn.cli

SETUP_END = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _artifact_bytes(cli_args: list[str]) -> int:
    out_dir = Path(cli_args[cli_args.index("--out") + 1])
    return sum(p.stat().st_size for p in out_dir.iterdir()) if out_dir.is_dir() else 0


def main() -> int:
    result_path, trace, spans_path, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        print("usage: child.py RESULT_JSON TRACE SPANS_CSV -- CLI_ARGS...", file=sys.stderr)
        return 2
    tracer = None
    if trace == "1":
        from spans import Tracer, aggregate

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    try:
        exit_code = kljn.cli.main(cli_args)
    finally:
        wall_s = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    result = {
        "setup_end": SETUP_END,
        "wall_s": wall_s,
        "exit_code": exit_code,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "kljn_file": kljn.cli.__file__,
        "artifact_bytes": _artifact_bytes(cli_args),
    }
    if tracer is not None:
        result["layers"] = aggregate(tracer.spans)
        tracer.write(spans_path)
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
