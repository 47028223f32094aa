"""One measured invocation of the screenqkd CLI in a fresh interpreter.

Usage: python3 perfbench/child.py {setup,run,trace,tracemalloc} [CLI ARGS...]

Imports ``screenqkd.cli`` from the checkout's ``src/``, times the import
and ``load_config``, then (except in ``setup`` mode) runs
``screenqkd.cli.main`` with its stdout sent to /dev/null. The last line
of standard output is one JSON object with the measurements.

- ``run``: wall time of ``cli.main`` and the process's peak RSS.
- ``trace``: as ``run``, with every layer traced (see tracer.py).
- ``tracemalloc``: the peak traced allocation of the last ``run_session``
  divided by its rounds; kept apart because tracemalloc slows the run.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODES = ("setup", "run", "trace", "tracemalloc")


def _import_cli():
    sys.path.insert(0, str(ROOT / "src"))
    import screenqkd.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"screenqkd imported from {cli.__file__}, not {ROOT / 'src'}")
    return cli


def _measure_tracemalloc(trials: int) -> list[float]:
    import tracemalloc

    from screenqkd import analysis

    per_round: list[float] = []
    run_session = analysis.run_session

    def measured(params, *args, trial: int = 0, **kwargs):
        # Only the last session is traced: the first pays one-off
        # allocations, and tracing all of them would multiply the run time.
        if trial != trials - 1:
            return run_session(params, *args, trial=trial, **kwargs)
        tracemalloc.start()
        try:
            transcript = run_session(params, *args, trial=trial, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        per_round.append(peak / params.rounds)
        return transcript

    analysis.run_session = measured
    return per_round


def main(argv: list[str]) -> int:
    mode, cli_argv = argv[0], argv[1:]
    if mode not in MODES:
        raise SystemExit(f"mode must be one of {MODES}, got {mode!r}")
    started = time.perf_counter()
    cli = _import_cli()
    imported = time.perf_counter()
    config = cli.load_config(cli.build_parser().parse_args(cli_argv))
    loaded = time.perf_counter()
    result: dict = {"import_s": imported - started, "load_config_s": loaded - imported}
    result["setup_s"] = result["import_s"] + result["load_config_s"]

    tracer = None
    per_round: list[float] = []
    if mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        cli.main = tracer.wrap(tracing.ROOT, cli.main)
    elif mode == "tracemalloc":
        per_round = _measure_tracemalloc(config.trials)

    if mode != "setup":
        with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
            begun = time.perf_counter()
            result["exit_code"] = cli.main(cli_argv)
            result["main_s"] = time.perf_counter() - begun
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["self_s"] = dict(tracer.self_s)
        result["total_s"] = dict(tracer.total_s)
        result["calls"] = dict(tracer.calls)
        result["counts"] = dict(tracer.counts)
    if per_round:
        result["transcript_bytes_per_round"] = per_round[0]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
