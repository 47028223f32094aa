"""Benchmark of the screenqkd simulator, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload honest_single --seed 1 --seconds 15 --trace 0

Each invocation of the program is ``screenqkd.cli.main(argv)`` in a fresh
interpreter (child.py), run one after another from this process. Every
invocation's exit code and ``report.json`` are checked (workloads.py), and
every ``report.json`` of a run must be byte-identical to its first.

``--trace 0`` measures the end-to-end metrics: invocations repeat until
``--seconds`` have passed, at least twice. ``--trace 1`` measures the
per-layer metrics: an untraced and a traced invocation, one tracemalloc
invocation, then more untraced and traced pairs until ``--seconds`` have
passed in all.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

import tracer as tracing
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parents[1]
CHILD = Path(__file__).resolve().with_name("child.py")
OUT = ROOT / ".bench_build" / "perfbench"
SETUP_SAMPLES = 5
MIN_INVOCATIONS = 2
# A run must end within 180 s; leave room for start-up and reporting.
TIME_LIMIT_S = 165.0
MIN_COVERAGE = 0.9

END_TO_END = {"rounds_per_s": "rounds/s", "setup_s": "s", "peak_rss_mb": "MB"}

LEGS = (1, 2, 3)
# Per-layer metric -> (unit, field of the traced child's result, span or counter name).
TRACED = {
    **{
        f"protocol.{step}.self_s": ("s", "self_s", f"protocol.{step}")
        for step in ("alice_prepare", "bob_transform", "alice_encode", "bob_decode",
                     "run_session")
    },
    "protocol.sift_and_verify.s": ("s", "total_s", "protocol.sift_and_verify"),
    "protocol.key_bits": ("count", "counts", "protocol.key_bits"),
    "protocol.ad_checked": ("count", "counts", "protocol.ad_checked"),
    **{f"channel.transmit.self_s.leg{n}": ("s", "self_s", f"channel.transmit.leg{n}")
       for n in LEGS},
    **{f"channel.{kind}.leg{n}": ("count", "counts", f"channel.{kind}.leg{n}")
       for kind in ("photons_in", "photons_out") for n in LEGS},
    **{f"adversary.intercept.s.leg{n}": ("s", "total_s", f"adversary.intercept.leg{n}")
       for n in LEGS},
    "adversary.produce_guesses.s": ("s", "total_s", "adversary.produce_guesses"),
    "adversary.guesses": ("count", "counts", "adversary.guesses"),
    **{
        f"photonics.{op}.{stat}": (unit, field, f"photonics.{op}")
        for op in ("measure", "rotated", "beam_split", "make_pulse")
        for stat, unit, field in (("calls", "count", "calls"), ("self_s", "s", "self_s"))
    },
    **{f"analysis.{step}.s": ("s", "total_s", f"analysis.{step}")
       for step in ("score_trial", "session_summary", "to_dict", "emit_report")},
    "analysis.run_trial.self_s": ("s", "self_s", "analysis.run_trial"),
}
PER_LAYER = {
    **{name: unit for name, (unit, _, _) in TRACED.items()},
    "protocol.transcript_bytes_per_round": "B/round",
    "analysis.report_bytes": "B",
    "cli.import.s": "s",
    "cli.load_config.s": "s",
    "trace_overhead": "ratio",
    "trace.coverage": "ratio",
}


class ChildFailed(Exception):
    pass


def assess(
    workload: Workload, exit_code: int, report: Optional[bytes], first: Optional[bytes]
) -> list[str]:
    """Reasons one invocation failed; empty when it passed every check."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    if report is None:
        return ["no report.json written"]
    failures = workload.failures(json.loads(report))
    if first is not None and report != first:
        failures.append("report.json differs from the run's first")
    return failures


def trace_failures(result: dict) -> list[str]:
    """The traced run must account for its wall time exactly once."""
    wall = result["total_s"][tracing.ROOT]
    unaccounted = abs(sum(result["self_s"].values()) - wall)
    failures = []
    if unaccounted > 1e-6 * wall:
        failures.append(f"self times miss the traced wall time by {unaccounted:.3g} s")
    if coverage(result) < MIN_COVERAGE:
        failures.append(f"named spans cover {coverage(result):.3f} of the traced wall time")
    return failures


def coverage(result: dict) -> float:
    """Share of the root span's time spent inside the named spans below it."""
    return 1.0 - result["self_s"][tracing.ROOT] / result["total_s"][tracing.ROOT]


class Run:
    """One benchmark run: the child processes it starts and their tallies."""

    def __init__(self, workload: Workload, seed: int, scale: float) -> None:
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.setups: list[dict] = []
        self.first_report: Optional[bytes] = None
        self.last_duration = 0.0

    def child(self, mode: str, outdir: Path) -> dict:
        argv = self.workload.cli_argv(self.seed, str(outdir), self.scale)
        started = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), mode, *argv],
                cwd=ROOT, capture_output=True, text=True,
                timeout=max(self.deadline - started, 1.0),
            )
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"{mode} child killed at the time limit") from None
        self.last_duration = time.monotonic() - started
        if proc.returncode != 0:
            raise ChildFailed(f"{mode} child exited {proc.returncode}: {proc.stderr.strip()}")
        result = json.loads(proc.stdout.splitlines()[-1])
        self.setups.append(result)
        return result

    def measure_setup(self) -> None:
        """One warm-up child, then SETUP_SAMPLES timed ones."""
        for _ in range(SETUP_SAMPLES + 1):
            self.child("setup", OUT / self.workload.name / "setup")
        del self.setups[0]

    def has_time(self) -> bool:
        return time.monotonic() + 1.5 * self.last_duration < self.deadline

    def invoke(self, mode: str) -> Optional[dict]:
        """Run the workload once in `mode`; None when the invocation failed."""
        outdir = OUT / self.workload.name / mode
        report_path = outdir / "report.json"
        report_path.unlink(missing_ok=True)
        self.attempted += 1
        try:
            result = self.child(mode, outdir)
        except ChildFailed as exc:
            return self._fail([str(exc)], mode)
        report = report_path.read_bytes() if report_path.exists() else None
        failures = assess(self.workload, result["exit_code"], report, self.first_report)
        if self.first_report is None:
            self.first_report = report
        if mode == "trace":
            failures += trace_failures(result)
        if failures:
            return self._fail(failures, mode)
        result["report_bytes"] = len(report)
        return result

    def _fail(self, failures: list[str], mode: str) -> None:
        self.failed += 1
        print(f"failed {mode} invocation: {'; '.join(failures)}", file=sys.stderr)
        return None

    def repeat(self, seconds: float, modes: tuple[str, ...]) -> list[list[dict]]:
        """Run `modes` in turn until `seconds` pass and MIN_INVOCATIONS were made."""
        started = time.monotonic()
        results: list[list[dict]] = [[] for _ in modes]
        while self.attempted < MIN_INVOCATIONS or time.monotonic() - started < seconds:
            for mode, out in zip(modes, results):
                if self.attempted and not self.has_time():
                    return results
                result = self.invoke(mode)
                if result is not None:
                    out.append(result)
        return results


def end_to_end(run: Run, seconds: float) -> dict[str, list[float]]:
    (results,) = run.repeat(seconds, ("run",))
    rounds = run.workload.total_rounds(run.scale)
    return {
        "rounds_per_s": [rounds / r["main_s"] for r in results],
        "setup_s": [r["setup_s"] for r in run.setups],
        "peak_rss_mb": [r["peak_rss_mb"] for r in results],
    }


def per_layer(run: Run, seconds: float) -> dict[str, list[float]]:
    started = time.monotonic()
    # One pair first, so a slow tracemalloc invocation cannot crowd it out.
    untraced, traced = run.repeat(0, ("run", "trace"))
    memory = run.invoke("tracemalloc")
    more = run.repeat(seconds - (time.monotonic() - started), ("run", "trace"))
    untraced += more[0]
    traced += more[1]
    samples: dict[str, list[float]] = {
        name: [r[field].get(key, 0) for r in traced]
        for name, (_, field, key) in TRACED.items()
    }
    if untraced and traced:
        samples["trace_overhead"] = [
            statistics.median(r["main_s"] for r in traced)
            / statistics.median(r["main_s"] for r in untraced)
        ]
    samples["trace.coverage"] = [coverage(r) for r in traced]
    samples["analysis.report_bytes"] = [r["report_bytes"] for r in traced]
    if memory is not None:
        samples["protocol.transcript_bytes_per_round"] = [memory["transcript_bytes_per_round"]]
    samples["cli.import.s"] = [r["import_s"] for r in run.setups]
    samples["cli.load_config.s"] = [r["load_config_s"] for r in run.setups]
    return samples


def _summary_line(name: str, unit: str, values: list[float]) -> str:
    line = f"{name:40s} {statistics.median(values):.6g} {unit}"
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
        line += f"  (q1 {q1:.6g}, q3 {q3:.6g})"
    return line + f"  n={len(values)}"


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="multiply every session's rounds (smoke runs; not comparable)",
    )
    args = parser.parse_args(argv)
    if not (args.scale > 0 and math.isfinite(args.scale)):
        parser.error("--scale must be a positive number")
    if not (ROOT / "src" / "screenqkd" / "cli.py").is_file():
        print(f"error: no screenqkd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run = Run(WORKLOADS[args.workload], args.seed, args.scale)
    try:
        run.measure_setup()
    except ChildFailed as exc:
        print(f"error: cannot run screenqkd: {exc}", file=sys.stderr)
        return 1
    units = PER_LAYER if args.trace else END_TO_END
    samples = (per_layer if args.trace else end_to_end)(run, args.seconds)
    missing = [name for name in units if not samples.get(name)]
    if missing:
        print(f"error: no successful invocation measured {missing}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, unit in units.items():
        print(_summary_line(name, unit, samples[name]))
    print(f"{'fail_rate':40s} {run.failed}/{run.attempted} invocations")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": statistics.median(samples[name]), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
