"""Compare benchmark results of two commits, metric by metric.

Usage: python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the last output line of one benchmark run per line, for
one workload; line i of both files should come from the same seed. For
every metric this prints each side's median and quartiles, the change's
median relative to the base's, and how many paired runs the change won.
A gain is claimed only when the change wins at least 9 of 10 pairs and
the medians differ by more than the base's interquartile range; a
regression is a median worse than the base's by more than the metric's
bound in BENCHMARK.json.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def _load(path: str) -> list[dict]:
    with open(path) as handle:
        return [json.loads(line)["metrics"] for line in handle if line.strip()]


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(base: list[float], change: list[float], higher: bool, bound: float | None) -> str:
    sign = 1.0 if higher else -1.0
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    q1, median_base, q3 = _quartiles(base)
    median_change = statistics.median(change)
    if wins >= 0.9 * min(len(base), len(change)) and abs(median_change - median_base) > q3 - q1:
        return f"gain ({wins}/{len(change)} pairs won)"
    if bound is not None and sign * (median_change - median_base) < -bound * abs(median_base):
        return f"regression beyond bound {bound}"
    return f"no claim ({wins}/{len(change)} pairs won)"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    better = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, change = _load(argv[0]), _load(argv[1])
    for name in base[0]:
        b = [run[name]["value"] for run in base]
        c = [run[name]["value"] for run in change]
        meta = better.get(name, {})
        bq1, bmed, bq3 = _quartiles(b)
        cq1, cmed, cq3 = _quartiles(c)
        ratio = f"{cmed / bmed:.3f}x" if bmed else "n/a"
        print(f"{name:40s} base {bmed:.6g} [{bq1:.6g}, {bq3:.6g}]  "
              f"change {cmed:.6g} [{cq1:.6g}, {cq3:.6g}]  {ratio}  "
              + verdict(b, c, meta.get("better") == "higher", meta.get("bound")))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
