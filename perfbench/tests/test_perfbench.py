"""Tests of the benchmark itself; run with: python3 -m pytest perfbench/tests"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_self_times_add_up_on_a_nested_span_tree():
    now = [0.0]
    tracer = tracing.Tracer(clock=lambda: now[0])

    def at(t):
        now[0] = t

    # root [0, 10] holds a [1, 4] > b [2, 3], a [5, 6], c [7, 9] > b [7.5, 8]
    at(0); root = tracer.enter()
    at(1); a = tracer.enter()
    at(2); b = tracer.enter()
    at(3); tracer.exit("b", b)
    at(4); tracer.exit("a", a)
    at(5); a = tracer.enter()
    at(6); tracer.exit("a", a)
    at(7); c = tracer.enter()
    at(7.5); b = tracer.enter()
    at(8); tracer.exit("b", b)
    at(9); tracer.exit("c", c)
    at(10); tracer.exit(tracing.ROOT, root)

    assert dict(tracer.self_s) == {"b": 1.5, "a": 3.0, "c": 1.5, tracing.ROOT: 4.0}
    assert dict(tracer.total_s) == {"b": 1.5, "a": 4.0, "c": 2.0, tracing.ROOT: 10.0}
    assert tracer.calls == {"a": 2, "b": 2, "c": 1, tracing.ROOT: 1}
    assert sum(tracer.self_s.values()) == tracer.total_s[tracing.ROOT]

    result = {"self_s": dict(tracer.self_s), "total_s": dict(tracer.total_s)}
    assert bench.coverage(result) == pytest.approx(0.6)
    assert bench.trace_failures(result) == [
        "named spans cover 0.600 of the traced wall time"
    ]
    result["self_s"]["a"] += 0.5
    assert "self times miss" in bench.trace_failures(result)[0]


def test_wrapped_call_records_a_span_and_returns_its_value():
    tracer = tracing.Tracer()
    assert tracer.wrap("f", lambda x, y=1: x + y)(2, y=3) == 5
    assert tracer.calls == {"f": 1}
    with pytest.raises(ZeroDivisionError):
        tracer.wrap("g", lambda: 1 / 0)()
    assert tracer.calls["g"] == 1 and not tracer._children


def _honest_report(tmp_path) -> bytes:
    from screenqkd.cli import main

    workload = WORKLOADS["honest_single"]
    outdir = tmp_path / "genuine"
    assert main(workload.cli_argv(5, str(outdir), scale=0.02)) == 0
    return (outdir / "report.json").read_bytes()


def test_doctored_report_counts_as_a_failed_run(tmp_path, monkeypatch):
    genuine = _honest_report(tmp_path)
    workload = WORKLOADS["honest_single"]
    assert bench.assess(workload, 0, genuine, genuine) == []

    doc = json.loads(genuine)
    doc["totals"]["qber_errors"] = 1
    doctored = json.dumps(doc).encode()
    assert bench.assess(workload, 0, doctored, None) == ["honest QBER errors: 1"]
    assert bench.assess(workload, 0, genuine + b" ", genuine) == [
        "report.json differs from the run's first"
    ]
    assert bench.assess(workload, 1, genuine, None) == ["exit code 1"]

    def child(self, mode, outdir):
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "report.json").write_bytes(doctored)
        return {"exit_code": 0}

    monkeypatch.setattr(bench, "OUT", tmp_path / "out")
    monkeypatch.setattr(bench.Run, "child", child)
    run = bench.Run(workload, seed=5, scale=0.02)
    assert run.invoke("run") is None
    assert (run.attempted, run.failed) == (1, 1)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_of_every_workload(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--scale", "0.05"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    units = bench.PER_LAYER if trace else bench.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    if trace:
        assert result["metrics"]["trace.coverage"]["value"] >= bench.MIN_COVERAGE


def test_exits_nonzero_without_a_result_when_sources_are_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "honest_single", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
