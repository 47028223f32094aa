"""The benchmark's contract with the package, checked at a small scale.

perfbench/tracer.py rebinds and wraps the functions through which each
layer of the simulator is called, and perfbench/child.py's tracemalloc
mode wraps `run_session` to measure its peak memory. perfbench/run.py
counts an invocation as failed when it crashes, writes a different report
when traced, or loses track of its own wall time. This test runs every
workload of BENCHMARK.json once untraced, once traced and once under
tracemalloc, in fresh interpreters, and applies those checks except the
span-coverage gate: at 2000 rounds per session fixed costs dominate the
traced time. It also checks that the three write the same audit files,
each with the SHA-256 its report names.
"""

import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
SCALE = 0.02  # 2000 rounds per session
SEED = 3


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
tracer = _load("tracer")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _child(mode: str, workload, outdir: Path) -> dict:
    argv = workload.cli_argv(SEED, str(outdir), scale=SCALE)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), mode, *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["exit_code"] == 0
    return result


def _audits(outdir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(outdir.glob("audit_*.npz"))}


@pytest.mark.parametrize("name", [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_run_keeps_the_benchmark_contract(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    _child("run", workload, tmp_path / "run")
    traced = _child("trace", workload, tmp_path / "trace")
    report = (tmp_path / "run" / "report.json").read_bytes()
    assert (tmp_path / "trace" / "report.json").read_bytes() == report
    assert workload.failures(json.loads(report)) == []
    audits = _audits(tmp_path / "run")
    named = {s["audit"]["file"]: s["audit"]["sha256"] for s in json.loads(report)["sessions"]}
    assert {name: hashlib.sha256(data).hexdigest() for name, data in audits.items()} == named
    assert _audits(tmp_path / "trace") == audits
    wall = traced["total_s"][tracer.ROOT]
    assert sum(traced["self_s"].values()) == pytest.approx(wall, rel=1e-6, abs=0)
    measured = _child("tracemalloc", workload, tmp_path / "tracemalloc")
    assert (tmp_path / "tracemalloc" / "report.json").read_bytes() == report
    assert _audits(tmp_path / "tracemalloc") == audits
    assert measured["transcript_bytes_per_round"] > 0
