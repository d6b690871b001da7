"""The benchmark's own tests (not part of the repository test suite).

Runs each workload at a tiny length, traced and untraced, and checks
that every metric ``BENCHMARK.json`` declares is emitted with its unit;
that the correctness gate fails the unsafe strawman; that the benchmark
refuses to run without the program's sources; and the tracer's span
arithmetic.  About a minute on a 2-vCPU host::

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout


def test_declared_workloads_are_the_benchmarks():
    assert SPEC["workloads"] == [
        {"name": name, "why": workloads.DESCRIPTIONS[name]["why"]}
        for name in workloads.NAMES]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    code, out = bench("--workload", workload, "--seed", "3",
                      "--seconds", "1", "--trace", str(trace))
    assert code == 0, out
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    for metric in declared:  # the human table: name, unit, sample count
        assert f" {metric['name']} " in out


def test_gate_fails_the_unsafe_strawman():
    code, out = bench("--self-check", "--seed", "3", "--seconds", "1")
    assert code == 1
    assert "problem: checker:" in out


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    code, out = bench("--workload", "live-read", "--seconds", "1",
                      cwd=tmp_path)
    assert code != 0
    assert '"correct"' not in out


def test_self_time_subtracts_nested_spans():
    tracer = tracing.Tracer()

    def spin(seconds: float) -> None:
        end = time.thread_time() + seconds
        while time.thread_time() < end:
            pass

    inner = tracer.wrap("storage", lambda: spin(0.02))

    def outer_body():
        spin(0.02)
        inner()
        inner()

    outer = tracer.wrap("protocols.server", outer_body)
    tracer.start()
    outer()
    tracer.stop()
    layers = tracer.summary(ops=1, residual="runtime.loop")
    assert layers["storage.calls_per_op"] == 2
    assert layers["protocols.server.calls_per_op"] == 1
    assert layers["storage.self_us_per_op"] >= 40_000 * 0.9
    assert 20_000 * 0.9 <= layers["protocols.server.self_us_per_op"] < 30_000
    assert layers["tracing.self_vs_root"] == 0.0
    assert layers["runtime.loop.share"] > -0.01
