"""The repository benchmark: POCC end to end, and layer by layer.

One command runs a workload against the code as it stands, prints every
metric by name with its unit and sample count, checks that the outputs
are correct, and prints a JSON summary as its last line::

    python3 perfbench/run.py --workload live-read --seed 1 --seconds 30
    python3 perfbench/run.py --workload sim-geo --seed 1 --seconds 30 \
        --trace 1                       # per-layer numbers instead
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --self-check  # the gate must fail (exit 1)
    python3 perfbench/run.py --describe    # why each workload, predictions

Run it from the repository root; it needs nothing but the standard
library and ``src/``.  Workloads (see ``workloads.py``):

* ``live-read`` -- the live asyncio TCP backend, read-heavy;
* ``live-write-durable`` -- the same deployment, write-heavy, WAL with
  ``fsync: always`` and periodic snapshots;
* ``sim-geo`` -- the discrete-event simulator over a 3-DC WAN.

Each run is split into repetitions, each in a fresh interpreter
(``worker.py``) running one thread, with warmup kept out of its window;
every figure is a median over repetitions (latency percentiles are taken
within each repetition first).  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced repetitions and
reports per-layer metrics, including ``tracing.overhead`` (traced over
untraced throughput).  Every run also writes
``perfbench/.out/<workload>-seed<N>-trace<T>/result.json``: the figures,
the per-repetition values and the machine fingerprint (compare results
only within one fingerprint), and ``rep*/spans.bin`` for traced
repetitions.

Exit status: 0 when every correctness gate held; 1 when one failed (a
checker violation, a divergence after the sim drain, an unclean
shutdown, a transport error or quiesce timeout, an acknowledged PUT
missing from the recovered WAL, or a trace whose accounting does not
add up); 2 when the benchmark cannot run here at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / ".out"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from tracer import TIMED_LAYERS  # noqa: E402
from worker import COUNTERS, percentile  # noqa: E402

#: Repetitions of a live run (fewer for runs under 16 seconds): the
#: host's noise comes in bursts, and a median over many short windows
#: rides them out better than one long window.
LIVE_REPS = 8
#: Wall seconds one sim-geo repetition takes (2-vCPU Xeon host).
SIM_REP_WALL_S = 10.0
#: Set-up samples each run takes (extra set-up-only repetitions make up
#: the difference when the run has fewer full repetitions).
SETUP_SAMPLES = 5
#: A repetition that takes longer than this is killed and fails the run.
WORKER_TIMEOUT_S = 60.0

#: The tail percentile of the end-to-end latencies.  Higher ones are
#: not steady on a shared 2-vCPU host: on live-write-durable they fall
#: among the operations stalled behind snapshot writes and fsyncs that
#: block the event loop, so they follow the disk's weather.  Over runs
#: of the same code, p99 spread 16-32% and p95 25-30% (interquartile
#: range over median); p90 spread 15-23%, under the 25% bound.  The
#: trace keeps the stalls themselves (persistence.fsync_p99_ms,
#: gc.pause_ms_max).
TAIL = 90

#: name -> unit of every end-to-end metric (``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "ops/s",
    "get_p50_ms": "ms",
    "get_p90_ms": "ms",
    "put_p50_ms": "ms",
    "put_p90_ms": "ms",
    "ro_tx_p50_ms": "ms",
    "ro_tx_p90_ms": "ms",
    "visibility_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    """name -> unit of every per-layer metric (``--trace 1``)."""
    units = {}
    for layer in TIMED_LAYERS:
        units[f"{layer}.calls_per_op"] = "calls/op"
        units[f"{layer}.self_us_per_op"] = "us/op"
        units[f"{layer}.share"] = "ratio"
    for residual in ("runtime.loop", "sim.engine"):
        units[f"{residual}.self_us_per_op"] = "us/op"
        units[f"{residual}.share"] = "ratio"
    units.update(COUNTERS)
    units.update({
        "gc.collections_gen2": "count",
        "gc.pause_ms_max": "ms",
        "tracing.overhead": "ratio",
    })
    return units


# ----------------------------------------------------------------------
# Fingerprint: results are comparable only within one
# ----------------------------------------------------------------------
def _imports(module: str) -> bool:
    try:
        __import__(module)
    except ImportError:
        return False
    return True


def fingerprint() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": (sorted(os.sched_getaffinity(0))
                         if hasattr(os, "sched_getaffinity") else []),
        "cpu_model": model,
        "python": platform.python_version(),
        "orjson": _imports("orjson"),
        "msgpack": _imports("msgpack"),
        "uvloop": _imports("uvloop"),
    }


# ----------------------------------------------------------------------
# Repetitions
# ----------------------------------------------------------------------
def plan(workload: str, seconds: int, trace: bool) -> tuple[int, float]:
    """(full repetitions, window per repetition) for a ``seconds`` run.

    Live windows are wall seconds; the sim window is simulated seconds,
    fixed at :data:`workloads.SIM_WINDOW_S` for runs of a repetition's
    wall time or more and scaled down for shorter (test) runs.
    """
    if workload in workloads.SIM:
        reps = max(1, round(seconds / SIM_REP_WALL_S))
        window = workloads.SIM_WINDOW_S * min(1.0, seconds / SIM_REP_WALL_S)
    else:
        reps = min(LIVE_REPS, max(1, seconds // 2))
        window = seconds / reps
    if trace:
        reps = max(2, reps)  # at least one untraced and one traced
        if workload in workloads.LIVE:
            window = seconds / reps
    return reps, window


def run_worker(workload: str, seed: int, window: float, out: Path,
               *flags: str) -> dict:
    """One repetition in a fresh interpreter; its parsed result."""
    out.mkdir(parents=True, exist_ok=True)
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", workload, "--seed", str(seed),
               "--window", repr(window), "--out", str(out), *flags]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env,
                              capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"problems": [f"repetition timed out after "
                             f"{WORKER_TIMEOUT_S:.0f}s"]}
    finally:
        shutil.rmtree(out / "data", ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-5:]
        return {"problems": [f"repetition exited {proc.returncode}: "
                             + " | ".join(tail)]}
    return json.loads(lines[-1])


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def aggregate(reps: list[dict], setups: list[float],
              trace: bool) -> tuple[dict[str, float], dict[str, int]]:
    """Metric values and sample counts over a run's repetitions.

    Every figure is a median over repetitions (percentiles are taken
    within each repetition first), so one repetition caught in a burst
    of host noise cannot move it; the count is the samples behind it.
    """
    plain = [r for r in reps if "layers" not in r]
    values: dict[str, float] = {}
    counts: dict[str, int] = {}
    if not trace:
        values["setup_s"] = _median(setups)
        counts["setup_s"] = len(setups)
        values["throughput_ops_s"] = _median(
            [r["throughput_ops_s"] for r in plain])
        counts["throughput_ops_s"] = len(plain)
        for kind in ("get", "put", "ro_tx"):
            samples = [r["latency_ms"].get(kind, []) for r in plain]
            for q in (50, TAIL):
                values[f"{kind}_p{q}_ms"] = _median(
                    [percentile(s, q) for s in samples if s])
                counts[f"{kind}_p{q}_ms"] = sum(map(len, samples))
        samples = [r["visibility_ms"] for r in plain]
        values[f"visibility_p{TAIL}_ms"] = _median(
            [percentile(s, TAIL) for s in samples if s])
        counts[f"visibility_p{TAIL}_ms"] = sum(map(len, samples))
        values["peak_rss_mb"] = _median([r["peak_rss_mb"] for r in plain])
        counts["peak_rss_mb"] = len(plain)
        return values, counts
    traced = [r for r in reps if "layers" in r]
    for name in per_layer_units():
        if name == "tracing.overhead":
            continue
        source = traced if name in traced[0]["layers"] else plain
        field = "layers" if source is traced else "counters"
        samples = [r[field][name] for r in source if name in r[field]]
        values[name] = _median(samples)
        counts[name] = len(samples)
    values["tracing.overhead"] = (
        _median([r["throughput_ops_s"] for r in traced])
        / _median([r["throughput_ops_s"] for r in plain]))
    counts["tracing.overhead"] = len(reps)
    return values, counts


def run_workload(workload: str, seed: int, seconds: int, trace: bool,
                 self_check: bool = False) -> dict:
    """Every repetition of one run; the aggregated result."""
    reps_n, window = plan(workload, seconds, trace)
    label = "self-check" if self_check else f"trace{int(trace)}"
    run_dir = OUT / f"{workload}-seed{seed}-{label}"
    shutil.rmtree(run_dir, ignore_errors=True)
    reps = []
    for i in range(reps_n):
        flags = ["--trace", "1"] if trace and i % 2 == 1 else []
        if self_check:
            flags.append("--self-check")
        reps.append(run_worker(workload, seed * 1000 + i, window,
                               run_dir / f"rep{i}", *flags))
    setups = [r["setup_s"] for r in reps if "setup_s" in r]
    extra_setups = 0 if trace or self_check else SETUP_SAMPLES - len(setups)
    for i in range(max(0, extra_setups)):
        extra = run_worker(workload, seed * 1000 + reps_n + i, window,
                           run_dir / f"setup{i}", "--setup-only")
        reps.append(extra)
        setups.append(extra.get("setup_s", 0.0))
    problems = [p for r in reps for p in r["problems"]]
    full = [r for r in reps if "latency_ms" in r]
    values, counts = ({}, {}) if problems else aggregate(
        full, setups, trace)
    attempted = sum(r.get("attempted", 0) for r in full)
    failed = sum(r.get("failed", 0) for r in full)
    # The paper's trade-off, printed beside every run: blocking per cause
    # (from the program's metrics registry) next to visibility.
    tradeoff = {
        name: _median([r["counters"][name] for r in full
                       if "layers" not in r])
        for name in full[0]["counters"] if name.startswith("protocols.")
    } if full and not problems else {}
    # Traced repetitions: CPU the spans left to the residual layer, and
    # the worst disagreement between self times and outermost spans.
    traced = [r for r in full if "layers" in r]
    accounting = {
        "residual": traced[0]["residual"],
        "residual_share": _median([r["layers"][f"{r['residual']}.share"]
                                   for r in traced]),
        "self_vs_root": max(r["layers"]["tracing.self_vs_root"]
                            for r in traced),
        "cpu_s": _median([r["layers"]["tracing.cpu_s"] for r in traced]),
    } if traced else {}
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "self_check": self_check,
        "repetitions": len(full),
        "window": window,
        "fingerprint": dict(
            fingerprint(),
            serializer=next((r["serializer"] for r in full), "unknown"),
            event_loop=next((r["event_loop"] for r in full), "unknown")),
        "correct": not problems and bool(full),
        "problems": problems,
        "attempted": max(attempted, 1),
        "failed": failed,
        "failed_ops_share": failed / max(attempted, 1),
        "tradeoff": tradeoff,
        "accounting": accounting,
        "values": values,
        "counts": counts,
        "per_repetition": [
            {"traced": "layers" in r,
             **{k: r[k] for k in ("setup_s", "throughput_ops_s",
                                  "peak_rss_mb")}}
            for r in full],
    }
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "result.json").write_text(json.dumps(result, indent=1))
    return result


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def print_result(result: dict, units: dict[str, str]) -> None:
    fp = result["fingerprint"]
    what = ("the unsafe strawman (self-check)" if result["self_check"]
            else "pocc")
    print(f"== {result['workload']} [{what}] seed "
          f"{result['seed']}, {result['repetitions']} repetitions, "
          f"{'traced' if result['trace'] else 'untraced'}")
    print("   fingerprint: " + json.dumps(fp, sort_keys=True))
    for name, unit in units.items():
        if name in result["values"]:
            print(f"   {name:<42} {result['values'][name]:>14.6g} "
                  f"{unit:<13} n={result['counts'][name]}")
    print(f"   {'failed_ops_share':<42} {result['failed_ops_share']:>14.6g} "
          f"{'ratio':<13} n={result['attempted']}")
    tradeoff = result["tradeoff"]
    if tradeoff:
        print("   blocking (probability, mean ms): " + ", ".join(
            f"{cause} {tradeoff[f'protocols.block_prob.{cause}']:.4f} / "
            f"{tradeoff[f'protocols.block_ms_mean.{cause}']:.3f}"
            for cause in ("get_vv", "put_deps", "slice_vv")))
    accounting = result["accounting"]
    if accounting:
        print(f"   trace accounting: layer self times + "
              f"{accounting['residual']} residual = process CPU "
              f"({accounting['cpu_s']:.2f}s per traced repetition); "
              f"residual {accounting['residual_share']:.1%}, self-time "
              f"error {accounting['self_vs_root']:.3%}")
    verdict = "correct" if result["correct"] else "INCORRECT"
    print(f"   verdict: {verdict}")
    for problem in result["problems"][:20]:
        print(f"     problem: {problem}")


def describe() -> None:
    for name in workloads.NAMES:
        info = workloads.DESCRIPTIONS[name]
        print(f"{name}\n  why   : {info['why']}\n  shape : {info['shape']}")
        print(f"  heavy : {', '.join(info['heavy'])}")
        print(f"  light : {', '.join(info['light'])}")
    print("predictions:")
    for line in workloads.PREDICTIONS:
        print(f"  - {line}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="POCC benchmark: end-to-end and per-layer metrics.")
    parser.add_argument("--workload", choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30,
                        help="measured seconds per workload (default 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run the sim-geo deployment under the unsafe "
                             "'eventual' strawman: the correctness gate "
                             "must fail it (exit 1)")
    parser.add_argument("--describe", action="store_true",
                        help="print why each workload exists and the "
                             "layer predictions, then exit")
    args = parser.parse_args(argv)
    if args.describe:
        describe()
        return 0
    if args.self_check:
        args.workload = "sim-geo"
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    units = per_layer_units() if args.trace else END_TO_END
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    started = time.perf_counter()
    results = [run_workload(name, args.seed, args.seconds, bool(args.trace),
                            args.self_check) for name in names]
    for result in results:
        print_result(result, units)
    print(f"   ({time.perf_counter() - started:.1f}s wall)")

    prefix = len(results) > 1
    metrics = {}
    for result in results:
        for name, value in result["values"].items():
            key = f"{result['workload']}/{name}" if prefix else name
            metrics[key] = {"value": float(value), "unit": units[name]}
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
