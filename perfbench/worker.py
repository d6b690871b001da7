"""One repetition of one benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per repetition (a second run inside
the same interpreter reads about 30% faster, so repetitions never share
one).  It builds the workload's cluster, runs warmup and the measured
window, checks the outputs, and prints one JSON object as its last line
of standard output: raw latency and visibility samples, counters, the
per-layer trace when ``--trace 1``, and every problem the correctness
gates found.

Usage (normally only through ``run.py``)::

    PYTHONPATH=src python3 perfbench/worker.py --workload live-read \
        --seed 7 --window 4 --out perfbench/.out/run-1 [--trace 1]
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import resource
import sys
import time
from pathlib import Path

import tracer as tracing
import workloads

#: Block causes the paper's trade-off is read from.
BLOCK_CAUSES = ("get_vv", "put_deps", "slice_vv")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class Probe:
    """Benchmark-side observation of a run, through class-level hooks.

    Records raw driver latencies and visibility lags (the program keeps
    only bucketed histograms), the instant the first driver starts
    issuing operations (the end of set-up; its seeded random stagger is
    load, not set-up), and opens/closes the measurement window when the
    program arms/disarms its own :class:`MetricsRegistry`.
    """

    def __init__(self) -> None:
        self.window_open = False
        self.drivers_started: float | None = None
        self.completed = 0
        self.latency_ms: dict[str, list[float]] = {}
        self.visibility_ms: list[float] = []
        self.fsync_ms: list[float] = []
        self.on_arm = []
        self.on_disarm = []

    def install(self) -> None:
        from repro.metrics.collectors import MetricsRegistry
        from repro.workload.driver import ClosedLoopClient, DriverBase

        probe = self
        record_latency = DriverBase._record_latency
        record_visibility = MetricsRegistry.record_visibility_lag
        arm, disarm = MetricsRegistry.arm, MetricsRegistry.disarm
        start_driver = ClosedLoopClient.start

        def _record_latency(driver, kind, seconds):
            probe.completed += 1
            if probe.window_open:
                probe.latency_ms.setdefault(kind, []).append(seconds * 1e3)
            record_latency(driver, kind, seconds)

        def record_visibility_lag(metrics, lag_s):
            if metrics.enabled:
                probe.visibility_ms.append(max(lag_s, 0.0) * 1e3)
            record_visibility(metrics, lag_s)

        def _arm(metrics, now_s):
            arm(metrics, now_s)
            probe.window_open = True
            for hook in probe.on_arm:
                hook()

        def _disarm(metrics, now_s):
            for hook in probe.on_disarm:
                hook()
            probe.window_open = False
            disarm(metrics, now_s)

        def start(driver, *args, **kwargs):
            if probe.drivers_started is None:
                probe.drivers_started = time.perf_counter()
            start_driver(driver, *args, **kwargs)

        DriverBase._record_latency = _record_latency
        MetricsRegistry.record_visibility_lag = record_visibility_lag
        MetricsRegistry.arm = _arm
        MetricsRegistry.disarm = _disarm
        ClosedLoopClient.start = start

    def record_fsync(self, seconds: float) -> None:
        if self.window_open:
            self.fsync_ms.append(seconds * 1e3)


#: name -> unit of every per-layer counter a repetition reports.  A
#: workload that does not run a layer reports its counters as 0.
COUNTERS = {
    "runtime.transport.frames_per_op": "frames/op",
    "runtime.transport.bytes_per_op": "B/op",
    "runtime.transport.frames_per_write": "frames/write",
    "persistence.records_per_sync": "records/sync",
    "persistence.fsync_p50_ms": "ms",
    "persistence.fsync_p99_ms": "ms",
    "persistence.bytes_per_put": "B/put",
    "persistence.snapshots": "count",
    **{f"protocols.{kind}.{cause}": unit
       for cause in BLOCK_CAUSES
       for kind, unit in (("block_prob", "ratio"), ("block_ms_mean", "ms"))},
    "sim.visibility_p99_ms": "ms",
    "sim.response_ms_mean": "ms",
    "sim.engine.events_per_op": "events/op",
    "sim.engine.events_per_s": "events/s",
    "sim.network.msgs_per_op": "msgs/op",
    "sim.network.bytes_per_op": "B/op",
}


def counters(measured: dict[str, float], metrics) -> dict[str, float]:
    """Every counter: ``measured`` ones, blocking per cause (the paper's
    trade-off, read from the program's own metrics registry), and 0 for
    layers this workload does not run."""
    out = dict.fromkeys(COUNTERS, 0.0)
    for cause in BLOCK_CAUSES:
        stats = metrics.blocking[cause]
        out[f"protocols.block_prob.{cause}"] = stats.probability
        out[f"protocols.block_ms_mean.{cause}"] = (
            stats.mean_block_time_s * 1e3)
    out.update(measured)
    return out


# ----------------------------------------------------------------------
# Live workloads
# ----------------------------------------------------------------------
class LiveWindow:
    """Counter snapshots of one live cluster at arm and disarm."""

    def __init__(self, cluster, probe: Probe):
        self.cluster = cluster
        self.probe = probe
        self.marks: list[dict[str, float]] = []

    def mark(self) -> None:
        stats = self.cluster.hub.stats
        wals = [d.wal for d in self.cluster.durability.values()
                if d.wal is not None]
        self.marks.append({
            "frames": stats.messages_sent,
            "bytes": stats.bytes_sent,
            "writes": stats.batches_sent,
            "records": sum(w.stats.records_appended for w in wals),
            "wal_bytes": sum(w.stats.bytes_appended for w in wals),
            "syncs": sum(w.stats.syncs for w in wals),
            "snapshots": sum(d.snapshots_written
                             for d in self.cluster.durability.values()),
        })
        if len(self.marks) == 1:
            for wal in wals:
                wal.sync_timing = self.probe.record_fsync

    def delta(self, key: str) -> float:
        return self.marks[1][key] - self.marks[0][key]


def acked_write_losses(cluster, data_dir: Path) -> tuple[int, list[str]]:
    """Acknowledged PUTs (from the checker's history) missing from what
    ``recover_directory`` reads back from the origin partition's
    directory.  A write counts as present when the recovered chain of
    its key holds it or anything later in the last-writer-wins order
    (snapshots and garbage collection drop superseded versions)."""
    from repro.common.types import version_order_key
    from repro.persistence.manager import partition_dirname, recover_directory

    best: dict[tuple[int, int], dict] = {}
    for dc in range(cluster.topology.num_dcs):
        for partition in range(cluster.topology.num_partitions):
            directory = data_dir / partition_dirname(
                cluster.topology.server(dc, partition))
            state = recover_directory(directory, truncate=False,
                                      delete_covered=False)
            newest = best[(dc, partition)] = {}
            for version in state.versions:
                order = version.order_key
                if order > newest.get(version.key, (-1, 0)):
                    newest[version.key] = order
    acked = 0
    lost = []
    for event in cluster.checker.history.writes():
        key, sr, ut = event.version
        acked += 1
        newest = best[(sr, cluster.topology.partition_of(key))].get(key)
        if newest is None or newest < version_order_key(ut, sr):
            lost.append(f"acked write {event.version} not recovered "
                        f"(newest on disk: {newest})")
    return acked, lost


def live_problems(report) -> list[str]:
    """What the live gate rejects: checker violations, transport errors
    (a quiesce timeout lands there too) and an unclean shutdown."""
    problems = [f"checker: {v}" for v in report.violations]
    problems += [f"transport: {e}" for e in report.errors]
    if not report.clean_shutdown:
        problems.append("shutdown was not clean")
    return problems


def live_config(args, **overrides):
    from repro.runtime.loops import install_event_loop

    config = workloads.experiment_config(
        args.workload, args.seed, args.window,
        data_dir=Path(args.out) / "data")
    config = dataclasses.replace(config, **overrides)
    install_event_loop(config.cluster.transport.event_loop)
    return config


def run_live(args, probe: Probe, tracer: tracing.Tracer | None) -> dict:
    from repro.common.types import OpType
    from repro.runtime.cluster import LiveCluster

    config = live_config(args)
    started = time.perf_counter()
    cluster = LiveCluster(config, base_port=0)
    window = LiveWindow(cluster, probe)
    probe.on_arm.append(window.mark)
    probe.on_disarm.append(window.mark)
    if tracer is not None:
        probe.on_arm.append(tracer.start)
        probe.on_disarm.insert(0, tracer.stop)
    report = asyncio.run(cluster.run())

    problems = live_problems(report)
    if report.total_ops <= 0:
        problems.append("no operation completed in the window")
    if config.persistence.enabled:
        acked, lost = acked_write_losses(
            cluster, Path(config.persistence.data_dir))
        if lost or not acked:
            problems.append(f"{len(lost)} of {acked} acknowledged PUTs "
                            f"missing from the recovered WAL")
        problems += lost[:5]
    metrics = cluster.metrics
    if len(probe.visibility_ms) != metrics.visibility_lag.count:
        problems.append("visibility samples disagree with the registry")
    issued = sum(d.ops_issued for d in cluster.drivers)
    ops = report.total_ops
    syncs = window.delta("syncs")
    measured = {
        "runtime.transport.frames_per_op": window.delta("frames") / ops,
        "runtime.transport.bytes_per_op": window.delta("bytes") / ops,
        "runtime.transport.frames_per_write": (
            window.delta("frames") / max(window.delta("writes"), 1)),
    }
    if config.persistence.enabled:
        measured.update({
            "persistence.records_per_sync": (
                window.delta("records") / syncs if syncs else 0.0),
            "persistence.fsync_p50_ms": percentile(probe.fsync_ms, 50),
            "persistence.fsync_p99_ms": percentile(probe.fsync_ms, 99),
            "persistence.bytes_per_put": (
                window.delta("wal_bytes")
                / max(metrics.ops[OpType.PUT].completed, 1)),
            "persistence.snapshots": window.delta("snapshots"),
        })
    return {
        "setup_s": probe.drivers_started - started,
        "throughput_ops_s": report.throughput_ops_s,
        "ops": ops,
        "attempted": issued,
        "failed": issued - probe.completed,
        "counters": counters(measured, metrics),
        "problems": problems,
        "event_loop": report.event_loop,
        "residual": "runtime.loop",
    }


# ----------------------------------------------------------------------
# The simulator workload
# ----------------------------------------------------------------------
def run_sim(args, probe: Probe, tracer: tracing.Tracer | None) -> dict:
    from repro.harness.builders import build_cluster
    from repro.harness.experiment import run_experiment

    config = workloads.experiment_config(args.workload, args.seed,
                                         args.window,
                                         self_check=args.self_check)
    started = time.perf_counter()
    built = build_cluster(config)
    if tracer is not None:
        tracer.start()
    began = time.perf_counter()
    result = run_experiment(config, built=built)
    wall = time.perf_counter() - began
    if tracer is not None:
        tracer.stop()
    problems = []
    if result.verification["violations"]:
        problems.append(f"checker: {result.verification['violations']} "
                        f"causal violations")
    if result.divergences:
        problems.append(f"convergence: {result.divergences} keys diverged "
                        f"after the drain")
    if result.total_ops <= 0:
        problems.append("no operation completed in the window")
    metrics = built.metrics
    if len(probe.visibility_ms) != metrics.visibility_lag.count:
        problems.append("visibility samples disagree with the registry")
    issued = sum(d.ops_issued for d in built.drivers)
    measured = {
        "sim.visibility_p99_ms": percentile(probe.visibility_ms, 99),
        "sim.response_ms_mean": result.mean_response_time_s * 1e3,
        "sim.engine.events_per_op": result.sim_events / probe.completed,
        "sim.engine.events_per_s": result.sim_events / wall,
        "sim.network.msgs_per_op": result.network_messages / result.total_ops,
        "sim.network.bytes_per_op": result.bytes_per_op,
    }
    return {
        "setup_s": probe.drivers_started - started,
        "throughput_ops_s": result.total_ops / wall,
        # The trace covers the whole run (warmup, window, drain and the
        # convergence check), so per-op figures divide by every op.
        "ops": probe.completed,
        "attempted": issued,
        "failed": issued - probe.completed,
        "counters": counters(measured, metrics),
        "problems": problems,
        "event_loop": "none (simulated)",
        "residual": "sim.engine",
    }


# ----------------------------------------------------------------------
# Set-up only: more set-up samples than full repetitions give
# ----------------------------------------------------------------------
def setup_only(args, probe: Probe) -> dict:
    """Time config -> drivers started, then tear down cleanly."""
    if args.workload in workloads.SIM:
        from repro.harness.builders import build_cluster

        config = workloads.experiment_config(args.workload, args.seed,
                                             args.window)
        started = time.perf_counter()
        built = build_cluster(config)
        built.start_drivers()
        return {"setup_s": probe.drivers_started - started, "problems": []}

    from repro.runtime.cluster import LiveCluster

    config = live_config(args, warmup_s=0.0, duration_s=0.001)
    started = time.perf_counter()
    report = asyncio.run(LiveCluster(config, base_port=0).run())
    return {"setup_s": probe.drivers_started - started,
            "problems": live_problems(report)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--window", type=float, required=True,
                        help="measured window: wall seconds (live) or "
                             "simulated seconds (sim-geo)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="sim-geo under the unsafe strawman, which "
                             "the gate must fail")
    parser.add_argument("--out", required=True,
                        help="scratch directory of this repetition")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop once the drivers start (set-up time)")
    args = parser.parse_args(argv)

    probe = Probe()
    probe.install()
    if args.setup_only:
        print(json.dumps(setup_only(args, probe)))
        return 0
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(workloads.PROTOCOL)
    from repro.runtime import codec

    run = run_sim if args.workload in workloads.SIM else run_live
    result = run(args, probe, tracer)
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    result["latency_ms"] = {kind: [round(v, 5) for v in values]
                            for kind, values in probe.latency_ms.items()}
    result["visibility_ms"] = [round(v, 5) for v in probe.visibility_ms]
    result["serializer"] = codec.SERIALIZER
    if tracer is not None:
        layers = tracer.summary(result["ops"], result["residual"])
        result["layers"] = layers
        if layers["tracing.self_vs_root"] > 0.01:
            result["problems"].append(
                "trace: layer self times do not add up to the root spans")
        if layers[f"{result['residual']}.share"] < -0.02:
            result["problems"].append(
                "trace: spans cover more CPU than the process used")
        tracer.dump(Path(args.out) / "spans.bin")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
