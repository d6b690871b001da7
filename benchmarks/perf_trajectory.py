"""The perf trajectory: one JSON snapshot of repo performance per PR.

Runs the engine/network/storage/experiment micro-bench suite (the same
workloads as ``bench_engine.py``), a reference figure-1a sweep and a
reference replicate set — each executed serially (``parallelism=1``) and
through the process-pool runner — plus the live-backend legs: the
closed-loop smoke, the *pipelined* open-loop leg (throughput + p50/p90/p99
against the embedded BENCH_pr4 live baseline), the WAL fsync-mode
sweep under group commit, the lossy-link leg (1% replication loss,
anti-entropy off vs on), the observability-overhead leg (telemetry
off vs scraped vs traced), and the online-resharding leg (a partition
joining the consistent-hash ring mid-window vs a no-reshard control).
Everything lands in one ``BENCH_*.json``
file.  Future PRs append their own snapshot file; comparing snapshots is
the perf trajectory.

The script is also the CI deadlock/divergence canary: it exits non-zero if
the parallel runner's results differ from the serial ones in any way, and
CI wraps it in a timeout so a deadlocked pool fails the job.

Usage::

    PYTHONPATH=src python benchmarks/perf_trajectory.py --smoke
    PYTHONPATH=src python benchmarks/perf_trajectory.py --pr 3  # BENCH_pr3.json

``--smoke`` shrinks every workload so the whole run finishes well under
60 s (the CI budget); the full run uses the ``bench`` figure scale and
8 replicate seeds (the acceptance reference for the >= 3x speedup on an
8-core runner).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_engine import (  # noqa: E402
    build_geo_network,
    build_loaded_store,
    drive_network,
    frame_decoder_speedup,
    perf_reference_config,
    scan_store,
)
from repro.harness.figures import figure_1a  # noqa: E402
from repro.harness.parallel import resolve_parallelism  # noqa: E402
from repro.harness.replicates import run_replicates  # noqa: E402
from repro.sim.engine import Simulator  # noqa: E402

#: Pre-change baseline of the event-engine micro-bench, recorded on the
#: PR-2 development container (1 vCPU) immediately before the hot-path
#: optimizations landed.  The engine bench in this file must not regress
#: against it when run on the same class of machine; on other machines the
#: ratio of current/baseline is informational.
PRE_CHANGE_BASELINE = {
    "machine": "pr2-dev-container-1vcpu",
    "engine_events_per_s": 759031,
    "network_msgs_per_s": 149802,
    "chain_scan_wall_s": 0.0388,
    "full_experiment_wall_s": 0.6729,
}

#: The committed BENCH_pr4 ``live_cluster`` leg (same machine class),
#: recorded immediately before the PR-5 live fast path (transport
#: batching, compiled codec, WAL group commit, open-loop generator).
#: The pipelined live leg reports its throughput as a ratio over this.
PR4_LIVE_BASELINE = {
    "machine": "pr4-dev-container-1vcpu",
    "throughput_ops_s": 1255.7,
    "serializer": "json",
    "arrival": "closed",
    "note": "closed loop, 8 sessions x 5ms think time (capped ~1.6k offered)",
}


#: The committed BENCH_pr5 ``live_pipelined`` leg (same machine class),
#: recorded immediately before PR 6's protocol-level replication
#: batching.  The batched pipelined leg reports its throughput as a
#: ratio over this: batching must not cost live throughput.
PR5_LIVE_BASELINE = {
    "machine": "pr5-dev-container-1vcpu",
    "throughput_ops_s": 4650.4,
    "serializer": "json",
    "arrival": "open",
    "note": "pipelined open loop, 16 sessions x 300 ops/s offered",
}


def best_of(fn, repeats: int = 3):
    """Best (minimum) wall-clock of ``repeats`` runs, plus the last value."""
    best = float("inf")
    value = None
    for _ in range(repeats):
        started = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - started)
    return best, value


def bench_event_engine(chained_events: int) -> dict:
    def run() -> int:
        sim = Simulator()
        remaining = [chained_events]

        def tick() -> None:
            if remaining[0] > 0:
                remaining[0] -= 1
                sim.schedule(0.001, tick)

        for _ in range(5):
            sim.schedule(0.0, tick)
        sim.run()
        return sim.events_executed

    wall_s, events = best_of(run)
    return {"events": events, "wall_s": round(wall_s, 4),
            "events_per_s": round(events / wall_s)}


def bench_network(rounds: int) -> dict:
    def run() -> int:
        sim, network, endpoints = build_geo_network()
        sent = drive_network(sim, network, endpoints, rounds=rounds)
        if network.stats.messages_delivered != sent:
            raise AssertionError("network dropped messages")
        return sent

    wall_s, sent = best_of(run)
    return {"messages": sent, "wall_s": round(wall_s, 4),
            "messages_per_s": round(sent / wall_s)}


def bench_chain_reads(rounds: int) -> dict:
    store, keys = build_loaded_store()

    def run() -> int:
        return scan_store(store, keys, rounds=rounds)

    wall_s, scanned = best_of(run)
    return {"versions_scanned": scanned, "wall_s": round(wall_s, 4)}


def bench_full_experiment() -> dict:
    from repro.harness.experiment import run_experiment

    def run():
        return run_experiment(perf_reference_config())

    wall_s, result = best_of(run, repeats=2)
    return {"wall_s": round(wall_s, 4), "sim_events": result.sim_events,
            "total_ops": result.total_ops}


def annotate_speedup(timings: dict, serial_s: float,
                     parallel_s: float) -> None:
    """Record the parallel speedup honestly for the host's core count.

    On a single-core host a process pool cannot beat the serial path —
    the ~0.98x "speedups" BENCH_pr4 recorded on 1 vCPU read as
    regressions when they are just pool overhead.  The leg still runs
    (it is the deadlock/divergence canary), but the speedup is reported
    as null with a note instead of a misleading ratio.
    """
    cores = os.cpu_count() or 1
    timings["cpu_count"] = cores
    if cores < 2:
        timings["speedup"] = None
        timings["speedup_note"] = (
            "single-core host: the pool cannot beat serial; this leg ran "
            "as a divergence/deadlock canary only"
        )
    else:
        timings["speedup"] = (round(serial_s / parallel_s, 2)
                              if parallel_s else None)


def bench_figure_sweep(scale: str, parallelism: int) -> tuple[dict, bool]:
    """Figure 1a serial vs parallel; returns (timings, diverged)."""
    started = time.perf_counter()
    serial = figure_1a(scale=scale, parallelism=1)
    serial_s = time.perf_counter() - started

    started = time.perf_counter()
    parallel = figure_1a(scale=scale, parallelism=parallelism)
    parallel_s = time.perf_counter() - started

    diverged = serial.series != parallel.series
    timings = {
        "scale": scale,
        "runs": len(serial.results),
        "serial_wall_s": round(serial_s, 3),
        "parallel_wall_s": round(parallel_s, 3),
        "parallelism": parallelism,
        "diverged": diverged,
    }
    annotate_speedup(timings, serial_s, parallel_s)
    return timings, diverged


def bench_replicates(num_seeds: int, parallelism: int) -> tuple[dict, bool]:
    """run_replicates serial vs parallel; returns (timings, diverged)."""
    config = perf_reference_config()

    started = time.perf_counter()
    serial = run_replicates(config, num_seeds=num_seeds, parallelism=1)
    serial_s = time.perf_counter() - started

    started = time.perf_counter()
    parallel = run_replicates(config, num_seeds=num_seeds,
                              parallelism=parallelism)
    parallel_s = time.perf_counter() - started

    diverged = (serial.stats != parallel.stats
                or serial.summary_table() != parallel.summary_table())
    timings = {
        "num_seeds": num_seeds,
        "serial_wall_s": round(serial_s, 3),
        "parallel_wall_s": round(parallel_s, 3),
        "parallelism": parallelism,
        "throughput_mean_ops_s": round(serial.mean("throughput_ops_s"), 2),
        "diverged": diverged,
    }
    annotate_speedup(timings, serial_s, parallel_s)
    return timings, diverged


def bench_live_cluster(duration_s: float) -> tuple[dict, bool]:
    """A short live (asyncio TCP) POCC run; returns (stats, failed).

    PR 3's trajectory addition: the live backend's throughput on the
    2-DC x 2-partition smoke shape, with the causal checker as canary —
    a checker violation or unclean shutdown fails the script like a
    serial/parallel divergence does.
    """
    from repro.common.config import (
        ClusterConfig, ExperimentConfig, WorkloadConfig,
    )
    from repro.runtime.cluster import run_live_experiment

    config = ExperimentConfig(
        cluster=ClusterConfig(num_dcs=2, num_partitions=2,
                              keys_per_partition=100, protocol="pocc"),
        workload=WorkloadConfig(kind="mixed", read_ratio=0.85, tx_ratio=0.1,
                                tx_partitions=2, clients_per_partition=2,
                                think_time_s=0.005),
        warmup_s=0.3,
        duration_s=duration_s,
        seed=7,
        verify=True,
        name="perf-live-smoke",
    )
    report = run_live_experiment(config)
    stats = {
        "protocol": report.protocol,
        "duration_s": round(report.duration_s, 3),
        "total_ops": report.total_ops,
        "throughput_ops_s": round(report.throughput_ops_s, 1),
        "frames_delivered": report.messages_delivered,
        "violations": len(report.violations),
        "clean_shutdown": report.clean_shutdown,
        "serializer": report.serializer,
        "event_loop": report.event_loop,
        "batches_sent": report.batches_sent,
        "batched_frames": report.batched_frames,
    }
    return stats, not report.passed


def _latency_percentiles(report) -> dict:
    """p50/p90/p99 (ms) per op kind from the driver-side histograms."""
    out = {}
    for kind, stats in sorted(report.latency.items()):
        out[kind] = {
            "count": stats["count"],
            "p50_ms": round(stats["p50"] * 1000, 2),
            "p90_ms": round(stats["p90"] * 1000, 2),
            "p99_ms": round(stats["p99"] * 1000, 2),
            "mean_ms": round(stats["mean"] * 1000, 2),
        }
    return out


def _pipelined_config(duration_s: float, rate_ops_s: float,
                      name: str, persistence=None, repl_batch=None):
    from repro.common.config import (
        ClusterConfig,
        ExperimentConfig,
        PersistenceConfig,
        ReplicationBatchConfig,
        WorkloadConfig,
    )

    return ExperimentConfig(
        cluster=ClusterConfig(num_dcs=2, num_partitions=2,
                              keys_per_partition=100, protocol="pocc",
                              repl_batch=(repl_batch
                                          or ReplicationBatchConfig())),
        workload=WorkloadConfig(kind="mixed", read_ratio=0.85, tx_ratio=0.1,
                                tx_partitions=2, clients_per_partition=4,
                                think_time_s=0.0, arrival="open",
                                rate_ops_s=rate_ops_s),
        warmup_s=0.4,
        duration_s=duration_s,
        seed=7,
        verify=True,
        name=name,
        persistence=persistence or PersistenceConfig(),
    )


def bench_live_pipelined(duration_s: float,
                         rate_ops_s: float = 300.0) -> tuple[dict, bool]:
    """The pipelined (open-loop) live leg: throughput + p50/p90/p99.

    PR 5's trajectory addition and the live acceptance gate: a 2-DC x
    2-partition POCC cluster driven by 16 open-loop sessions at a
    saturating offered rate (closed-loop legs cap at ``sessions /
    think_time`` and measured the generator, not the backend).  Latency
    percentiles come from the drivers' intended-arrival histograms, so
    queueing under overload is *in* the tail, not omitted.  Reported as
    a ratio over the committed BENCH_pr4 ``live_cluster`` number; checker
    violations or an unclean shutdown fail the script.
    """
    from repro.runtime.cluster import run_live_experiment

    config = _pipelined_config(duration_s, rate_ops_s, "perf-live-pipelined")
    report = run_live_experiment(config)
    sessions = (config.workload.clients_per_partition
                * config.cluster.num_partitions * config.cluster.num_dcs)
    stats = {
        "protocol": report.protocol,
        "arrival": report.arrival,
        "sessions": sessions,
        "offered_rate_ops_s": rate_ops_s * sessions,
        "duration_s": round(report.duration_s, 3),
        "total_ops": report.total_ops,
        "throughput_ops_s": round(report.throughput_ops_s, 1),
        "latency": _latency_percentiles(report),
        "dropped_arrivals": report.dropped_arrivals,
        "frames_delivered": report.messages_delivered,
        "batches_sent": report.batches_sent,
        "batched_frames": report.batched_frames,
        "violations": len(report.violations),
        "clean_shutdown": report.clean_shutdown,
        "serializer": report.serializer,
        "event_loop": report.event_loop,
        "baseline_pr4_live": PR4_LIVE_BASELINE,
        "vs_pr4_live_ratio": round(
            report.throughput_ops_s / PR4_LIVE_BASELINE["throughput_ops_s"],
            2),
    }
    return stats, not report.passed


def bench_fsync_modes(duration_s: float,
                      rate_ops_s: float = 300.0) -> tuple[dict, bool]:
    """Durability overhead: live ops/s with fsync off/interval/always.

    Since PR 5 this leg drives the *pipelined* open-loop workload at a
    saturating rate (the PR-4 closed loop was generator-capped, so every
    fsync mode measured the same ~1.2k ops/s and the 0.985 ratio said
    nothing).  Under saturation the ratio between ``off`` (pure
    WAL-append cost) and ``always`` (write+fsync before every
    acknowledgement, group-committed per event-loop tick) is the real
    price of full durability — the acceptance gate wants it within 25%.
    """
    import tempfile

    from repro.common.config import PersistenceConfig
    from repro.runtime.cluster import run_live_experiment

    results: dict = {}
    failed = False
    for mode in ("off", "interval", "always"):
        with tempfile.TemporaryDirectory() as tmp:
            config = _pipelined_config(
                duration_s, rate_ops_s, f"perf-fsync-{mode}",
                persistence=PersistenceConfig(
                    enabled=True, data_dir=tmp, fsync=mode,
                    snapshot_interval_s=2.0,
                ),
            )
            report = run_live_experiment(config)
            wal_appends = sum(
                stats["wal_records_appended"]
                for stats in report.persistence.values()
            )
            wal_syncs = sum(
                stats["wal_syncs"] for stats in report.persistence.values()
            )
            group_commits = sum(
                stats["wal_group_commits"]
                for stats in report.persistence.values()
            )
            max_batch = max(
                (stats["wal_max_batch_records"]
                 for stats in report.persistence.values()),
                default=0,
            )
            results[mode] = {
                "throughput_ops_s": round(report.throughput_ops_s, 1),
                "total_ops": report.total_ops,
                "latency": _latency_percentiles(report),
                "wal_records_appended": wal_appends,
                "wal_syncs": wal_syncs,
                "wal_group_commits": group_commits,
                "wal_max_batch_records": max_batch,
                "violations": len(report.violations),
                "clean_shutdown": report.clean_shutdown,
            }
            failed |= not report.passed
    results["workload"] = (
        f"open loop, 16 sessions x {rate_ops_s:g} ops/s offered"
    )
    if results["off"]["throughput_ops_s"]:
        results["always_vs_off_ratio"] = round(
            results["always"]["throughput_ops_s"]
            / results["off"]["throughput_ops_s"], 3
        )
    return results, failed


def bench_live_pipelined_batched(duration_s: float,
                                 rate_ops_s: float = 300.0
                                 ) -> tuple[dict, bool]:
    """PR 6's live gate: the pipelined leg with replication batching on.

    Same shape and offered load as ``live_pipelined`` but with the
    protocol-level batcher enabled (batch=64, 5 ms flush): one
    ``ReplicateBatch`` per flush instead of one ``Replicate`` per write.
    Reported as a ratio over the committed BENCH_pr5 ``live_pipelined``
    number — batching must not cost live throughput; the checker and a
    clean shutdown gate the leg as usual, and the report's visibility
    percentiles show what the amortization costs in update freshness.
    """
    from repro.common.config import ReplicationBatchConfig
    from repro.runtime.cluster import run_live_experiment

    config = _pipelined_config(
        duration_s, rate_ops_s, "perf-live-pipelined-batched",
        repl_batch=ReplicationBatchConfig(max_versions=64,
                                          max_bytes=256 * 1024,
                                          flush_ms=5.0),
    )
    report = run_live_experiment(config)
    sessions = (config.workload.clients_per_partition
                * config.cluster.num_partitions * config.cluster.num_dcs)
    stats = {
        "protocol": report.protocol,
        "arrival": report.arrival,
        "sessions": sessions,
        "offered_rate_ops_s": rate_ops_s * sessions,
        "repl_batch": {"max_versions": 64, "flush_ms": 5.0},
        "duration_s": round(report.duration_s, 3),
        "total_ops": report.total_ops,
        "throughput_ops_s": round(report.throughput_ops_s, 1),
        "latency": _latency_percentiles(report),
        "visibility": report.visibility,
        "dropped_arrivals": report.dropped_arrivals,
        "frames_delivered": report.messages_delivered,
        "violations": len(report.violations),
        "clean_shutdown": report.clean_shutdown,
        "serializer": report.serializer,
        "event_loop": report.event_loop,
        "baseline_pr5_live": PR5_LIVE_BASELINE,
        "vs_pr5_live_ratio": round(
            report.throughput_ops_s / PR5_LIVE_BASELINE["throughput_ops_s"],
            2),
    }
    return stats, not report.passed


def _scaling_config(duration_s: float, rate_ops_s: float, name: str):
    """The PR-6 batched pipelined shape at a deliberately over-offered
    rate: the scaling leg wants the backend saturated at every process
    count, so added driver processes show up as throughput, not as the
    generator catching up to its own cap."""
    from repro.common.config import ReplicationBatchConfig

    return _pipelined_config(
        duration_s, rate_ops_s, name,
        repl_batch=ReplicationBatchConfig(max_versions=64,
                                          max_bytes=256 * 1024,
                                          flush_ms=5.0),
    )


def _wait_for_supervised_listening(log_dir: Path, labels: list[str],
                                   timeout_s: float = 30.0) -> None:
    deadline = time.perf_counter() + timeout_s
    while time.perf_counter() < deadline:
        ready = sum(
            1 for label in labels
            if (log_dir / f"{label}.log").exists()
            and "listening on" in (log_dir / f"{label}.log").read_text(
                errors="replace")
        )
        if ready == len(labels):
            return
        time.sleep(0.1)
    raise RuntimeError(f"supervised servers {labels} never reported "
                       f"listening (logs in {log_dir})")


def _report_leg(report) -> dict:
    return {
        "total_ops": report.total_ops,
        "throughput_ops_s": round(report.throughput_ops_s, 1),
        "duration_s": round(report.duration_s, 3),
        "dropped_arrivals": report.dropped_arrivals,
        "violations": len(report.violations),
        "clean_shutdown": report.clean_shutdown,
        "event_loop": report.event_loop,
        "cpu_affinity": report.cpu_affinity,
    }


def bench_scaling_multiproc(duration_s: float, process_counts: tuple,
                            rate_ops_s: float = 900.0,
                            base_port: int = 7950) -> tuple[dict, bool]:
    """PR 8's tentpole leg: live ops/s vs load-generator process count.

    The 1-process point is the PR-6 batched pipelined shape run entirely
    in-process (servers + drivers in one interpreter) — directly
    comparable with the same run's ``live_pipelined_batched`` leg and
    with the committed BENCH_pr5 baseline.  Every multi-process point
    boots the *same* deployment as a ``repro-supervise`` tree (one
    ``repro-serve`` process per partition server) and drives it with N
    sharded load-worker processes (``repro.runtime.loadgen``), so both
    sides of the socket scale past one core.  The speedup over the
    1-process point is reported honestly: ``null`` with a note on hosts
    where ``os.cpu_count()`` cannot support a win.
    """
    import signal
    import subprocess
    import tempfile

    from repro.runtime.cluster import run_live_experiment
    from repro.runtime.loadgen import run_sharded_load
    from repro.runtime.supervisor import subprocess_env

    results: dict = {
        "workload": (f"open loop, 16 sessions x {rate_ops_s:g} ops/s "
                     f"offered, repl batching on (the PR-6 batched "
                     f"pipelined shape, over-offered to keep the backend "
                     f"saturated at every process count)"),
        "process_counts": list(process_counts),
        "legs": {},
    }
    failed = False
    ops_by_count: dict[int, float] = {}
    for index, processes in enumerate(process_counts):
        port = base_port + 40 * index  # fresh range per point
        config = _scaling_config(duration_s, rate_ops_s,
                                 f"perf-scaling-p{processes}")
        if processes == 1:
            report = run_live_experiment(config)
            leg = _report_leg(report)
            leg["deployment"] = "single process (servers + drivers)"
            failed |= not report.passed
        else:
            log_dir = Path(tempfile.mkdtemp(prefix="perf-scaling-sup-"))
            config_path = log_dir / "cluster.json"
            from repro.runtime.configfile import save_experiment_config
            save_experiment_config(config, str(config_path))
            supervisor = subprocess.Popen(
                [sys.executable, "-m", "repro.runtime.supervisor",
                 "--config", str(config_path),
                 "--base-port", str(port),
                 "--log-dir", str(log_dir)],
                env=subprocess_env(),
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
            try:
                labels = [f"dc{dc}-p{part}"
                          for dc in range(config.cluster.num_dcs)
                          for part in range(config.cluster.num_partitions)]
                _wait_for_supervised_listening(log_dir, labels)
                sharded = run_sharded_load(
                    config, base_port=port, processes=processes,
                    external_servers=True,
                )
                report = sharded.report
                supervisor.send_signal(signal.SIGTERM)
                supervisor_exit = supervisor.wait(timeout=30)
            finally:
                if supervisor.poll() is None:
                    supervisor.kill()
                    supervisor.wait()
            leg = _report_leg(report)
            leg["deployment"] = (
                f"{len(labels)} supervised server processes + "
                f"{sharded.driver_processes} driver processes"
            )
            leg["supervisor_exit"] = supervisor_exit
            failed |= not report.passed or supervisor_exit != 0
        ops_by_count[processes] = leg["throughput_ops_s"]
        results["legs"][str(processes)] = leg

    cores = os.cpu_count() or 1
    results["cpu_count"] = cores
    baseline_ops = ops_by_count.get(1)
    best = max(ops_by_count.values())
    results["best_throughput_ops_s"] = best
    results["baseline_pr5_live"] = PR5_LIVE_BASELINE
    results["best_vs_pr5_live_ratio"] = round(
        best / PR5_LIVE_BASELINE["throughput_ops_s"], 2)
    if cores < 2:
        results["speedup"] = None
        results["speedup_note"] = (
            "single-core host: extra processes time-slice one core, so a "
            "speedup is impossible by construction; the leg ran as a "
            "correctness canary (checker + clean shutdown per point). "
            "The >= 3x-vs-PR5 acceptance bar applies on >= 4 cores."
        )
    else:
        max_count = max(process_counts)
        results["speedup"] = (
            round(ops_by_count[max_count] / baseline_ops, 2)
            if baseline_ops else None
        )
        if cores >= 4 and results["best_vs_pr5_live_ratio"] < 3.0:
            print(f"[perf] FAIL: multi-process scaling peaked at "
                  f"{results['best_vs_pr5_live_ratio']}x of the PR-5 "
                  f"baseline on a {cores}-core host (need >= 3x)",
                  file=sys.stderr)
            failed = True
    return results, failed


def _repl_batching_config(protocol: str, repl_batch, duration_s: float):
    from repro.common.config import (
        ClockConfig, ClusterConfig, ExperimentConfig, WorkloadConfig,
    )

    return ExperimentConfig(
        cluster=ClusterConfig(num_dcs=3, num_partitions=2,
                              keys_per_partition=40, protocol=protocol,
                              clocks=ClockConfig(max_offset_us=200),
                              repl_batch=repl_batch),
        workload=WorkloadConfig(kind="get_put", gets_per_put=1,
                                clients_per_partition=4,
                                think_time_s=0.0),
        warmup_s=0.2,
        duration_s=duration_s,
        seed=17,
        verify=True,
        name=f"perf-repl-batch-{protocol}",
    )


def bench_repl_batching(duration_s: float, protocols: tuple,
                        batch_sizes: tuple,
                        require_reduction: bool) -> tuple[dict, bool]:
    """PR 6's sim leg: inter-DC replicate traffic vs batch size.

    For each protocol, one batching-off baseline plus one run per batch
    size (write-heavy 1:1 get:put, zero think time — replication is the
    dominant WAN traffic), recording ops/s, inter-DC replicate
    *messages* per op (a batch of 64 counts once — the amortization
    being measured), and the update-visibility percentiles that pay for
    it.  Every run is checker-gated; with ``require_reduction`` the
    largest batch size must cut replicate messages at least 8x vs the
    baseline (the PR-6 acceptance bar).
    """
    from repro.common.config import ReplicationBatchConfig
    from repro.harness.builders import build_cluster
    from repro.harness.experiment import run_experiment

    def one_run(protocol: str, repl_batch) -> dict:
        config = _repl_batching_config(protocol, repl_batch, duration_s)
        built = build_cluster(config)
        result = run_experiment(config, built=built)
        by_type = built.network.stats.inter_dc_by_type
        replicate_msgs = (by_type.get("Replicate", 0)
                          + by_type.get("ReplicateBatch", 0))
        ops = max(result.total_ops, 1)
        return {
            "throughput_ops_s": round(result.throughput_ops_s, 1),
            "total_ops": result.total_ops,
            "inter_dc_replicate_msgs": replicate_msgs,
            "replicate_msgs_per_op": round(replicate_msgs / ops, 4),
            "inter_dc_messages": built.network.stats.inter_dc_messages(),
            "inter_dc_bytes": built.network.stats.inter_dc_bytes(),
            "visibility_p50_ms": round(
                result.visibility_lag["p50"] * 1000, 2),
            "visibility_p99_ms": round(
                result.visibility_lag["p99"] * 1000, 2),
            "violations": result.verification["violations"],
        }

    results: dict = {
        "workload": "get_put 1:1, 24 sessions, zero think time",
        "batch_sizes": list(batch_sizes),
    }
    failed = False
    for protocol in protocols:
        legs: dict = {"off": one_run(protocol, ReplicationBatchConfig())}
        failed |= legs["off"]["violations"] > 0
        for batch in batch_sizes:
            leg = one_run(protocol, ReplicationBatchConfig(
                max_versions=batch, max_bytes=1 << 20, flush_ms=20.0,
            ))
            legs[f"batch_{batch}"] = leg
            failed |= leg["violations"] > 0
        largest = legs[f"batch_{max(batch_sizes)}"]
        if largest["inter_dc_replicate_msgs"]:
            reduction = (legs["off"]["inter_dc_replicate_msgs"]
                         / largest["inter_dc_replicate_msgs"])
            legs["replicate_msg_reduction_at_max_batch"] = round(reduction, 1)
            if require_reduction and reduction < 8.0:
                print(f"[perf] FAIL: {protocol} batch={max(batch_sizes)} "
                      f"cut replicate messages only {reduction:.1f}x "
                      f"(need >= 8x)", file=sys.stderr)
                failed = True
        results[protocol] = legs
    return results, failed


def _lossy_config(protocol: str, anti_entropy: bool, duration_s: float):
    from repro.common.config import (
        AntiEntropyConfig, ClockConfig, ClusterConfig, ExperimentConfig,
        WorkloadConfig,
    )

    return ExperimentConfig(
        cluster=ClusterConfig(num_dcs=3, num_partitions=2,
                              keys_per_partition=40, protocol=protocol,
                              clocks=ClockConfig(max_offset_us=200),
                              anti_entropy=AntiEntropyConfig(
                                  enabled=anti_entropy)),
        workload=WorkloadConfig(kind="get_put", gets_per_put=1,
                                clients_per_partition=4,
                                think_time_s=0.0),
        warmup_s=0.2,
        duration_s=duration_s,
        seed=29,
        verify=True,
        name=f"perf-lossy-ae-{'on' if anti_entropy else 'off'}",
    )


def bench_lossy_anti_entropy(duration_s: float,
                             loss_rate: float = 0.01) -> tuple[dict, bool]:
    """PR 7's chaos leg: 1% replication loss, anti-entropy off vs on.

    Both arms run the identical seed and loss schedule (replication
    traffic only, dropped from warmup through 70% of the measured window
    so the drain can repair the tail), recording throughput, update
    visibility, drops and the backfill's digest/repair counters.  The
    off arm is the control — it shows what the fault costs when nothing
    repairs it (divergent replicas are *expected* there and reported,
    not gated).  The on arm is the gate: anti-entropy must restore
    convergence and checker-cleanliness at no material throughput cost,
    and the repair counters must show the convergence was earned.
    """
    from repro.harness.builders import build_cluster
    from repro.harness.experiment import run_experiment

    def one_arm(anti_entropy: bool) -> dict:
        config = _lossy_config("pocc", anti_entropy, duration_s)
        built = build_cluster(config)
        loss_window = config.warmup_s + duration_s * 0.7
        for src in range(config.cluster.num_dcs):
            for dst in range(config.cluster.num_dcs):
                if src != dst:
                    built.faults.schedule_loss(
                        0.05, src, dst, loss_rate,
                        kinds=("Replicate", "ReplicateBatch"),
                        stop_after=loss_window)
        result = run_experiment(config, built=built)
        return {
            "throughput_ops_s": round(result.throughput_ops_s, 1),
            "total_ops": result.total_ops,
            "messages_dropped": built.network.stats.messages_dropped,
            "ae_digests_sent": sum(s.ae_digests_sent
                                   for s in built.servers.values()),
            "ae_repairs_applied": sum(s.ae_repairs_applied
                                      for s in built.servers.values()),
            "visibility_p50_ms": round(
                result.visibility_lag["p50"] * 1000, 2),
            "visibility_p99_ms": round(
                result.visibility_lag["p99"] * 1000, 2),
            "divergences": result.divergences,
            "violations": result.verification["violations"],
        }

    off = one_arm(anti_entropy=False)
    on = one_arm(anti_entropy=True)
    results = {
        "workload": "get_put 1:1, 24 sessions, zero think time",
        "loss": f"{loss_rate:.0%} of Replicate/ReplicateBatch on all "
                f"inter-DC links, stopped before the drain",
        "ae_off": off,
        "ae_on": on,
    }
    if off["throughput_ops_s"]:
        results["ae_on_vs_off_throughput_ratio"] = round(
            on["throughput_ops_s"] / off["throughput_ops_s"], 3)
    failed = False
    if on["violations"] or on["divergences"]:
        print(f"[perf] FAIL: lossy leg with anti-entropy on: "
              f"{on['violations']} violations, "
              f"{on['divergences']} divergent keys", file=sys.stderr)
        failed = True
    if on["messages_dropped"] == 0 or on["ae_repairs_applied"] == 0:
        print("[perf] FAIL: lossy leg was vacuous (no drops or no "
              "repairs) — the fault or the backfill never fired",
              file=sys.stderr)
        failed = True
    return results, failed


def bench_resharding(duration_s: float) -> tuple[dict, bool]:
    """PR 10's membership leg: the cost of an online view change.

    Two sim arms over the same seed and shape (2 DCs x 4-slot address
    space, epoch 0 = {0,1,2}, mixed traffic with RO-TXs): a control
    that never reshards, and an arm where partition 3 joins the
    consistent-hash ring mid-window — propose, chunked causal-safe
    handoff, drain, commit — while clients keep operating.  Records the
    keys/bytes moved, the change's wall time, the NotOwner redirect
    count, and the throughput ratio vs the control (the price clients
    pay for a reshard they did not ask for).  Gated on zero checker
    violations and zero divergent keys in *both* arms, the controller
    reaching ``done``, and non-vacuity (keys actually moved, redirects
    actually happened).
    """
    from repro.cluster.reshard import start_sim_reshard
    from repro.common.config import (
        ClusterConfig, ExperimentConfig, MembershipConfig, WorkloadConfig,
    )
    from repro.harness.builders import build_cluster
    from repro.harness.experiment import run_experiment

    def reshard_config(name: str) -> ExperimentConfig:
        return ExperimentConfig(
            cluster=ClusterConfig(
                num_dcs=2, num_partitions=4, keys_per_partition=50,
                protocol="pocc",
                membership=MembershipConfig(
                    enabled=True, initial_members=(0, 1, 2),
                    gossip_interval_s=0.3, handoff_chunk_versions=16,
                    commit_delay_s=0.1, retry_interval_s=0.2,
                ),
            ),
            workload=WorkloadConfig(kind="mixed", read_ratio=0.7,
                                    tx_ratio=0.15, tx_partitions=2,
                                    clients_per_partition=2,
                                    think_time_s=0.005),
            warmup_s=0.2,
            duration_s=duration_s,
            seed=7117,
            verify=True,
            name=name,
        )

    def arm_stats(result) -> dict:
        return {
            "throughput_ops_s": round(result.throughput_ops_s, 1),
            "total_ops": result.total_ops,
            # The tail is where parked ops and NotOwner retries land.
            "latency_p99_ms": {
                op: round(stats["p99"] * 1000, 2)
                for op, stats in sorted(result.op_stats.items())
            },
            "violations": result.verification["violations"],
            "divergences": result.divergences,
        }

    control = run_experiment(reshard_config("perf-reshard-control"))

    config = reshard_config("perf-reshard-join")
    built = build_cluster(config)
    done: list = []
    controller = start_sim_reshard(built, (0, 1, 2, 3),
                                   at_s=min(1.0, duration_s / 2),
                                   on_done=done.append)
    result = run_experiment(config, built=built)

    redirects = sum(s.not_owner_redirects for s in built.servers.values())
    results: dict = {
        "workload": "mixed 70/15, 16 sessions, 5ms think, pocc, sim",
        "shape": "2 DCs x 4 slots, epoch 0 = {0,1,2}, partition 3 joins",
        "control": arm_stats(control),
        "reshard": arm_stats(result),
        "controller_phase": controller.phase,
        "not_owner_redirects": redirects,
    }
    if done:
        reshard = done[0]
        results["view_epoch"] = reshard.epoch
        results["keys_moved"] = reshard.keys_moved
        results["bytes_moved"] = reshard.bytes_moved
        results["reshard_wall_s"] = round(reshard.duration_s, 3)
        results["driver_retries"] = reshard.retries
    if results["control"]["throughput_ops_s"]:
        results["reshard_vs_control_throughput_ratio"] = round(
            results["reshard"]["throughput_ops_s"]
            / results["control"]["throughput_ops_s"], 3)

    failed = False
    for arm_name in ("control", "reshard"):
        arm = results[arm_name]
        if arm["violations"] or arm["divergences"]:
            print(f"[perf] FAIL: resharding leg ({arm_name} arm): "
                  f"{arm['violations']} violations, "
                  f"{arm['divergences']} divergent keys", file=sys.stderr)
            failed = True
    if controller.phase != "done" or not done:
        print("[perf] FAIL: resharding leg: the view change never "
              "completed", file=sys.stderr)
        failed = True
    elif done[0].keys_moved == 0 or redirects == 0:
        print("[perf] FAIL: resharding leg was vacuous (no keys moved "
              "or no NotOwner redirects) — the reshard never bit",
              file=sys.stderr)
        failed = True
    return results, failed


def bench_observability_overhead(duration_s: float,
                                 gate: bool,
                                 rate_ops_s: float = 300.0
                                 ) -> tuple[dict, bool]:
    """PR 9's telemetry leg: the live pipelined shape with observability
    off, on-and-actively-scraped, and on-with-causal-tracing.

    Three arms over the identical seed and offered load.  The off arm is
    the control and must equal an un-instrumented engine (the byte-
    identity pin covers the sim; this covers live throughput).  The
    scraped arm serves /metrics on its own event loop and is polled
    throughout the window — the realistic steady state under Prometheus.
    The traced arm additionally writes sampled lifecycle spans to JSONL.
    The full run gates the on/off throughput ratio at >= 0.97 (a smoke
    run on a shared CI core records the ratio without gating — sub-3%
    effects are below runner noise there).
    """
    import asyncio
    import dataclasses
    import shutil
    import tempfile

    from repro.common.config import TelemetryConfig
    from repro.runtime.cluster import LiveCluster, run_live_experiment

    def arm_config(name: str, telemetry: TelemetryConfig):
        config = _pipelined_config(duration_s, rate_ops_s, name)
        return dataclasses.replace(
            config,
            cluster=dataclasses.replace(config.cluster,
                                        telemetry=telemetry),
        )

    def leg(report, extra=None) -> dict:
        out = {
            "throughput_ops_s": round(report.throughput_ops_s, 1),
            "total_ops": report.total_ops,
            "p99_ms": round(
                report.latency.get("all", {}).get("p99", 0.0) * 1000, 2),
            "violations": len(report.violations),
            "clean_shutdown": report.clean_shutdown,
        }
        out.update(extra or {})
        return out

    async def run_scraped(config):
        """cluster.run() with a poller hammering /metrics throughout."""
        cluster = LiveCluster(config)
        run_task = asyncio.ensure_future(cluster.run())
        scrapes = 0
        while not run_task.done():
            await asyncio.sleep(0.1)
            port = cluster.metrics_port
            if port is None or cluster.metrics_server is None:
                continue
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port)
                writer.write(b"GET /metrics HTTP/1.0\r\n\r\n")
                await writer.drain()
                body = await reader.read(-1)
                writer.close()
                if b"repro_client_ops_total" in body:
                    scrapes += 1
            except OSError:
                pass
        return await run_task, scrapes

    # One discarded run first: the process-wide cold start (codec
    # compilation, socket dials, allocator growth) must not be billed
    # to whichever arm happens to run first.
    run_live_experiment(
        dataclasses.replace(arm_config("perf-obs-warmup",
                                       TelemetryConfig()),
                            duration_s=min(duration_s, 0.6)))
    off_report = run_live_experiment(arm_config("perf-obs-off",
                                                TelemetryConfig()))
    on_config = arm_config("perf-obs-scraped",
                           TelemetryConfig(enabled=True))
    on_report, scrapes = asyncio.run(run_scraped(on_config))
    trace_dir = tempfile.mkdtemp(prefix="perf-obs-trace-")
    try:
        traced_config = arm_config(
            "perf-obs-traced",
            TelemetryConfig(enabled=True, trace=True, trace_dir=trace_dir,
                            trace_sample_every=8))
        traced_report = run_live_experiment(traced_config)
        spans = 0
        for name in os.listdir(trace_dir):
            with open(os.path.join(trace_dir, name), encoding="utf-8") as f:
                spans += sum(1 for line in f if line.strip())
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)

    results = {
        "workload": "pipelined open loop, 16 sessions x "
                    f"{rate_ops_s:.0f} ops/s offered, same seed per arm",
        "off": leg(off_report),
        "on_scraped": leg(on_report, {"scrapes": scrapes}),
        "on_traced": leg(traced_report, {"spans_written": spans,
                                         "trace_sample_every": 8}),
    }
    on_ratio = traced_ratio = None
    if off_report.throughput_ops_s:
        on_ratio = round(on_report.throughput_ops_s
                         / off_report.throughput_ops_s, 3)
        traced_ratio = round(traced_report.throughput_ops_s
                             / off_report.throughput_ops_s, 3)
        results["on_vs_off_throughput_ratio"] = on_ratio
        results["traced_vs_off_throughput_ratio"] = traced_ratio
    failed = False
    for arm_name, report in (("off", off_report), ("scraped", on_report),
                             ("traced", traced_report)):
        if not report.passed:
            print(f"[perf] FAIL: observability leg ({arm_name} arm) "
                  f"violated the checker or shut down uncleanly",
                  file=sys.stderr)
            failed = True
    if scrapes == 0 or spans == 0:
        print("[perf] FAIL: observability leg was vacuous (no successful "
              "scrape or no trace spans) — the instrumentation never "
              "fired", file=sys.stderr)
        failed = True
    if gate and on_ratio is not None and on_ratio < 0.97:
        print(f"[perf] FAIL: telemetry-on throughput at {on_ratio}x of "
              f"off (need >= 0.97x)", file=sys.stderr)
        failed = True
    return results, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="shrunken workloads for the <60s CI budget")
    parser.add_argument("--pr", type=int, default=None,
                        help="PR number stamped into the snapshot "
                             "(default: next after the newest "
                             "BENCH_pr<N>.json on disk, so a bare run "
                             "appends a new trajectory point; pass --pr "
                             "explicitly to refresh an existing one)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="output JSON path (default: BENCH_pr<N>.json "
                             "next to the repo root)")
    parser.add_argument("--parallelism", type=int, default=None,
                        help="workers for the parallel legs "
                             "(default: all cores, floor 2)")
    args = parser.parse_args(argv)

    repo_root = Path(__file__).resolve().parent.parent
    if args.pr is None:
        committed = sorted(
            int(path.stem.removeprefix("BENCH_pr"))
            for path in repo_root.glob("BENCH_pr*.json")
            if path.stem.removeprefix("BENCH_pr").isdigit()
        )
        args.pr = committed[-1] + 1 if committed else 3
    out_path = (Path(args.out) if args.out
                else repo_root / f"BENCH_pr{args.pr}.json")

    # Even on a 1-core box exercise a real pool, so CI catches deadlocks.
    workers = (args.parallelism if args.parallelism is not None
               else max(2, resolve_parallelism(None)))

    if args.smoke:
        chained_events, net_rounds, chain_rounds = 100_000, 2_000, 20
        sweep_scale, num_seeds = "smoke", 4
    else:
        chained_events, net_rounds, chain_rounds = 200_000, 5_000, 50
        sweep_scale, num_seeds = "bench", 8

    t0 = time.perf_counter()
    print(f"[perf] engine micro-bench ({chained_events} chained events)...",
          file=sys.stderr)
    engine = bench_event_engine(chained_events)
    print("[perf] network send/deliver micro-bench...", file=sys.stderr)
    network = bench_network(net_rounds)
    print("[perf] storage chain-read micro-bench...", file=sys.stderr)
    chains = bench_chain_reads(chain_rounds)
    print("[perf] frame-decoder batched-chunk micro-bench...",
          file=sys.stderr)
    frame_decoder = frame_decoder_speedup()
    print("[perf] full reference experiment...", file=sys.stderr)
    experiment = bench_full_experiment()
    print(f"[perf] figure-1a sweep, serial vs parallelism={workers}...",
          file=sys.stderr)
    sweep, sweep_diverged = bench_figure_sweep(sweep_scale, workers)
    print(f"[perf] run_replicates({num_seeds} seeds), serial vs "
          f"parallelism={workers}...", file=sys.stderr)
    replicates, repl_diverged = bench_replicates(num_seeds, workers)
    live_duration = 1.5 if args.smoke else 4.0
    print(f"[perf] live asyncio TCP cluster ({live_duration}s window)...",
          file=sys.stderr)
    live, live_failed = bench_live_cluster(live_duration)
    print(f"[perf] pipelined open-loop live cluster ({live_duration}s "
          f"window)...", file=sys.stderr)
    pipelined, pipelined_failed = bench_live_pipelined(live_duration)
    fsync_duration = 1.2 if args.smoke else 3.0
    print(f"[perf] WAL fsync-mode overhead (off/interval/always, "
          f"open loop, {fsync_duration}s each)...", file=sys.stderr)
    fsync_modes, fsync_failed = bench_fsync_modes(fsync_duration)
    if args.smoke:
        batch_protocols: tuple = ("pocc", "okapi")
        batch_sizes: tuple = (64,)
        batch_duration, require_reduction = 0.5, False
    else:
        batch_protocols = ("pocc", "cure", "okapi")
        batch_sizes = (1, 8, 64, 256)
        batch_duration, require_reduction = 2.0, True
    print(f"[perf] replication batching sweep (batch in "
          f"{list(batch_sizes)}, {batch_duration}s each, protocols "
          f"{list(batch_protocols)})...", file=sys.stderr)
    repl_batching, batching_failed = bench_repl_batching(
        batch_duration, batch_protocols, batch_sizes, require_reduction)
    print(f"[perf] pipelined live cluster with batching on "
          f"({live_duration}s window)...", file=sys.stderr)
    pipelined_batched, pipelined_batched_failed = (
        bench_live_pipelined_batched(live_duration))
    lossy_duration = 0.8 if args.smoke else 2.0
    print(f"[perf] lossy-link anti-entropy leg (1% replication loss, "
          f"AE off vs on, {lossy_duration}s each)...", file=sys.stderr)
    lossy_ae, lossy_failed = bench_lossy_anti_entropy(lossy_duration)
    obs_duration = 1.0 if args.smoke else 2.5
    print(f"[perf] observability overhead leg (off / scraped / traced, "
          f"{obs_duration}s each)...", file=sys.stderr)
    observability, obs_failed = bench_observability_overhead(
        obs_duration, gate=not args.smoke)
    reshard_duration = 2.5 if args.smoke else 4.0
    print(f"[perf] online resharding leg (control vs mid-run join, "
          f"{reshard_duration}s each)...", file=sys.stderr)
    resharding, reshard_failed = bench_resharding(reshard_duration)
    if args.smoke:
        scaling_counts: tuple = (1, 2)
        scaling_duration = 1.2
    else:
        scaling_counts = (1, 2, 4)
        scaling_duration = 3.0
    print(f"[perf] multi-process scaling leg (driver processes "
          f"{list(scaling_counts)}, {scaling_duration}s each)...",
          file=sys.stderr)
    scaling, scaling_failed = bench_scaling_multiproc(scaling_duration,
                                                      scaling_counts)
    if (pipelined_batched.get("throughput_ops_s")
            and scaling["legs"].get("1", {}).get("throughput_ops_s")):
        # Same-run, same-machine: the 1-process scaling point must not
        # regress against the PR-6 batched shape it is built from (both
        # saturate the same backend).  The scaling point runs at 3x the
        # batched leg's offered rate, and managing that much deeper
        # open-loop backlog legitimately costs ~10-25% on a saturated
        # core — the 0.65 bar catches real decode/transport regressions,
        # not the over-offer tax.
        ratio = round(
            scaling["legs"]["1"]["throughput_ops_s"]
            / pipelined_batched["throughput_ops_s"], 2)
        scaling["p1_vs_live_pipelined_batched_same_run_ratio"] = ratio
        scaling["p1_ratio_note"] = (
            "the scaling point is offered 3x the batched leg's rate; the "
            "gap is deep-backlog management, not a protocol regression"
        )
        if ratio < 0.65:
            print(f"[perf] FAIL: the 1-process scaling point ran at "
                  f"{ratio}x of the same run's batched pipelined leg "
                  f"(need >= 0.65x)", file=sys.stderr)
            scaling_failed = True

    import importlib.util

    from repro.runtime import codec

    baseline = PRE_CHANGE_BASELINE
    engine_ratio = engine["events_per_s"] / baseline["engine_events_per_s"]
    snapshot = {
        "pr": args.pr,
        "mode": "smoke" if args.smoke else "full",
        "machine": {
            "cpu_count": os.cpu_count(),
            "cpu_affinity": (sorted(os.sched_getaffinity(0))
                             if hasattr(os, "sched_getaffinity") else []),
            "python": sys.version.split()[0],
            "platform": sys.platform,
            # What --event-loop auto resolves to on this host; the live
            # legs additionally record the loop that actually ran.
            "event_loop": ("uvloop"
                           if importlib.util.find_spec("uvloop")
                           else "asyncio"),
        },
        "serializer": codec.SERIALIZER,
        "engine": engine,
        "network": network,
        "storage_chain_reads": chains,
        "codec_frame_decoder": frame_decoder,
        "full_experiment": experiment,
        "figure_1a_sweep": sweep,
        "replicates": replicates,
        "live_cluster": live,
        "live_pipelined": pipelined,
        "persistence_fsync_modes": fsync_modes,
        "repl_batching": repl_batching,
        "lossy_anti_entropy": lossy_ae,
        "observability_overhead": observability,
        "resharding": resharding,
        "live_pipelined_batched": {
            **pipelined_batched,
            # Same-run, same-machine comparison: the committed PR-5
            # baseline moves with container weather, this ratio does not.
            "vs_live_pipelined_same_run_ratio": round(
                pipelined_batched["throughput_ops_s"]
                / pipelined["throughput_ops_s"], 2)
            if pipelined.get("throughput_ops_s") else None,
        },
        "scaling_multiproc": scaling,
        "baseline_pre_change": baseline,
        "engine_vs_pre_change_ratio": round(engine_ratio, 3),
        "total_wall_s": round(time.perf_counter() - t0, 2),
    }
    out_path.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(f"[perf] wrote {out_path} ({snapshot['total_wall_s']}s total)",
          file=sys.stderr)
    print(json.dumps(snapshot, indent=2, sort_keys=True))

    if sweep_diverged or repl_diverged:
        print("[perf] FAIL: parallel results diverged from serial",
              file=sys.stderr)
        return 1
    if live_failed:
        print("[perf] FAIL: live cluster run violated the checker or "
              "shut down uncleanly", file=sys.stderr)
        return 1
    if pipelined_failed:
        print("[perf] FAIL: pipelined live run violated the checker or "
              "shut down uncleanly", file=sys.stderr)
        return 1
    if fsync_failed:
        print("[perf] FAIL: a persistent (WAL) live run violated the "
              "checker or shut down uncleanly", file=sys.stderr)
        return 1
    if batching_failed:
        print("[perf] FAIL: a replication-batching sim run violated the "
              "checker or missed the message-reduction bar", file=sys.stderr)
        return 1
    if pipelined_batched_failed:
        print("[perf] FAIL: the batched pipelined live run violated the "
              "checker or shut down uncleanly", file=sys.stderr)
        return 1
    if lossy_failed:
        print("[perf] FAIL: the lossy-link anti-entropy leg missed its "
              "gate (see above)", file=sys.stderr)
        return 1
    if obs_failed:
        print("[perf] FAIL: the observability-overhead leg missed its "
              "gate (checker, vacuity, or the >= 0.97 on/off throughput "
              "bar — see above)", file=sys.stderr)
        return 1
    if reshard_failed:
        print("[perf] FAIL: the online resharding leg missed its gate "
              "(checker, divergence, completion, or vacuity — see above)",
              file=sys.stderr)
        return 1
    if scaling_failed:
        print("[perf] FAIL: the multi-process scaling leg missed a gate "
              "(checker, clean shutdown, supervisor exit, or the scaling "
              "bar — see above)", file=sys.stderr)
        return 1
    if frame_decoder["speedup"] < 2.0:
        # Warning only here: the hard >= 2x gate is the pytest benchmark
        # (tests always run it); trajectory runs on contended runners
        # should not flake the whole snapshot on one noisy timing.
        print(f"[perf] WARNING: frame-decoder batched-chunk speedup at "
              f"{frame_decoder['speedup']}x (pytest gate requires >= 2x "
              f"on a quiet machine)", file=sys.stderr)
    if engine_ratio < 0.85:
        # Warning only, never a failure: hosted-runner hardware varies
        # run to run, so absolute throughput is comparable just within a
        # machine class.  Check the ratio by hand when the snapshot was
        # recorded on the baseline machine class.
        print(f"[perf] WARNING: engine micro-bench at "
              f"{engine_ratio:.2f}x of the recorded pre-change baseline "
              f"({baseline['machine']})", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
