"""The benchmark's workloads: configurations and what each one is for.

``BENCHMARK.json`` has room for one line of *why* per workload; the
full record -- the layers a workload loads heavily and lightly, and the
end-to-end metrics each layer metric is predicted to move -- lives here
and is printed by ``python3 perfbench/run.py --describe``.
"""

from __future__ import annotations

from pathlib import Path

#: Every workload runs the paper's protocol.
PROTOCOL = "pocc"

LIVE = ("live-read", "live-write-durable")
SIM = ("sim-geo",)
NAMES = LIVE + SIM

#: Warmup before each repetition's window: wall seconds (live),
#: simulated seconds (sim).
WARMUP_S = {"live-read": 0.5, "live-write-durable": 0.5, "sim-geo": 0.5}

#: Measured window of one sim-geo repetition, simulated seconds.
SIM_WINDOW_S = 2.0

#: WAL snapshot interval of live-write-durable: several snapshots finish
#: inside every window.
SNAPSHOT_INTERVAL_S = 1.0

DESCRIPTIONS = {
    "live-read": {
        "why": "Read-heavy POCC over real loopback TCP in one process: "
               "loads codec, transport, event loop and the server "
               "GET/slice paths; a 100-key partition keeps the checker "
               "cheap.",
        "shape": "2 DCs x 2 partitions, 100 keys/partition, zipf 0.99; "
                 "85% GET / 10% RO-TX (2 partitions) / 5% PUT; closed "
                 "loop, 4 sessions, zero think time; persistence and "
                 "replication batching off; loopback inter-DC delay.",
        "heavy": ["runtime.codec", "runtime.transport", "runtime.loop",
                  "protocols.server", "protocols.client", "gc"],
        "light": ["verification", "storage", "persistence (off)",
                  "sim.* (not run)"],
    },
    "live-write-durable": {
        "why": "Write-heavy POCC with a WAL fsynced on every ack and "
               "periodic snapshots: group commit, fsync, replication "
               "fan-out and a checker copying causal pasts over 1,000 "
               "keys.",
        "shape": "2 DCs x 2 partitions, 1,000 keys/partition, zipf 0.99; "
                 "40% GET / 40% PUT / 20% RO-TX; closed loop, 4 "
                 "sessions, zero think time; persistence on, fsync "
                 "always, fresh data directory, snapshot every 1 s.",
        "heavy": ["persistence", "verification", "runtime.codec",
                  "runtime.transport", "runtime.loop", "gc"],
        "light": ["workload", "sim.* (not run)"],
    },
    "sim-geo": {
        "why": "The discrete-event simulator as the figure benches use "
               "it: 3 WAN DCs x 6 partitions, 72 sessions, real POCC "
               "blocking, checker and convergence check on.",
        "shape": "3 DCs x 6 partitions, default WAN latency matrix and "
                 "clock skew, 1,000 keys/partition, zipf 0.99; 75% GET / "
                 "20% RO-TX (2 partitions) / 5% PUT; closed loop, 4 "
                 "sessions per partition per DC, 10 ms think time; 0.5 s "
                 "simulated warmup + 2 s measured.",
        "heavy": ["sim.engine", "sim.network", "sim.latency",
                  "cluster.cpu", "protocols.server", "verification",
                  "storage"],
        "light": ["runtime.* (not run)", "persistence (not run)"],
    },
}

#: The gate's self-check runs the sim-geo deployment and mix under the
#: deliberately unsafe ``eventual`` strawman, which the causal checker
#: must catch.  Its anomalies need a causal chain that overtakes a direct
#: replication message: under the default WAN matrix (a 6 ms margin on
#: the triangle inequality) and 10 ms think time none materialize, so
#: the self-check routes through a middle DC that beats the direct link
#: (the protocol fuzz suite's geometry) with zero think time.
SELF_CHECK_PROTOCOL = "eventual"
RELAY_WAN_S = ((0.0, 0.010, 0.080),
               (0.010, 0.0, 0.010),
               (0.080, 0.010, 0.0))

#: Which end-to-end metric each layer metric should move, and where it
#: should stay flat (written before any optimisation is measured).
PREDICTIONS = [
    "Every run is one CPU-bound thread driven closed loop: a layer's "
    "saving lifts throughput_ops_s by at most its share, and the p50 "
    "latencies follow; p90 also follows gc pauses and fsync.",
    "runtime.codec.share -> throughput_ops_s and get_p50_ms on live-read "
    "and live-write-durable; flat on sim-geo.",
    "runtime.transport.frames_per_write and runtime.loop.share -> "
    "get_p90_ms and throughput_ops_s on live-read; flat on sim-geo.",
    "protocols.block_prob.slice_vv and protocols.server.self_us_per_op "
    "-> ro_tx_p90_ms on live-read and throughput_ops_s on sim-geo.",
    "persistence.fsync_p99_ms and persistence.records_per_sync -> "
    "put_p90_ms and throughput_ops_s on live-write-durable; flat on the "
    "other two (WAL off).",
    "verification.share -> throughput_ops_s on sim-geo and "
    "live-write-durable, and peak_rss_mb on live-write-durable; small on "
    "live-read.",
    "sim.network, sim.latency, cluster.cpu, sim.engine and storage -> "
    "throughput_ops_s on sim-geo only.",
    "gc.share -> throughput and p90 on all three workloads.",
]


def experiment_config(workload: str, seed: int, window_s: float,
                      data_dir: Path | None = None, self_check: bool = False):
    """The :class:`ExperimentConfig` of one repetition of ``workload``
    (``self_check``: the sim-geo deployment under the unsafe strawman)."""
    from repro.common.config import (
        ClusterConfig,
        ExperimentConfig,
        LatencyConfig,
        PersistenceConfig,
        WorkloadConfig,
    )

    if workload == "sim-geo":
        cluster = ClusterConfig(num_dcs=3, num_partitions=6,
                                keys_per_partition=1000, protocol=PROTOCOL)
        mix = WorkloadConfig(kind="mixed", read_ratio=0.75, tx_ratio=0.20,
                             tx_partitions=2, clients_per_partition=4,
                             think_time_s=0.010, zipf_theta=0.99)
        if self_check:
            cluster = ClusterConfig(
                num_dcs=3, num_partitions=6, keys_per_partition=1000,
                protocol=SELF_CHECK_PROTOCOL,
                latency=LatencyConfig(inter_dc_s=RELAY_WAN_S))
            mix = WorkloadConfig(kind="mixed", read_ratio=0.75,
                                 tx_ratio=0.20, tx_partitions=2,
                                 clients_per_partition=4, think_time_s=0.0,
                                 zipf_theta=0.99)
        return ExperimentConfig(cluster=cluster, workload=mix,
                                warmup_s=WARMUP_S[workload],
                                duration_s=window_s, seed=seed, verify=True,
                                name=workload)
    if workload == "live-read":
        keys, read, tx = 100, 0.85, 0.10
        persistence = PersistenceConfig()
    elif workload == "live-write-durable":
        keys, read, tx = 1000, 0.40, 0.20
        persistence = PersistenceConfig(
            enabled=True, data_dir=str(data_dir), fsync="always",
            snapshot_interval_s=SNAPSHOT_INTERVAL_S)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if self_check:
        raise ValueError("the self-check runs the sim-geo deployment")
    cluster = ClusterConfig(num_dcs=2, num_partitions=2,
                            keys_per_partition=keys, protocol=PROTOCOL)
    mix = WorkloadConfig(kind="mixed", read_ratio=read, tx_ratio=tx,
                         tx_partitions=2, clients_per_partition=1,
                         think_time_s=0.0, zipf_theta=0.99)
    return ExperimentConfig(cluster=cluster, workload=mix,
                            warmup_s=WARMUP_S[workload], duration_s=window_s,
                            seed=seed, verify=True, name=workload,
                            persistence=persistence)
