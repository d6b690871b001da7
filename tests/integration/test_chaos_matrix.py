"""The hostile-network chaos layer, end to end.

Three properties anchor the PR-7 acceptance criteria:

1. **Loss needs anti-entropy.**  Under sustained replication-message
   loss the replicas *diverge* without the backfill and *converge* with
   it — demonstrating both that the fault is real and that the repair
   path repairs it.
2. **Off means off.**  With anti-entropy disabled and no lossy links
   configured, a run is byte-identical to one that never heard of the
   knobs: no timers, no RNG draws, no extra events.
3. **The matrix gates.**  ``run_chaos_matrix`` runs named scenarios
   under the causal checker and the convergence audit, and its verdicts
   actually reflect the gates.
"""

from __future__ import annotations

from dataclasses import replace

from repro.common.config import (
    AntiEntropyConfig,
    ExperimentConfig,
    ReplicationBatchConfig,
    WorkloadConfig,
    smoke_scale_cluster,
)
from repro.harness.builders import build_cluster
from repro.harness.experiment import run_experiment
from repro.runtime.chaos import SCENARIOS, run_chaos_matrix

#: Replication traffic only: client traffic stays reliable, so every
#: protocol keeps serving and the damage is confined to geo-replication
#: (what anti-entropy exists to repair).
_REPL_KINDS = ("Replicate", "ReplicateBatch")


def _lossy_config(anti_entropy: bool, seed: int = 9041) -> ExperimentConfig:
    cluster = smoke_scale_cluster("pocc")
    if anti_entropy:
        cluster = replace(cluster, anti_entropy=AntiEntropyConfig(enabled=True))
    return ExperimentConfig(
        cluster=cluster,
        workload=WorkloadConfig(kind="get_put", gets_per_put=1,
                                clients_per_partition=2,
                                think_time_s=0.005),
        warmup_s=0.2,
        duration_s=1.5,
        seed=seed,
        verify=True,
        name=f"lossy-ae-{'on' if anti_entropy else 'off'}",
    )


def _run_lossy(anti_entropy: bool):
    config = _lossy_config(anti_entropy)
    built = build_cluster(config)
    # 8% loss on every inter-DC replication channel, never stopped: the
    # holes must be repaired (or not) by the protocol itself, not by a
    # healed network.
    for src in range(3):
        for dst in range(3):
            if src != dst:
                built.faults.schedule_loss(0.3, src, dst, 0.08,
                                           kinds=_REPL_KINDS)
    result = run_experiment(config, built=built)
    return built, result


def test_replication_loss_diverges_without_anti_entropy():
    """The control arm: dropped Replicates leave permanent holes."""
    built, result = _run_lossy(anti_entropy=False)
    assert built.network.stats.messages_dropped > 0
    assert result.divergences > 0
    servers = next(iter(built.servers.values()))
    assert servers.ae_digests_sent == 0  # the repair path never ran


def test_replication_loss_converges_with_anti_entropy():
    """The treatment arm: same seed, same loss, backfill on — replicas
    converge.

    Convergence, not checker-cleanliness: anti-entropy repairs a hole
    about one digest period after the drop, but this run *sustains* 8%
    loss through the measured window, and optimistic POCC serves reads
    from whatever is locally freshest while heartbeats advance the VV
    past the dropped Replicate — a read landing inside the repair window
    can still be stale (and the checker duly counts it).  The matrix's
    ``lossy-1pct`` scenario, where loss stops before the drain, gates on
    zero violations; under loss that never stops the durable guarantee
    anti-entropy restores is convergence."""
    built, result = _run_lossy(anti_entropy=True)
    assert built.network.stats.messages_dropped > 0
    assert result.divergences == 0
    digests = sum(s.ae_digests_sent for s in built.servers.values())
    repairs = sum(s.ae_repairs_applied for s in built.servers.values())
    assert digests > 0
    assert repairs > 0  # the convergence was *earned*, not incidental


def test_chaos_knobs_off_is_byte_identical():
    """A config that spells out the disabled chaos knobs produces the
    identical run to one using the defaults: no timers, no RNG draws, no
    events.  This is the per-seed reproducibility guarantee that keeps
    every pre-chaos regression baseline valid."""
    base = _lossy_config(anti_entropy=False)
    spelled = replace(
        base,
        cluster=replace(
            base.cluster,
            anti_entropy=AntiEntropyConfig(enabled=False),
            repl_batch=ReplicationBatchConfig(max_versions=1),
        ),
    )
    first = run_experiment(base)
    second = run_experiment(spelled)
    assert first.total_ops == second.total_ops
    assert first.sim_events == second.sim_events
    assert first.verification == second.verification


def test_partition_during_replicate_batch_flush():
    """A partition that slams shut while batched replication is in
    flight: buffered versions flush into a held channel, the heal
    releases them in order, and nothing is lost or reordered (no
    violations, no divergence)."""
    cluster = replace(
        smoke_scale_cluster("pocc"),
        repl_batch=ReplicationBatchConfig(max_versions=64, flush_ms=10.0),
    )
    config = ExperimentConfig(
        cluster=cluster,
        workload=WorkloadConfig(kind="get_put", gets_per_put=1,
                                clients_per_partition=2,
                                think_time_s=0.002),
        warmup_s=0.2,
        duration_s=1.5,
        seed=515,
        verify=True,
        name="partition-vs-batch-flush",
    )
    built = build_cluster(config)
    # Partitions land at arbitrary offsets inside the 10 ms flush cadence,
    # so some batches are mid-flight (sent, not delivered) when the cut
    # lands and are held; others get buffered behind the cut.
    built.faults.schedule_partition(0.404, [0], [1, 2], heal_after=0.3)
    built.faults.schedule_partition(0.951, [2], [0, 1], heal_after=0.3)
    result = run_experiment(config, built=built)
    stats = built.network.stats
    assert stats.messages_held > 0  # the cut caught traffic in flight
    assert built.faults.partitions_healed == 2
    assert result.verification["violations"] == 0
    assert result.divergences == 0


def test_chaos_matrix_scenarios_are_wired():
    expected = {"asym-partition", "lossy-1pct", "slow-link-10x",
                "clock-spike", "stalled-disk", "dc-failover",
                "reshard-kill-donor", "reshard-kill-joiner",
                "reshard-kill-bystander"}
    assert expected == set(SCENARIOS)
    # The reshard cells are a deployment-feature gate, not a protocol
    # axis: they run once, under the paper's subject protocol.
    for name in ("reshard-kill-donor", "reshard-kill-joiner",
                 "reshard-kill-bystander"):
        assert SCENARIOS[name].protocols == ("pocc",)


def test_chaos_matrix_reduced_run_passes():
    """One sim scenario of each flavor through the real matrix driver:
    verdicts carry the gates (non-vacuity counters included) and the
    report aggregates them."""
    report = run_chaos_matrix(protocols=("pocc",),
                              scenarios=("asym-partition", "lossy-1pct"),
                              seed=20177)
    assert report.passed
    by_name = {v.scenario: v for v in report.verdicts}
    assert by_name["asym-partition"].details["one_way_cuts"] == 2
    assert by_name["lossy-1pct"].details["dropped"] > 0
    assert by_name["lossy-1pct"].details["ae_repairs"] > 0
    for verdict in report.verdicts:
        assert verdict.violations == 0
        assert verdict.divergences == 0
        assert verdict.total_ops > 0
