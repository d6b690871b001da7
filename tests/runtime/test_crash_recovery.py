"""Crash/restart acceptance: the durability subsystem end to end.

Two layers:

* in-process restart tests — boot a persistent live cluster, run a
  workload, shut down (cleanly or with the flush skipped), boot a second
  cluster from the same data dir and verify the recovered state;
* the kill/restart chaos test — one partition server runs as a real OS
  subprocess, is SIGKILLed mid-workload, restarts from its WAL, and the
  run must end with zero causal violations, zero lost acknowledged
  writes, post-restart progress and a clean SIGTERM exit (the CI
  ``crash-smoke`` gate).
"""

import asyncio

import pytest

from repro.common.config import (
    ClusterConfig,
    ExperimentConfig,
    PersistenceConfig,
    WorkloadConfig,
)
from repro.common.types import server_address
from repro.persistence.manager import partition_dirname, recover_directory
from repro.runtime.chaos import CrashFault, run_crash_experiment
from repro.runtime.cluster import run_live_experiment


def _config(tmp_path, protocol="pocc", duration_s=1.0, fsync="always",
            snapshot_interval_s=0.4, seed=23) -> ExperimentConfig:
    return ExperimentConfig(
        cluster=ClusterConfig(num_dcs=2, num_partitions=2,
                              keys_per_partition=40, protocol=protocol),
        workload=WorkloadConfig(kind="mixed", read_ratio=0.8, tx_ratio=0.1,
                                tx_partitions=2, clients_per_partition=2,
                                think_time_s=0.008),
        warmup_s=0.2,
        duration_s=duration_s,
        seed=seed,
        verify=True,
        name=f"crash-recovery-{protocol}",
        persistence=PersistenceConfig(
            enabled=True, data_dir=str(tmp_path), fsync=fsync,
            snapshot_interval_s=snapshot_interval_s,
        ),
    )


# ----------------------------------------------------------------------
# In-process restart
# ----------------------------------------------------------------------
def test_persistent_run_then_restart_recovers_every_acked_write(tmp_path):
    config = _config(tmp_path)
    first = run_live_experiment(config)
    assert first.passed, first.errors
    assert any(stats["wal_records_appended"] > 0
               for stats in first.persistence.values())

    second = run_live_experiment(config)
    assert second.passed, second.errors
    # Every partition came back with state, and the second run's checker
    # saw a causally consistent world built on the recovered chains.
    assert all(stats["recovered_versions"] > 0
               for stats in second.persistence.values())
    assert second.violations == []


def test_restart_preserves_acked_writes_on_disk(tmp_path):
    """Direct disk check: every version the WAL acked in run one is
    present (or dominated) in what a recovery pass reads back."""
    config = _config(tmp_path)
    report = run_live_experiment(config)
    assert report.passed, report.errors
    for dc in range(2):
        for partition in range(2):
            directory = tmp_path / partition_dirname(
                server_address(dc, partition)
            )
            state = recover_directory(directory, truncate=False,
                                      delete_covered=False)
            assert state.had_state
            # Preloaded keys plus whatever the workload wrote.
            assert len(state.versions) >= 40
            assert state.torn_bytes_truncated == 0  # clean shutdown


def test_snapshot_truncates_the_log(tmp_path):
    """With aggressive snapshotting the WAL must not keep every segment
    ever written: old segments are covered and deleted."""
    from repro.persistence.wal import list_segments
    config = _config(tmp_path, duration_s=1.5, snapshot_interval_s=0.3)
    report = run_live_experiment(config)
    assert report.passed, report.errors
    for stats in report.persistence.values():
        assert stats["snapshots_written"] >= 2
    for dc in range(2):
        for partition in range(2):
            directory = tmp_path / partition_dirname(
                server_address(dc, partition)
            )
            # Everything before the newest snapshot's segment is gone.
            segments = list_segments(directory)
            assert len(segments) <= 2


def test_flush_failure_is_reported_not_swallowed(tmp_path):
    """The graceful-shutdown satellite: a failing WAL flush must fail the
    run (serve exits non-zero on the same signal)."""
    from repro.runtime.cluster import LiveCluster

    config = _config(tmp_path, duration_s=0.4, snapshot_interval_s=0)
    cluster = LiveCluster(config)

    class Exploding:
        def flush(self):
            raise OSError("disk on fire")

    cluster.durability = {server_address(0, 0): Exploding()}
    assert cluster.flush_persistence() is False
    assert any("WAL flush failed" in error for error in cluster.hub.errors)


def test_wal_close_failure_fails_the_shutdown(tmp_path):
    """Closing the WAL is its final sync (it covers records persisted
    during the post-flush drain), so a failing close must fail the
    shutdown report that serve and the loadgen server host exit on."""
    from repro.runtime.cluster import LiveCluster

    config = _config(tmp_path, duration_s=0.4, snapshot_interval_s=0)
    cluster = LiveCluster(config)

    class FailsOnClose:
        wal = None
        snapshots_written = 0

        def flush(self):
            pass

        def close(self):
            raise OSError("final sync failed")

    cluster.durability = {server_address(0, 0): FailsOnClose()}
    report = asyncio.run(cluster.shutdown())
    assert report.clean_shutdown is False
    assert any("WAL close failed" in error for error in report.errors)


def test_group_commit_live_run_recovers_every_acked_write(tmp_path):
    """Group-commit end to end on the live path: an open-loop run under
    ``fsync: always`` batches same-tick appends into shared syncs (the
    WAL stats prove batches really formed), and a second boot from the
    same data dir recovers a state the checker accepts."""
    config = _config(tmp_path)
    config = ExperimentConfig(
        cluster=config.cluster,
        workload=WorkloadConfig(kind="mixed", read_ratio=0.7, tx_ratio=0.1,
                                tx_partitions=2, clients_per_partition=2,
                                think_time_s=0.0, arrival="open",
                                rate_ops_s=150.0),
        warmup_s=0.2, duration_s=1.0, seed=23, verify=True,
        name="crash-recovery-groupcommit", persistence=config.persistence,
    )
    first = run_live_experiment(config)
    assert first.passed, first.errors
    appended = sum(s["wal_records_appended"]
                   for s in first.persistence.values())
    commits = sum(s["wal_group_commits"] for s in first.persistence.values())
    assert appended > 0 and commits > 0
    # Amortization actually happened: fewer batches than records, and at
    # least one batch carried more than one record.
    assert commits <= appended
    assert any(s["wal_max_batch_records"] > 1
               for s in first.persistence.values()), (
        "open-loop load never co-scheduled two appends in one tick?"
    )

    second = run_live_experiment(config)
    assert second.passed, second.errors
    assert all(s["recovered_versions"] > 0
               for s in second.persistence.values())


# ----------------------------------------------------------------------
# The kill/restart chaos gate
# ----------------------------------------------------------------------
def test_sigkill_restart_loses_nothing_and_stays_causal(tmp_path):
    """The acceptance criterion: SIGKILL a partition server mid-workload,
    restart it from its data dir, and require (a) zero checker
    violations, (b) zero acknowledged-write loss, (c) post-restart
    progress, (d) a clean graceful shutdown afterwards."""
    config = _config(tmp_path, duration_s=5.0, seed=11,
                     snapshot_interval_s=1.0)
    config = ExperimentConfig(
        cluster=config.cluster,
        workload=WorkloadConfig(kind="mixed", read_ratio=0.8, tx_ratio=0.1,
                                tx_partitions=2, clients_per_partition=2,
                                think_time_s=0.01),
        warmup_s=0.5, duration_s=5.0, seed=11, verify=True,
        name="crash-chaos", persistence=config.persistence,
    )
    report = run_crash_experiment(
        config,
        CrashFault(dc=0, partition=0, kill_after_s=1.5, downtime_s=1.5),
        base_port=7643,
    )
    assert report.live.violations == [], report.summary_text()
    assert report.lost_writes == [], report.summary_text()
    assert report.acked_victim_writes > 0, report.summary_text()
    assert report.ops_after_restart > 0, report.summary_text()
    assert report.server_exit_code == 0, report.summary_text()
    assert report.passed
    # The victim really did restart from disk, not from scratch.
    assert report.recovered_versions >= 40  # preload at minimum


def test_crash_experiment_rejects_misconfiguration(tmp_path):
    from repro.common.errors import ReproError

    config = _config(tmp_path)
    no_verify = ExperimentConfig(
        cluster=config.cluster, workload=config.workload,
        warmup_s=0.1, duration_s=1.0, seed=1, verify=False,
        persistence=config.persistence,
    )
    with pytest.raises(ReproError):
        run_crash_experiment(no_verify, CrashFault(), base_port=7700)

    no_persistence = ExperimentConfig(
        cluster=config.cluster, workload=config.workload,
        warmup_s=0.1, duration_s=1.0, seed=1, verify=True,
    )
    with pytest.raises(ReproError):
        run_crash_experiment(no_persistence, CrashFault(), base_port=7700)


# ----------------------------------------------------------------------
# The acked-write audit's failure side, on synthetic data dirs
# ----------------------------------------------------------------------
def _disk(tmp_path, dc, partition, versions):
    """Log ``(key, sr, ut)`` versions into one partition's directory."""
    from repro.persistence.manager import PartitionDurability
    from repro.storage.version import Version

    config = PersistenceConfig(enabled=True, data_dir=str(tmp_path),
                               fsync="always")
    durability = PartitionDurability(tmp_path, server_address(dc, partition),
                                     config)
    durability.recover()
    for key, sr, ut in versions:
        durability.append_version(
            Version(key=key, value=ut, sr=sr, ut=ut, dv=(0, 0)))
    durability.close()


def _audit(tmp_path, *acked):
    from repro.cluster.topology import Topology
    from repro.runtime.chaos import audit_acked_writes
    from repro.verification.history import WriteEvent

    writes = [WriteEvent(client="c", key=key, version=(key, sr, ut),
                         time_s=0.5) for key, sr, ut in acked]
    return audit_acked_writes(Topology(2, 2), writes, tmp_path)


def test_audit_reports_an_acked_write_missing_from_disk(tmp_path):
    _disk(tmp_path, 0, 0, [("k1", 0, 10)])
    # DC 1 holds a replica of the lost write: the audit is per origin
    # DC, so another DC's copy does not excuse DC 0's loss.
    _disk(tmp_path, 1, 0, [("k1", 0, 10), ("k2", 0, 20)])
    acked, lost, recovered = _audit(tmp_path, ("k1", 0, 10), ("k2", 0, 20))
    assert len(acked) == 2
    assert len(lost) == 1 and "('k2', 0, 20)" in lost[0]
    assert recovered == {server_address(0, 0): 1, server_address(1, 0): 2}


def test_audit_accepts_a_write_dominated_by_a_newer_version(tmp_path):
    # Garbage collection or a snapshot dropped ut=10; ut=30 supersedes it
    # in last-writer-wins order, so no reader could miss the older one.
    _disk(tmp_path, 0, 1, [("k1", 0, 30)])
    _, lost, _ = _audit(tmp_path, ("k1", 0, 10))
    assert lost == []
    # An *older* version on disk does not dominate a newer acked one.
    _, lost, _ = _audit(tmp_path, ("k1", 0, 40))
    assert len(lost) == 1


def test_audit_finds_a_write_moved_to_another_partition_of_its_dc(tmp_path):
    # After a reshard the key's chain lives in a partition directory of
    # the same DC other than its boot-time owner's (the donor purged its
    # copy): not lost.
    from repro.cluster.topology import Topology

    owner = Topology(2, 2).partition_of("moved")
    _disk(tmp_path, 0, owner, [])
    _disk(tmp_path, 0, 1 - owner, [("moved", 0, 50)])
    _, lost, recovered = _audit(tmp_path, ("moved", 0, 50))
    assert lost == []
    assert recovered[server_address(0, owner)] == 0
