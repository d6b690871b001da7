"""Supervisor lifecycle acceptance: ``repro-supervise`` end to end.

Three gates:

* SIGTERM to the supervisor fans out to every child, the children run
  the graceful WAL-before-transport shutdown, and the supervisor exits
  0 — the normal teardown of a multi-process deployment;
* a SIGKILLed child fails fast: the supervisor stops the remaining
  children and propagates the death as its own non-zero exit status
  (``128 + signum``), so a half-dead deployment can never look healthy;
* the PR-4 kill/restart chaos gate still holds when the victim runs one
  process layer deeper, behind a one-child supervisor tree: SIGKILL the
  supervisor, PDEATHSIG reaps the serve child, and the restarted tree
  recovers the same data directory with zero causal violations and zero
  acknowledged-write loss.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.common.config import (
    ClusterConfig,
    ExperimentConfig,
    PersistenceConfig,
    WorkloadConfig,
)
from repro.runtime.chaos import CrashFault, run_crash_experiment
from repro.runtime.supervisor import subprocess_env

#: Below the crash tests' 7643/7700 range and the live tests' 9000.
_SIGTERM_PORT = 7810
_SIGKILL_PORT = 7830
_CRASH_PORT = 7860


def _start_supervisor(log_dir: Path, base_port: int,
                      extra: tuple = ()) -> subprocess.Popen:
    command = [
        sys.executable, "-m", "repro.runtime.supervisor",
        "--protocol", "pocc", "--dcs", "2", "--partitions", "1",
        "--clients", "1", "--base-port", str(base_port),
        "--log-dir", str(log_dir), *extra,
    ]
    stderr = open(log_dir / "supervisor.log", "ab")
    try:
        return subprocess.Popen(command, env=subprocess_env(),
                                stdout=stderr, stderr=stderr)
    finally:
        stderr.close()


def _wait_for_listening(log_dir: Path, labels: list[str],
                        timeout_s: float = 30.0) -> None:
    """Every child logs a ``listening on`` line once its socket is
    bound; polling the logs avoids poking the real ports (a probe
    connection would show up in the servers' error accounting)."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        ready = 0
        for label in labels:
            log_path = log_dir / f"{label}.log"
            try:
                if "listening on" in log_path.read_text(errors="replace"):
                    ready += 1
            except OSError:
                pass
        if ready == len(labels):
            return
        time.sleep(0.1)
    raise AssertionError(
        f"children {labels} never reported listening; supervisor log:\n"
        + (log_dir / "supervisor.log").read_text(errors="replace")
    )


def _reap(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
        proc.wait()


def test_sigterm_fans_out_and_exits_zero(tmp_path):
    proc = _start_supervisor(tmp_path, _SIGTERM_PORT)
    try:
        _wait_for_listening(tmp_path, ["dc0-p0", "dc1-p0"])
        children = json.loads((tmp_path / "children.json").read_text())
        assert len(children) == 2
        assert all(child["returncode"] is None for child in children)

        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0
    finally:
        _reap(proc)
    # Every child took the graceful path and said so.
    for label in ("dc0-p0", "dc1-p0"):
        assert "clean shutdown" in (tmp_path / f"{label}.log").read_text()
    children = json.loads((tmp_path / "children.json").read_text())
    assert all(child["returncode"] == 0 for child in children)


def test_sigkilled_child_fails_the_supervisor(tmp_path):
    proc = _start_supervisor(tmp_path, _SIGKILL_PORT)
    try:
        _wait_for_listening(tmp_path, ["dc0-p0", "dc1-p0"])
        children = json.loads((tmp_path / "children.json").read_text())
        victim = next(c for c in children
                      if c["dc"] == 0 and c["partition"] == 0)

        os.kill(victim["pid"], signal.SIGKILL)
        # The child's SIGKILL propagates as the supervisor's own status.
        assert proc.wait(timeout=30) == 128 + signal.SIGKILL
    finally:
        _reap(proc)
    children = {(c["dc"], c["partition"]): c for c in json.loads(
        (tmp_path / "children.json").read_text()
    )}
    assert children[(0, 0)]["returncode"] == -signal.SIGKILL
    # The sibling was stopped, not orphaned (its death may be clean or
    # may report the dead peer — either way it exited and was recorded).
    assert children[(1, 0)]["returncode"] is not None


def test_crash_gate_holds_through_the_supervisor(tmp_path):
    """The PR-4 acceptance gate with the victim one layer deeper: the
    SIGKILL lands on a one-child supervisor tree, and the restart (also
    through the supervisor) must recover from the data dir."""
    config = ExperimentConfig(
        cluster=ClusterConfig(num_dcs=2, num_partitions=2,
                              keys_per_partition=40, protocol="pocc"),
        workload=WorkloadConfig(kind="mixed", read_ratio=0.8, tx_ratio=0.1,
                                tx_partitions=2, clients_per_partition=2,
                                think_time_s=0.01),
        warmup_s=0.5,
        duration_s=6.0,
        seed=11,
        verify=True,
        name="crash-supervised",
        persistence=PersistenceConfig(
            enabled=True, data_dir=str(tmp_path), fsync="always",
            snapshot_interval_s=1.0,
        ),
    )
    report = run_crash_experiment(
        config,
        # A slightly later kill than the bare-serve test: the victim
        # boots two interpreters (supervisor + child) before serving.
        CrashFault(dc=0, partition=0, kill_after_s=2.0, downtime_s=1.5),
        base_port=_CRASH_PORT,
        supervise=True,
    )
    assert report.live.violations == [], report.summary_text()
    assert report.lost_writes == [], report.summary_text()
    assert report.acked_victim_writes > 0, report.summary_text()
    assert report.ops_after_restart > 0, report.summary_text()
    assert report.server_exit_code == 0, report.summary_text()
    assert report.passed
    assert report.recovered_versions >= 40
