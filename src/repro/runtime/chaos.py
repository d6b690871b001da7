"""Chaos harnesses: kill/restart crash-recovery and the hostile-network
chaos matrix.

:func:`run_crash_experiment` is ``run_live_experiment`` with a fault
knob: one partition server (the *victim*) runs as a real OS subprocess
(``python -m repro.runtime.serve --dc D --partition P --data-dir …``)
while everything else runs in-process on the :class:`LiveCluster`
lifecycle.  Inside the measurement window the victim is **SIGKILLed**,
left down for a configured time and restarted from its data directory
(WAL + snapshot recovery, then replication catch-up); between the
window and the shutdown it is SIGTERMed, exercising its graceful path
(flush the WAL before the transport, exit non-zero on failure) too.

:func:`run_chaos_matrix` runs the named hostile-network scenarios
(asymmetric cuts, probabilistic loss, congested links, clock-skew
spikes, stalled disks, full-DC failover, kill-mid-reshard on the same
victim runner) across protocols, each cell gated on **zero
causal-checker violations and replica convergence** — see the
module-level ``SCENARIOS`` registry and ``docs/chaos.md``.

The verdict (:class:`CrashReport`) gates on exactly what the paper's
fault-tolerance story needs and nothing the crash legitimately breaks:

* the independent :class:`~repro.verification.checker.CausalChecker`
  reports **zero violations** over the whole run, crash included;
* **no acknowledged write is lost** (:func:`audit_acked_writes`), and
  the victim acknowledged some;
* the victim **rejoins**: operations complete after the restart;
* the final SIGTERM shutdown exits 0 (WAL flushed cleanly).

Transport errors (dead senders, truncated streams) and stalled in-flight
operations are *expected* collateral of a SIGKILL and are reported, not
gated on.
"""

from __future__ import annotations

import asyncio
import contextlib
import sys
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Awaitable, Callable, Iterable, Iterator, Sequence

from repro.common.config import (
    AntiEntropyConfig,
    ExperimentConfig,
    PersistenceConfig,
    WorkloadConfig,
    smoke_scale_cluster,
)
from repro.common.errors import ReproError
from repro.common.types import Address, version_order_key
from repro.cluster.topology import Topology
from repro.harness.builders import BuiltCluster, build_cluster
from repro.harness.experiment import ExperimentResult, run_experiment
from repro.runtime.cluster import LiveCluster, LiveReport
from repro.runtime.configfile import save_experiment_config
from repro.runtime.supervisor import TERM_TIMEOUT_S, subprocess_env
from repro.runtime.transport import LiveHub
from repro.verification.convergence import check_convergence
from repro.verification.history import WriteEvent

# NOTE: repro.persistence imports are deferred into the functions below:
# persistence depends on the codec (hence on this package's __init__), so
# a module-level import here would be circular.

#: Quiesce budget of a run whose victim was SIGKILLed: operations in
#: flight at the kill died with their frames and never complete.
CRASH_SETTLE_S = 3.0


@dataclass(slots=True)
class CrashFault:
    """One SIGKILL + restart of a single partition server."""

    dc: int = 0
    partition: int = 0
    #: Seconds into the measurement window at which the victim dies.
    kill_after_s: float = 1.0
    #: How long the victim stays down before it is restarted.
    downtime_s: float = 1.0


@dataclass(slots=True)
class CrashReport:
    """Everything measured across one kill/restart run."""

    live: LiveReport
    kill_time_s: float
    restart_time_s: float
    #: Exit status of the victim's final (SIGTERM) shutdown.
    server_exit_code: int | None
    #: PUTs the victim acknowledged (observed by the driving process) —
    #: the non-vacuity gate: a crash that hit an idle server proves
    #: nothing about durability.
    acked_victim_writes: int
    #: Acknowledged writes (of any partition) absent from — and not
    #: dominated in — their origin DC's recovered on-disk state.  Must
    #: be empty.
    lost_writes: list[str] = field(default_factory=list)
    #: Operations that completed after the victim came back.
    ops_after_restart: int = 0
    #: Versions the victim's own directory recovers after the run.
    recovered_versions: int = 0
    victim_dir: str = ""

    @property
    def passed(self) -> bool:
        return (not self.live.violations
                and not self.lost_writes
                and self.ops_after_restart > 0
                and self.acked_victim_writes > 0
                and self.server_exit_code == 0)

    def summary_text(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        lines = [
            f"crash/restart [{self.live.protocol}] "
            f"victim dir {self.victim_dir}: {verdict}",
            f"  checker         : {len(self.live.violations)} violations "
            f"over {self.live.verification['reads_checked']} reads",
            f"  durability      : {self.acked_victim_writes} acked victim "
            f"writes, {len(self.lost_writes)} acked writes lost "
            f"({self.recovered_versions} versions recovered on disk)",
            f"  rejoin          : {self.ops_after_restart} ops completed "
            f"after restart",
            f"  graceful stop   : exit code {self.server_exit_code}",
        ]
        for violation in self.live.violations[:5]:
            lines.append(f"    violation: {violation}")
        for lost in self.lost_writes[:5]:
            lines.append(f"    lost: {lost}")
        return "\n".join(lines)


def audit_acked_writes(
    topology: Topology, writes: Iterable[WriteEvent], data_dir: Path
) -> tuple[list[WriteEvent], list[str], dict[Address, int]]:
    """The acked-write durability audit, per data center.

    Every write acknowledged in DC *m* must be present in — or dominated
    within — the union of what *all* of DC *m*'s partition directories
    recover.  The union, not the owner's directory alone: a reshard
    legitimately moves a key's chains between directories (and the donor
    purges its copy after commit); without one a key only ever lands in
    its owner's directory, so the union changes no verdict.  Dominated,
    not just present: garbage collection, snapshots and overwrites drop
    superseded versions without losing anything a reader could miss.

    Returns ``(acked, lost, recovered)``: the audited writes, one line
    per lost write, and the version count each existing directory
    recovered.
    """
    from repro.persistence.manager import (
        partition_dirname,
        recover_directory,
    )
    newest: dict[int, dict[Any, tuple[int, int]]] = {}
    recovered: dict[Address, int] = {}
    for address in topology.all_servers():
        directory = data_dir / partition_dirname(address)
        if not directory.exists():
            continue
        state = recover_directory(directory, truncate=False,
                                  delete_covered=False)
        recovered[address] = len(state.versions)
        by_key = newest.setdefault(address.dc, {})
        for version in state.versions:
            order = version.order_key
            current = by_key.get(version.key)
            if current is None or order > current:
                by_key[version.key] = order

    acked = list(writes)
    lost: list[str] = []
    for event in acked:
        key, sr, ut = event.version
        best = newest.get(sr, {}).get(key)
        if best is None or best < version_order_key(ut, sr):
            lost.append(
                f"acked write {event.version} at t={event.time_s:.3f}s "
                f"not in DC {sr}'s recovered union (best: {best})"
            )
    return acked, lost, recovered


def _victim_command(config_path: Path, fault: CrashFault, host: str,
                    base_port: int, supervise: bool) -> list[str]:
    """``repro-serve`` for the victim's slot — or, with ``supervise``,
    a one-child ``repro-supervise`` tree: the SIGKILL lands on the
    supervisor, PDEATHSIG takes the serve child down with it, and the
    restart must still recover from disk."""
    module = "supervisor" if supervise else "serve"
    command = [
        sys.executable, "-m", f"repro.runtime.{module}",
        "--config", str(config_path),
        "--dc", str(fault.dc), "--partition", str(fault.partition),
        "--host", host, "--base-port", str(base_port),
    ]
    if supervise:
        command += ["--log-dir", str(config_path.parent / "supervise")]
    return command


class _Victim:
    """The partition server a live chaos run hosts as a real OS
    process, so that a real SIGKILL can take it down."""

    def __init__(self, command: list[str], log_path: Path):
        self.command = command
        self.log_path = log_path
        self.proc: asyncio.subprocess.Process | None = None
        self.kill_time_s = 0.0
        self.restart_time_s = 0.0

    async def spawn(self) -> None:
        # The subprocess holds its own descriptor of the log.
        with open(self.log_path, "ab") as log:
            self.proc = await asyncio.create_subprocess_exec(
                *self.command, stdout=log, stderr=log,
                env=subprocess_env(),
            )

    async def crash(self, hub: LiveHub, downtime_s: float) -> None:
        """SIGKILL (no flush, no goodbye), stay down, then restart from
        the data directory."""
        self.kill_time_s = hub.now
        self.proc.kill()
        await self.proc.wait()
        await asyncio.sleep(downtime_s)
        self.restart_time_s = hub.now
        await self.spawn()

    async def terminate(self) -> int | None:
        """Graceful SIGTERM stop: the exit code, None if it hung."""
        self.proc.terminate()
        try:
            return await asyncio.wait_for(self.proc.wait(), TERM_TIMEOUT_S)
        except asyncio.TimeoutError:
            await self.reap()
            return None

    async def reap(self) -> None:
        if self.proc is not None and self.proc.returncode is None:
            self.proc.kill()
            await self.proc.wait()


async def _run_with_victim(
    config: ExperimentConfig, fault: CrashFault, host: str, base_port: int,
    make_window: Callable[[LiveCluster, _Victim],
                          Callable[[], Awaitable[None]]],
    supervise: bool = False,
) -> tuple[LiveCluster, LiveReport, _Victim, int | None]:
    """One live run with the fault's partition server out of process.

    Everything else — the other servers, the clients, the drivers and
    the causal checker — runs in this process on the
    :class:`LiveCluster` lifecycle.  ``make_window`` gets the cluster
    (not yet started) and the victim, and returns the coroutine function
    that replaces the plain measurement sleep of
    :meth:`LiveCluster.run_window`.  Returns the cluster (its history
    feeds the audit), its report, the victim and the exit code of the
    victim's graceful stop.
    """
    if not config.verify:
        raise ReproError("crash experiments require config.verify=True")
    persistence = config.persistence
    if not persistence.enabled or not persistence.data_dir:
        raise ReproError("crash experiments need persistence enabled "
                         "with a data_dir")
    if base_port <= 0:
        raise ReproError("crash experiments need a deterministic port "
                         "map (base_port > 0): two processes must agree")
    data_dir = Path(persistence.data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
    config_path = data_dir / "cluster.json"
    save_experiment_config(config, str(config_path))

    topology = Topology(config.cluster.num_dcs,
                        config.cluster.num_partitions)
    victim_address = topology.server(fault.dc, fault.partition)
    cluster = LiveCluster(
        config, host=host, base_port=base_port,
        serve_addresses=[address for address in topology.all_servers()
                         if address != victim_address],
    )
    victim = _Victim(
        _victim_command(config_path, fault, host, base_port, supervise),
        data_dir / "victim.log")
    window = make_window(cluster, victim)
    await victim.spawn()
    try:
        # Ops in flight at the kill instant died with their frames; a
        # short settle collects everything else without waiting on the
        # casualties.
        clean = await cluster.run_window(window,
                                         settle_timeout_s=CRASH_SETTLE_S)
        # Graceful stop between the halves: the exit code is a gate (the
        # victim's WAL-before-transport shutdown must flush cleanly) and
        # the victim's own final drain still needs our listeners up.
        exit_code = await victim.terminate()
        report = await cluster.shutdown(clean)
    finally:
        # Never leak a live repro-serve on its fixed port: a failure
        # anywhere above would otherwise poison every later run that
        # reuses the deterministic port map.
        await victim.reap()
    return cluster, report, victim, exit_code


def _ops_after(cluster: LiveCluster, time_s: float) -> int:
    return sum(1 for event in cluster.checker.history.events
               if event.time_s > time_s)


async def _crash(config: ExperimentConfig, fault: CrashFault, host: str,
                 base_port: int, supervise: bool) -> CrashReport:
    from repro.persistence.manager import partition_dirname

    def make_window(cluster: LiveCluster, victim: _Victim):
        async def window() -> None:
            await asyncio.sleep(fault.kill_after_s)
            await victim.crash(cluster.hub, fault.downtime_s)
            remaining = (config.duration_s - fault.kill_after_s
                         - fault.downtime_s)
            await asyncio.sleep(max(remaining, 1.0))
        return window

    cluster, report, victim, exit_code = await _run_with_victim(
        config, fault, host, base_port, make_window, supervise=supervise)
    data_dir = Path(config.persistence.data_dir)
    topology = cluster.topology
    victim_address = topology.server(fault.dc, fault.partition)
    acked, lost, recovered = audit_acked_writes(
        topology, cluster.checker.history.writes(), data_dir)
    return CrashReport(
        live=report,
        kill_time_s=victim.kill_time_s,
        restart_time_s=victim.restart_time_s,
        server_exit_code=exit_code,
        acked_victim_writes=sum(
            1 for event in acked
            if event.version[1] == fault.dc
            and topology.partition_of(event.key) == fault.partition),
        lost_writes=lost,
        ops_after_restart=_ops_after(cluster, victim.restart_time_s),
        recovered_versions=recovered.get(victim_address, 0),
        victim_dir=str(data_dir / partition_dirname(victim_address)),
    )


def run_crash_experiment(
    config: ExperimentConfig,
    fault: CrashFault,
    host: str = "127.0.0.1",
    base_port: int = 7500,
    supervise: bool = False,
) -> CrashReport:
    """SIGKILL one partition server mid-workload, restart it from disk,
    and verify causality plus acknowledged-write durability.

    ``config.verify`` must be on (the checker is the judge) and
    ``config.persistence`` must point at a data directory; the victim
    subprocess shares both through a config file written there.
    ``supervise`` runs the victim behind a one-child ``repro-supervise``
    tree instead of a bare ``repro-serve`` process: the SIGKILL hits the
    supervisor, its child dies with it (PDEATHSIG), and the restarted
    tree must recover the same data directory — the same gate, one
    process layer deeper.
    """
    return asyncio.run(_crash(config, fault, host, base_port, supervise))


# ======================================================================
# The hostile-network chaos matrix
# ======================================================================
#
# Each scenario is one *class* of hostility, shaped so the fault is
# active for a sizable slice of the measurement window and fully cleared
# before the drain.  All sim cells share the timeline below; the
# stalled-disk cell runs on the live backend (disks only exist there).

#: Protocols every matrix run covers by default (the paper's subject,
#: its pessimistic baseline, and the hybrid-clock variant).
DEFAULT_MATRIX_PROTOCOLS = ("pocc", "cure", "okapi")

MATRIX_WARMUP_S = 0.3
MATRIX_DURATION_S = 2.5
#: When sim-cell faults start / must be gone (inside the window).
_FAULT_AT_S = 0.8
_FAULT_CLEAR_S = 2.4


@dataclass(slots=True)
class ChaosVerdict:
    """One (scenario, protocol) cell of the matrix."""

    scenario: str
    fault_class: str
    protocol: str
    backend: str
    violations: int
    reads_checked: int
    divergences: int
    total_ops: int
    #: Empty iff the cell passed; each entry is one human-readable gate
    #: failure (checker violations, divergent keys, fault never fired…).
    failures: list[str] = field(default_factory=list)
    #: Scenario-specific counters (drops, repairs, stalls, …).
    details: dict[str, Any] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary_line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        extras = ", ".join(f"{k}={v}" for k, v in self.details.items())
        line = (
            f"  [{verdict}] {self.scenario:>16} x {self.protocol:<6} "
            f"({self.backend}): {self.violations} violations / "
            f"{self.reads_checked} reads, {self.divergences} divergent, "
            f"{self.total_ops} ops"
        )
        if extras:
            line += f"  ({extras})"
        return line


@dataclass(slots=True)
class ChaosMatrixReport:
    """All cells of one matrix run."""

    seed: int
    verdicts: list[ChaosVerdict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return bool(self.verdicts) and all(v.passed for v in self.verdicts)

    def summary_text(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        lines = [
            f"chaos matrix (seed {self.seed}): {verdict} — "
            f"{sum(v.passed for v in self.verdicts)}/"
            f"{len(self.verdicts)} cells clean"
        ]
        for cell in self.verdicts:
            lines.append(cell.summary_line())
            for failure in cell.failures:
                lines.append(f"        gate: {failure}")
        return "\n".join(lines)


def _matrix_config(
    protocol: str, seed: int, name: str, anti_entropy: bool = False
) -> ExperimentConfig:
    """The shared sim-cell deployment: smoke scale, mixed workload,
    verification on.  Anti-entropy is enabled only where a scenario
    actually loses messages — everything else runs the stock protocol."""
    cluster = smoke_scale_cluster(protocol)
    if anti_entropy:
        cluster = replace(cluster,
                          anti_entropy=AntiEntropyConfig(enabled=True))
    return ExperimentConfig(
        cluster=cluster,
        workload=WorkloadConfig(
            kind="mixed",
            read_ratio=0.7,
            tx_ratio=0.15,
            tx_partitions=2,
            clients_per_partition=2,
            think_time_s=0.005,
        ),
        warmup_s=MATRIX_WARMUP_S,
        duration_s=MATRIX_DURATION_S,
        seed=seed,
        verify=True,
        name=f"chaos-{name}",
    )


def _verdict(
    scenario: "ChaosScenario",
    protocol: str,
    backend: str,
    verification: dict[str, int],
    divergences: int,
    total_ops: int,
    extra_failures: list[str],
    details: dict[str, Any],
) -> ChaosVerdict:
    """The universal cell gates (checker, convergence) plus the
    scenario's own."""
    failures = list(extra_failures)
    violations = verification["violations"]
    if violations:
        failures.append(f"{violations} causal violations")
    if divergences:
        failures.append(f"{divergences} divergent keys after drain")
    return ChaosVerdict(
        scenario=scenario.name,
        fault_class=scenario.fault_class,
        protocol=protocol,
        backend=backend,
        violations=violations,
        reads_checked=verification["reads_checked"],
        divergences=divergences,
        total_ops=total_ops,
        failures=failures,
        details=details,
    )


def _sim_verdict(
    scenario: "ChaosScenario",
    protocol: str,
    built: BuiltCluster,
    result: ExperimentResult,
    extra_failures: list[str],
    details: dict[str, Any],
) -> ChaosVerdict:
    if built.faults.any_fault_active:
        extra_failures = [*extra_failures, "faults still active at end of run"]
    return _verdict(scenario, protocol, "sim", result.verification,
                    result.divergences, result.total_ops, extra_failures,
                    details)


def _cell_asym_partition(scenario, protocol: str, seed: int,
                         data_dir: str | None) -> ChaosVerdict:
    """Two overlapping one-direction cuts: a routing fault where A still
    hears B but B no longer hears A (and a second pair likewise)."""
    config = _matrix_config(protocol, seed, scenario.name)
    built = build_cluster(config)
    faults = built.faults
    faults.schedule_one_way_cut(_FAULT_AT_S, 0, 1, heal_after=0.6)
    faults.schedule_one_way_cut(_FAULT_AT_S + 0.2, 2, 0, heal_after=0.4)
    result = run_experiment(config, built=built)
    extra: list[str] = []
    if faults.one_way_cuts_started < 2:
        extra.append("one-way cuts never fired")
    if faults.one_way_cuts_healed < faults.one_way_cuts_started:
        extra.append("a one-way cut never healed")
    details = {
        "one_way_cuts": faults.one_way_cuts_started,
        "held_flushed": built.network.stats.messages_delivered,
    }
    return _sim_verdict(scenario, protocol, built, result, extra, details)


def _cell_lossy(scenario, protocol: str, seed: int,
                data_dir: str | None) -> ChaosVerdict:
    """1% indiscriminate loss on every inter-DC link, with anti-entropy
    backfill on: dropped replication must be repaired by the drain."""
    config = _matrix_config(protocol, seed, scenario.name,
                            anti_entropy=True)
    built = build_cluster(config)
    faults = built.faults
    num_dcs = config.cluster.num_dcs
    for src in range(num_dcs):
        for dst in range(num_dcs):
            if src != dst:
                faults.schedule_loss(0.5, src, dst, 0.01,
                                     stop_after=_FAULT_CLEAR_S - 0.5)
    result = run_experiment(config, built=built)
    stats = built.network.stats
    repairs = sum(s.ae_repairs_applied for s in built.servers.values())
    digests = sum(s.ae_digests_sent for s in built.servers.values())
    extra: list[str] = []
    if stats.messages_dropped == 0:
        extra.append("lossy links dropped nothing")
    if digests == 0:
        extra.append("anti-entropy never exchanged a digest")
    details = {
        "dropped": stats.messages_dropped,
        "ae_digests": digests,
        "ae_repairs": repairs,
    }
    return _sim_verdict(scenario, protocol, built, result, extra, details)


def _cell_slow_link(scenario, protocol: str, seed: int,
                    data_dir: str | None) -> ChaosVerdict:
    """One DC pair congested to 10x base latency in both directions."""
    config = _matrix_config(protocol, seed, scenario.name)
    built = build_cluster(config)
    faults = built.faults
    faults.schedule_slow_link(_FAULT_AT_S, 0, 1, 10.0, restore_after=1.0)
    faults.schedule_slow_link(_FAULT_AT_S, 1, 0, 10.0, restore_after=1.0)
    result = run_experiment(config, built=built)
    extra: list[str] = []
    if faults.slow_links_set < 2:
        extra.append("slow links never fired")
    details = {"slow_links": faults.slow_links_set}
    return _sim_verdict(scenario, protocol, built, result, extra, details)


def _cell_clock_spike(scenario, protocol: str, seed: int,
                      data_dir: str | None) -> ChaosVerdict:
    """NTP-style skew spikes: DC1's clocks step +5ms, later -5ms (the
    negative step is the hard one — pending clock waits must re-arm)."""
    config = _matrix_config(protocol, seed, scenario.name)
    built = build_cluster(config)
    faults = built.faults
    faults.schedule_clock_step(_FAULT_AT_S, 1, 5_000)
    faults.schedule_clock_step(_FAULT_AT_S + 0.8, 1, -5_000)
    result = run_experiment(config, built=built)
    extra: list[str] = []
    if faults.clock_steps < 2:
        extra.append("clock steps never fired")
    details = {"clock_steps": faults.clock_steps}
    return _sim_verdict(scenario, protocol, built, result, extra, details)


def _cell_dc_failover(scenario, protocol: str, seed: int,
                      data_dir: str | None) -> ChaosVerdict:
    """Full-DC blackout and recovery: every link to/from the victim DC
    drops at probability 1.0 (drops, not holds — the wire really loses
    what a dead DC never sent), then the links recover and every server
    runs the crash-recovery catch-up protocol to pull back the gap."""
    victim = 2
    config = _matrix_config(protocol, seed, scenario.name,
                            anti_entropy=True)
    built = build_cluster(config)
    faults = built.faults
    blackout_at = _FAULT_AT_S
    recover_at = _FAULT_AT_S + 1.0
    for other in range(config.cluster.num_dcs):
        if other == victim:
            continue
        faults.schedule_loss(blackout_at, victim, other, 1.0)
        faults.schedule_loss(blackout_at, other, victim, 1.0)

    def recover() -> None:
        # Order matters: catch-up snapshots each server's VV *before*
        # any post-recovery heartbeat can advance it past the blackout
        # gap (same race the crash-recovery docstring pins).
        faults.stop_all_loss()
        for server in built.servers.values():
            server.begin_catchup()

    built.sim.schedule_at(recover_at, recover)
    result = run_experiment(config, built=built)
    stats = built.network.stats
    extra: list[str] = []
    if stats.messages_dropped == 0:
        extra.append("blackout dropped nothing")
    details = {
        "dropped": stats.messages_dropped,
        "catchups": len(built.servers),
        "ae_repairs": sum(s.ae_repairs_applied
                          for s in built.servers.values()),
    }
    return _sim_verdict(scenario, protocol, built, result, extra, details)


async def _stalled_disk(scenario, protocol: str, config: ExperimentConfig,
                        stall_s: float, window_s: float) -> ChaosVerdict:
    """A live run whose WAL fsyncs stall mid-measurement.

    The fault is installed on every hosted partition's WAL 0.3 s into
    the window and removed ``window_s`` later; acknowledgements ride on
    those fsyncs (group commit), so the stall back-pressures real
    client operations rather than a simulated proxy.
    """
    from repro.persistence.wal import DiskFault

    cluster = LiveCluster(config)
    disk_faults: list[DiskFault] = []

    async def window() -> None:
        await asyncio.sleep(0.3)
        wals = [durability.wal for durability in cluster.durability.values()
                if durability.wal is not None]
        for wal in wals:
            wal.disk_fault = DiskFault(sync_delay_s=stall_s)
            disk_faults.append(wal.disk_fault)
        await asyncio.sleep(window_s)
        for wal in wals:
            wal.disk_fault = None
        await asyncio.sleep(max(config.duration_s - 0.3 - window_s, 0.5))

    report = await cluster.run(window)
    # The stores outlive the transport: compare them once it is down.
    divergences = len(check_convergence(
        cluster.servers,
        config.cluster.num_dcs,
        config.cluster.num_partitions,
    ))
    stalls = sum(fault.stalls for fault in disk_faults)
    failures: list[str] = []
    if report.total_ops == 0:
        failures.append("no operations completed")
    if not report.clean_shutdown:
        failures.append("shutdown not clean (WAL flush failed?)")
    if stalls == 0:
        failures.append("disk fault never stalled an fsync")
    details: dict[str, Any] = {"disk_stalls": stalls}
    if report.faults:
        details["transport_faults"] = report.faults
    return _verdict(scenario, protocol, "live", report.verification,
                    divergences, report.total_ops, failures, details)


def _cell_stalled_disk(scenario, protocol: str, seed: int,
                       data_dir: str | None) -> ChaosVerdict:
    """Live backend: every WAL's fsync stalls for a window while the
    cluster keeps serving; durability pressure must not break causality
    or convergence, and the shutdown flush must still succeed."""
    with _cell_dir(data_dir, f"stalled-disk-{protocol}-{seed}") as path:
        config = replace(
            _matrix_config(protocol, seed, scenario.name),
            duration_s=1.6,
            persistence=PersistenceConfig(
                enabled=True,
                data_dir=str(path),
                fsync="interval",
                fsync_interval_s=0.02,
                snapshot_interval_s=0.0,
            ),
        )
        return asyncio.run(_stalled_disk(scenario, protocol, config,
                                         stall_s=0.02, window_s=0.5))


@contextlib.contextmanager
def _cell_dir(data_dir: str | None, name: str) -> Iterator[Path]:
    """A live cell's data directory: under ``data_dir`` when given (and
    kept), else under a temporary directory removed afterwards."""
    with tempfile.TemporaryDirectory(prefix="chaos-") as scratch:
        path = Path(data_dir or scratch) / name
        path.mkdir(parents=True, exist_ok=True)
        yield path


# ======================================================================
# Online-resharding chaos: SIGKILL a participant mid view change
# ======================================================================
#
# The elastic-membership tentpole (docs/membership.md) promises that a
# view change — seal, stream, drain, commit — survives the crash of any
# participant.  Three cells pin the three distinct roles: the *donor*
# dies with chains half-streamed, the *joiner* dies with chunks half
# received, and the *bystander* (in the address space, on neither ring)
# dies holding nothing but still gating the commit round.  The driver
# retries every phase forever, so each cell must converge once the
# victim recovers from its WAL and catches up.

#: Victim ``(dc, partition)`` per scenario, against the shared shape
#: below (2 DCs x 4 partitions, ring (0, 1) -> (0, 1, 2)), and a
#: disjoint deterministic base port so consecutive cells never trip
#: over each other's TIME_WAIT sockets.
_RESHARD_CELLS: dict[str, tuple[int, int, int]] = {
    "reshard-kill-donor": (0, 0, 7620),
    "reshard-kill-joiner": (0, 2, 7660),
    "reshard-kill-bystander": (0, 3, 7700),
}
_RESHARD_INITIAL = (0, 1)
_RESHARD_TARGET = (0, 1, 2)
#: How long the cell waits for the retried view change to commit after
#: the victim restarts (covers recovery + catch-up + retry rounds).
_RESHARD_COMMIT_TIMEOUT_S = 30.0


def _reshard_config(protocol: str, seed: int, name: str,
                    cell_dir: Path) -> ExperimentConfig:
    from repro.common.config import ClusterConfig, MembershipConfig

    cluster = ClusterConfig(
        num_dcs=2,
        num_partitions=4,
        keys_per_partition=60,
        protocol=protocol,
        membership=MembershipConfig(
            enabled=True,
            initial_members=_RESHARD_INITIAL,
            gossip_interval_s=0.3,
            handoff_chunk_versions=16,
            commit_delay_s=0.3,
            retry_interval_s=0.4,
        ),
    )
    return ExperimentConfig(
        cluster=cluster,
        workload=WorkloadConfig(
            kind="mixed",
            read_ratio=0.7,
            # No RO-TXs here, deliberately.  These cells SIGKILL one
            # partition process, which freezes its counterparts' VV
            # entry for the whole downtime — and plain POCC's RO-TX
            # carries RDV_c (Algorithm 1), not DV_c, so a client that
            # optimistically read a fresh remote version and then wrote
            # can watch its own write fall outside the snapshot while
            # the VV is frozen.  That is the paper's documented price
            # of optimism under failures (the Cure*/HA variants close
            # it), not a resharding defect; these cells gate migration
            # safety.  TX-under-reshard (slice abort and regroup) is
            # covered by the sim resharding test, where nothing dies.
            tx_ratio=0.0,
            clients_per_partition=2,
            think_time_s=0.005,
        ),
        warmup_s=0.4,
        duration_s=4.0,
        seed=seed,
        verify=True,
        name=f"chaos-{name}",
        persistence=PersistenceConfig(
            enabled=True,
            data_dir=str(cell_dir),
            # Acked-means-durable is the gate; snapshots stay off so the
            # WAL keeps pre-purge versions and the acked-write audit can
            # see what a donor held before the cutover purge.
            fsync="always",
            snapshot_interval_s=0.0,
        ),
    )


async def _reshard_kill(scenario, protocol: str,
                        config: ExperimentConfig) -> ChaosVerdict:
    from repro.cluster.reshard import attach_live_controller
    from repro.cluster.ring import ClusterView

    fault_dc, fault_partition, base_port = _RESHARD_CELLS[scenario.name]
    fault = CrashFault(dc=fault_dc, partition=fault_partition,
                       kill_after_s=0.12, downtime_s=1.0)
    done = asyncio.Event()
    outcome: dict[str, Any] = {"result": None}

    def make_window(cluster: LiveCluster, victim: _Victim):
        membership = config.cluster.membership

        def on_done(result) -> None:
            outcome["result"] = result
            done.set()

        # Before the cluster starts: the controller endpoint's listener
        # must bind alongside the servers' so their acks can dial back.
        controller = attach_live_controller(
            cluster.hub, cluster.topology,
            ClusterView(epoch=1, members=_RESHARD_TARGET,
                        vnodes=membership.vnodes),
            commit_delay_s=membership.commit_delay_s,
            retry_interval_s=membership.retry_interval_s,
            on_done=on_done,
        )

        async def window() -> None:
            # Let traffic build chains on the old ring, then start the
            # view change and kill the victim inside its
            # seal/stream/drain window.
            await asyncio.sleep(0.6)
            controller.start()
            await asyncio.sleep(fault.kill_after_s)
            outcome["kill_phase"] = controller.phase
            await victim.crash(cluster.hub, fault.downtime_s)
            try:
                await asyncio.wait_for(done.wait(),
                                       _RESHARD_COMMIT_TIMEOUT_S)
            except asyncio.TimeoutError:
                pass  # gated below: "view change never committed"
            # Run on against the committed ring: redirected retries,
            # parked ops answered, and fresh traffic for the rejoin gate.
            await asyncio.sleep(0.6)
        return window

    cluster, report, victim, exit_code = await _run_with_victim(
        config, fault, "127.0.0.1", base_port, make_window)
    acked, lost, recovered = audit_acked_writes(
        cluster.topology, cluster.checker.history.writes(),
        Path(config.persistence.data_dir))
    ops_after_restart = _ops_after(cluster, victim.restart_time_s)
    servers = cluster.servers.values()
    epochs = sorted({server.view_epoch for server in servers})
    result = outcome["result"]

    failures: list[str] = []
    if result is None:
        failures.append(
            f"view change never committed (killed during "
            f"'{outcome['kill_phase']}' phase)"
        )
    if lost:
        failures.append(f"{len(lost)} acked writes lost: "
                        + "; ".join(lost[:3]))
    if ops_after_restart == 0:
        failures.append("no operations completed after the restart")
    if exit_code != 0:
        failures.append(f"victim's graceful stop exited {exit_code}")
    cluster_cfg = config.cluster
    total_keys = cluster_cfg.keys_per_partition * cluster_cfg.num_partitions
    # The K/S bound: adding one member to an S-member ring moves ~K/S
    # keys per DC.  Only keys that accumulated chains move, so the floor
    # is loose; the ceiling catches a ring that reshuffles everything.
    expected = cluster_cfg.num_dcs * total_keys / len(_RESHARD_TARGET)
    if result is not None and not (
            0.2 * expected <= result.keys_moved <= 3.0 * expected):
        failures.append(
            f"{result.keys_moved} keys moved, outside "
            f"[{0.2 * expected:.0f}, {3.0 * expected:.0f}] "
            f"(~K/S = {expected:.0f})"
        )
    if result is not None and epochs != [1]:
        failures.append(
            f"servers left behind after commit: epochs {epochs}")

    details: dict[str, Any] = {
        "kill_phase": outcome["kill_phase"],
        "keys_moved": result.keys_moved if result else 0,
        "bytes_moved": result.bytes_moved if result else 0,
        "driver_retries": result.retries if result else 0,
        "redirects": sum(server.not_owner_redirects for server in servers),
        "acked_writes": len(acked),
        "recovered_versions": sum(recovered.values()),
        "ops_after_restart": ops_after_restart,
    }
    # Divergence is not comparable mid-topology-change; the epoch and
    # audit gates above stand in for it.
    return _verdict(scenario, protocol, "live", report.verification, 0,
                    report.total_ops, failures, details)


def _cell_reshard(scenario, protocol: str, seed: int,
                  data_dir: str | None) -> ChaosVerdict:
    """SIGKILL one view-change participant mid-reshard; the retried
    handoff must still commit with zero violations and zero acked-write
    loss, moving roughly K/S of the keyspace to the joiner."""
    with _cell_dir(data_dir, f"{scenario.name}-{protocol}-{seed}") as path:
        config = _reshard_config(protocol, seed, scenario.name, path)
        return asyncio.run(_reshard_kill(scenario, protocol, config))


@dataclass(frozen=True)
class ChaosScenario:
    """One named scenario of the matrix: a fault class plus a runner."""

    name: str
    fault_class: str
    backend: str
    description: str
    runner: Callable[..., ChaosVerdict]
    #: Restrict the matrix to these protocols (None = every protocol).
    #: The reshard cells pin ``("pocc",)``: elastic membership is a
    #: deployment feature exercised once, not a per-protocol axis.
    protocols: tuple[str, ...] | None = None

    def run(self, protocol: str, seed: int,
            data_dir: str | None = None) -> ChaosVerdict:
        return self.runner(self, protocol, seed, data_dir)


#: The matrix rows, keyed by scenario name (CLI ``--scenarios`` values).
SCENARIOS: dict[str, ChaosScenario] = {
    scenario.name: scenario
    for scenario in (
        ChaosScenario(
            "asym-partition", "partition", "sim",
            "overlapping one-direction cuts (routing faults)",
            _cell_asym_partition,
        ),
        ChaosScenario(
            "lossy-1pct", "loss", "sim",
            "1% loss on every inter-DC link, anti-entropy repairs",
            _cell_lossy,
        ),
        ChaosScenario(
            "slow-link-10x", "latency", "sim",
            "one DC pair congested to 10x base latency",
            _cell_slow_link,
        ),
        ChaosScenario(
            "clock-spike", "clock", "sim",
            "+5ms then -5ms NTP steps on one DC's clocks",
            _cell_clock_spike,
        ),
        ChaosScenario(
            "stalled-disk", "disk", "live",
            "every WAL fsync stalls for a window mid-run",
            _cell_stalled_disk,
        ),
        ChaosScenario(
            "dc-failover", "failover", "sim",
            "full-DC blackout (loss=1.0), then catch-up recovery",
            _cell_dc_failover,
        ),
        ChaosScenario(
            "reshard-kill-donor", "reshard", "live",
            "SIGKILL the donor mid-handoff (chains half-streamed)",
            _cell_reshard, protocols=("pocc",),
        ),
        ChaosScenario(
            "reshard-kill-joiner", "reshard", "live",
            "SIGKILL the joiner mid-handoff (chunks half-received)",
            _cell_reshard, protocols=("pocc",),
        ),
        ChaosScenario(
            "reshard-kill-bystander", "reshard", "live",
            "SIGKILL a non-member mid-reshard (still gates commit)",
            _cell_reshard, protocols=("pocc",),
        ),
    )
}


def run_chaos_matrix(
    protocols: Sequence[str] = DEFAULT_MATRIX_PROTOCOLS,
    scenarios: Sequence[str] | None = None,
    seed: int = 20177,
    data_dir: str | None = None,
) -> ChaosMatrixReport:
    """Run every (scenario, protocol) cell and gate each on the checker.

    ``scenarios`` selects by name (default: all of :data:`SCENARIOS`);
    ``data_dir`` hosts the live cells' WALs (default: a temp dir).
    Sim cells are deterministic per seed; the report is self-judging
    via :attr:`ChaosMatrixReport.passed`.
    """
    names = tuple(scenarios) if scenarios is not None else tuple(SCENARIOS)
    unknown = [name for name in names if name not in SCENARIOS]
    if unknown:
        raise ReproError(
            f"unknown chaos scenarios {unknown}; "
            f"valid: {sorted(SCENARIOS)}"
        )
    report = ChaosMatrixReport(seed=seed)
    for name in names:
        scenario = SCENARIOS[name]
        for protocol in protocols:
            if (scenario.protocols is not None
                    and protocol not in scenario.protocols):
                continue
            report.verdicts.append(
                scenario.run(protocol, seed, data_dir=data_dir)
            )
    return report


def main(argv: Sequence[str] | None = None) -> int:
    """CLI: ``repro-chaos-matrix [--protocols …] [--scenarios …]``."""
    import argparse

    parser = argparse.ArgumentParser(
        description="Run the hostile-network chaos matrix."
    )
    parser.add_argument("--protocols", default=",".join(
        DEFAULT_MATRIX_PROTOCOLS))
    parser.add_argument("--scenarios", default="",
                        help=f"comma-separated; default all "
                             f"({','.join(SCENARIOS)})")
    parser.add_argument("--seed", type=int, default=20177)
    parser.add_argument("--data-dir", default=None)
    args = parser.parse_args(argv)
    scenarios = ([s for s in args.scenarios.split(",") if s]
                 if args.scenarios else None)
    report = run_chaos_matrix(
        protocols=[p for p in args.protocols.split(",") if p],
        scenarios=scenarios,
        seed=args.seed,
        data_dir=args.data_dir,
    )
    print(report.summary_text())
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
