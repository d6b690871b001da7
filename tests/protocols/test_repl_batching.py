"""Protocol-level replication batching: equivalence, safety, amortization.

Three layers of defense around the new first-class policy:

* **Equivalence** — ``max_versions=1`` (the default) *is* batching off:
  no batcher is built, every write takes the plain per-write
  ``Replicate`` fan-out, and the report is byte-identical to a config
  without a ``repl_batch`` block, so the default cannot perturb existing
  reports.
* **Safety** — batched runs across every causal protocol pass the
  independent causal checker and the convergence audit, including under
  randomized partition/heal schedules (held batches flush in FIFO order
  on heal, and the flush-clock piggyback must never advance a remote VV
  entry past an undelivered version).
* **Amortization** — batching actually collapses inter-DC replicate
  traffic (messages scale with flushes, not writes) and Okapi*'s
  aggregators piggyback their DST on batches instead of extra gossip.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, replace

import pytest

import helpers
from repro.common.config import (
    ClockConfig,
    ClusterConfig,
    ExperimentConfig,
    ProtocolConfig,
    ReplicationBatchConfig,
    WorkloadConfig,
)
from repro.harness.builders import build_cluster
from repro.harness.experiment import run_experiment
from repro.protocols import messages as m
from repro.protocols.batching import ReplicationBatcher
from repro.protocols.registry import PROTOCOLS

CAUSAL_PROTOCOLS = tuple(name for name in PROTOCOLS if name != "eventual")

BATCHED = ReplicationBatchConfig(max_versions=8,
                                 max_bytes=65536, flush_ms=5.0)


def _config(
    protocol: str,
    repl_batch: ReplicationBatchConfig | None = None,
    seed: int = 11,
    duration_s: float = 1.2,
    workload: WorkloadConfig | None = None,
) -> ExperimentConfig:
    cluster = ClusterConfig(
        num_dcs=3, num_partitions=2, keys_per_partition=40,
        protocol=protocol, clocks=ClockConfig(max_offset_us=200),
        protocol_config=ProtocolConfig(block_timeout_s=0.08),
    )
    if repl_batch is not None:
        cluster = replace(cluster, repl_batch=repl_batch)
    if workload is None:
        if protocol == "cops":
            workload = WorkloadConfig(kind="get_put", gets_per_put=2,
                                      clients_per_partition=2,
                                      think_time_s=0.004)
        else:
            workload = WorkloadConfig(kind="mixed", read_ratio=0.7,
                                      tx_ratio=0.1, tx_partitions=2,
                                      clients_per_partition=2,
                                      think_time_s=0.004)
    return ExperimentConfig(
        cluster=cluster, workload=workload, warmup_s=0.2,
        duration_s=duration_s, seed=seed, verify=True,
        name=f"repl-batch-{protocol}",
    )


def _report_bytes(result) -> str:
    return json.dumps(asdict(result), sort_keys=True)


# ----------------------------------------------------------------------
# Off: max_versions=1 is no batching at all, bit for bit
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_batch_of_one_is_byte_identical_to_disabled(protocol):
    """A batch of one *is* batching off, whatever the other knobs say:
    no batcher is built, every write takes the plain per-write
    Replicate fan-out, and the report is byte-identical to the
    default's."""
    one = ReplicationBatchConfig(max_versions=1, max_bytes=1, flush_ms=1.0)
    built = build_cluster(_config(protocol, repl_batch=one))
    for server in built.servers.values():
        assert server._batcher is None
    baseline = run_experiment(_config(protocol, repl_batch=None))
    degenerate = run_experiment(built.config, built=built)
    assert _report_bytes(baseline) == _report_bytes(degenerate)


def test_disabled_config_creates_no_batcher():
    built = helpers.make_cluster(protocol="pocc")
    for server in built.servers.values():
        assert server._batcher is None


# ----------------------------------------------------------------------
# Safety: batched runs stay causal and convergent
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", CAUSAL_PROTOCOLS)
def test_batched_runs_pass_the_causal_checker(protocol):
    built = build_cluster(_config(protocol, repl_batch=BATCHED))
    result = run_experiment(built.config, built=built)
    assert result.verification["violations"] == 0, (
        "; ".join(v.describe() for v in built.checker.violations[:5])
    )
    assert result.verification["reads_checked"] > 100
    assert result.divergences == 0
    # Non-vacuity: real multi-version batches actually went out.
    batchers = [s._batcher for s in built.servers.values()]
    assert all(b is not None for b in batchers)
    flushed = sum(b.batches_flushed for b in batchers)
    shipped = sum(b.versions_flushed for b in batchers)
    assert flushed > 0
    assert shipped > flushed, "no flush ever carried more than one version"


@pytest.mark.parametrize("protocol", ("pocc", "cure", "okapi", "cops"))
@pytest.mark.parametrize("seed", (101, 303))
def test_batched_runs_survive_partition_schedules(protocol, seed):
    """The fuzz suite's adversarial shape, batching on: partition
    episodes hold whole batches back and heal-time flushes replay them
    in FIFO order — the checker and the convergence audit must not
    notice the difference."""
    config = _config(protocol, repl_batch=BATCHED, seed=seed)
    built = build_cluster(config)
    rng = random.Random(seed * 31 + 7)
    shapes = (([0], [1]), ([1], [2]), ([0], [2]), ([0], [1, 2]))
    for _ in range(rng.randint(1, 2)):
        start = rng.uniform(0.25, 0.7)
        duration = rng.uniform(0.1, 0.3)
        group_a, group_b = rng.choice(shapes)
        built.faults.schedule_partition(start, group_a, group_b,
                                        heal_after=duration)
    result = run_experiment(config, built=built)
    assert built.faults.partitions_started >= 1
    assert not built.faults.active
    assert result.verification["violations"] == 0, (
        f"{protocol} seed {seed}: "
        + "; ".join(v.describe() for v in built.checker.violations[:5])
    )
    assert result.divergences == 0, f"{protocol} seed {seed} diverged"


def test_batched_run_is_deterministic_per_seed():
    first = run_experiment(_config("pocc", repl_batch=BATCHED))
    second = run_experiment(_config("pocc", repl_batch=BATCHED))
    assert _report_bytes(first) == _report_bytes(second)


# ----------------------------------------------------------------------
# Amortization: messages scale with flushes, not writes
# ----------------------------------------------------------------------
def _write_heavy(protocol: str, repl_batch, seed: int = 17):
    config = _config(
        protocol, repl_batch=repl_batch, seed=seed,
        workload=WorkloadConfig(kind="get_put", gets_per_put=1,
                                clients_per_partition=4,
                                think_time_s=0.0),
    )
    built = build_cluster(config)
    result = run_experiment(config, built=built)
    return built, result


def test_batching_collapses_inter_dc_replicate_messages():
    batch = ReplicationBatchConfig(max_versions=64,
                                   max_bytes=1 << 20, flush_ms=20.0)
    built_off, result_off = _write_heavy("pocc", None)
    built_on, result_on = _write_heavy("pocc", batch)
    off_types = built_off.network.stats.inter_dc_by_type
    on_types = built_on.network.stats.inter_dc_by_type
    singles = off_types.get("Replicate", 0)
    batches = (on_types.get("ReplicateBatch", 0)
               + on_types.get("Replicate", 0))
    assert singles > 1000, "write-heavy run produced too few replications"
    assert batches > 0
    assert singles / batches >= 8, (
        f"batch=64/20ms should cut replicate messages >= 8x, got "
        f"{singles}/{batches} = {singles / batches:.1f}x"
    )
    # Same work was replicated either way (both runs pass the checker).
    assert result_off.verification["violations"] == 0
    assert result_on.verification["violations"] == 0
    # Fewer messages also means fewer inter-DC bytes (shared headers).
    assert (built_on.network.stats.inter_dc_bytes()
            < built_off.network.stats.inter_dc_bytes())


def test_batching_suppresses_idle_heartbeats_while_traffic_flows():
    """Each flush stamps the clock into VV[m], so the write-idle check
    keeps the explicit heartbeat silent while batches flow."""
    batch = ReplicationBatchConfig(max_versions=64,
                                   max_bytes=1 << 20, flush_ms=20.0)
    built_off, _ = _write_heavy("pocc", None)
    built_on, _ = _write_heavy("pocc", batch)
    off_hb = built_off.network.stats.inter_dc_by_type.get("Heartbeat", 0)
    on_hb = built_on.network.stats.inter_dc_by_type.get("Heartbeat", 0)
    assert on_hb <= off_hb


def test_okapi_piggybacks_dst_on_batches():
    """Aggregator batches carry the DST, so explicit UstGossip traffic
    drops while the UST keeps advancing (visibility samples drain)."""
    batch = ReplicationBatchConfig(max_versions=64,
                                   max_bytes=1 << 20, flush_ms=10.0)
    built_off, result_off = _write_heavy("okapi", None)
    built_on, result_on = _write_heavy("okapi", batch)
    off_gossip = built_off.network.stats.inter_dc_by_type.get("UstGossip", 0)
    on_gossip = built_on.network.stats.inter_dc_by_type.get("UstGossip", 0)
    assert off_gossip > 0
    assert on_gossip < off_gossip, (
        f"piggybacked DST should suppress explicit gossip: "
        f"{on_gossip} vs {off_gossip}"
    )
    # The UST still advances: remote versions became visible and their
    # latency samples drained (count > 0 requires ust_advanced firing).
    assert result_on.visibility_lag["count"] > 0
    assert result_on.verification["violations"] == 0


# ----------------------------------------------------------------------
# The batcher itself (pure policy over a fake runtime)
# ----------------------------------------------------------------------
class _FakeTimer:
    def __init__(self):
        self.cancelled = False

    def cancel(self) -> bool:
        self.cancelled = True
        return True

    @property
    def active(self) -> bool:
        return not self.cancelled


class _FakeRuntime:
    def __init__(self):
        self.timers: list[tuple[float, object]] = []

    def schedule_flush(self, delay, fn, *args):
        timer = _FakeTimer()
        self.timers.append((delay, fn, timer))
        return timer


def _version(key="k", ut=1):
    from repro.storage.version import Version
    return Version(key=key, value=("c", 1), sr=0, ut=ut, dv=(0, 0))


def _batcher(max_versions=4, max_bytes=1 << 20, flush_ms=5.0):
    shipped: list[list] = []
    rt = _FakeRuntime()
    batcher = ReplicationBatcher(
        rt,
        ReplicationBatchConfig(max_versions=max_versions,
                               max_bytes=max_bytes, flush_ms=flush_ms),
        shipped.append,
    )
    return rt, batcher, shipped


def test_batcher_flushes_on_version_count():
    rt, batcher, shipped = _batcher(max_versions=3)
    for i in range(3):
        batcher.add(_version(ut=i + 1))
    assert [len(batch) for batch in shipped] == [3]
    assert batcher.pending == 0
    assert batcher.batches_flushed == 1
    assert batcher.versions_flushed == 3


def test_batcher_flushes_on_byte_threshold():
    from repro.protocols.messages import version_bytes
    size = version_bytes(_version())
    rt, batcher, shipped = _batcher(max_versions=1000,
                                    max_bytes=2 * size)
    batcher.add(_version(ut=1))
    assert not shipped
    assert batcher.pending_bytes == size
    batcher.add(_version(ut=2))
    assert [len(batch) for batch in shipped] == [2]
    assert batcher.pending_bytes == 0


def test_batcher_arms_one_deadline_and_cancels_it_on_size_flush():
    rt, batcher, shipped = _batcher(max_versions=2, flush_ms=7.0)
    batcher.add(_version(ut=1))
    assert len(rt.timers) == 1
    delay, _, timer = rt.timers[0]
    assert delay == pytest.approx(0.007)
    batcher.add(_version(ut=2))  # size flush beats the deadline
    assert shipped and timer.cancelled


def test_batcher_deadline_flushes_whatever_is_buffered():
    rt, batcher, shipped = _batcher(max_versions=100)
    batcher.add(_version(ut=1))
    batcher.add(_version(ut=2))
    _, deadline, _ = rt.timers[0]
    deadline()
    assert [len(batch) for batch in shipped] == [2]
    # The next add arms a fresh deadline (the old one is spent).
    batcher.add(_version(ut=3))
    assert len(rt.timers) == 2


def test_batcher_flush_on_empty_buffer_is_a_noop():
    rt, batcher, shipped = _batcher()
    batcher.flush()
    assert not shipped
    assert batcher.batches_flushed == 0


# ----------------------------------------------------------------------
# The flush-clock / heartbeat interplay at the protocol level
# ----------------------------------------------------------------------
def _batched_cluster(protocol="pocc", max_versions=64, flush_ms=5.0):
    return helpers.make_cluster(
        protocol=protocol, verify=True,
        cluster_overrides={
            "repl_batch": ReplicationBatchConfig(
                max_versions=max_versions,
                max_bytes=1 << 20, flush_ms=flush_ms,
            ),
        },
    )


def test_batch_flush_advances_remote_vv_to_the_flush_clock():
    built = _batched_cluster()
    client = helpers.client_at(built, dc=0)
    key_a = helpers.key_on_partition(built, 0, rank=0)
    key_b = helpers.key_on_partition(built, 0, rank=1)
    first = helpers.put(built, client, key_a, ("c", 1))
    second = helpers.put(built, client, key_b, ("c", 2))
    helpers.settle(built, 0.5)
    newest = max(first.ut, second.ut)
    for dc in range(1, built.topology.num_dcs):
        replica = built.servers[built.topology.server(dc, 0)]
        # The replica holds both versions and its VV entry for the
        # source covers the newest stamp — the flush clock is never
        # behind the versions it shipped.
        keys = {v.key for v in replica.store.all_versions() if v.ut > 0}
        assert {key_a, key_b} <= keys
        assert replica.vv[0] >= newest


def test_lone_deadline_flush_ships_a_stamped_batch():
    """With batching on, a single buffered write flushed by its deadline
    still travels as a ReplicateBatch carrying the flush clock — never
    as a plain Replicate."""
    built = _batched_cluster()
    client = helpers.client_at(built, dc=0)
    key = helpers.key_on_partition(built, 0, rank=0)
    version = helpers.put(built, client, key, ("c", 1))
    helpers.settle(built, 0.5)
    by_type = built.network.stats.inter_dc_by_type
    assert by_type.get("Replicate", 0) == 0
    assert by_type.get("ReplicateBatch", 0) >= 1
    for dc in range(1, built.topology.num_dcs):
        replica = built.servers[built.topology.server(dc, 0)]
        assert key in {v.key for v in replica.store.all_versions()}
        assert replica.vv[0] >= version.ut


def test_concurrent_puts_ride_one_batch():
    built = helpers.make_cluster(
        protocol="pocc", clients_per_partition=2, verify=True,
        cluster_overrides={
            "repl_batch": ReplicationBatchConfig(
                max_versions=64, max_bytes=1 << 20,
                flush_ms=5.0,
            ),
        },
    )
    client_a = helpers.client_at(built, dc=0, partition=0, index=0)
    client_b = helpers.client_at(built, dc=0, partition=0, index=1)
    key_a = helpers.key_on_partition(built, 0, rank=0)
    key_b = helpers.key_on_partition(built, 0, rank=1)
    done = []
    # Two sessions put into the same partition server at the same
    # instant: both versions land in the buffer inside one flush window.
    client_a.put(key_a, ("c", 1), done.append)
    client_b.put(key_b, ("c", 2), done.append)
    helpers.settle(built, 0.5)
    assert len(done) == 2
    batches = built.network.stats.inter_dc_by_type.get("ReplicateBatch", 0)
    assert batches >= 1, "the two puts should have shared one flush"
