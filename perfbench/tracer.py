"""Per-layer CPU accounting for one benchmark process.

Nothing under ``src/`` is changed to trace it: :meth:`Tracer.install`
replaces the public entry points of each layer *at class (or module)
level* with thin wrappers that open a span on entry and close it on
exit, and hooks ``gc.callbacks`` for collector pauses.  Spans are timed with the thread
CPU clock, so blocking syscalls (an fsync, an idle ``select``) never
count as work, and a span stack subtracts every nested span from its
parent: a layer's *self* time is CPU spent in its own code.

Whatever CPU no span covers is the *residual* (the event loop, selectors
and sockets on the live backend; the event engine in the simulator),
taken as process CPU time over the traced interval minus the root spans.

Spans are kept in memory (up to :data:`SPAN_CAP`) and written out by
:meth:`Tracer.dump` once the run is over, so tracing does no I/O.
"""

from __future__ import annotations

import gc
import json
import time
from array import array
from pathlib import Path

#: Spans kept for the dump (4 int64 each: layer, depth, start, end).
SPAN_CAP = 250_000

#: Layers with entry points, in report order.  ``runtime.loop`` and
#: ``sim.engine`` are residuals and have no entry points of their own.
TIMED_LAYERS = (
    "runtime.codec",
    "runtime.transport",
    "protocols.server",
    "protocols.client",
    "protocols.timers",
    "storage",
    "persistence",
    "verification",
    "workload",
    "gc",
    "sim.network",
    "sim.latency",
    "cluster.cpu",
)


class Tracer:
    """Span stack, per-layer totals and the in-memory span log."""

    def __init__(self) -> None:
        self.layers = list(TIMED_LAYERS)
        self.index = {name: i for i, name in enumerate(self.layers)}
        #: Open spans: ``[layer index, start ns, nested ns]``.
        self.stack: list[list[int]] = []
        self.recording = False
        self.calls = [0] * len(self.layers)
        self.self_ns = [0] * len(self.layers)
        #: CPU covered by outermost spans; equals ``sum(self_ns)`` when
        #: the stack arithmetic is right (checked by :meth:`summary`).
        self.root_ns = 0
        self.spans = array("q")
        self.spans_dropped = 0
        self.gc_collections = [0, 0, 0]
        self.gc_pause_max_ns = 0
        self._cpu_started = 0
        self.cpu_ns = 0

    # ------------------------------------------------------------------
    # Span bookkeeping
    # ------------------------------------------------------------------
    def close(self, frame: list[int], end: int) -> None:
        """Pop ``frame`` (the top of the stack) and account for it."""
        stack = self.stack
        stack.pop()
        duration = end - frame[1]
        if stack:
            stack[-1][2] += duration
        if not self.recording:
            return
        layer = frame[0]
        self.calls[layer] += 1
        self.self_ns[layer] += duration - frame[2]
        if not stack:
            self.root_ns += duration
        if len(self.spans) < 4 * SPAN_CAP:
            self.spans.extend((layer, len(stack), frame[1], end))
        else:
            self.spans_dropped += 1

    def wrap(self, layer: str, fn):
        """``fn`` inside a span of ``layer``; a call already inside a
        span of the same layer passes straight through, so
        ``calls`` counts entries into the layer, not internal calls."""
        idx = self.index[layer]
        stack = self.stack
        clock = time.thread_time_ns
        close = self.close

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == idx:
                return fn(*args, **kwargs)
            frame = [idx, clock(), 0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                close(frame, clock())

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner: object, name: str, layer: str) -> None:
        """Replace ``owner.name`` (a class or module attribute)."""
        setattr(owner, name, self.wrap(layer, getattr(owner, name)))

    def _on_gc(self, phase: str, info: dict) -> None:
        clock = time.thread_time_ns()
        if phase == "start":
            self.stack.append([self.index["gc"], clock, 0])
            return
        stack = self.stack
        if not stack or stack[-1][0] != self.index["gc"]:
            return  # installed between a start and its stop
        frame = stack[-1]
        if self.recording:
            self.gc_collections[info["generation"]] += 1
            self.gc_pause_max_ns = max(self.gc_pause_max_ns,
                                       clock - frame[1])
        self.close(frame, clock)

    # ------------------------------------------------------------------
    # The traced interval
    # ------------------------------------------------------------------
    def start(self) -> None:
        self._cpu_started = time.process_time_ns()
        self.recording = True

    def stop(self) -> None:
        self.recording = False
        self.cpu_ns += time.process_time_ns() - self._cpu_started

    def summary(self, ops: int, residual: str) -> dict[str, float]:
        """Per-layer metrics over ``ops`` completed operations.

        ``residual`` names the layer that owns the uncovered CPU; its
        share must not be negative, and ``tracing.self_vs_root`` (self
        times against outermost spans, as a share of CPU) must be ~0.
        """
        ops = max(ops, 1)
        cpu = max(self.cpu_ns, 1)
        out: dict[str, float] = {}
        for i, layer in enumerate(self.layers):
            out[f"{layer}.calls_per_op"] = self.calls[i] / ops
            out[f"{layer}.self_us_per_op"] = self.self_ns[i] / 1e3 / ops
            out[f"{layer}.share"] = self.self_ns[i] / cpu
        residual_ns = self.cpu_ns - self.root_ns
        out[f"{residual}.self_us_per_op"] = residual_ns / 1e3 / ops
        out[f"{residual}.share"] = residual_ns / cpu
        out["gc.collections_gen2"] = float(self.gc_collections[2])
        out["gc.pause_ms_max"] = self.gc_pause_max_ns / 1e6
        out["tracing.self_vs_root"] = (
            abs(sum(self.self_ns) - self.root_ns) / cpu)
        out["tracing.cpu_s"] = self.cpu_ns / 1e9
        return out

    def dump(self, path: Path) -> None:
        """Write the kept spans: a JSON header line, then raw int64s."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"layers": self.layers, "fields": ["layer", "depth",
                                                    "start_ns", "end_ns"],
                  "spans": len(self.spans) // 4,
                  "dropped": self.spans_dropped}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            self.spans.tofile(handle)

    # ------------------------------------------------------------------
    # Installing the wrappers
    # ------------------------------------------------------------------
    def install(self, protocol: str) -> None:
        """Wrap every layer's entry points (before the cluster is built:
        cores capture some bound methods at construction)."""
        from repro.cluster.cpu import CpuScheduler
        from repro.cluster.node import SimNode
        from repro.harness import experiment
        from repro.persistence.manager import PartitionDurability
        from repro.persistence.wal import GroupCommit
        from repro.protocols.registry import client_class, server_class
        from repro.runtime import codec
        from repro.runtime.cluster import LiveCluster
        from repro.runtime.transport import LiveHub, LiveRuntime
        from repro.sim.latency import GeoLatencyModel
        from repro.sim.network import Network
        from repro.storage.store import PartitionStore
        from repro.verification.checker import CausalChecker
        from repro.workload import generators
        from repro.workload.driver import DriverBase

        self.patch(codec, "encode_frame", "runtime.codec")
        self.patch(codec.FrameDecoder, "feed", "runtime.codec")
        self.patch(LiveHub, "post_frame", "runtime.transport")
        self.patch(server_class(protocol), "dispatch", "protocols.server")
        client = client_class(protocol)
        for name in ("get", "put", "ro_tx", "dispatch"):
            self.patch(client, name, "protocols.client")
        for name in ("freshest", "insert", "chain", "collect"):
            self.patch(PartitionStore, name, "storage")
        self.patch(PartitionDurability, "append_version", "persistence")
        self.patch(PartitionDurability, "snapshot", "persistence")
        self.patch(GroupCommit, "commit", "persistence")
        for name in ("on_read", "on_write", "on_tx_read"):
            self.patch(CausalChecker, name, "verification")
        self.patch(experiment, "check_convergence", "verification")
        for cls in (generators.GetPutWorkload, generators.RoTxWorkload,
                    generators.MixedWorkload):
            self.patch(cls, "next_op", "workload")
        self.patch(Network, "send", "sim.network")
        self.patch(GeoLatencyModel, "sample", "sim.latency")
        self.patch(CpuScheduler, "submit", "cluster.cpu")

        # Protocol timers: wrap the *callback* armed through the runtime,
        # not the arming call.  Driver loops and the live snapshot tick
        # also schedule through the runtime; they are not protocol work.
        not_protocol = (DriverBase, LiveCluster)
        wrap = self.wrap
        for runtime in (LiveRuntime, SimNode):
            for name in ("schedule", "schedule_at", "schedule_flush"):
                original = getattr(runtime, name)

                def arm(rt, when, fn, *args, _original=original):
                    if isinstance(getattr(fn, "__self__", None),
                                  not_protocol):
                        return _original(rt, when, fn, *args)
                    return _original(rt, when,
                                     wrap("protocols.timers", fn), *args)

                setattr(runtime, name, arm)
        gc.callbacks.append(self._on_gc)
