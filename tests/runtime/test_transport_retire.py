"""Channel retirement: frames to a resharded-out peer are discarded.

The failure mode these pin: after a removal commits, the leaver's
process stops for good, but background fan-outs (heartbeats, GC
broadcasts, view gossip) keep addressing the full topology.  Without
retirement every tick burns a full connect-retry budget against the
dead listener and records a transport error, which a clean shutdown
treats as a failure.  ``LiveHub.retire`` makes the grave explicit:
frames to it are counted in ``stats.retired_frames`` and dropped, the
open channel (if any) is torn down, and nothing ever re-dials — while
the *implicit* dead-sender path keeps its opposite behavior (re-dial
fresh), because a crashed peer that restarted from its WAL must be
reachable again.
"""

import asyncio

from repro.common.types import server_address
from repro.runtime import transport
from repro.runtime.transport import AddressBook, LiveHub


class FakeWriter:
    """The StreamWriter surface the sender touches, against no socket."""

    def __init__(self):
        self.writes: list[bytes] = []
        self.closed = False

    def write(self, data: bytes) -> None:
        self.writes.append(bytes(data))

    def writelines(self, parts) -> None:
        self.writes.append(b"".join(bytes(part) for part in parts))

    def get_extra_info(self, name, default=None):
        return default

    async def drain(self) -> None:
        await asyncio.sleep(0)

    def close(self) -> None:
        self.closed = True


def _hub() -> tuple[LiveHub, object]:
    dst = server_address(0, 0)
    book = AddressBook()
    book.set(dst, "127.0.0.1", 1)
    return LiveHub(book), dst


def test_frames_to_a_retired_peer_are_dropped_and_counted():
    hub, dst = _hub()
    assert not hub.is_retired(dst)
    hub.retire(dst)
    assert hub.is_retired(dst)
    for _ in range(3):
        hub.post_frame(dst, b"gossip")
    assert hub.stats.retired_frames == 3
    # Dropped frames never count as sent and never open a channel —
    # that is the whole point: no dial, no retry budget, no error.
    assert hub.stats.messages_sent == 0
    assert hub.stats.connect_attempts == 0
    assert dst not in hub._channels
    assert hub.errors == []


def test_unretire_restores_delivery(monkeypatch):
    hub, dst = _hub()
    writer = FakeWriter()

    async def fake_open_connection(host, port):
        return None, writer

    monkeypatch.setattr(transport.asyncio, "open_connection",
                        fake_open_connection)

    async def run() -> None:
        hub.retire(dst)
        hub.post_frame(dst, b"dropped")
        hub.unretire(dst)
        assert not hub.is_retired(dst)
        hub.post_frame(dst, b"delivered")
        await asyncio.wait_for(hub._channels[dst][0].join(), timeout=5.0)

    asyncio.run(run())
    assert hub.stats.retired_frames == 1
    assert hub.stats.messages_sent == 1
    assert b"".join(writer.writes) == b"delivered"


def test_retire_tears_down_the_open_channel(monkeypatch):
    hub, dst = _hub()
    writer = FakeWriter()

    async def fake_open_connection(host, port):
        return None, writer

    monkeypatch.setattr(transport.asyncio, "open_connection",
                        fake_open_connection)

    async def run() -> None:
        hub.post_frame(dst, b"live traffic")
        queue, task = hub._channels[dst]
        await asyncio.wait_for(queue.join(), timeout=5.0)
        hub.retire(dst)
        assert dst not in hub._channels
        try:
            await task
        except asyncio.CancelledError:
            pass
        assert task.cancelled()

    asyncio.run(run())
    assert hub.stats.retired_frames == 0  # only *future* frames drop
    assert b"".join(writer.writes) == b"live traffic"


def test_dead_sender_is_redialed_not_retired(monkeypatch):
    """The implicit path keeps its opposite contract: a sender task that
    died (peer crashed) is replaced with a fresh dial on the next frame,
    because a WAL-recovered peer must be reachable again.  Only the
    explicit ``retire`` call makes a destination permanent."""
    hub, dst = _hub()
    writer = FakeWriter()

    async def fake_open_connection(host, port):
        return None, writer

    monkeypatch.setattr(transport.asyncio, "open_connection",
                        fake_open_connection)

    async def run() -> None:
        dead = asyncio.get_running_loop().create_task(asyncio.sleep(0))
        await dead  # the old sender is done: its peer's crash killed it
        hub._channels[dst] = (asyncio.Queue(), dead)
        hub.post_frame(dst, b"after recovery")
        queue, task = hub._channels[dst]
        assert task is not dead  # re-dialed fresh
        await asyncio.wait_for(queue.join(), timeout=5.0)
        task.cancel()
        try:
            await task
        except asyncio.CancelledError:
            pass

    asyncio.run(run())
    assert hub.stats.reconnects == 1
    assert hub.stats.retired_frames == 0
    assert not hub.is_retired(dst)
    assert b"".join(writer.writes) == b"after recovery"


def test_runtime_retire_peer_delegates_to_the_hub():
    hub, dst = _hub()
    runtime = hub.runtime(server_address(0, 1))
    runtime.retire_peer(dst)
    assert hub.is_retired(dst)
    hub.post_frame(dst, b"view gossip")
    assert hub.stats.retired_frames == 1


def test_drain_skips_a_channel_still_dialing(monkeypatch):
    """A graceful shutdown drains its outgoing frames, but a peer that is
    not listening (stopped, or stopping alongside this process) must not
    hold the drain for the whole connect budget and then fail it: the
    dialing channel has put nothing on the wire to wait for."""
    hub, dst = _hub()
    hub.stopping = True
    live = server_address(1, 0)
    hub.book.set(live, "127.0.0.1", 2)
    writer = FakeWriter()

    async def fake_open_connection(host, port):
        if port == 1:
            raise ConnectionRefusedError("nobody listening")
        return None, writer

    monkeypatch.setattr(transport.asyncio, "open_connection",
                        fake_open_connection)

    async def run() -> float:
        hub.post_frame(dst, b"to the grave")
        hub.post_frame(live, b"to a peer")
        await asyncio.sleep(0.01)  # both senders ran their first dial
        started = hub.loop.time()
        await hub.drain()
        elapsed = hub.loop.time() - started
        await hub.close()
        return elapsed

    assert asyncio.run(run()) < 1.0
    assert b"".join(writer.writes) == b"to a peer"
    assert hub.errors == []


def test_drain_waits_for_a_dialing_channel_mid_run(monkeypatch):
    """Outside a graceful stop a dialing channel is not skipped: a peer
    that restarts a moment later still gets the frames queued for it
    before drain() returns (quiesce and resharding rely on this)."""
    hub, dst = _hub()
    hub.connect_policy = transport.ConnectRetryPolicy(initial_delay_s=0.01,
                                                      jitter=0.0)
    writer = FakeWriter()
    refusals = [ConnectionRefusedError("restarting")] * 3

    async def fake_open_connection(host, port):
        if refusals:
            raise refusals.pop()
        return None, writer

    monkeypatch.setattr(transport.asyncio, "open_connection",
                        fake_open_connection)

    async def run() -> None:
        hub.post_frame(dst, b"queued while dialing")
        await asyncio.sleep(0)  # the sender's first dial is refused
        await hub.drain()
        assert b"".join(writer.writes) == b"queued while dialing"
        await hub.close()

    asyncio.run(run())
    assert refusals == []
    assert hub.errors == []
