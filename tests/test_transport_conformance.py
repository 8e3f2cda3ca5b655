"""Backend-agnostic transport conformance suite.

One parametrized set of assertions over the Transport contract, run against
both execution backends:

* ``sim`` — :class:`repro.sim.transport.Transport` on the discrete-event
  engine (tier-1: fast, deterministic);
* ``tcp`` — :class:`repro.net.transport.TcpTransport` on real asyncio
  sockets (marked ``slow``; the CI live-backend job runs it).

The contract under test: per-peer in-order delivery, cancelable-timer
semantics, fault-injection drop behaviour (loss, partition, self-send
exemption), trace-sink emission, and stats/byte accounting.  A behaviour
difference between the backends is a bug in the live backend, not in the
test.
"""

from __future__ import annotations

import pytest

from repro.sim.transport import FaultConfig

from tests.net_helpers import SimHarness, TcpHarness

BACKENDS = [
    pytest.param("sim", id="sim"),
    pytest.param("tcp", id="tcp",
                 marks=[pytest.mark.slow, pytest.mark.timeout(60)]),
]


@pytest.fixture(params=BACKENDS)
def harness(request):
    h = SimHarness() if request.param == "sim" else TcpHarness()
    yield h
    h.stop()


def test_in_order_delivery_per_peer(harness):
    harness.start(2)
    n = 64
    for i in range(n):
        assert harness.send(0, 1, kind="message", payload=i)
    harness.settle()
    assert [p for _, p in harness.received(1)] == list(range(n))


def test_in_order_delivery_interleaved_destinations(harness):
    harness.start(3)
    for i in range(32):
        harness.send(0, 1, kind="message", payload=("to1", i))
        harness.send(0, 2, kind="message", payload=("to2", i))
    harness.settle()
    got1 = [tuple(p) for _, p in harness.received(1)]
    got2 = [tuple(p) for _, p in harness.received(2)]
    assert got1 == [("to1", i) for i in range(32)]
    assert got2 == [("to2", i) for i in range(32)]


def test_delivered_trace_records(harness):
    harness.start(2)
    harness.send(0, 1, kind="message", payload="x", size=17, qid=42)
    harness.settle()
    delivered = [t for t in harness.trace_records() if t.status == "delivered"]
    assert len(delivered) == 1
    t = delivered[0]
    assert t.kind == "message"
    assert t.src_host == 0 and t.dst_host == 1
    assert t.size == 17
    assert t.qid == 42
    assert t.attempt == 1
    assert t.arrived_at is not None and t.arrived_at >= t.sent_at


def test_timer_fires_and_deactivates(harness):
    harness.start(1)
    fired = []
    h = harness.timer(0, 0.01, lambda: fired.append(1))
    assert h.active
    harness.advance(0.1)
    assert fired == [1]
    assert not h.active
    h.cancel()  # cancel-after-fire is a no-op
    assert not h.active


def test_timer_cancel_prevents_firing(harness):
    harness.start(1)
    fired = []
    h = harness.timer(0, 0.02, lambda: fired.append(1))
    h.cancel()
    assert not h.active
    h.cancel()  # idempotent
    harness.advance(0.1)
    assert fired == []


def test_full_loss_drops_everything(harness):
    harness.start(2, faults=FaultConfig(loss_rate=1.0, seed=3))
    drops = []
    for i in range(10):
        ok = harness.send(0, 1, kind="message", payload=i, on_drop=drops.append)
        assert ok is False
    harness.settle()
    assert harness.received(1) == []
    assert len(drops) == 10
    assert all(t.status == "dropped:loss" for t in drops)
    assert harness.total_dropped("loss") == 10
    assert harness.total_delivered() == 0
    statuses = {t.status for t in harness.trace_records()}
    assert statuses == {"dropped:loss"}


def test_partition_blocks_cross_group_only(harness):
    faults = FaultConfig(partitions=({0, 1}, {2}))
    harness.start(3, faults=faults)
    assert harness.send(0, 1, kind="message", payload="same-group")
    ok_cross = harness.send(0, 2, kind="message", payload="cross")
    assert ok_cross is False
    harness.settle()
    assert [p for _, p in harness.received(1)] == ["same-group"]
    assert harness.received(2) == []
    assert harness.total_dropped("partition") == 1
    dropped = [t for t in harness.trace_records()
               if t.status == "dropped:partition"]
    assert len(dropped) == 1
    assert (dropped[0].src_host, dropped[0].dst_host) == (0, 2)


def test_self_send_is_never_faulted(harness):
    harness.start(1, faults=FaultConfig(loss_rate=1.0, seed=1))
    assert harness.send(0, 0, kind="message", payload="local")
    harness.settle()
    assert [p for _, p in harness.received(0)] == ["local"]
    assert harness.total_delivered() == 1


def test_stats_and_byte_accounting(harness):
    harness.start(2)
    harness.send(0, 1, kind="message", payload=None, size=10)   # query class
    harness.send(0, 1, kind="result", payload=None, size=20)
    harness.send(0, 1, kind="maintenance:x", payload=None, size=30)
    harness.settle()
    assert harness.total_sent() == 3
    assert harness.total_delivered() == 3
    assert harness.byte_totals() == (10, 20, 30)


def test_seeded_loss_is_reproducible(harness):
    outcomes = []
    for _ in range(2):
        harness.start(2, faults=FaultConfig(loss_rate=0.5, seed=99))
        outcomes.append(tuple(
            harness.send(0, 1, kind="message", payload=i) for i in range(32)
        ))
        harness.settle()
    assert outcomes[0] == outcomes[1]
    assert any(outcomes[0]) and not all(outcomes[0])


# -- tcp-only regressions ---------------------------------------------------


def test_local_rpc_answer_task_handle_is_kept():
    """Regression (ASY403): the self-addressed RPC fast path spawns an
    answer task; its handle must be strongly referenced until completion,
    or the loop's weak task set lets it be collected mid-flight."""
    import asyncio

    from repro.net.transport import TcpTransport

    async def scenario():
        transport = TcpTransport(node_id=0, host=0)
        await transport.start(listen=False)
        release = asyncio.Event()

        async def handler(payload, src):
            await release.wait()
            return {"echo": payload}

        transport.register_rpc("echo", handler)
        rpc = asyncio.create_task(
            transport.rpc(transport.addr, "echo", {"n": 1}))
        await asyncio.sleep(0)  # let the answer task spawn
        assert transport._client_tasks, "answer task handle was dropped"
        release.set()
        reply = await rpc
        assert reply == {"echo": {"n": 1}}
        for _ in range(3):  # done_callback runs a tick after completion
            if not transport._client_tasks:
                break
            await asyncio.sleep(0)
        assert not transport._client_tasks, "completed task not discarded"
        await transport.close()

    asyncio.run(scenario())


def test_close_leaves_no_pending_task():
    """Closing with a message still queued to an unreachable peer awaits
    the cancelled writer (and reader) tasks: none is left pending for the
    event loop to destroy."""
    import asyncio

    from repro.net.transport import TcpTransport

    async def scenario():
        # a port that refuses connections: bind a listener, then close it
        probe = await asyncio.start_server(lambda r, w: None, "127.0.0.1", 0)
        port = probe.sockets[0].getsockname()[1]
        probe.close()
        await probe.wait_closed()

        transport = TcpTransport(node_id=0, host=0, reconnect_base=0.5)
        await transport.start()
        before = asyncio.all_tasks()
        transport.send(f"127.0.0.1:{port}", "ping", {"n": 1})
        await asyncio.sleep(0.05)  # the writer is now in its reconnect backoff
        conn = next(iter(transport._pool.values()))
        assert conn.queue, "message should still be queued"
        spawned = asyncio.all_tasks() - before
        assert spawned, "the writer task should be running"
        await transport.close()
        pending = [t for t in spawned if not t.done()]
        assert not pending, f"tasks left pending after close: {pending}"

    asyncio.run(scenario())


def test_closed_transport_opens_no_connection():
    """A send or rpc after close spawns no writer task: the pool is already
    cleared, so nothing would ever close it."""
    import asyncio

    from repro.net.transport import RpcError, TcpTransport
    from repro.sim.transport import DROPPED_DEAD

    async def scenario():
        peer = TcpTransport(node_id=1, host=1)
        await peer.start()
        transport = TcpTransport(node_id=0, host=0)
        await transport.start()
        await transport.close()
        before = asyncio.all_tasks()
        drops = []
        assert not transport.send(peer.addr, "ping", {"n": 1}, on_drop=drops.append)
        assert [r.status for r in drops] == [DROPPED_DEAD]
        with pytest.raises(RpcError):
            await transport.rpc(peer.addr, "ping", {"n": 2})
        with pytest.raises(RpcError):
            await transport.rpc(transport.addr, "ping", {"n": 3})
        assert asyncio.all_tasks() == before
        assert not transport._pool
        await peer.close()

    asyncio.run(scenario())
