"""A live DHT node: Chord-over-RPC on :class:`repro.net.transport.TcpTransport`.

One :class:`NodeProcess` hosts one overlay node — as an asyncio task inside a
test or :class:`~repro.net.cluster.LocalCluster`, or as an OS process via
``repro node``.  It reuses the repository's algorithm layers unchanged:

* ring arithmetic and ownership — :mod:`repro.dht.idspace` /
  :mod:`repro.dht.hashing` (same ``(pred, self]`` intervals and rotation
  offsets the simulator uses, so placement agrees with the simulated ring);
* index hashing and local solving — :mod:`repro.core.lph` and
  :meth:`repro.core.storage.Shard.range_search` (the exact code path the
  simulator's query protocol executes per node);
* durability — :class:`repro.core.storage.PersistentShard`: every accepted
  insert batch is WAL-logged before it is acknowledged, and overlay state
  (successor list, predecessor) is checkpointed to ``meta.json``, so a
  SIGKILLed node restarts with a bit-identical shard and warm ring hints.

Stabilisation is the classic Chord triad (``stabilize`` / ``notify`` /
successor-list repair) expressed as request/response RPCs instead of the
simulator's shared-memory callback sends — the message *pattern* matches
:mod:`repro.dht.stabilize`, but each step awaits a real network round trip
and treats :class:`~repro.net.transport.RpcTimeout` as a failure detector.
Routing uses successor walks (plus full-ring snapshots for batch placement);
finger tables are future work for live clusters beyond tens of nodes —
docs/deployment.md discusses the trade-off.
"""

from __future__ import annotations

import asyncio
import bisect
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.index_space import IndexSpaceBounds
from repro.core.lph import smallest_enclosing_prefix
from repro.core.storage import PersistentShard
from repro.dht.hashing import node_id, rotation_offset
from repro.dht.idspace import in_interval_open, in_interval_open_closed
from repro.net.transport import RpcError, RpcTimeout, TcpTransport
from repro.sim.transport import FaultConfig, TraceSink

__all__ = ["NodeConfig", "NodeProcess", "MAX_ROUTE_HOPS"]

#: routing-loop guard: a successor walk longer than this aborts loudly
MAX_ROUTE_HOPS = 512


@dataclass
class NodeConfig:
    """Everything a live node needs to boot (CLI flags map 1:1 onto this)."""

    name: str
    data_dir: str
    m: int = 32
    k: int = 2
    bounds_low: float = 0.0
    bounds_high: float = 1000.0
    index_name: str = "index"
    bind: str = "127.0.0.1"
    port: int = 0
    bootstrap: str | None = None
    succ_list_len: int = 4
    stabilize_interval: float = 0.25
    rpc_timeout: float = 2.0
    fmt: str = "json"
    seed: int = 0
    host: int = 0
    fsync: bool = False
    faults: FaultConfig = field(default_factory=FaultConfig)

    @property
    def bounds(self) -> IndexSpaceBounds:
        return IndexSpaceBounds.uniform(self.k, self.bounds_low, self.bounds_high)


class NodeProcess:
    """One live overlay node (see module docstring)."""

    def __init__(self, config: NodeConfig, trace: TraceSink | None = None,
                 metrics: Any = None) -> None:
        self.config = config
        self.m = config.m
        self.id = node_id(config.name, config.m)
        self.rotation = rotation_offset(config.index_name, config.m)
        self.bounds = config.bounds
        self.transport = TcpTransport(
            node_id=self.id,
            host=config.host,
            faults=config.faults,
            trace=trace,
            metrics=metrics,
            fmt=config.fmt,
            seed=config.seed,
            rpc_timeout=config.rpc_timeout,
        )
        self.shard = PersistentShard(config.data_dir, config.k, fsync=config.fsync)
        self.predecessor: dict[str, Any] | None = None
        self.successors: list[dict[str, Any]] = []
        self._stabilize_task: asyncio.Task[None] | None = None
        self._running = False

    # -- identity ---------------------------------------------------------------

    @property
    def addr(self) -> str:
        return self.transport.addr

    def entry(self) -> dict[str, Any]:
        """This node as a ring entry (``{"id", "addr", "name"}``)."""
        return {"id": self.id, "addr": self.addr, "name": self.config.name}

    @property
    def successor(self) -> dict[str, Any]:
        return self.successors[0] if self.successors else self.entry()

    # -- lifecycle --------------------------------------------------------------

    async def start(self) -> str:
        """Bind, recover persisted state, join the ring, start stabilising."""
        await self.transport.start(self.config.bind, self.config.port)
        self._register_rpcs()
        self._recover_overlay_state()
        await self._join()
        self._running = True
        self._stabilize_task = asyncio.get_running_loop().create_task(
            self._stabilize_loop())
        return self.addr

    async def close(self) -> None:
        """Graceful local shutdown (crash tests just SIGKILL the process)."""
        self._running = False
        task, self._stabilize_task = self._stabilize_task, None
        if task is not None:
            task.cancel()
        await self.transport.close()
        if task is not None:
            # awaited after the transport closed: asyncio.wait_for can turn
            # the cancel into the rpc's "transport closed" error, and the
            # loop then ends on _running instead
            await asyncio.gather(task, return_exceptions=True)
        self.shard.close()

    def _recover_overlay_state(self) -> None:
        meta = self.shard.meta
        succ = meta.get("successors")
        if isinstance(succ, list):
            # stale addresses are fine: stabilisation times out and repairs
            self.successors = [e for e in succ if e.get("addr") != self.addr]
        pred = meta.get("predecessor")
        if isinstance(pred, dict):
            self.predecessor = pred

    def _persist_overlay_state(self) -> None:
        self.shard.set_meta(
            successors=self.successors[: self.config.succ_list_len],
            predecessor=self.predecessor,
            node_id=self.id,
            name=self.config.name,
            addr=self.addr,
        )

    async def _join(self) -> None:
        bootstrap = self.config.bootstrap
        candidates: list[str] = []
        if bootstrap:
            candidates.append(bootstrap)
        # a restarting node can rejoin through any peer it remembers
        candidates.extend(e["addr"] for e in self.successors)
        for cand in candidates:
            if cand == self.addr:
                continue
            try:
                succ = await self.transport.rpc(
                    cand, "find_successor", {"target": self.id})
                self.successors = [succ]
                self._persist_overlay_state()
                return
            except (RpcError, OSError):
                continue
        # nobody reachable: start (or continue) as a one-node ring
        self.successors = []
        self.predecessor = None
        self._persist_overlay_state()

    # -- stabilisation (Chord stabilize/notify over RPC) ------------------------

    async def _stabilize_loop(self) -> None:
        interval = self.config.stabilize_interval
        while self._running:
            try:
                await self._stabilize_once()
                await self._check_predecessor()
            except asyncio.CancelledError:
                raise
            except (RpcError, OSError):  # transient; next round retries
                pass
            await asyncio.sleep(interval)

    async def _check_predecessor(self) -> None:
        """Clear a dead predecessor so its live one can re-notify us."""
        pred = self.predecessor
        if pred is None or pred["addr"] == self.addr:
            return
        try:
            await self.transport.rpc(pred["addr"], "ping", None)
        except RpcTimeout:
            self.predecessor = None
            self._persist_overlay_state()

    async def _stabilize_once(self) -> None:
        succ = self.successor
        if succ["addr"] == self.addr:
            # single-node ring: adopt anyone who notified us
            if self.predecessor is not None and self.predecessor["addr"] != self.addr:
                self.successors = [self.predecessor]
            return
        try:
            pred = await self.transport.rpc(succ["addr"], "get_predecessor", None)
        except RpcTimeout:
            self._drop_successor(succ)
            return
        if (
            isinstance(pred, dict)
            and pred.get("addr") != self.addr
            and in_interval_open(int(pred["id"]), self.id, int(succ["id"]), self.m)
        ):
            succ = pred
            self.successors = [succ] + self.successors
        try:
            await self.transport.rpc(succ["addr"], "notify", self.entry())
            succ_list = await self.transport.rpc(succ["addr"], "get_successor_list", None)
        except RpcTimeout:
            self._drop_successor(succ)
            return
        chain = [succ] + [e for e in succ_list if e["addr"] != self.addr]
        deduped: list[dict[str, Any]] = []
        seen: set[str] = set()
        for e in chain:
            if e["addr"] not in seen:
                seen.add(e["addr"])
                deduped.append(e)
        self.successors = deduped[: self.config.succ_list_len]
        self._persist_overlay_state()

    def _drop_successor(self, dead: dict[str, Any]) -> None:
        """Failure detector fired: promote the next live successor."""
        self.successors = [e for e in self.successors if e["addr"] != dead["addr"]]
        self._persist_overlay_state()

    # -- routing ----------------------------------------------------------------

    async def find_successor(self, target: int) -> dict[str, Any]:
        """Owner of ring position ``target`` via a successor walk."""
        cur = self.entry()
        succ = self.successor
        if succ["addr"] == self.addr:
            return cur
        for _ in range(MAX_ROUTE_HOPS):
            if in_interval_open_closed(target, int(cur["id"]), int(succ["id"]), self.m):
                return succ
            nxt = await self.transport.rpc(succ["addr"], "get_successor", None)
            cur, succ = succ, nxt
        raise RpcError(f"find_successor({target}) exceeded {MAX_ROUTE_HOPS} hops")

    async def ring_snapshot(self) -> list[dict[str, Any]]:
        """All live ring members, by walking successors from this node."""
        members = [self.entry()]
        seen = {self.addr}
        cur = self.successor
        for _ in range(MAX_ROUTE_HOPS):
            if cur["addr"] in seen:
                break
            members.append(dict(cur))
            seen.add(cur["addr"])
            cur = await self.transport.rpc(cur["addr"], "get_successor", None)
        members.sort(key=lambda e: int(e["id"]))
        return members

    def owns(self, rotated_key: int) -> bool:
        """Ownership test: rotated key in ``(predecessor, self]``."""
        if self.predecessor is None:
            return True
        return in_interval_open_closed(
            rotated_key, int(self.predecessor["id"]), self.id, self.m)

    # -- data plane -------------------------------------------------------------

    def _rotate(self, keys: np.ndarray) -> np.ndarray:
        size = np.uint64(1 << self.m) if self.m < 64 else None
        rot = keys.astype(np.uint64) + np.uint64(self.rotation)
        return rot % size if size is not None else rot

    async def route_insert(self, keys: np.ndarray, points: np.ndarray,
                           object_ids: np.ndarray) -> int:
        """Place a batch on its owners (one ``insert`` RPC per owner).

        Returns the number of entries durably accepted.  Placement uses a
        ring snapshot: correct whenever stabilisation has converged, which
        the cluster demo and tests await first.
        """
        ring = await self.ring_snapshot()
        rotated = self._rotate(np.asarray(keys, dtype=np.uint64))
        ids_ring = np.asarray([int(e["id"]) for e in ring], dtype=np.uint64)
        # owner of key t = first ring id >= t, cyclically
        slot = np.searchsorted(ids_ring, rotated, side="left") % len(ring)
        accepted = 0
        for s in range(len(ring)):
            mask = slot == s
            if not mask.any():
                continue
            payload = {
                "keys": np.asarray(keys, dtype=np.uint64)[mask],
                "points": np.asarray(points, dtype=np.float64)[mask],
                "ids": np.asarray(object_ids, dtype=np.int64)[mask],
            }
            reply = await self.transport.rpc(ring[s]["addr"], "insert", payload)
            accepted += int(reply["accepted"])
        return accepted

    async def range_query(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """Distributed range query: object ids of entries inside the rect.

        Coordinator side of the paper's pipeline: smallest enclosing prefix
        → cuboid key interval → rotated ring arc → one ``range_solve`` RPC
        per arc owner → union of locally solved ids.
        """
        lows = np.asarray(lows, dtype=np.float64)
        highs = np.asarray(highs, dtype=np.float64)
        prefix_key, prefix_len = smallest_enclosing_prefix(
            lows, highs, self.bounds, self.m)
        key_lo = prefix_key
        key_hi = prefix_key + (1 << (self.m - prefix_len)) - 1
        size = 1 << self.m
        rot_lo = (key_lo + self.rotation) % size
        rot_hi = (key_hi + self.rotation) % size
        ring = await self.ring_snapshot()
        owners = _owners_for_arc(ring, rot_lo, rot_hi, self.m)
        payload = {
            "lows": lows,
            "highs": highs,
            "key_lo": key_lo,
            "key_hi": key_hi,
        }
        collected: list[np.ndarray] = []
        for owner in owners:
            reply = await self.transport.rpc(owner["addr"], "range_solve", payload)
            collected.append(reply["ids"])
        if not collected:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(collected)).astype(np.int64)

    # -- RPC surface ------------------------------------------------------------

    def _register_rpcs(self) -> None:
        t = self.transport
        t.register_rpc("ping", self._rpc_ping)
        t.register_rpc("get_successor", self._rpc_get_successor)
        t.register_rpc("get_successor_list", self._rpc_get_successor_list)
        t.register_rpc("get_predecessor", self._rpc_get_predecessor)
        t.register_rpc("notify", self._rpc_notify)
        t.register_rpc("find_successor", self._rpc_find_successor)
        t.register_rpc("insert", self._rpc_insert)
        t.register_rpc("route_insert", self._rpc_route_insert)
        t.register_rpc("range_solve", self._rpc_range_solve)
        t.register_rpc("query", self._rpc_query)
        t.register_rpc("status", self._rpc_status)
        t.register_rpc("snapshot", self._rpc_snapshot)

    async def _rpc_ping(self, payload: Any, src: dict[str, Any]) -> Any:
        return self.entry()

    async def _rpc_get_successor(self, payload: Any, src: dict[str, Any]) -> Any:
        return self.successor

    async def _rpc_get_successor_list(self, payload: Any, src: dict[str, Any]) -> Any:
        return self.successors[: self.config.succ_list_len]

    async def _rpc_get_predecessor(self, payload: Any, src: dict[str, Any]) -> Any:
        return self.predecessor

    async def _rpc_notify(self, payload: Any, src: dict[str, Any]) -> Any:
        cand = payload
        if (
            self.predecessor is None
            or self.predecessor["addr"] == self.addr
            or in_interval_open(
                int(cand["id"]), int(self.predecessor["id"]), self.id, self.m)
        ):
            self.predecessor = dict(cand)
            self._persist_overlay_state()
        return {"ok": True}

    async def _rpc_find_successor(self, payload: Any, src: dict[str, Any]) -> Any:
        return await self.find_successor(int(payload["target"]))

    async def _rpc_insert(self, payload: Any, src: dict[str, Any]) -> Any:
        keys = payload["keys"]
        seq = self.shard.add(keys, payload["points"], payload["ids"])
        return {"accepted": int(len(keys)), "seq": int(seq)}

    async def _rpc_route_insert(self, payload: Any, src: dict[str, Any]) -> Any:
        accepted = await self.route_insert(
            payload["keys"], payload["points"], payload["ids"])
        return {"accepted": accepted}

    async def _rpc_range_solve(self, payload: Any, src: dict[str, Any]) -> Any:
        pos = self.shard.shard.range_search(
            payload["lows"], payload["highs"],
            key_lo=int(payload["key_lo"]), key_hi=int(payload["key_hi"]))
        ids = self.shard.shard.object_ids[pos]
        return {"ids": np.asarray(ids, dtype=np.int64)}

    async def _rpc_query(self, payload: Any, src: dict[str, Any]) -> Any:
        ids = await self.range_query(payload["lows"], payload["highs"])
        return {"ids": ids}

    async def _rpc_status(self, payload: Any, src: dict[str, Any]) -> Any:
        return {
            "id": self.id,
            "name": self.config.name,
            "addr": self.addr,
            "predecessor": self.predecessor,
            "successors": self.successors[: self.config.succ_list_len],
            "entries": int(len(self.shard.shard)),
            "digest": self.shard.digest(),
            "wal_records": self.shard.wal_records,
            "stats": {
                "sent": self.transport.stats.sent,
                "delivered": self.transport.stats.delivered,
            },
        }

    async def _rpc_snapshot(self, payload: Any, src: dict[str, Any]) -> Any:
        """Fold the WAL into the snapshot (compaction; also an ops hook)."""
        self.shard.snapshot()
        return {"ok": True, "digest": self.shard.digest()}


def _owners_for_arc(ring: list[dict[str, Any]], lo: int, hi: int,
                    m: int) -> list[dict[str, Any]]:
    """Ring members whose ownership arc intersects the rotated ``[lo, hi]``.

    ``ring`` is sorted by id; member ``i`` owns ``(id[i-1], id[i]]``
    (cyclically).  The arc may wrap.
    """
    if not ring:
        return []
    if len(ring) == 1:
        return list(ring)
    ids = [int(e["id"]) for e in ring]
    n = len(ring)
    size = 1 << m
    lo %= size
    hi %= size
    # first owner: successor of lo on the ring
    start = bisect.bisect_left(ids, lo) % n
    # walk clockwise until an owner's id reaches hi's arc position; the
    # membership test `hi in (pred, id]` is wrong here — a near-full arc can
    # wrap past every node and end inside the *first* owner's interval
    arc_len = (hi - lo) % size
    owners = []
    i = start
    for _ in range(n):
        owners.append(ring[i])
        if (ids[i] - lo) % size >= arc_len:
            break
        i = (i + 1) % n
    return owners
