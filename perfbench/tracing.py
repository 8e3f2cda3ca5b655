"""In-memory span tracing installed from outside the program.

A :class:`Tracer` wraps public functions of the program's layers (module
bindings, methods, classmethods, coroutines) and records one span per call:
layer name, start, end, parent span and query id.  Nothing under ``src/`` is
edited: :meth:`Tracer.installed` patches the attributes for the duration of a
``with`` block and puts the original objects back on exit, so an untraced run
in the same process executes exactly the program's own code.

Synchronous spans nest through a stack, so a layer's *self time* is its
duration minus the time its wrapped children cover.  Coroutine spans (the live
backend's RPCs and node operations) interleave on the event loop; they are
kept as *wait* spans outside the stack and never count as anyone's child.
"""

from __future__ import annotations

import contextlib
import inspect
import time
from collections import defaultdict
from collections.abc import Callable, Iterator
from pathlib import Path
from typing import Any

import numpy as np

__all__ = ["Tracer", "PhaseSummary", "MAINTENANCE_RPCS"]

#: live RPC kinds issued by Chord stabilisation; every other kind is
#: foreground work of a client operation
MAINTENANCE_RPCS = frozenset({"ping", "notify", "get_predecessor", "get_successor_list"})


def _arg(args: tuple[Any, ...], kwargs: dict[str, Any], pos: int, name: str) -> Any:
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else None


def _qid_attr(pos: int) -> Callable[[tuple[Any, ...], dict[str, Any]], int | None]:
    return lambda a, kw: getattr(a[pos], "qid", None)


def _qid_pos(pos: int) -> Callable[[tuple[Any, ...], dict[str, Any]], int | None]:
    return lambda a, kw: a[pos] if len(a) > pos else kw.get("qid")


def _qid_kw(a: tuple[Any, ...], kw: dict[str, Any]) -> int | None:
    return kw.get("qid")


class PhaseSummary:
    """Per-layer aggregates of one traced phase (see :meth:`Tracer.summary`)."""

    def __init__(self, wall: float, self_s: dict[str, float], total_s: dict[str, float],
                 calls: dict[str, int], counters: dict[str, float]) -> None:
        self.wall = wall
        self.self_s = self_s
        self.total_s = total_s
        self.calls = calls
        self.counters = counters

    @property
    def residual(self) -> float:
        """Phase wall time not covered by any synchronous span."""
        return self.wall - sum(self.self_s.values())


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.layer_names: list[str] = []
        self._codes: dict[str, int] = {}
        self.code: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.qid: list[int] = []
        self.is_wait: list[bool] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        #: query id for spans whose arguments carry none and that have no
        #: parent to inherit from (set by a closed-loop client per operation)
        self.current_qid = -1
        #: added to argument-derived qids (the simulator numbers the queries
        #: of each workload chunk from 0)
        self.qid_base = 0
        #: lifecycle engines seen registering a query (their counters are
        #: read after the phase)
        self.lifecycle_engines: set[Any] = set()
        self._patches: list[tuple[Any, str, bool, Any]] = []
        self._phases: dict[str, tuple[int, int, float, dict[str, float]]] = {}
        self._open_phase: tuple[str, int, float, dict[str, float]] | None = None

    # -- span recording -----------------------------------------------------

    def _layer(self, name: str) -> int:
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self.layer_names)
            self.layer_names.append(name)
        return code

    def wrap(self, name: str, fn: Callable[..., Any],
             qid_of: Callable[[tuple[Any, ...], dict[str, Any]], int | None] | None = None,
             after: Callable[[Tracer, tuple[Any, ...], dict[str, Any], Any], None] | None = None,
             ) -> Callable[..., Any]:
        """A span-recording stand-in for ``fn`` (sync or coroutine)."""
        code = self._layer(name)
        codes, starts, ends = self.code, self.start, self.end
        parents, qids, waits, stack = self.parent, self.qid, self.is_wait, self.stack
        clock = time.perf_counter
        tracer = self

        if inspect.iscoroutinefunction(fn):
            async def wait_wrapper(*args: Any, **kwargs: Any) -> Any:
                sid = len(starts)
                codes.append(code)
                parents.append(-1)
                qids.append(tracer.current_qid)
                waits.append(True)
                starts.append(clock())
                ends.append(0.0)
                try:
                    result = await fn(*args, **kwargs)
                except BaseException:
                    ends[sid] = clock()
                    tracer.counters[name + ".failed"] += 1
                    raise
                ends[sid] = clock()
                if after is not None:
                    after(tracer, args, kwargs, result)
                return result

            return wait_wrapper

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            sid = len(starts)
            par = stack[-1] if stack else -1
            q = qid_of(args, kwargs) if qid_of is not None else None
            if q is not None:
                q += tracer.qid_base
            elif par >= 0:
                q = qids[par]
            else:
                q = tracer.current_qid
            codes.append(code)
            parents.append(par)
            qids.append(q)
            waits.append(False)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return wrapper

    # -- patching ----------------------------------------------------------------

    def patch(self, owner: Any, attr: str, name: str, **kw: Any) -> None:
        """Replace ``owner.attr`` by a span wrapper until :meth:`restore`."""
        had = attr in vars(owner)
        original = vars(owner)[attr] if had else getattr(owner, attr)
        if isinstance(original, classmethod):
            stand_in: Any = classmethod(self.wrap(name, original.__func__, **kw))
        else:
            stand_in = self.wrap(name, original, **kw)
        self._patches.append((owner, attr, had, original))
        setattr(owner, attr, stand_in)

    @property
    def patched(self) -> list[tuple[Any, str, Any]]:
        """``(owner, attribute, original)`` of every patch now in place."""
        return [(owner, attr, original) for owner, attr, _, original in self._patches]

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, had, original = self._patches.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    @contextlib.contextmanager
    def installed(self) -> Iterator[Tracer]:
        """Patch every layer boundary for the duration of the block."""
        install_layer_wrappers(self)
        try:
            yield self
        finally:
            self.restore()

    # -- phases and aggregation -----------------------------------------------

    def begin(self, phase: str) -> None:
        self._open_phase = (phase, len(self.start), time.perf_counter(), dict(self.counters))

    def finish(self) -> None:
        if self._open_phase is None:
            raise RuntimeError("no phase open")
        phase, first, t0, counters0 = self._open_phase
        wall = time.perf_counter() - t0
        counters = {k: v - counters0.get(k, 0.0) for k, v in self.counters.items()}
        self._phases[phase] = (first, len(self.start), wall, counters)
        self._open_phase = None

    def summary(self, phase: str, wall: float | None = None) -> PhaseSummary:
        """Self time, total time and call count per layer within ``phase``.

        ``wall`` overrides the phase's own begin-to-finish time, for callers
        that timed the measured work more narrowly.
        """
        first, last, phase_wall, counters = self._phases[phase]
        wall = phase_wall if wall is None else wall
        code = np.asarray(self.code[first:last], dtype=np.int64)
        start = np.asarray(self.start[first:last])
        end = np.asarray(self.end[first:last])
        parent = np.asarray(self.parent[first:last], dtype=np.int64) - first
        wait = np.asarray(self.is_wait[first:last], dtype=bool)
        dur = end - start
        child = np.zeros(len(dur))
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        own = np.where(wait, 0.0, dur - child)
        self_s: dict[str, float] = {}
        total_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        n_layers = len(self.layer_names)
        own_by = np.bincount(code, weights=own, minlength=n_layers)
        dur_by = np.bincount(code, weights=dur, minlength=n_layers)
        n_by = np.bincount(code, minlength=n_layers)
        waits_by = np.bincount(code, weights=wait.astype(float), minlength=n_layers)
        for c, layer in enumerate(self.layer_names):
            if n_by[c] == 0:
                continue
            calls[layer] = int(n_by[c])
            total_s[layer] = float(dur_by[c])
            if waits_by[c] == 0:
                self_s[layer] = float(own_by[c])
        return PhaseSummary(wall, self_s, total_s, calls, counters)

    def dump(self, path: Path) -> None:
        """Write every span to ``path`` (``.npz``; names in ``layers``)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            layers=np.asarray(self.layer_names),
            code=np.asarray(self.code, dtype=np.int32),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
            parent=np.asarray(self.parent, dtype=np.int64),
            qid=np.asarray(self.qid, dtype=np.int64),
            wait=np.asarray(self.is_wait, dtype=bool),
        )


# -- counters gathered after a wrapped call returns ---------------------------------


def _after_query_split(t: Tracer, a: tuple[Any, ...], kw: dict[str, Any], out: Any) -> None:
    t.counters["core.query.query_split.subqueries"] += len(out)


def _after_range_search(t: Tracer, a: tuple[Any, ...], kw: dict[str, Any], out: Any) -> None:
    shard = a[0]
    n = len(shard)
    start, stop = 0, n
    if n:
        key_lo = _arg(a, kw, 3, "key_lo")
        key_hi = _arg(a, kw, 4, "key_hi")
        keys = shard.keys
        if key_lo is not None:
            start = int(np.searchsorted(keys, np.uint64(key_lo), side="left"))
        if key_hi is not None:
            stop = int(np.searchsorted(keys, np.uint64(key_hi), side="right"))
    t.counters["core.storage.range_search.rows_scanned"] += max(stop - start, 0)
    t.counters["core.storage.range_search.rows_matched"] += len(out)


def _after_refine(t: Tracer, a: tuple[Any, ...], kw: dict[str, Any], out: Any) -> None:
    t.counters["metric.refine.rows"] += len(out)
    radius = getattr(a[1], "radius", None)
    if radius is not None:
        t.counters["metric.refine.kept"] += int(np.count_nonzero(out <= radius))


def _after_persistent_add(t: Tracer, a: tuple[Any, ...], kw: dict[str, Any], out: Any) -> None:
    t.counters["core.storage.persistent_add.rows"] += len(a[1])


def _after_encode(t: Tracer, a: tuple[Any, ...], kw: dict[str, Any], out: Any) -> None:
    t.counters["net.codec.encode.bytes"] += len(out)


def _after_feed(t: Tracer, a: tuple[Any, ...], kw: dict[str, Any], out: Any) -> None:
    t.counters["net.codec.feed.bytes"] += len(a[1])


def _after_rpc(t: Tracer, a: tuple[Any, ...], kw: dict[str, Any], out: Any) -> None:
    kind = a[2] if len(a) > 2 else kw.get("kind")
    if kind in MAINTENANCE_RPCS:
        t.counters["net.transport.rpc.maintenance"] += 1
    else:
        t.counters["net.transport.rpc.foreground"] += 1


def _after_register(t: Tracer, a: tuple[Any, ...], kw: dict[str, Any], out: Any) -> None:
    t.lifecycle_engines.add(a[0])


#: the lifecycle engine's public per-query methods (``run_until_complete``
#: steps the simulator through the whole query phase and stays unwrapped)
LIFECYCLE_METHODS = (
    "register", "open", "arm", "accept", "settle", "notify_drop",
    "mark_resolving", "add_entries",
)


def install_layer_wrappers(tracer: Tracer) -> None:
    """Patch the public functions each layer is measured at.

    ``repro.core.routing`` imports ``prefix_to_cuboid`` and ``query_split``
    by name, so those are wrapped at that binding; likewise
    ``lp_hash_batch`` at ``repro.core.platform`` (index build) and at
    ``repro.core.lph`` (callers that go through the module).
    """
    from repro.core import lph, platform, routing
    from repro.core.landmarks import LandmarkSet
    from repro.core.lifecycle import LifecycleEngine
    from repro.core.query import RangeQuery
    from repro.core.storage import PersistentShard, Shard
    from repro.dht.node import ChordNode
    from repro.dht.ring import ChordRing
    from repro.net.cluster import ClusterClient
    from repro.net.codec import FrameDecoder, Framer
    from repro.net.node import NodeProcess
    from repro.net.transport import TcpTransport
    from repro.sim.transport import Transport

    p = tracer.patch
    p(routing, "prefix_to_cuboid", "core.lph.prefix_to_cuboid")
    p(platform, "lp_hash_batch", "core.lph.lp_hash_batch")
    p(lph, "lp_hash_batch", "core.lph.lp_hash_batch")
    p(routing, "query_split", "core.query.query_split", qid_of=_qid_attr(0),
      after=_after_query_split)
    p(RangeQuery, "from_point", "core.query.from_point", qid_of=_qid_kw)
    p(Shard, "range_search", "core.storage.range_search", after=_after_range_search)
    p(PersistentShard, "add", "core.storage.persistent_add", after=_after_persistent_add)
    p(PersistentShard, "set_meta", "core.storage.set_meta")
    p(platform.LandmarkIndex, "refine_distances", "metric.refine", qid_of=_qid_attr(1),
      after=_after_refine)
    p(LandmarkSet, "project", "core.landmarks.project")
    p(ChordNode, "next_hop", "dht.next_hop")
    p(ChordRing, "build", "dht.ring_build")
    for meth in LIFECYCLE_METHODS:
        p(LifecycleEngine, meth, "core.lifecycle", qid_of=_qid_pos(1),
          after=_after_register if meth == "register" else None)
    p(Transport, "send", "sim.transport.send", qid_of=_qid_kw)
    p(Framer, "encode", "net.codec.encode", after=_after_encode)
    p(FrameDecoder, "feed", "net.codec.feed", after=_after_feed)
    p(TcpTransport, "rpc", "net.transport.rpc", after=_after_rpc)
    p(NodeProcess, "ring_snapshot", "net.node.ring_snapshot")
    p(NodeProcess, "range_query", "net.node.range_query")
    p(NodeProcess, "route_insert", "net.node.route_insert")
    p(ClusterClient, "wait_converged", "net.cluster.converge")
