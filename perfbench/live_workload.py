"""``live-mixed``: a 32-node ``LocalCluster`` on loopback TCP, one closed-loop
client mixing range queries and insert batches.

Nodes are asyncio tasks in this process, speaking JSON frames; each keeps a
write-ahead log without fsync and stabilises every 0.5 s.  The client embeds
the same 100-d clustered-Gaussian data as the simulator workloads into the
k=10 landmark space (bounds [0, 1000]) and hashes it with m=64.  Half of the
1e5 objects are preloaded during set-up.  The loop then keeps one operation
outstanding: four range queries (the landmark rectangles of 1%-radius metric
balls), then one insert batch of 64 fresh objects, with entry nodes taken
round-robin.  Every query answer is checked, after the loop, against a
rectangle scan over the entries acknowledged before it was sent.
"""

from __future__ import annotations

import asyncio
import gc
import shutil
import time
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from common import OUT_DIR, Outcome, log, peak_rss_mb, percentile, rect_scan
from tracing import Tracer

from repro.core import lph
from repro.core.index_space import IndexSpaceBounds
from repro.core.landmarks import select_landmarks
from repro.datasets.queries import synthetic_query_points
from repro.datasets.synthetic import ClusteredGaussianConfig, generate_clustered
from repro.metric.vector import EuclideanMetric
from repro.net.cluster import ClusterClient, LocalCluster
from repro.net.node import NodeConfig
from repro.net.transport import RpcError

__all__ = ["LiveConfig", "LIVE", "run_live"]


@dataclass(frozen=True)
class LiveConfig:
    name: str = "live-mixed"
    n_nodes: int = 32
    n_objects: int = 100_000
    sample_size: int = 2000
    k: int = 10
    m: int = 64
    bounds_high: float = 1000.0
    range_factor: float = 0.01
    insert_batch: int = 64
    preload_batch: int = 2048
    #: one insert batch after every ``queries_per_insert`` range queries
    queries_per_insert: int = 4
    stabilize_interval: float = 0.5
    fmt: str = "json"
    rpc_timeout: float = 5.0
    converge_timeout: float = 60.0
    #: set-ups per untraced run (``setup_s`` is their median); each takes
    #: about 17 s, mostly stabilisation rounds
    setups: int = 2
    #: seeds the corpus (dataset, landmarks); the run's ``--seed`` draws
    #: the query rectangles
    corpus_seed: int = 0

    def sizes(self) -> dict[str, Any]:
        sizes = {k: v for k, v in vars(self).items() if k != "name"}
        # LocalCluster nodes run with NodeConfig's default WAL policy
        sizes["fsync"] = NodeConfig.__dataclass_fields__["fsync"].default
        return sizes


LIVE = LiveConfig()

#: operations per throughput window of the closed loop
WINDOW_OPS = 32
#: query blocks (of 64) reserved per loop segment, so segments never repeat
#: a query
SEGMENT_BLOCKS = 1000


def tiny(cfg: LiveConfig) -> LiveConfig:
    """A seconds-long version of ``cfg`` for the benchmark's own tests."""
    return replace(cfg, n_nodes=4, n_objects=2000, sample_size=200,
                   stabilize_interval=0.05, setups=2)


class LiveInputs:
    """Client-side data: the fixed corpus embedded and hashed once before
    set-up, plus the query stream drawn from the run's seed."""

    def __init__(self, cfg: LiveConfig, seed: int) -> None:
        self.cfg = cfg
        self.seed = seed
        self.data_cfg = ClusteredGaussianConfig(n_objects=cfg.n_objects)
        data, self.centers = generate_clustered(
            self.data_cfg, np.random.default_rng([cfg.corpus_seed, 1]))
        metric = EuclideanMetric(box=(self.data_cfg.low, self.data_cfg.high), dim=self.data_cfg.dim)
        rng = np.random.default_rng([cfg.corpus_seed, 4])
        sample = data[rng.choice(len(data), size=min(cfg.sample_size, len(data)), replace=False)]
        self.landmarks = select_landmarks("greedy", sample, metric, cfg.k, rng)
        self.bounds = IndexSpaceBounds.uniform(cfg.k, 0.0, cfg.bounds_high)
        self.points = self.landmarks.project(data)
        self.keys = lph.lp_hash_batch(self.points, self.bounds, cfg.m)
        self.radius = cfg.range_factor * self.data_cfg.max_distance
        self.preload = cfg.n_objects // 2

    def insert_batch(self, b: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Insert batch ``b``: the dataset's second half, then fresh objects
        from the same generator once a run outlasts it."""
        cfg = self.cfg
        lo = self.preload + b * cfg.insert_batch
        hi = lo + cfg.insert_batch
        ids = np.arange(lo, hi, dtype=np.int64)
        if hi <= cfg.n_objects:
            return ids, self.points[lo:hi], self.keys[lo:hi]
        objs, _ = generate_clustered(
            replace(self.data_cfg, n_objects=cfg.insert_batch),
            np.random.default_rng([self.cfg.corpus_seed, 3, b]), centers=self.centers)
        pts = self.landmarks.project(objs)
        return ids, pts, lph.lp_hash_batch(pts, self.bounds, cfg.m)

    def query_rects(self, n: int, block: int) -> tuple[np.ndarray, np.ndarray]:
        """Rectangles of query block ``block`` (n queries)."""
        rng = np.random.default_rng([self.seed, 2, block])
        objs = synthetic_query_points(self.data_cfg, n, self.centers, rng)
        centre = self.landmarks.project(objs)
        lows = np.maximum(centre - self.radius, 0.0)
        highs = np.minimum(centre + self.radius, self.cfg.bounds_high)
        return lows, highs


class Cluster:
    """One started cluster plus the client that drives it."""

    def __init__(self, cfg: LiveConfig, inputs: LiveInputs, tag: str) -> None:
        self.cfg = cfg
        self.inputs = inputs
        self.root = OUT_DIR / f"live-{tag}"
        shutil.rmtree(self.root, ignore_errors=True)
        self.cluster = LocalCluster(
            cfg.n_nodes, data_root=self.root, m=cfg.m, k=cfg.k,
            bounds_high=cfg.bounds_high, fmt=cfg.fmt,
            stabilize_interval=cfg.stabilize_interval, seed=inputs.seed,
        )
        self.client = ClusterClient(fmt=cfg.fmt, rpc_timeout=cfg.rpc_timeout)
        self.addrs: list[str] = []

    async def setup(self) -> None:
        """Start, converge and preload: the work ``setup_s`` times."""
        cfg, inp = self.cfg, self.inputs
        self.addrs = await self.cluster.start()
        await self.client.start()
        if not await self.client.wait_converged(self.addrs, timeout=cfg.converge_timeout):
            raise RuntimeError("cluster did not converge")
        step = cfg.preload_batch
        for b, s in enumerate(range(0, inp.preload, step)):
            e = min(s + step, inp.preload)
            accepted = await self.client.insert(
                self.addrs[b % len(self.addrs)], inp.keys[s:e], inp.points[s:e],
                np.arange(s, e, dtype=np.int64))
            if accepted != e - s:
                raise RuntimeError(f"preload batch {b}: accepted {accepted}/{e - s}")

    async def close(self) -> None:
        await self.client.close()
        await self.cluster.close()
        shutil.rmtree(self.root, ignore_errors=True)

    def wal_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.root.rglob("wal.jsonl"))


@dataclass
class QueryOp:
    lows: np.ndarray
    highs: np.ndarray
    acked: int
    ids: np.ndarray | None
    ms: float


@dataclass
class Loop:
    """One closed-loop phase."""

    wall: float
    queries: list[QueryOp]
    insert_ms: list[float]
    insert_failures: list[str]
    #: loop-relative completion time of every operation, in order
    done_at: list[float]
    fg_rpcs_in_queries: float = 0.0

    @property
    def ops(self) -> int:
        return len(self.queries) + len(self.insert_ms)

    def window_rates(self) -> np.ndarray:
        """Operations per wall second in each window of ``WINDOW_OPS``
        consecutive operations."""
        ends = np.asarray(self.done_at[WINDOW_OPS - 1 :: WINDOW_OPS])
        return WINDOW_OPS / np.diff(np.concatenate([[0.0], ends]))

    @property
    def ops_per_s(self) -> float:
        return median_rate([self])


def median_rate(loops: list[Loop]) -> float:
    """Median window rate over ``loops`` (the median shrugs off a machine
    slowdown during one window); the plain rate when there are too few."""
    rates = np.concatenate([loop.window_rates() for loop in loops])
    if len(rates) >= 2:
        return float(np.median(rates))
    return sum(loop.ops for loop in loops) / sum(loop.wall for loop in loops)


class Client:
    """The closed loop's state: what was sent and acknowledged so far."""

    def __init__(self, cl: Cluster, first_block: int = 0) -> None:
        self.cl = cl
        self.acked_ids: list[np.ndarray] = [np.arange(cl.inputs.preload, dtype=np.int64)]
        self.acked_pts: list[np.ndarray] = [cl.inputs.points[: cl.inputs.preload]]
        self.n_acked = cl.inputs.preload
        self.op = 0
        self.batch = 0
        self.query_block = first_block
        self._rects: tuple[np.ndarray, np.ndarray] | None = None
        self._in_block = 0

    def _next_rect(self) -> tuple[np.ndarray, np.ndarray]:
        block = 64
        if self._rects is None or self._in_block == block:
            self._rects = self.cl.inputs.query_rects(block, self.query_block)
            self.query_block += 1
            self._in_block = 0
        i = self._in_block
        self._in_block += 1
        return self._rects[0][i], self._rects[1][i]

    async def run(self, seconds: float, tracer: Tracer | None = None) -> Loop:
        cfg = self.cl.cfg
        client, addrs = self.cl.client, self.cl.addrs
        fail_ms = cfg.rpc_timeout * 1e3
        queries: list[QueryOp] = []
        insert_ms: list[float] = []
        failures: list[str] = []
        fg_in_queries = 0.0
        done_at: list[float] = []
        clock = time.perf_counter
        t_start = clock()
        while clock() - t_start < seconds:
            addr = addrs[self.op % len(addrs)]
            if tracer is not None:
                tracer.current_qid = self.op
            if self.op % (cfg.queries_per_insert + 1) == cfg.queries_per_insert:
                ids, pts, keys = self.cl.inputs.insert_batch(self.batch)
                self.batch += 1
                t0 = clock()
                try:
                    accepted = await client.insert(addr, keys, pts, ids)
                except RpcError as exc:
                    accepted, why = -1, f"raised {exc}"
                ms = (clock() - t0) * 1e3
                if accepted == len(ids):
                    self.acked_ids.append(ids)
                    self.acked_pts.append(pts)
                    self.n_acked += len(ids)
                    insert_ms.append(ms)
                else:
                    insert_ms.append(fail_ms)
                    failures.append(why if accepted < 0 else f"accepted {accepted}/{len(ids)}")
            else:
                lows, highs = self._next_rect()
                fg0 = tracer.counters["net.transport.rpc.foreground"] if tracer else 0.0
                t0 = clock()
                try:
                    got: np.ndarray | None = await client.query(addr, lows, highs)
                    ms = (clock() - t0) * 1e3
                except RpcError:
                    got, ms = None, fail_ms
                if tracer is not None:
                    fg_in_queries += tracer.counters["net.transport.rpc.foreground"] - fg0
                queries.append(QueryOp(lows, highs, self.n_acked, got, ms))
            self.op += 1
            done_at.append(clock() - t_start)
        return Loop(clock() - t_start, queries, insert_ms, failures, done_at, fg_in_queries)

    def check(self, loop: Loop, out: Outcome | None = None) -> Outcome:
        return check_loop(np.concatenate(self.acked_ids), np.concatenate(self.acked_pts),
                          loop, out)


def check_loop(ids: np.ndarray, pts: np.ndarray, loop: Loop,
               out: Outcome | None = None) -> Outcome:
    """Queries against a rectangle scan of the entries (``ids``/``pts``, in
    acknowledgement order) acknowledged before each was sent; insert
    batches against their size."""
    out = out if out is not None else Outcome()
    for i, q in enumerate(loop.queries):
        want = ids[: q.acked][rect_scan(pts[: q.acked], q.lows, q.highs)]
        out.record_query(f"query {i}", q.ids, want)
    n_ok = len(loop.insert_ms) - len(loop.insert_failures)
    for _ in range(n_ok):
        out.record_op("insert", True)
    for why in loop.insert_failures:
        out.record_op("insert", False, why)
    return out


async def _lag_probe(samples: list[float], stop: asyncio.Event, period: float = 0.01) -> None:
    """Sleep ``period`` repeatedly; how late each wake-up is = loop lag."""
    loop = asyncio.get_running_loop()
    while not stop.is_set():
        t0 = loop.time()
        await asyncio.sleep(period)
        samples.append((loop.time() - t0 - period) * 1e3)


def loop_report(loops: list[Loop], outcome: Outcome) -> dict[str, Any]:
    """End-to-end view of one or more loops (percentiles carry their sample)."""
    q_ms = [q.ms for loop in loops for q in loop.queries]
    insert_ms = [ms for loop in loops for ms in loop.insert_ms]
    return {
        "ops": sum(loop.ops for loop in loops),
        "queries": len(q_ms),
        "insert_batches": len(insert_ms),
        "loop_s": sum(loop.wall for loop in loops),
        "ops_per_s": median_rate(loops),
        "window_ops_per_s": [r for loop in loops for r in loop.window_rates().tolist()],
        "query_ms_p50": percentile(q_ms, 50).as_dict(),
        "query_ms_p90": percentile(q_ms, 90).as_dict(),
        "query_ms_p99": percentile(q_ms, 99).as_dict(),
        "insert_ms_p50": percentile(insert_ms, 50).as_dict(),
        "insert_ms_p90": percentile(insert_ms, 90).as_dict(),
        "recall": outcome.recall,
        "failed_frac": outcome.failed_frac,
        "failures": outcome.examples,
    }


def run_live(cfg: LiveConfig, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    inputs = LiveInputs(cfg, seed)
    return asyncio.run(_traced(cfg, inputs, seconds) if trace else _untraced(cfg, inputs, seconds))


async def _untraced(cfg: LiveConfig, inputs: LiveInputs, seconds: float) -> dict[str, Any]:
    """Set up ``cfg.setups`` clusters one after another and run a share of
    the loop on each, so the measured time is spread over the whole run."""
    setup_times: list[float] = []
    loops: list[Loop] = []
    outcome = Outcome()
    rss = 0.0
    for i in range(cfg.setups):
        cl = Cluster(cfg, inputs, f"{inputs.seed}-{i}")
        try:
            t0 = time.perf_counter()
            await cl.setup()
            setup_times.append(time.perf_counter() - t0)
            rss = rss or peak_rss_mb()
            client = Client(cl, first_block=i * SEGMENT_BLOCKS)
            loops.append(await client.run(seconds / cfg.setups))
        finally:
            await cl.close()
        client.check(loops[-1], outcome)
        gc.collect()
    log(f"{cfg.name}: setups {[round(t, 3) for t in setup_times]} s, peak RSS {rss:.1f} MB")
    report = loop_report(loops, outcome)
    return {
        "outcome": outcome,
        "metrics": {
            "setup_s": float(np.median(setup_times)),
            "ops_per_s": report["ops_per_s"],
            "query_ms_p50": report["query_ms_p50"]["value"],
            "query_ms_p90": report["query_ms_p90"]["value"],
            "recall": outcome.recall,
            "peak_rss_mb": rss,
        },
        "report": {"setup_s_samples": setup_times, "peak_rss_mb_run": peak_rss_mb(), **report},
    }


async def _traced(cfg: LiveConfig, inputs: LiveInputs, seconds: float) -> dict[str, Any]:
    """Set-up traced, an untraced loop, then a traced loop on the same
    cluster (the op sequence continues where the untraced loop stopped)."""
    tracer = Tracer()
    cl = Cluster(cfg, inputs, f"{inputs.seed}-traced")
    try:
        with tracer.installed():
            tracer.begin("setup")
            await cl.setup()
            tracer.finish()
        client = Client(cl)
        plain = await client.run(seconds)
        wal0 = cl.wal_bytes()
        lag: list[float] = []
        stop = asyncio.Event()
        with tracer.installed():
            probe = asyncio.get_running_loop().create_task(_lag_probe(lag, stop))
            try:
                tracer.begin("measure")
                traced = await client.run(seconds, tracer=tracer)
                tracer.finish()
            finally:
                stop.set()
                await probe
        wal = cl.wal_bytes() - wal0
        stats_bytes = sum(n.transport.stats.bytes for n in cl.cluster.nodes)
    finally:
        await cl.close()
    outcome = client.check(plain)
    client.check(traced, outcome)
    report = loop_report([plain], outcome)
    setup = tracer.summary("setup")
    meas = tracer.summary("measure", wall=traced.wall)
    n_q = max(len(traced.queries), 1)
    layer = {
        "core.lph.lp_hash_batch.s": setup.total_s.get("core.lph.lp_hash_batch", 0.0),
        "net.cluster.converge.s": setup.total_s.get("net.cluster.converge", 0.0),
        "core.storage.wal_bytes": float(wal),
        "net.transport.rpc.foreground_per_query": traced.fg_rpcs_in_queries / n_q,
        "net.transport.rpc.maintenance_per_s":
            meas.counters.get("net.transport.rpc.maintenance", 0.0) / traced.wall,
        "net.transport.bytes_sent": float(stats_bytes),
        "net.node.loop_lag_ms_p90": percentile(lag, 90).value,
    }
    return {
        "outcome": outcome,
        "tracer": tracer,
        "setup": setup,
        "measure": meas,
        "plain": report,
        "traced": loop_report([traced], Outcome()),
        "untraced_ops_per_s": plain.ops_per_s,
        "traced_ops_per_s": traced.ops_per_s,
        "deterministic_match": None,
        "layer": layer,
    }

