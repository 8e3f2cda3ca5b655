"""Microbenchmarks of the vectorised hot paths.

These are classic pytest-benchmark measurements (many rounds, statistics) of
the kernels the experiments spend their time in — the profile-first rule of
the HPC guides this repo follows.  They also guard against performance
regressions: the assertions encode the throughput floors the experiment
runtimes were budgeted with.
"""

import numpy as np
import pytest

from repro.core.index_space import IndexSpaceBounds
from repro.core.landmarks import greedy_selection
from repro.core.lifecycle import RetryPolicy
from repro.core.lph import lp_hash_batch
from repro.core.platform import IndexPlatform
from repro.core.sfc import morton_encode, quantize
from repro.core.storage import Shard
from repro.datasets.queries import QueryWorkload
from repro.dht.ring import ChordRing
from repro.metric.vector import EuclideanMetric
from repro.sim.network import ConstantLatency

RNG = np.random.default_rng(0)


class TestProjectionKernels:
    def test_euclidean_one_to_many_100d(self, benchmark):
        """Landmark projection: one landmark against 1e5 100-d objects."""
        metric = EuclideanMetric()
        x = RNG.uniform(0, 100, size=100)
        Y = RNG.uniform(0, 100, size=(100_000, 100))
        out = benchmark(metric.one_to_many, x, Y)
        assert out.shape == (100_000,)

    def test_greedy_selection_sample(self, benchmark):
        """Algorithm 1 on the paper's 2000-object sample, 10 landmarks."""
        sample = RNG.uniform(0, 100, size=(2000, 100))
        metric = EuclideanMetric()
        ls = benchmark(greedy_selection, sample, metric, 10, 0)
        assert ls.k == 10


class TestHashKernels:
    def test_lph_batch_m64(self, benchmark):
        """Algorithm 2 over 1e5 points, 10-d index space, 64-bit keys."""
        bounds = IndexSpaceBounds.uniform(10, 0.0, 1000.0)
        pts = RNG.uniform(0, 1000, size=(100_000, 10))
        keys = benchmark(lp_hash_batch, pts, bounds, 64)
        assert keys.dtype == np.uint64

    def test_morton_encode(self, benchmark):
        cells = RNG.integers(0, 256, size=(50_000, 4), dtype=np.int64)
        keys = benchmark(morton_encode, cells, 8)
        assert len(keys) == 50_000

    def test_quantize(self, benchmark):
        pts = RNG.uniform(0, 1000, size=(100_000, 10))
        lows, highs = np.zeros(10), np.full(10, 1000.0)
        cells = benchmark(quantize, pts, lows, highs, 8)
        assert cells.max() < 256


class TestStorageKernels:
    def _shard(self, n=20_000, k=10):
        shard = Shard(k)
        shard.add(
            RNG.integers(0, 2**63, size=n, dtype=np.uint64),
            RNG.uniform(0, 1000, size=(n, k)),
            np.arange(n),
        )
        return shard

    def test_range_search_with_key_filter(self, benchmark):
        """The query-time hot path: key slice + rectangle mask."""
        shard = self._shard()
        lows = np.full(10, 200.0)
        highs = np.full(10, 800.0)
        pos = benchmark(shard.range_search, lows, highs, 2**61, 2**62)
        assert pos.dtype == np.int64

    def test_range_search_key_filter_beats_full_scan(self):
        """The sorted-key slice must prune most of the shard for a narrow
        claim (the reason shards keep keys sorted)."""
        import timeit

        shard = self._shard(n=100_000)
        lows = np.full(10, 0.0)
        highs = np.full(10, 1000.0)
        narrow = timeit.timeit(
            lambda: shard.range_search(lows, highs, 0, 2**50), number=50
        )
        full = timeit.timeit(lambda: shard.range_search(lows, highs), number=50)
        assert narrow < full


class TestQueryRouting:
    """End-to-end query routing through the transport (the §4.1 hot loop)."""

    @pytest.fixture(scope="class")
    def routing_platform(self):
        rng = np.random.default_rng(42)
        centers = rng.uniform(0, 100, size=(4, 6))
        data = np.clip(
            centers[rng.integers(0, 4, size=5_000)] + rng.normal(0, 4, size=(5_000, 6)),
            0,
            100,
        )
        latency = ConstantLatency(64, delay=0.02)
        ring = ChordRing.build(64, m=32, seed=1, latency=latency, pns=False)
        platform = IndexPlatform(ring, latency=latency)
        platform.create_index(
            "bench", data, EuclideanMetric(box=(0, 100), dim=6),
            k=4, sample_size=1000, seed=2,
        )
        return platform, data

    def test_query_routing_throughput(self, benchmark, routing_platform):
        """50 range queries routed and resolved per round, fresh protocol
        each time (transport delivery, subquery fan-out, local solve,
        result replies — everything between issue() and quiescence)."""
        platform, data = routing_platform
        index = platform.indexes["bench"]
        nodes = platform.ring.nodes()
        queries = [index.make_query(data[i], 10.0, qid=i) for i in range(50)]

        def route_batch():
            platform.sim.reset()
            proto, stats = platform.protocol("bench")
            for i, q in enumerate(queries):
                proto.issue(q, nodes[i % len(nodes)])
            platform.sim.run()
            return stats

        stats = benchmark(route_batch)
        assert len(stats) == 50
        assert all(st.result_messages > 0 for st in stats.queries.values())

    def test_pipelined_batch_beats_serial(self, benchmark, routing_platform):
        """Batch turnaround of 50 overlapping queries: pipelined execution
        keeps every query in flight concurrently, the serial baseline drains
        them one at a time — the simulated makespan ratio is the speedup the
        lifecycle engine's future-based harvesting buys."""
        platform, data = routing_platform
        workload = QueryWorkload.build(
            data[:50], 10.0, n_nodes=len(platform.ring),
            mean_interarrival=0.01, seed=3,
        )
        policy = RetryPolicy(deadline=500.0)

        def run(pipelined):
            stats = platform.run_workload(
                "bench", workload, pipelined=pipelined, policy=policy
            )
            assert stats.state_counts() == {"complete": 50}
            done = [qs.completed_at for qs in stats.queries.values()]
            return max(done) - float(workload.arrival_times.min())

        pipelined_makespan = benchmark(run, True)
        serial_makespan = run(False)
        speedup = serial_makespan / pipelined_makespan
        benchmark.extra_info["serial_makespan_s"] = round(serial_makespan, 4)
        benchmark.extra_info["pipelined_makespan_s"] = round(pipelined_makespan, 4)
        benchmark.extra_info["makespan_speedup"] = round(speedup, 2)
        # loose floor: with ~10ms interarrivals and multi-hop query latencies
        # the serial drain must cost several times the pipelined makespan
        assert speedup >= 2.0


class TestObservabilityOverhead:
    """Observability must be free when off: the platform accepts ``obs=``
    everywhere, so the disabled path (``Observability.disabled()``, a
    NullRegistry and a span recorder without sinks) has to cost the same as
    no ``obs`` at all on the query-routing hot loop."""

    N_QUERIES = 50

    def _platform(self, obs=None):
        rng = np.random.default_rng(7)
        centers = rng.uniform(0, 100, size=(4, 6))
        data = np.clip(
            centers[rng.integers(0, 4, size=3_000)] + rng.normal(0, 4, size=(3_000, 6)),
            0,
            100,
        )
        latency = ConstantLatency(48, delay=0.02)
        ring = ChordRing.build(48, m=32, seed=5, latency=latency, pns=False)
        platform = IndexPlatform(ring, latency=latency, obs=obs)
        platform.create_index(
            "bench", data, EuclideanMetric(box=(0, 100), dim=6),
            k=4, sample_size=800, seed=6,
        )
        queries = [
            platform.indexes["bench"].make_query(data[i], 10.0, qid=i)
            for i in range(self.N_QUERIES)
        ]
        return platform, queries

    @staticmethod
    def _route_batch(platform, queries):
        platform.sim.reset()
        proto, stats = platform.protocol("bench")
        nodes = platform.ring.nodes()
        for i, q in enumerate(queries):
            proto.issue(q, nodes[i % len(nodes)])
        platform.sim.run()
        assert len(stats) == len(queries)

    def test_disabled_observability_is_free(self):
        """min-of-N batch time with ``Observability.disabled()`` within 5%
        of the no-obs baseline (plus a small absolute epsilon so an idle-CI
        hiccup on a ~100ms batch can't flake the build)."""
        import timeit

        from repro.obs import Observability

        base_platform, base_queries = self._platform(obs=None)
        off_platform, off_queries = self._platform(obs=Observability.disabled())
        # warm both paths (bytecode caches, shard layouts) before timing
        self._route_batch(base_platform, base_queries)
        self._route_batch(off_platform, off_queries)
        base_times, off_times = [], []
        for _ in range(7):  # interleaved so machine drift hits both equally
            base_times.append(timeit.timeit(
                lambda: self._route_batch(base_platform, base_queries), number=1))
            off_times.append(timeit.timeit(
                lambda: self._route_batch(off_platform, off_queries), number=1))
        base, off = min(base_times), min(off_times)
        print(f"\nrouting batch: no-obs {base * 1000:.1f}ms, "
              f"disabled-obs {off * 1000:.1f}ms ({off / base:.3f}x)")
        assert off <= base * 1.05 + 1e-3, (
            f"disabled observability slowed routing: {off:.4f}s vs {base:.4f}s"
        )

    def test_enabled_metrics_overhead_bounded(self):
        """Live metrics are not free but must stay cheap: the fully
        instrumented batch may cost at most 2x the baseline (it measures
        counter bumps per message, not tracing)."""
        import timeit

        from repro.obs import Observability

        base_platform, base_queries = self._platform(obs=None)
        on_platform, on_queries = self._platform(obs=Observability(metrics=True))
        self._route_batch(base_platform, base_queries)
        self._route_batch(on_platform, on_queries)
        base_times, on_times = [], []
        for _ in range(5):
            base_times.append(timeit.timeit(
                lambda: self._route_batch(base_platform, base_queries), number=1))
            on_times.append(timeit.timeit(
                lambda: self._route_batch(on_platform, on_queries), number=1))
        base, on = min(base_times), min(on_times)
        print(f"\nrouting batch: no-obs {base * 1000:.1f}ms, "
              f"metrics-on {on * 1000:.1f}ms ({on / base:.3f}x)")
        assert on <= base * 2.0 + 1e-3


class TestRingKernels:
    def test_rebuild_tables_256_nodes(self, benchmark):
        """Structural table rebuild (the load-balancing inner loop)."""
        ring = ChordRing.build(256, m=32, seed=0)
        benchmark(ring.rebuild_tables)
        assert len(ring.nodes()[0].fingers) == 32

    def test_owners_of_keys_bulk(self, benchmark):
        ring = ChordRing.build(256, m=32, seed=0)
        keys = RNG.integers(0, 2**32, size=100_000, dtype=np.uint64)
        pos = benchmark(ring.owners_of_keys, keys)
        assert len(pos) == 100_000


class TestEventEngine:
    def test_storm_workload_throughput(self, benchmark):
        """The `repro bench` event_loop workload on the live engine."""
        from repro.bench.micro import _storm_workload
        from repro.sim.engine import Simulator

        completed = benchmark(lambda: _storm_workload(Simulator(), 2_000))
        assert completed == 2_000

    def test_compaction_prunes_cancelled_timers(self):
        """Deterministic twin of the timing section: with digests off, the
        engine compacts cancelled deadline timers out of the heap instead of
        dragging (nearly) all 8 * n_ops of them to their due times."""
        from repro.bench.micro import _storm_workload
        from repro.sim.engine import Simulator

        sim = Simulator()
        n_ops, fan_out = 5_000, 8
        _storm_workload(sim, n_ops, fan_out)
        cancelled = n_ops * fan_out
        assert sim.tombstones_skipped < cancelled * 0.05, (
            f"compaction ineffective: {sim.tombstones_skipped}/{cancelled} "
            "tombstones still popped"
        )

    def test_digest_mode_keeps_exact_tombstone_accounting(self):
        """With digests on (replay), compaction must stay off: every
        cancelled timer is popped, counted and folded into the digest."""
        from repro.bench.micro import _storm_workload
        from repro.sim.engine import Simulator

        sim = Simulator()
        sim.digest_enabled = True
        n_ops, fan_out = 500, 8
        _storm_workload(sim, n_ops, fan_out)
        assert sim.tombstones_skipped == n_ops * fan_out
        assert sim.events_processed == n_ops * (fan_out + 1)
