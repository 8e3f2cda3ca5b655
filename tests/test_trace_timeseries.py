"""Tests for the time-series generator and the query span trace."""

import numpy as np

from repro.core.platform import IndexPlatform
from repro.datasets.timeseries import TimeSeriesFamilyConfig, generate_timeseries
from repro.dht.ring import ChordRing
from repro.metric.vector import ManhattanMetric
from repro.obs import Observability


class TestTimeSeries:
    CFG = TimeSeriesFamilyConfig(n_series=200, n_templates=4, length=32, noise=0.1)

    def test_shapes(self):
        series, fam = generate_timeseries(self.CFG, 0)
        assert series.shape == (200, 32)
        assert fam.shape == (200,)
        assert fam.max() < 4

    def test_deterministic(self):
        a, _ = generate_timeseries(self.CFG, 5)
        b, _ = generate_timeseries(self.CFG, 5)
        np.testing.assert_array_equal(a, b)

    def test_clipped_to_domain(self):
        series, _ = generate_timeseries(self.CFG, 0)
        assert series.min() >= self.CFG.low
        assert series.max() <= self.CFG.high

    def test_family_structure(self):
        """Same-family series are closer under L1 than cross-family."""
        series, fam = generate_timeseries(self.CFG, 0)
        m = ManhattanMetric()
        same, cross = [], []
        for i in range(40):
            for j in range(i + 1, 40):
                d = m.distance(series[i], series[j])
                (same if fam[i] == fam[j] else cross).append(d)
        assert np.mean(same) < np.mean(cross)


class TestTracer:
    """The embedded-tree execution of one query, read from its span tree."""

    def _traced_query(self, radius=20.0):
        series, _ = generate_timeseries(
            TimeSeriesFamilyConfig(n_series=300, n_templates=4, length=16), 0
        )
        metric = ManhattanMetric(box=(-50, 50), dim=16)
        ring = ChordRing.build(16, m=20, seed=0)
        obs = Observability(metrics=False, tracing=True)
        platform = IndexPlatform(ring, obs=obs)
        platform.create_index("s", series, metric, k=3, sample_size=150, seed=1)
        proto, stats = platform.protocol("s")
        q = platform.indexes["s"].make_query(series[0], radius, qid=0)
        proto.issue(q, ring.nodes()[0])
        platform.sim.run()
        obs.close()  # no lifecycle engine finishes the root: flush it open
        return obs.span_tree(0), stats, platform

    def test_trace_structure(self):
        tree, _, _ = self._traced_query()
        assert tree.of_kind("route")  # at least the initial routing step
        assert tree.of_kind("solve")  # something got answered
        # the root's first child is the issuing node's QueryRouting at hop 0
        (root,) = tree.roots()
        assert root.kind == "query"
        first = tree.children[root.sid][0]
        assert first.kind == "route"
        assert first.attrs["hops"] == 0

    def test_prefix_never_shrinks_along_hops(self):
        """Later hops refine prefixes: along every root-to-leaf path, prefix
        lengths, hop counts and timestamps never decrease."""
        tree, _, _ = self._traced_query()
        checked = 0
        for span in tree.spans:
            parent = tree.by_sid.get(span.parent)
            if parent is None:
                continue
            assert span.start >= parent.start
            anc = parent
            while anc is not None and "prefix_len" not in anc.attrs:
                anc = tree.by_sid.get(anc.parent)
            if anc is not None and "prefix_len" in span.attrs:
                assert span.attrs["prefix_len"] >= anc.attrs["prefix_len"]
                assert span.attrs["hops"] >= anc.attrs["hops"]
                checked += 1
        assert checked > 0

    def test_solve_key_ranges_disjoint(self):
        """Every local solve claims a key interval; intervals never overlap
        (this is what prevents duplicate results)."""
        tree, _, _ = self._traced_query(radius=60.0)
        ranges = sorted((s.attrs["key_lo"], s.attrs["key_hi"]) for s in tree.of_kind("solve"))
        for (a1, b1), (a2, b2) in zip(ranges, ranges[1:]):
            assert b1 < a2, f"overlapping solve ranges {(a1, b1)} and {(a2, b2)}"

    def test_solved_nodes_match_stats(self):
        tree, stats, _ = self._traced_query()
        st = stats.for_query(0)
        assert {s.node for s in tree.of_kind("solve")} == st.index_nodes

    def test_render(self):
        tree, _, _ = self._traced_query()
        text = tree.render(max_spans=5)
        assert text.splitlines()[0].split()[-1] == "query"
        assert "route" in text
        assert "more span(s)" in text

    def test_nodes_visited_superset_of_solvers(self):
        tree, _, _ = self._traced_query()
        visited = {s.node for s in tree.of_kind("route") + tree.of_kind("refine")}
        assert {s.node for s in tree.of_kind("solve")} <= visited
