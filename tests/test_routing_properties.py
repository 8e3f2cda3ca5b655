"""Property-based tests of the distributed range query against exact search.

The strongest invariant in the system: for ANY dataset, ring size, landmark
count, rotation, radius and query point, the routed range query must return
exactly the objects within the radius (fixed surrogate mode, unbounded
per-node top-k).  Hypothesis drives the parameters.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.index_space import IndexSpaceBounds
from repro.core.lph import prefix_to_cuboid
from repro.core.platform import IndexPlatform
from repro.core.query import Rect
from repro.core.routing import intersecting_siblings
from repro.dht.ring import ChordRing
from repro.eval.ground_truth import exact_range
from repro.metric.vector import EuclideanMetric, ManhattanMetric
from repro.util.bits import first_zero_bit, prefix_of, set_bit_at

DIM = 3


def _run(platform, data, metric, qi, radius):
    proto, stats = platform.protocol("idx", top_k=10**6)
    index = platform.indexes["idx"]
    platform.sim.reset()
    proto.issue(index.make_query(data[qi], radius, qid=0), platform.ring.nodes()[0])
    platform.sim.run()
    return sorted(e.object_id for e in stats.for_query(0).entries)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 10_000),
    n_nodes=st.integers(2, 40),
    k=st.integers(1, 6),
    m=st.sampled_from([12, 20, 32, 64]),
    rotation=st.booleans(),
    radius=st.floats(0.0, 250.0),
    metric_cls=st.sampled_from([EuclideanMetric, ManhattanMetric]),
)
def test_range_query_equals_exact_scan(seed, n_nodes, k, m, rotation, radius, metric_cls):
    rng = np.random.default_rng(seed)
    n_obj = 120
    centers = rng.uniform(0, 100, size=(3, DIM))
    data = np.clip(
        centers[rng.integers(0, 3, n_obj)] + rng.normal(0, 8, (n_obj, DIM)), 0, 100
    )
    metric = metric_cls(box=(0, 100), dim=DIM)
    ring = ChordRing.build(n_nodes, m=m, seed=seed)
    platform = IndexPlatform(ring)
    platform.create_index(
        "idx", data, metric, k=k, selection="greedy", sample_size=60,
        rotation=rotation, seed=seed,
    )
    qi = int(rng.integers(0, n_obj))
    got = _run(platform, data, metric, qi, radius)
    want = sorted(exact_range(data, metric, data[qi], radius).tolist())
    assert got == want


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 10_000),
    radius=st.floats(1.0, 150.0),
)
def test_query_cost_bounded(seed, radius):
    """Messages and hops stay within sane structural bounds for any query."""
    rng = np.random.default_rng(seed)
    data = rng.uniform(0, 100, size=(150, DIM))
    metric = EuclideanMetric(box=(0, 100), dim=DIM)
    n_nodes = 24
    ring = ChordRing.build(n_nodes, m=20, seed=seed)
    platform = IndexPlatform(ring)
    platform.create_index("idx", data, metric, k=3, sample_size=80, seed=seed)
    proto, stats = platform.protocol("idx")
    index = platform.indexes["idx"]
    qi = int(rng.integers(0, 150))
    proto.issue(index.make_query(data[qi], radius, qid=0), ring.nodes()[0])
    platform.sim.run()
    st_ = stats.for_query(0)
    # Hops chain through owners for wide queries (progressive refinement is
    # sequential along the ring), bounded by visits x per-visit routing.
    assert st_.max_hops <= n_nodes * 20
    assert len(st_.index_nodes) <= n_nodes
    # a node replies once per subquery slice it resolves; slices are bounded
    # by the query messages that delivered them (each message bundles >= 1)
    assert st_.result_messages >= 1
    assert st_.result_messages <= 2 * (st_.query_messages + 1) * 8


def _siblings_from_root(rect, prefix_len, eff, bounds, m):
    """Reference for :func:`intersecting_siblings`: rebuild each sibling
    cuboid (one per zero bit of ``eff`` past ``prefix_len``) from the root
    and keep it when its closed box meets ``rect``."""
    out = []
    j = first_zero_bit(eff, prefix_len + 1, m)
    while j is not None:
        sib = set_bit_at(prefix_of(eff, j - 1, m), j, m)
        lows, highs = prefix_to_cuboid(sib, j, bounds, m)
        nl = np.maximum(rect.lows, lows)
        nh = np.minimum(rect.highs, highs)
        if np.all(nl <= nh):
            out.append((sib, j, nl, nh))
        j = first_zero_bit(eff, j + 1, m)
    return out


@st.composite
def _descent_case(draw):
    m = draw(st.sampled_from([8, 16, 32, 64]))
    k = draw(st.integers(1, 6))
    # dyadic bounds and coordinates: every split plane is exactly
    # representable, so rectangles can touch one
    lows = np.array([draw(st.sampled_from([-8.0, 0.0, 3.0])) for _ in range(k)])
    spans = np.array([draw(st.sampled_from([1.0, 6.0, 1000.0])) for _ in range(k)])
    bounds = IndexSpaceBounds(lows, lows + spans)
    eff = draw(st.integers(0, (1 << m) - 1))
    prefix_len = draw(st.integers(0, m))
    # coordinates on a dyadic grid of the claimed cuboid (touching its split
    # planes) or of the whole space (often missing the claimed cuboid)
    clo, chi = prefix_to_cuboid(prefix_of(eff, prefix_len, m), prefix_len, bounds, m)
    if draw(st.sampled_from(["claimed", "claimed", "claimed", "space"])) == "space":
        clo, chi = bounds.lows, bounds.highs
    depth = draw(st.integers(0, 12))
    grid = st.integers(0, 1 << depth)
    a = np.array([draw(grid) for _ in range(k)], dtype=np.float64)
    b = np.array([draw(grid) for _ in range(k)], dtype=np.float64)
    shape = draw(st.sampled_from(["box", "box", "box", "point", "unordered"]))
    if shape == "point":
        b = a.copy()  # degenerate: zero extent in every dimension
    elif shape == "box":
        a, b = np.minimum(a, b), np.maximum(a, b)
    scale = (chi - clo) / (1 << depth)
    rect = Rect(clo + a * scale, clo + b * scale)
    return rect, prefix_len, eff, bounds, m


@settings(max_examples=300, deadline=None)
@given(case=_descent_case())
def test_sibling_descent_matches_rebuild_from_root(case):
    """One descent along eff yields exactly the siblings, clipped
    rectangles and order that rebuilding each sibling from the root does."""
    rect, prefix_len, eff, bounds, m = case
    lows, highs = prefix_to_cuboid(prefix_of(eff, prefix_len, m), prefix_len, bounds, m)
    got = intersecting_siblings(rect, lows, highs, prefix_len, eff, m)
    want = _siblings_from_root(rect, prefix_len, eff, bounds, m)
    assert [(pk, pl) for pk, pl, _, _ in got] == [(pk, pl) for pk, pl, _, _ in want]
    for (_, _, gl, gh), (_, _, wl, wh) in zip(got, want):
        assert gl.dtype == wl.dtype and gh.dtype == wh.dtype
        assert gl.tobytes() == wl.tobytes()
        assert gh.tobytes() == wh.tobytes()
