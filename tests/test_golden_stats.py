"""Golden file pinning every per-query ``QueryStats`` field of two workloads.

``QueryStats`` is what the paper's §4.1 costs (hops, response time, maximum
latency, bandwidth) are computed from, so a refactor of how the simulator
fills it must reproduce it exactly.  Two ``run_workload`` runs are pinned:

* ``faults_on`` — message loss and jitter, two crashed query issuers and one
  crashed bystander, and a lifecycle engine with retries and a deadline, so
  drops, retransmissions, duplicate deliveries and timeouts all occur;
* ``faults_off`` — a clean run without a lifecycle engine.

The golden is ``tests/golden/query_stats.json``.  To regenerate after an
*intentional* change to the recorded costs::

    PYTHONPATH=src:tests python -c 'import test_golden_stats as t; t.regenerate()'

and review the diff before committing.
"""

from __future__ import annotations

import json
import os

import numpy as np

from repro.core.lifecycle import RetryPolicy
from repro.core.platform import IndexPlatform
from repro.datasets.queries import QueryWorkload
from repro.dht.ring import ChordRing
from repro.metric.vector import EuclideanMetric
from repro.sim.network import ConstantLatency
from repro.sim.stats import QueryStats, StatsCollector
from repro.sim.transport import FaultConfig

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "query_stats.json")
DIM = 5
N_NODES = 24
N_QUERIES = 30


def _platform(faults: FaultConfig | None) -> tuple[IndexPlatform, np.ndarray]:
    rng = np.random.default_rng(11)
    centers = rng.uniform(0, 100, size=(3, DIM))
    data = np.clip(
        centers[rng.integers(0, 3, size=500)] + rng.normal(0, 4, size=(500, DIM)),
        0, 100,
    )
    ring = ChordRing.build(
        N_NODES, m=24, seed=11, latency=ConstantLatency(N_NODES, delay=0.02), pns=False,
    )
    p = IndexPlatform(ring, faults=faults)
    p.create_index(
        "t", data, EuclideanMetric(box=(0, 100), dim=DIM), k=3, sample_size=200, seed=3,
    )
    return p, data


def _workload(data: np.ndarray) -> QueryWorkload:
    return QueryWorkload.build(
        data[:N_QUERIES], 15.0, n_nodes=N_NODES, mean_interarrival=0.05, seed=21,
    )


def run_faults_on() -> StatsCollector:
    p, data = _platform(FaultConfig(loss_rate=0.1, jitter=0.01, seed=5))
    workload = _workload(data)
    nodes = p.ring.nodes()
    # the issuers of queries 0 and 4 crash before their queries fire (their
    # drops are the dead-issuer path); one bystander crashes too, so routed
    # messages reach a dead node
    issuers = {int(workload.source_nodes[i]) % N_NODES for i in (0, 4)}
    sources = {int(s) % N_NODES for s in workload.source_nodes}
    bystander = next(i for i in range(N_NODES) if i not in sources)
    for i in [*sorted(issuers), bystander]:
        nodes[i].alive = False
    policy = RetryPolicy(deadline=0.3, max_retries=2, rto=0.05)
    return p.run_workload("t", workload, policy=policy)


def run_faults_off() -> StatsCollector:
    p, data = _platform(None)
    return p.run_workload("t", _workload(data))


def _record(qs: QueryStats) -> dict[str, object]:
    return {
        "qid": qs.qid,
        "issued_at": qs.issued_at,
        "first_result_at": qs.first_result_at,
        "last_result_at": qs.last_result_at,
        "max_hops": qs.max_hops,
        "query_bytes": qs.query_bytes,
        "result_bytes": qs.result_bytes,
        "query_messages": qs.query_messages,
        "result_messages": qs.result_messages,
        "dropped_messages": qs.dropped_messages,
        "index_nodes": sorted(qs.index_nodes),
        "entry_ids": sorted(e.object_id for e in qs.entries),
        "state": qs.state,
        "completed_at": qs.completed_at,
        "retransmissions": qs.retransmissions,
        "duplicate_messages": qs.duplicate_messages,
        "failed_branches": qs.failed_branches,
    }


def render() -> str:
    runs = {"faults_on": run_faults_on(), "faults_off": run_faults_off()}
    doc = {
        name: [_record(stats.queries[q]) for q in sorted(stats.queries)]
        for name, stats in runs.items()
    }
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def regenerate() -> None:
    with open(GOLDEN, "w") as fh:
        fh.write(render())


def test_query_stats_match_golden():
    with open(GOLDEN) as fh:
        want = fh.read()
    assert render() == want


def test_golden_covers_the_fault_paths():
    with open(GOLDEN) as fh:
        doc = json.load(fh)
    on = doc["faults_on"]
    assert len(on) == N_QUERIES and len(doc["faults_off"]) == N_QUERIES
    assert sum(r["dropped_messages"] for r in on) > 0
    assert sum(r["retransmissions"] for r in on) > 0
    assert any(r["state"] == "timed_out" for r in on)
    # the dead issuers: one drop, nothing sent, nothing answered
    assert any(r["query_messages"] == 0 and r["dropped_messages"] == 1 for r in on)
    assert all(r["state"] == "untracked" for r in doc["faults_off"])
    assert all(r["dropped_messages"] == 0 for r in doc["faults_off"])
