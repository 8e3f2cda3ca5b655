"""The benchmark's own tests: tiny smoke runs, the answer gate, percentile
sample counts and wrapper hygiene.

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import live_workload  # noqa: E402
import run as bench  # noqa: E402
import sim_workloads  # noqa: E402
from common import Outcome, percentile  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_smoke_run(workload: str, trace: bool) -> None:
    result = bench.run(workload, seed=3, seconds=0.5, trace=trace, tiny=True)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, result
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == (PER_LAYER if trace else END_TO_END)
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert np.isfinite(metric["value"])
    if trace:
        assert result["metrics"]["trace.self_check"]["value"] == 1.0
    else:
        assert result["metrics"]["recall"]["value"] == 1.0


def test_sim_gate_trips_on_one_missing_id() -> None:
    cfg = sim_workloads.tiny(sim_workloads.SIM_WIDE)
    inputs = sim_workloads.SimInputs(cfg, seed=5)
    plat = sim_workloads.build_platform(inputs)
    # the tiny corpus leaves the benchmark's own balls empty; balls centred
    # on stored objects hold at least those objects
    chunks = [replace(inputs.chunk(c), points=inputs.data[2 * c : 2 * c + 2])
              for c in range(inputs.chunks_per_set)]
    phase = sim_workloads.run_phase(plat, inputs, chunks=chunks)
    assert sim_workloads.check_answers(inputs, phase).failed == 0
    victim = next(r for r in phase.records if len(r.ids))
    victim.ids = victim.ids[1:]
    out = sim_workloads.check_answers(inputs, phase)
    assert out.failed == 1
    assert out.recall < 1.0
    assert out.failed_frac == 1 / len(phase.records)


def test_live_gate_trips_on_one_missing_id() -> None:
    inputs = live_workload.LiveInputs(live_workload.tiny(live_workload.LIVE), seed=5)
    ids = np.arange(inputs.preload, dtype=np.int64)
    pts = inputs.points[: inputs.preload]
    lows, highs = inputs.query_rects(8, 0)
    ops = [
        live_workload.QueryOp(lo, hi, inputs.preload,
                              np.flatnonzero(np.all((pts >= lo) & (pts <= hi), axis=1)), 1.0)
        for lo, hi in zip(lows - 200.0, highs + 200.0)
    ]
    loop = live_workload.Loop(wall=1.0, queries=ops, insert_ms=[1.0], insert_failures=[],
                              done_at=[])
    assert live_workload.check_loop(ids, pts, loop).failed == 0
    victim = next(op for op in ops if len(op.ids))
    victim.ids = victim.ids[1:]
    out = live_workload.check_loop(ids, pts, loop)
    assert out.failed == 1 and out.attempted == len(ops) + 1
    assert out.recall < 1.0


def test_gate_counts_unanswered_and_failed_inserts() -> None:
    out = Outcome()
    out.record_query("q", None, np.array([1, 2]))
    out.record_op("insert", False, "accepted 63/64")
    out.record_query("q2", np.array([3, 3]), np.array([3]))  # duplicate id
    assert (out.attempted, out.failed) == (3, 3)
    assert len(out.examples) == 3


def test_percentiles_carry_their_sample() -> None:
    p = percentile(np.arange(1, 101, dtype=float), 90)
    assert p.n == 100
    assert p.beyond == 10
    assert p.as_dict() == {"value": p.value, "n": 100, "beyond": 10}
    cfg = sim_workloads.tiny(sim_workloads.SIM_WIDE)
    inputs = sim_workloads.SimInputs(cfg, seed=2)
    phase = sim_workloads.run_phase(sim_workloads.build_platform(inputs), inputs, seconds=0.2)
    report = sim_workloads.phase_report(
        phase, sim_workloads.check_answers(inputs, phase), cfg.deadline)
    for key in ("query_ms_p50", "query_ms_p90", "query_ms_p99"):
        assert report[key]["n"] == phase.queries


def test_untraced_run_after_traced_is_unaffected() -> None:
    cfg = sim_workloads.tiny(sim_workloads.SIM_WIDE)
    inputs = sim_workloads.SimInputs(cfg, seed=7)
    before = sim_workloads.run_phase(sim_workloads.build_platform(inputs), inputs, seconds=0.3)
    tracer = Tracer()
    with tracer.installed():
        patched = tracer.patched
        traced = sim_workloads.run_phase(
            sim_workloads.build_platform(inputs), inputs, chunks=before.chunks, tracer=tracer)
    assert patched and not tracer.patched
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, (owner, attr)
    spans = len(tracer.start)
    assert spans > 0
    after = sim_workloads.run_phase(
        sim_workloads.build_platform(inputs), inputs, chunks=before.chunks)
    assert len(tracer.start) == spans  # nothing recorded once restored
    for run in (traced, after):
        assert len(run.records) == len(before.records)
        assert all(a.same_as(b) for a, b in zip(before.records, run.records))
        assert run.events == before.events


def test_slice_clock_lines_up_across_replays_and_restores() -> None:
    cfg = sim_workloads.tiny(sim_workloads.SIM_WIDE)
    inputs = sim_workloads.SimInputs(cfg, seed=4)
    chunks = [inputs.chunk(c) for c in range(inputs.chunks_per_set)]
    plats = [sim_workloads.build_platform(inputs) for _ in range(2)]
    runs = [sim_workloads.run_phase(p, inputs, chunks=chunks, slice_events=16) for p in plats]
    assert [len(t) for t in runs[0].slice_s] == [len(t) for t in runs[1].slice_s]
    assert sum(len(t) for t in runs[0].slice_s) > len(chunks)
    for run in runs:
        assert np.allclose([t.sum() for t in run.slice_s], run.chunk_s)
    for plat in plats:
        assert "run" not in vars(plat.sim)
