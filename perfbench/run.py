"""Wall-clock benchmark of the paper's query pipeline.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sim-wide --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrapper installed.
``--trace 1`` measures the same workload untraced and then traced, and
reports the per-layer metrics, the tracing overhead and a self-check.
The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

Progress goes to standard error; a full record of the run (environment,
sample counts, failures) is written to ``perfbench/_out/``.  See
``perfbench/README.md`` for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

#: metric names, units and bounds live in one place: BENCHMARK.json
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
#: a layer that does not run on a workload reports 0
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def with_units(values: dict[str, float], units: dict[str, str]) -> dict[str, dict[str, Any]]:
    """The result line's metrics: exactly the names ``units`` lists."""
    if set(values) != set(units):
        raise KeyError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def self_check(res: dict[str, Any]) -> tuple[bool, list[str]]:
    """The traced run must agree with the untraced one and partition time.

    Deterministic outputs (per-query ids, bytes, messages, simulated
    latencies, engine events) must be identical; every layer's self time and
    the residual must be non-negative and sum to the traced query phase.
    """
    problems = []
    if res["deterministic_match"] is False:
        problems.append("traced and untraced deterministic metrics differ")
    meas = res["measure"]
    tol = 1e-9 * max(meas.wall, 1.0)
    negative = [k for k, v in meas.self_s.items() if v < -tol]
    if negative:
        problems.append(f"negative self time: {negative}")
    if meas.residual < -tol:
        problems.append(f"residual {meas.residual} < 0")
    if abs(sum(meas.self_s.values()) + meas.residual - meas.wall) > tol:
        problems.append("self times plus residual do not sum to the phase")
    return not problems, problems


def layer_metrics(workload: str, res: dict[str, Any], ok: bool) -> dict[str, float]:
    """Flatten a traced run into the per-layer metric names."""
    meas = res["measure"]
    c = meas.counters

    def own(layer: str) -> float:
        return meas.self_s.get(layer, 0.0)

    def calls(layer: str) -> float:
        return float(meas.calls.get(layer, 0))

    def waited(layer: str) -> float:
        return meas.total_s.get(layer, 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    plain = res["plain"]
    sim = workload.startswith("sim")
    split_calls = calls("core.query.query_split")
    scanned = c.get("core.storage.range_search.rows_scanned", 0.0)
    refined = c.get("metric.refine.rows", 0.0)
    out = {name: 0.0 for name in PER_LAYER_UNITS}
    out.update(res["layer"])
    out.update({
        "core.lph.prefix_to_cuboid.s": own("core.lph.prefix_to_cuboid"),
        "core.lph.prefix_to_cuboid.calls": calls("core.lph.prefix_to_cuboid"),
        "core.routing.self.s": meas.residual if sim else 0.0,
        "core.query.query_split.s": own("core.query.query_split"),
        "core.query.query_split.calls": split_calls,
        "core.query.split_ratio":
            ratio(c.get("core.query.query_split.subqueries", 0.0) - split_calls, split_calls),
        "core.query.from_point.s": own("core.query.from_point"),
        "core.query.from_point.calls": calls("core.query.from_point"),
        "core.storage.range_search.s": own("core.storage.range_search"),
        "core.storage.range_search.calls": calls("core.storage.range_search"),
        "core.storage.range_search.rows_scanned": scanned,
        "core.storage.range_search.rows_matched":
            c.get("core.storage.range_search.rows_matched", 0.0),
        "core.storage.match_ratio":
            ratio(c.get("core.storage.range_search.rows_matched", 0.0), scanned),
        "core.storage.persistent_add.s": own("core.storage.persistent_add"),
        "core.storage.persistent_add.calls": calls("core.storage.persistent_add"),
        "core.storage.persistent_add.rows": c.get("core.storage.persistent_add.rows", 0.0),
        "core.storage.set_meta.s": own("core.storage.set_meta"),
        "core.storage.set_meta.calls": calls("core.storage.set_meta"),
        "metric.refine.s": own("metric.refine"),
        "metric.refine.rows": refined,
        "metric.refine.keep_ratio": ratio(c.get("metric.refine.kept", 0.0), refined),
        "core.landmarks.project.s": own("core.landmarks.project"),
        "dht.next_hop.s": own("dht.next_hop"),
        "dht.next_hop.calls": calls("dht.next_hop"),
        "core.lifecycle.s": own("core.lifecycle"),
        "core.lifecycle.calls": calls("core.lifecycle"),
        "sim.transport.send.s": own("sim.transport.send"),
        "sim.transport.send.calls": calls("sim.transport.send"),
        "net.codec.encode.s": own("net.codec.encode"),
        "net.codec.encode.calls": calls("net.codec.encode"),
        "net.codec.encode.bytes": c.get("net.codec.encode.bytes", 0.0),
        "net.codec.feed.s": own("net.codec.feed"),
        "net.codec.feed.calls": calls("net.codec.feed"),
        "net.codec.feed.bytes": c.get("net.codec.feed.bytes", 0.0),
        "net.transport.rpc.calls": calls("net.transport.rpc"),
        "net.transport.rpc.wait_s": waited("net.transport.rpc"),
        "net.transport.rpc.failed": c.get("net.transport.rpc.failed", 0.0),
        "net.node.ring_snapshot.calls": calls("net.node.ring_snapshot"),
        "net.node.ring_snapshot.wait_s": waited("net.node.ring_snapshot"),
        "net.node.range_query.wait_s": waited("net.node.range_query"),
        "net.node.route_insert.wait_s": waited("net.node.route_insert"),
        "e2e.failed_frac": plain["failed_frac"],
        "e2e.query_ms_p99": plain["query_ms_p99"]["value"],
        "trace.phase_s": meas.wall,
        "trace.residual_s": meas.residual,
        "trace.spans": float(len(res["tracer"].start)),
        "trace.ops_per_s": res["traced_ops_per_s"],
        "trace.untraced_ops_per_s": res["untraced_ops_per_s"],
        "trace.overhead": res["untraced_ops_per_s"] / res["traced_ops_per_s"] - 1.0,
        "trace.self_check": 1.0 if ok else 0.0,
    })
    if sim:
        out["sim.query.bytes_per_query"] = plain["bytes_per_query"]
        out["sim.query.messages_per_query"] = plain["messages_per_query"]
    else:
        out["e2e.insert_ms_p50"] = plain["insert_ms_p50"]["value"]
        out["e2e.insert_ms_p90"] = plain["insert_ms_p90"]["value"]
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict[str, Any]:
    """Run one workload and return the result line as a dict.

    ``tiny`` shrinks every input so the benchmark's own tests finish in
    seconds.
    """
    from common import environment, log, write_record

    if workload == "live-mixed":
        import live_workload as mod

        cfg: Any = mod.LIVE
        runner = mod.run_live
    else:
        import sim_workloads as mod

        cfg = mod.SIM_WIDE
        runner = mod.run_sim
    if tiny:
        cfg = mod.tiny(cfg)
    env = environment(seed, workload, cfg.sizes())
    res = runner(cfg, seed, seconds, trace)
    outcome = res["outcome"]
    record: dict[str, Any] = {"env": env, "trace": trace, "seconds": seconds}
    if trace:
        ok, problems = self_check(res)
        if not ok:
            outcome.record_op("trace self-check", False, "; ".join(problems))
        metrics = with_units(layer_metrics(workload, res, ok), PER_LAYER_UNITS)
        res["tracer"].dump(HERE / "_out" / f"spans-{workload}-{seed}.npz")
        record.update(untraced=res["plain"], traced=res["traced"], self_check=problems)
    else:
        metrics = with_units(res["metrics"], END_TO_END_UNITS)
        record["report"] = res["report"]
    record["metrics"] = metrics
    record["failures"] = outcome.examples
    write_record(f"result-{workload}-{seed}-trace{int(trace)}", record)
    log(json.dumps({"env": env}))
    for text in outcome.examples:
        log(f"FAILED {text}")
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {HERE.parent / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
