"""Simulation correctness harness: invariants, replay, differential fuzzing.

Three legs, built on the hooks the rest of the stack exposes:

* :mod:`repro.check.invariants` — runtime assertions: Chord ring
  consistency, exactly-one-owner shard placement, query branch
  conservation, and online query-partition
  exactness (QuerySplit tiling, SurrogateRefine key-interval tiling);
* :mod:`repro.check.replay` — scenarios, run fingerprints and JSON replay
  logs; ``repro replay <log>`` re-executes a recorded run and proves it
  bit-identical;
* :mod:`repro.check.fuzz` — Hypothesis state machines driving random op
  sequences in lockstep with the :mod:`repro.check.oracle` linear-scan
  reference; :mod:`repro.check.pytest_plugin` dumps shrunken failing
  scenarios as replay bundles.

See ``docs/testing.md`` for the invariant catalogue and workflows.
"""

from repro.check.invariants import (
    InvariantChecker,
    InvariantViolation,
    PartitionChecker,
)
from repro.check.oracle import LinearScanOracle
from repro.check.replay import (
    RunFingerprint,
    RunReport,
    Scenario,
    World,
    apply_op,
    attach_scenario,
    build_world,
    clear_scenario,
    current_scenario,
    execute_scenario,
    random_scenario,
    record_run,
    replay_file,
    write_bundle,
)

__all__ = [
    "InvariantChecker",
    "InvariantViolation",
    "PartitionChecker",
    "LinearScanOracle",
    "Scenario",
    "RunFingerprint",
    "RunReport",
    "World",
    "build_world",
    "apply_op",
    "execute_scenario",
    "random_scenario",
    "record_run",
    "replay_file",
    "write_bundle",
    "attach_scenario",
    "current_scenario",
    "clear_scenario",
]
