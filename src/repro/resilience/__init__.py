"""Fault-tolerant supervised execution.

Three cooperating layers turn a long particle run from "dies at step
4,812" into "recovers and finishes":

* :mod:`repro.resilience.faults` -- deterministic, seed-keyed fault
  injection (worker crash/hang, exchange overflow, corrupted payloads,
  truncated checkpoints) behind zero-overhead hooks in the backend,
  the migration channels, and the snapshot writer.
* :mod:`repro.resilience.audit` -- cadenced O(N) invariant
  audits (count accounting, finite state, fixed-point range, cell
  consistency, slab containment, channel conservation) raising typed
  :class:`repro.errors.InvariantViolationError`.
* :mod:`repro.resilience.supervisor` -- a checkpoint/restart harness
  (:class:`SupervisedRun`) that detects worker death, hangs and audit
  failures, respawns the backend from the last good checkpoint with
  bounded retries, degrades sharded -> serial after repeated parallel
  faults, and journals every recovery event.

Recovery at the same worker count is bitwise identical to an unfailed
run: the counter-based ``(seed, shard, step)`` Philox streams make a
replay from a checkpoint reproduce the lost steps exactly.
"""

from repro.resilience.audit import InvariantAuditor
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.resilience.supervisor import (
    RecoveryEvent,
    RunJournal,
    SupervisedRun,
)

__all__ = [
    "FaultPlan",
    "FaultSpec",
    "InvariantAuditor",
    "RecoveryEvent",
    "RunJournal",
    "SupervisedRun",
]
