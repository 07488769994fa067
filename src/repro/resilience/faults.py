"""Deterministic fault injection for the parallel execution stack.

A :class:`FaultPlan` is an armed list of :class:`FaultSpec` entries --
*inject a worker crash on shard 1 at step 9*, *truncate the checkpoint
written at step 50* -- consulted by cheap hooks at the injection points:

* :class:`repro.parallel.backend.ShardWorker` (phase A): ``crash``
  (hard process death via ``os._exit``; inline, a raise),
  ``exception`` (raised inside the worker, reaching the parent as
  itself), ``hang`` (sleep past the barrier timeout; inline, a sleep).
* :class:`repro.parallel.exchange.MigrationChannels` (``ship``):
  ``overflow`` (forces the channel capacity down so the typed overflow
  raise fires) and ``corrupt`` (overwrites the shipped payload with
  seed-keyed garbage for the invariant auditor to catch).
* :func:`repro.io.snapshots.save_simulation`: ``truncate`` (cuts the
  written archive in half so the restore path must detect it).

Every hook is guarded by an ``is None`` test on the plan, so an
unarmed run pays a single attribute check -- in most hooks not even
that, because the plan is simply not installed.

Faults fire **at most once** per copy of the plan: every shard of a
sharded backend holds its own copy, taken at bind (forked or inline),
so an ``ANY_SHARD`` fault fires in every shard.  After a recovery the
supervisor calls :meth:`FaultPlan.disarm_through` on the parent's copy
so a replay of the failed steps does not re-fire the same fault
through the freshly bound shards -- which is what makes
*deterministic fault at step k* compatible with *bitwise-identical
recovery through step k*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional

import numpy as np

#: Fault kinds a plan can arm (step-loop injection points).
STEP_FAULT_KINDS = (
    "crash",      # worker process dies (os._exit); inline: raises
    "exception",  # worker raises mid-phase (reaches the parent as itself)
    "hang",       # worker sleeps past the barrier timeout
    "overflow",   # migration channel capacity forced below the load
    "corrupt",    # shipped migration payload overwritten with garbage
    "truncate",   # checkpoint archive truncated after writing
)

#: Service-level fault kinds consumed by :mod:`repro.service`.  Their
#: ``step`` field indexes a different clock per kind: job-worker faults
#: (``worker_kill``, ``worker_stall``) fire at the first heartbeat
#: chunk boundary at or after simulation step ``step``; journal faults
#: (``journal_tear``, ``orchestrator_kill``) fire at the Nth record
#: appended to the service journal.
SERVICE_FAULT_KINDS = (
    "worker_kill",        # job worker process dies hard (os._exit)
    "worker_stall",       # worker stops heartbeating (watchdog prey)
    "journal_tear",       # service journal torn mid-record (torn tail)
    "orchestrator_kill",  # orchestrator dies between journal records
)

#: Every armable fault kind.
FAULT_KINDS = STEP_FAULT_KINDS + SERVICE_FAULT_KINDS

#: Wildcard shard: the fault fires in every shard's copy of the plan.
ANY_SHARD = -1


@dataclass
class FaultSpec:
    """One armed fault.

    ``step`` is the *earliest* step at which the fault may fire; kinds
    that need traffic to be injectable (``overflow``, ``corrupt`` fire
    only when migrants are actually shipped) latch onto the first
    qualifying step at or after it, so a plan stays deterministic even
    when the exact migration schedule is not known in advance.
    """

    kind: str
    step: int
    shard: int = ANY_SHARD
    #: Sleep duration of a ``hang`` (longer than any barrier timeout).
    seconds: float = 3600.0
    #: Forced channel capacity of an ``overflow``.
    capacity: int = 0
    #: Set once the fault has fired (in this process's copy).
    fired: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; one of {FAULT_KINDS}"
            )
        if self.step < 0:
            raise ValueError("fault step must be non-negative")

    def to_dict(self) -> dict:
        """JSON-serializable form (service submissions ship fault
        plans to job worker processes as plain dicts)."""
        return {
            "kind": self.kind,
            "step": self.step,
            "shard": self.shard,
            "seconds": self.seconds,
            "capacity": self.capacity,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSpec":
        return cls(
            kind=data["kind"],
            step=int(data["step"]),
            shard=int(data.get("shard", ANY_SHARD)),
            seconds=float(data.get("seconds", 3600.0)),
            capacity=int(data.get("capacity", 0)),
        )


class FaultPlan:
    """A seed-keyed, fire-once collection of faults.

    The seed keys the garbage pattern of ``corrupt`` faults so a
    corruption test is reproducible bit for bit.
    """

    def __init__(self, faults: Iterable[FaultSpec] = (), seed: int = 0) -> None:
        self.faults: List[FaultSpec] = list(faults)
        self.seed = int(seed)

    @property
    def armed(self) -> bool:
        """True while any fault has not fired yet."""
        return any(not f.fired for f in self.faults)

    def take(
        self, kind: str, step: int, shard: Optional[int] = None
    ) -> Optional[FaultSpec]:
        """Claim (and disarm) the first matching armed fault, if any.

        ``shard=None`` skips the shard filter (used by injection points
        that have no shard identity, e.g. the checkpoint writer).
        """
        for f in self.faults:
            if f.fired or f.kind != kind or step < f.step:
                continue
            if (
                shard is not None
                and f.shard != ANY_SHARD
                and f.shard != shard
            ):
                continue
            f.fired = True
            return f
        return None

    def disarm_through(self, step: int) -> int:
        """Mark every fault armed at or before ``step`` as fired.

        Called by the supervisor after recovering from a failure at
        ``step``: the replayed steps must not re-trigger the fault that
        was already exercised (worker-side fires happen in the worker
        process's copy of the plan and die with it).  Returns the
        number of faults disarmed.
        """
        n = 0
        for f in self.faults:
            if not f.fired and f.step <= step:
                f.fired = True
                n += 1
        return n

    def corruption_pattern(self, step: int, shard: int, shape) -> np.ndarray:
        """Deterministic garbage for a ``corrupt`` fault's payload.

        Seed-keyed by ``(plan seed, step, shard)``: a mix of NaNs and
        out-of-range magnitudes, so both the finite-state and the
        range audits have something to catch.
        """
        rng = np.random.default_rng((self.seed, step, shard))
        garbage = rng.choice(
            np.array([np.nan, 1e30, -1e30]), size=int(np.prod(shape))
        )
        return garbage.reshape(shape)

    def describe(self) -> List[dict]:
        """Serializable summary (journals, test assertions)."""
        return [
            {
                "kind": f.kind,
                "step": f.step,
                "shard": f.shard,
                "fired": f.fired,
            }
            for f in self.faults
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        live = sum(not f.fired for f in self.faults)
        return f"FaultPlan({len(self.faults)} faults, {live} armed)"
