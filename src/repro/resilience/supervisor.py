"""Supervised execution: checkpoint, detect, recover, degrade.

:class:`SupervisedRun` wraps a :class:`repro.core.simulation.Simulation`
in a crash-recovery harness:

* **checkpoint** every N steps (snapshot format 4, ``ckpt_<step>.npz`` in the
  run directory, pruned to a small keep-window),
* **detect** worker death (:class:`~repro.errors.WorkerCrashError`),
  barrier timeouts (:class:`~repro.errors.WorkerHangError`), migration
  overflows (:class:`~repro.errors.ExchangeOverflowError`) and audit
  failures (:class:`~repro.errors.InvariantViolationError`),
* **recover** by tearing the backend down, backing off exponentially,
  restoring the newest *loadable* checkpoint (corrupted archives fall
  back to older ones) and respawning the worker pool,
* **degrade** the sharded backend to the serial engine after repeated
  parallel faults (a run that keeps losing workers finishes slowly
  rather than not at all),
* **journal** every recovery event to ``journal.jsonl`` and merge it
  into the first post-recovery :class:`StepDiagnostics` so callers see
  what happened inline with the step stream.

Because the sharded backend draws its randomness from stateless
``(seed, shard, step)`` Philox streams, a recovery that restores a
checkpoint at the *same worker count* replays the failed steps
bit-for-bit: the supervised run's final state is identical to an
unfailed run's (tested).  Degraded (serial) recoveries continue the
run as a statistically equivalent realization instead.

A run directory is resumable across processes::

    run = SupervisedRun.resume("runs/wedge-1989")
    run.run_schedule()          # continues the stored schedule
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import random
import time
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from repro.core.simulation import Simulation, StepDiagnostics
from repro.errors import (
    CheckpointCorruptionError,
    ConfigurationError,
    ExchangeOverflowError,
    InvariantViolationError,
    RecoveryExhaustedError,
    WorkerCrashError,
    WorkerHangError,
)
from repro.io.snapshots import load_simulation, save_simulation
from repro.resilience.audit import InvariantAuditor
from repro.telemetry.events import EventStream

#: Failures the supervisor recovers from.  Everything else --
#: configuration errors, geometry errors, plain bugs -- propagates:
#: retrying cannot fix a wrong input.
RETRYABLE = (
    WorkerCrashError,
    WorkerHangError,
    ExchangeOverflowError,
    InvariantViolationError,
)

PathLike = Union[str, pathlib.Path]

#: Checkpoint file name pattern (zero-padded so lexical == numeric sort).
_CKPT_FMT = "ckpt_{step:08d}.npz"
_CKPT_GLOB = "ckpt_*.npz"
#: Newest checkpoints retained; older ones are pruned.  At least 2, so
#: a torn newest write can fall back.
KEEP_CHECKPOINTS = 3
#: Parallel faults tolerated before a sharded run degrades to serial.
DEGRADE_AFTER = 2


def backoff_seconds(base: float, retry: int) -> float:
    """Jittered exponential backoff before 1-based retry ``retry``.

    ``base * 2**(retry - 1)`` seconds, scaled by a uniform factor in
    ``[0.5, 1.5]`` so runs that fail together do not retry in lockstep
    (the service runs many supervised jobs at once).  The jitter draws
    from the process RNG (``random``), never from a simulation's stream:
    recovery timing must not perturb the physics.  ``base=0`` (the test
    path) returns exactly 0.0.
    """
    backoff = base * 2.0 ** max(0, retry - 1)
    if backoff > 0:
        backoff *= 1.0 + 0.5 * (2.0 * random.random() - 1.0)
    return backoff


@dataclass(frozen=True)
class RecoveryEvent:
    """One detected failure and what the supervisor did about it."""

    #: Step index that failed (``sim.step_count`` had not advanced).
    step: int
    #: Exception class name (``WorkerCrashError``, ...).
    error: str
    #: The exception's message.
    detail: str
    #: 1-based retry number (compared against ``max_retries``).
    retry: int
    #: Step the run was rolled back to.
    restored_step: int
    #: Worker count after recovery (1 when degraded to serial).
    workers_after: int
    #: True when this recovery switched sharded -> serial.
    degraded: bool = False
    #: Seconds spent recovering (teardown + backoff + restore).
    wall_seconds: float = 0.0

    def to_dict(self) -> dict:
        """Plain-dict form for the JSONL journal."""
        return dataclasses.asdict(self)


class RunJournal(EventStream):
    """Append-only event log of a supervised run (``journal.jsonl``).

    The original resilience journal, now a thin subclass of the
    telemetry :class:`~repro.telemetry.events.EventStream` -- same API
    (``append``/``load``), same one-JSON-object-per-line format, kept
    on its own ``journal.jsonl`` so existing run directories and
    tooling keep working.  When the supervised simulation also carries
    a telemetry hub, every journal record is mirrored into the hub's
    unified ``events.jsonl`` stream.
    """

    filename = "journal.jsonl"


class SupervisedRun:
    """Fault-tolerant driver of a simulation's step loop.

    Parameters
    ----------
    sim:
        The simulation to supervise (serial or sharded backend).
    run_dir:
        Directory for checkpoints, ``run.json`` metadata and the
        journal; created if missing.  A baseline checkpoint is written
        immediately so recovery is possible from step one.
    checkpoint_every, audit_every:
        Cadences in steps; ``0`` disables the respective machinery
        (an un-checkpointed fault is then fatal).
    max_retries:
        Recoveries allowed per run before
        :class:`~repro.errors.RecoveryExhaustedError`.
    backoff_base:
        Base of the jittered exponential sleep before respawning
        (:func:`backoff_seconds`).  Tests use ``backoff_base=0``, which
        always sleeps exactly zero.
    fault_plan:
        Optional :class:`repro.resilience.faults.FaultPlan` (testing).
        Re-armed on respawned backends; faults at or before a failed
        step are disarmed after recovery so the bitwise replay does not
        re-fire them.

    Checkpoints are plain (uncompressed) .npz archives -- ~30x faster
    to write than compressed at ~25% more disk, the right trade for
    files pruned within a few cadences; the newest
    :data:`KEEP_CHECKPOINTS` are kept.  After :data:`DEGRADE_AFTER`
    parallel faults a sharded run degrades to serial; degraded
    continuation is statistically equivalent, not bitwise (the
    per-shard streams are keyed by worker count).
    """

    def __init__(
        self,
        sim: Simulation,
        run_dir: PathLike,
        checkpoint_every: int = 50,
        audit_every: int = 50,
        max_retries: int = 3,
        backoff_base: float = 0.5,
        fault_plan=None,
        _meta: Optional[dict] = None,
    ) -> None:
        if checkpoint_every < 0 or audit_every < 0:
            raise ConfigurationError("cadences must be non-negative")
        if max_retries < 0:
            raise ConfigurationError("max_retries must be non-negative")
        self.sim = sim
        self.run_dir = pathlib.Path(run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.checkpoint_every = int(checkpoint_every)
        self.audit_every = int(audit_every)
        self.max_retries = int(max_retries)
        self.backoff_base = float(backoff_base)
        self.fault_plan = fault_plan
        self.journal = RunJournal(self.run_dir)
        #: Optional :class:`repro.telemetry.hub.Telemetry` picked up from
        #: the simulation; every journal record is mirrored into its
        #: unified event stream, and audits report through it.
        self.telemetry = getattr(sim, "telemetry", None)
        self.auditor = InvariantAuditor()
        self.retries = 0
        self.parallel_faults = 0
        #: Recovery events awaiting merge into the next StepDiagnostics.
        self._pending: list = []

        backend = sim.backend
        self._workers = int(getattr(backend, "n_workers", 1))
        self._processes = bool(getattr(backend, "_processes", False))
        self._barrier_timeout = getattr(backend, "_barrier_timeout", None)
        self._channel_capacity = getattr(backend, "_channel_capacity", None)

        if _meta is not None:
            self._meta = _meta
        else:
            self._meta = {
                "start_step": sim.step_count,
                "workers": self._workers,
                "processes": self._processes,
                "checkpoint_every": self.checkpoint_every,
                "audit_every": self.audit_every,
                "max_retries": self.max_retries,
                "seed": sim.config.seed
                if isinstance(sim.config.seed, int)
                else None,
            }
            self._write_meta()
            if self.checkpoint_every:
                self._checkpoint()
        self.auditor.rebase(sim)

    # -- context management --------------------------------------------

    def __enter__(self) -> "SupervisedRun":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Shut down the supervised simulation's backend."""
        self.sim.close()

    # -- telemetry ------------------------------------------------------

    def attach_telemetry(self, telemetry) -> None:
        """Adopt a telemetry hub after construction (the resume path).

        :meth:`resume` rebuilds the simulation from a checkpoint before
        any telemetry exists; this wires the hub to both the supervisor
        (journal mirroring, audit events) and the restored simulation.
        """
        self.telemetry = telemetry
        if telemetry is None:
            return
        telemetry.reattach(self.sim)
        # Mirror journal records this process appended before the hub
        # existed (resume() journals "resumed" -- and possibly
        # "checkpoint_corrupt" -- during construction).
        for record in self.journal.events:
            rec = dict(record)
            kind = rec.pop("kind", "resilience")
            telemetry.record_event(kind, **rec)

    def _journal(self, record: dict) -> None:
        """Append to ``journal.jsonl`` and mirror into the telemetry stream."""
        self.journal.append(record)
        if self.telemetry is not None:
            rec = dict(record)
            kind = rec.pop("kind", "resilience")
            self.telemetry.record_event(kind, **rec)

    # -- metadata / checkpoints ----------------------------------------

    def _write_meta(self) -> None:
        path = self.run_dir / "run.json"
        path.write_text(json.dumps(self._meta, indent=2), encoding="utf-8")

    def _checkpoints_newest_first(self) -> "list[pathlib.Path]":
        return sorted(self.run_dir.glob(_CKPT_GLOB), reverse=True)

    def _checkpoint(self) -> pathlib.Path:
        """Write ``ckpt_<step>.npz`` and prune beyond the keep-window."""
        path = self.run_dir / _CKPT_FMT.format(step=self.sim.step_count)
        save_simulation(
            self.sim, path, fault_plan=self.fault_plan, compress=False
        )
        for old in self._checkpoints_newest_first()[KEEP_CHECKPOINTS:]:
            old.unlink(missing_ok=True)
        if self.telemetry is not None:
            self.telemetry.record_event(
                "checkpoint", step=self.sim.step_count, path=path.name
            )
        return path

    # -- the supervised step -------------------------------------------

    def step(self, sample: bool = False) -> StepDiagnostics:
        """Advance one step, recovering from retryable faults.

        The step is retried (after restore) until it succeeds or the
        retry budget is exhausted; the returned diagnostics therefore
        always describe a *completed* step.  Recovery events that
        happened on the way are attached as ``diag.recovery``.
        """
        return self._step(lambda at: sample)

    def _step(self, sample_for) -> StepDiagnostics:
        """One supervised step; ``sample_for(step_index) -> bool``.

        The flag is a *function of the absolute step index*, re-evaluated
        on every attempt: a recovery rolls ``step_count`` back, and the
        replayed steps must carry the flags they originally had (a
        failed sampling step must not smear sampling onto the restored
        transient steps).
        """
        while True:
            try:
                sample = bool(sample_for(self.sim.step_count))
                diag = self.sim.step(sample=sample)
                self.auditor.observe(diag)
                if (
                    self.audit_every
                    and self.sim.step_count % self.audit_every == 0
                ):
                    self._audit()
            except RETRYABLE as exc:
                self._recover(exc)
                continue
            break
        if self._pending:
            diag = dataclasses.replace(diag, recovery=tuple(self._pending))
            self._pending = []
        if (
            self.checkpoint_every
            and self.sim.step_count % self.checkpoint_every == 0
        ):
            self._checkpoint()
        return diag

    def run_schedule(
        self,
        phases: Optional[Sequence] = None,
        max_steps: Optional[int] = None,
    ) -> Optional[StepDiagnostics]:
        """Run a transient/average schedule under supervision.

        ``phases`` is a sequence of ``(n_steps, sample)`` pairs (or
        ``{"steps": n, "sample": bool}`` dicts); it is recorded in
        ``run.json`` so :meth:`resume` can continue the same schedule
        with ``phases=None``.  The sampling flag of every step is
        derived from its *absolute* step index, so a recovery that
        rolls back across a phase boundary replays each step with the
        flag it originally had.

        ``max_steps`` stops early after that many completed steps
        (checkpointing the stop point) -- the hook resumption tests and
        incremental drivers use.
        """
        if phases is None:
            stored = self._meta.get("phases")
            if not stored:
                raise ConfigurationError(
                    "no schedule stored in run.json; pass phases explicitly"
                )
            phases = stored
            start = int(self._meta["schedule_start"])
        else:
            phases = [
                p
                if isinstance(p, dict)
                else {"steps": int(p[0]), "sample": bool(p[1])}
                for p in phases
            ]
            start = self.sim.step_count
            self._meta["phases"] = phases
            self._meta["schedule_start"] = start
            self._write_meta()

        segments = []
        lo = start
        for p in phases:
            hi = lo + int(p["steps"])
            segments.append((lo, hi, bool(p["sample"])))
            lo = hi
        total_end = lo

        def sample_for(at: int) -> bool:
            return any(s <= at < e and f for s, e, f in segments)

        diag = None
        done = 0
        while self.sim.step_count < total_end:
            diag = self._step(sample_for)
            done += 1
            if max_steps is not None and done >= max_steps:
                break
        if self.checkpoint_every:
            # Always leave a checkpoint at the stop point, so a resumed
            # process starts exactly here.  When the stop lands on the
            # cadence, _step already wrote this exact file -- skipping
            # the duplicate save keeps chunked drivers (the service
            # worker runs one heartbeat-sized call per chunk) from
            # paying for every checkpoint twice.
            path = self.run_dir / _CKPT_FMT.format(step=self.sim.step_count)
            if (
                self.sim.step_count % self.checkpoint_every != 0
                or not path.exists()
            ):
                self._checkpoint()
        return diag

    def _audit(self) -> None:
        """Run the invariant audit, reporting its outcome to telemetry.

        A failed audit still raises (the supervisor recovers from it);
        telemetry records the failure before the exception propagates so
        the event stream shows the audit verdict next to the recovery
        it triggered.
        """
        step = self.sim.step_count
        try:
            report = self.auditor.audit(self.sim)
        except InvariantViolationError as exc:
            if self.telemetry is not None:
                self.telemetry.record_audit(
                    step, ok=False, error=str(exc)
                )
            raise
        if self.telemetry is not None:
            self.telemetry.record_audit(step, ok=True, **(report or {}))

    # -- recovery -------------------------------------------------------

    def _recover(self, exc: Exception) -> None:
        """Roll back to the newest loadable checkpoint and respawn."""
        t0 = time.monotonic()
        failed_step = self.sim.step_count
        self.retries += 1
        if self._workers > 1:
            self.parallel_faults += 1
        if self.retries > self.max_retries:
            self._journal(
                {
                    "kind": "exhausted",
                    "step": failed_step,
                    "error": type(exc).__name__,
                    "retries": self.retries - 1,
                }
            )
            raise RecoveryExhaustedError(
                "recovery budget exhausted",
                step=failed_step,
                retries=self.max_retries,
                last_error=type(exc).__name__,
            ) from exc
        if not self.checkpoint_every:
            raise RecoveryExhaustedError(
                "checkpointing is disabled; cannot recover",
                step=failed_step,
                last_error=type(exc).__name__,
            ) from exc

        # The fault (if injected) fired at or before the failed step;
        # disarm it on this side so the bitwise replay does not re-fire
        # it through a freshly forked pool.
        if self.fault_plan is not None:
            self.fault_plan.disarm_through(failed_step)

        try:
            self.sim.close()
        except Exception:  # pragma: no cover - teardown is best-effort
            pass

        backoff = backoff_seconds(self.backoff_base, self.retries)
        if backoff > 0:
            time.sleep(backoff)

        degraded = (
            self._workers > 1 and self.parallel_faults >= DEGRADE_AFTER
        )
        workers_after = 1 if degraded else self._workers
        self.sim = self._restore(workers_after)
        self._workers = workers_after
        self.auditor.rebase(self.sim)
        if self.telemetry is not None:
            # The restored simulation was built without a telemetry
            # handle; re-wire the hub so metrics and events continue
            # across the recovery (worker span rings are not
            # re-allocated on the respawned pool -- documented
            # limitation; driver-side spans resume immediately).
            self.telemetry.reattach(self.sim)

        event = RecoveryEvent(
            step=failed_step,
            error=type(exc).__name__,
            detail=str(exc),
            retry=self.retries,
            restored_step=self.sim.step_count,
            workers_after=workers_after,
            degraded=degraded,
            wall_seconds=time.monotonic() - t0,
        )
        self._pending.append(event)
        self._journal({"kind": "recovery", **event.to_dict()})
        if degraded:
            self._journal(
                {
                    "kind": "degraded",
                    "step": failed_step,
                    "parallel_faults": self.parallel_faults,
                }
            )

    def _backend_factory(self, n_workers, processes, flux_pending, edges=None):
        """Respawn a sharded backend with the run's knobs re-applied."""
        from repro.parallel.backend import ShardedBackend

        kwargs = {
            "processes": processes,
            "flux_pending": flux_pending,
            "fault_plan": self.fault_plan,
            "edges": edges,
        }
        if self._barrier_timeout is not None:
            kwargs["barrier_timeout"] = self._barrier_timeout
        if self._channel_capacity is not None:
            kwargs["channel_capacity"] = self._channel_capacity
        return ShardedBackend(n_workers, **kwargs)

    def _restore(self, workers: int) -> Simulation:
        """Load the newest checkpoint that parses; fall back on torn ones."""
        last_exc: Optional[Exception] = None
        for path in self._checkpoints_newest_first():
            try:
                return load_simulation(
                    path,
                    workers=workers,
                    processes=self._processes,
                    backend_factory=self._backend_factory
                    if workers > 1
                    else None,
                )
            except CheckpointCorruptionError as corrupt:
                last_exc = corrupt
                self._journal(
                    {
                        "kind": "checkpoint_corrupt",
                        "path": path.name,
                        "detail": str(corrupt),
                    }
                )
                continue
        raise RecoveryExhaustedError(
            "no loadable checkpoint remains in the run directory",
            run_dir=str(self.run_dir),
        ) from last_exc

    # -- resumption -----------------------------------------------------

    @classmethod
    def resume(
        cls,
        run_dir: PathLike,
        workers: Optional[int] = None,
        processes: Optional[bool] = None,
        **overrides,
    ) -> "SupervisedRun":
        """Reattach to a run directory after a process death.

        Restores the newest loadable checkpoint (skipping torn ones)
        and rebuilds the supervisor from the stored ``run.json``
        metadata; ``run_schedule()`` with no arguments then finishes
        the stored schedule.  ``workers``/``processes`` override the
        snapshot's backend (``None`` keeps it); keyword ``overrides``
        replace any constructor knob.
        """
        run_dir = pathlib.Path(run_dir)
        meta_path = run_dir / "run.json"
        if not meta_path.exists():
            raise ConfigurationError(f"no run.json in {run_dir}")
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        if processes is None:
            processes = bool(meta.get("processes", True))

        last_exc: Optional[Exception] = None
        sim = None
        journal = RunJournal(run_dir)
        for path in sorted(run_dir.glob(_CKPT_GLOB), reverse=True):
            try:
                sim = load_simulation(path, workers=workers, processes=processes)
                break
            except CheckpointCorruptionError as corrupt:
                last_exc = corrupt
                journal.append(
                    {
                        "kind": "checkpoint_corrupt",
                        "path": path.name,
                        "detail": str(corrupt),
                    }
                )
        if sim is None:
            raise CheckpointCorruptionError(
                "no loadable checkpoint in run directory",
                path=str(run_dir),
            ) from last_exc

        kwargs = {
            "checkpoint_every": int(meta.get("checkpoint_every", 50)),
            "audit_every": int(meta.get("audit_every", 50)),
            "max_retries": int(meta.get("max_retries", 3)),
        }
        kwargs.update(overrides)
        run = cls(sim, run_dir, _meta=meta, **kwargs)
        run._journal({"kind": "resumed", "step": sim.step_count})
        return run
