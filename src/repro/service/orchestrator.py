"""The job orchestrator: bounded queue, worker pool, watchdog, retry.

:class:`Orchestrator` turns the one-shot CLI into a fleet supervisor.
Jobs are submitted as scenario specs (plus seed/overrides), move
through the strict state machine enforced by
:class:`~repro.service.store.JobStore`, and execute in forked worker
processes running :class:`~repro.resilience.supervisor.SupervisedRun`
(:mod:`repro.service.worker`).  Robustness layers, bottom up:

* **step-level** faults inside a job are absorbed by ``SupervisedRun``
  itself (checkpoint/restore/replay, PR 3);
* **job-level** worker death is detected by reaping exit codes and
  retried with jittered exponential backoff, resuming from the job's
  newest checkpoint -- the serial engine's deterministic streams make
  the retried run bitwise identical to an unfailed one;
* a **heartbeat watchdog** SIGKILLs workers that stop stamping
  ``worker.jsonl`` (wedged, stalled, or fault-injected) and requeues
  the job; a per-job **wall-clock deadline** kills and fails it as
  ``TIMED_OUT`` instead (a deadline is a contract, not a hiccup);
* the **bounded queue** rejects submissions with a typed
  :class:`~repro.errors.BackpressureError` (HTTP 429) once
  ``queue_limit`` jobs are waiting;
* **graceful shutdown** SIGTERMs running workers, which drain to their
  next checkpoint and exit; drained jobs are requeued in the journal
  so a restarted orchestrator resumes them;
* **crash recovery**: construction replays the service journal; jobs
  that were in flight when the orchestrator died are requeued and
  resume from their checkpoints;
* the **result cache** keys completed results by
  ``(ScenarioSpec.digest(), seed, overrides, schedule)`` so duplicate
  submissions return instantly without stepping the engine.

Everything is stdlib: ``threading`` for the scheduler loop,
``multiprocessing`` (fork) for workers, the telemetry
:class:`~repro.telemetry.metrics.MetricsRegistry` for observability.
"""

from __future__ import annotations

import contextlib
import json
import math
import multiprocessing
import multiprocessing.connection
import numbers
import os
import pathlib
import threading
import time
import uuid
from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from repro.errors import (
    BackpressureError,
    ConfigurationError,
    JobStateError,
    ServiceError,
    ServiceJournalError,
)
from repro.resilience.supervisor import backoff_seconds
from repro.scenarios.spec import OVERRIDE_KEYS, ScenarioSpec
from repro.service import store as st
from repro.service.store import JobRecord, JobStore
from repro.service.worker import EXIT_DONE, EXIT_DRAINED, child_main
from repro.telemetry.events import EventStream
from repro.telemetry.exporters import write_prometheus_snapshot
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.stitch import ORCH_SPANS_FILE
from repro.telemetry.stream import JobEventTail

PathLike = Union[str, pathlib.Path]

#: Seconds a graceful shutdown waits for workers to drain before SIGKILL.
DRAIN_TIMEOUT_S = 60.0

#: Per-job labeled gauge families maintained by the fleet scraper.
FLEET_GAUGES = (
    "repro_job_step",
    "repro_job_total_steps",
    "repro_job_particles",
    "repro_job_us_per_particle",
    "repro_job_load_imbalance",
    "repro_job_retries",
    "repro_job_heartbeat_age_seconds",
)


class OrchestratorTrace(EventStream):
    """Orchestrator-side span stream (``orch_spans.jsonl``).

    Dispatch latencies, per-attempt run envelopes, watchdog kills and
    retry markers -- all timestamped on the ``perf_counter`` axis so
    :mod:`repro.telemetry.stitch` can merge them with worker spans
    into one fleet timeline.
    """

    filename = ORCH_SPANS_FILE


def cache_key(
    spec: ScenarioSpec, seed: int, overrides: dict, schedule
) -> str:
    """The result-cache key: digest + effective seed + physics knobs.

    ``seed``/``transient``/``average`` are resolved into their own
    slots, so ``overrides={"seed": 7}`` and ``seed=7`` key identically.
    """
    physics = {
        k: v
        for k, v in overrides.items()
        if k not in ("seed", "transient", "average")
    }
    return json.dumps(
        {
            "digest": spec.digest(),
            "seed": int(seed),
            "overrides": physics,
            "schedule": [int(schedule[0]), int(schedule[1])],
        },
        sort_keys=True,
        separators=(",", ":"),
    )


@dataclass
class OrchestratorConfig:
    """Tuning knobs of the orchestrator (all have service defaults)."""

    #: Concurrent worker processes.
    workers: int = 2
    #: Jobs allowed to wait in QUEUED before submissions get 429.
    queue_limit: int = 16
    #: Steps per worker chunk (heartbeat, checkpoint and drain-check
    #: cadence).
    heartbeat_every: int = 10
    #: Seconds of heartbeat silence before the watchdog kills a worker.
    heartbeat_timeout: float = 30.0
    #: Default per-job wall-clock deadline, seconds (None = none).
    default_deadline: Optional[float] = None
    #: Job-level retries (attempts = 1 + retries).
    max_job_retries: int = 2
    #: Base of the jittered exponential backoff between job retries
    #: (:func:`~repro.resilience.supervisor.backoff_seconds`).
    backoff_base: float = 0.2
    #: Scheduler tick, seconds.
    poll_interval: float = 0.05
    #: Worker invariant-audit cadence (0 = off; jobs are short-lived
    #: and re-validated by their scenario contracts).
    audit_every: int = 0
    #: Seconds between ``metrics.prom`` snapshot rewrites.
    prom_every: float = 2.0
    #: Seconds between fleet scrapes (per-job gauges from worker
    #: artifacts).  The ``/fleet`` route forces a scrape, so this only
    #: bounds the background staleness of ``/metrics``.
    fleet_every: float = 1.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if self.queue_limit < 1:
            raise ConfigurationError("queue_limit must be >= 1")
        if self.heartbeat_every < 1:
            raise ConfigurationError("heartbeat_every must be >= 1")
        if self.max_job_retries < 0:
            raise ConfigurationError("max_job_retries must be >= 0")
        timeout = self.heartbeat_timeout
        if not (_is_real(timeout) and timeout > 0):
            raise ConfigurationError(
                f"heartbeat_timeout must be > 0 seconds, got {timeout!r}"
            )
        if self.default_deadline is not None:
            _deadline_seconds(self.default_deadline, "default_deadline")


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _deadline_seconds(value, name: str = "deadline") -> float:
    """``value`` as a wall-clock budget: a finite number of seconds > 0."""
    if not (_is_real(value) and math.isfinite(value) and value > 0):
        raise ConfigurationError(
            f"{name} must be a finite number of seconds > 0, got {value!r}"
        )
    return float(value)


def _retry_budget(value) -> int:
    """``value`` as a per-job retry budget: an int >= 0."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Integral)
        or value < 0
    ):
        raise ConfigurationError(
            f"max_retries must be an int >= 0, got {value!r}"
        )
    return int(value)


class Orchestrator:
    """Job queue + worker pool + watchdog over a crash-safe store."""

    def __init__(
        self,
        data_dir: PathLike,
        config: Optional[OrchestratorConfig] = None,
        fault_plan=None,
        start: bool = True,
    ) -> None:
        self.config = config or OrchestratorConfig()
        self.data_dir = pathlib.Path(data_dir)
        self.fault_plan = fault_plan
        self.store = JobStore(self.data_dir, fault_plan=fault_plan)
        self.registry = MetricsRegistry()
        reg = self.registry
        self._m_submissions = reg.counter(
            "repro_service_submissions_total",
            help="jobs accepted into the queue",
        )
        self._m_retries = reg.counter(
            "repro_service_retries_total",
            help="job-level retries (worker death or stalled heartbeat)",
        )
        self._m_timeouts = reg.counter(
            "repro_service_timeouts_total",
            help="jobs killed by their wall-clock deadline",
        )
        self._m_cache_hits = reg.counter(
            "repro_service_cache_hits_total",
            help="submissions served from the result cache",
        )
        self._m_backpressure = reg.counter(
            "repro_service_backpressure_total",
            help="submissions rejected by the bounded queue",
        )
        self._m_done = reg.counter(
            "repro_service_jobs_done_total", help="jobs finished DONE"
        )
        self._m_failed = reg.counter(
            "repro_service_jobs_failed_total",
            help="jobs finished FAILED",
        )
        self._m_queue_depth = reg.gauge(
            "repro_service_queue_depth", help="jobs waiting in QUEUED"
        )
        self._lock = threading.RLock()
        self._procs: Dict[str, multiprocessing.process.BaseProcess] = {}
        self._dispatched: Dict[str, float] = {}
        self._kill_reason: Dict[str, str] = {}
        self._cancelling: set = set()
        self._accepting = True
        self._dead = False
        self._stop = threading.Event()
        # Self-pipe: submissions poke the scheduler awake, and the idle
        # wait also watches the workers' process sentinels -- dispatch
        # and reap latency are event-driven, not a poll tick.  The tick
        # interval remains the watchdog's cadence.
        self._wake_r, self._wake_w = os.pipe()
        self._t_prom = 0.0
        # Fleet observability: one merged tail per non-terminal job
        # feeding the labeled per-job gauges and the /fleet summary,
        # plus the orchestrator's own span stream for trace stitching.
        self._trace = OrchestratorTrace(self.data_dir)
        self._tails: Dict[str, JobEventTail] = {}
        self._fleet: Dict[str, dict] = {}
        self._tids: Dict[str, int] = {}
        self._dispatched_pc: Dict[str, float] = {}
        self._t_fleet = 0.0
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            self._ctx = multiprocessing.get_context()

        # Crash recovery: anything in flight when the last orchestrator
        # died goes back to the queue and resumes from its checkpoint.
        requeued = 0
        for job in list(self.store.jobs.values()):
            if job.state in (st.RUNNING, st.RETRYING):
                self.store.transition(
                    job.job_id, st.QUEUED, requeued=True, not_before=0.0
                )
                requeued += 1
        self.store.record(
            "service_start",
            workers=self.config.workers,
            queue_limit=self.config.queue_limit,
            requeued=requeued,
            torn_tail_repaired=self.store.torn_tail,
        )
        self._trace.emit(
            "span",
            name="service_start",
            ts=time.perf_counter(),
            dur=0.0,
            tid=0,
        )
        self._update_gauges()
        self._thread = threading.Thread(
            target=self._loop, name="repro-orchestrator", daemon=True
        )
        if start:
            self._thread.start()

    # -- submission ------------------------------------------------------

    def submit(
        self,
        scenario: Optional[str] = None,
        spec: Optional[dict] = None,
        seed: Optional[int] = None,
        overrides: Optional[dict] = None,
        deadline: Optional[float] = None,
        max_retries: Optional[int] = None,
        faults: Optional[list] = None,
    ) -> dict:
        """Submit one job; returns ``{"job_id", "state", "cached"}``.

        ``scenario`` names a registered spec; ``spec`` supplies a full
        spec dict instead (exactly one is required).  Raises
        :class:`BackpressureError` when the queue is full,
        :class:`ServiceError` when shutting down, and
        :class:`ConfigurationError` for malformed input.
        """
        # Checked before anything is looked up or journaled: a malformed
        # budget is a 400, never a queued job the watchdog misjudges.
        deadline = (
            self.config.default_deadline
            if deadline is None
            else _deadline_seconds(deadline)
        )
        max_retries = (
            self.config.max_job_retries
            if max_retries is None
            else _retry_budget(max_retries)
        )
        spec_obj = self._resolve_spec(scenario, spec)
        overrides = dict(overrides or {})
        unknown = set(overrides) - set(OVERRIDE_KEYS)
        if unknown:
            raise ConfigurationError(
                f"unknown override keys {sorted(unknown)}; expected a "
                f"subset of {OVERRIDE_KEYS}"
            )
        eff_seed = int(
            overrides.get(
                "seed", seed if seed is not None else spec_obj.seed
            )
        )
        schedule = spec_obj.resolve_schedule(overrides)
        key = cache_key(spec_obj, eff_seed, overrides, schedule)
        with self._lock, self._crash_on_torn_journal():
            self._require_alive()
            if not self._accepting:
                raise ServiceError("orchestrator is shutting down")
            cached = self.store.cache_lookup(key)
            if cached is not None:
                self._m_cache_hits.inc()
                seq = self.store.record(
                    "cache_hit", key=key, job_id=cached.job_id
                )
                self._maybe_die(seq)
                return {
                    "job_id": cached.job_id,
                    "state": cached.state,
                    "cached": True,
                }
            depth = self._queue_depth()
            if depth >= self.config.queue_limit:
                self._m_backpressure.inc()
                seq = self.store.record(
                    "backpressure",
                    queue_depth=depth,
                    limit=self.config.queue_limit,
                )
                self._maybe_die(seq)
                raise BackpressureError(
                    "submission queue is full",
                    queue_depth=depth,
                    limit=self.config.queue_limit,
                )
            job_id = f"{spec_obj.name}-{eff_seed}-{uuid.uuid4().hex[:8]}"
            job = JobRecord(
                job_id=job_id,
                scenario=spec_obj.name,
                spec=spec_obj.to_dict(),
                seed=eff_seed,
                overrides=overrides,
                schedule=schedule,
                cache_key=key,
                job_dir=str(self.data_dir / job_id),
                max_retries=max_retries,
                deadline=deadline,
                submitted_time=time.time(),
            )
            if faults:
                # Ride-along fault specs (testing); stored on the side
                # so the journal keeps the submission schema stable.
                (pathlib.Path(job.job_dir)).mkdir(
                    parents=True, exist_ok=True
                )
                (pathlib.Path(job.job_dir) / "faults.json").write_text(
                    json.dumps(list(faults)), encoding="utf-8"
                )
            self._m_submissions.inc()
            seq = self.store.add_job(job)
            self._update_gauges()
            self._maybe_die(seq)
            self._poke()
            return {"job_id": job_id, "state": job.state, "cached": False}

    def _resolve_spec(self, scenario, spec) -> ScenarioSpec:
        if (scenario is None) == (spec is None):
            raise ConfigurationError(
                "submit needs exactly one of scenario=<name> or "
                "spec=<dict>"
            )
        if spec is not None:
            return ScenarioSpec.from_dict(spec)
        from repro.scenarios import get

        return get(scenario)

    # -- introspection ---------------------------------------------------

    def status(self, job_id: str) -> dict:
        """One job's public status dict."""
        with self._lock:
            job = self.store.get(job_id)
            out = job.to_dict()
            out.pop("spec", None)  # bulky; fetch via the spec digest
            out["cancelling"] = job_id in self._cancelling
            hb = pathlib.Path(job.job_dir) / "worker.jsonl"
            out["last_heartbeat"] = (
                hb.stat().st_mtime if hb.exists() else None
            )
            out["terminal"] = job.terminal
            return out

    def list_jobs(self) -> List[dict]:
        """One summary row per known job, submission order."""
        with self._lock:
            return [
                {
                    "job_id": j.job_id,
                    "scenario": j.scenario,
                    "seed": j.seed,
                    "state": j.state,
                    "attempt": j.attempt,
                    "submitted_time": j.submitted_time,
                }
                for j in self.store.jobs.values()
            ]

    def result(self, job_id: str) -> dict:
        """The terminal artifact of a DONE job (``result.json``)."""
        with self._lock:
            job = self.store.get(job_id)
            if job.state != st.DONE:
                raise JobStateError(
                    "job has no result", job_id=job_id, state=job.state
                )
            path = pathlib.Path(job.job_dir) / "result.json"
            return json.loads(path.read_text(encoding="utf-8"))

    def health(self) -> dict:
        """Liveness plus queue/worker/job-table gauges (``/healthz``)."""
        with self._lock:
            return {
                "ok": not self._dead,
                "accepting": self._accepting,
                "queue_depth": self._queue_depth(),
                "running": len(self._procs),
                "jobs": len(self.store.jobs),
                "by_state": {
                    s: n for s, n in self.store.by_state().items() if n
                },
            }

    # -- cancellation ----------------------------------------------------

    def cancel(self, job_id: str) -> dict:
        """Cancel a job: queued jobs immediately, running jobs by
        SIGTERM (the worker drains to a checkpoint and exits)."""
        with self._lock, self._crash_on_torn_journal():
            self._require_alive()
            job = self.store.get(job_id)
            if job.state in (st.QUEUED, st.RETRYING):
                self.store.transition(
                    job_id, st.CANCELLED, finished_time=time.time()
                )
                self._update_gauges()
            elif job.state == st.RUNNING:
                self._cancelling.add(job_id)
                proc = self._procs.get(job_id)
                if proc is not None and proc.is_alive():
                    proc.terminate()
            else:
                raise JobStateError(
                    "job already terminal",
                    job_id=job_id,
                    state=job.state,
                )
            return self.status(job_id)

    # -- the scheduler loop ----------------------------------------------

    def _poke(self) -> None:
        """Wake the scheduler thread out of its idle wait."""
        try:
            os.write(self._wake_w, b"\0")
        except OSError:  # pragma: no cover - pipe closed at shutdown
            pass

    def _close_pipe(self) -> None:
        fds, self._wake_r, self._wake_w = (
            (self._wake_r, self._wake_w), -1, -1,
        )
        for fd in fds:
            try:
                os.close(fd)
            except OSError:
                pass

    def _idle(self) -> None:
        """Block until the next tick -- or early, on a submission
        (wake pipe) or a worker exit (process sentinels)."""
        with self._lock:
            waits = [p.sentinel for p in self._procs.values()]
        waits.append(self._wake_r)
        try:
            ready = multiprocessing.connection.wait(
                waits, timeout=self.config.poll_interval
            )
        except OSError:  # a sentinel/pipe closed mid-wait
            return
        if self._wake_r in ready:
            try:
                os.read(self._wake_r, 4096)
            except OSError:  # pragma: no cover - closed at shutdown
                pass

    def _loop(self) -> None:
        while True:
            self._idle()
            if self._stop.is_set():
                return
            try:
                with self._lock:
                    if self._dead:
                        return
                    self._reap()
                    self._watchdog()
                    self._dispatch()
                    self._update_gauges()
                    self._scrape_fleet()
                self._maybe_write_prom()
            except ServiceError:
                # An injected death (orchestrator_kill, journal_tear)
                # unwound the tick: make sure the crash is complete --
                # children dead, nothing further journaled.
                with self._lock:
                    if not self._dead:
                        self._hard_kill()
                return

    def _queue_depth(self) -> int:
        return sum(
            1 for j in self.store.jobs.values() if j.state == st.QUEUED
        )

    def _eligible(self, now: float) -> List[JobRecord]:
        jobs = [
            j
            for j in self.store.jobs.values()
            if j.state == st.QUEUED and j.not_before <= now
        ]
        jobs.sort(key=lambda j: (j.submitted_time, j.job_id))
        return jobs

    def _dispatch(self) -> None:
        now = time.time()
        for job in self._eligible(now):
            if len(self._procs) >= self.config.workers:
                return
            attempt = job.attempt + 1
            fields = {"attempt": attempt}
            if job.started_time is None:
                fields["started_time"] = now
            seq = self.store.transition(job.job_id, st.RUNNING, **fields)
            payload = self._payload(job, attempt)
            proc = self._ctx.Process(
                target=child_main,
                args=(job.job_dir, payload),
                name=f"repro-job-{job.job_id}",
                daemon=True,
            )
            # Each job gets its own orchestrator track ("slot N" in the
            # stitched trace) so concurrent run envelopes don't overlap.
            self._tids.setdefault(job.job_id, len(self._tids) + 1)
            t0 = time.perf_counter()
            proc.start()
            t1 = time.perf_counter()
            self._trace.emit(
                "span",
                name=f"dispatch attempt {attempt}",
                ts=t0,
                dur=t1 - t0,
                tid=0,
                job_id=job.job_id,
            )
            self._dispatched_pc[job.job_id] = t1
            self._procs[job.job_id] = proc
            self._dispatched[job.job_id] = now
            self._maybe_die(seq)

    def _payload(self, job: JobRecord, attempt: int) -> dict:
        cfg = self.config
        payload = {
            "spec": job.spec,
            "seed": job.seed,
            "overrides": job.overrides,
            "schedule": list(job.schedule),
            "attempt": attempt,
            "heartbeat_every": cfg.heartbeat_every,
            "audit_every": cfg.audit_every,
        }
        faults_path = pathlib.Path(job.job_dir) / "faults.json"
        if faults_path.exists():
            payload["faults"] = json.loads(
                faults_path.read_text(encoding="utf-8")
            )
        return payload

    def _reap(self) -> None:
        for job_id, proc in list(self._procs.items()):
            if proc.is_alive():
                continue
            code = proc.exitcode
            proc.join()
            del self._procs[job_id]
            self._dispatched.pop(job_id, None)
            reason = self._kill_reason.pop(job_id, None)
            cancelling = job_id in self._cancelling
            self._cancelling.discard(job_id)
            t0 = self._dispatched_pc.pop(job_id, None)
            if t0 is not None:
                # The attempt's run envelope: dispatch -> reap, on the
                # job's own orchestrator track.
                attempt = self.store.get(job_id).attempt
                self._trace.emit(
                    "span",
                    name=f"attempt {attempt} (exit {code})",
                    ts=t0,
                    dur=max(0.0, time.perf_counter() - t0),
                    tid=self._tids.get(job_id, 0),
                    job_id=job_id,
                )
            self._finish(job_id, code, reason, cancelling)

    def _finish(
        self, job_id: str, code: Optional[int], reason, cancelling: bool
    ) -> None:
        """Map one worker exit onto a state transition."""
        job = self.store.get(job_id)
        now = time.time()
        result_ok = (
            code == EXIT_DONE
            and (pathlib.Path(job.job_dir) / "result.json").exists()
        )
        if result_ok:
            # Work finished -- even a cancel that lost the race keeps
            # the completed result.
            seq = self.store.transition(
                job_id, st.DONE, finished_time=now, exit_code=code
            )
            self.store.set_cached(job.cache_key, job_id)
            self._m_done.inc()
            self._maybe_die(seq)
            return
        if reason == "deadline":
            self._m_timeouts.inc()
            seq = self.store.transition(
                job_id,
                st.TIMED_OUT,
                finished_time=now,
                exit_code=code,
                error="wall-clock deadline exceeded",
            )
            self._maybe_die(seq)
            return
        if cancelling:
            seq = self.store.transition(
                job_id, st.CANCELLED, finished_time=now, exit_code=code
            )
            self._maybe_die(seq)
            return
        if code == EXIT_DRAINED:
            # Drained outside shutdown/cancel (external SIGTERM):
            # requeue without burning a retry.
            seq = self.store.transition(
                job_id, st.QUEUED, requeued=True, exit_code=code
            )
            self._maybe_die(seq)
            return
        error = self._read_error(job) or (
            "stalled heartbeat" if reason == "stall" else f"exit code {code}"
        )
        if job.attempt > job.max_retries:
            self._m_failed.inc()
            seq = self.store.transition(
                job_id,
                st.FAILED,
                finished_time=now,
                exit_code=code,
                error=error,
            )
            self._maybe_die(seq)
            return
        self._m_retries.inc()
        seq = self.store.transition(
            job_id, st.RETRYING, exit_code=code, error=error
        )
        self._maybe_die(seq)
        backoff = backoff_seconds(self.config.backoff_base, job.attempt)
        seq = self.store.transition(
            job_id, st.QUEUED, not_before=now + backoff
        )
        self._maybe_die(seq)

    def _read_error(self, job: JobRecord) -> Optional[str]:
        path = pathlib.Path(job.job_dir) / "error.json"
        if not path.exists():
            return None
        try:
            blob = json.loads(path.read_text(encoding="utf-8"))
            return f"{blob.get('error')}: {blob.get('detail')}"
        except (OSError, json.JSONDecodeError):
            return None

    def _watchdog(self) -> None:
        """Kill workers past their deadline or gone silent."""
        now = time.time()
        for job_id, proc in list(self._procs.items()):
            if not proc.is_alive() or job_id in self._kill_reason:
                continue
            job = self.store.get(job_id)
            if (
                job.deadline is not None
                and job.started_time is not None
                and now - job.started_time > job.deadline
            ):
                self._kill_reason[job_id] = "deadline"
                self._mark_kill(job_id, "deadline")
                proc.kill()
                continue
            # Silence is measured from this attempt's dispatch or the
            # newest heartbeat stamp, whichever is later -- a previous
            # attempt's stale stamp must not condemn a fresh worker
            # that hasn't had time to write its first one.
            hb = pathlib.Path(job.job_dir) / "worker.jsonl"
            last = self._dispatched.get(job_id, now)
            if hb.exists():
                last = max(last, hb.stat().st_mtime)
            # The stall-precursor gauge: a rising age is visible on
            # /metrics well before it crosses heartbeat_timeout and
            # the watchdog fires.
            self.registry.gauge(
                "repro_job_heartbeat_age_seconds",
                labels={"job_id": job_id, "scenario": job.scenario},
                help="seconds since a running job's last heartbeat",
            ).set(max(0.0, now - last))
            if now - last > self.config.heartbeat_timeout:
                self._kill_reason[job_id] = "stall"
                self._mark_kill(job_id, "stall")
                proc.kill()

    def _mark_kill(self, job_id: str, reason: str) -> None:
        """Zero-duration marker span at a watchdog kill."""
        self._trace.emit(
            "span",
            name=f"watchdog_kill {reason}",
            ts=time.perf_counter(),
            dur=0.0,
            tid=self._tids.get(job_id, 0),
            job_id=job_id,
        )

    # -- metrics ---------------------------------------------------------

    def _update_gauges(self) -> None:
        counts = self.store.by_state()
        for state, n in counts.items():
            self.registry.gauge(
                "repro_service_jobs",
                labels={"state": state},
                help="jobs per state",
            ).set(n)
        self._m_queue_depth.set(counts.get(st.QUEUED, 0))
        self.registry.gauge(
            "repro_service_workers_busy",
            help="worker processes currently running jobs",
        ).set(len(self._procs))

    def _scrape_fleet(self, force: bool = False) -> None:
        """Update the per-job rows and labeled gauges from artifacts.

        Tails every non-terminal job's ``worker.jsonl`` +
        ``events.jsonl`` (heartbeats carry step / population /
        us-per-particle; telemetry ``metrics`` records carry load
        imbalance) and mirrors the latest values into labeled gauge
        series.  Jobs that go terminal keep their last row in the
        ``/fleet`` summary but have their labeled series dropped so a
        long-lived ``/metrics`` page stays bounded to RUNNING jobs.
        """
        now = time.time()
        if not force and now - self._t_fleet < self.config.fleet_every:
            return
        self._t_fleet = now
        for job in list(self.store.jobs.values()):
            job_id = job.job_id
            if job.terminal:
                tail = self._tails.pop(job_id, None)
                if (
                    tail is None
                    and job_id in self._tids
                    and job_id not in self._fleet
                ):
                    # Dispatched and finished entirely between scrapes:
                    # read its artifacts once so the row isn't empty.
                    tail = JobEventTail(job.job_dir)
                if tail is not None:
                    # Final drain: a short job can finish between two
                    # scrapes; its last heartbeat still belongs in the
                    # fleet row.
                    self._fold_records(
                        self._fleet.setdefault(job_id, {}), tail.poll()
                    )
                    self._prune_job_series(job)
                row = self._fleet.get(job_id)
                if row is not None:
                    row["state"] = job.state
                continue
            tail = self._tails.get(job_id)
            if tail is None:
                tail = self._tails[job_id] = JobEventTail(job.job_dir)
            row = self._fleet.setdefault(job_id, {})
            self._fold_records(row, tail.poll())
            row["state"] = job.state
            row["retries"] = max(0, job.attempt - 1)
            labels = {"job_id": job_id, "scenario": job.scenario}
            for name, key in (
                ("repro_job_step", "step"),
                ("repro_job_total_steps", "total"),
                ("repro_job_particles", "n_flow"),
                ("repro_job_us_per_particle", "us_per_particle"),
                ("repro_job_load_imbalance", "load_imbalance"),
                ("repro_job_retries", "retries"),
            ):
                if row.get(key) is not None:
                    self.registry.gauge(name, labels=labels).set(
                        float(row[key])
                    )

    @staticmethod
    def _fold_records(row: dict, records) -> None:
        """Fold freshly tailed records into one job's fleet row."""
        for rec in records:
            kind = rec.get("kind")
            if kind == "heartbeat":
                for k in ("step", "total", "n_flow", "us_per_particle"):
                    if rec.get(k) is not None:
                        row[k] = rec[k]
            elif kind == "metrics":
                if rec.get("load_imbalance") is not None:
                    row["load_imbalance"] = rec["load_imbalance"]
                if rec.get("n_flow") is not None:
                    row["n_flow"] = rec["n_flow"]

    def _prune_job_series(self, job: JobRecord) -> None:
        labels = {"job_id": job.job_id, "scenario": job.scenario}
        for name in FLEET_GAUGES:
            self.registry.drop(name, labels=labels)

    def fleet(self) -> dict:
        """The live fleet summary (``GET /fleet``): health plus one
        row per job with its freshest scraped numbers."""
        with self._lock:
            if not self._dead:
                self._scrape_fleet(force=True)
            now = time.time()
            jobs = []
            for job in self.store.jobs.values():
                row = dict(self._fleet.get(job.job_id, {}))
                row.update(
                    job_id=job.job_id,
                    scenario=job.scenario,
                    seed=job.seed,
                    state=job.state,
                    attempt=job.attempt,
                    retries=max(0, job.attempt - 1),
                )
                if job.job_id in self._procs:
                    hb = pathlib.Path(job.job_dir) / "worker.jsonl"
                    last = self._dispatched.get(job.job_id, now)
                    if hb.exists():
                        last = max(last, hb.stat().st_mtime)
                    row["heartbeat_age"] = max(0.0, now - last)
                jobs.append(row)
            return {"health": self.health(), "jobs": jobs}

    def _maybe_write_prom(self) -> None:
        now = time.time()
        if now - self._t_prom < self.config.prom_every:
            return
        self._t_prom = now
        write_prometheus_snapshot(
            self.registry, self.data_dir / "metrics.prom"
        )

    # -- lifecycle -------------------------------------------------------

    def _require_alive(self) -> None:
        if self._dead:
            raise ServiceError("orchestrator is dead")

    @contextlib.contextmanager
    def _crash_on_torn_journal(self):
        """A torn journal append is a crash, wherever it happens.

        The tear truncates the file mid-line; appending anything more
        would weld the next record onto the partial one and turn a
        recoverable torn *tail* into unrecoverable mid-file garbage.
        So the writer dies with it (callers see the typed error)."""
        try:
            yield
        except ServiceJournalError:
            if not self._dead:
                self._hard_kill()
            raise

    def _maybe_die(self, seq: int) -> None:
        """The ``orchestrator_kill`` injection point.

        Fires *between* journal records: everything up to record
        ``seq`` is durable, nothing after it happens -- exactly the cut
        a SIGKILL makes.  The orchestrator hard-stops (children
        SIGKILLed, no drain records, no ``service_stop``) and the call
        unwinds with a :class:`ServiceError`.
        """
        if self.fault_plan is None:
            return
        if self.fault_plan.take("orchestrator_kill", seq) is None:
            return
        self._hard_kill()
        raise ServiceError("orchestrator killed (injected)", seq=seq)

    def _hard_kill(self) -> None:
        self._dead = True
        self._accepting = False
        self._stop.set()
        self._poke()
        for proc in self._procs.values():
            if proc.is_alive():
                proc.kill()
        for proc in self._procs.values():
            proc.join(timeout=5.0)
        self._procs.clear()
        self.store.journal.close()
        self._trace.close()

    def kill(self) -> None:
        """Simulate an orchestrator SIGKILL (tests): children die,
        nothing is journaled, the store is left exactly as the last
        appended record left it."""
        with self._lock:
            self._hard_kill()
        if self._thread.is_alive():
            self._thread.join(timeout=5.0)
        self._close_pipe()

    def shutdown(self, drain: bool = True) -> dict:
        """Stop the service; with ``drain`` (default) running workers
        finish their current chunk, checkpoint, and are requeued in
        the journal so a restart resumes them.

        Returns a summary dict (``drained``, ``completed``, ...).
        """
        with self._lock:
            if self._dead:
                if not self._thread.is_alive():
                    self._close_pipe()
                return {"drained": 0, "completed": 0, "dead": True}
            self._accepting = False
        self._stop.set()
        self._poke()
        if self._thread.is_alive():
            self._thread.join(timeout=10.0)
        summary = {"drained": 0, "completed": 0, "killed": 0}
        with self._lock:
            for proc in self._procs.values():
                if proc.is_alive():
                    if drain:
                        proc.terminate()
                    else:
                        proc.kill()
            deadline = time.time() + DRAIN_TIMEOUT_S
            for job_id, proc in list(self._procs.items()):
                proc.join(timeout=max(0.0, deadline - time.time()))
                if proc.is_alive():
                    proc.kill()
                    proc.join(timeout=5.0)
                    summary["killed"] += 1
            for job_id, proc in list(self._procs.items()):
                code = proc.exitcode
                cancelling = job_id in self._cancelling
                self._cancelling.discard(job_id)
                job = self.store.get(job_id)
                if (
                    code == EXIT_DONE
                    and (pathlib.Path(job.job_dir) / "result.json").exists()
                ):
                    self.store.transition(
                        job_id,
                        st.DONE,
                        finished_time=time.time(),
                        exit_code=code,
                    )
                    self.store.set_cached(job.cache_key, job_id)
                    self._m_done.inc()
                    summary["completed"] += 1
                elif cancelling:
                    self.store.transition(
                        job_id,
                        st.CANCELLED,
                        finished_time=time.time(),
                        exit_code=code,
                    )
                else:
                    self.store.record(
                        "drained", job_id=job_id, exit_code=code
                    )
                    self.store.transition(
                        job_id, st.QUEUED, requeued=True, exit_code=code
                    )
                    summary["drained"] += 1
            self._procs.clear()
            self._dispatched.clear()
            self.store.record("service_stop", **summary)
            self._trace.emit(
                "span",
                name="service_stop",
                ts=time.perf_counter(),
                dur=0.0,
                tid=0,
            )
            self._trace.close()
            self._update_gauges()
            write_prometheus_snapshot(
                self.registry, self.data_dir / "metrics.prom"
            )
            self.store.close()
            self._dead = True
        self._close_pipe()
        return summary
