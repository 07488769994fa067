"""The job worker: one process, one :func:`~repro.scenarios.golden.execute`.

The orchestrator forks one worker process per running job.  The worker
owns the job directory (``<data_dir>/<job_id>/``):

* ``run/`` -- the supervised run directory (checkpoints, ``run.json``,
  the resilience ``journal.jsonl``), which is what makes every layer of
  recovery possible: step-level faults are absorbed by
  :class:`~repro.resilience.supervisor.SupervisedRun` itself, and a
  *worker* death leaves checkpoints behind for the next attempt, which
  finds the run's ``run.json`` and resumes it;
* ``worker.jsonl`` -- the heartbeat journal.  The worker stamps
  progress between chunks of steps; the orchestrator's watchdog
  reads the file's mtime, so a worker that stops stamping (wedged,
  stalled, or fault-injected) is detected and killed without any
  cooperation from the worker.  Each heartbeat also carries the live
  numbers (``step``, ``n_flow``, ``us_per_particle``) that the fleet
  scraper and the ``/jobs/<id>/stream`` routes serve to watchers;
* ``events.jsonl`` / ``metrics.prom`` / ``trace.json`` -- the job's
  telemetry artifacts: every job runs with a
  :class:`~repro.telemetry.hub.Telemetry` hub attached, so per-job
  metric series, physics observables and Perfetto span traces exist
  for live streaming and for :mod:`repro.telemetry.stitch` to merge
  into the fleet timeline;
* ``result.json`` -- the terminal artifact, written atomically
  (tmp + rename) so a crash can never leave a half-result that parses.

Exit codes are the worker's half of the orchestration protocol:
``0`` done (``result.json`` exists), ``3`` drained to a checkpoint
after SIGTERM (graceful shutdown or cancel), anything else a failure
the orchestrator retries or fails the job on.  The worker never
decides job state -- it reports, the orchestrator transitions.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pathlib
import signal
import sys
import time
import traceback
from collections import Counter
from typing import Optional

import numpy as np

from repro.resilience.faults import FaultPlan, FaultSpec
from repro.resilience.supervisor import RunJournal
from repro.scenarios.golden import execute
from repro.scenarios.spec import ScenarioSpec
from repro.telemetry.events import EventStream
from repro.telemetry.hub import Telemetry

#: Worker exit codes (the orchestrator's dispatch protocol).
EXIT_DONE = 0
EXIT_FAILED = 1
EXIT_DRAINED = 3
#: Injected ``worker_kill`` deaths use a recognizable code in tests.
EXIT_KILLED = 86


class WorkerLog(EventStream):
    """Per-job heartbeat/progress journal (``worker.jsonl``)."""

    filename = "worker.jsonl"


def _atomic_write_json(path: pathlib.Path, payload: dict) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    tmp.replace(path)


def result_summary(runs, last: dict, run_dir, attempt: int) -> dict:
    """The job's terminal artifact: headline numbers + the state digest.

    ``runs`` is :func:`~repro.scenarios.golden.execute`'s harvest and
    ``last`` the final heartbeat (``step``, ``n_flow``).
    ``state_digest`` is :func:`repro.verify.state_digest` of the
    finished run, the digest every execution mode is held to;
    ``density_sha256`` hashes the raw bytes of the time-averaged
    density field.
    """
    rho = np.ascontiguousarray(runs[0].fields[-1])
    config = runs[0].config
    recoveries = sum(
        1 for e in RunJournal.load(run_dir) if e.get("kind") == "recovery"
    )
    return {
        "steps": int(last["step"]),
        "n_flow": int(last["n_flow"]),
        "seed": config.seed if isinstance(config.seed, int) else None,
        "scenario": config.scenario,
        "density_mean": float(rho.mean()),
        "density_max": float(rho.max()),
        "density_sha256": hashlib.sha256(rho.tobytes()).hexdigest(),
        "state_digest": runs[0].state_digest,
        "recoveries": recoveries,
        "attempt": int(attempt),
    }


def _load_fired(job_dir: pathlib.Path) -> Counter:
    """Service faults already fired in earlier attempts of this job.

    An injected fault models *one* event (one crash, one stall); the
    retry that resumes the job must not relive it, so the worker
    records each firing before acting on it and filters that many
    fired specs out of the rebuilt plan.  A multiset, not a set: three
    identical kill specs model three separate deaths.
    """
    path = job_dir / "faults_fired.jsonl"
    fired: Counter = Counter()
    if path.exists():
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.strip():
                rec = json.loads(line)
                fired[(rec["kind"], rec["step"])] += 1
    return fired


def _mark_fired(job_dir: pathlib.Path, spec: FaultSpec) -> None:
    with open(
        job_dir / "faults_fired.jsonl", "a", encoding="utf-8"
    ) as fh:
        fh.write(json.dumps({"kind": spec.kind, "step": spec.step}) + "\n")
        fh.flush()
        os.fsync(fh.fileno())


class _HeartbeatStats:
    """Live numbers riding on each heartbeat record.

    ``us_per_particle`` is the mean over the steps since the previous
    heartbeat, taken as deltas of the telemetry histogram's running
    sum/count -- the per-chunk series ``repro watch`` sparklines.
    """

    def __init__(self, telemetry: Telemetry) -> None:
        self._hist = telemetry.registry.histogram(
            "repro_step_us_per_particle"
        )
        self._sum = 0.0
        self._count = 0

    def sample(self, run) -> dict:
        out = {"step": run.sim.step_count, "n_flow": int(run.sim.particles.n)}
        d_sum = self._hist.sum - self._sum
        d_count = self._hist.count - self._count
        self._sum, self._count = self._hist.sum, self._hist.count
        if d_count > 0:
            out["us_per_particle"] = d_sum / d_count
        return out


class _Drained(Exception):
    """SIGTERM asked the worker to stop at its chunk's checkpoint."""


def execute_job(job_dir, payload: dict) -> int:
    """Run one job to a checkpointed stop; returns the exit code.

    ``payload`` carries the full spec dict, the effective seed and
    overrides, the resolved ``(transient, average)`` schedule, the
    supervision knobs and an optional fault list.  The job is one
    supervised :func:`~repro.scenarios.golden.execute`, stepped in
    chunks of ``heartbeat_every`` (the checkpoint cadence too).  A job
    directory whose run already has a ``run.json`` is *resumed* from
    its newest checkpoint -- retry attempts and orchestrator restarts
    both land here, and the serial engine's deterministic streams make
    the continuation bitwise identical to an unfailed run.
    """
    job_dir = pathlib.Path(job_dir)
    job_dir.mkdir(parents=True, exist_ok=True)
    log = WorkerLog(job_dir)
    attempt = int(payload.get("attempt", 1))
    drain = {"requested": False}

    def _on_sigterm(signum, frame):  # noqa: ARG001 (stdlib signature)
        drain["requested"] = True

    signal.signal(signal.SIGTERM, _on_sigterm)

    plan: Optional[FaultPlan] = None
    faults = payload.get("faults") or ()
    if faults:
        remaining = _load_fired(job_dir)
        specs = []
        for s in (FaultSpec.from_dict(f) for f in faults):
            key = (s.kind, s.step)
            if remaining.get(key, 0) > 0:
                remaining[key] -= 1
                continue
            specs.append(s)
        if specs:
            plan = FaultPlan(specs)

    chunk = max(1, int(payload.get("heartbeat_every", 10)))
    run_dir = job_dir / "run"
    last: dict = {}
    tel = None

    def between_chunks(run) -> None:
        if not last:
            log.emit(
                "started",
                attempt=attempt,
                pid=os.getpid(),
                step=run.sim.step_count,
                total=run.schedule_end,
            )
        last.clear()
        last.update(beat.sample(run))
        log.emit("heartbeat", attempt=attempt, total=run.schedule_end, **last)
        step = last["step"]
        if plan is not None:
            kill = plan.take("worker_kill", step)
            if kill is not None:
                # A hard death: no cleanup, no checkpoint beyond
                # what the cadence already wrote.
                _mark_fired(job_dir, kill)
                os._exit(EXIT_KILLED)
            stall = plan.take("worker_stall", step)
            if stall is not None:
                # Stop heartbeating long enough for the watchdog;
                # the parent SIGKILLs us mid-sleep.
                _mark_fired(job_dir, stall)
                time.sleep(stall.seconds)
        if drain["requested"]:
            raise _Drained

    try:
        # Every job gets its own telemetry hub writing into the job
        # dir: events.jsonl / metrics.prom / trace.json are what the
        # streaming routes, the fleet scraper and the trace stitcher
        # read.
        tel = Telemetry(run_dir=job_dir, sample_every=chunk)
        beat = _HeartbeatStats(tel)
        transient, average = payload["schedule"]
        overrides = dict(
            payload.get("overrides", {}),
            seed=int(payload["seed"]),
            transient=int(transient),
            average=int(average),
        )
        resume = (run_dir / "run.json").exists()
        runs = execute(
            None if resume else ScenarioSpec.from_dict(payload["spec"]),
            overrides,
            telemetry=tel,
            supervise={
                "run_dir": run_dir,
                "checkpoint_every": chunk,
                "audit_every": int(payload.get("audit_every", 0)),
                "backoff_base": 0.0,
            },
            on_chunk=between_chunks,
        )
        result = result_summary(runs, last, run_dir, attempt)
        _atomic_write_json(job_dir / "result.json", result)
        log.emit("done", step=last["step"], attempt=attempt)
        return EXIT_DONE
    except _Drained:
        log.emit("drained", step=last["step"], attempt=attempt)
        return EXIT_DRAINED
    except Exception as exc:  # noqa: BLE001 - reported, not swallowed
        _fail(job_dir, log, attempt, exc)
        return EXIT_FAILED
    finally:
        if tel is not None:
            with contextlib.suppress(Exception):  # teardown best-effort
                tel.close()


def _fail(job_dir: pathlib.Path, log: WorkerLog, attempt: int, exc) -> None:
    _atomic_write_json(
        job_dir / "error.json",
        {
            "error": type(exc).__name__,
            "detail": str(exc),
            "traceback": traceback.format_exc(),
            "attempt": attempt,
        },
    )
    log.emit("failed", attempt=attempt, error=type(exc).__name__)


def child_main(job_dir, payload: dict) -> None:
    """``multiprocessing.Process`` target: run the job, exit with its
    protocol code."""
    sys.exit(execute_job(job_dir, payload))
