"""The job worker: one process, one :class:`SupervisedRun`.

The orchestrator forks one worker process per running job.  The worker
owns the job directory (``<data_dir>/<job_id>/``):

* ``run/`` -- the supervised run directory (checkpoints, ``run.json``,
  the resilience ``journal.jsonl``), which is what makes every layer of
  recovery possible: step-level faults are absorbed by
  :class:`~repro.resilience.supervisor.SupervisedRun` itself, and a
  *worker* death leaves checkpoints behind for the next attempt to
  resume from;
* ``worker.jsonl`` -- the heartbeat journal.  The worker stamps
  progress after every chunk of steps; the orchestrator's watchdog
  reads the file's mtime, so a worker that stops stamping (wedged,
  stalled, or fault-injected) is detected and killed without any
  cooperation from the worker.  Each heartbeat also carries the live
  numbers (``step``, ``n_flow``, ``us_per_particle``) that the fleet
  scraper and the ``/jobs/<id>/stream`` routes serve to watchers;
* ``events.jsonl`` / ``metrics.prom`` / ``trace.json`` -- the job's
  telemetry artifacts: every job runs with a
  :class:`~repro.telemetry.hub.Telemetry` hub attached (unless the
  payload disables it), so per-job metric series, physics observables
  and Perfetto span traces exist for live streaming and for
  :mod:`repro.telemetry.stitch` to merge into the fleet timeline;
* ``result.json`` -- the terminal artifact, written atomically
  (tmp + rename) so a crash can never leave a half-result that parses.

Exit codes are the worker's half of the orchestration protocol:
``0`` done (``result.json`` exists), ``3`` drained to a checkpoint
after SIGTERM (graceful shutdown or cancel), anything else a failure
the orchestrator retries or fails the job on.  The worker never
decides job state -- it reports, the orchestrator transitions.
"""

from __future__ import annotations

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
from repro.resilience.supervisor import SupervisedRun
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


def result_summary(run: SupervisedRun, attempt: int) -> dict:
    """The job's terminal artifact: headline numbers + a state digest.

    ``density_sha256`` hashes the raw bytes of the time-averaged
    density field, so "a resumed job is bitwise identical to an
    unfailed run" is checkable by comparing two result files.
    """
    sim = run.sim
    sim.gather()
    rho = np.ascontiguousarray(sim.density_ratio_field())
    recoveries = sum(
        1 for e in run.journal.events if e.get("kind") == "recovery"
    )
    return {
        "steps": int(sim.step_count),
        "n_flow": int(sim.particles.n),
        "seed": sim.config.seed if isinstance(sim.config.seed, int) else None,
        "scenario": sim.config.scenario,
        "density_mean": float(rho.mean()),
        "density_max": float(rho.max()),
        "density_sha256": hashlib.sha256(rho.tobytes()).hexdigest(),
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

    def __init__(self, run: SupervisedRun) -> None:
        self._run = run
        self._sum = 0.0
        self._count = 0

    def sample(self) -> dict:
        run = self._run
        out = {"n_flow": int(run.sim.particles.n)}
        tel = getattr(run, "telemetry", None)
        if tel is not None:
            hist = tel.registry.histogram("repro_step_us_per_particle")
            d_sum = hist.sum - self._sum
            d_count = hist.count - self._count
            self._sum, self._count = hist.sum, hist.count
            if d_count > 0:
                out["us_per_particle"] = d_sum / d_count
        return out


def _close_telemetry(run: SupervisedRun) -> None:
    """Flush the job's telemetry artifacts (trace.json, final .prom)."""
    tel = getattr(run, "telemetry", None)
    if tel is not None:
        try:
            tel.close()
        except Exception:  # pragma: no cover - teardown best-effort
            pass


def _phases(schedule) -> list:
    transient, average = int(schedule[0]), int(schedule[1])
    return [
        {"steps": n, "sample": s}
        for n, s in ((transient, False), (average, True))
        if n
    ]


def execute_job(job_dir, payload: dict) -> int:
    """Run one job to a checkpointed stop; returns the exit code.

    ``payload`` carries the full spec dict, the effective seed and
    overrides, the resolved ``(transient, average)`` schedule, the
    supervision knobs and an optional fault list.  A job directory
    with an existing supervised run is *resumed* from its newest
    checkpoint -- retry attempts and orchestrator restarts both land
    here, and the serial engine's deterministic streams make the
    continuation bitwise identical to an unfailed run.
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
    try:
        run, first_phases, total_end = _build_run(job_dir, payload, chunk)
    except Exception as exc:  # noqa: BLE001 - reported, not swallowed
        _fail(job_dir, log, attempt, exc)
        return EXIT_FAILED

    log.emit(
        "started",
        attempt=attempt,
        pid=os.getpid(),
        step=run.sim.step_count,
        total=total_end,
    )
    beat = _HeartbeatStats(run)
    try:
        first = first_phases is not None
        while True:
            step = run.sim.step_count
            log.emit(
                "heartbeat",
                step=step,
                attempt=attempt,
                total=total_end,
                **beat.sample(),
            )
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
                log.emit("drained", step=step, attempt=attempt)
                _close_telemetry(run)
                run.close()
                return EXIT_DRAINED
            if step >= total_end:
                break
            run.run_schedule(
                first_phases if first else None, max_steps=chunk
            )
            first = False
        result = result_summary(run, attempt)
        _atomic_write_json(job_dir / "result.json", result)
        log.emit("done", step=run.sim.step_count, attempt=attempt)
        _close_telemetry(run)
        run.close()
        return EXIT_DONE
    except Exception as exc:  # noqa: BLE001 - reported, not swallowed
        _fail(job_dir, log, attempt, exc)
        _close_telemetry(run)
        try:
            run.close()
        except Exception:  # pragma: no cover - teardown best-effort
            pass
        return EXIT_FAILED


def _build_run(job_dir: pathlib.Path, payload: dict, chunk: int):
    """(Re)build the supervised run; returns (run, first_phases, end).

    ``first_phases`` is None when the run directory already stores its
    schedule (pure resume); otherwise the phases to record on the
    first ``run_schedule`` call.
    """
    run_dir = job_dir / "run"
    schedule = payload["schedule"]

    def _telemetry() -> Telemetry:
        # Every job gets its own telemetry hub writing into the job
        # dir: events.jsonl / metrics.prom / trace.json are what the
        # streaming routes, the fleet scraper and the trace stitcher
        # read.
        return Telemetry(run_dir=job_dir, sample_every=chunk)

    if (run_dir / "run.json").exists():
        run = SupervisedRun.resume(run_dir)
        run.attach_telemetry(_telemetry())
        stored = run._meta.get("phases")
        if stored:
            start = int(run._meta["schedule_start"])
            total = start + sum(int(p["steps"]) for p in stored)
            return run, None, total
        # Died between the baseline checkpoint and the first scheduled
        # step: the schedule never reached run.json, so record it now.
        phases = _phases(schedule)
        total = run.sim.step_count + sum(p["steps"] for p in phases)
        return run, phases, total

    spec = ScenarioSpec.from_dict(payload["spec"])
    overrides = {
        k: v
        for k, v in dict(payload.get("overrides", {})).items()
        if k not in ("transient", "average")
    }
    overrides["seed"] = int(payload["seed"])
    sim = spec.build_simulation(overrides, telemetry=_telemetry())
    run = SupervisedRun(
        sim,
        run_dir,
        checkpoint_every=int(payload.get("checkpoint_every", chunk)),
        audit_every=int(payload.get("audit_every", 0)),
        max_retries=int(payload.get("step_max_retries", 3)),
        backoff_base=float(payload.get("step_backoff_base", 0.0)),
    )
    phases = _phases(schedule)
    total = sim.step_count + sum(p["steps"] for p in phases)
    return run, phases, total


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
