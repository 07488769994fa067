"""Crash-safe persistence of the job orchestrator (`service.jsonl`).

The store is an event-sourced job table: every mutation -- submission,
state transition, cache registration -- is one appended record in the
service journal (a :class:`~repro.telemetry.events.EventStream`
subclass, like the resilience ``RunJournal``), and the in-memory table
is always exactly the replay of the journal.  An orchestrator killed
between any two records restarts by replaying what survived:

* a **torn final line** (the crash hit mid-``write``) is dropped and
  flagged -- the journal loses at most the one record that was being
  written, never earlier history;
* garbage anywhere *before* the tail is real corruption and raises
  :class:`~repro.errors.ServiceJournalError` instead of silently
  skipping records;
* records stamped by a **newer schema version** raise
  :class:`~repro.errors.JournalVersionError` -- guessing at unknown
  record shapes could mis-reconstruct the table;
* replay is **idempotent and pure**: replaying the same records twice
  yields equal job tables (tested).

The job **state machine** is enforced here, not in the orchestrator:
``QUEUED -> RUNNING -> [RETRYING ->] DONE | FAILED | TIMED_OUT |
CANCELLED``, with every transition out of a terminal state raising
:class:`~repro.errors.JobStateError`.  That is what turns "every job
reaches exactly one terminal state" from a hope into an invariant.
"""

from __future__ import annotations

import dataclasses
import pathlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import (
    JobNotFoundError,
    JobStateError,
    JournalVersionError,
    ServiceJournalError,
)
from repro.telemetry.events import EventStream
from repro.telemetry.stream import read_jsonl

PathLike = Union[str, pathlib.Path]

#: Journal schema version stamped on every record (``"v"``).
JOURNAL_VERSION = 1

# -- the state machine ----------------------------------------------------

QUEUED = "QUEUED"
RUNNING = "RUNNING"
RETRYING = "RETRYING"
DONE = "DONE"
FAILED = "FAILED"
TIMED_OUT = "TIMED_OUT"
CANCELLED = "CANCELLED"

#: States a job can never leave.
TERMINAL_STATES = frozenset({DONE, FAILED, TIMED_OUT, CANCELLED})

#: Allowed transitions.  ``RUNNING -> QUEUED`` is the drain/crash
#: requeue (the job goes back to the queue and resumes from its newest
#: checkpoint); ``RETRYING`` is the announced intermediate of a
#: job-level retry.  Terminal states map to the empty set.
VALID_TRANSITIONS = {
    QUEUED: frozenset({RUNNING, CANCELLED}),
    RUNNING: frozenset(
        {DONE, FAILED, TIMED_OUT, CANCELLED, RETRYING, QUEUED}
    ),
    RETRYING: frozenset({QUEUED, CANCELLED, FAILED}),
    DONE: frozenset(),
    FAILED: frozenset(),
    TIMED_OUT: frozenset(),
    CANCELLED: frozenset(),
}


class ServiceJournal(EventStream):
    """The orchestrator's append-only journal (``service.jsonl``)."""

    filename = "service.jsonl"


@dataclass
class JobRecord:
    """One submitted job, as reconstructed from the journal."""

    job_id: str
    scenario: str
    #: The full spec dict shipped to the worker (registry-independent).
    spec: dict
    seed: int
    overrides: dict
    #: Resolved ``(transient, average)`` step counts.
    schedule: Tuple[int, int]
    cache_key: str
    job_dir: str
    state: str = QUEUED
    #: Times this job has been started (dispatch increments it).
    attempt: int = 0
    max_retries: int = 2
    #: Per-job wall-clock deadline in seconds (None = none).
    deadline: Optional[float] = None
    submitted_time: float = 0.0
    started_time: Optional[float] = None
    finished_time: Optional[float] = None
    #: Backoff gate: not dispatched before this wall-clock time.
    not_before: float = 0.0
    error: Optional[str] = None
    exit_code: Optional[int] = None
    #: Job id whose cached result this submission reused (if any).
    cached_from: Optional[str] = None

    def to_dict(self) -> dict:
        """JSON-ready dict (the journal's ``job`` payload)."""
        d = dataclasses.asdict(self)
        d["schedule"] = list(self.schedule)
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "JobRecord":
        d = dict(data)
        d["schedule"] = tuple(int(v) for v in d["schedule"])
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in d.items() if k in known})

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES


def replay(records: List[dict]) -> Tuple[Dict[str, JobRecord], Dict[str, str]]:
    """Rebuild ``(jobs, cache)`` tables from journal records.

    Pure function of its input -- replaying the same records twice
    yields equal tables -- and strict about versions: any record
    stamped with a ``v`` newer than :data:`JOURNAL_VERSION` raises
    :class:`JournalVersionError`.
    """
    jobs: Dict[str, JobRecord] = {}
    cache: Dict[str, str] = {}
    for rec in records:
        version = int(rec.get("v", 1))
        if version > JOURNAL_VERSION:
            raise JournalVersionError(
                "service journal was written by a newer schema",
                found=version,
                supported=JOURNAL_VERSION,
            )
        kind = rec.get("kind")
        if kind == "submitted":
            job = JobRecord.from_dict(rec["job"])
            jobs[job.job_id] = job
        elif kind == "state":
            job = jobs.get(rec.get("job_id"))
            if job is None:
                # Only reachable if the submission record was lost to
                # a torn tail that also lost this record's predecessor
                # -- impossible for an append-only file, but replay
                # must never crash the restart path.
                continue
            job.state = rec["state"]
            for key in (
                "attempt",
                "started_time",
                "finished_time",
                "not_before",
                "error",
                "exit_code",
            ):
                if key in rec:
                    setattr(job, key, rec[key])
        elif kind == "cached":
            cache[rec["key"]] = rec["job_id"]
        # service_start/service_stop/drained and future informational
        # kinds replay as no-ops.
    return jobs, cache


class JobStore:
    """The journal-backed job table.

    Parameters
    ----------
    data_dir:
        Service data directory; holds ``service.jsonl`` and one
        subdirectory per job.
    fault_plan:
        Optional :class:`repro.resilience.faults.FaultPlan`; the
        ``journal_tear`` injection point lives here (the Nth appended
        record is torn mid-write, exactly what a crash does).
    """

    def __init__(self, data_dir: PathLike, fault_plan=None) -> None:
        self.data_dir = pathlib.Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.fault_plan = fault_plan
        path = self.data_dir / ServiceJournal.filename
        # A torn tail is dropped here; the journal cuts it from the file
        # before its first append (EventStream).
        records, self.torn_tail = read_jsonl(path)
        self.jobs, self.cache = replay(records)
        #: Records appended so far (the journal faults' clock).
        self.seq = len(records)
        self.journal = ServiceJournal(self.data_dir)

    # -- appending ------------------------------------------------------

    def record(self, kind: str, **fields) -> int:
        """Append one versioned record; returns its sequence number.

        The ``journal_tear`` injection point lives here: the Nth
        appended record is cut mid-write and the writer dies (raises),
        exactly what a crash during ``write`` leaves behind.
        """
        self.seq += 1
        self.journal.append({"kind": kind, "v": JOURNAL_VERSION, **fields})
        if self.fault_plan is not None:
            fault = self.fault_plan.take("journal_tear", self.seq)
            if fault is not None:
                self.tear_tail()
                raise ServiceJournalError(
                    "journal tail torn (injected crash)", seq=self.seq
                )
        return self.seq

    def tear_tail(self) -> None:
        """Cut the journal's final line in half (a torn write).

        The fault-injection twin of what a crash mid-``write`` leaves
        behind; :func:`~repro.telemetry.stream.read_jsonl` must absorb it.
        """
        self.journal.close()
        path = self.journal.path
        blob = path.read_bytes()
        if not blob:
            return
        last_start = blob.rstrip(b"\n").rfind(b"\n") + 1
        keep = last_start + max(1, (len(blob) - last_start) // 2)
        path.write_bytes(blob[:keep])

    # -- the job table --------------------------------------------------

    def get(self, job_id: str) -> JobRecord:
        """The job's record, or :class:`JobNotFoundError`."""
        try:
            return self.jobs[job_id]
        except KeyError:
            raise JobNotFoundError(
                "unknown job", job_id=job_id
            ) from None

    def add_job(self, job: JobRecord) -> int:
        """Register a new submission (journals the full job payload)."""
        if job.job_id in self.jobs:
            raise JobStateError(
                "duplicate job id", job_id=job.job_id
            )
        self.jobs[job.job_id] = job
        return self.record("submitted", job=job.to_dict())

    def transition(self, job_id: str, new_state: str, **fields) -> int:
        """Apply (and journal) one state-machine transition.

        ``fields`` are job attributes updated atomically with the
        state (``attempt``, ``error``, ``started_time``, ...); they
        ride in the same journal record so replay reproduces them.
        """
        job = self.get(job_id)
        if new_state not in VALID_TRANSITIONS:
            raise JobStateError(
                "unknown job state", job_id=job_id, state=new_state
            )
        if new_state not in VALID_TRANSITIONS[job.state]:
            raise JobStateError(
                "invalid job state transition",
                job_id=job_id,
                state=job.state,
                requested=new_state,
                terminal=job.terminal,
            )
        job.state = new_state
        known = {f.name for f in dataclasses.fields(JobRecord)}
        for key, value in fields.items():
            if key in known:
                setattr(job, key, value)
        return self.record("state", job_id=job_id, state=new_state, **fields)

    def set_cached(self, key: str, job_id: str) -> int:
        """Register a completed job's result under its cache key."""
        self.cache[key] = job_id
        return self.record("cached", key=key, job_id=job_id)

    def cache_lookup(self, key: str) -> Optional[JobRecord]:
        """The DONE job holding this key's result, if its artifact
        still exists on disk (a pruned job directory is a cache miss,
        not an error)."""
        job_id = self.cache.get(key)
        if job_id is None:
            return None
        job = self.jobs.get(job_id)
        if job is None or job.state != DONE:
            return None
        if not (pathlib.Path(job.job_dir) / "result.json").exists():
            return None
        return job

    # -- summaries ------------------------------------------------------

    def by_state(self) -> Dict[str, int]:
        """Job counts per state (every state present, zeros kept)."""
        counts: Dict[str, int] = {
            s: 0 for s in VALID_TRANSITIONS
        }
        for job in self.jobs.values():
            counts[job.state] = counts.get(job.state, 0) + 1
        return counts

    def close(self) -> None:
        """Close the journal handle (appends reopen it if needed)."""
        self.journal.close()


def summarize_journal(data_dir: PathLike) -> Optional[dict]:
    """One-pass summary of a service journal (the report CLI's view).

    Returns ``None`` when the directory has no ``service.jsonl``.
    """
    path = pathlib.Path(data_dir) / ServiceJournal.filename
    if not path.exists():
        return None
    records, torn = read_jsonl(path)
    jobs, cache = replay(records)
    summary = {
        "jobs": len(jobs),
        "by_state": {},
        "submissions": 0,
        "retries": 0,
        "cache_hits": 0,
        "backpressure": 0,
        "drains": 0,
        "requeues": 0,
        "torn_tail": torn,
    }
    for rec in records:
        kind = rec.get("kind")
        if kind == "submitted":
            summary["submissions"] += 1
        elif kind == "state":
            if rec.get("state") == RETRYING:
                summary["retries"] += 1
            elif rec.get("state") == QUEUED and rec.get("requeued"):
                summary["requeues"] += 1
        elif kind == "cache_hit":
            summary["cache_hits"] += 1
        elif kind == "backpressure":
            summary["backpressure"] += 1
        elif kind == "drained":
            summary["drains"] += 1
    counts = {s: 0 for s in VALID_TRANSITIONS}
    for job in jobs.values():
        counts[job.state] += 1
    summary["by_state"] = {s: n for s, n in counts.items() if n}
    return summary
