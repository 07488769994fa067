"""Simulation-as-a-service: crash-safe job orchestration.

The service layer turns the one-shot CLI into a supervised fleet:
jobs are submitted as scenario specs, executed by worker processes
running :class:`~repro.resilience.supervisor.SupervisedRun`, and
tracked through a strict state machine persisted in an append-only
journal.  See ``docs/service.md`` for the API reference, the state
machine, and the failure-mode table.
"""

from repro.service.api import ServiceAPI
from repro.service.client import ServiceClient
from repro.service.orchestrator import (
    FLEET_GAUGES,
    Orchestrator,
    OrchestratorConfig,
    cache_key,
)
from repro.service.watch import watch_fleet, watch_job
from repro.service.store import (
    CANCELLED,
    DONE,
    FAILED,
    JOURNAL_VERSION,
    QUEUED,
    RETRYING,
    RUNNING,
    TERMINAL_STATES,
    TIMED_OUT,
    VALID_TRANSITIONS,
    JobRecord,
    JobStore,
    ServiceJournal,
    replay,
    summarize_journal,
)
from repro.service.worker import (
    EXIT_DONE,
    EXIT_DRAINED,
    EXIT_FAILED,
    EXIT_KILLED,
)

__all__ = [
    "Orchestrator",
    "OrchestratorConfig",
    "ServiceAPI",
    "ServiceClient",
    "cache_key",
    "FLEET_GAUGES",
    "watch_job",
    "watch_fleet",
    "JobRecord",
    "JobStore",
    "ServiceJournal",
    "replay",
    "summarize_journal",
    "JOURNAL_VERSION",
    "QUEUED",
    "RUNNING",
    "RETRYING",
    "DONE",
    "FAILED",
    "TIMED_OUT",
    "CANCELLED",
    "TERMINAL_STATES",
    "VALID_TRANSITIONS",
    "EXIT_DONE",
    "EXIT_DRAINED",
    "EXIT_FAILED",
    "EXIT_KILLED",
]
