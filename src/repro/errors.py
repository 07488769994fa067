"""Exception hierarchy for the repro package.

Every error raised deliberately by the library derives from
:class:`ReproError`, so callers can catch library failures without
catching programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigurationError(ReproError):
    """An invalid or inconsistent configuration was supplied.

    Raised, for example, when a wedge does not fit inside the wind
    tunnel, when the freestream collision probability exceeds the
    validity bound of the selection rule, or when a fixed-point value
    overflows the Q8.23 format.
    """


class ValidationError(ReproError):
    """A scenario's golden/closed-form validation failed.

    Carries the full per-check report text so CI logs show which
    observable drifted and by how much.
    """


class FixedPointOverflowError(ReproError):
    """A fixed-point operation overflowed the 32-bit word."""


class MachineError(ReproError):
    """An invalid operation on the Connection Machine emulation substrate.

    Raised for mismatched field lengths, sends outside the virtual
    processor set, or exceeding per-processor memory.
    """


class GeometryError(ConfigurationError):
    """Invalid geometric configuration (wedge outside domain, etc.)."""


class SchemaError(ConfigurationError):
    """Plain data (a scenario spec, a snapshot's config) lacks a key,
    names an unknown one, or holds a value of the wrong type."""


class ResilienceError(ReproError):
    """Base class of the parallel-fault taxonomy.

    Every fault the supervised execution layer can detect -- worker
    death, hangs, exchange overflows, invariant violations, corrupted
    checkpoints -- derives from this class and carries structured
    context (step, shard, counts, ...) in :attr:`context`, so a
    supervisor can decide on a recovery action without parsing message
    strings.
    """

    def __init__(self, message: str, **context) -> None:
        self.context = {k: v for k, v in context.items() if v is not None}
        if self.context:
            detail = ", ".join(
                f"{k}={v}" for k, v in sorted(self.context.items())
            )
            message = f"{message} [{detail}]"
        super().__init__(message)


class WorkerCrashError(ResilienceError):
    """A shard worker died during a sharded command, or failed without
    an exception of its own to show.

    Covers a dead worker process (a command barrier breaks and the
    parent finds exited children: ``dead`` in ``context``), an injected
    ``exception`` or inline ``crash`` fault (``injected``), and a forked
    worker's exception that does not pickle (its traceback text in the
    message).  Any other exception a shard raises reaches the caller as
    itself.
    """


class WorkerHangError(ResilienceError):
    """A sharded step or gather timed out with every worker still alive.

    The signature of a wedged (not crashed) pool: a deadlock, an
    unkillable syscall, or a pathologically slow shard.  Distinct from
    :class:`WorkerCrashError` so callers can choose a different remedy
    (kill + respawn vs plain respawn).
    """


class ExchangeOverflowError(ResilienceError):
    """A migration channel received more particles than its capacity.

    The shared-memory exchange buffers are sized at bind time; a local
    density spike (or an injected fault) that overflows one must fail
    loudly rather than silently dropping particles.
    """


class InvariantViolationError(ResilienceError):
    """A runtime audit found physically impossible simulation state.

    Raised by the invariant audit (:mod:`repro.resilience.audit`, run
    in a forked shard's own worker for its slab) when a conservation or
    range invariant breaks: particle-count accounting, non-finite
    state, fixed-point range, cell-index consistency, slab containment,
    migration-channel conservation, or the cached sort order.
    """


class CheckpointCorruptionError(ResilienceError):
    """A checkpoint archive is truncated, unreadable, or incomplete."""


class RecoveryExhaustedError(ResilienceError):
    """Supervised recovery gave up: retry budget spent or no checkpoint
    restorable.  Carries the retry count and the last underlying fault
    in ``context``."""


class ServiceError(ResilienceError):
    """Base class of the simulation-as-a-service failure taxonomy.

    The orchestrator, the job store and the HTTP layer raise
    subclasses of this so the API can map each failure onto a stable
    status code (429 backpressure, 404 unknown job, 409 bad state, ...)
    without parsing message strings.
    """


class BackpressureError(ServiceError):
    """The bounded submission queue is full.

    Submitting must fail loudly (HTTP 429) instead of accepting
    unbounded work; ``context`` carries the queue depth and limit so
    clients can implement their own backoff.
    """


class JobNotFoundError(ServiceError):
    """No job with the requested id exists in the store."""


class JobStateError(ServiceError):
    """An invalid job state transition was attempted.

    Raised in particular for any transition *out of* a terminal state
    -- the property that makes "every job reaches exactly one terminal
    state" enforceable rather than aspirational.
    """


class ServiceJournalError(ServiceError):
    """The service journal is unreadable beyond a torn tail.

    A crash can tear the *final* record of the append-only journal
    (and replay tolerates exactly that); garbage anywhere earlier
    means real corruption and must not be silently skipped.
    """


class JournalVersionError(ServiceJournalError):
    """The journal was recorded by a newer schema version.

    Replaying records this build does not understand could silently
    mis-reconstruct the job table, so the store refuses instead.
    """
