"""The domain-sharded execution backend.

One worker process per x-slab steps its shard of the wind tunnel; the
parent drives the step protocol over the four-method backend seam
(:class:`repro.core.simulation.SerialBackend` documents it).  All bulk
state -- the shard particle populations (column buffers and spares), the
migration channels, per-shard diagnostics and sampler accumulators --
lives in anonymous shared mappings inherited over ``fork``
(:func:`shared_segment`: reserved at bind, committed page by page as
rows are written), so the steady-state step exchanges no pickled data
at all; pipes carry only rare traffic
(worker tracebacks, the reservoir on an explicit ``gather``, each
shard's invariant-audit result).

One driver: a shard is a block with neighbours, and each worker runs
the serial engine's step (:func:`repro.core.simulation.step_stage1`,
:func:`~repro.core.simulation.step_stage2`) on its slab, split at the
one point that needs a worker barrier -- stage 1 / exchange / stage 2:

* **Phase A** -- claim the reservoir flux (first shard), stage 1
  (motion and the boundaries; the first shard owns the plunger, the
  last the downstream sink), then pack boundary-crossing particles into
  the outgoing migration channels and backfill-remove them locally.
* **Phase B** -- append arrivals (left neighbour first, then right)
  and index them, stage 2 (collisions, reservoir mixing on the first
  shard, sampling),
  ship the downstream flux (last shard), and pack the shard's
  diagnostics row (:data:`repro.core.simulation.DIAGNOSTICS_ROW`).

Determinism: every worker draws all of a step's random numbers from a
counter-based stream keyed ``(seed, shard_id, step)``
(:func:`repro.rng.shard_stream`), and the exchange order is fixed, so a
run is bitwise reproducible run-to-run at any fixed worker count --
whether the shards execute as processes or inline (``processes=False``,
the sequential mode used for tests and single-core hosts).  A run
with one worker is the serial engine
(:class:`repro.core.simulation.SerialBackend`); this backend needs two
or more.
"""

from __future__ import annotations

import mmap
import multiprocessing as mp
import os
import time
import traceback
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.boundary import BoundaryStats, WindTunnelBoundaries
from repro.core.cells import index_rows
from repro.core.particles import COLUMN_NAMES, ParticleArrays, scratch_capacity
from repro.core.reservoir import Reservoir
from repro.core.sampling import SAMPLER_FIELDS, CellSampler
from repro.core.simulation import (
    DIAGNOSTICS_ROW,
    StepDiagnostics,
    merge_diagnostics,
    pack_diagnostics,
    step_stage1,
    step_stage2,
)
from repro.core.sortstep import IncrementalSorter
from repro.errors import (
    ConfigurationError,
    InvariantViolationError,
    WorkerCrashError,
    WorkerHangError,
)
from repro.parallel.exchange import LEFT, RIGHT, MigrationChannels
from repro.parallel.rebalance import (
    REBALANCE_EVERY,
    THRESHOLD,
    column_loads,
    planned_transfers,
    validate_plan,
)
from repro.parallel.shard import ShardSlabs
from repro.perf import PerfLedger
from repro.rng import shard_stream
from repro.telemetry.observables import load_imbalance
from repro.telemetry.spans import (
    RING_CAPACITY,
    RING_FIELDS,
    RING_STATE,
    WORKER_SPAN_NAMES,
    drain_ring,
    ring_append,
)

#: Span name -> ring name-id (the rings carry only numbers).
_SPAN_ID = {name: i for i, name in enumerate(WORKER_SPAN_NAMES)}

#: Column of the reservoir size in a shard's diagnostics row.
_N_RESERVOIR = DIAGNOSTICS_ROW.index("n_reservoir")

# -- control-word layout (shared int64 vector) --------------------------

CTRL_CMD = 0
CTRL_STEP = 1
CTRL_SAMPLE = 2
CTRL_ERROR = 3       # 0 = healthy, else failing shard_id + 1
CTRL_FLUX = 4        # downstream-exit count in transit to shard 0
CTRL_WORDS = 5

CMD_IDLE = 0
CMD_STEP = 1
CMD_GATHER = 2
CMD_STOP = 3
CMD_REBALANCE = 4
CMD_AUDIT = 5

MISC_PLUNGER = 0     # plunger face position, published by shard 0
MISC_WORDS = 1


def shared_segment(shape, dtype) -> np.ndarray:
    """A zeroed array in its own anonymous shared mapping.

    ``MAP_SHARED``, so a forked worker's writes are the parent's, and
    the kernel zero-fills each page on first touch: a reservation costs
    address space, and resident memory grows with the rows written.
    The mapping is unmapped when the last view of it is dropped.
    """
    dt = np.dtype(dtype)
    count = int(np.prod(shape))
    buf = mmap.mmap(-1, max(count * dt.itemsize, 1))
    return np.frombuffer(buf, dtype=dt, count=count).reshape(shape)


def _address(buf: np.ndarray) -> int:
    """The address of ``buf``'s first byte (one per pool buffer)."""
    return buf.__array_interface__["data"][0]


class _RingTracer:
    """A shard ledger's tracer: phase spans into the shard's span ring."""

    def __init__(self, ring: np.ndarray, state: np.ndarray, shard_id: int):
        self.ring = ring
        self.state = state
        self.shard_id = shard_id
        #: The step the spans belong to (set as each step begins).
        self.step = 0

    def record(self, name: str, t0: float, t1: float) -> None:
        ring_append(
            self.ring, self.state, _SPAN_ID[name], t0, t1,
            self.step, self.shard_id, os.getpid(),
        )


class ShardWorker:
    """One shard's step executor (runs in a worker process or inline).

    A shard is a block with neighbours: a :class:`Simulation`-shaped
    object (``particles``, ``reservoir``, ``boundaries``, ``surface``,
    ``sampler``, ``sort_state``, ``perf``, ``config``) that runs the
    serial step's two stages (:func:`step_stage1`,
    :func:`step_stage2`) with the migration exchange between them.  It
    owns the shard's boundaries (inlet on the first shard, outlet on
    the last), its slab bounds, and -- on shard 0 -- the reservoir and
    the plunger.  The particle population is adopted after construction
    (:meth:`adopt`) so its columns live in the backend's shared
    segments.
    """

    #: Probes are driver objects; a sharded run refuses them.
    probes = ()

    def __init__(
        self,
        shard_id: int,
        n_workers: int,
        config,
        slabs: ShardSlabs,
        channels: MigrationChannels,
        ctrl: np.ndarray,
        shared: Dict[str, np.ndarray],
        vf_flat: np.ndarray,
        seed,
        fault_plan=None,
    ) -> None:
        self.shard_id = shard_id
        self.n_workers = n_workers
        self.config = config
        self.domain = config.domain
        self.channels = channels
        self.shared = shared
        self._ctrl = ctrl
        self._vf_flat = vf_flat
        self._seed = seed
        self.x_lo, self.x_hi = slabs.bounds(shard_id)
        # Guard bounds: a migrant landing beyond the *neighbour's* far
        # edge would need a channel that does not exist.
        self._left_guard = slabs.bounds(shard_id - 1)[0] if shard_id > 0 else 0.0
        self._right_guard = (
            slabs.bounds(shard_id + 1)[1]
            if shard_id < n_workers - 1
            else float(self.domain.nx)
        )
        self.boundaries = WindTunnelBoundaries.from_config(
            config,
            has_inlet=(shard_id == 0),
            has_outlet=(shard_id == n_workers - 1),
        )
        #: Only shard 0 holds the reservoir (installed by the backend):
        #: it pays the plunger withdrawals and runs the mixing;
        #: downstream deposits arrive from the last shard as a count
        #: through the shared flux slot (the deposit re-deals particle
        #: state anyway, so only the count is physical).
        self.reservoir: Optional[Reservoir] = None
        self.particles: Optional[ParticleArrays] = None
        #: Per-worker indexed-order state (``sort_kernel=
        #: "incremental"``): each shard rebuilds its own canonical
        #: order every step.
        self.sort_state: Optional[IncrementalSorter] = (
            IncrementalSorter(config.domain.n_cells)
            if config.sort_kernel == "incremental" else None
        )
        #: The shard's own phase ledger; each step's split goes into
        #: its diagnostics row, and its spans into the span ring.
        self.perf = PerfLedger()
        if "spans" in shared:
            self.perf.tracer = _RingTracer(
                shared["spans"][shard_id], shared["span_state"][shard_id],
                shard_id,
            )
        self.sampler = CellSampler(config.domain)
        for name, row in zip(SAMPLER_FIELDS, shared["samp"][shard_id]):
            setattr(self.sampler, name, row)
        self.surface = None
        if config.wedge is not None and "surf" in shared:
            from repro.core.surface import SurfaceSampler

            self.surface = SurfaceSampler(
                config.wedge, n_strips=shared["surf"].shape[2] - 1
            )
            self.surface._impulse_x = shared["surf"][shard_id, 0]
            self.surface._impulse_y = shared["surf"][shard_id, 1]
            self.surface._hits = shared["surf_hits"][shard_id]
        #: Buffer address -> its id (its place in the shard's pool).
        self._buffer_ids: Dict[int, int] = {}
        self._stream: Optional[np.random.Generator] = None
        self._bstats: Optional[BoundaryStats] = None
        #: Deterministic fault injection (None on production runs).
        self._fault_plan = fault_plan
        #: True inside a forked worker process (set by ``_worker_main``);
        #: selects hard process death vs a plain raise for ``crash``.
        self._forked = False

    @property
    def surfaces(self) -> tuple:
        """The shard's surface sampler, as a tuple (empty without one)."""
        return () if self.surface is None else (self.surface,)

    def _span(self, name: str, t0: float) -> None:
        """Record a protocol span ``name`` from ``t0`` to now, if traced."""
        if self.perf.tracer is not None:
            self.perf.tracer.record(name, t0, time.perf_counter())

    def adopt(self, parts: ParticleArrays, columns: dict, spares: list) -> list:
        """Re-home ``parts`` in the shard's shared buffers; return its pool.

        The pool is the column set, in :data:`COLUMN_NAMES` order, then
        the spares; a buffer's id is its place in the pool.
        """
        parts.enable_scratch_from(columns, spares)
        pool = list(columns.values()) + spares
        self._buffer_ids = {_address(b): i for i, b in enumerate(pool)}
        self.particles = parts
        self._publish_layout()
        return pool

    def _publish_layout(self) -> None:
        """Export the particle count and each column's buffer id."""
        parts = self.particles
        self.shared["n_parts"][self.shard_id] = parts.n
        ids = self.shared["buffer_ids"][self.shard_id]
        for ci, buf in enumerate(parts.column_buffers.values()):
            ids[ci] = self._buffer_ids[_address(buf)]

    def _crossed_two_slabs(self) -> ConfigurationError:
        return ConfigurationError(
            f"shard {self.shard_id}: a particle crossed more than one slab "
            "in a single step; use fewer workers (wider slabs) for this flow"
        )

    def _migrate(self, lo: float, hi: float, guarded: bool) -> None:
        """Ship the rows outside ``[lo, hi)`` to the neighbours.

        Packs them into the outgoing channels, then backfills them away
        (the sort re-orders everything anyway).  ``guarded`` refuses a
        row that landed beyond a neighbour's far edge, which a step's
        motion can do but a planned repartition cannot.
        """
        parts = self.particles
        x = parts.x
        mask = parts.scratch.array("mig_mask", parts.n, dtype=bool)
        gone = []
        for direction, test, edge, wired in (
            (LEFT, np.less, lo, self.shard_id > 0),
            (RIGHT, np.greater_equal, hi, self.shard_id < self.n_workers - 1),
        ):
            if wired:
                rows = np.flatnonzero(test(x, edge, out=mask))
                xs = x[rows]
                if guarded and (
                    (xs < self._left_guard) | (xs >= self._right_guard)
                ).any():
                    raise self._crossed_two_slabs()
                self.channels.ship(parts, rows, self.shard_id, direction)
                gone.append(rows)
        if gone:
            parts.remove_inplace(np.sort(np.concatenate(gone)))

    def _receive(self) -> None:
        """Append this step's arrivals and index them (only them)."""
        parts = self.particles
        n = parts.n
        self.channels.receive(parts, self.shard_id)
        index_rows(parts, self.domain, slice(n, parts.n))

    # -- the step: stage 1, exchange, stage 2 ----------------------------

    def _inject_faults(self, step: int) -> None:
        """Fire any armed worker fault for ``(step, shard)``.

        Called only when a plan is installed; production runs skip even
        the call (one ``is None`` test in :meth:`phase_a`).
        """
        plan = self._fault_plan
        self.channels._step = step
        if plan.take("exception", step, self.shard_id) is not None:
            raise WorkerCrashError(
                "injected worker exception",
                step=step,
                shard=self.shard_id,
                injected=True,
            )
        if plan.take("crash", step, self.shard_id) is not None:
            if self._forked:
                # A real process death: skips the barriers, leaves the
                # parent to find the corpse via the barrier timeout.
                os._exit(17)
            raise WorkerCrashError(
                "injected worker crash (inline mode)",
                step=step,
                shard=self.shard_id,
                injected=True,
            )
        hang = plan.take("hang", step, self.shard_id)
        if hang is not None:
            time.sleep(hang.seconds)

    def phase_a(self, step: int, sample: bool) -> None:
        """Flux claim, stage 1, migration pack + removal."""
        if self._fault_plan is not None:
            self._inject_faults(step)
        if self.perf.tracer is not None:
            self.perf.tracer.step = step
        t0 = time.perf_counter()
        # The shard's stream is keyed by the completed-step count, one
        # behind the serial engine's ``streams(step + 1)``.
        self._stream = shard_stream(
            self._seed, self.shard_id, step, into=self._stream
        )

        # Shard 0 claims the downstream-exit count the last shard
        # shipped in the previous step's phase B (the end-of-step
        # barrier orders the write before this read) and deposits it
        # into the reservoir.
        if self.reservoir is not None:
            pending = int(self._ctrl[CTRL_FLUX])
            if pending:
                self._ctrl[CTRL_FLUX] = 0
                self.reservoir.deposit(self._stream, pending)

        self._bstats = step_stage1(self, self._stream, sample)
        with self.perf.phase("exchange"):
            self._migrate(self.x_lo, self.x_hi, guarded=True)
        self._span("phase_a", t0)

    def phase_b(self, step: int, sample: bool) -> None:
        """Arrivals, stage 2, flux ship, diagnostics row, publish."""
        t0 = time.perf_counter()
        with self.perf.phase("exchange"):
            self._receive()
        diag, stage = step_stage2(
            self, self._stream, step, self._bstats, sample
        )
        # The last shard ships its downstream-exit count toward shard 0
        # (claimed there at the start of the next step's phase A).
        if self.shard_id == self.n_workers - 1:
            self._ctrl[CTRL_FLUX] += self._bstats.n_removed_downstream
        pack_diagnostics(self.shared["diag"][self.shard_id], diag, stage)
        self._publish_layout()
        if self.shard_id == 0:
            self.shared["misc"][MISC_PLUNGER] = self.boundaries.plunger.position
        self._span("phase_b", t0)

    # -- the repartition epoch (adaptive load balancing) -----------------

    def rebalance_a(self, step: int) -> None:
        """Ship the rows in ceded columns toward their new owner.

        The parent has already published the new edge tuple in
        ``shared["edges"]``; the planner's adjacency clamp guarantees
        every ceded column transfers between *adjacent* shards, so the
        existing migration channels carry the whole repartition as one
        widened exchange epoch.  No RNG is consumed and no physics
        runs -- a rebalance only re-homes particle ownership.
        """
        edges = self.shared["edges"]
        if self._fault_plan is not None:
            # Publish the step so channel-level faults stay keyed.
            self.channels._step = step
        self._migrate(
            float(edges[self.shard_id]),
            float(edges[self.shard_id + 1]),
            guarded=False,
        )

    def rebalance_b(self) -> None:
        """Adopt arrivals and refresh slab bounds from the new edges.

        Runs after the mid-epoch barrier: every neighbour's ceded rows
        are in the channels, arrival order is the same fixed
        left-then-right order as a normal step.  Only the arrivals are
        indexed (the rows that stayed kept their cells through the
        backfill), then the indexed order is rebuilt (no physical
        re-sort, no RNG): the state the auditor reads between steps
        describes the live population.  The next step indexes and
        orders everything again, so the realization does not depend on
        it.
        """
        parts = self.particles
        self._receive()
        if self.sort_state is not None:
            self.sort_state.update(parts)
        edges = self.shared["edges"]
        k = self.shard_id
        self.x_lo = float(edges[k])
        self.x_hi = float(edges[k + 1])
        self._left_guard = float(edges[k - 1]) if k > 0 else 0.0
        self._right_guard = (
            float(edges[k + 2])
            if k < self.n_workers - 1
            else float(self.domain.nx)
        )
        self._publish_layout()

    # -- rare traffic ----------------------------------------------------

    def audit(self, step: int):
        """The invariant auditor's per-block checks on this slab, plus
        the transport's own: the shard's outgoing channel counts lie
        in ``[0, capacity]``.  Returns ``(n, energy, checks)``."""
        from repro.resilience.audit import audit_block

        ctx = {"step": step, "shard": self.shard_id}
        n, energy, checks = audit_block(
            self.particles, self.domain, ctx, (self.x_lo, self.x_hi),
            self.sort_state,
        )
        counts = self.channels.counts[self.shard_id]
        if counts.min() < 0 or counts.max() > self.channels.capacity:
            raise InvariantViolationError(
                "migration-channel count outside [0, capacity]",
                check="channels",
                count_min=int(counts.min()),
                count_max=int(counts.max()),
                capacity=int(self.channels.capacity),
                **ctx,
            )
        return n, energy, checks + ("channels",)

    def gather_payload(self) -> Dict[str, np.ndarray]:
        """Worker-private state the parent cannot see in shared memory."""
        res = self.reservoir.particles
        return {
            "plunger": np.float64(self.boundaries.plunger.position),
            **{
                name: np.ascontiguousarray(getattr(res, name))
                for name in COLUMN_NAMES
            },
        }


def _worker_main(worker, start_b, mid_b, end_b, ctrl, conn) -> None:
    """Worker-process command loop.

    A failed phase poisons the worker (subsequent phases no-op) but
    never skips a barrier -- the parent always completes the step,
    sees the error flag, and raises with the piped traceback.
    """
    worker._forked = True
    failed = False

    def audit():
        # A violation crosses the fork typed; the audit wrote nothing,
        # so the worker stays healthy for the supervisor's teardown.
        try:
            return worker.audit(int(ctrl[CTRL_STEP]))
        except InvariantViolationError as exc:
            return exc

    def attempt(phase, *args, report: bool = True) -> None:
        """Run ``phase`` unless poisoned; on failure, poison and flag."""
        nonlocal failed
        if failed:
            return
        try:
            phase(*args)
        except BaseException:
            failed = True
            ctrl[CTRL_ERROR] = worker.shard_id + 1
            if report:
                conn.send(traceback.format_exc())

    while True:
        start_b.wait()
        cmd = int(ctrl[CTRL_CMD])
        if cmd == CMD_STOP:
            break
        if cmd == CMD_STEP:
            step = int(ctrl[CTRL_STEP])
            sample = bool(ctrl[CTRL_SAMPLE])
            attempt(worker.phase_a, step, sample)
            mid_b.wait()
            attempt(worker.phase_b, step, sample)
        elif cmd == CMD_REBALANCE:
            attempt(worker.rebalance_a, int(ctrl[CTRL_STEP]))
            mid_b.wait()
            attempt(worker.rebalance_b)
        elif cmd == CMD_GATHER and worker.reservoir is not None:
            # The payload is the pipe's one message: a failure sends no
            # traceback the parent would take for it.
            attempt(
                lambda: conn.send(worker.gather_payload()), report=False
            )
        elif cmd == CMD_AUDIT:
            attempt(lambda: conn.send(audit()), report=False)
        end_b.wait()
    conn.close()


class ShardedBackend:
    """Slab-decomposed multi-process execution of the step loop.

    The slabs stay balanced: after every
    :data:`~repro.parallel.rebalance.REBALANCE_EVERY` steps the backend
    compares the particles each shard steps -- flow rows, plus shard
    0's reservoir once per mix round (:meth:`shard_loads`) -- and moves
    the slab edges toward equal loads when they differ by more than
    :data:`~repro.parallel.rebalance.THRESHOLD`
    (:meth:`maybe_rebalance`).  The decision reads integer counts only,
    so a run stays bitwise reproducible at a fixed worker count.

    Parameters
    ----------
    n_workers:
        Shard count, at least 2 (one worker is the serial engine,
        :class:`~repro.core.simulation.SerialBackend`).
    processes:
        ``True`` forks one worker process per shard; ``False`` steps
        the same shard objects sequentially in-process (bitwise
        identical results -- the deterministic per-``(shard, step)``
        RNG streams make execution order irrelevant), useful for tests
        and single-core hosts.
    channel_capacity:
        Migrants per channel per step (default: one shard's worth).
    flux_pending:
        Downstream-exit count already in transit at bind time (snapshot
        restore continuity; 0 for fresh runs).
    barrier_timeout:
        Seconds the parent waits on the step barriers before declaring
        the worker pool wedged.
    fault_plan:
        Optional :class:`repro.resilience.faults.FaultPlan` arming the
        deterministic fault-injection hooks in the workers and the
        migration channels.  ``None`` (the default) leaves every hook
        dormant at zero overhead.
    edges:
        Optional explicit slab-edge tuple (length ``n_workers + 1``)
        to bind with, instead of the uniform split -- snapshot-restore
        continuity for checkpoints taken after a rebalance.
    """

    def __init__(
        self,
        n_workers: int,
        processes: bool = True,
        channel_capacity: Optional[int] = None,
        flux_pending: int = 0,
        barrier_timeout: float = 300.0,
        fault_plan=None,
        edges: Optional[Tuple[int, ...]] = None,
    ) -> None:
        if n_workers < 2:
            raise ConfigurationError(
                f"ShardedBackend needs n_workers >= 2, got {n_workers}; "
                "run one worker on the serial backend (SerialBackend, "
                "Simulation's default)"
            )
        if flux_pending < 0:
            raise ConfigurationError("flux_pending must be non-negative")
        if edges is not None and len(edges) != n_workers + 1:
            raise ConfigurationError(
                f"edges must have length n_workers + 1 = {n_workers + 1}, "
                f"got {len(edges)}"
            )
        self.n_workers = n_workers
        self._processes = bool(processes)
        self._channel_capacity = channel_capacity
        self._flux_pending0 = int(flux_pending)
        self._barrier_timeout = float(barrier_timeout)
        self.fault_plan = fault_plan
        self._edges0 = tuple(int(e) for e in edges) if edges is not None else None
        self._bound = False
        self._closed = False
        self._procs: List = []
        self._pipes: List = []
        self._workers: List[ShardWorker] = []
        #: Lifetime rebalance counters (telemetry reads these).
        self.rebalance_count = 0
        self.rebalance_skipped = 0
        self.rebalance_columns_moved = 0
        self._pending_rebalance_event: Optional[Dict] = None

    @property
    def _live(self) -> bool:
        """Bound and not closed: the shared segments exist."""
        return self._bound and not self._closed

    # -- seam: bind -----------------------------------------------------

    def bind(self, sim) -> "ShardedBackend":
        """Decompose ``sim``'s state into shards and start the pool."""
        if self._bound:
            raise ConfigurationError("backend is already bound")
        cfg = sim.config
        if isinstance(cfg.seed, np.random.Generator):
            raise ConfigurationError(
                "sharded runs need a stateless seed (int or SeedSequence) "
                "to key the per-shard RNG streams"
            )
        W = self.n_workers
        if self._edges0 is not None:
            self._slabs = ShardSlabs.from_edges(cfg.domain.nx, self._edges0)
        else:
            self._slabs = ShardSlabs.split(cfg.domain.nx, W)

        ctx = None
        if self._processes:
            try:
                ctx = mp.get_context("fork")
            except ValueError:
                raise ConfigurationError(
                    "the 'fork' start method is unavailable on this "
                    "platform; use ShardedBackend(..., processes=False)"
                ) from None

        n_global = sim.particles.n
        # Sampler cells: the x-y footprint (span domains collapse).
        n_cells = sim.sampler.domain.n_cells
        self._ctrl = shared_segment((CTRL_WORDS,), np.int64)
        self._ctrl[CTRL_FLUX] = self._flux_pending0
        misc = shared_segment((MISC_WORDS,), np.float64)
        misc[MISC_PLUNGER] = sim.boundaries.plunger.position
        shared: Dict[str, np.ndarray] = {
            "n_parts": shared_segment((W,), np.int64),
            "buffer_ids": shared_segment((W, len(COLUMN_NAMES)), np.int8),
            "diag": shared_segment((W, len(DIAGNOSTICS_ROW)), np.float64),
            "samp": shared_segment((W, len(SAMPLER_FIELDS), n_cells), np.float64),
            "misc": misc,
            # Live slab edges: the parent publishes a repartition here
            # before issuing CMD_REBALANCE; workers re-read their slab
            # bounds from it at the end of the epoch.
            "edges": shared_segment((W + 1,), np.int64),
        }
        shared["edges"][:] = np.asarray(self._slabs.edges, dtype=np.int64)
        # Shard 0 rewrites its reservoir size every step; seed it so
        # the loads are whole before the first one.
        if sim.reservoir is not None:
            shared["diag"][0, _N_RESERVOIR] = sim.reservoir.particles.n
        self._mix_rounds = int(cfg.reservoir_mix_rounds)
        self._n_cells = cfg.domain.n_cells
        if sim.surface is not None:
            ns = sim.surface.n_strips
            shared["surf"] = shared_segment((W, 2, ns + 1), np.float64)
            shared["surf_hits"] = shared_segment((W, ns + 1), np.int64)
        # Worker span rings: allocated only when a telemetry hub is
        # attached at bind time (otherwise the workers skip emission on
        # one dict lookup per phase).
        telemetry = getattr(sim, "telemetry", None)
        if telemetry is not None:
            shared["spans"] = shared_segment(
                (W, RING_CAPACITY, RING_FIELDS), np.float64
            )
            shared["span_state"] = shared_segment((W, RING_STATE), np.int64)
        self._shared = shared

        rdof = cfg.model.rotational_dof
        chan_cap = self._channel_capacity or max(2048, n_global // W)
        self._channels = MigrationChannels(
            W, rdof, chan_cap, shared_segment, fault_plan=self.fault_plan
        )

        # Stable partition by x: gather + re-bind round-trips exactly.
        order, splits = self._slabs.partition_order(sim.particles.x)
        self._pools: List[List[np.ndarray]] = []
        self._workers = []
        # Every shard can hold the whole bind-time flow plus reservoir:
        # a reservation commits no memory, and while the particle count
        # holds, no repartition or compression into one slab outgrows it.
        n_res = 0 if sim.reservoir is None else sim.reservoir.particles.n
        cap = max(512, scratch_capacity(n_global + n_res))
        self._shard_caps = np.full(W, cap, dtype=np.int64)
        for k in range(W):
            seg = sim.particles.select(order[splits[k] : splits[k + 1]])
            w = ShardWorker(
                shard_id=k,
                n_workers=W,
                config=cfg,
                slabs=self._slabs,
                channels=self._channels,
                ctrl=self._ctrl,
                shared=shared,
                vf_flat=sim._vf_flat,
                seed=cfg.seed,
                fault_plan=self.fault_plan,
            )
            self._pools.append(w.adopt(seg, *seg.buffer_set(cap, shared_segment)))
            self._workers.append(w)
        # Shard 0 inherits the reservoir and the live plunger phase.
        self._workers[0].reservoir = sim.reservoir
        self._workers[0].boundaries.plunger.position = (
            sim.boundaries.plunger.position
        )

        # Shard 0's row starts from whatever the driver's samplers hold
        # (zeros, or a restore's moments); gather sums the rows.  A
        # restore at the same worker count then hands every shard its
        # own archived row back (``shard_moments``), so each shard goes
        # on adding onto the very sums the uninterrupted run holds.
        s = sim.sampler
        for name, row in zip(SAMPLER_FIELDS, shared["samp"][0]):
            row[:] = getattr(s, name)
        self._samp_steps0 = s._steps
        if sim.surface is not None:
            shared["surf"][0] = (sim.surface._impulse_x, sim.surface._impulse_y)
            shared["surf_hits"][0] = sim.surface._hits
            self._surf_steps0 = sim.surface._steps
        self._sample_steps = 0

        if self._processes:
            self._start_barrier = ctx.Barrier(W + 1)
            self._mid_barrier = ctx.Barrier(W)
            self._end_barrier = ctx.Barrier(W + 1)
            self._pipes = []
            self._procs = []
            for w in self._workers:
                recv_end, send_end = ctx.Pipe(duplex=False)
                p = ctx.Process(
                    target=_worker_main,
                    args=(
                        w,
                        self._start_barrier,
                        self._mid_barrier,
                        self._end_barrier,
                        self._ctrl,
                        send_end,
                    ),
                    daemon=True,
                )
                p.start()
                send_end.close()
                self._pipes.append(recv_end)
                self._procs.append(p)
        self._bound = True
        return self

    # -- seam: step -----------------------------------------------------

    def step(self, sim, sample: bool = False) -> StepDiagnostics:
        """Advance every shard one step and merge the diagnostics."""
        if not self._live:
            raise ConfigurationError("backend is not bound (or closed)")
        if sample and sim.probes:
            raise ConfigurationError(
                "probes sample the driver's population, which a sharded "
                "run does not step; run probes on the serial backend"
            )
        step_idx = sim.step_count
        if self._processes:
            self._ctrl[CTRL_CMD] = CMD_STEP
            self._ctrl[CTRL_STEP] = step_idx
            self._ctrl[CTRL_SAMPLE] = int(sample)
            self._await(self._start_barrier, step=step_idx)
            self._await(self._end_barrier, step=step_idx)
            if self._ctrl[CTRL_ERROR]:
                self._raise_worker_error(step=step_idx)
        else:
            for w in self._workers:
                w.phase_a(step_idx, sample)
            for w in self._workers:
                w.phase_b(step_idx, sample)
        sim.step_count += 1
        if sample:
            self._sample_steps += 1
        diag = merge_diagnostics(self._shared["diag"], sim.step_count, sim.perf)
        if sim.step_count % REBALANCE_EVERY == 0:
            self.maybe_rebalance(sim.step_count)
        return diag

    def _await(self, barrier, step: Optional[int] = None) -> None:
        """Wait on a step barrier; on failure, diagnose and raise typed.

        A broken or timed-out barrier with dead children is a crash
        (:class:`WorkerCrashError`, listing the corpses); with every
        worker alive it is a hang (:class:`WorkerHangError`).  Either
        way the pool is unrecoverable, so it is torn down hard before
        raising -- the supervisor respawns from a checkpoint.
        """
        try:
            barrier.wait(timeout=self._barrier_timeout)
        except Exception:
            dead = [
                (w.shard_id, p.exitcode)
                for w, p in zip(self._workers, self._procs)
                if not p.is_alive()
            ]
            self._emergency_stop()
            if dead:
                raise WorkerCrashError(
                    "worker process died during a sharded step barrier",
                    step=step,
                    dead=dead,
                ) from None
            raise WorkerHangError(
                "sharded step barrier timed out with all workers alive",
                step=step,
                timeout_s=self._barrier_timeout,
                n_workers=self.n_workers,
            ) from None

    def _raise_worker_error(self, step: Optional[int] = None) -> None:
        shard = int(self._ctrl[CTRL_ERROR]) - 1
        tracebacks = []
        for k, pipe in enumerate(self._pipes):
            try:
                while pipe.poll(0.5):
                    tracebacks.append(f"[shard {k}]\n{pipe.recv()}")
            except (EOFError, OSError):
                pass
        detail = "\n".join(tracebacks) or "(no traceback received)"
        raise WorkerCrashError(
            f"worker for shard {shard} failed:\n{detail}",
            step=step,
            shard=shard,
        )

    # -- adaptive load balancing ----------------------------------------

    @property
    def slab_edges(self) -> Optional[Tuple[int, ...]]:
        """Current slab-edge tuple (``None`` before bind)."""
        if not self._bound:
            return None
        return self._slabs.edges

    def _column_histogram(self) -> np.ndarray:
        """Global per-column flow counts, read from shard memory.

        A bincount of the shards' cell columns, folded to x columns
        (the cell index is x-major).  A pure function of simulation
        state (never wall-clock), read between steps while every worker
        is idle at the start barrier -- this is what keeps the rebalance
        decision, and therefore the whole run, bitwise reproducible at
        a fixed worker count.
        """
        n_cells = self._n_cells
        hist = np.zeros(n_cells, dtype=np.int64)
        for view in self._shard_views():
            hist += np.bincount(view["cell"], minlength=n_cells)
        return hist.reshape(self._slabs.nx, -1).sum(axis=1)

    def maybe_rebalance(self, step: int, force: bool = False) -> bool:
        """Run the measure -> decide -> act loop once.

        Measures the per-shard loads (:meth:`shard_loads`), and when the
        max-over-mean imbalance exceeds
        :data:`~repro.parallel.rebalance.THRESHOLD` (or ``force`` is
        set), plans new edges from the flow histogram with the
        reservoir at column 0, re-validates channel and buffer capacity
        against the exact planned transfers of flow rows, and executes
        the repartition epoch.  Records a ``rebalance`` event (executed or
        skipped, with the measured imbalance and columns moved) for the
        telemetry hub to collect via :meth:`take_rebalance_event`.
        Returns ``True`` when a repartition was executed.
        """
        if not self._live:
            return False
        loads = self.shard_loads()
        imb = load_imbalance(loads)
        if not force and imb < THRESHOLD:
            return False
        hist = self._column_histogram()
        old = self._slabs
        new = old.rebalance(column_loads(hist, self._reservoir_load()))
        event: Dict = {
            "step": int(step),
            "imbalance": float(imb),
            "edges_before": list(old.edges),
            "edges_after": list(new.edges),
            "columns_moved": int(
                np.abs(
                    np.asarray(new.edges) - np.asarray(old.edges)
                ).sum()
            ),
            "rows_moved": 0,
            "executed": False,
            "skipped": None,
        }
        if new is old:
            # Already at the clamped optimum: nothing to move.  Not an
            # actionable event, so leave the counters untouched.
            return False
        reason = validate_plan(
            old, new, hist, self._channels.capacity, self._shard_caps
        )
        if reason is not None:
            event["skipped"] = reason
            event["edges_after"] = list(old.edges)
            event["columns_moved"] = 0
            self.rebalance_skipped += 1
            self._pending_rebalance_event = event
            return False
        to_left, to_right = planned_transfers(old, new, hist)
        event["rows_moved"] = int(to_left.sum() + to_right.sum())
        self._execute_rebalance(new, step)
        event["executed"] = True
        self.rebalance_count += 1
        self.rebalance_columns_moved += event["columns_moved"]
        self._pending_rebalance_event = event
        return True

    def _execute_rebalance(self, new: ShardSlabs, step: int) -> None:
        """Publish the new edges and run the repartition epoch."""
        self._shared["edges"][:] = np.asarray(new.edges, dtype=np.int64)
        self._slabs = new
        if self._processes:
            self._ctrl[CTRL_CMD] = CMD_REBALANCE
            self._ctrl[CTRL_STEP] = step
            self._await(self._start_barrier, step=step)
            self._await(self._end_barrier, step=step)
            if self._ctrl[CTRL_ERROR]:
                self._raise_worker_error(step=step)
        else:
            for w in self._workers:
                w.rebalance_a(step)
            for w in self._workers:
                w.rebalance_b()

    def take_rebalance_event(self) -> Optional[Dict]:
        """Pop the latest rebalance event (telemetry hub hook)."""
        ev = self._pending_rebalance_event
        self._pending_rebalance_event = None
        return ev

    # -- seam: gather ---------------------------------------------------

    @property
    def pending_flux(self) -> int:
        """Downstream-exit count in transit toward shard 0's reservoir."""
        return int(self._ctrl[CTRL_FLUX])

    def gather(self, sim) -> None:
        """Mirror the authoritative shard state back into the driver."""
        if not self._live:
            raise ConfigurationError("backend is not bound (or closed)")
        # Flow population: the shard segments in shard order.
        views = self._shard_views()
        full = ParticleArrays(
            **{
                name: np.concatenate([v[name] for v in views])
                for name in COLUMN_NAMES
            }
        )
        full.enable_scratch()
        sim.particles = full

        # Reservoir + plunger live in worker 0's process memory.
        if self._processes:
            self._ctrl[CTRL_CMD] = CMD_GATHER
            self._await(self._start_barrier)
            payload = self._recv_payload(self._pipes[0])
            self._await(self._end_barrier)
            if self._ctrl[CTRL_ERROR]:
                self._raise_worker_error()
            plunger = float(payload.pop("plunger"))
            res = ParticleArrays(**payload)
        else:
            w0 = self._workers[0]
            res = w0.reservoir.particles.copy()
            plunger = w0.boundaries.plunger.position
        res.enable_scratch()
        sim.reservoir.particles = res
        sim.boundaries.plunger.position = plunger

        # Samplers: the sum of the per-shard rows.
        s = sim.sampler
        merged = self._shared["samp"].sum(axis=0)
        for name, row in zip(SAMPLER_FIELDS, merged):
            getattr(s, name)[:] = row
        s._steps = self._samp_steps0 + self._sample_steps
        if sim.surface is not None and "surf" in self._shared:
            surf = self._shared["surf"].sum(axis=0)
            sim.surface._impulse_x[:] = surf[0]
            sim.surface._impulse_y[:] = surf[1]
            sim.surface._hits[:] = self._shared["surf_hits"].sum(axis=0)
            sim.surface._steps = self._surf_steps0 + self._sample_steps

    def audit(self, sim) -> List[Tuple[int, float, Tuple[str, ...]]]:
        """Run the per-block audit on every slab, where the slab lives.

        Inline, a direct call per worker.  Forked, one command round
        through the start and end barriers, each worker piping back its
        result -- or its :class:`~repro.errors.InvariantViolationError`,
        raised here in shard order -- so the order check runs next to
        the sorter that built the order.
        """
        if not self._live:
            raise ConfigurationError("backend is not bound (or closed)")
        step = sim.step_count
        if not self._processes:
            return [w.audit(step) for w in self._workers]
        self._ctrl[CTRL_CMD] = CMD_AUDIT
        self._ctrl[CTRL_STEP] = step
        self._await(self._start_barrier, step=step)
        results = [self._recv_payload(pipe) for pipe in self._pipes]
        self._await(self._end_barrier, step=step)
        if self._ctrl[CTRL_ERROR]:
            self._raise_worker_error(step=step)
        for result in results:
            if isinstance(result, InvariantViolationError):
                raise result
        return results

    def shard_moments(self) -> Dict[str, np.ndarray]:
        """The live per-shard sampler and surface-load sums, one row per
        shard: what a checkpoint archives, and what a restore at the
        same worker count writes back before the next step."""
        return {
            name: self._shared[name]
            for name in ("samp", "surf", "surf_hits")
            if name in self._shared
        }

    def _recv_payload(self, pipe):
        deadline = time.monotonic() + self._barrier_timeout
        while time.monotonic() < deadline:
            if pipe.poll(0.25):
                return pipe.recv()
            if self._ctrl[CTRL_ERROR]:
                self._await(self._end_barrier)
                self._raise_worker_error()
        self._emergency_stop()
        raise WorkerHangError(
            "timed out waiting for the gather payload",
            timeout_s=self._barrier_timeout,
        )

    # -- introspection: shard state read between steps -------------------

    def _shard_views(self) -> List[Dict[str, np.ndarray]]:
        """Every shard's live columns, zero-copy, in shard order.

        Each column is read from the pool buffer its shard published
        (``buffer_ids``), first ``n_k`` rows, as the dtype of the
        column the pool's ``ci``-th buffer was made for.
        """
        ids = self._shared["buffer_ids"]
        views: List[Dict[str, np.ndarray]] = []
        for k, pool in enumerate(self._pools):
            nk = int(self._shared["n_parts"][k])
            views.append({
                name: pool[ids[k, ci]].view(pool[ci].dtype)[:nk]
                for ci, name in enumerate(COLUMN_NAMES)
            })
        return views

    def shard_columns(self) -> Optional[List[Dict[str, np.ndarray]]]:
        """Zero-copy views of every shard's live particle columns.

        The telemetry hub reads the authoritative shard state straight
        out of the shared column buffers without a gather.  ``None``
        before bind and after close (the introspection accessors below
        too: :meth:`close` unmaps the segments).
        """
        if not self._live:
            return None
        return self._shard_views()

    # -- introspection for the telemetry hub -----------------------------

    def shard_loads(self) -> Optional[np.ndarray]:
        """Particles each shard steps: the load the rebalancer balances.

        Flow rows per shard, plus, on shard 0, its reservoir rows once
        per ``reservoir_mix_rounds`` -- the load-imbalance observable.
        """
        if not self._live:
            return None
        loads = np.asarray(self._shared["n_parts"], dtype=np.int64).copy()
        loads[0] += self._reservoir_load()
        return loads

    def _reservoir_load(self) -> int:
        """Shard 0's reservoir rows times its mix rounds.

        Read from the reservoir size shard 0 writes into its
        diagnostics row (seeded at bind), so it is a count of state.
        """
        n_res = self._shared["diag"][0, _N_RESERVOIR]
        return int(n_res) * self._mix_rounds

    def exchange_occupancy(
        self,
    ) -> Optional[Tuple[np.ndarray, np.ndarray, int]]:
        """``(counts, high_water, capacity)`` of the migration channels.

        ``counts`` are the last step's migrants per ``(shard,
        direction)`` channel; the high-water marks accumulate across the
        run (written by the workers at ship time), so a single read
        answers "how close did any channel come to overflowing".
        """
        if not self._live:
            return None
        ch = self._channels
        return ch.counts, ch.high_water, ch.capacity

    def drain_span_rings(self) -> Optional[np.ndarray]:
        """Drain every worker span ring into one row block (or None)."""
        if not self._live:
            return None
        rings = self._shared.get("spans")
        if rings is None:
            return None
        states = self._shared["span_state"]
        blocks = [
            drain_ring(rings[k], states[k]) for k in range(self.n_workers)
        ]
        blocks = [b for b in blocks if b.shape[0]]
        if not blocks:
            return np.empty((0, RING_FIELDS))
        return np.concatenate(blocks, axis=0)

    # -- seam: close ----------------------------------------------------

    def close(self) -> None:
        """Stop the worker pool (idempotent; inline mode is a no-op).

        Escalates per worker: cooperative STOP handshake, then
        ``join``, then ``terminate`` (SIGTERM), then ``kill`` (SIGKILL)
        -- so a wedged or fault-injected worker can never leak past an
        exception path (``Simulation`` is a context manager and calls
        this from ``__exit__``).
        """
        if self._closed:
            return
        self._closed = True
        if self._processes and self._procs:
            try:
                self._ctrl[CTRL_CMD] = CMD_STOP
                self._start_barrier.wait(timeout=5.0)
            except Exception:
                pass
            self._shutdown_procs()
        self._release()

    def _emergency_stop(self) -> None:
        """Tear the pool down without the cooperative handshake.

        Used when the step protocol itself failed (broken barrier, dead
        or wedged workers): the STOP command could never be delivered,
        so go straight to the join -> terminate -> kill escalation.
        """
        self._closed = True
        if self._processes and self._procs:
            self._shutdown_procs(join_first=0.5)
        self._release()

    def _release(self) -> None:
        """Drop every view of the shared segments, so their mappings are
        unmapped now rather than when the backend is collected.  The
        control words stay readable (:attr:`pending_flux`) as a copy."""
        if self._bound:
            self._ctrl = self._ctrl.copy()
        self._shared = {}
        self._pools = []
        self._channels = None
        self._workers = []

    def _shutdown_procs(self, join_first: float = 5.0) -> None:
        for p in self._procs:
            p.join(timeout=join_first)
            if p.is_alive():
                p.terminate()
                p.join(timeout=5.0)
            if p.is_alive():
                p.kill()
                p.join(timeout=5.0)
        for pipe in self._pipes:
            try:
                pipe.close()
            except OSError:
                pass
        self._procs = []
        self._pipes = []
