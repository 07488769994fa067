"""The wind-tunnel simulation driver (the NumPy reference engine).

Assembles the four sub-steps of the algorithm -- collisionless motion,
boundary enforcement, collision-partner selection (cell indexing +
randomized sort + even/odd pairing + selection rule) and collision --
into the paper's time-stepping loop, with the reservoir running its
self-collisions on the side and the sampler accumulating time averages
after the transient.

This driver *is* the physics-reference ("float64") engine, over one
block or R (the replica ensemble, :mod:`repro.ensemble`, is this class
with a keyed stream source); the CM-2 emulation engine
(:mod:`repro.core.engine_cm`) is this class on the counting path with
three fixed-point kernels swapped in (``kernels``).
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

import numpy as np

from repro.constants import DEFAULT_SORT_SCALE
from repro.core import motion
from repro.core.boundary import (
    BoundaryStats,
    WindTunnelBoundaries,
    check_wall_model,
)
from repro.core.cells import assign_cells
from repro.core.collision import collide_adjacent_pairs
from repro.core.pairing import even_odd_pairs
from repro.core.particles import ParticleArrays
from repro.core.reservoir import Reservoir
from repro.core.sampling import CellSampler
from repro.core.selection import fused_select_collide, select_collisions
from repro.core.sortstep import IncrementalSorter, sort_by_cell
from repro.errors import ConfigurationError
from repro.geometry.domain import Domain
from repro.perf import PerfLedger
from repro.geometry.wedge import Wedge
from repro.physics.freestream import Freestream
from repro.physics.molecules import MolecularModel, maxwell_molecule
from repro.rng import SeedLike, block_streams, make_rng

#: Maximum rejection-sampling passes when seeding around the wedge.
#: Each pass re-draws only the offending particles (rejection fraction
#: ~ wedge area / domain area < 1/2 per pass), so 64 passes put the
#: residual probability below 2**-64 for any legal geometry; a failure
#: to converge indicates a broken geometry and raises.
SEED_REJECTION_PASSES = 64


def seed_flow_particles(
    config: "SimulationConfig",
    rng: np.random.Generator,
    volume_fractions: np.ndarray,
) -> ParticleArrays:
    """Fill the open region at freestream density (rejection sample).

    The seeding recipe of one block (:class:`Simulation` runs it once
    per block, from that block's stream): the draw order is part of the
    determinism contract -- velocities, rotational state, positions,
    permutation table, the wedge rejection re-draws, then (span domains
    only) the span positions -- so a given ``rng`` state always yields
    the same population bitwise.

    ``volume_fractions`` is the (flattened or gridded) open-volume
    field of ``config.domain``'s cells.
    """
    open_area = float(np.asarray(volume_fractions).sum())
    n_target = int(round(config.freestream.density * open_area))
    parts = ParticleArrays.from_freestream(
        rng,
        n_target,
        config.freestream,
        x_range=(0.0, config.domain.width),
        y_range=(0.0, config.domain.height),
        rotational_dof=config.model.rotational_dof,
    )
    if config.wedge is not None:
        # Rejection passes: re-draw positions of particles that landed
        # inside the wedge until none remain (area ratio ~0.97 per
        # pass).
        for _ in range(SEED_REJECTION_PASSES):
            bad = config.wedge.inside(parts.x, parts.y)
            n_bad = int(np.count_nonzero(bad))
            if n_bad == 0:
                break
            parts.x[bad] = rng.uniform(0.0, config.domain.width, size=n_bad)
            parts.y[bad] = rng.uniform(0.0, config.domain.height, size=n_bad)
        # Never hand back a population with particles embedded in the
        # solid: a run started from such a state silently corrupts the
        # early flow field (phantom wedge-interior collisions and bogus
        # surface loads).
        n_bad = int(np.count_nonzero(config.wedge.inside(parts.x, parts.y)))
        if n_bad:
            raise ConfigurationError(
                f"flow seeding failed to converge: {n_bad} particles "
                f"remain inside the wedge after {SEED_REJECTION_PASSES} "
                "rejection passes (is the open area a vanishing "
                "fraction of the domain?)"
            )
    if config.domain.has_span:
        parts.z = rng.uniform(0.0, config.domain.depth, size=parts.n)
    return parts


@dataclass(frozen=True)
class SimulationConfig:
    """Everything needed to define a wind-tunnel run.

    The defaults reproduce a scaled version of the paper's validation
    configuration: Mach 4 flow over a 30-degree wedge (leading edge 20
    cells in, 25-cell base) on a 98 x 64 grid.

    Parameters
    ----------
    domain, freestream, wedge:
        The tunnel, the oncoming stream, and the body (``None`` for an
        empty tunnel).  ``domain`` is a :class:`Domain` or, for the
        z-periodic slab of the paper's Future Work, a
        :class:`repro.geometry.domain3d.Domain3D` (the body becomes a
        prism, ``freestream.density`` is per unit cube, and sampled
        fields are the span average on the x-y footprint -- which the
        2-D run at the same areal density must reproduce).  ``wedge``
        accepts any body implementing the
        :mod:`repro.geometry.bodies` seam (:class:`Wedge`,
        :class:`~repro.geometry.bodies.Cylinder`,
        :class:`~repro.geometry.bodies.Step`); the field keeps its
        historical name for compatibility.
    model:
        Molecular model (Maxwell diatomic by default).
    sort_scale:
        Randomization factor of the sort keys (1 disables mixing; the
        ablation configuration).
    sort_kernel:
        Kernel of the collision stage (:func:`collision_stage`):
        ``"incremental"`` (default) rebuilds an indexed cell-contiguous
        order each step and pairs/collides through it, moving particle
        data only every 32nd step (host-performance mode; the one
        kernel the ensemble engine runs); ``"counting"`` physically
        re-sorts every step with the fused counting sort and pairs
        even/odd neighbours (the paper-faithful CM-2 rank-sort
        analogue, one block only).
    plunger_trigger:
        Upstream plunger withdrawal point, cell widths.
    reservoir_fraction:
        Initial reservoir population as a fraction of the flow
        population (the paper idles ~10% of its particles there).
    reservoir_mix_rounds:
        Reservoir self-collision rounds per step.
    seed:
        Master seed; every sub-stream derives from it.
    wall_model:
        Tunnel floor/ceiling gas-surface model (see
        :data:`repro.core.boundary.WALL_MODELS`); the paper's inviscid
        "specular" by default.
    accommodation:
        Maxwell-model accommodation coefficient (only the "maxwell"
        wall model reads it).
    scenario:
        Registry id of the scenario this config was built from
        (``None`` for hand-assembled configs).  Pure metadata: carried
        into snapshots and telemetry, never read by the physics.
    """

    domain: Domain = field(default_factory=Domain)
    freestream: Freestream = field(default_factory=Freestream)
    wedge: Optional[Wedge] = field(default_factory=Wedge)
    model: MolecularModel = field(default_factory=maxwell_molecule)
    sort_scale: int = DEFAULT_SORT_SCALE
    sort_kernel: str = "incremental"
    plunger_trigger: float = 4.0
    reservoir_fraction: float = 0.1
    reservoir_mix_rounds: int = 1
    seed: SeedLike = None
    wall_model: str = "specular"
    accommodation: float = 1.0
    scenario: Optional[str] = None

    def __post_init__(self) -> None:
        if self.wedge is not None:
            self.wedge.validate_in(self.domain)
            if isinstance(self.wedge, Wedge):
                self._warn_if_detached()
        if not 0.0 <= self.reservoir_fraction <= 1.0:
            raise ConfigurationError("reservoir_fraction must be in [0, 1]")
        if self.reservoir_mix_rounds < 0:
            raise ConfigurationError("reservoir_mix_rounds must be >= 0")
        if self.sort_kernel not in ("incremental", "counting"):
            raise ConfigurationError(
                f"unknown sort_kernel {self.sort_kernel!r}; expected "
                "'incremental' or 'counting'"
            )
        check_wall_model(self.wall_model, self.accommodation)
        self.freestream.check_selection_rule_validity()

    def _warn_if_detached(self) -> None:
        """Warn when the wedge angle detaches the shock at this Mach.

        Detached (bow-shock) flows simulate fine, but the theta-beta-M
        validation metrology assumes an attached oblique shock, so the
        configuration flags the regime change instead of letting the
        analysis fail mysteriously later.
        """
        import math
        import warnings

        from repro.physics import theory

        theta = math.radians(self.wedge.angle_deg)
        mach, gamma = self.freestream.mach, self.freestream.gamma
        # One deflection sweep decides (the attachment limit rises with
        # Mach, and the root search stops at ATTACHMENT_MACH_HI); the
        # root itself is found only to word the warning.
        if mach > 1.0 and theta < theory.max_deflection(
            min(mach, theory.ATTACHMENT_MACH_HI), gamma
        )[0]:
            return
        try:
            m_min = theory.minimum_attachment_mach(theta, gamma)
        except ConfigurationError:
            m_min = float("inf")
        if mach < m_min:
            warnings.warn(
                f"Mach {self.freestream.mach:g} is below the attachment "
                f"limit {m_min:.2f} for a {self.wedge.angle_deg:g} deg "
                "wedge: expect a detached bow shock (oblique-shock "
                "metrology will not apply)",
                stacklevel=3,
            )


@dataclass(frozen=True)
class StepDiagnostics:
    """Per-step observability: what the step did and what it conserved.

    ``n_flow``, ``n_reservoir`` and ``n_collisions`` are ints for one
    block and per-block tuples for R (an ensemble's replicas, in
    ``replica_ids`` order); the ``*_total`` properties sum either.
    """

    step: int
    n_flow: Union[int, Tuple[int, ...]]
    n_reservoir: Union[int, Tuple[int, ...]]
    n_candidates: int
    n_collisions: Union[int, Tuple[int, ...]]
    pairing_efficiency: float
    mean_collision_probability: float
    boundary: BoundaryStats
    total_energy: float
    momentum_x: float
    #: Fraction of flow particles whose cell changed this step
    #: (``None`` outside the incremental sort kernel).
    sort_moved_fraction: Optional[float] = None
    #: Order rebuilds performed this step: one per worker (``None``
    #: outside the incremental kernel).
    sort_rebuilds: Optional[int] = None
    #: Wall-clock seconds by phase for this step (from the perf ledger;
    #: ``None`` when the ledger is disabled).
    phase_seconds: Optional[dict] = None
    #: Recovery events absorbed on the way to this (completed) step --
    #: a tuple of :class:`repro.resilience.supervisor.RecoveryEvent` --
    #: set only by supervised execution; ``None`` on an undisturbed step.
    recovery: Optional[tuple] = None

    @property
    def n_flow_total(self) -> int:
        """Flow particles over all blocks."""
        return _total(self.n_flow)

    @property
    def n_reservoir_total(self) -> int:
        """Reservoir particles over all blocks."""
        return _total(self.n_reservoir)

    @property
    def n_collisions_total(self) -> int:
        """Collisions over all blocks."""
        return _total(self.n_collisions)


def _total(count: Union[int, Tuple[int, ...]]) -> int:
    """One block's count as is, R blocks' summed."""
    return int(sum(count)) if isinstance(count, tuple) else count


#: The phases of a shard's diagnostics row, in the order the sharded
#: backend books them: the step's own phases plus "exchange", the
#: migration a serial step does not have.
ROW_PHASES = (
    "motion", "exchange", "sort", "selection", "collision", "reservoir",
    "index",
)

_BOUNDARY_FIELDS = tuple(f.name for f in dataclasses.fields(BoundaryStats))

#: One block's step as a float64 row -- the sharded backend's shared
#: per-shard diagnostics matrix.  Every column is a count, a sum or
#: seconds, so W rows merge by column sums (:func:`merge_diagnostics`).
DIAGNOSTICS_ROW = (
    "n_flow", "n_reservoir", "n_pairs_total", "n_candidates",
    "n_collisions", "probability_sum", "moved", "sort_rebuilds",
    "total_energy", "momentum_x", *_BOUNDARY_FIELDS, *ROW_PHASES,
)


def pack_diagnostics(
    row: np.ndarray, diag: StepDiagnostics, stage: CollisionStageResult
) -> None:
    """Write one block's :func:`step_stage2` result into ``row``."""
    values = {
        **dataclasses.asdict(diag.boundary),
        **(diag.phase_seconds or {}),
        "n_flow": diag.n_flow,
        "n_reservoir": diag.n_reservoir,
        "n_pairs_total": stage.n_pairs_total,
        "n_candidates": stage.n_candidates,
        "n_collisions": stage.n_collisions,
        "probability_sum": stage.probability_sum,
        "moved": stage.moved,
        "sort_rebuilds": diag.sort_rebuilds or 0,
        "total_energy": diag.total_energy,
        "momentum_x": diag.momentum_x,
    }
    row[:] = [values.get(name, 0.0) for name in DIAGNOSTICS_ROW]


def merge_diagnostics(
    rows: np.ndarray, step: int, perf: PerfLedger
) -> StepDiagnostics:
    """One step's diagnostics from W shards' :data:`DIAGNOSTICS_ROW` rows.

    The phase seconds are summed across shards (CPU-seconds) and booked
    into ``perf``, which closes the step.
    """
    total = {name: rows[:, i].sum() for i, name in enumerate(DIAGNOSTICS_ROW)}
    for name in ROW_PHASES:
        perf.record(name, float(total[name]))
    n_flow = int(total["n_flow"])
    perf.end_step(n_particles=n_flow)
    n_pairs = int(total["n_pairs_total"])
    n_cand = int(total["n_candidates"])
    rebuilds = int(total["sort_rebuilds"]) or None
    boundary = {name: int(total[name]) for name in _BOUNDARY_FIELDS}
    boundary["plunger_reset"] = bool(boundary["plunger_reset"])
    return StepDiagnostics(
        step=step,
        n_flow=n_flow,
        n_reservoir=int(total["n_reservoir"]),
        n_candidates=n_cand,
        n_collisions=int(total["n_collisions"]),
        pairing_efficiency=(n_cand / n_pairs) if n_pairs else 0.0,
        mean_collision_probability=(
            float(total["probability_sum"]) / n_cand if n_cand else 0.0
        ),
        boundary=BoundaryStats(**boundary),
        total_energy=float(total["total_energy"]),
        momentum_x=float(total["momentum_x"]),
        sort_moved_fraction=(
            (float(total["moved"]) / n_flow if n_flow else 0.0)
            if rebuilds else None
        ),
        sort_rebuilds=rebuilds,
        phase_seconds=perf.last_step_seconds if perf.enabled else None,
    )


def _block_sizes(pop: ParticleArrays):
    """``pop.n`` for one block, its per-block row counts for R."""
    return pop.n if pop.starts is None else tuple(np.diff(pop.starts).tolist())


def _joined(blocks: list) -> ParticleArrays:
    """One population of ``blocks``: declared for several, none for one."""
    return blocks[0] if len(blocks) == 1 else ParticleArrays.from_blocks(blocks)


#: The collision stage's timed phases, in execution order ("index" is
#: the indexed kernel's mover-count pass over the cells the boundary
#: phase left current, outside the paper's four-phase split and empty
#: on the counting kernel).
COLLISION_PHASES = ("index", "sort", "selection", "collision")


@dataclass(frozen=True)
class CollisionStageResult:
    """Counters and phase boundaries of one :func:`collision_stage`."""

    #: Pairs the pairing could form at best (``n // 2`` on the indexed
    #: kernel, the even/odd pair count on the counting kernel) -- the
    #: denominator of the pairing efficiency.
    n_pairs_total: int
    n_candidates: int
    n_collisions: int
    #: Sum of the candidates' collision probabilities.
    probability_sum: float
    #: Rows whose cell changed since the previous step (0 on the
    #: counting kernel, which keeps no per-row history).
    moved: int
    #: ``perf_counter()`` at the start of the stage and at the end of
    #: each of :data:`COLLISION_PHASES`.
    t: tuple
    #: ``n_collisions`` per block, one entry per stream handed in.
    collisions_by_block: tuple = ()

    def spans(self) -> tuple:
        """``(phase, t_start, t_end)`` per :data:`COLLISION_PHASES`."""
        return tuple(zip(COLLISION_PHASES, self.t[:-1], self.t[1:]))

    @property
    def pairing_efficiency(self) -> float:
        """Candidates per pair the pairing could form at best."""
        return (
            self.n_candidates / self.n_pairs_total
            if self.n_pairs_total else 0.0
        )

    @property
    def mean_probability(self) -> float:
        """Mean collision probability of the candidates."""
        return (
            self.probability_sum / self.n_candidates
            if self.n_candidates else 0.0
        )


def collision_stage(
    parts: ParticleArrays,
    config: "SimulationConfig",
    vf_flat: np.ndarray,
    rng,
    sorter,
    step: int,
    kernels=None,
) -> CollisionStageResult:
    """Sort, pair, select and collide a population of blocks.

    The collision half of the time step, spelled once.  A *block* is a
    population with its own random stream: the serial engine's whole
    population, a shard worker's slab -- or each of the ensemble
    engine's R replicas, with ``rng`` the R replica streams.
    ``parts.cell`` must be current (stage 1 leaves it so).
    ``config.domain`` says what a cell is (a square, or a
    :class:`~repro.geometry.domain3d.Domain3D` cube); nothing past the
    cell index knows.  ``sorter`` picks the kernel:

    * a sorter -- rebuild ``order`` / ``counts`` / ``offsets``, then
      draw the per-cell reflection offsets, select, pair what collides
      and collide it
      (:func:`repro.core.selection.fused_select_collide`).  The
      :class:`IncrementalSorter` (``"incremental"``) indexes one block,
      or the R blocks ``parts.starts`` declares by (block, cell), and
      makes the order physical when ``step``, the caller's
      completed-step count, says so;
    * ``None`` (``"counting"``, one block) -- the paper's scheme:
      physically counting-sort the population with randomized
      intra-cell order, pair even/odd neighbours, select, collide
      adjacent rows.  ``kernels`` (``None``: the reference's) swaps in
      the sort (``kernels.sort(parts, step)``, returning the per-cell
      counts) and the collision of the accepted pairs
      (``kernels.collide(parts, accepted, step)``): the CM-2 engine's
      fixed-point set, :class:`repro.core.engine_cm.FixedPointKernels`.

    Every random number of a block comes from its stream in a fixed
    order, so two callers handing in the same block and stream state
    leave the same state behind -- the serial/sharded and replica/solo
    bitwise contracts.  Its one caller, :func:`step_stage2`, books the
    timings and counters.
    """
    exchange_probability = config.model.internal_exchange_probability
    t0 = time.perf_counter()
    if sorter is not None:
        sorter.detect(parts)
        t_index = time.perf_counter()
        sres = sorter.update(parts, step)
        t_sort = time.perf_counter()
        # Pairing, selection and collision in one pass (pairing runs
        # after selection when the model allows); the kernel hands back
        # the timestamp of its selection/collision boundary, keeping
        # the paper's two line items apart.
        fused = fused_select_collide(
            parts,
            sres.order,
            sres.counts,
            sres.offsets,
            config.freestream,
            config.model,
            volume_fractions=vf_flat,
            rng=rng,
            internal_exchange_probability=exchange_probability,
        )
        t_selection = fused.t_boundary
        n_pairs_total = parts.n // 2
        n_candidates = fused.n_candidates
        n_collisions = fused.n_collisions
        probability_sum = fused.probability_sum
        collisions_by_block = fused.collisions_by_block
        moved = sres.moved
    else:
        # One kernel yields the sorted order *and* the per-cell
        # histogram the selection rule needs (no separate bincount).
        t_index = t0
        if kernels is None:
            counts = sort_by_cell(
                parts,
                rng=rng,
                scale=config.sort_scale,
                n_cells=config.domain.n_cells,
            ).counts
        else:
            counts = kernels.sort(parts, step)
        t_sort = time.perf_counter()
        pairs = even_odd_pairs(parts.cell, scratch=parts.scratch)
        draws = None
        if parts.scratch is not None and not config.freestream.is_near_continuum:
            draws = parts.scratch.array("sel_draws", pairs.n_pairs)
            rng.random(out=draws)
        selection = select_collisions(
            parts,
            pairs,
            config.freestream,
            config.model,
            counts,
            volume_fractions=vf_flat,
            rng=rng,
            draws=draws,
        )
        t_selection = time.perf_counter()
        # Sorted even/odd pairs are adjacent rows: collide contiguous
        # two-row blocks instead of gather/scatter by address.
        accepted = np.flatnonzero(selection.accept)
        if kernels is None:
            collide_adjacent_pairs(
                parts,
                accepted,
                rng=rng,
                internal_exchange_probability=exchange_probability,
            )
        else:
            kernels.collide(parts, accepted, step)
        n_pairs_total = pairs.n_pairs
        n_candidates = pairs.n_candidates
        n_collisions = selection.n_collisions
        # probability is already zeroed on non-candidates, so the plain
        # sum is the candidate sum.
        probability_sum = float(selection.probability.sum())
        collisions_by_block = (n_collisions,)
        moved = 0
    t_end = time.perf_counter()
    return CollisionStageResult(
        n_pairs_total=n_pairs_total,
        n_candidates=n_candidates,
        n_collisions=n_collisions,
        probability_sum=probability_sum,
        moved=moved,
        t=(t0, t_index, t_sort, t_selection, t_end),
        collisions_by_block=collisions_by_block,
    )


def step_stage1(sim, rng, sample: bool, kernels=None) -> BoundaryStats:
    """Stage 1 of the step: collisionless motion, indexing, boundaries.

    ``sim`` is :class:`Simulation`-shaped -- the whole run, or a shard
    worker (:class:`repro.parallel.backend.ShardWorker`), whose
    ``reservoir`` may be ``None`` -- and ``rng`` the step's stream, one
    generator per block.  One perf phase: the paper reports "particle
    motion and boundary interaction" as a single 14% line item.
    Surface loads accumulate only during sampling steps; each block's
    exits, refill and surface hits go to its own reservoir block,
    stream and sampler.  Stage 1 may rebuild ``sim.particles``; it
    leaves the cell column current.  ``kernels`` (see
    :func:`collision_stage`) may finish the boundary pass:
    ``kernels.bound(sim.particles, bstats)``.

    A shard exchanges its boundary-crossers between the two stages;
    that is the only point of the step that needs a barrier.
    """
    with sim.perf.phase("motion"):
        motion.advance(sim.particles, sim.config.domain)
        assign_cells(sim.particles, sim.config.domain)
        sim.boundaries.surface_sampler = sim.surface if sample else None
        sim.particles, bstats = sim.boundaries.apply_rebuilding(
            sim.particles, sim.reservoir, rng, indexed=True
        )
        if kernels is not None:
            kernels.bound(sim.particles, bstats)
    return bstats


def step_stage2(
    sim, rng, step: int, bstats: BoundaryStats, sample: bool, kernels=None
) -> Tuple[StepDiagnostics, CollisionStageResult]:
    """Stage 2 of the step: collide, mix the reservoir, sample.

    Runs :func:`collision_stage` on ``sim.particles`` (``step`` is the
    completed-step count that keys the re-sort schedule; ``kernels`` as
    there), the reservoir's self-collisions (when ``sim`` has a
    reservoir and ``reservoir_mix_rounds``), and on sampling steps the
    sampler, the surface samplers and the probes; then closes the step
    in ``sim.perf``.  Returns the step's diagnostics (numbered ``step +
    1``) and the collision counters behind them, which a shard packs
    into its diagnostics row (:func:`pack_diagnostics`).
    """
    cfg = sim.config
    parts = sim.particles
    perf = sim.perf
    stage = collision_stage(
        parts, cfg, sim._vf_flat, rng, sim.sort_state, step, kernels
    )
    perf.record_spans(stage.spans())

    # Side work: the reservoir Gaussianizes itself.  Charged to its own
    # phase -- the paper's four-phase split does not include it.
    if sim.reservoir is not None and cfg.reservoir_mix_rounds:
        with perf.phase("reservoir"):
            sim.reservoir.mix(rng, rounds=cfg.reservoir_mix_rounds)

    if sample:
        sim.sampler.accumulate(parts)
        for surface in sim.surfaces:
            surface.end_step()
        for probe in sim.probes:
            probe.sample(parts)

    perf.end_step(n_particles=parts.n)
    indexed = sim.sort_state is not None
    diag = StepDiagnostics(
        step=step + 1,
        n_flow=_block_sizes(parts),
        n_reservoir=(
            0 if sim.reservoir is None
            else _block_sizes(sim.reservoir.particles)
        ),
        n_candidates=stage.n_candidates,
        n_collisions=(
            stage.n_collisions if parts.starts is None
            else stage.collisions_by_block
        ),
        pairing_efficiency=stage.pairing_efficiency,
        mean_collision_probability=stage.mean_probability,
        boundary=bstats,
        total_energy=parts.total_energy(),
        momentum_x=float(parts.u.sum()),
        sort_moved_fraction=(
            (stage.moved / parts.n if parts.n else 0.0) if indexed else None
        ),
        sort_rebuilds=1 if indexed else None,
        phase_seconds=perf.last_step_seconds if perf.enabled else None,
    )
    return diag, stage


class SerialBackend:
    """In-process execution of the step loop on the whole domain.

    The default backend: one worker (this process) owns every cell and
    draws from ``sim.streams(step)`` -- the master RNG stream, or one
    stream per block of an ensemble, whose step is this one over R
    blocks.  The sharded backend
    (:class:`repro.parallel.backend.ShardedBackend`) implements the same
    four-method seam -- ``bind`` / ``step`` / ``gather`` / ``close`` --
    over slab-decomposed worker processes; :class:`Simulation` only ever
    talks to the seam.  Both also run the invariant auditor's per-block
    checks where the blocks live (``audit``).
    """

    #: Worker count the backend runs with (diagnostic; 1 for serial).
    n_workers = 1

    def bind(self, sim: "Simulation") -> "SerialBackend":
        """Attach to a fully constructed simulation (no-op serially)."""
        return self

    def gather(self, sim: "Simulation") -> None:
        """Make ``sim.particles``/samplers current (no-op serially)."""

    def close(self) -> None:
        """Release backend resources (no-op serially)."""

    def audit(self, sim: "Simulation") -> list:
        """The per-block audit over the whole population: one call, with
        one sorter over the blocks it declares (an ensemble's R)."""
        from repro.resilience.audit import audit_block

        return [audit_block(
            sim.particles, sim.config.domain, {"step": sim.step_count},
            sorter=sim.sort_state,
        )]

    def step(self, sim: "Simulation", sample: bool = False) -> StepDiagnostics:
        """Advance ``sim`` by one time step, over one block or R."""
        rng = sim.streams(sim.step_count + 1)
        bstats = step_stage1(sim, rng, sample, sim.kernels)
        diag, _ = step_stage2(
            sim, rng, sim.step_count, bstats, sample, sim.kernels
        )
        sim.step_count += 1
        return diag


class Simulation:
    """The reference wind-tunnel simulation.

    Typical use::

        sim = Simulation(SimulationConfig(seed=7))
        sim.run(300)                  # transient to steady state
        sim.run(400, sample=True)     # accumulate the time average
        rho = sim.sampler.density_ratio(sim.config.freestream.density)

    ``backend`` selects the execution engine: ``None`` (the default)
    steps in-process via :class:`SerialBackend`; a
    :class:`repro.parallel.backend.ShardedBackend` decomposes the grid
    into x-slabs and steps them on worker processes.

    ``telemetry`` attaches a :class:`repro.telemetry.Telemetry` hub:
    every completed step feeds it diagnostics (metrics, spans, physics
    observables), and sharded backends allocate shared-memory span
    rings for their workers when one is present at bind time.

    **One block or R.**  :meth:`streams` says how many blocks the run
    has: one generator per block.  The constructor seeds one population
    per block from that block's step-0 stream and, for several, joins
    them as the declared blocks of one flow and one reservoir
    (``starts``); one block declares none.  Every other piece -- the
    boundaries, the sorter, the sampler (one set of cells per block),
    the surface samplers (one per block: :attr:`surfaces`) and the
    step -- is the same code for either, which is all
    :class:`repro.ensemble.EnsembleEngine` is: this class with the
    stream source keyed per replica.
    """

    #: The counting path's swappable kernels (:func:`collision_stage`):
    #: ``None`` runs the reference's own; the CM-2 engine sets its
    #: fixed-point set.
    kernels = None

    def __init__(
        self,
        config: SimulationConfig,
        backend=None,
        telemetry=None,
    ) -> None:
        self.config = config
        self.rng = make_rng(config.seed)
        self.step_count = 0
        #: Telemetry hub (set before the backend binds so sharded
        #: backends can size their worker span rings; ``None`` disables
        #: all telemetry at zero per-step cost).
        self.telemetry = telemetry
        #: Per-phase wall-clock ledger (the paper's motion/sort/
        #: selection/collision split, measured).
        self.perf = PerfLedger()

        # Fractional cell volumes (the selection rule and the sampler
        # both need them when a wedge cuts the grid).
        self.volume_fractions = config.domain.open_volume_fractions(
            config.wedge
        )
        self._vf_flat = self.volume_fractions.reshape(-1)

        self.boundaries = WindTunnelBoundaries.from_config(config)
        # Each block's stream seeds its flow, then its reservoir block.
        streams = block_streams(self.streams(0))
        blocks = [
            seed_flow_particles(config, rng, self._vf_flat) for rng in streams
        ]
        self.particles = _joined(blocks)
        self.reservoir = Reservoir(
            config.freestream, rotational_dof=config.model.rotational_dof
        )
        self.reservoir.particles = _joined(
            [self.reservoir.particles] * len(blocks)
        ).enable_scratch()
        self.reservoir.deposit(
            streams,
            [int(round(config.reservoir_fraction * b.n)) for b in blocks],
        )
        self.sampler = CellSampler(
            config.domain, self.volume_fractions, n_blocks=len(blocks)
        )
        #: Surface-load accumulator (pressure / drag on the wedge), one
        #: per block -- a tuple for several (see :attr:`surfaces`);
        #: armed only during sampling steps so its averages align with
        #: the field averages.  Strip-resolved surface metrology is
        #: wedge-specific and per unit span; other bodies and span
        #: domains run without it.
        if isinstance(config.wedge, Wedge) and not config.domain.has_span:
            from repro.core.surface import SurfaceSampler

            surfaces = tuple(SurfaceSampler(config.wedge) for _ in blocks)
            self.surface = surfaces[0] if len(surfaces) == 1 else surfaces
        else:
            self.surface = None
        #: Optional extra probes (e.g. analysis.vdf.VDFProbe); each
        #: object's ``sample(particles)`` runs on sampling steps.
        self.probes: list = []
        self.particles.enable_scratch()
        #: Indexed-order state of the ``"incremental"`` kernel (the
        #: canonical order permutation and the per-row cell cache);
        #: ``None`` on the ``"counting"`` kernel.  Sharded backends give
        #: each worker its own sorter instead.
        self.sort_state = (
            IncrementalSorter(config.domain.n_cells)
            if config.sort_kernel == "incremental" else None
        )
        assign_cells(self.particles, config.domain)
        #: Execution backend (the seam): bound last, once every piece of
        #: state it may need to decompose or mirror exists.
        self.backend = backend if backend is not None else SerialBackend()
        self.backend.bind(self)
        if telemetry is not None:
            telemetry.attach(self)

    # -- stepping -----------------------------------------------------------

    def streams(self, step: int):
        """The random stream of step ``step`` (``0`` seeds the run).

        One generator per block (:func:`repro.rng.block_streams`).  The
        serial run draws every step from its one advancing PCG64
        generator ``rng``; the ensemble keys one Philox stream per
        replica instead -- the only thing it overrides.
        """
        return self.rng

    @property
    def surfaces(self) -> tuple:
        """The surface samplers, one per block (empty without a wedge)."""
        return () if self.surface is None else block_streams(self.surface)

    def step(self, sample: bool = False) -> StepDiagnostics:
        """Advance the simulation by one time step (via the backend)."""
        diag = self.backend.step(self, sample=sample)
        if self.telemetry is not None:
            self.telemetry.on_step(self, diag)
        return diag

    def gather(self) -> None:
        """Synchronize driver-side state with the backend.

        Sharded runs keep the authoritative particle population inside
        the worker shards; after ``gather()`` the driver's
        ``self.particles`` (and reservoir) reflect the current global
        state.  Serial runs are always current, so this is a no-op.
        """
        self.backend.gather(self)

    def close(self) -> None:
        """Shut down the backend (terminates sharded worker processes)."""
        self.backend.close()

    def __enter__(self) -> "Simulation":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def run(self, n_steps: int, sample: bool = False) -> StepDiagnostics:
        """Run ``n_steps`` steps; returns the final step's diagnostics."""
        if n_steps <= 0:
            raise ConfigurationError("n_steps must be positive")
        diag = None
        for _ in range(n_steps):
            diag = self.step(sample=sample)
        return diag

    # -- results ------------------------------------------------------------

    def density_ratio_field(self, correct_volumes: bool = True) -> np.ndarray:
        """Time-averaged density / freestream density, ``(nx, ny)``."""
        return self.sampler.density_ratio(
            self.config.freestream.density, correct_volumes=correct_volumes
        )
