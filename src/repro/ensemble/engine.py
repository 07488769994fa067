"""The replica-batched ensemble engine.

DSMC answers are noisy: one run yields a point estimate with no error
bar.  The classical remedy -- run R independent seeds and average --
multiplies wall-clock by R when executed sequentially, yet at the
30k-particle scales where ensemble statistics matter most, each solo
step is dominated by per-kernel dispatch overhead, not arithmetic.
This engine therefore steps all R replicas as **one wide population**:
every hot kernel (motion, boundary scans, the cell sort, pairing,
selection, collision) runs once over ``sum(N_r)`` rows instead of R
times over ``N_r`` rows.

**A replica is a block.**  The step is the serial engine's, over R
blocks instead of one: the boundary phase is
:meth:`repro.core.boundary.WindTunnelBoundaries.apply_rebuilding` with
the R-block reservoir, the R streams and surface samplers, the
collision half is :func:`repro.core.simulation.collision_stage` with
the R replica streams and the serial engine's
:class:`repro.core.sortstep.IncrementalSorter` behind its sorter seam,
and the reservoir mix is the serial engine's :meth:`Reservoir.mix`
call with the R streams -- the same code the serial engine and every
shard worker run on one block, on the same
every-:data:`~repro.core.sortstep.RESORT_PERIOD` physical re-sort
schedule.  What lives here is what there is one of per replica: the
samplers and the streams.

**Layout.**  Replica-packed rows, physically blocked by replica at all
times, in the flow and in the reservoir alike: replica ``r`` owns the
contiguous row range ``starts[r]:starts[r+1]`` of each population's
``starts``, which the population's own surgery keeps current.  Because
the flow declares those blocks, the sorter keys on the composite
``block * n_cells + cell``
(:func:`repro.core.sortstep.blocked_cell_key`) -- replica above cell in
sort-key significance -- so the order never crosses a block, a
re-sort never moves a particle out of its block, and pairing never
straddles replicas.  Block *position* (not replica id) keeps the key
dense, so NumPy's 16-bit radix path still applies up to
``R * n_cells <= 65536`` keys.

**Determinism contract.**  All randomness comes from counter-keyed
Philox streams ``shard_stream(seed, 0, step, replica=rid)`` -- a pure
function of the key, never advanced across steps.  Within a step every
replica's draws happen in a fixed order (deposits and refills in the
boundary pass; pairing offsets, acceptance, collision signs and
transpositions in the shared kernel; the reservoir mix's shuffle, signs
and transpositions in :meth:`Reservoir.mix` -- all per block) from its
own stream,
and all batched arithmetic is elementwise or block-local, so replica
``r`` of a batched run is **bitwise identical** to a solo engine run
(``R = 1``) keyed for ``r`` -- asserted by
:func:`verify_replica_equality` and pinned in CI.

Engine restrictions (enforced at construction): no span domain (the
blocked sampler keys on 2-D cells, and no replica == solo test pins a
slab yet), specular walls only (the other wall models draw
per-crossing RNG inside full-population kernels, which would entangle
replicas),
``internal_exchange_probability == 1.0`` (the shared kernel makes the
relaxation knob's draws per block as well, but no replica == solo test
pins that combination at engine level yet) and the ``"incremental"``
sort kernel (the counting kernel's shuffle draws from one stream over
the whole population).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core import motion
from repro.core.boundary import BoundaryStats, WindTunnelBoundaries
from repro.core.cells import assign_cells
from repro.core.particles import COLUMN_NAMES, ParticleArrays
from repro.core.reservoir import Reservoir
from repro.core.sampling import (
    SAMPLER_FIELDS,
    EnsembleSampler,
    EnsembleStatistic,
    ensemble_statistic,
)
from repro.core.simulation import (
    SimulationConfig,
    collision_stage,
    seed_flow_particles,
)
from repro.core.sortstep import IncrementalSorter, blocked_cell_key
from repro.core.surface import SURFACE_FIELDS, SurfaceSampler
from repro.errors import ConfigurationError, ValidationError
from repro.geometry.wedge import Wedge
from repro.perf import PerfLedger
from repro.rng import shard_stream


@dataclass(frozen=True)
class EnsembleStepDiagnostics:
    """Per-step observability for one ensemble step.

    Per-replica tuples are ordered like ``replica_ids``; aggregate
    values sum over replicas.
    """

    step: int
    n_flow: Tuple[int, ...]
    n_reservoir: Tuple[int, ...]
    n_candidates: int
    n_collisions: Tuple[int, ...]
    mean_collision_probability: float
    boundary: BoundaryStats
    total_energy: float

    @property
    def n_flow_total(self) -> int:
        return int(sum(self.n_flow))

    @property
    def n_collisions_total(self) -> int:
        return int(sum(self.n_collisions))


class EnsembleEngine:
    """Step R replicas of one configuration as a single wide state.

    The state is two populations declaring the same R blocks, block
    ``r`` being replica ``replica_ids[r]``: ``particles`` (the flow) and
    ``reservoir.particles`` (one :class:`Reservoir`, as in the serial
    engine) -- plus one sampler block and surface sampler per replica.

    Parameters
    ----------
    config:
        The shared :class:`repro.core.simulation.SimulationConfig`.
        ``config.seed`` must be stateless (int / SeedSequence / None):
        every stream is re-derived per ``(seed, replica, step)`` key.
    n_replicas:
        Ensemble width R (replica ids ``0..R-1``).
    replica_ids:
        Explicit replica ids instead of ``range(R)`` -- the equality
        checker builds solo engines as ``replica_ids=[r]``.
    metrics:
        Optional :class:`repro.telemetry.metrics.MetricsRegistry`;
        each step publishes per-replica and aggregate gauges.
    """

    def __init__(
        self,
        config: SimulationConfig,
        n_replicas: Optional[int] = None,
        replica_ids: Optional[Sequence[int]] = None,
        metrics=None,
    ) -> None:
        if replica_ids is None:
            if n_replicas is None:
                raise ConfigurationError(
                    "EnsembleEngine needs n_replicas or replica_ids"
                )
            replica_ids = tuple(range(int(n_replicas)))
        else:
            replica_ids = tuple(int(r) for r in replica_ids)
            if n_replicas is not None and int(n_replicas) != len(replica_ids):
                raise ConfigurationError(
                    "n_replicas disagrees with len(replica_ids)"
                )
        self._init_static(config, replica_ids, metrics)

        # Seed each replica from its own step-0 keyed stream: initial
        # flow, then its reservoir block's deposit -- the same draw
        # order a solo engine uses, which is what makes
        # restored/solo/batched populations interchangeable.
        streams = [
            shard_stream(config.seed, 0, 0, replica=rid)
            for rid in self.replica_ids
        ]
        blocks = [
            seed_flow_particles(config, rng, self._vf_flat) for rng in streams
        ]
        parts = ParticleArrays.from_blocks(blocks).enable_scratch()
        assign_cells(parts, config.domain)
        self.particles = parts
        self.reservoir = Reservoir(config.freestream, config.model.rotational_dof)
        self.reservoir.particles = ParticleArrays.from_blocks(
            [self.reservoir.particles] * self.n_replicas
        ).enable_scratch()
        self.reservoir.deposit(
            streams,
            [int(round(config.reservoir_fraction * b.n)) for b in blocks],
        )
        self.sampler = EnsembleSampler(
            config.domain, self.n_replicas, self.volume_fractions
        )
        if isinstance(config.wedge, Wedge):
            self.surfaces = [
                SurfaceSampler(config.wedge) for _ in self.replica_ids
            ]
        else:
            self.surfaces = None
        self.step_count = 0

    @classmethod
    def _restore_shell(
        cls, config: SimulationConfig, replica_ids: Sequence[int]
    ) -> "EnsembleEngine":
        """Build an engine without seeding (checkpoint restore path).

        The caller (:func:`repro.io.snapshots.load_ensemble`) fills in
        the flow and reservoir blocks with their ``starts``, the sampler
        and surface accumulators and ``step_count`` from the archive;
        because every stream is a pure function of
        ``(seed, replica, step)``, no RNG state needs restoring and
        continuation is bitwise.
        """
        eng = cls.__new__(cls)
        eng._init_static(
            config, tuple(int(r) for r in replica_ids), None
        )
        return eng

    def _init_static(self, config, replica_ids, metrics) -> None:
        """Validate the configuration and build the stateless pieces."""
        if not replica_ids:
            raise ConfigurationError("ensemble needs at least one replica")
        if len(set(replica_ids)) != len(replica_ids):
            raise ConfigurationError("replica ids must be distinct")
        if any(r < 0 for r in replica_ids):
            raise ConfigurationError("replica ids must be non-negative")
        if isinstance(config.seed, np.random.Generator):
            raise ConfigurationError(
                "ensemble runs need a stateless seed (int or SeedSequence); "
                "a live Generator cannot key per-replica streams"
            )
        if config.domain.has_span:
            raise ConfigurationError(
                "the ensemble engine steps 2-D tunnels only: replica "
                "blocks and a span domain "
                f"({type(config.domain).__name__}) do not compose yet"
            )
        if config.wall_model != "specular":
            raise ConfigurationError(
                "the ensemble engine supports specular walls only "
                f"(got {config.wall_model!r}): other wall models draw "
                "per-crossing RNG that would entangle replicas"
            )
        if config.model.internal_exchange_probability != 1.0:
            raise ConfigurationError(
                "the ensemble engine requires "
                "internal_exchange_probability == 1.0 (the replica == "
                "solo contract is pinned for the fully mixing model only)"
            )
        if config.sort_kernel != "incremental":
            raise ConfigurationError(
                "the ensemble engine runs the 'incremental' sort kernel "
                f"only (got {config.sort_kernel!r}): the counting "
                "kernel's shuffle has no per-replica stream"
            )
        self.config = config
        self.replica_ids = tuple(replica_ids)
        self.n_replicas = len(self.replica_ids)
        self.metrics = metrics
        self.volume_fractions = config.domain.open_volume_fractions(
            config.wedge
        )
        self._vf_flat = self.volume_fractions.reshape(-1)
        self.boundaries = WindTunnelBoundaries(
            domain=config.domain,
            freestream=config.freestream,
            wedge=config.wedge,
            plunger_trigger=config.plunger_trigger,
            wall_model=config.wall_model,
            accommodation=config.accommodation,
        )
        self._sorter = IncrementalSorter(config.domain.n_cells)
        self.perf = PerfLedger()

    # -- stepping ---------------------------------------------------------

    def step(self, sample: bool = False) -> EnsembleStepDiagnostics:
        """Advance every replica by one time step."""
        cfg = self.config
        parts = self.particles
        n_cells = cfg.domain.n_cells
        perf = self.perf
        step_id = self.step_count + 1
        streams = [
            shard_stream(cfg.seed, 0, step_id, replica=rid)
            for rid in self.replica_ids
        ]

        # 1+2) Collisionless motion, then the boundary pass over R
        #    blocks: each replica's exits, refill and surface hits go
        #    to its own reservoir block, stream and sampler.
        with perf.phase("motion"):
            motion.advance(parts)
            self.boundaries.surface_sampler = self.surfaces if sample else None
            _, bstats = self.boundaries.apply_rebuilding(
                parts, self.reservoir, streams
            )

        # 3+4) The collision half of the step -- the one spelling
        #    shared with the serial engine and the shard workers, run
        #    on R blocks: the sorter orders the ensemble by (replica,
        #    cell), physically on the steps the step count schedules,
        #    and every draw comes per block from that replica's stream.
        stage = collision_stage(
            parts, cfg, self._vf_flat, streams, self._sorter,
            self.step_count,
        )
        perf.record_spans(stage.spans())

        # Side work: the reservoir Gaussianizes itself -- the serial
        # engine's call, each block shuffled from its replica's stream.
        if cfg.reservoir_mix_rounds:
            with perf.phase("reservoir"):
                self.reservoir.mix(streams, cfg.reservoir_mix_rounds)

        self.step_count += 1
        if sample:
            key = parts.scratch.array("blocked_key", parts.n, dtype=np.int64)
            blocked_cell_key(parts.cell, parts.starts, n_cells, out=key)
            self.sampler.accumulate(parts, key)
            if self.surfaces is not None:
                for surf in self.surfaces:
                    surf.end_step()

        perf.end_step(n_particles=parts.n)
        diag = EnsembleStepDiagnostics(
            step=self.step_count,
            n_flow=tuple(np.diff(parts.starts).tolist()),
            n_reservoir=tuple(
                np.diff(self.reservoir.particles.block_edges()).tolist()
            ),
            n_candidates=stage.n_candidates,
            n_collisions=stage.collisions_by_block,
            mean_collision_probability=stage.mean_probability,
            boundary=bstats,
            total_energy=parts.total_energy(),
        )
        if self.metrics is not None:
            self._publish_metrics(diag)
        return diag

    def run(
        self, n_steps: int, sample: bool = False
    ) -> EnsembleStepDiagnostics:
        """Run ``n_steps`` steps; returns the final step's diagnostics."""
        if n_steps <= 0:
            raise ConfigurationError("n_steps must be positive")
        diag = None
        for _ in range(n_steps):
            diag = self.step(sample=sample)
        return diag

    def run_schedule(
        self, transient: int, average: int
    ) -> EnsembleStepDiagnostics:
        """Transient then sampling phase (the scenario schedule)."""
        if transient > 0:
            self.run(transient)
        return self.run(average, sample=True)

    # -- telemetry --------------------------------------------------------

    def _publish_metrics(self, diag: EnsembleStepDiagnostics) -> None:
        m = self.metrics
        m.gauge("ensemble_replicas").set(self.n_replicas)
        m.gauge("ensemble_flow_total").set(diag.n_flow_total)
        m.gauge("ensemble_collisions_total").set(diag.n_collisions_total)
        m.gauge("ensemble_energy_total").set(diag.total_energy)
        for r, rid in enumerate(self.replica_ids):
            labels = {"replica": str(rid)}
            m.gauge("ensemble_flow", labels).set(diag.n_flow[r])
            m.gauge("ensemble_collisions", labels).set(
                diag.n_collisions[r]
            )
            m.gauge("ensemble_reservoir", labels).set(diag.n_reservoir[r])

    # -- results ----------------------------------------------------------

    def density_ratio_fields(
        self, correct_volumes: bool = True
    ) -> List[np.ndarray]:
        """Per-replica time-averaged density-ratio fields."""
        return [
            cs.density_ratio(
                self.config.freestream.density,
                correct_volumes=correct_volumes,
            )
            for cs in self.sampler.samplers()
        ]

    def ramp_pressure_ratios(self) -> Optional[List[float]]:
        """Per-replica mean ramp pressure / freestream static pressure."""
        if self.surfaces is None or self.surfaces[0].steps == 0:
            return None
        fs = self.config.freestream
        p_inf = fs.density * fs.rt
        return [
            float(surf.ramp_pressure()[2:-2].mean() / p_inf)
            for surf in self.surfaces
        ]

    def statistic(
        self, values: Sequence[float], confidence: float = 0.95
    ) -> EnsembleStatistic:
        """Mean / stderr / t-CI of one scalar measure across replicas."""
        if len(values) != self.n_replicas:
            raise ConfigurationError(
                "one value per replica expected "
                f"({len(values)} != {self.n_replicas})"
            )
        return ensemble_statistic(values, confidence=confidence)


# -- scenario metrology over replicas ---------------------------------------


def replica_scenario_runs(engine: EnsembleEngine, spec=None) -> list:
    """Wrap each replica's averages as a golden-harness ScenarioRun.

    Lets the existing check metrology
    (:func:`repro.scenarios.golden.measure_check`) evaluate shock
    angle / plateau density / ramp pressure per replica; feed the
    resulting values to :func:`repro.core.sampling.ensemble_statistic`
    for the confidence interval.
    """
    from repro.scenarios.golden import ScenarioRun

    fields = engine.density_ratio_fields()
    ramps = engine.ramp_pressure_ratios()
    fs = engine.config.freestream
    return [
        ScenarioRun(
            spec=spec,
            fields=[fields[r]],
            body=engine.config.wedge,
            mach=fs.mach,
            gamma=fs.gamma,
            ramp_pressure_ratio=None if ramps is None else ramps[r],
        )
        for r in range(engine.n_replicas)
    ]


# -- the bitwise replica-equality checker -----------------------------------


def replica_state(engine: EnsembleEngine, r: int) -> dict:
    """Snapshot every replica-owned array of replica index ``r``.

    Covers block ``r`` of the flow and of the reservoir (all columns),
    the sampler accumulators, the surface-load accumulators, and the
    shared plunger position -- everything the determinism contract
    promises is bitwise solo.
    """
    state = {}
    for prefix, pop in (
        ("flow", engine.particles), ("res", engine.reservoir.particles)
    ):
        block = pop.blocks()[r]
        for name in COLUMN_NAMES:
            state[f"{prefix}_{name}"] = getattr(block, name).copy()
    n_cells = engine.config.domain.n_cells
    sl = slice(r * n_cells, (r + 1) * n_cells)
    for name in SAMPLER_FIELDS:
        state[f"sampler{name}"] = getattr(engine.sampler, name)[sl].copy()
    state["sampler_steps"] = np.array([engine.sampler.steps])
    if engine.surfaces is not None:
        surf = engine.surfaces[r]
        for name in SURFACE_FIELDS:
            state[f"surface{name}"] = getattr(surf, name).copy()
        state["surface_steps"] = np.array([surf.steps])
    state["plunger_position"] = np.array(
        [engine.boundaries.plunger.position]
    )
    state["step_count"] = np.array([engine.step_count])
    return state


def verify_replica_equality(
    config: SimulationConfig,
    n_replicas: int = 2,
    transient: int = 3,
    average: int = 2,
) -> None:
    """Assert batched == solo, bitwise, for every replica.

    The fast-vs-audit cross-check of the determinism contract: run the
    batched engine for ``transient`` unsampled plus ``average`` sampled
    steps, then re-run each replica as a solo (R = 1) engine keyed for
    the same replica id, and require every state array --
    flow columns, reservoir, sampler and surface accumulators -- to be
    ``np.array_equal``.  Raises :class:`repro.errors.ValidationError`
    naming the first differing arrays.
    """
    batched = EnsembleEngine(config, n_replicas=n_replicas)
    if transient > 0:
        batched.run(transient)
    if average > 0:
        batched.run(average, sample=True)
    failures = []
    for r, rid in enumerate(batched.replica_ids):
        solo = EnsembleEngine(config, replica_ids=[rid])
        if transient > 0:
            solo.run(transient)
        if average > 0:
            solo.run(average, sample=True)
        got = replica_state(batched, r)
        want = replica_state(solo, 0)
        for key in sorted(want):
            if not np.array_equal(got[key], want[key]):
                failures.append(f"replica {rid}: {key} differs")
    if failures:
        raise ValidationError(
            "batched-vs-solo bitwise equality failed:\n  "
            + "\n  ".join(failures)
        )
