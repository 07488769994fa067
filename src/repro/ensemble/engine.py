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

**A replica is a block.**  :class:`EnsembleEngine` *is*
:class:`repro.core.simulation.Simulation` over R blocks: the same
construction (one population per block, seeded from that block's
stream, joined as the declared blocks of one flow and one reservoir),
the same step (:class:`repro.core.simulation.SerialBackend`), the same
sorter, sampler and diagnostics.  It overrides one thing, **the stream
source**: where the serial run draws from one advancing PCG64
generator, the ensemble keys ``shard_stream(seed, 0, step,
replica=rid)`` per block.  It keeps those R generators for the run and
re-keys them in place every step (``shard_stream``'s ``into=``): a
step's stream set-up writes R counters and keys instead of building R
Philox generators, and reads no OS entropy.  What lives here besides is
what there is one of per replica: the constructor's restrictions and
the per-replica results.

**Layout.**  Replica-packed rows, physically blocked by replica at all
times, in the flow and in the reservoir alike: replica ``r`` owns the
contiguous row range ``starts[r]:starts[r+1]`` of each population's
``starts``, which the population's own surgery keeps current.  Because
the flow declares those blocks, the sorter and the sampler key on the
composite ``block * n_cells + cell``
(:func:`repro.core.sortstep.blocked_cell_key`) -- replica above cell in
sort-key significance -- so the order never crosses a block, a
re-sort never moves a particle out of its block, and pairing never
straddles replicas.  One replica declares no blocks, exactly like a
serial run.

**Determinism contract.**  All randomness comes from counter-keyed
Philox streams ``shard_stream(seed, 0, step, replica=rid)`` -- a pure
function of the key, never advanced across steps.  Within a step every
replica's draws happen in a fixed order (wall re-emissions, deposits
and refills in the boundary pass; pairing offsets, acceptance,
collision signs and transpositions in the shared kernel; the reservoir
mix's shuffle, signs and transpositions -- all per block) from its own
stream, and all batched arithmetic is elementwise or block-local, so
replica ``r`` of a batched run is **bitwise identical** to a solo
engine run (``R = 1``) keyed for ``r``: block ``r``'s
:func:`~repro.verify.state_digest` is the solo run's, asserted by
:func:`verify_replica_equality` and pinned in CI.

Engine restrictions (enforced at construction): the serial backend
only (replica blocks and shards do not compose yet), the
``"incremental"`` sort kernel (the counting kernel pairs rows
``(2j, 2j + 1)`` of the whole population, so a block with an odd row
count would shift every later block's pairs), and distinct non-negative
replica ids keyed from a stateless seed.  Every wall model and every
``internal_exchange_probability`` runs batched: the boundary pass
re-emits each block's wall crossers from that block's stream, and the
collision kernel draws the relaxation knob's frozen pairs per block.
A span domain is a domain like any other: the replicas of the
``wedge3d`` slab are each bitwise their solo run.

Results are read like any run's, block by block: a scenario run's
harvest (:func:`repro.scenarios.golden.execute`) yields one
:class:`~repro.scenarios.golden.ScenarioRun` per replica from
``sampler.blocks()`` and ``surfaces``, and the telemetry hub publishes
the per-replica ``ensemble_*`` gauges of any run that has
``replica_ids``.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.simulation import SerialBackend, Simulation, SimulationConfig
from repro.errors import ConfigurationError, ValidationError
from repro.rng import shard_stream
from repro.verify import state_digest


class EnsembleEngine(Simulation):
    """Step R replicas of one configuration as a single wide state.

    Block ``r`` of the flow (``particles``), of the reservoir, of the
    sampler and of ``surfaces`` is replica ``replica_ids[r]``.  Steps
    return :class:`repro.core.simulation.StepDiagnostics` whose
    ``n_flow`` / ``n_reservoir`` / ``n_collisions`` are per-replica
    tuples (ints for one replica).

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
    backend, telemetry:
        As for :class:`~repro.core.simulation.Simulation`; the backend
        must be serial (``None`` or a
        :class:`~repro.core.simulation.SerialBackend`).
    """

    def __init__(
        self,
        config: SimulationConfig,
        n_replicas: Optional[int] = None,
        replica_ids: Optional[Sequence[int]] = None,
        backend=None,
        telemetry=None,
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
        _check(config, replica_ids, backend)
        self.replica_ids = replica_ids
        self.n_replicas = len(replica_ids)
        self._streams: list = [None] * len(replica_ids)
        super().__init__(config, backend=backend, telemetry=telemetry)

    def streams(self, step: int) -> list:
        """One keyed Philox stream per replica for step ``step``.

        The engine keeps R generators and re-keys them on every call, so
        the streams handed out for step ``s`` stay valid until the next
        call, which re-keys the same generators for its own step.
        """
        self._streams = [
            shard_stream(self.config.seed, 0, step, replica=rid, into=g)
            for rid, g in zip(self.replica_ids, self._streams)
        ]
        return self._streams


def _check(config: SimulationConfig, replica_ids: tuple, backend) -> None:
    """The ensemble's typed refusals (see the module docstring)."""
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
    if backend is not None and not isinstance(backend, SerialBackend):
        raise ConfigurationError(
            "the ensemble engine steps its replica blocks on the serial "
            "backend: replicas and shards (--workers "
            f"{getattr(backend, 'n_workers', '?')}) do not compose yet"
        )
    if config.sort_kernel != "incremental":
        raise ConfigurationError(
            "the ensemble engine runs the 'incremental' sort kernel "
            f"only (got {config.sort_kernel!r}): the counting "
            "kernel pairs rows (2j, 2j + 1) of the whole population, so "
            "a block with an odd row count would shift every later "
            "block's pairs"
        )


# -- the bitwise replica-equality checker -----------------------------------


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
    the same replica id, and require block ``r``'s
    :func:`~repro.verify.state_digest` to be the solo run's.  Raises
    :class:`repro.errors.ValidationError` naming every replica that
    differs.
    """

    def stepped(engine: EnsembleEngine) -> EnsembleEngine:
        if transient > 0:
            engine.run(transient)
        if average > 0:
            engine.run(average, sample=True)
        return engine

    batched = stepped(EnsembleEngine(config, n_replicas=n_replicas))
    differ = [
        rid
        for r, rid in enumerate(batched.replica_ids)
        if state_digest(batched, block=r)
        != state_digest(stepped(EnsembleEngine(config, replica_ids=[rid])))
    ]
    if differ:
        raise ValidationError(
            "batched-vs-solo bitwise equality failed: the state digest "
            f"of replica(s) {differ} differs from the solo run's"
        )
