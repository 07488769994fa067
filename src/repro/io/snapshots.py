"""Exact checkpoint/restore of a running simulation, over one block or R.

A snapshot captures everything needed to continue a run bit-for-bit:

* the flow population (physical + computational state) with its block
  boundaries,
* the reservoir, one block per block of the flow,
* the plunger phase,
* the RNG state (NumPy bit-generator state) and, for an ensemble, the
  replica ids its keyed streams derive from,
* the sampler's and each block's surface-load accumulated moments and
  step counters,
* the configuration (so a restore can verify compatibility).

Snapshots are single ``.npz`` files; the configuration is stored as a
small JSON blob inside the archive.  One writer and one loader serve
every :class:`~repro.core.simulation.Simulation` -- serial, sharded, or
an :class:`~repro.ensemble.EnsembleEngine` of R replica blocks:
``load_simulation`` reconstructs one whose subsequent steps are
identical to the original run's (tested).
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import zipfile
from typing import Callable, Optional, Union

import numpy as np

from repro.core.particles import (
    COLUMN_NAMES,
    ParticleArrays,
    check_block_starts,
)
from repro.core.sampling import SAMPLER_FIELDS
from repro.core.simulation import Simulation, _joined
from repro.core.surface import SURFACE_FIELDS
from repro.errors import CheckpointCorruptionError, ConfigurationError, SchemaError
from repro.scenarios.spec import config_from_dict, config_to_dict

#: Snapshot format version; bumped on layout changes.  Format 5 is one
#: layout for one block or R: the flow whole with its block ``starts``,
#: ``res{b}_*`` and ``surface{b}_*`` per block, ``replica_ids`` when the
#: run keys its streams per replica (an ensemble), a sharded run's slab
#: edges and per-shard sampler and surface sums (``shard_*``), and the
#: configuration as :func:`repro.scenarios.spec.config_to_dict` writes
#: it.  An archive of any other format is refused by name: no older
#: archive could continue bitwise once draws are keyed per particle.
FORMAT_VERSION = 5

PathLike = Union[str, pathlib.Path]


def _pack_particles(prefix: str, parts: ParticleArrays) -> dict:
    # A ``z`` column of zeros (no span, or a reservoir) is not written:
    # 2-D archives keep the members, and the size, they always had.
    return {
        f"{prefix}_{name}": getattr(parts, name)
        for name in COLUMN_NAMES
        if name != "z" or parts.z.any()
    }


def _unpack_particles(prefix: str, members: dict, rotational_dof: int, path):
    # An archive without ``z`` loads it zero-filled; any other missing
    # column is a ``KeyError``, i.e. a corrupt archive.  The rest must
    # fit the archive's molecule model and pass ``validate()`` (dtypes,
    # shapes, finite state, permutation rows).
    parts = ParticleArrays(
        **{
            name: members[f"{prefix}_{name}"]
            for name in COLUMN_NAMES
            if name != "z" or f"{prefix}_z" in members
        }
    )
    try:
        if parts.rot.shape[1:] != (rotational_dof,):
            raise ConfigurationError(
                f"column rot is {list(parts.rot.shape)}, not "
                f"{rotational_dof} rotational components per particle"
            )
        parts.validate()
    except ConfigurationError as exc:
        raise CheckpointCorruptionError(
            f"members {prefix}_*: {exc}", path=str(path)
        ) from exc
    return parts


def _member(members: dict, name: str, path, kinds: str = "iu", ndim: int = 0):
    """Member ``name`` as a Python scalar (``ndim`` 0) or list (1), if it
    is an array of that many dimensions and of dtype kind ``kinds``."""
    a = members[name]
    if a.ndim != ndim or a.dtype.kind not in kinds:
        raise CheckpointCorruptionError(
            f"member {name} is {a.dtype}{list(a.shape)}, not "
            f"{('a scalar', 'a vector')[ndim]} of dtype kind {kinds!r}",
            path=str(path),
        )
    return a.tolist()


def _count(members: dict, name: str, path) -> int:
    """A step counter: a non-negative integer scalar."""
    count = _member(members, name, path)
    if count < 0:
        raise CheckpointCorruptionError(
            f"member {name} is negative ({count})", path=str(path)
        )
    return count


def _pack_accumulator(prefix: str, acc, fields) -> dict:
    """A sampler's step count and accumulator arrays, ``<prefix>_*``."""
    return {
        f"{prefix}_steps": np.array(acc._steps),
        **{prefix + name: getattr(acc, name) for name in fields},
    }


def _unpack_accumulator(prefix: str, members: dict, acc, fields, path) -> None:
    # Each member must be the constructed array's dtype and shape: a
    # length-1 member would otherwise broadcast into every cell.
    acc._steps = _count(members, f"{prefix}_steps", path)
    for name in fields:
        want, got = getattr(acc, name), members[prefix + name]
        if got.dtype != want.dtype or got.shape != want.shape:
            raise CheckpointCorruptionError(
                f"member {prefix}{name} is {got.dtype}{list(got.shape)}, "
                f"not {want.dtype}{list(want.shape)}",
                path=str(path),
            )
        want[...] = got


def save_simulation(
    sim: Simulation,
    path: PathLike,
    fault_plan=None,
    compress: bool = True,
) -> None:
    """Write an exact checkpoint of ``sim`` to ``path`` (.npz).

    Any simulation, over one block or R: the flow whole with its block
    edges (``starts``, written for one block too), then the reservoir
    and the surface-load accumulators one block at a time.  An ensemble
    also records its ``replica_ids`` -- the stream source, re-keyed per
    ``(seed, replica, step)`` on restore.

    Sharded simulations are gathered first (the shard workers hold the
    authoritative state), and the backend's continuation fields --
    worker count, in-transit reservoir flux, slab edges, each shard's
    own sampler and surface sums -- are recorded so a restore at the
    same worker count continues bitwise.

    ``compress=False`` writes a plain (stored) archive: ~30x faster at
    ~25% more bytes, the right trade for high-cadence supervision
    checkpoints that are pruned minutes later.  ``load_simulation``
    reads both transparently.

    ``fault_plan`` arms the ``truncate`` injection point: an armed
    truncation fault cuts the written archive in half so the restore
    path (and the supervisor's checkpoint fallback) can be tested
    against a realistic torn write.

    A CM-2 emulation run is refused (:class:`ConfigurationError`): the
    archive holds neither its fixed-point kernels nor its cost ledger,
    so it would restore as the float engine.
    """
    if sim.kernels is not None:
        raise ConfigurationError(
            "a CM-2 emulation run cannot be checkpointed: the archive "
            "holds no fixed-point kernels or cost ledger, so it would "
            "restore as the float engine"
        )
    sim.gather()
    # The stateless key of the per-shard and per-replica RNG streams.
    # -1 marks a seed that cannot be serialized (a live Generator /
    # complex SeedSequence); such snapshots restore serially or as a
    # *new* statistical realization, never bitwise-sharded, and an
    # ensemble's not at all.
    seed = sim.config.seed
    if seed is None:
        from repro.rng import DEFAULT_SEED

        shard_seed = DEFAULT_SEED
    elif isinstance(seed, (int, np.integer)):
        shard_seed = int(seed)
    else:
        shard_seed = -1
    arrays = {
        "backend_workers": np.array(int(getattr(sim.backend, "n_workers", 1))),
        "flux_pending": np.array(int(getattr(sim.backend, "pending_flux", 0))),
        "shard_seed": np.array(shard_seed),
        "format_version": np.array(FORMAT_VERSION),
        "config_json": np.array(json.dumps(config_to_dict(sim.config))),
        "rng_state_json": np.array(json.dumps(sim.rng.bit_generator.state)),
        "step_count": np.array(sim.step_count),
        "plunger_position": np.array(sim.boundaries.plunger.position),
        **_pack_accumulator("sampler", sim.sampler, SAMPLER_FIELDS),
        "starts": np.asarray(sim.particles.block_edges(), dtype=np.int64),
        **_pack_particles("flow", sim.particles),
    }
    replica_ids = getattr(sim, "replica_ids", None)
    if replica_ids is not None:
        arrays["replica_ids"] = np.asarray(replica_ids, dtype=np.int64)
    # The live slab edges, so a checkpoint taken after a rebalance
    # restores the non-uniform decomposition instead of re-splitting
    # uniformly (which would shuffle particles across shards and break
    # bitwise continuation).
    slab_edges = getattr(sim.backend, "slab_edges", None)
    if slab_edges is not None:
        arrays["slab_edges"] = np.asarray(slab_edges, dtype=np.int64)
    for b, block in enumerate(sim.reservoir.particles.blocks()):
        arrays.update(_pack_particles(f"res{b}", block))
    for b, surf in enumerate(sim.surfaces):
        arrays.update(_pack_accumulator(f"surface{b}", surf, SURFACE_FIELDS))
    # A sharded run's moments one row per shard as well: float sums do
    # not associate, so only the shards' own rows restored into the
    # same shards continue the sums bitwise.
    shard_moments = getattr(sim.backend, "shard_moments", None)
    if shard_moments is not None:
        for name, rows in shard_moments().items():
            arrays[f"shard_{name}"] = rows
    (np.savez_compressed if compress else np.savez)(path, **arrays)
    if fault_plan is not None:
        fault = fault_plan.take("truncate", sim.step_count)
        if fault is not None:
            p = pathlib.Path(path)
            blob = p.read_bytes()
            p.write_bytes(blob[: len(blob) // 2])


def _current(data, path) -> dict:
    """The archive's members, if it is of this format."""
    members = {name: data[name] for name in data.files}
    if "ensemble_format_version" in members:
        version = _member(members, "ensemble_format_version", path)
        raise ConfigurationError(
            f"ensemble snapshot format {version} is not read (snapshot "
            f"format {FORMAT_VERSION} is); rerun it from its scenario"
        )
    version = _member(members, "format_version", path)
    if version != FORMAT_VERSION:
        raise ConfigurationError(
            f"snapshot format {version} != supported {FORMAT_VERSION}; "
            "an older archive is not read: rerun it from its scenario"
        )
    return members


def load_simulation(
    path: PathLike,
    workers: Optional[int] = None,
    processes: bool = True,
    backend_factory: Optional[Callable] = None,
) -> Simulation:
    """Reconstruct a simulation from a checkpoint.

    The returned simulation continues exactly where the saved one
    stopped: same particles and reservoir blocks, same plunger phase,
    same random streams, same accumulated averages.  An archive naming
    ``replica_ids`` restores an :class:`repro.ensemble.EnsembleEngine`
    of those replicas, any other a :class:`Simulation`; every archive
    after that takes the one path.

    ``workers`` selects the execution backend of the restored run:
    ``None`` keeps the snapshot's own worker count, ``1`` forces the
    serial engine, ``>1`` attaches a sharded backend
    (:class:`repro.parallel.backend.ShardedBackend`) with the saved
    in-transit reservoir flux.  Continuation is bitwise only at the
    snapshot's own worker count (the per-shard RNG streams and the
    slab partition are keyed by it); restoring at a different count is
    statistically equivalent, not bitwise.  An ensemble restores
    serially.

    ``backend_factory(n_workers=..., processes=..., flux_pending=...)``
    overrides the sharded-backend construction (the supervisor uses it
    to re-arm fault plans and shorter barrier timeouts on respawn); it
    also receives ``edges=...`` when the archive carries a slab-edge
    tuple for this worker count (a sharded run writes its own).

    Raises :class:`~repro.errors.CheckpointCorruptionError` when the
    archive is truncated, unreadable, missing required members, or
    holds a particle or accumulator member of the wrong dtype or shape,
    block ``starts`` that do not partition the flow, a population
    failing ``validate()``, a negative step count or a plunger outside
    its stroke -- a distinct, retryable failure so a supervisor can fall
    back to an older checkpoint instead of aborting the run.  Raises
    :class:`~repro.errors.ConfigurationError` for an archive of another
    format (older ones included, named by their format), and for an
    ensemble archive restored with ``workers > 1`` or without an
    integer seed.  A ``config_json`` member with a missing or unknown
    key or a value of the wrong type is a corrupt archive.
    """
    try:
        with np.load(path, allow_pickle=False) as data:
            members = _current(data, path)
        blob = json.loads(_member(members, "config_json", path, "U"))
        try:
            config = config_from_dict(blob)
        except SchemaError as exc:
            raise CheckpointCorruptionError(
                f"member config_json: {exc}", path=str(path)
            ) from exc
        saved_workers = _member(members, "backend_workers", path)
        flux_pending = _member(members, "flux_pending", path)
        shard_seed = _member(members, "shard_seed", path)
        # Only a sharded run writes its slab edges.
        saved_edges = (
            tuple(_member(members, "slab_edges", path, ndim=1))
            if "slab_edges" in members
            else None
        )
        n_workers = saved_workers if workers is None else int(workers)
        if shard_seed >= 0:
            # Whatever the worker count: a serial restore that is
            # checkpointed again must still record the seed its
            # shards would key from.
            config = dataclasses.replace(config, seed=shard_seed)
        if "replica_ids" not in members:
            sim = Simulation(config)
        else:
            from repro.ensemble.engine import EnsembleEngine

            if n_workers > 1 or shard_seed < 0:
                raise ConfigurationError(
                    "an ensemble snapshot restores serially, its replica "
                    f"streams keyed by an integer seed (workers={n_workers}, "
                    f"archived seed {shard_seed})"
                )
            sim = EnsembleEngine(
                config, replica_ids=_member(members, "replica_ids", path, ndim=1)
            )
        # The constructed run's blocks, then the archived state in
        # place of its seeded one.
        n_blocks = sim.particles.n_blocks
        rdof = sim.particles.rot.shape[1]
        flow = _unpack_particles("flow", members, rdof, path)
        try:
            starts = check_block_starts(members["starts"], flow.n, n_blocks)
        except ConfigurationError as exc:
            raise CheckpointCorruptionError(
                f"corrupt block starts: {exc}", path=str(path)
            ) from exc
        # One block declares no starts, like the run it restores.
        if n_blocks > 1:
            flow.starts = starts
        sim.particles = flow.enable_scratch()
        sim.reservoir.particles = _joined([
            _unpack_particles(f"res{b}", members, rdof, path)
            for b in range(n_blocks)
        ]).enable_scratch()
        _unpack_accumulator(
            "sampler", members, sim.sampler, SAMPLER_FIELDS, path
        )
        for b, surf in enumerate(sim.surfaces):
            _unpack_accumulator(
                f"surface{b}", members, surf, SURFACE_FIELDS, path
            )
        sim.step_count = _count(members, "step_count", path)
        plunger = sim.boundaries.plunger
        position = _member(members, "plunger_position", path, "f")
        if not 0.0 <= position <= plunger.trigger:
            raise CheckpointCorruptionError(
                f"member plunger_position is {position}, not in "
                f"[0, {plunger.trigger}]",
                path=str(path),
            )
        plunger.position = position
        sim.rng.bit_generator.state = json.loads(
            _member(members, "rng_state_json", path, "U")
        )
    except FileNotFoundError:
        raise
    except (zipfile.BadZipFile, KeyError, ValueError, OSError, EOFError) as exc:
        raise CheckpointCorruptionError(
            f"checkpoint is unreadable or truncated: {exc}",
            path=str(path),
        ) from exc

    if n_workers > 1:
        # The sharded backend keys its per-(shard, step) RNG streams
        # from config.seed, restored above: without the original
        # stateless seed there is no bitwise continuation.
        if shard_seed < 0:
            raise ConfigurationError(
                "this snapshot carries no shard-stream seed (a generator "
                "seed); restore with workers=1"
            )
        kwargs = dict(
            n_workers=n_workers, processes=processes, flux_pending=flux_pending
        )
        # The saved edge tuple only applies at the snapshot's own
        # worker count; a different count re-splits uniformly (the run
        # is a new statistical realization anyway).
        if saved_edges is not None and len(saved_edges) == n_workers + 1:
            kwargs["edges"] = saved_edges
        if backend_factory is None:
            from repro.parallel.backend import ShardedBackend

            backend_factory = ShardedBackend
        sim.backend = backend_factory(**kwargs)
        sim.backend.bind(sim)
        if n_workers == saved_workers:
            _restore_shard_moments(sim.backend, members, path)
    return sim


def _restore_shard_moments(backend, members: dict, path) -> None:
    """Hand every shard its archived sampler and surface-load rows back
    (bind seeded shard 0 with the whole restored field)."""
    for name, live in backend.shard_moments().items():
        got = members.get(f"shard_{name}")
        if got is None or got.dtype != live.dtype or got.shape != live.shape:
            raise CheckpointCorruptionError(
                f"member shard_{name} is "
                + ("missing" if got is None else f"{got.dtype}{list(got.shape)}")
                + f", not {live.dtype}{list(live.shape)}",
                path=str(path),
            )
        live[...] = got
