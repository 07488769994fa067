"""Exact checkpoint/restore of a running simulation.

A snapshot captures everything needed to continue a run bit-for-bit:

* the particle population (physical + computational state),
* the reservoir population,
* the plunger phase,
* the RNG state (NumPy bit-generator state),
* the sampler's accumulated moments and step counters,
* the configuration (so a restore can verify compatibility).

Snapshots are single ``.npz`` files; the configuration is stored as a
small JSON blob inside the archive.  ``load_simulation`` reconstructs a
:class:`~repro.core.simulation.Simulation` whose subsequent steps are
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
from repro.core.simulation import Simulation, SimulationConfig
from repro.core.surface import SURFACE_FIELDS
from repro.errors import CheckpointCorruptionError, ConfigurationError
from repro.geometry.bodies import body_from_dict
from repro.geometry.domain import Domain
from repro.geometry.domain3d import Domain3D
from repro.geometry.wedge import Wedge
from repro.physics.freestream import Freestream
from repro.physics.molecules import MolecularModel

#: Snapshot format version; bumped on layout changes.  Version 2 adds
#: the sharded-backend continuation fields (worker count and in-transit
#: reservoir flux); version 3 adds the slab-edge tuple (adaptive load
#: balancing can leave the decomposition non-uniform).  Older archives
#: still load: v1 restores serially, v2 restores with the uniform
#: split.
FORMAT_VERSION = 3

PathLike = Union[str, pathlib.Path]


def _config_to_json(config: SimulationConfig) -> str:
    domain = {"nx": config.domain.nx, "ny": config.domain.ny}
    if config.domain.has_span:
        # Only span domains write ``nz``: 2-D blobs stay byte-identical.
        domain["nz"] = config.domain.nz
    blob = {
        "domain": domain,
        "freestream": {
            "mach": config.freestream.mach,
            "c_mp": config.freestream.c_mp,
            "lambda_mfp": config.freestream.lambda_mfp,
            "density": config.freestream.density,
            "gamma": config.freestream.gamma,
        },
        # The wedge keeps writing its bare parameter dict (no "kind"
        # key) so blobs from pre-registry runs and wedge runs stay
        # byte-identical; other bodies carry their dispatch kind.
        "wedge": None
        if config.wedge is None
        else (
            {
                "x_leading": config.wedge.x_leading,
                "base": config.wedge.base,
                "angle_deg": config.wedge.angle_deg,
            }
            if isinstance(config.wedge, Wedge)
            else config.wedge.to_config_dict()
        ),
        "model": {
            "alpha": config.model.alpha
            if np.isfinite(config.model.alpha)
            else "inf",
            "rotational_dof": config.model.rotational_dof,
            "mass": config.model.mass,
            "name": config.model.name,
        },
        "sort_scale": config.sort_scale,
        # The incremental kernel keeps NO order state in the snapshot:
        # the canonical order is a pure function of the cell column and
        # is rebuilt every step anyway.
        "sort_kernel": config.sort_kernel,
        "plunger_trigger": config.plunger_trigger,
        "reservoir_fraction": config.reservoir_fraction,
        "reservoir_mix_rounds": config.reservoir_mix_rounds,
    }
    # Registry-era fields ride along only when they deviate from the
    # defaults, keeping wedge-run blobs byte-identical to pre-registry
    # archives (bitwise continuation tests compare them).
    if config.wall_model != "specular":
        blob["wall_model"] = config.wall_model
    if config.accommodation != 1.0:
        blob["accommodation"] = config.accommodation
    if config.scenario is not None:
        blob["scenario"] = config.scenario
    return json.dumps(blob)


def _config_from_json(blob: str) -> SimulationConfig:
    d = json.loads(blob)
    alpha = d["model"]["alpha"]
    model = MolecularModel(
        alpha=float("inf") if alpha == "inf" else float(alpha),
        rotational_dof=int(d["model"]["rotational_dof"]),
        mass=float(d["model"]["mass"]),
        name=d["model"]["name"],
    )
    return SimulationConfig(
        domain=(Domain3D if "nz" in d["domain"] else Domain)(**d["domain"]),
        freestream=Freestream(**d["freestream"]),
        wedge=None if d["wedge"] is None else body_from_dict(d["wedge"]),
        model=model,
        sort_scale=int(d["sort_scale"]),
        # Archives predating the kernel field were counting-kernel runs;
        # defaulting there keeps their continuation bitwise unchanged.
        sort_kernel=d.get("sort_kernel", "counting"),
        plunger_trigger=float(d["plunger_trigger"]),
        reservoir_fraction=float(d["reservoir_fraction"]),
        reservoir_mix_rounds=int(d["reservoir_mix_rounds"]),
        seed=0,  # each loader restores the archived seed and RNG state
        wall_model=d.get("wall_model", "specular"),
        accommodation=float(d.get("accommodation", 1.0)),
        scenario=d.get("scenario"),
    )


def _pack_particles(prefix: str, parts: ParticleArrays) -> dict:
    # A ``z`` column of zeros (no span, or a reservoir) is not written:
    # 2-D archives keep the members, and the size, they always had.
    return {
        f"{prefix}_{name}": getattr(parts, name)
        for name in COLUMN_NAMES
        if name != "z" or parts.z.any()
    }


def _unpack_particles(prefix: str, data, rotational_dof: int, path):
    # An archive without ``z`` loads it zero-filled; any other missing
    # column is a ``KeyError``, i.e. a corrupt archive.  The rest must
    # fit the archive's molecule model and pass ``validate()`` (dtypes,
    # shapes, finite state, permutation rows).
    parts = ParticleArrays(
        **{
            name: data[f"{prefix}_{name}"].copy()
            for name in COLUMN_NAMES
            if name != "z" or f"{prefix}_z" in data
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


def _step_count(data, path) -> int:
    step_count = int(data["step_count"])
    if step_count < 0:
        raise CheckpointCorruptionError(
            f"member step_count is negative ({step_count})", path=str(path)
        )
    return step_count


def _pack_accumulator(prefix: str, acc, fields) -> dict:
    """A sampler's step count and accumulator arrays, ``<prefix>_*``."""
    return {
        f"{prefix}_steps": np.array(acc._steps),
        **{prefix + name: getattr(acc, name) for name in fields},
    }


def _unpack_accumulator(prefix: str, data, acc, fields) -> None:
    acc._steps = int(data[f"{prefix}_steps"])
    for name in fields:
        getattr(acc, name)[:] = data[prefix + name]


def save_simulation(
    sim: Simulation,
    path: PathLike,
    fault_plan=None,
    compress: bool = True,
) -> None:
    """Write an exact checkpoint of ``sim`` to ``path`` (.npz).

    Sharded simulations are gathered first (the shard workers hold the
    authoritative state), and the backend's continuation fields --
    worker count, in-transit reservoir flux -- are recorded so a
    restore at the same worker count continues bitwise.

    ``compress=False`` writes a plain (stored) archive: ~30x faster at
    ~25% more bytes, the right trade for high-cadence supervision
    checkpoints that are pruned minutes later.  ``load_simulation``
    reads both transparently.

    ``fault_plan`` arms the ``truncate`` injection point: an armed
    truncation fault cuts the written archive in half so the restore
    path (and the supervisor's checkpoint fallback) can be tested
    against a realistic torn write.
    """
    sim.gather()
    n_workers = getattr(sim.backend, "n_workers", 1)
    flux = getattr(sim.backend, "pending_flux", 0)
    # The stateless key of the per-shard RNG streams.  -1 marks a seed
    # that cannot be serialized (a live Generator / complex
    # SeedSequence); such snapshots restore serially or as a *new*
    # statistical realization, never bitwise-sharded.
    seed = sim.config.seed
    if seed is None:
        from repro.rng import DEFAULT_SEED

        shard_seed = DEFAULT_SEED
    elif isinstance(seed, (int, np.integer)):
        shard_seed = int(seed)
    else:
        shard_seed = -1
    rng_state = json.dumps(sim.rng.bit_generator.state)
    arrays = {
        "backend_workers": np.array(int(n_workers)),
        "flux_pending": np.array(int(flux)),
        "shard_seed": np.array(shard_seed),
        "format_version": np.array(FORMAT_VERSION),
        "config_json": np.array(_config_to_json(sim.config)),
        "rng_state_json": np.array(rng_state),
        "step_count": np.array(sim.step_count),
        "plunger_position": np.array(sim.boundaries.plunger.position),
        **_pack_accumulator("sampler", sim.sampler, SAMPLER_FIELDS),
    }
    # v3: the live slab edges, so a checkpoint taken after a rebalance
    # restores the non-uniform decomposition instead of re-splitting
    # uniformly (which would shuffle particles across shards and break
    # bitwise continuation).
    slab_edges = getattr(sim.backend, "slab_edges", None)
    if slab_edges is not None:
        arrays["slab_edges"] = np.asarray(slab_edges, dtype=np.int64)
    if sim.surface is not None:
        # v2: the surface-load accumulators ride along too (v1 dropped
        # them, so restored runs silently lost their drag averages).
        arrays.update(
            _pack_accumulator("surface", sim.surface, SURFACE_FIELDS)
        )
    arrays.update(_pack_particles("flow", sim.particles))
    arrays.update(_pack_particles("res", sim.reservoir.particles))
    if compress:
        np.savez_compressed(path, **arrays)
    else:
        np.savez(path, **arrays)
    if fault_plan is not None:
        fault = fault_plan.take("truncate", sim.step_count)
        if fault is not None:
            p = pathlib.Path(path)
            blob = p.read_bytes()
            p.write_bytes(blob[: len(blob) // 2])


#: Ensemble snapshot format version (independent of the solo format:
#: the archives share the config blob and particle packing but nothing
#: else, and an ensemble archive carries no RNG state at all -- the
#: engine's streams are pure functions of ``(seed, replica, step)``).
ENSEMBLE_FORMAT_VERSION = 1


def save_ensemble(engine, path: PathLike, compress: bool = True) -> None:
    """Write an exact checkpoint of an ensemble run to ``path`` (.npz).

    Captures the replica-blocked flow population with its block
    boundaries, the reservoir one block per replica (members
    ``res{r}_*``), the sampler and surface-load
    accumulators, the shared plunger phase and the step count.  No RNG
    state is stored: the ensemble engine re-derives each step's streams
    from ``(seed, replica, step)``, so the integer seed in the config
    blob is all a bitwise continuation needs.
    """
    seed = engine.config.seed
    if seed is None:
        from repro.rng import DEFAULT_SEED

        ens_seed = DEFAULT_SEED
    elif isinstance(seed, (int, np.integer)):
        ens_seed = int(seed)
    else:
        raise ConfigurationError(
            "ensemble snapshots need an integer (or None) seed; a "
            f"{type(seed).__name__} cannot be serialized"
        )
    arrays = {
        "ensemble_format_version": np.array(ENSEMBLE_FORMAT_VERSION),
        "config_json": np.array(_config_to_json(engine.config)),
        "ensemble_seed": np.array(ens_seed),
        "replica_ids": np.asarray(engine.replica_ids, dtype=np.int64),
        # One replica declares no blocks; the archive still spells its
        # one block's boundaries.
        "starts": np.asarray(engine.particles.block_edges(), dtype=np.int64),
        "step_count": np.array(engine.step_count),
        "plunger_position": np.array(engine.boundaries.plunger.position),
        **_pack_accumulator("sampler", engine.sampler, SAMPLER_FIELDS),
    }
    arrays.update(_pack_particles("flow", engine.particles))
    for r, block in enumerate(engine.reservoir.particles.blocks()):
        arrays.update(_pack_particles(f"res{r}", block))
    for r, surf in enumerate(engine.surfaces):
        arrays.update(_pack_accumulator(f"surface{r}", surf, SURFACE_FIELDS))
    if compress:
        np.savez_compressed(path, **arrays)
    else:
        np.savez(path, **arrays)


def load_ensemble(path: PathLike):
    """Reconstruct an :class:`repro.ensemble.EnsembleEngine` checkpoint.

    The returned engine continues exactly where the saved one stopped
    for every replica -- same flow and reservoir blocks, same accumulated
    averages, same plunger phase -- and, because the engine's streams
    are keyed rather than advanced, its subsequent steps are bitwise
    identical to the uninterrupted run's.

    Raises :class:`~repro.errors.CheckpointCorruptionError` on a
    truncated archive, one whose block ``starts`` do not partition the
    flow population into one block per replica id, a particle member
    of the wrong dtype or shape, a population failing ``validate()``,
    or a negative step count.
    """
    from repro.ensemble.engine import EnsembleEngine

    try:
        with np.load(path, allow_pickle=False) as data:
            if "ensemble_format_version" not in data:
                raise ConfigurationError(
                    "not an ensemble snapshot (missing "
                    "ensemble_format_version); use load_simulation"
                )
            version = int(data["ensemble_format_version"])
            if version != ENSEMBLE_FORMAT_VERSION:
                raise ConfigurationError(
                    f"ensemble snapshot format {version} != supported "
                    f"{ENSEMBLE_FORMAT_VERSION}"
                )
            config = dataclasses.replace(
                _config_from_json(str(data["config_json"])),
                seed=int(data["ensemble_seed"]),
            )
            replica_ids = [int(r) for r in data["replica_ids"]]
            # A fresh engine of the archive's replicas (which also
            # refuses a configuration the engine never runs), then the
            # archived state in place of its seeded one.
            eng = EnsembleEngine(config, replica_ids=replica_ids)
            rdof = config.model.rotational_dof
            flow = _unpack_particles("flow", data, rdof, path)
            try:
                starts = check_block_starts(
                    data["starts"], flow.n, len(replica_ids)
                )
            except ConfigurationError as exc:
                raise CheckpointCorruptionError(
                    f"corrupt block starts: {exc}", path=str(path)
                ) from exc
            tank = ParticleArrays.from_blocks([
                _unpack_particles(f"res{r}", data, rdof, path)
                for r in range(len(replica_ids))
            ])
            # One replica declares no blocks, like the engine it restores.
            if len(replica_ids) > 1:
                flow.starts = starts
            else:
                tank.starts = None
            eng.particles = flow.enable_scratch()
            eng.reservoir.particles = tank.enable_scratch()
            _unpack_accumulator("sampler", data, eng.sampler, SAMPLER_FIELDS)
            for r, surf in enumerate(eng.surfaces):
                if f"surface{r}_steps" in data:
                    _unpack_accumulator(
                        f"surface{r}", data, surf, SURFACE_FIELDS
                    )
            eng.step_count = _step_count(data, path)
            eng.boundaries.plunger.position = float(
                data["plunger_position"]
            )
    except FileNotFoundError:
        raise
    except ConfigurationError:
        raise
    except (zipfile.BadZipFile, KeyError, ValueError, OSError, EOFError) as exc:
        raise CheckpointCorruptionError(
            f"checkpoint is unreadable or truncated: {exc}",
            path=str(path),
        ) from exc
    return eng


def load_simulation(
    path: PathLike,
    workers: Optional[int] = None,
    processes: bool = True,
    backend_factory: Optional[Callable] = None,
) -> Simulation:
    """Reconstruct a simulation from a checkpoint.

    The returned simulation continues exactly where the saved one
    stopped: same particles, same reservoir, same plunger phase, same
    RNG stream, same accumulated averages.

    ``workers`` selects the execution backend of the restored run:
    ``None`` keeps the snapshot's own worker count, ``1`` forces the
    serial engine, ``>1`` attaches a sharded backend
    (:class:`repro.parallel.backend.ShardedBackend`) with the saved
    in-transit reservoir flux.  Continuation is bitwise only at the
    snapshot's own worker count (the per-shard RNG streams and the
    slab partition are keyed by it); restoring at a different count is
    statistically equivalent, not bitwise.

    ``backend_factory(n_workers=..., processes=..., flux_pending=...)``
    overrides the sharded-backend construction (the supervisor uses it
    to re-arm fault plans and shorter barrier timeouts on respawn); it
    also receives ``edges=...`` when the archive carries a slab-edge
    tuple for this worker count (v3+, written after a rebalance).

    Raises :class:`~repro.errors.CheckpointCorruptionError` when the
    archive is truncated, unreadable, missing required members, or
    holds a particle member of the wrong dtype or shape, a population
    failing ``validate()`` or a negative step count -- a distinct,
    retryable failure so a supervisor can fall back to an older
    checkpoint instead of aborting the run.
    """
    try:
        with np.load(path, allow_pickle=False) as data:
            version = int(data["format_version"])
            if version not in (1, 2, FORMAT_VERSION):
                raise ConfigurationError(
                    f"snapshot format {version} != supported {FORMAT_VERSION}"
                )
            if version >= 2:
                saved_workers = int(data["backend_workers"])
                flux_pending = int(data["flux_pending"])
                shard_seed = int(data["shard_seed"])
            else:
                saved_workers = 1
                flux_pending = 0
                shard_seed = -1
            # Legacy (pre-v3) archives carry no edge tuple: they were
            # written by uniform-split runs, so restoring uniform is
            # exact, not an approximation.
            saved_edges = (
                tuple(int(e) for e in data["slab_edges"])
                if "slab_edges" in data
                else None
            )
            config = _config_from_json(str(data["config_json"]))
            if shard_seed >= 0:
                # Whatever the worker count: a serial restore that is
                # checkpointed again must still record the seed its
                # shards would key from.
                config = dataclasses.replace(config, seed=shard_seed)
            sim = Simulation(config)
            rdof = config.model.rotational_dof
            sim.particles = _unpack_particles("flow", data, rdof, path)
            sim.reservoir.particles = _unpack_particles("res", data, rdof, path)
            sim.particles.enable_scratch()
            sim.reservoir.particles.enable_scratch()
            sim.step_count = _step_count(data, path)
            sim.boundaries.plunger.position = float(data["plunger_position"])
            sim.rng.bit_generator.state = json.loads(
                str(data["rng_state_json"])
            )
            _unpack_accumulator("sampler", data, sim.sampler, SAMPLER_FIELDS)
            if sim.surface is not None and "surface_steps" in data:
                _unpack_accumulator(
                    "surface", data, sim.surface, SURFACE_FIELDS
                )
    except FileNotFoundError:
        raise
    except ConfigurationError:
        raise
    except (zipfile.BadZipFile, KeyError, ValueError, OSError, EOFError) as exc:
        raise CheckpointCorruptionError(
            f"checkpoint is unreadable or truncated: {exc}",
            path=str(path),
        ) from exc

    n_workers = saved_workers if workers is None else int(workers)
    if n_workers > 1:
        from repro.parallel.backend import ShardedBackend

        # The sharded backend keys its per-(shard, step) RNG streams
        # from config.seed, restored above: without the original
        # stateless seed there is no bitwise continuation.
        if shard_seed < 0:
            raise ConfigurationError(
                "this snapshot carries no shard-stream seed (generator "
                "seed, or a pre-v2 archive); restore with workers=1"
            )
        # The saved edge tuple only applies at the snapshot's own
        # worker count; a different count re-splits uniformly (the run
        # is a new statistical realization anyway).
        edges = (
            saved_edges
            if saved_edges is not None and len(saved_edges) == n_workers + 1
            else None
        )
        if backend_factory is not None:
            kwargs = dict(
                n_workers=n_workers,
                processes=processes,
                flux_pending=flux_pending,
            )
            if edges is not None:
                kwargs["edges"] = edges
            backend = backend_factory(**kwargs)
        else:
            backend = ShardedBackend(
                n_workers,
                processes=processes,
                flux_pending=flux_pending,
                edges=edges,
            )
        sim.backend = backend
        backend.bind(sim)
    return sim
