"""Replica-batched ensemble engine: bitwise contract and plumbing.

The load-bearing guarantee is that replica ``r`` of a batched
:class:`~repro.ensemble.EnsembleEngine` run is *bitwise identical* to a
solo run of the same engine keyed for ``r`` alone -- every particle
column, reservoir, sampler accumulator and surface tally.  That is what
makes ensemble results auditable: any member of a batch can be replayed
solo for debugging and produces the same trajectory float for float.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.particles import COLUMN_NAMES, ParticleArrays
from repro.core.sampling import SAMPLER_FIELDS, CellSampler, ensemble_statistic
from repro.core.simulation import SimulationConfig, collision_stage
from repro.core.sortstep import (
    RESORT_PERIOD,
    IncrementalSortResult,
    blocked_cell_key,
)
from repro.ensemble import EnsembleEngine, verify_replica_equality
from repro.errors import CheckpointCorruptionError, ConfigurationError
from repro.geometry.domain import Domain
from repro.geometry.wedge import Wedge
from repro.io.snapshots import load_simulation, save_simulation
from repro.physics.freestream import Freestream
from repro.physics.molecules import hard_sphere, maxwell_molecule
from repro.parallel.backend import ShardedBackend
from repro.rng import random_permutation_table, shard_stream
from repro.scenarios.library import WEDGE3D
from repro.telemetry import Telemetry
from repro.verify import state_digest

pytestmark = pytest.mark.ensemble


def _small_config(seed: int = 7, density: float = 4.0, **kw) -> SimulationConfig:
    return SimulationConfig(
        domain=Domain(nx=32, ny=24),
        freestream=Freestream(
            mach=4.0, c_mp=0.14, lambda_mfp=0.5, density=density
        ),
        wedge=Wedge(x_leading=8.0, base=12.0, angle_deg=25.0),
        seed=seed,
        **kw,
    )


class TestBitwiseReplicaEquality:
    def test_batched_matches_solo_with_sampling(self):
        """R=3, a few steps, sampled tail: the core contract."""
        verify_replica_equality(
            _small_config(), n_replicas=3, transient=4, average=3
        )

    def test_batched_matches_solo_on_the_slab(self):
        """The span domain is a domain like any other: the replicas of the
        ``wedge3d`` slab are each their solo run, across the re-sorts at
        steps 32 and 64."""
        verify_replica_equality(
            WEDGE3D.build_config(), n_replicas=3, transient=40, average=30
        )

    def test_equality_across_refills_and_removals(self):
        """Long enough to cross plunger refills and outlet removals."""
        verify_replica_equality(
            _small_config(seed=11), n_replicas=2, transient=25, average=10
        )

    def test_equality_across_physical_resorts(self):
        """Crosses the re-sorts at steps 32 and 64 (and the one at 0)."""
        verify_replica_equality(
            _small_config(seed=5), n_replicas=3,
            transient=RESORT_PERIOD + 8, average=RESORT_PERIOD,
        )

    def test_equality_across_refills_from_a_dry_reservoir(self):
        """An empty reservoir at start: every refill drains a block, and
        its withdrawal mints the balance from that replica's stream."""
        cfg = _small_config(seed=17, reservoir_fraction=0.0)
        eng = EnsembleEngine(cfg, n_replicas=3)
        dry_refills = 0
        for _ in range(28):
            diag = eng.step()
            dry_refills += diag.boundary.plunger_reset and min(diag.n_reservoir) == 0
        assert dry_refills >= 2
        verify_replica_equality(cfg, n_replicas=3, transient=24, average=4)

    def test_equality_with_speed_dependent_selection(self):
        """Hard-sphere molecules exercise the speed-factor branch."""
        verify_replica_equality(
            _small_config(model=hard_sphere()),
            n_replicas=2,
            transient=4,
            average=2,
        )

    def test_equality_with_partial_internal_exchange(self):
        """The relaxation knob's frozen pairs are drawn per block."""
        model = dataclasses.replace(
            maxwell_molecule(), internal_exchange_probability=0.5
        )
        verify_replica_equality(
            _small_config(model=model), n_replicas=3,
            transient=30, average=30,
        )

    def test_replicas_differ_from_each_other(self):
        """Distinct replica keys must give distinct trajectories."""
        eng = EnsembleEngine(_small_config(), n_replicas=2)
        eng.run(5)
        assert state_digest(eng, block=0) != state_digest(eng, block=1)


def _benchmark_config(seed: int = 1989) -> SimulationConfig:
    """The ``ensemble_r8`` workload: the paper's grid at 0.65 per cell."""
    return SimulationConfig(
        domain=Domain(nx=98, ny=64),
        freestream=Freestream(
            mach=4.0, c_mp=0.14, lambda_mfp=0.5, density=0.65
        ),
        wedge=Wedge(x_leading=20.0, base=25.0, angle_deg=30.0),
        seed=seed,
    )


class TestBenchmarkRegime:
    """Under one particle per cell per replica, R = 8.

    Where the benchmark runs and nothing above does: most cells cannot
    pair, whole replicas may select nothing, and after ~215 steps the
    reservoirs run dry -- sizes 0, 1, 2 side by side in one blocked mix,
    and refills that mint particles.
    """

    #: Past the first dry-reservoir refills (steps 216 and 225).
    STEPS, SAMPLED = 228, 6

    @pytest.fixture(scope="class")
    def straight(self):
        """The uninterrupted run, with what it crossed on the way."""
        eng = EnsembleEngine(_benchmark_config(), n_replicas=8)
        crossed = {"refills": 0, "dry": 0}
        for i in range(self.STEPS):
            diag = eng.step(sample=i >= self.STEPS - self.SAMPLED)
            crossed["refills"] += diag.boundary.plunger_reset
            crossed["dry"] += min(diag.n_reservoir) == 0
        return eng, crossed

    def test_schedule_crosses_refills_and_dry_reservoirs(self, straight):
        eng, crossed = straight
        assert crossed["refills"] >= 20 and crossed["dry"] >= 2
        per_cell = eng.particles.n / (8 * 98 * 64)
        assert 0.5 < per_cell < 0.8

    def test_batched_matches_solo(self):
        verify_replica_equality(
            _benchmark_config(), n_replicas=8,
            transient=self.STEPS - self.SAMPLED, average=self.SAMPLED,
        )

    def test_snapshot_resumes_bitwise(self, straight, tmp_path):
        # Saved before the first reservoir runs dry and between two
        # physical re-sorts; the continuation crosses the one at 224.
        assert 212 % RESORT_PERIOD and 212 < 7 * RESORT_PERIOD < self.STEPS
        eng = EnsembleEngine(_benchmark_config(), n_replicas=8)
        eng.run(212)
        save_simulation(eng, tmp_path / "ens.npz")
        resumed = load_simulation(tmp_path / "ens.npz")
        resumed.run(self.STEPS - self.SAMPLED - 212)
        resumed.run(self.SAMPLED, sample=True)
        assert state_digest(resumed) == state_digest(straight[0])


class _PhysicalBlockedSort:
    """The oracle sorter: re-sort the rows physically on every step.

    Stable-sort the rows by the composite key, then hand
    back ``order=None`` (slots are rows).  ``order`` keeps the applied
    permutation so a test can align rows with a run that moved none.
    """

    def __init__(self, n_cells):
        self.n_cells = n_cells
        self.order = None

    def detect(self, particles):
        pass

    def update(self, particles, step):
        key = blocked_cell_key(particles.cell, particles.starts, self.n_cells)
        counts = np.bincount(key, minlength=particles.n_blocks * self.n_cells)
        self.order = np.argsort(key, kind="stable")
        particles.reorder_inplace(self.order)
        return IncrementalSortResult(
            order=None, counts=counts, offsets=np.cumsum(counts) - counts,
            moved=0, moved_fraction=0.0, n=particles.n,
        )


class TestResortScheduleMovesStorageNotPhysics:
    """Off the re-sort schedule, gathering through the order is storage only.

    From one state, a step through the composite order collides the
    same particles with the same draws as a step that first re-sorts
    the rows physically by the same key -- only where each particle is
    stored differs, which is why the re-sort schedule moves an ensemble
    realization without changing its physics.
    """

    def test_off_schedule_step_matches_the_per_step_physical_sort(self):
        cfg = _small_config(seed=21)
        new, old = (EnsembleEngine(cfg, n_replicas=3) for _ in range(2))
        for eng in (new, old):
            eng.run(RESORT_PERIOD + 4)
        step = new.step_count
        assert step % RESORT_PERIOD

        def streams():
            return [
                shard_stream(cfg.seed, 0, step + 1, replica=rid)
                for rid in new.replica_ids
            ]

        physical = _PhysicalBlockedSort(cfg.domain.n_cells)
        got_streams, want_streams = streams(), streams()
        got = collision_stage(
            new.particles, cfg, new._vf_flat, got_streams, new.sort_state, step
        )
        want = collision_stage(
            old.particles, cfg, old._vf_flat, want_streams, physical, step
        )
        assert got.n_collisions > 0
        assert got.collisions_by_block == want.collisions_by_block
        assert np.array_equal(new.particles.starts, old.particles.starts)
        for col in ("u", "v", "w", "rot", "perm"):
            assert np.array_equal(
                getattr(new.particles, col)[physical.order],
                getattr(old.particles, col),
            ), col
        for a, b in zip(got_streams, want_streams):
            assert a.random() == b.random()


class TestEngineRestrictions:
    def test_sharded_backend_rejected(self):
        # Replicas x shards do not compose yet: a typed refusal before
        # any worker is spawned.
        with pytest.raises(ConfigurationError, match="serial backend"):
            EnsembleEngine(
                _small_config(), n_replicas=2, backend=ShardedBackend(2)
            )

    def test_live_generator_seed_rejected(self):
        cfg = dataclasses.replace(
            _small_config(), seed=np.random.default_rng(1)
        )
        with pytest.raises(ConfigurationError):
            EnsembleEngine(cfg, n_replicas=2)

    def test_duplicate_replica_ids_rejected(self):
        with pytest.raises(ConfigurationError):
            EnsembleEngine(_small_config(), replica_ids=[1, 1])

    def test_negative_replica_id_rejected(self):
        with pytest.raises(ConfigurationError):
            EnsembleEngine(_small_config(), replica_ids=[-1, 0])

    def test_zero_replicas_rejected(self):
        with pytest.raises(ConfigurationError):
            EnsembleEngine(_small_config(), n_replicas=0)

    def test_counting_kernel_rejected(self):
        with pytest.raises(ConfigurationError, match="'incremental' sort"):
            EnsembleEngine(
                _small_config(sort_kernel="counting"), n_replicas=2
            )


class TestBlockedSurgery:
    """The in-place surgery on a population that declares its blocks.

    Oracle: the same call on each block alone, compared on every column.
    """

    @staticmethod
    def _block(rng, n):
        return ParticleArrays(
            x=rng.random(n),
            y=rng.random(n),
            u=rng.random(n),
            v=rng.random(n),
            w=rng.random(n),
            rot=rng.random((n, 2)),
            perm=random_permutation_table(rng, n),
            cell=rng.integers(0, 99, size=n),
            z=rng.random(n),
        )

    @classmethod
    def _blocked(cls, sizes, seed=3):
        """``(blocked population, its starts, the blocks as solo copies)``."""
        import functools

        rng = np.random.default_rng(seed)
        blocks = [cls._block(rng, n) for n in sizes]
        parts = functools.reduce(
            ParticleArrays.concatenate, blocks, ParticleArrays.empty(2)
        )
        parts.enable_scratch()
        starts = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=starts[1:])
        parts.starts = starts
        for blk in blocks:
            blk.enable_scratch()
        return parts, starts, blocks

    @staticmethod
    def _assert_blocks_equal(parts, blocks):
        parts.validate()
        assert parts.starts.dtype == np.int64
        assert parts.starts.tolist() == np.cumsum(
            [0] + [blk.n for blk in blocks]
        ).tolist()
        for b, blk in enumerate(blocks):
            b0, b1 = parts.starts[b : b + 2]
            for name in COLUMN_NAMES:
                assert np.array_equal(
                    getattr(parts, name)[b0:b1], getattr(blk, name)
                ), f"block {b} column {name} diverged"

    def test_remove_blocked_matches_solo_removal(self):
        parts, starts, blocks = self._blocked([6, 4, 5])
        mask = np.random.default_rng(9).random(parts.n) < 0.4
        n_before = parts.n
        removed = parts.remove_inplace(np.flatnonzero(mask))
        for b, blk in enumerate(blocks):
            rows = np.flatnonzero(mask[starts[b] : starts[b + 1]])
            assert blk.remove_inplace(rows) == [removed[b]]
        self._assert_blocks_equal(parts, blocks)
        assert parts.n == (~mask).sum() == n_before - sum(removed) < n_before

    @pytest.mark.parametrize(
        "sizes, emptied",
        [
            ([6, 0, 5], None),  # an empty block
            ([4, 7, 3], 1),  # a block emptied entirely
            ([0, 0, 9], 2),  # empty heads, the one live block emptied
            ([5, 8, 0, 0], None),  # mixed empty / non-empty tails
            ([7], None),  # one declared block
        ],
    )
    def test_removal_on_every_column(self, sizes, emptied):
        parts, starts, blocks = self._blocked(sizes, seed=len(sizes))
        mask = np.random.default_rng(2).random(parts.n) < 0.5
        if emptied is not None:
            mask[starts[emptied] : starts[emptied + 1]] = True
        parts.remove_inplace(np.flatnonzero(mask))
        for b, blk in enumerate(blocks):
            blk.remove_inplace(np.flatnonzero(mask[starts[b] : starts[b + 1]]))
        self._assert_blocks_equal(parts, blocks)

    def test_all_false_mask_removes_nothing(self):
        parts, starts, blocks = self._blocked([4, 0, 6])
        assert parts.remove_inplace(np.array([], dtype=np.intp)) == [0, 0, 0]
        self._assert_blocks_equal(parts, blocks)

    def test_append_blocked_matches_solo_append(self):
        parts, starts, blocks = self._blocked([3, 5])
        _, _, fresh = self._blocked([2, 4], seed=4)
        parts.append_inplace(fresh)
        for blk, new in zip(blocks, fresh):
            blk.append_inplace(new)
        self._assert_blocks_equal(parts, blocks)

    @pytest.mark.parametrize(
        "sizes, grown",
        [
            ([3, 0, 5], [2, 4, 0]),  # into an empty block; an empty tail
            ([0, 0], [3, 1]),  # an empty population
            ([4, 2, 6], [0, 0, 70]),  # outgrows the buffers
            ([5], [3]),  # one declared block
        ],
    )
    def test_append_on_every_column(self, sizes, grown):
        parts, starts, blocks = self._blocked(sizes)
        _, _, fresh = self._blocked(grown, seed=4)
        parts.append_inplace(fresh)
        for blk, new in zip(blocks, fresh):
            blk.append_inplace(new)
        self._assert_blocks_equal(parts, blocks)

    def test_empty_append_is_noop(self):
        parts, starts, _ = self._blocked([4, 3])
        empties = [
            ParticleArrays.empty(2),
            ParticleArrays.empty(2),
        ]
        before = {name: getattr(parts, name).copy() for name in COLUMN_NAMES}
        parts.append_inplace(empties)
        assert np.array_equal(parts.starts, starts)
        for name in COLUMN_NAMES:
            assert np.array_equal(getattr(parts, name), before[name])

    def test_one_block_never_touches_the_spares(self):
        # Serial populations and reservoirs: starts stays None and the
        # surgery is O(removed) / O(appended) in the column buffers: no
        # spare is written and no column moves to another buffer.
        parts, _, _ = self._blocked([40])
        parts.starts = None
        fresh = self._block(np.random.default_rng(5), 7)
        front = dict(parts.column_buffers)
        spares = list(parts._spares.values())
        for buf in spares:
            buf.view(np.uint8)[...] = 0xAB
        mask = np.random.default_rng(6).random(parts.n) < 0.3
        assert parts.remove_inplace(np.flatnonzero(mask)) == [int(mask.sum())]
        parts.append_inplace(fresh)
        parts.append_inplace([fresh])
        assert parts.starts is None and parts.n_blocks == 1
        assert parts.n == 40 - mask.sum() + 14
        assert len(spares) == 3 and all(
            new is old for new, old in zip(parts._spares.values(), spares)
        )
        for buf in spares:
            assert (buf.view(np.uint8) == 0xAB).all()
        for name in COLUMN_NAMES:
            assert parts.column_buffers[name] is front[name]
            assert np.shares_memory(getattr(parts, name), front[name])

    def test_typed_errors(self):
        parts, _, blocks = self._blocked([4, 3])
        with pytest.raises(ConfigurationError, match="one appended population"):
            parts.append_inplace(blocks[0])
        with pytest.raises(ConfigurationError, match="one appended population"):
            parts.append_inplace(blocks + blocks)
        with pytest.raises(ConfigurationError, match="ascending distinct rows"):
            parts.remove_inplace(np.array([0, parts.n]))
        with pytest.raises(ConfigurationError, match="ascending distinct rows"):
            parts.remove_inplace(np.array([2, 1]))
        # A blocked population that grew behind its starts' back says so
        # at its next surgery, not with an IndexError mid-copy.
        perm = np.tile(np.arange(5, dtype=np.int8), (2, 1))
        parts.append_rows(np.zeros((2, 8)), perm, 2)
        for surgery in (
            lambda: parts.remove_inplace(np.array([0])),
            lambda: parts.append_inplace(blocks),
        ):
            with pytest.raises(ConfigurationError, match=r"starts\[-1\] must equal"):
                surgery()
        with pytest.raises(ConfigurationError, match=r"starts\[-1\] must equal"):
            parts.validate()

    @pytest.mark.parametrize(
        "starts, match",
        [
            ([0, 5, 3, 7], "without decreasing"),
            ([1, 4, 7], "rise from 0"),
            ([0, -2, 7], "without decreasing"),
            ([0, 4, 6], r"starts\[-1\] must equal"),
            ([7], "at least two"),
            ([0.0, 7.0], "integer"),
        ],
    )
    def test_validate_checks_starts(self, starts, match):
        parts, _, _ = self._blocked([7])
        parts.starts = np.array(starts)
        with pytest.raises(ConfigurationError, match=match):
            parts.validate()

    @pytest.mark.parametrize("n_blocks", [1, 3, 8])
    def test_surgery_equals_one_block_calls(self, n_blocks):
        # Remove (the last block emptied to 0 rows), append (it grows
        # back from 0, and the buffers outgrow their capacity), then
        # grow (the capacity grows again): after each call every column
        # and ``starts`` equal the one-block calls.
        sizes = [5, 0, 7, 3, 12, 0, 4, 8][:n_blocks]
        parts, starts, blocks = self._blocked(sizes, seed=n_blocks)
        rng = np.random.default_rng(n_blocks)

        mask = rng.random(parts.n) < 0.4
        mask[starts[-2] :] = True
        removed = parts.remove_inplace(np.flatnonzero(mask))
        assert removed == [
            blk.remove_inplace(np.flatnonzero(mask[b0:b1]))[0]
            for blk, b0, b1 in zip(blocks, starts[:-1], starts[1:])
        ]
        assert blocks[-1].n == 0
        self._assert_blocks_equal(parts, blocks)

        cap = parts.capacity
        grown = [b % 3 for b in range(n_blocks - 1)] + [cap + 9]
        _, _, fresh = self._blocked(grown, seed=11)
        parts.append_inplace(ParticleArrays.from_blocks(fresh))
        for blk, new in zip(blocks, fresh):
            blk.append_inplace(new)
        assert parts.capacity > cap
        self._assert_blocks_equal(parts, blocks)

        cap = parts.capacity
        counts = [2 * b for b in range(n_blocks - 1)] + [cap]
        _, _, fill = self._blocked(counts, seed=12)
        rows = parts.grow_inplace(counts)
        assert parts.capacity > cap
        ends = parts.block_edges()[1:]
        assert np.arange(parts.n)[rows].tolist() == [
            i for e, k in zip(ends, counts) for i in range(e - k, e)
        ]
        joined = ParticleArrays.concatenate(*fill)
        for blk, k, new in zip(blocks, counts, fill):
            solo_rows = blk.grow_inplace([k])
            for name in COLUMN_NAMES:
                getattr(blk, name)[solo_rows] = getattr(new, name)
        for name in COLUMN_NAMES:
            getattr(parts, name)[rows] = getattr(joined, name)
        self._assert_blocks_equal(parts, blocks)

    def test_grow_typed_errors(self):
        parts, _, _ = self._blocked([4, 3])
        with pytest.raises(ConfigurationError, match="1 counts for 2"):
            parts.grow_inplace([1])
        with pytest.raises(ConfigurationError, match="non-negative"):
            parts.grow_inplace([1, -1])
        bare = ParticleArrays.from_blocks(self._blocked([4, 3])[2])
        with pytest.raises(ConfigurationError, match="enable_scratch"):
            bare.grow_inplace([1, 1])

    def test_copies_are_one_block(self):
        parts, _, blocks = self._blocked([4, 3])
        assert parts.n_blocks == 2
        for one in (
            parts.copy(),
            parts.select(np.arange(5)),
            ParticleArrays.concatenate(parts, blocks[0]),
        ):
            assert one.starts is None and one.n_blocks == 1


class TestEnsembleSnapshot:
    def test_roundtrip_resumes_bitwise(self, tmp_path):
        # Checkpointed between two physical re-sorts; the continuation
        # crosses the ones at steps 32 and 64.
        cfg = _small_config(seed=13)
        path = tmp_path / "ens.npz"
        saved, transient = RESORT_PERIOD - 12, 2 * RESORT_PERIOD + 2

        straight = EnsembleEngine(cfg, n_replicas=2)
        straight.run(transient)
        straight.run(3, sample=True)

        eng = EnsembleEngine(cfg, n_replicas=2)
        eng.run(saved)
        save_simulation(eng, path)
        resumed = load_simulation(path)
        eng.run(transient - saved)
        resumed.run(transient - saved)
        eng.run(3, sample=True)
        resumed.run(3, sample=True)
        assert state_digest(resumed) == state_digest(eng)
        assert state_digest(eng) == state_digest(straight)

    @pytest.mark.parametrize("n_replicas", [1, 3])
    def test_one_and_three_replicas_continue_bitwise(self, n_replicas, tmp_path):
        # One replica declares no blocks, yet its archive still spells
        # its one block's starts; either width continues bitwise across
        # the re-sort at step 32.
        cfg = _small_config(seed=19)
        path = tmp_path / "ens.npz"
        straight = EnsembleEngine(cfg, n_replicas=n_replicas)
        straight.run(RESORT_PERIOD + 6, sample=True)
        eng = EnsembleEngine(cfg, n_replicas=n_replicas)
        eng.run(RESORT_PERIOD - 6, sample=True)
        save_simulation(eng, path)
        with np.load(path) as data:
            assert data["starts"].tolist() == eng.particles.block_edges()
        resumed = load_simulation(path)
        assert (resumed.particles.starts is None) == (n_replicas == 1)
        assert resumed.reservoir.particles.n_blocks == n_replicas
        resumed.run(12, sample=True)
        assert state_digest(resumed) == state_digest(straight)

    def test_load_rejects_counting_kernel_archive(self, tmp_path):
        # The engine never ran the counting kernel: an archive that
        # claims it is refused at load, not continued as if it had.
        path = tmp_path / "ens.npz"
        save_simulation(EnsembleEngine(_small_config(), n_replicas=2), path)
        with np.load(path) as data:
            members = dict(data)
        blob = str(members["config_json"])
        assert '"sort_kernel": "incremental"' in blob
        members["config_json"] = np.array(
            blob.replace('"incremental"', '"counting"')
        )
        np.savez(path, **members)
        with pytest.raises(ConfigurationError, match="'incremental' sort"):
            load_simulation(path)

    def test_load_rejects_non_ensemble_npz(self, tmp_path):
        # A plain .npz that is no snapshot at all is refused, typed, by
        # the one loader -- not silently accepted.
        path = tmp_path / "bogus.npz"
        np.savez(path, not_an_ensemble=np.arange(3))
        with pytest.raises(CheckpointCorruptionError, match="format_version"):
            load_simulation(path)


class TestReplicaGauges:
    """The gauges ``repro run --replicas R --telemetry`` writes to
    ``metrics.prom``, one series per replica id: the telemetry hub
    publishes them for any run with ``replica_ids``, next to its block
    totals."""

    @pytest.mark.parametrize("replica_ids", [[0, 1, 2], [2]])
    def test_per_replica_gauges(self, replica_ids):
        hub = Telemetry()
        eng = EnsembleEngine(
            _small_config(), replica_ids=replica_ids, telemetry=hub
        )
        diag = eng.run(3)
        registry = hub.registry
        gauges = dict(
            line.rsplit(" ", 1)
            for line in registry.to_prometheus().splitlines()
            if line.startswith("ensemble_")
        )
        gauges = {name: float(value) for name, value in gauges.items()}
        per_replica = {
            name: np.atleast_1d(getattr(diag, f"n_{name}")).tolist()
            for name in ("flow", "collisions", "reservoir")
        }
        assert isinstance(diag.n_flow, int if len(replica_ids) == 1 else tuple)
        assert gauges.pop("ensemble_replicas") == len(replica_ids)
        assert gauges.pop("ensemble_flow_total") == diag.n_flow_total == (
            sum(per_replica["flow"])
        ) == eng.particles.n
        assert gauges.pop("ensemble_collisions_total") == (
            diag.n_collisions_total
        ) == sum(per_replica["collisions"]) > 0
        assert gauges.pop("ensemble_energy_total") == pytest.approx(
            diag.total_energy
        )
        assert gauges == {
            f'ensemble_{name}{{replica="{rid}"}}': values[r]
            for name, values in per_replica.items()
            for r, rid in enumerate(replica_ids)
        }
        # The hub's own series count the block totals.
        assert registry.gauge("repro_flow_particles").value == eng.particles.n
        assert registry.gauge("repro_reservoir_particles").value == (
            diag.n_reservoir_total
        )
        assert registry.counter("repro_steps_total").value == 3


class TestEnsembleSamplerUnits:
    """The blocked ``CellSampler``: one pass, one set of cells per block."""

    def test_replica_slices_match_solo_samplers(self):
        domain = Domain(nx=4, ny=3)
        samp = CellSampler(domain, n_blocks=2)
        rng = np.random.default_rng(5)
        n = 20
        parts = ParticleArrays(
            x=rng.random(n),
            y=rng.random(n),
            u=rng.standard_normal(n),
            v=rng.standard_normal(n),
            w=rng.standard_normal(n),
            rot=rng.standard_normal((n, 2)),
            perm=random_permutation_table(rng, n),
            cell=rng.integers(0, domain.n_cells, size=n),
        )
        parts.starts = np.array([0, 12, n])
        samp.accumulate(parts)

        for r, (i0, i1) in enumerate(zip(parts.starts[:-1], parts.starts[1:])):
            solo = CellSampler(domain)
            solo.accumulate(parts.select(np.arange(i0, i1)))
            rep = samp.block(r)
            assert rep.steps == solo.steps == 1
            for name in SAMPLER_FIELDS:
                assert np.array_equal(getattr(rep, name), getattr(solo, name))
        with pytest.raises(ConfigurationError, match="blocks()"):
            samp.number_density()

    def test_key_bounds_validated(self):
        # A population declaring more blocks than the sampler holds
        # keys past its last cell.
        with pytest.raises(ConfigurationError):
            CellSampler(Domain(nx=2, ny=2), n_blocks=0)
        samp = CellSampler(Domain(nx=2, ny=2))
        parts = ParticleArrays.empty(2)
        parts.starts = np.zeros(3, dtype=np.int64)
        samp.accumulate(parts)  # empty blocks key nothing
        rng = np.random.default_rng(1)
        parts = ParticleArrays.from_freestream(
            rng, 3, Freestream(mach=4.0, c_mp=0.14, lambda_mfp=0.5),
            x_range=(0.0, 2.0), y_range=(0.0, 2.0),
        )
        parts.starts = np.array([0, 1, 3])
        with pytest.raises(ConfigurationError, match="out of range"):
            samp.accumulate(parts)


class TestEnsembleStatistic:
    def test_mean_and_interval(self):
        stat = ensemble_statistic([1.0, 2.0, 3.0, 4.0], confidence=0.95)
        assert stat.mean == pytest.approx(2.5)
        assert stat.n == 4
        assert stat.lo < 2.5 < stat.hi
        assert stat.lo <= 2.5 <= stat.hi
        assert not stat.lo <= stat.hi + 1.0 <= stat.hi

    def test_single_value_has_infinite_interval(self):
        stat = ensemble_statistic([3.0])
        assert stat.mean == 3.0
        assert stat.stderr == float("inf")
        assert stat.lo <= -1e300 and 1e300 <= stat.hi

    def test_confidence_validated(self):
        with pytest.raises(ConfigurationError):
            ensemble_statistic([1.0, 2.0], confidence=1.5)
        with pytest.raises(ConfigurationError):
            ensemble_statistic([], confidence=0.9)

    def test_wider_confidence_widens_interval(self):
        vals = [1.0, 2.0, 3.0]
        narrow = ensemble_statistic(vals, confidence=0.5)
        wide = ensemble_statistic(vals, confidence=0.99)
        assert (wide.hi - wide.lo) > (narrow.hi - narrow.lo)


class TestGoldenEnsembleHook:
    """validate_scenario(replicas=R): one engine of R replica blocks, the
    mean of their measurements checked against each check's own
    tolerance, the t-interval half-width reported alongside."""

    OVERRIDES = {
        "nx": 32, "ny": 20, "density": 6.0, "transient": 10, "average": 10,
    }

    @staticmethod
    def _inlet_spec():
        """The wedge with only its inlet band check (no shock to fit at
        the small scale of ``OVERRIDES``)."""
        from repro.scenarios import ScenarioSpec, get

        data = get("wedge").to_dict()
        data["validation"]["checks"] = [
            c for c in data["validation"]["checks"]
            if c["name"] == "upstream_unity"
        ]
        return ScenarioSpec.from_dict(data)

    def test_replicas_validate_by_mean_with_ci(self):
        from repro.scenarios.golden import (
            execute,
            measure_check,
            validate_scenario,
            validation_overrides,
        )

        spec = self._inlet_spec()
        report = validate_scenario(spec, self.OVERRIDES, replicas=3)
        runs = execute(
            spec, validation_overrides(spec, self.OVERRIDES), replicas=3
        )
        assert report.replicas == len(runs) == 3
        (check,) = spec.validation["checks"]
        (result,) = report.results
        values = [measure_check(run, check) for run in runs]
        want = ensemble_statistic(values)
        assert len(set(values)) == 3  # three realizations
        assert result.value == want.mean
        assert result.ci == pytest.approx((want.hi - want.lo) / 2)
        assert result.ok == (abs(want.mean - 1.0) <= check["abs_tol"])
        assert "mean of 3 replicas" in report.to_text()

    def test_replicas_one_is_the_point_check(self):
        from repro.scenarios.golden import validate_scenario

        report = validate_scenario(
            self._inlet_spec(), self.OVERRIDES, replicas=1
        )
        assert report.replicas == 1
        assert all(r.ci is None for r in report.results)
        assert "ci +/-" not in report.to_text()

    def test_validate_scenario_rejects_bad_ensemble_args(self):
        from repro.scenarios import get
        from repro.scenarios.golden import run_scenario, validate_scenario

        spec = get("wedge")
        with pytest.raises(ConfigurationError):
            validate_scenario(spec, replicas=0)
        run = run_scenario(spec, overrides=self.OVERRIDES)
        with pytest.raises(ConfigurationError):
            validate_scenario(spec, run=run, replicas=2)

    def test_wedge_replicas_pass_at_validation_scale(self):
        # A correct run is not failed for validation scale's known
        # biases (the inlet band sits ~5% under freestream): the gate is
        # the check's tolerance, not the interval's width.
        from repro.scenarios import get
        from repro.scenarios.golden import validate_scenario

        report = validate_scenario(get("wedge"), replicas=2)
        assert report.ok, "\n" + report.to_text()

    def test_report_renders_ci_tolerances(self):
        from repro.scenarios.golden import CheckResult, ValidationReport

        report = ValidationReport(
            scenario="wedge",
            results=[
                CheckResult(
                    name="shock_angle_deg", kind="shock_angle",
                    expect="theory:shock_angle", value=40.1,
                    expected=39.8, tol=0.08, tol_kind="rel", ok=True,
                    ci=0.6,
                )
            ],
            replicas=4,
        )
        text = report.to_text()
        assert "ci +/-0.6" in text
        assert "rel 0.08" in text
        assert "PASS (mean of 4 replicas, 95% CI)" in text
