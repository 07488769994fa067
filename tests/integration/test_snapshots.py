"""Integration tests for checkpoint/restore."""

import dataclasses

import numpy as np
import pytest

from repro.core.particles import COLUMN_NAMES
from repro.core.sampling import SAMPLER_FIELDS
from repro.core.simulation import Simulation, SimulationConfig
from repro.core.sortstep import RESORT_PERIOD
from repro.ensemble import EnsembleEngine
from repro.errors import CheckpointCorruptionError, ConfigurationError
from repro.geometry.domain import Domain
from repro.geometry.domain3d import Domain3D
from repro.geometry.wedge import Wedge
from repro.io.snapshots import (
    load_ensemble,
    load_simulation,
    save_ensemble,
    save_simulation,
)
from repro.physics.freestream import Freestream
from repro.verify import state_digest

#: Continuation tests checkpoint *between* two physical re-sorts of the
#: indexed kernel and run past one on each side: the re-sort schedule
#: must come back from the archive (``step_count``), not from the sorter.
BEFORE = RESORT_PERIOD + 8
AFTER = RESORT_PERIOD + 4


class TestSnapshotRoundtrip:
    def test_state_restored_exactly(self, small_config, tmp_path):
        sim = Simulation(small_config)
        sim.run(12)
        sim.run(4, sample=True)
        path = tmp_path / "ckpt.npz"
        save_simulation(sim, path)
        back = load_simulation(path)
        assert back.step_count == sim.step_count
        assert np.array_equal(back.particles.x, sim.particles.x)
        assert np.array_equal(back.particles.perm, sim.particles.perm)
        assert back.reservoir.size == sim.reservoir.size
        assert back.boundaries.plunger.position == pytest.approx(
            sim.boundaries.plunger.position
        )
        assert back.sampler.steps == sim.sampler.steps
        assert np.allclose(
            back.density_ratio_field(), sim.density_ratio_field()
        )

    def test_continuation_is_bitwise_identical(self, small_config, tmp_path):
        # Continue vs checkpoint-restore-continue: identical trajectories.
        sim = Simulation(small_config)
        sim.run(BEFORE)
        assert sim.step_count % RESORT_PERIOD
        path = tmp_path / "ckpt.npz"
        save_simulation(sim, path)
        restored = load_simulation(path)
        sim.run(AFTER)
        restored.run(AFTER)
        for name in COLUMN_NAMES:
            assert np.array_equal(
                getattr(sim.particles, name), getattr(restored.particles, name)
            ), name
        assert sim.reservoir.size == restored.reservoir.size

    def test_slab_continuation_is_bitwise_identical(
        self, small_config, tmp_path
    ):
        """Save -> load -> continue == uninterrupted, on a slab: all
        nine columns (``z`` included), the reservoir, the sampler."""
        sim = Simulation(
            dataclasses.replace(small_config, domain=Domain3D(30, 20, 2))
        )
        sim.run(BEFORE - 4)
        sim.run(4, sample=True)
        path = tmp_path / "slab.npz"
        save_simulation(sim, path)
        restored = load_simulation(path)
        assert restored.config.domain == Domain3D(30, 20, 2)
        assert restored.particles.z.any()
        for s in (sim, restored):
            s.run(AFTER, sample=True)
        for a, b in (
            (sim.particles, restored.particles),
            (sim.reservoir.particles, restored.reservoir.particles),
        ):
            for name in COLUMN_NAMES:
                assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert sim.sampler.steps == restored.sampler.steps
        for name in SAMPLER_FIELDS:
            assert np.array_equal(
                getattr(sim.sampler, name), getattr(restored.sampler, name)
            ), name

    def test_2d_archive_is_what_it_always_was(self, small_config, tmp_path):
        """No span: eight columns and no ``nz`` on disk -- the format
        of every pre-existing archive -- and ``z`` loads zero-filled."""
        sim = Simulation(small_config)
        sim.run(5)
        path = tmp_path / "flat.npz"
        save_simulation(sim, path)
        with np.load(path) as data:
            assert not [k for k in data.files if k.endswith("_z")]
            assert '"nz"' not in str(data["config_json"])
        restored = load_simulation(path)
        assert restored.particles.z.shape == restored.particles.x.shape
        assert not restored.particles.z.any()

    def test_config_roundtrip_no_wedge(self, box_config, tmp_path):
        sim = Simulation(box_config)
        sim.run(3)
        path = tmp_path / "b.npz"
        save_simulation(sim, path)
        back = load_simulation(path)
        assert back.config.wedge is None
        assert back.config.freestream.mach == box_config.freestream.mach

    def test_version_check(self, small_config, tmp_path):
        sim = Simulation(small_config)
        sim.run(1)
        path = tmp_path / "v.npz"
        save_simulation(sim, path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["format_version"] = np.array(999)
        np.savez_compressed(path, **arrays)
        with pytest.raises(ConfigurationError):
            load_simulation(path)


class TestRestoredSeed:
    """A serial restore used to come back with ``config.seed == 0``, so
    its next checkpoint recorded shard seed 0 and a sharded restore of
    that archive keyed every shard stream from the wrong seed."""

    def test_seed_survives_two_round_trips(self, small_config, tmp_path):
        sim = Simulation(dataclasses.replace(small_config, seed=1989))
        sim.run(BEFORE)
        first, second = tmp_path / "first.npz", tmp_path / "second.npz"
        save_simulation(sim, first)
        once = load_simulation(first)
        assert once.config.seed == 1989
        save_simulation(once, second)
        with np.load(second) as data:
            assert int(data["shard_seed"]) == 1989
        assert load_simulation(second).config.seed == 1989
        digests = []
        for path in (first, second):
            with load_simulation(path, workers=2, processes=False) as sharded:
                sharded.run(AFTER)
                digests.append(state_digest(sharded))
        assert digests[0] == digests[1]


class TestEnsembleStartsAreChecked:
    """``load_ensemble`` used to accept any ``starts`` member and step a
    block of negative length silently (or die later, untyped)."""

    @pytest.fixture(scope="class")
    def archive(self, tmp_path_factory):
        config = SimulationConfig(
            domain=Domain(32, 24),
            freestream=Freestream(
                mach=4.0, c_mp=0.14, lambda_mfp=0.5, density=4.0
            ),
            wedge=Wedge(x_leading=8.0, base=12.0, angle_deg=25.0),
            seed=7,
        )
        eng = EnsembleEngine(config, n_replicas=3)
        eng.run(3)
        path = tmp_path_factory.mktemp("ens") / "ens.npz"
        save_ensemble(eng, path)
        with np.load(path) as data:
            return {k: data[k] for k in data.files}

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda s: s[[0, 2, 1, 3]],  # decreasing: a block of negative rows
            lambda s: s[:-1],  # short for replica_ids
            lambda s: np.append(s, s[-1]),  # long for replica_ids
            lambda s: np.array([0, -5, s[2], s[3]]),  # negative entry
            lambda s: s + 1,  # not from 0 (nor to n)
            lambda s: np.append(s[:-1], s[-1] - 1),  # not ending at the flow
            lambda s: s.astype(np.float64),  # wrong dtype
        ],
        ids=["decreasing", "short", "long", "negative", "offset", "end", "float"],
    )
    def test_corrupt_starts_raise_at_load(self, archive, corrupt, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, **{**archive, "starts": corrupt(archive["starts"])})
        with pytest.raises(CheckpointCorruptionError, match="block starts"):
            load_ensemble(path)

    def test_intact_archive_loads_with_its_blocks(self, archive, tmp_path):
        path = tmp_path / "good.npz"
        np.savez(path, **archive)
        eng = load_ensemble(path)
        assert np.array_equal(eng.particles.starts, archive["starts"])
        assert eng.particles.starts.dtype == np.int64
        eng.particles.validate()
        eng.run(2)


def _set(member, fn):
    """A corruption: ``member`` replaced by ``fn(member's array)``."""
    def corrupt(members):
        members[member] = fn(members[member].copy())
    return corrupt


def _nan_first(a):
    a[0] = np.nan
    return a


#: Rewrites of one member of an intact archive, per loader, each with
#: the text the refusal must contain.  Before the loaders checked the
#: particle members, every one of these loaded: the first three stepped
#: on with a finite total energy, the one-column ``rot`` failed the
#: first step with a bare ``ValueError``, and the negative step count
#: loaded (the ensemble's next step then raised an untyped error).
CORRUPTIONS = {
    "perm_float64": (
        {loader: _set("flow_perm", lambda a: a.astype(np.float64))
         for loader in ("simulation", "ensemble")},
        r"members flow_\*: column perm is float64\[\d+, 5\], not int8",
    ),
    "flow_x_nan": (
        {loader: _set("flow_x", _nan_first)
         for loader in ("simulation", "ensemble")},
        r"members flow_\*: column x has non-finite values",
    ),
    "reservoir_u_nan": (
        {"simulation": _set("res_u", _nan_first),
         "ensemble": _set("res1_u", _nan_first)},
        r"members res1?_\*: column u has non-finite values",
    ),
    "one_column_rot": (
        {"simulation": _set("flow_rot", lambda a: a[:, :1].copy()),
         "ensemble": _set("res2_rot", lambda a: a[:, :1].copy())},
        r"members (flow|res2)_\*: column rot is \[\d+, 1\], not 2 rotational",
    ),
    "negative_step_count": (
        {loader: _set("step_count", lambda a: np.array(-5))
         for loader in ("simulation", "ensemble")},
        r"member step_count is negative \(-5\)",
    ),
}


class TestParticleMembersAreChecked:
    """Each loader refuses a corrupt particle member or step count with
    ``CheckpointCorruptionError`` naming the member -- the error the
    supervisor falls back to an older checkpoint on."""

    LOADERS = {"simulation": load_simulation, "ensemble": load_ensemble}

    @pytest.fixture(scope="class")
    def archives(self, tmp_path_factory):
        """Intact uncompressed archives after 5 steps, per loader, and
        the digest of the uninterrupted run 3 steps later."""
        config = SimulationConfig(
            domain=Domain(49, 32),
            freestream=Freestream(
                mach=4.0, c_mp=0.14, lambda_mfp=0.5, density=4.0
            ),
            wedge=Wedge(x_leading=10.0, base=12.5, angle_deg=30.0),
            seed=5,
        )
        root = tmp_path_factory.mktemp("members")
        out = {}
        for loader, engine, save in (
            ("simulation", Simulation(config), save_simulation),
            ("ensemble", EnsembleEngine(config, n_replicas=3), save_ensemble),
        ):
            engine.run(5)
            save(engine, root / f"{loader}.npz", compress=False)
            engine.run(3)
            with np.load(root / f"{loader}.npz") as data:
                out[loader] = (
                    {k: data[k] for k in data.files}, state_digest(engine)
                )
        return out

    @pytest.mark.parametrize("loader", ["simulation", "ensemble"])
    @pytest.mark.parametrize("case", sorted(CORRUPTIONS))
    def test_corrupt_member_raises_at_load(
        self, archives, loader, case, tmp_path
    ):
        corrupt, match = CORRUPTIONS[case]
        members = dict(archives[loader][0])
        corrupt[loader](members)
        path = tmp_path / "bad.npz"
        np.savez(path, **members)
        with pytest.raises(CheckpointCorruptionError, match=match):
            self.LOADERS[loader](path)

    @pytest.mark.parametrize("loader", ["simulation", "ensemble"])
    def test_intact_archive_continues_bitwise(self, archives, loader, tmp_path):
        members, straight = archives[loader]
        path = tmp_path / "good.npz"
        np.savez(path, **members)
        resumed = self.LOADERS[loader](path)
        resumed.run(3)
        assert resumed.step_count == 8
        assert state_digest(resumed) == straight
