"""Integration tests for checkpoint/restore."""

import dataclasses
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sampling import SAMPLER_FIELDS
from repro.core.simulation import Simulation, SimulationConfig
from repro.core.sortstep import RESORT_PERIOD
from repro.core.surface import SURFACE_FIELDS
from repro.ensemble import EnsembleEngine
from repro.errors import CheckpointCorruptionError, ConfigurationError
from repro.geometry.domain import Domain
from repro.geometry.domain3d import Domain3D
from repro.geometry.wedge import Wedge
from repro.io.snapshots import load_simulation, save_simulation
from repro.parallel.backend import ShardedBackend
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
        assert state_digest(back) == state_digest(sim)

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
        assert state_digest(restored) == state_digest(sim)

    def test_slab_continuation_is_bitwise_identical(
        self, small_config, tmp_path
    ):
        """Save -> load -> continue == uninterrupted, on a slab (the
        digest covers ``z`` with the other columns)."""
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
        assert state_digest(restored) == state_digest(sim)

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


def _wedge_config() -> SimulationConfig:
    return SimulationConfig(
        domain=Domain(32, 24),
        freestream=Freestream(mach=4.0, c_mp=0.14, lambda_mfp=0.5, density=4.0),
        wedge=Wedge(x_leading=8.0, base=12.0, angle_deg=25.0),
        seed=7,
    )


def _members(path) -> dict:
    with np.load(path) as data:
        return {k: data[k] for k in data.files}


#: Every execution mode, built fresh: one writer and one loader serve
#: them all.
MODES = {
    "serial": lambda cfg: Simulation(cfg),
    "sharded_w2": lambda cfg: Simulation(
        cfg, backend=ShardedBackend(2, processes=False)
    ),
    "slab": lambda cfg: Simulation(
        dataclasses.replace(cfg, domain=Domain3D(30, 20, 2))
    ),
    "ensemble_r1": lambda cfg: EnsembleEngine(cfg, n_replicas=1),
    "ensemble_r3": lambda cfg: EnsembleEngine(cfg, n_replicas=3),
}


class TestOneWriterOneLoader:
    """``save_simulation`` -> ``load_simulation`` -> continue, across the
    re-sort at step 64, reaches the uninterrupted run's digest in every
    mode -- and the archive is one layout for one block or R."""

    #: Off the re-sort and rebalance schedules, and where the
    #: rebalancer has the two slabs non-uniform.
    SAVED = RESORT_PERIOD + 2

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_mode_continues_to_the_uninterrupted_digest(self, mode, tmp_path):
        sim = MODES[mode](_wedge_config())
        path = tmp_path / f"{mode}.npz"
        try:
            sim.run(self.SAVED - 4)
            sim.run(4, sample=True)
            if mode == "sharded_w2":
                # The cadence decided at steps 10, 20 and 30; force
                # one decision off the cadence too.
                sim.backend.maybe_rebalance(sim.step_count, force=True)
                assert sim.backend.slab_edges != (0, 16, 32)
            save_simulation(sim, path)
            sim.run(AFTER, sample=True)
            restored = load_simulation(path, processes=False)
            with restored:
                assert type(restored) is type(sim)
                restored.run(AFTER, sample=True)
                assert state_digest(restored) == state_digest(sim)
        finally:
            sim.close()

    @pytest.mark.parametrize("n_replicas", [1, 3])
    def test_blocks_are_numbered_members(self, n_replicas, tmp_path):
        eng = EnsembleEngine(_wedge_config(), n_replicas=n_replicas)
        eng.run(3, sample=True)
        save_simulation(eng, tmp_path / "ens.npz")
        members = _members(tmp_path / "ens.npz")
        assert int(members["format_version"]) == 4
        assert members["replica_ids"].tolist() == list(range(n_replicas))
        assert members["starts"].tolist() == eng.particles.block_edges()
        for b in range(n_replicas):
            assert f"res{b}_x" in members and f"surface{b}_steps" in members
        assert not [k for k in members if k.startswith(("res_", "surface_"))]

    def test_serial_archive_names_no_replicas(self, small_config, tmp_path):
        sim = Simulation(small_config)
        sim.run(2)
        save_simulation(sim, tmp_path / "solo.npz")
        members = _members(tmp_path / "solo.npz")
        assert "replica_ids" not in members
        assert members["starts"].tolist() == [0, sim.particles.n]

    def test_ensemble_refuses_workers(self, tmp_path):
        path = tmp_path / "ens.npz"
        save_simulation(EnsembleEngine(_wedge_config(), n_replicas=2), path)
        with pytest.raises(ConfigurationError, match="restores serially"):
            load_simulation(path, workers=2, processes=False)

    def test_ensemble_refuses_a_seed_it_cannot_key(self, tmp_path):
        path = tmp_path / "ens.npz"
        cfg = dataclasses.replace(
            _wedge_config(), seed=np.random.SeedSequence(3)
        )
        save_simulation(EnsembleEngine(cfg, n_replicas=2), path)
        with pytest.raises(ConfigurationError, match="integer seed"):
            load_simulation(path)


#: The parent's solo layout (format 3) and ensemble layout (ensemble
#: format 1), member for member, for the archives below.
_COLUMNS = ("x", "y", "u", "v", "w", "rot", "perm", "cell")
_SAMPLER = (
    "sampler_steps", "sampler_count", "sampler_mu", "sampler_mv",
    "sampler_mw", "sampler_e_trans", "sampler_e_rot",
)
_SURFACE = ("steps", "impulse_x", "impulse_y", "hits")
SOLO_V3 = {
    "backend_workers", "flux_pending", "shard_seed", "format_version",
    "config_json", "rng_state_json", "step_count", "plunger_position",
    *_SAMPLER,
    *(f"surface_{name}" for name in _SURFACE),
    *(f"flow_{c}" for c in _COLUMNS),
    *(f"res_{c}" for c in _COLUMNS),
}
ENSEMBLE_V1 = {
    "ensemble_format_version", "config_json", "ensemble_seed",
    "replica_ids", "starts", "step_count", "plunger_position",
    *_SAMPLER,
    *(f"flow_{c}" for c in _COLUMNS),
    *(f"res{r}_{c}" for r in range(3) for c in _COLUMNS),
    *(f"surface{r}_{name}" for r in range(3) for name in _SURFACE),
}


def _as_solo_v3(members: dict) -> dict:
    """A format-4 solo archive in the parent's format-3 layout."""
    out = {}
    for name, a in members.items():
        if name.startswith(("res0_", "surface0_")):
            head, _, rest = name.partition("0_")
            name = f"{head}_{rest}"
        out[name] = a
    del out["starts"]
    out["format_version"] = np.array(3)
    assert set(out) == SOLO_V3
    return out


def _as_ensemble_v1(members: dict) -> dict:
    """A format-4 R = 3 ensemble archive in the parent's ensemble layout."""
    out = dict(members)
    for name in ("format_version", "backend_workers", "flux_pending",
                 "rng_state_json"):
        del out[name]
    out["ensemble_seed"] = out.pop("shard_seed")
    out["ensemble_format_version"] = np.array(1)
    assert set(out) == ENSEMBLE_V1
    return out


class TestLegacyArchives:
    """Archives the parent wrote -- solo format 3 and ensemble format 1
    -- load through the one path and continue bitwise across the re-sort
    at step 64."""

    @pytest.mark.parametrize(
        "build, legacy",
        [
            (lambda cfg: Simulation(cfg), _as_solo_v3),
            (lambda cfg: EnsembleEngine(cfg, n_replicas=3), _as_ensemble_v1),
        ],
        ids=["solo_v3", "ensemble_v1"],
    )
    def test_legacy_archive_continues_bitwise(self, build, legacy, tmp_path):
        sim = build(_wedge_config())
        sim.run(BEFORE - 4)
        sim.run(4, sample=True)
        save_simulation(sim, tmp_path / "v4.npz")
        path = tmp_path / "legacy.npz"
        np.savez(path, **legacy(_members(tmp_path / "v4.npz")))
        sim.run(AFTER, sample=True)
        restored = load_simulation(path)
        assert type(restored) is type(sim)
        restored.run(AFTER, sample=True)
        assert state_digest(restored) == state_digest(sim)


class TestEnsembleStartsAreChecked:
    """The loader used to accept any ``starts`` member of an ensemble
    archive and step a block of negative length silently (or die later,
    untyped).  A serial archive spells its one block's ``starts`` too,
    checked the same way."""

    @pytest.fixture(scope="class")
    def archive(self, tmp_path_factory):
        eng = EnsembleEngine(_wedge_config(), n_replicas=3)
        eng.run(3)
        path = tmp_path_factory.mktemp("ens") / "ens.npz"
        save_simulation(eng, path)
        return _members(path)

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
            load_simulation(path)

    @pytest.mark.parametrize(
        "corrupt",
        [lambda n: [0, n + 1], lambda n: [0, 5, n], lambda n: [n]],
        ids=["end", "two_blocks", "one_entry"],
    )
    def test_serial_starts_are_checked_too(self, small_config, corrupt, tmp_path):
        sim = Simulation(small_config)
        sim.run(2)
        save_simulation(sim, tmp_path / "solo.npz")
        members = _members(tmp_path / "solo.npz")
        members["starts"] = np.array(corrupt(sim.particles.n))
        np.savez(tmp_path / "bad.npz", **members)
        with pytest.raises(CheckpointCorruptionError, match="block starts"):
            load_simulation(tmp_path / "bad.npz")

    def test_intact_archive_loads_with_its_blocks(self, archive, tmp_path):
        path = tmp_path / "good.npz"
        np.savez(path, **archive)
        eng = load_simulation(path)
        assert isinstance(eng, EnsembleEngine)
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


#: Rewrites of one member of an intact archive, per archive -- the one
#: a ``Simulation`` wrote (R = 1) and the one an R = 3
#: ``EnsembleEngine`` wrote -- each with the text the refusal must
#: contain.  Before the loader checked them, every one of these loaded:
#: the particle members stepped on with a finite total energy (or
#: failed the first step with a bare ``ValueError``), a length-1
#: accumulator broadcast into every cell, a negative step count divided
#: every average and a NaN plunger stepped on.
CORRUPTIONS = {
    "perm_float64": (
        {archive: _set("flow_perm", lambda a: a.astype(np.float64))
         for archive in ("simulation", "ensemble")},
        r"members flow_\*: column perm is float64\[\d+, 5\], not int8",
    ),
    "flow_x_nan": (
        {archive: _set("flow_x", _nan_first)
         for archive in ("simulation", "ensemble")},
        r"members flow_\*: column x has non-finite values",
    ),
    "flow_x_scalar": (
        {"simulation": _set("flow_x", lambda a: np.array(0.0)),
         "ensemble": _set("res2_x", lambda a: np.array(0.0))},
        r"members (flow|res2)_\*: column x is float64\[\], not 1-D",
    ),
    "reservoir_u_nan": (
        {"simulation": _set("res0_u", _nan_first),
         "ensemble": _set("res1_u", _nan_first)},
        r"members res[01]_\*: column u has non-finite values",
    ),
    "one_column_rot": (
        {"simulation": _set("flow_rot", lambda a: a[:, :1].copy()),
         "ensemble": _set("res2_rot", lambda a: a[:, :1].copy())},
        r"members (flow|res2)_\*: column rot is \[\d+, 1\], not 2 rotational",
    ),
    "negative_step_count": (
        {archive: _set("step_count", lambda a: np.array(-5))
         for archive in ("simulation", "ensemble")},
        r"member step_count is negative \(-5\)",
    ),
    "sampler_count_length_one": (
        {archive: _set("sampler_count", lambda a: np.array([1e9]))
         for archive in ("simulation", "ensemble")},
        r"member sampler_count is float64\[1\], not float64\[\d+\]",
    ),
    "surface_impulse_length_one": (
        {"simulation": _set("surface0_impulse_x", lambda a: np.array([3.0])),
         "ensemble": _set("surface2_impulse_x", lambda a: np.array([3.0]))},
        r"member surface[02]_impulse_x is float64\[1\], not float64\[17\]",
    ),
    "negative_sampler_steps": (
        {archive: _set("sampler_steps", lambda a: np.array(-7))
         for archive in ("simulation", "ensemble")},
        r"member sampler_steps is negative \(-7\)",
    ),
    "plunger_nan": (
        {archive: _set("plunger_position", lambda a: np.array(np.nan))
         for archive in ("simulation", "ensemble")},
        r"member plunger_position is nan, not in \[0, ",
    ),
}


@pytest.fixture(scope="module")
def archives(tmp_path_factory):
    """Intact uncompressed archives after 5 steps (2 sampled) -- an
    R = 1 ``Simulation`` and an R = 3 ``EnsembleEngine`` -- and the
    digest of each uninterrupted run 3 steps later."""
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
    for archive, engine in (
        ("simulation", Simulation(config)),
        ("ensemble", EnsembleEngine(config, n_replicas=3)),
    ):
        engine.run(3)
        engine.run(2, sample=True)
        save_simulation(engine, root / f"{archive}.npz", compress=False)
        engine.run(3)
        out[archive] = (_members(root / f"{archive}.npz"), state_digest(engine))
    return out


class TestParticleMembersAreChecked:
    """The loader refuses a corrupt particle or accumulator member, step
    count or plunger with ``CheckpointCorruptionError`` naming the
    member -- the error the supervisor falls back to an older checkpoint
    on -- whichever block count wrote the archive."""

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
            load_simulation(path)

    @pytest.mark.parametrize("loader", ["simulation", "ensemble"])
    def test_intact_archive_continues_bitwise(self, archives, loader, tmp_path):
        members, straight = archives[loader]
        path = tmp_path / "good.npz"
        np.savez(path, **members)
        resumed = load_simulation(path)
        resumed.run(3)
        assert resumed.step_count == 8
        assert state_digest(resumed) == straight


def _accumulators(sim) -> list:
    """Every accumulator array of ``sim``, in a fixed order."""
    tallies = [(sim.sampler, SAMPLER_FIELDS)]
    tallies += [(s, SURFACE_FIELDS) for s in sim.surfaces]
    return [getattr(acc, name) for acc, fields in tallies for name in fields]


class TestLoaderFuzz:
    """Any one mutation of an intact archive is refused, typed, or loads
    a sound state: one that validates, holds accumulators of their
    constructed shapes and steps."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_mutated_archive_raises_typed_or_loads_sound(self, archives, data):
        archive = data.draw(st.sampled_from(["simulation", "ensemble"]))
        members = dict(archives[archive][0])
        kind = data.draw(st.sampled_from(
            ["drop", "truncate", "replace", "format_version", "legacy"]
        ))
        if kind == "drop":
            del members[data.draw(st.sampled_from(sorted(members)))]
        elif kind == "replace":
            name = data.draw(st.sampled_from(sorted(members)))
            shape = data.draw(st.sampled_from(
                [(), (1,), (3,), (2, 2), members[name].shape]
            ))
            dtype = data.draw(st.sampled_from(
                [members[name].dtype, "float64", "int64", "int8", "bool", "<U3"]
            ))
            members[name] = np.zeros(shape, dtype)
        elif kind == "format_version":
            members["format_version"] = np.array(
                data.draw(st.sampled_from([0, 5, 99]))
            )
        elif kind == "legacy":
            members = (
                _as_ensemble_v1 if archive == "ensemble" else _as_solo_v3
            )(members)
            members["ensemble_format_version"] = np.array(2)
        buf = io.BytesIO()
        np.savez(buf, **members)
        blob = buf.getvalue()
        if kind == "truncate":
            blob = blob[: data.draw(st.integers(0, len(blob) - 1))]
        try:
            sim = load_simulation(io.BytesIO(blob), processes=False)
        except (CheckpointCorruptionError, ConfigurationError):
            return
        sim.particles.validate()
        sim.reservoir.particles.validate()
        intact = load_simulation(io.BytesIO(self._intact(archives, archive)))
        assert [a.shape for a in _accumulators(sim)] == [
            a.shape for a in _accumulators(intact)
        ]
        sim.step()

    @staticmethod
    def _intact(archives, archive) -> bytes:
        buf = io.BytesIO()
        np.savez(buf, **archives[archive][0])
        return buf.getvalue()
