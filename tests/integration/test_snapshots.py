"""Integration tests for checkpoint/restore."""

import dataclasses
import io
import json

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
from repro.geometry.bodies import Cylinder, Step
from repro.geometry.domain import Domain
from repro.geometry.domain3d import Domain3D
from repro.geometry.wedge import Wedge
from repro.io.snapshots import FORMAT_VERSION, load_simulation, save_simulation
from repro.parallel.backend import ShardedBackend
from repro.physics.freestream import Freestream
from repro.scenarios import get, names
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
        """No span: eight columns on disk, no ``z``, and ``z`` loads
        zero-filled."""
        sim = Simulation(small_config)
        sim.run(5)
        path = tmp_path / "flat.npz"
        save_simulation(sim, path)
        with np.load(path) as data:
            assert not [k for k in data.files if k.endswith("_z")]
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
        assert int(members["format_version"]) == FORMAT_VERSION
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


#: Overrides shrinking every scenario to a quick grid its body fits.
REDUCED = {"nx": 40, "ny": 26, "density": 3.0}


class TestEveryScenarioResumes:
    """Every registered scenario, serially and as R = 2 replica blocks:
    save, load and continue reaches the uninterrupted run's digest.  The
    cylinder and channel bodies once had no serialisation at all."""

    @pytest.mark.parametrize("replicas", [None, 2], ids=["serial", "r2"])
    @pytest.mark.parametrize("name", names())
    def test_resumes_to_the_uninterrupted_digest(self, name, replicas, tmp_path):
        sim = get(name).build_simulation(REDUCED, replicas=replicas)
        sim.run(BEFORE - 4)
        sim.run(4, sample=True)
        path = tmp_path / f"{name}.npz"
        save_simulation(sim, path)
        sim.run(AFTER, sample=True)
        restored = load_simulation(path)
        assert restored.config == sim.config
        restored.run(AFTER, sample=True)
        assert state_digest(restored) == state_digest(sim)


def _leaves(obj, path=()):
    """The path of every non-dataclass field under ``obj``."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            yield from _leaves(value, path + (f.name,))
        else:
            yield path + (f.name,)


def _replaced(obj, path, value):
    head, rest = path[0], path[1:]
    if rest:
        value = _replaced(getattr(obj, head), rest, value)
    return dataclasses.replace(obj, **{head: value})


def _other_values(value):
    """Candidate non-default values of a leaf, in order of preference."""
    if value is None:
        return ["elsewhere"]
    if isinstance(value, str):
        return ["counting", "diffuse", value + "-renamed"]
    if isinstance(value, int):
        return [value + 1, value - 1]
    return [0.5 * value, 1.5 * value, value + 0.5]


#: Configs whose leaves between them reach every field of every type a
#: config nests: both domains and every body kind (no body at all is
#: ``test_config_roundtrip_no_wedge``).
FIELD_BASES = {
    "wedge": _wedge_config(),
    "slab_cylinder": dataclasses.replace(
        _wedge_config(),
        domain=Domain3D(32, 24, 2),
        wedge=Cylinder(cx=12.0, cy=12.0, radius=4.0),
    ),
    "step": dataclasses.replace(
        _wedge_config(), wedge=Step(x_leading=8.0, height=6.0, length=8.0)
    ),
}


@pytest.mark.filterwarnings("ignore:Mach .* attachment limit")
class TestEveryConfigFieldRoundTrips:
    """Each leaf field of the config, set alone to a non-default value,
    comes back from save -> load: the snapshot names no field list, so
    a field nobody remembered cannot be dropped on the way (the model's
    ``internal_exchange_probability`` 0.5 once restored as 1.0)."""

    @pytest.mark.parametrize("base", sorted(FIELD_BASES))
    def test_each_leaf_survives_save_and_load(self, base, tmp_path):
        base = FIELD_BASES[base]
        for path in _leaves(base):
            current = base
            for name in path:
                current = getattr(current, name)
            for value in _other_values(current):
                try:
                    config = _replaced(base, path, value)
                    sim = Simulation(config)
                except ConfigurationError:
                    continue
                break
            else:
                pytest.fail(f"no valid non-default value for {path}")
            save_simulation(sim, tmp_path / "leaf.npz")
            back = load_simulation(tmp_path / "leaf.npz").config
            assert back == config, ".".join(path)

    def test_each_dropped_key_is_a_corrupt_archive(self, tmp_path):
        """No key is optional: a slab without ``nz`` is not read as a
        plane, nor a body without ``kind`` as a wedge."""
        save_simulation(
            Simulation(FIELD_BASES["slab_cylinder"]), tmp_path / "slab.npz"
        )
        members = _members(tmp_path / "slab.npz")
        config = json.loads(str(members["config_json"]))
        for table in [config] + [v for v in config.values() if isinstance(v, dict)]:
            for key in list(table):
                value = table.pop(key)
                blob = np.array(json.dumps(config))
                np.savez(tmp_path / "bad.npz", **{**members, "config_json": blob})
                with pytest.raises(CheckpointCorruptionError, match=key):
                    load_simulation(tmp_path / "bad.npz")
                table[key] = value


def _as_format_4(members: dict) -> dict:
    return {**members, "format_version": np.array(4)}


def _as_ensemble_format_1(members: dict) -> dict:
    out = {k: a for k, a in members.items() if k != "format_version"}
    out["ensemble_format_version"] = np.array(1)
    return out


class TestOldFormatsAreRefused:
    """An archive of an older format -- solo format 4 or the ensemble's
    own format 1 -- is refused, typed, by the name of its format."""

    @pytest.mark.parametrize(
        "old, match",
        [
            (_as_format_4, "snapshot format 4 "),
            (_as_ensemble_format_1, "ensemble snapshot format 1 "),
        ],
        ids=["format_4", "ensemble_format_1"],
    )
    def test_old_format_is_refused_by_name(self, archives, old, match, tmp_path):
        path = tmp_path / "old.npz"
        np.savez(path, **old(archives["ensemble"][0]))
        with pytest.raises(ConfigurationError, match=match):
            load_simulation(path)


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


def _mutated_config(data, blob: str):
    """``blob`` with one key of one of its tables dropped, one unknown
    key added or one value retyped, or the JSON cut short; and whether
    the mutation can only be refused as a corrupt archive."""
    config = json.loads(blob)
    tables = [config] + [v for v in config.values() if isinstance(v, dict)]
    table = data.draw(st.sampled_from(tables))
    how = data.draw(st.sampled_from(["drop", "unknown", "retype", "json"]))
    if how == "drop":
        del table[data.draw(st.sampled_from(sorted(table)))]
    elif how == "unknown":
        table["bogus"] = 1
    elif how == "retype":
        table[data.draw(st.sampled_from(sorted(table)))] = data.draw(
            st.sampled_from(["x", 1, 2.5, None, True, [], {}])
        )
    text = json.dumps(config)
    return (text[:-1] if how == "json" else text), how != "retype"


class TestLoaderFuzz:
    """Any one mutation of an intact archive is refused, typed, or loads
    a sound state: one that validates, holds accumulators of their
    constructed shapes and steps.  An archive of an older format is
    refused by the name of its format."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_mutated_archive_raises_typed_or_loads_sound(self, archives, data):
        archive = data.draw(st.sampled_from(["simulation", "ensemble"]))
        members = dict(archives[archive][0])
        kind = data.draw(st.sampled_from(
            ["drop", "truncate", "replace", "format_version", "old_format",
             "config"]
        ))
        corrupt = False
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
                data.draw(st.sampled_from([0, FORMAT_VERSION + 1, 99]))
            )
        elif kind == "old_format":
            version = data.draw(st.integers(1, FORMAT_VERSION - 1))
            members["format_version"] = np.array(version)
            with pytest.raises(ConfigurationError, match=f"format {version} "):
                load_simulation(io.BytesIO(self._saved(members)))
            members = _as_ensemble_format_1(members)
            with pytest.raises(ConfigurationError, match="ensemble snapshot format 1 "):
                load_simulation(io.BytesIO(self._saved(members)))
            return
        elif kind == "config":
            text, corrupt = _mutated_config(data, str(members["config_json"]))
            members["config_json"] = np.array(text)
        blob = self._saved(members)
        if kind == "truncate":
            blob = blob[: data.draw(st.integers(0, len(blob) - 1))]
        try:
            sim = load_simulation(io.BytesIO(blob), processes=False)
        except CheckpointCorruptionError:
            return
        except ConfigurationError:
            assert not corrupt
            return
        assert not corrupt
        sim.particles.validate()
        sim.reservoir.particles.validate()
        intact = load_simulation(io.BytesIO(self._saved(archives[archive][0])))
        assert [a.shape for a in _accumulators(sim)] == [
            a.shape for a in _accumulators(intact)
        ]
        sim.step()

    @staticmethod
    def _saved(members: dict) -> bytes:
        buf = io.BytesIO()
        np.savez(buf, **members)
        return buf.getvalue()
