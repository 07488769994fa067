"""Integration tests for checkpoint/restore."""

import dataclasses

import numpy as np
import pytest

from repro.core.particles import COLUMN_NAMES
from repro.core.sampling import SAMPLER_FIELDS
from repro.core.simulation import Simulation
from repro.errors import ConfigurationError
from repro.geometry.domain3d import Domain3D
from repro.io.snapshots import load_simulation, save_simulation


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
        sim.run(10)
        path = tmp_path / "ckpt.npz"
        save_simulation(sim, path)
        restored = load_simulation(path)
        sim.run(8)
        restored.run(8)
        assert np.array_equal(sim.particles.x, restored.particles.x)
        assert np.array_equal(sim.particles.u, restored.particles.u)
        assert sim.reservoir.size == restored.reservoir.size

    def test_slab_continuation_is_bitwise_identical(
        self, small_config, tmp_path
    ):
        """Save -> load -> continue == uninterrupted, on a slab: all
        nine columns (``z`` included), the reservoir, the sampler."""
        sim = Simulation(
            dataclasses.replace(small_config, domain=Domain3D(30, 20, 2))
        )
        sim.run(8)
        sim.run(4, sample=True)
        path = tmp_path / "slab.npz"
        save_simulation(sim, path)
        restored = load_simulation(path)
        assert restored.config.domain == Domain3D(30, 20, 2)
        assert restored.particles.z.any()
        for s in (sim, restored):
            s.run(10, sample=True)
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
