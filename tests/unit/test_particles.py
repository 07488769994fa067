"""Unit tests for the SoA particle container."""

import numpy as np
import pytest

from repro.core.particles import ParticleArrays, ScratchBuffers
from repro.core.sortstep import counting_sort_order
from repro.errors import ConfigurationError
from repro.physics.freestream import Freestream


@pytest.fixture
def fs():
    return Freestream(mach=4.0, c_mp=0.14, lambda_mfp=0.5, density=8.0)


class TestConstruction:
    def test_empty(self):
        p = ParticleArrays.empty()
        assert p.n == 0
        assert p.rotational_dof == 2
        p.validate()

    def test_from_freestream_shapes(self, rng, fs):
        p = ParticleArrays.from_freestream(rng, 1000, fs, (0, 10), (0, 5))
        assert p.n == 1000
        assert p.perm.shape == (1000, 5)
        p.validate()

    def test_positions_in_box(self, rng, fs):
        p = ParticleArrays.from_freestream(rng, 5000, fs, (2, 4), (1, 3))
        assert p.x.min() >= 2 and p.x.max() <= 4
        assert p.y.min() >= 1 and p.y.max() <= 3

    def test_velocities_at_freestream(self, rng, fs):
        p = ParticleArrays.from_freestream(rng, 100_000, fs, (0, 1), (0, 1))
        assert p.u.mean() == pytest.approx(fs.speed, abs=0.01)
        assert p.u.var() == pytest.approx(fs.c_mp**2 / 2, rel=0.05)
        assert p.w.mean() == pytest.approx(0.0, abs=0.01)

    def test_rectangular_option(self, rng, fs):
        p = ParticleArrays.from_freestream(
            rng, 10_000, fs, (0, 1), (0, 1), rectangular=True
        )
        bound = fs.c_mp / np.sqrt(2) * np.sqrt(3) + 1e-9
        assert np.abs(p.u - fs.speed).max() <= bound

    def test_monatomic_option(self, rng, fs):
        p = ParticleArrays.from_freestream(
            rng, 10, fs, (0, 1), (0, 1), rotational_dof=0
        )
        assert p.rot.shape == (10, 0)
        assert p.perm.shape == (10, 3)
        p.validate()

    def test_invalid_box(self, rng, fs):
        with pytest.raises(ConfigurationError):
            ParticleArrays.from_freestream(rng, 10, fs, (1, 0), (0, 1))

    def test_negative_count(self, rng, fs):
        with pytest.raises(ConfigurationError):
            ParticleArrays.from_freestream(rng, -1, fs, (0, 1), (0, 1))


class TestEnergyMomentum:
    def test_energy_decomposition(self, rng, fs):
        p = ParticleArrays.from_freestream(rng, 100, fs, (0, 1), (0, 1))
        assert p.total_energy() == pytest.approx(
            p.kinetic_energy() + p.rotational_energy()
        )

    def test_hand_computed_energy(self):
        p = ParticleArrays.empty()
        p.x = np.zeros(1); p.y = np.zeros(1)
        p.u = np.array([3.0]); p.v = np.array([4.0]); p.w = np.zeros(1)
        p.rot = np.array([[1.0, 2.0]])
        p.perm = np.arange(5, dtype=np.int8)[None, :]
        p.cell = np.zeros(1, dtype=np.int64)
        assert p.kinetic_energy() == pytest.approx(12.5)
        assert p.rotational_energy() == pytest.approx(2.5)
        assert np.allclose(p.momentum(), [3.0, 4.0, 0.0])


class TestSurgery:
    def test_select_mask(self, rng, fs):
        p = ParticleArrays.from_freestream(rng, 100, fs, (0, 1), (0, 1))
        sel = p.select(p.x > 0.5)
        assert sel.n == int((p.x > 0.5).sum())
        sel.validate()

    def test_select_returns_copies(self, rng, fs):
        p = ParticleArrays.from_freestream(rng, 10, fs, (0, 1), (0, 1))
        sel = p.select(np.arange(5))
        sel.x[0] = 99.0
        assert p.x[0] != 99.0

    def test_reorder_inplace(self, rng, fs):
        p = ParticleArrays.from_freestream(rng, 50, fs, (0, 1), (0, 1))
        x0 = p.x.copy()
        order = rng.permutation(50)
        p.reorder_inplace(order)
        assert np.array_equal(p.x, x0[order])
        p.validate()

    def test_concatenate(self, rng, fs):
        a = ParticleArrays.from_freestream(rng, 30, fs, (0, 1), (0, 1))
        b = ParticleArrays.from_freestream(rng, 20, fs, (0, 1), (0, 1))
        c = ParticleArrays.concatenate(a, b)
        assert c.n == 50
        c.validate()

    def test_concatenate_dof_mismatch(self, rng, fs):
        a = ParticleArrays.from_freestream(rng, 3, fs, (0, 1), (0, 1))
        b = ParticleArrays.from_freestream(
            rng, 3, fs, (0, 1), (0, 1), rotational_dof=0
        )
        with pytest.raises(ConfigurationError):
            ParticleArrays.concatenate(a, b)

    def test_copy_is_deep(self, rng, fs):
        p = ParticleArrays.from_freestream(rng, 5, fs, (0, 1), (0, 1))
        q = p.copy()
        q.u[0] = 42.0
        assert p.u[0] != 42.0


class TestScratchArange:
    def test_shared_arange_rejects_writes(self, rng):
        """Every pooled index computation (and the sorter's identity
        order on a re-sort step) reads this one buffer."""
        scratch = ScratchBuffers()
        ar = scratch.arange(100)
        with pytest.raises(ValueError, match="read-only"):
            ar[3] = 0
        with pytest.raises(ValueError, match="read-only"):
            ar += 1
        # Regrown backing, and the readers that copy out of it.
        big = scratch.arange(10_000)
        assert not big.flags.writeable
        assert np.array_equal(big, np.arange(10_000))
        order = counting_sort_order(
            np.zeros(500, dtype=np.int64), rng, scratch=scratch
        )
        assert np.array_equal(np.sort(order), np.arange(500))
        assert np.array_equal(scratch.arange(500), np.arange(500))


class TestValidation:
    def test_corrupted_perm_detected(self, rng, fs):
        p = ParticleArrays.from_freestream(rng, 5, fs, (0, 1), (0, 1))
        p.perm[0] = np.array([0, 0, 1, 2, 3], dtype=np.int8)
        with pytest.raises(ConfigurationError):
            p.validate()

    def test_length_mismatch_detected(self, rng, fs):
        p = ParticleArrays.from_freestream(rng, 5, fs, (0, 1), (0, 1))
        p.u = p.u[:-1]
        with pytest.raises(ConfigurationError):
            p.validate()
