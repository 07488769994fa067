"""Failure injection: corrupted state must be detected, not propagated.

A production solver's failure mode is rarely a crash -- it is silently
wrong numbers.  These tests inject the realistic corruptions (NaN
velocities, broken permutation tables, out-of-range cells, truncated
checkpoints, overflowing state) and require a loud, typed error.
"""

import numpy as np
import pytest

from repro.core.particles import ParticleArrays
from repro.core.sampling import CellSampler
from repro.core.simulation import Simulation
from repro.errors import ConfigurationError, FixedPointOverflowError
from repro.fixedpoint import Q8_23
from repro.geometry.domain import Domain
from repro.io.snapshots import load_simulation, save_simulation
from repro.physics.freestream import Freestream


@pytest.fixture
def pop(rng):
    fs = Freestream(mach=4.0, c_mp=0.14, lambda_mfp=0.5, density=8.0)
    return ParticleArrays.from_freestream(rng, 100, fs, (0, 10), (0, 10))


class TestStateCorruption:
    def test_nan_velocity_detected(self, pop):
        pop.u[13] = np.nan
        with pytest.raises(ConfigurationError, match="non-finite"):
            pop.validate()

    def test_inf_position_detected(self, pop):
        pop.x[5] = np.inf
        with pytest.raises(ConfigurationError, match="non-finite"):
            pop.validate()

    def test_nan_rotation_detected(self, pop):
        pop.rot[0, 1] = np.nan
        with pytest.raises(ConfigurationError, match="non-finite"):
            pop.validate()

    def test_duplicate_permutation_entry_detected(self, pop):
        pop.perm[7] = np.array([1, 1, 2, 3, 4], dtype=np.int8)
        with pytest.raises(ConfigurationError, match="permutation"):
            pop.validate()

    def test_clean_state_passes(self, pop):
        pop.validate()


class TestSamplerGuards:
    def test_out_of_range_cell_rejected(self, pop):
        d = Domain(10, 10)
        pop.cell[:] = 0
        pop.cell[3] = d.n_cells + 5
        s = CellSampler(d)
        with pytest.raises(ConfigurationError, match="out of range"):
            s.accumulate(pop)


class TestFixedPointGuards:
    def test_runaway_velocity_overflows_loudly(self):
        # A velocity beyond the Q8.23 range must raise, not wrap.
        with pytest.raises(FixedPointOverflowError):
            Q8_23.encode(np.array([300.0]))

    def test_accumulated_overflow_detected(self):
        big = Q8_23.encode(np.array([200.0]))
        with pytest.raises(FixedPointOverflowError):
            Q8_23.add(big, big)


class TestCheckpointCorruption:
    def test_truncated_checkpoint_fails_loudly(self, small_config, tmp_path):
        sim = Simulation(small_config)
        sim.run(3)
        path = tmp_path / "ckpt.npz"
        save_simulation(sim, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(Exception):
            load_simulation(path)

    def test_missing_array_fails_loudly(self, small_config, tmp_path):
        sim = Simulation(small_config)
        sim.run(2)
        path = tmp_path / "ckpt.npz"
        save_simulation(sim, path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files if k != "flow_u"}
        np.savez_compressed(path, **arrays)
        with pytest.raises(Exception):
            load_simulation(path)


class TestRunRemainsFiniteUnderStress:
    def test_long_run_state_stays_finite(self, small_config):
        # End-to-end guard: nothing in the pipeline manufactures NaNs
        # even through plunger resets, reflections and refills.
        sim = Simulation(small_config)
        for _ in range(8):
            sim.run(15)
            sim.particles.validate()
        assert np.isfinite(sim.particles.total_energy())
