"""Equilibrium physics of the collision algorithm.

The deepest correctness checks: repeated collisions must drive any
initial distribution to the Maxwell-Boltzmann equilibrium with classical
equipartition between translational and rotational degrees of freedom --
the statement the collision algorithm's eq. (18) construction has to
earn, not assume.
"""

import numpy as np
import pytest

from repro.baselines import HeatBath
from repro.core.collision import collide_pairs
from repro.core.particles import ParticleArrays
from repro.physics.distributions import (
    energy_shares,
    excess_kurtosis,
    speed_distribution_chi2,
    temperature_from_velocities,
)
from repro.physics.freestream import Freestream
from repro.rng import make_rng


def relax(pop, rng, rounds):
    """Collide random disjoint pairs for a number of full rounds."""
    for _ in range(rounds):
        order = rng.permutation(pop.n)
        n_pairs = pop.n // 2
        collide_pairs(
            pop, order[0 : 2 * n_pairs : 2], order[1 : 2 * n_pairs : 2], rng=rng
        )


@pytest.fixture
def cold_rotation_population():
    """Translationally hot, rotationally frozen: must equilibrate."""
    rng = make_rng(42)
    fs = Freestream(mach=4.0, c_mp=0.3, lambda_mfp=0.5, density=8.0)
    pop = ParticleArrays.from_freestream(rng, 40_000, fs, (0, 1), (0, 1))
    pop.u -= fs.speed  # remove drift: pure thermal bath
    pop.rot[:] = 0.0
    return pop, rng, fs


class TestEquipartition:
    def test_rotational_relaxation_to_two_fifths(self, cold_rotation_population):
        pop, rng, fs = cold_rotation_population
        relax(pop, rng, rounds=30)
        f_tr, f_rot = energy_shares(
            np.column_stack((pop.u, pop.v, pop.w)), pop.rot
        )
        # Diatomic equipartition: 3/5 translational, 2/5 rotational.
        assert f_rot == pytest.approx(0.4, abs=0.02)
        assert f_tr == pytest.approx(0.6, abs=0.02)

    def test_component_temperatures_equalize(self, cold_rotation_population):
        pop, rng, fs = cold_rotation_population
        pop.v *= 0.1  # anisotropic start
        relax(pop, rng, rounds=30)
        variances = [pop.u.var(), pop.v.var(), pop.w.var(),
                     pop.rot[:, 0].var(), pop.rot[:, 1].var()]
        mean_var = np.mean(variances)
        for var in variances:
            assert var == pytest.approx(mean_var, rel=0.05)

    def test_energy_conserved_through_relaxation(self, cold_rotation_population):
        pop, rng, fs = cold_rotation_population
        e0 = pop.total_energy()
        relax(pop, rng, rounds=30)
        assert pop.total_energy() == pytest.approx(e0, rel=1e-12)

    def test_monatomic_has_no_rotational_energy(self):
        rng = make_rng(7)
        fs = Freestream(mach=4.0, c_mp=0.3, lambda_mfp=0.5, density=8.0)
        pop = ParticleArrays.from_freestream(
            rng, 10_000, fs, (0, 1), (0, 1), rotational_dof=0
        )
        relax(pop, rng, rounds=10)
        assert pop.rotational_energy() == 0.0

    def test_vibration_hook_equipartition(self):
        # Future Work: extra internal DOF; 4 internal + 3 translational
        # -> internal fraction 4/7.
        rng = make_rng(9)
        fs = Freestream(mach=4.0, c_mp=0.3, lambda_mfp=0.5, density=8.0)
        pop = ParticleArrays.from_freestream(
            rng, 40_000, fs, (0, 1), (0, 1), rotational_dof=4
        )
        pop.u -= fs.speed
        pop.rot[:] = 0.0
        relax(pop, rng, rounds=40)
        _, f_int = energy_shares(np.column_stack((pop.u, pop.v, pop.w)), pop.rot)
        assert f_int == pytest.approx(4 / 7, abs=0.03)


class TestMaxwellization:
    def test_rectangular_relaxes_to_maxwell_speed_distribution(self):
        rng = make_rng(3)
        fs = Freestream(mach=4.0, c_mp=0.2, lambda_mfp=2.0, density=100.0)
        bath = HeatBath(n_particles=30_000, n_cells=30, freestream=fs)
        pop = bath.initial_population(rng)
        relax(pop, rng, rounds=25)
        c_mp_now = temperature_from_velocities(
            np.column_stack((pop.u, pop.v, pop.w)), c_mp_reference=True
        )
        chi2 = speed_distribution_chi2(
            np.column_stack((pop.u, pop.v, pop.w)), c_mp_now
        )
        assert chi2 < 3.0

    def test_kurtosis_converges_to_gaussian(self):
        rng = make_rng(4)
        fs = Freestream(mach=4.0, c_mp=0.2, lambda_mfp=2.0, density=100.0)
        bath = HeatBath(n_particles=20_000, n_cells=20, freestream=fs)
        pop = bath.initial_population(rng)
        k0 = excess_kurtosis(pop.u[:, None])[0]
        relax(pop, rng, rounds=20)
        k1 = excess_kurtosis(pop.u[:, None])[0]
        assert k0 < -1.0
        assert abs(k1) < 0.1

    def test_drifting_bath_keeps_its_drift(self):
        # Collisions conserve momentum, so the bulk velocity is
        # invariant while the shape Gaussianizes.
        rng = make_rng(5)
        fs = Freestream(mach=4.0, c_mp=0.2, lambda_mfp=2.0, density=100.0)
        pop = ParticleArrays.from_freestream(
            rng, 20_000, fs, (0, 1), (0, 1), rectangular=True
        )
        drift0 = pop.u.mean()
        relax(pop, rng, rounds=20)
        assert pop.u.mean() == pytest.approx(drift0, abs=1e-12)
