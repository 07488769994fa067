"""Internal (rotational/vibrational) relaxation extension tests.

The paper's Future Work: "the molecular model should be generalised to
allow ... relaxation into vibrational energy."  The extension is an
internal-exchange probability p: internal modes join the five-component
shuffle once per 1/p collisions on average, giving a controllable
collision number Z = 1/p while preserving exact conservation.
"""

import numpy as np
import pytest

from repro.core.collision import collide_pairs
from repro.core.particles import ParticleArrays
from repro.errors import ConfigurationError
from repro.physics.distributions import energy_shares
from repro.physics.freestream import Freestream
from repro.physics.molecules import MolecularModel
from repro.rng import make_rng


def cold_rotation_bath(seed=1, n=20_000):
    rng = make_rng(seed)
    fs = Freestream(mach=4.0, c_mp=0.3, lambda_mfp=0.5, density=8.0)
    pop = ParticleArrays.from_freestream(rng, n, fs, (0, 1), (0, 1))
    pop.u -= fs.speed
    pop.rot[:] = 0.0
    return pop, rng


def relax(pop, rng, rounds, p_exchange):
    for _ in range(rounds):
        order = rng.permutation(pop.n)
        n_pairs = pop.n // 2
        collide_pairs(
            pop,
            order[0 : 2 * n_pairs : 2],
            order[1 : 2 * n_pairs : 2],
            rng=rng,
            internal_exchange_probability=p_exchange,
        )


def rot_fraction(pop):
    _, f_rot = energy_shares(np.column_stack((pop.u, pop.v, pop.w)), pop.rot)
    return f_rot


class TestRelaxationRate:
    def test_frozen_internal_modes(self):
        pop, rng = cold_rotation_bath()
        e0 = pop.total_energy()
        relax(pop, rng, rounds=10, p_exchange=0.0)
        assert pop.rotational_energy() == 0.0
        assert pop.total_energy() == pytest.approx(e0, rel=1e-12)

    def test_slower_exchange_relaxes_slower(self):
        fractions = {}
        for p in (1.0, 0.2):
            pop, rng = cold_rotation_bath()
            relax(pop, rng, rounds=3, p_exchange=p)
            fractions[p] = rot_fraction(pop)
        assert fractions[0.2] < fractions[1.0]
        assert fractions[0.2] > 0.0

    def test_all_rates_reach_equipartition(self):
        for p in (1.0, 0.3):
            pop, rng = cold_rotation_bath()
            relax(pop, rng, rounds=60, p_exchange=p)
            assert rot_fraction(pop) == pytest.approx(0.4, abs=0.02)

    def test_conservation_holds_at_partial_exchange(self):
        pop, rng = cold_rotation_bath(n=4000)
        pop.rot[:] = rng.normal(0, 0.1, size=pop.rot.shape)
        e0 = pop.total_energy()
        m0 = pop.momentum()
        relax(pop, rng, rounds=10, p_exchange=0.37)
        assert pop.total_energy() == pytest.approx(e0, rel=1e-12)
        assert np.allclose(pop.momentum(), m0, atol=1e-9)

    def test_translational_still_mixes_when_frozen(self):
        # p = 0 must still isotropize the translational components.
        pop, rng = cold_rotation_bath()
        pop.v *= 0.1
        pop.w *= 0.1
        relax(pop, rng, rounds=20, p_exchange=0.0)
        variances = [pop.u.var(), pop.v.var(), pop.w.var()]
        assert max(variances) / min(variances) < 1.1

    def test_requires_rng(self):
        pop, rng = cold_rotation_bath(n=10)
        with pytest.raises(ConfigurationError):
            collide_pairs(
                pop,
                np.array([0]),
                np.array([1]),
                internal_exchange_probability=0.5,
            )


class TestModelValidation:
    def test_probability_bounds(self):
        with pytest.raises(ConfigurationError):
            MolecularModel(internal_exchange_probability=1.5)
        with pytest.raises(ConfigurationError):
            MolecularModel(internal_exchange_probability=-0.1)

    def test_collision_number_interpretation(self):
        # Z = 1/p: exponential approach of the rotational fraction with
        # rate ~p per collision round (each particle collides ~once per
        # round at P = 1 pairing).
        results = {}
        for p in (1.0, 0.5):
            pop, rng = cold_rotation_bath(seed=3)
            relax(pop, rng, rounds=2, p_exchange=p)
            results[p] = rot_fraction(pop)
        # Faster exchange covers more of the gap to 0.4.
        gap_full = 0.4 - results[1.0]
        gap_half = 0.4 - results[0.5]
        assert gap_half > gap_full
