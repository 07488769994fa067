"""Unit tests for the collision algorithm (eqs. (9)-(18))."""

import numpy as np
import pytest

from repro.core.collision import CollisionStats, collide_pairs
from repro.core.particles import ParticleArrays
from repro.errors import ConfigurationError
from repro.physics.freestream import Freestream
from tests.collision_words import ScriptedWords


def _words(sign, m, k=5, ja=0, jb=0):
    """Every pair of ``m`` gets ``sign`` on every component."""
    return ScriptedWords(
        np.full((m, k), sign), np.full(m, ja), np.full(m, jb)
    )


@pytest.fixture
def pop(rng):
    fs = Freestream(mach=4.0, c_mp=0.2, lambda_mfp=0.5, density=8.0)
    return ParticleArrays.from_freestream(rng, 400, fs, (0, 10), (0, 10))


def random_pairs(rng, n, n_pairs):
    order = rng.permutation(n)
    return order[: 2 * n_pairs : 2], order[1 : 2 * n_pairs : 2]


class TestConservation:
    def test_energy_conserved_exactly(self, pop, rng):
        e0 = pop.total_energy()
        a, b = random_pairs(rng, pop.n, 150)
        collide_pairs(pop, a, b, rng=rng)
        assert pop.total_energy() == pytest.approx(e0, rel=1e-12)

    def test_momentum_conserved_exactly(self, pop, rng):
        p0 = pop.momentum()
        a, b = random_pairs(rng, pop.n, 150)
        collide_pairs(pop, a, b, rng=rng)
        assert np.allclose(pop.momentum(), p0, atol=1e-9)

    def test_pairwise_energy_conserved(self, pop, rng):
        # Conservation must hold per pair, not just globally.
        a, b = random_pairs(rng, pop.n, 50)
        def pair_energy():
            return (
                0.5 * (pop.u[a]**2 + pop.v[a]**2 + pop.w[a]**2
                       + pop.u[b]**2 + pop.v[b]**2 + pop.w[b]**2)
                + 0.5 * ((pop.rot[a]**2).sum(axis=1) + (pop.rot[b]**2).sum(axis=1))
            )
        e0 = pair_energy()
        collide_pairs(pop, a, b, rng=rng)
        assert np.allclose(pair_energy(), e0, rtol=1e-12)

    def test_pairwise_momentum_conserved(self, pop, rng):
        a, b = random_pairs(rng, pop.n, 50)
        pu0 = pop.u[a] + pop.u[b]
        collide_pairs(pop, a, b, rng=rng)
        assert np.allclose(pop.u[a] + pop.u[b], pu0, atol=1e-12)

    def test_untouched_particles_unchanged(self, pop, rng):
        a, b = random_pairs(rng, pop.n, 20)
        touched = np.zeros(pop.n, dtype=bool)
        touched[a] = touched[b] = True
        u0 = pop.u.copy()
        collide_pairs(pop, a, b, rng=rng)
        assert np.array_equal(pop.u[~touched], u0[~touched])


class TestMechanics:
    def test_deterministic_with_explicit_inputs(self, pop, rng):
        a, b = random_pairs(rng, pop.n, 10)
        pop2 = pop.copy()
        collide_pairs(pop, a, b, rng=_words(1, 10))
        collide_pairs(pop2, a, b, rng=_words(1, 10))
        assert np.array_equal(pop.u, pop2.u)
        assert np.array_equal(pop.rot, pop2.rot)

    def test_identity_permutation_plus_signs_is_identity(self, rng, pop):
        # With identity permutation vectors and all-plus signs the
        # collision reconstructs the original velocities exactly.
        a, b = random_pairs(rng, pop.n, 30)
        pop.perm[:] = np.arange(5, dtype=np.int8)
        u0, r0 = pop.u.copy(), pop.rot.copy()
        collide_pairs(pop, a, b, rng=_words(1, 30))
        assert np.allclose(pop.u, u0)
        assert np.allclose(pop.rot, r0)

    def test_sign_flip_reverses_relative_velocity(self, rng, pop):
        a = np.array([0]); b = np.array([1])
        pop.perm[0] = np.arange(5, dtype=np.int8)
        u1, u2 = pop.u[0], pop.u[1]
        collide_pairs(pop, a, b, rng=_words(-1, 1))
        # Swapped: each particle now carries the other's velocity.
        assert pop.u[0] == pytest.approx(u2)
        assert pop.u[1] == pytest.approx(u1)

    def test_translational_rotational_exchange(self, rng):
        # A permutation moving a rotational component into slot 0 must
        # transfer energy between modes.
        fs = Freestream(mach=1.1, c_mp=0.2, lambda_mfp=0.5, density=8.0)
        pop = ParticleArrays.from_freestream(np.random.default_rng(1), 2, fs, (0, 1), (0, 1))
        pop.u[:] = [1.0, -1.0]
        pop.v[:] = 0.0
        pop.w[:] = 0.0
        pop.rot[:] = 0.0
        e_rot0 = pop.rotational_energy()
        # Permutation sending index 3 (rot) into the u-slot.
        pop.perm[0] = np.array([3, 1, 2, 0, 4], dtype=np.int8)
        collide_pairs(pop, np.array([0]), np.array([1]), rng=_words(1, 1))
        assert pop.rotational_energy() > e_rot0
        assert pop.total_energy() == pytest.approx(1.0)

    def test_permutations_refreshed(self, pop, rng):
        a, b = random_pairs(rng, pop.n, 100)
        before = pop.perm.copy()
        collide_pairs(pop, a, b, rng=rng)
        touched = np.concatenate((a, b))
        # Most touched rows should differ (identity transposition has
        # probability 1/5 per row).
        changed = (pop.perm[touched] != before[touched]).any(axis=1)
        assert changed.mean() > 0.6
        pop.validate()

    def test_stats(self, pop, rng):
        a, b = random_pairs(rng, pop.n, 25)
        stats = collide_pairs(pop, a, b, rng=rng)
        assert isinstance(stats, CollisionStats)
        assert stats.n_collisions == 25
        assert stats.energy_exchanged >= 0.0

    def test_empty_pairs(self, pop, rng):
        stats = collide_pairs(
            pop, np.array([], dtype=int), np.array([], dtype=int), rng=rng
        )
        assert stats.n_collisions == 0

    def test_shape_validation(self, pop, rng):
        with pytest.raises(ConfigurationError):
            collide_pairs(pop, np.array([0, 1]), np.array([2]), rng=rng)
        with pytest.raises(ConfigurationError, match="2 streams for 1"):
            collide_pairs(pop, np.array([0]), np.array([1]), rng=[rng, rng])

    def test_needs_rng_or_inputs(self, pop):
        # The words are the only inputs: without a generator, no draw.
        with pytest.raises(ConfigurationError):
            collide_pairs(pop, np.array([0]), np.array([1]))
