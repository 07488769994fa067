"""Unit tests for the McDonald-Baganoff selection rule."""

import numpy as np
import pytest

from repro.core.cells import cell_populations
from repro.core.pairing import even_odd_pairs
from repro.core.particles import ParticleArrays
from repro.core.selection import (
    collision_probabilities,
    pair_relative_speed,
    select_collisions,
)
from repro.errors import ConfigurationError
from repro.physics.freestream import Freestream
from repro.physics.molecules import hard_sphere, maxwell_molecule


def make_population(rng, n, cells, fs):
    pop = ParticleArrays.from_freestream(rng, n, fs, (0, 1), (0, 1))
    pop.cell = np.sort(np.asarray(cells)).astype(np.int64)
    return pop


@pytest.fixture
def fs():
    return Freestream(mach=4.0, c_mp=0.14, lambda_mfp=0.5, density=10.0)


class TestRelativeSpeed:
    def test_hand_computed(self, rng, fs):
        pop = make_population(rng, 2, [0, 0], fs)
        pop.u[:] = [1.0, 0.0]
        pop.v[:] = [0.0, 0.0]
        pop.w[:] = [0.0, 1.0]
        pairs = even_odd_pairs(pop.cell)
        g = pair_relative_speed(pop, pairs)
        assert g[0] == pytest.approx(np.sqrt(2.0))


class TestProbabilities:
    def test_maxwell_density_scaling_eq8(self, rng, fs):
        # Double the cell population -> double the probability.
        pop = make_population(rng, 40, [0] * 20 + [1] * 20, fs)
        pop.cell = np.sort(np.concatenate((np.zeros(30), np.ones(10)))).astype(np.int64)
        pairs = even_odd_pairs(pop.cell)
        counts = cell_populations(pop.cell, 2)
        prob, _ = collision_probabilities(
            pop, pairs, fs, maxwell_molecule(), counts
        )
        p_dense = prob[pairs.same_cell & (pop.cell[pairs.first] == 0)]
        p_sparse = prob[pairs.same_cell & (pop.cell[pairs.first] == 1)]
        assert p_dense[0] == pytest.approx(3.0 * p_sparse[0])

    def test_freestream_anchor(self, rng, fs):
        # At exactly freestream density the probability equals P_c,inf.
        n = int(fs.density)
        pop = make_population(rng, n, [0] * n, fs)
        pairs = even_odd_pairs(pop.cell)
        counts = cell_populations(pop.cell, 1)
        prob, _ = collision_probabilities(
            pop, pairs, fs, maxwell_molecule(), counts
        )
        assert prob[pairs.same_cell] == pytest.approx(fs.collision_probability)

    def test_near_continuum_all_ones(self, rng):
        fs0 = Freestream(mach=4.0, c_mp=0.14, lambda_mfp=0.0, density=10.0)
        pop = make_population(np.random.default_rng(0), 20, [0] * 20, fs0)
        pairs = even_odd_pairs(pop.cell)
        counts = cell_populations(pop.cell, 1)
        prob, _ = collision_probabilities(
            pop, pairs, fs0, maxwell_molecule(), counts
        )
        assert np.all(prob[pairs.same_cell] == 1.0)

    def test_probability_clamped_to_one(self, rng, fs):
        # Very dense cell: p would exceed 1; must clamp.
        pop = make_population(rng, 200, [0] * 200, fs)
        pairs = even_odd_pairs(pop.cell)
        counts = cell_populations(pop.cell, 1)
        prob, _ = collision_probabilities(
            pop, pairs, fs, maxwell_molecule(), counts
        )
        assert prob.max() <= 1.0

    def test_hard_sphere_speed_dependence_eq7(self, rng, fs):
        pop = make_population(rng, 4, [0, 0, 1, 1], fs)
        pop.u[:] = [0.5, -0.5, 0.1, -0.1]
        pop.v[:] = 0.0
        pop.w[:] = 0.0
        pairs = even_odd_pairs(pop.cell)
        counts = cell_populations(pop.cell, 2)
        prob, g = collision_probabilities(
            pop, pairs, fs, hard_sphere(), counts
        )
        # Same densities; probability ratio equals speed ratio (exp 1).
        assert prob[0] / prob[1] == pytest.approx(g[0] / g[1])

    def test_cut_cell_density_boost(self, rng, fs):
        # Same count in a half-volume cell -> double density -> double p
        # (counts kept small so neither probability clamps at 1).
        pop = make_population(rng, 12, [0] * 6 + [1] * 6, fs)
        pairs = even_odd_pairs(pop.cell)
        counts = cell_populations(pop.cell, 2)
        vf = np.array([1.0, 0.5])
        prob, _ = collision_probabilities(
            pop, pairs, fs, maxwell_molecule(), counts, volume_fractions=vf
        )
        full = prob[pairs.same_cell & (pop.cell[pairs.first] == 0)][0]
        cut = prob[pairs.same_cell & (pop.cell[pairs.first] == 1)][0]
        assert cut == pytest.approx(2.0 * full)

    def test_non_candidates_zero(self, rng, fs):
        pop = make_population(rng, 4, [0, 0, 0, 1], fs)
        pairs = even_odd_pairs(pop.cell)
        counts = cell_populations(pop.cell, 2)
        prob, g = collision_probabilities(
            pop, pairs, fs, maxwell_molecule(), counts
        )
        assert prob[~pairs.same_cell].sum() == 0.0

    def test_empty_population(self, fs):
        pop = ParticleArrays.empty()
        pairs = even_odd_pairs(pop.cell)
        prob, g = collision_probabilities(
            pop, pairs, fs, maxwell_molecule(), np.zeros(1)
        )
        assert prob.size == 0


class TestSelect:
    def test_acceptance_rate_matches_probability(self, rng, fs):
        n = 20_000
        pop = make_population(rng, n, [0] * n, fs)
        # Force density to the freestream anchor so p = P_c,inf.
        counts = np.array([fs.density])
        pairs = even_odd_pairs(pop.cell)
        sel = select_collisions(
            pop, pairs, fs, maxwell_molecule(), counts, rng=rng
        )
        expected = fs.collision_probability
        rate = sel.n_collisions / pairs.n_pairs
        assert rate == pytest.approx(expected, rel=0.05)

    def test_explicit_draws(self, rng, fs):
        pop = make_population(rng, 10, [0] * 10, fs)
        pairs = even_odd_pairs(pop.cell)
        counts = cell_populations(pop.cell, 1)
        sel = select_collisions(
            pop, pairs, fs, maxwell_molecule(), counts,
            draws=np.zeros(pairs.n_pairs),
        )
        assert sel.accept.all()

    def test_draws_shape_checked(self, rng, fs):
        pop = make_population(rng, 10, [0] * 10, fs)
        pairs = even_odd_pairs(pop.cell)
        counts = cell_populations(pop.cell, 1)
        with pytest.raises(ConfigurationError):
            select_collisions(
                pop, pairs, fs, maxwell_molecule(), counts,
                draws=np.zeros(3),
            )

    def test_needs_rng_or_draws(self, rng, fs):
        pop = make_population(rng, 10, [0] * 10, fs)
        pairs = even_odd_pairs(pop.cell)
        counts = cell_populations(pop.cell, 1)
        with pytest.raises(ConfigurationError):
            select_collisions(pop, pairs, fs, maxwell_molecule(), counts)
