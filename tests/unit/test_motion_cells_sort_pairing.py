"""Unit tests for motion, cell indexing, the randomized sort and pairing."""

import numpy as np
import pytest

from repro.core.cells import assign_cells, cell_populations, randomized_sort_keys
from repro.core.motion import advance
from repro.core.pairing import even_odd_pairs
from repro.core.particles import ParticleArrays
from repro.core.sortstep import sort_by_cell
from repro.errors import ConfigurationError
from repro.geometry.domain import Domain
from repro.geometry.domain3d import Domain3D
from repro.physics.freestream import Freestream


@pytest.fixture
def pop(rng):
    fs = Freestream(mach=4.0, c_mp=0.14, lambda_mfp=0.5, density=8.0)
    return ParticleArrays.from_freestream(rng, 500, fs, (0, 20), (0, 10))


class TestMotion:
    def test_position_update_is_eq2(self, pop):
        x0, y0 = pop.x.copy(), pop.y.copy()
        advance(pop)
        assert np.allclose(pop.x, x0 + pop.u)
        assert np.allclose(pop.y, y0 + pop.v)

    def test_velocities_unchanged(self, pop):
        u0 = pop.u.copy()
        advance(pop)
        assert np.array_equal(pop.u, u0)

    def test_z_periodic_wrap(self, pop):
        pop.z[:] = 0.95
        pop.w[:] = 0.1
        advance(pop, Domain3D(20, 10, 1))
        assert np.allclose(pop.z, 0.05)

    def test_no_span_leaves_z_alone(self, pop):
        pop.w[:] = 0.1
        advance(pop, Domain(20, 10))
        assert not pop.z.any()


class TestCells:
    def test_assign_cells(self, pop):
        d = Domain(20, 10)
        assign_cells(pop, d)
        assert np.array_equal(pop.cell, d.cell_index(pop.x, pop.y))

    def test_populations_sum(self, pop):
        d = Domain(20, 10)
        assign_cells(pop, d)
        pops = cell_populations(pop.cell, d.n_cells)
        assert pops.sum() == pop.n

    def test_populations_range_check(self):
        with pytest.raises(ConfigurationError):
            cell_populations(np.array([5]), n_cells=3)

    def test_keys_recover_cell(self, rng):
        cell = rng.integers(0, 100, size=1000)
        keys = randomized_sort_keys(cell, rng=rng, scale=8)
        assert np.array_equal(keys // 8, cell)

    def test_scale_one_disables_mixing(self):
        cell = np.array([3, 1, 2])
        assert np.array_equal(randomized_sort_keys(cell, scale=1), cell)

    def test_mix_bits_supply(self, rng):
        cell = np.array([0, 0, 1])
        keys = randomized_sort_keys(
            cell, scale=4, mix_bits=np.array([3, 1, 0])
        )
        assert keys.tolist() == [3, 1, 4]

    def test_needs_rng_or_bits(self):
        with pytest.raises(ConfigurationError):
            randomized_sort_keys(np.array([1]), scale=8)

    def test_invalid_scale(self, rng):
        with pytest.raises(ConfigurationError):
            randomized_sort_keys(np.array([1]), rng=rng, scale=0)


class TestSortStep:
    def test_sorted_by_cell_after(self, pop, rng):
        d = Domain(20, 10)
        assign_cells(pop, d)
        sort_by_cell(pop, rng=rng)
        assert np.all(np.diff(pop.cell) >= 0)

    def test_columns_stay_aligned(self, pop, rng):
        d = Domain(20, 10)
        assign_cells(pop, d)
        tag = pop.x + 1000 * pop.y  # per-particle fingerprint
        before = set(np.round(tag, 9))
        sort_by_cell(pop, rng=rng)
        assign_cells(pop, d)
        assert np.all(np.diff(pop.cell) >= 0)
        after = set(np.round(pop.x + 1000 * pop.y, 9))
        assert before == after

    def test_intra_cell_order_changes_between_sorts(self, rng):
        # The randomization requirement: repeated sorts of identical
        # cells must not preserve relative order.
        fs = Freestream(mach=4.0, c_mp=0.14, lambda_mfp=0.5, density=8.0)
        pop = ParticleArrays.from_freestream(rng, 256, fs, (0, 1), (0, 1))
        pop.cell[:] = 0
        tag0 = pop.x.copy()
        sort_by_cell(pop, rng=rng)
        order_a = pop.x.copy()
        sort_by_cell(pop, rng=rng)
        order_b = pop.x.copy()
        assert not np.array_equal(order_a, order_b)

    def test_scale_one_is_stable_noop_ordering(self, rng):
        fs = Freestream(mach=4.0, c_mp=0.14, lambda_mfp=0.5, density=8.0)
        pop = ParticleArrays.from_freestream(rng, 64, fs, (0, 1), (0, 1))
        pop.cell[:] = 0
        first = pop.x.copy()
        sort_by_cell(pop, rng=rng, scale=1)
        assert np.array_equal(pop.x, first)  # stable sort of equal keys


class TestPairing:
    def test_even_odd_structure(self):
        cells = np.array([0, 0, 0, 1, 1, 1])
        pairs = even_odd_pairs(cells)
        assert pairs.first.tolist() == [0, 2, 4]
        assert pairs.second.tolist() == [1, 3, 5]
        # Pair (2,3) straddles cells 0|1: not a candidate.
        assert pairs.same_cell.tolist() == [True, False, True]
        assert pairs.n_candidates == 2

    def test_odd_population_drops_last(self):
        pairs = even_odd_pairs(np.array([0, 0, 0]))
        assert pairs.n_pairs == 1

    def test_candidate_indices(self):
        pairs = even_odd_pairs(np.array([0, 0, 1, 2]))
        a, b = pairs.candidate_indices()
        assert a.tolist() == [0] and b.tolist() == [1]

    def test_efficiency_dense_cells(self, rng):
        # 1000 particles in 4 cells: nearly every pair is same-cell.
        cells = np.sort(rng.integers(0, 4, size=1000))
        pairs = even_odd_pairs(cells)
        assert pairs.n_candidates / pairs.n_pairs > 0.95
