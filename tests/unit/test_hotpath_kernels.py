"""Unit tests for the hot-path step-loop kernels.

Pins the equivalences the overhaul relies on:

* the adjacent-pair collision kernel is bit-identical to the generic
  gather/scatter kernel on the same pairs;
* the fused sort's histogram equals a separate ``cell_populations``
  bincount, and the scratch-enabled path orders exactly like the
  allocation-per-call path under the same rng stream;
* reservoir deposit/withdraw round-trips the population (no particle
  duplicated or lost), with and without scratch buffers;
* seeding refuses to return a population embedded in the wedge.
"""

import dataclasses

import numpy as np
import pytest

import repro.core.simulation as simulation_mod
from repro.core.cells import assign_cells, cell_populations
from repro.core.collision import (
    collide_adjacent_pairs,
    collide_pairs,
    collide_rows_with_velocities,
)
from repro.core.particles import ParticleArrays
from repro.core.reservoir import Reservoir
from repro.core.simulation import Simulation, SimulationConfig
from repro.core.sortstep import counting_sort_order, sort_by_cell
from repro.errors import ConfigurationError
from repro.geometry.domain import Domain
from repro.geometry.domain3d import Domain3D
from repro.geometry.wedge import Wedge
from repro.physics.freestream import Freestream


@pytest.fixture
def fs():
    return Freestream(mach=4.0, c_mp=0.2, lambda_mfp=0.5, density=8.0)


@pytest.fixture
def pop(rng, fs):
    return ParticleArrays.from_freestream(rng, 400, fs, (0, 10), (0, 10))


def _clone(parts):
    return parts.select(np.arange(parts.n))


class TestAdjacentPairEquivalence:
    def test_all_pairs_match_generic_kernel(self, pop, rng):
        m = pop.n // 2
        k = 3 + pop.rotational_dof
        signs = np.where(rng.random((m, k)) < 0.5, -1.0, 1.0)
        trans = rng.integers(0, k, size=2 * m)
        ref = _clone(pop)
        s_ref = collide_pairs(
            ref,
            np.arange(0, pop.n, 2),
            np.arange(1, pop.n, 2),
            signs=signs,
            transpositions=trans,
        )
        s_adj = collide_adjacent_pairs(pop, signs=signs, transpositions=trans)
        for name in ("u", "v", "w", "rot", "perm"):
            assert np.array_equal(getattr(pop, name), getattr(ref, name)), name
        assert s_adj.n_collisions == s_ref.n_collisions == m
        # The exchange diagnostic is the oracle's alone.
        assert s_ref.energy_exchanged > 0.0 and s_adj.energy_exchanged is None

    def test_subset_matches_generic_kernel(self, pop, rng):
        accepted = np.sort(rng.choice(pop.n // 2, size=60, replace=False))
        k = 3 + pop.rotational_dof
        signs = np.where(rng.random((60, k)) < 0.5, -1.0, 1.0)
        trans = rng.integers(0, k, size=120)
        ref = _clone(pop)
        collide_pairs(
            ref, 2 * accepted, 2 * accepted + 1,
            signs=signs, transpositions=trans,
        )
        collide_adjacent_pairs(
            pop, accepted, signs=signs, transpositions=trans
        )
        for name in ("u", "v", "w", "rot", "perm"):
            assert np.array_equal(getattr(pop, name), getattr(ref, name)), name

    def test_partial_internal_exchange_matches(self, pop, rng):
        # The frozen-pair branch draws from rng; identical streams must
        # yield identical outcomes through either kernel.
        accepted = np.arange(pop.n // 2)
        k = 3 + pop.rotational_dof
        signs = np.ones((accepted.size, k))
        trans = np.zeros(2 * accepted.size, dtype=np.int64)
        ref = _clone(pop)
        collide_pairs(
            ref, 2 * accepted, 2 * accepted + 1,
            rng=np.random.default_rng(5), signs=signs,
            transpositions=trans, internal_exchange_probability=0.5,
        )
        collide_adjacent_pairs(
            pop, accepted, rng=np.random.default_rng(5), signs=signs,
            transpositions=trans, internal_exchange_probability=0.5,
        )
        for name in ("u", "v", "w", "rot", "perm"):
            assert np.array_equal(getattr(pop, name), getattr(ref, name)), name

    def test_empty_selection(self, pop):
        stats = collide_adjacent_pairs(pop, np.empty(0, dtype=np.intp))
        assert stats.n_collisions == 0


class TestPooledCoreEquivalence:
    """The pooled collision core against the oracle, bitwise.

    One population, one pair list, one rng stream (or one set of
    caller-supplied signs/transpositions): ``collide_pairs`` and each
    entry point of the hot core must leave the same bytes behind.
    """

    @staticmethod
    def _population(n, rdof, scratch):
        fs = Freestream(mach=4.0, c_mp=0.2, lambda_mfp=0.5, density=8.0)
        parts = ParticleArrays.from_freestream(
            np.random.default_rng(8), n, fs, (0, 10), (0, 10),
            rotational_dof=rdof,
        )
        if scratch:
            parts.enable_scratch()
        return parts

    @staticmethod
    def _draws(m, k, supplied):
        if not supplied:
            return {}
        rng = np.random.default_rng(21)
        return {
            "signs": np.where(rng.random((m, k)) < 0.5, -1.0, 1.0),
            "transpositions": rng.integers(0, k, size=2 * m),
        }

    @staticmethod
    def _assert_same(pop, ref):
        for name in ("u", "v", "w", "rot", "perm"):
            assert np.array_equal(getattr(pop, name), getattr(ref, name)), name

    @pytest.mark.parametrize("supplied", [False, True])
    @pytest.mark.parametrize("iep", [1.0, 0.6])
    @pytest.mark.parametrize("rdof", [0, 2, 3])
    @pytest.mark.parametrize("m", [0, 1, 7, 50_000])
    def test_rows_with_velocities_matches_oracle(self, m, rdof, iep, supplied):
        n = max(2 * m + 5, 16)
        rows = np.random.default_rng(3).permutation(n)[: 2 * m]
        a, b = rows[:m].astype(np.intp), rows[m:].astype(np.intp)
        kwargs = self._draws(m, 3 + rdof, supplied)
        ref = self._population(n, rdof, scratch=False)
        s_ref = collide_pairs(
            ref, a, b, rng=np.random.default_rng(5),
            internal_exchange_probability=iep, **kwargs,
        )
        # Two calls on one warm pool: the second reuses every buffer.
        for scratch in (False, True, True):
            pop = self._population(n, rdof, scratch)
            velocities = [
                col[r] for col in (pop.u, pop.v, pop.w) for r in (a, b)
            ]
            stats = collide_rows_with_velocities(
                pop, a, b, *velocities, rng=np.random.default_rng(5),
                internal_exchange_probability=iep, **kwargs,
            )
            assert stats.n_collisions == s_ref.n_collisions == m
            self._assert_same(pop, ref)

    @pytest.mark.parametrize("supplied", [False, True])
    @pytest.mark.parametrize("rdof", [0, 2, 3])
    @pytest.mark.parametrize("m", [0, 1, 7, 50_000])
    def test_adjacent_pairs_match_oracle(self, m, rdof, supplied):
        # Accepted subset (index arrays) and all pairs (strided views).
        n = 2 * m + 1  # the odd one out stays unpaired
        kwargs = self._draws(m, 3 + rdof, supplied)
        subset = np.arange(m, dtype=np.intp)
        ref = self._population(n, rdof, scratch=False)
        collide_pairs(
            ref, 2 * subset, 2 * subset + 1,
            rng=np.random.default_rng(5), **kwargs,
        )
        for pair_index in (subset, None):
            pop = self._population(n, rdof, scratch=True)
            stats = collide_adjacent_pairs(
                pop, pair_index, rng=np.random.default_rng(5), **kwargs
            )
            assert stats.n_collisions == m
            self._assert_same(pop, ref)

    def test_bad_shapes_are_rejected(self):
        pop = self._population(16, 2, scratch=True)
        v = [np.zeros(2)] * 6
        with pytest.raises(ConfigurationError):
            collide_rows_with_velocities(
                pop, np.array([0, 1]), np.array([2]), *v
            )
        with pytest.raises(ConfigurationError):
            collide_rows_with_velocities(
                pop, np.array([0, 1]), np.array([2, 3]), *v,
                signs=np.ones((2, 4)), transpositions=np.zeros(4, np.int64),
            )
        with pytest.raises(ConfigurationError):
            collide_rows_with_velocities(
                pop, np.array([0, 1]), np.array([2, 3]), *v
            )  # neither rng nor explicit draws


class TestFusedSort:
    def test_counts_equal_cell_populations(self, pop, rng):
        domain = Domain(10, 10)
        assign_cells(pop, domain)
        res = sort_by_cell(pop, rng, scale=8, n_cells=domain.n_cells)
        assert res.counts is not None
        assert np.array_equal(
            res.counts, cell_populations(pop.cell, domain.n_cells)
        )
        assert int(res.counts.sum()) == pop.n

    def test_scratch_path_orders_identically(self, fs):
        # Same rng stream, with and without pooled buffers: the sort
        # permutation (and thus the physics) must be bit-identical.
        rng_a = np.random.default_rng(31)
        a = ParticleArrays.from_freestream(rng_a, 500, fs, (0, 10), (0, 10))
        b = _clone(a)
        b.enable_scratch()
        domain = Domain(10, 10)
        assign_cells(a, domain)
        assign_cells(b, domain)
        res_a = sort_by_cell(a, np.random.default_rng(7), scale=8,
                             n_cells=domain.n_cells)
        res_b = sort_by_cell(b, np.random.default_rng(7), scale=8,
                             n_cells=domain.n_cells)
        assert np.array_equal(np.asarray(res_a.order), np.asarray(res_b.order))
        for name in ("x", "y", "u", "cell"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert np.array_equal(res_a.counts, res_b.counts)

    def test_validation_still_raises_without_rng(self, pop):
        with pytest.raises(ConfigurationError):
            sort_by_cell(pop, rng=None, scale=8)
        with pytest.raises(ConfigurationError):
            counting_sort_order(np.array([-1, 0]), shuffle=False)

    def test_empty_population(self):
        assert counting_sort_order(np.empty(0, dtype=np.int64)).size == 0


class TestReservoirRoundTrip:
    def _roundtrip(self, fs, scratch):
        res = Reservoir(fs, rotational_dof=2)
        if scratch:
            res.particles.enable_scratch()
        rng = np.random.default_rng(11)
        res.deposit(rng, 100)
        before = np.sort(res.particles.u.copy())
        out = res.withdraw(rng, 30)
        assert out.n == 30
        assert res.size == 70
        assert out.rotational_dof == 2
        # No particle duplicated or lost: the withdrawn and remaining
        # velocity multisets partition the deposited one.
        after = np.sort(np.concatenate([out.u, res.particles.u]))
        assert np.array_equal(after, before)

    def test_plain(self, fs):
        self._roundtrip(fs, scratch=False)

    def test_scratch(self, fs):
        self._roundtrip(fs, scratch=True)

    def test_withdraw_all(self, fs):
        res = Reservoir(fs, rotational_dof=2)
        rng = np.random.default_rng(3)
        res.deposit(rng, 40)
        out = res.withdraw(rng, 40)
        assert out.n == 40 and res.size == 0

    def test_withdraw_is_unbiased_sample(self, fs):
        # Drawing without replacement must not favour low addresses:
        # the mean withdrawn index should sit near the middle.
        res = Reservoir(fs, rotational_dof=2)
        rng = np.random.default_rng(17)
        res.deposit(rng, 1000)
        res.particles.x[:] = np.arange(1000)  # tag by original address
        means = []
        for _ in range(50):
            out = res.withdraw(rng, 100)
            means.append(out.x.mean())
            res.deposit(rng, 100)
            res.particles.x[:] = np.arange(res.size)
        assert abs(np.mean(means) - 499.5) < 30


def _slab(config):
    """``config`` on a two-cell-deep z-periodic slab of its grid."""
    return dataclasses.replace(
        config, domain=Domain3D(config.domain.nx, config.domain.ny, 2)
    )


class TestSeedRejection:
    def test_embedded_seed_raises(self, monkeypatch, small_config):
        # With zero rejection passes the initial draw necessarily
        # leaves particles inside the wedge; seeding must refuse to
        # hand that population back instead of silently continuing.
        monkeypatch.setattr(simulation_mod, "SEED_REJECTION_PASSES", 0)
        with pytest.raises(ConfigurationError, match="failed to converge"):
            Simulation(small_config)
        # The 3-D slab is a domain of the same driver, hence of the
        # same recipe.
        with pytest.raises(ConfigurationError, match="failed to converge"):
            Simulation(_slab(small_config))

    def test_normal_seed_has_no_embedded_particles(self, small_config):
        for config in (small_config, _slab(small_config)):
            sim = Simulation(config)
            assert not np.any(
                config.wedge.inside(sim.particles.x, sim.particles.y)
            )
