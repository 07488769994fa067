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

import repro.core.collision as collision_mod
import repro.core.simulation as simulation_mod
from repro.core.cells import assign_cells, cell_populations
from repro.core.collision import (
    collide_adjacent_pairs,
    collide_pairs,
    collide_rows_with_velocities,
)
from repro.core.pairing import reflection_offsets
from repro.core.particles import ParticleArrays, ScratchBuffers
from repro.core.reservoir import Reservoir
from repro.core.selection import fused_select_collide
from repro.core.simulation import Simulation, SimulationConfig
from repro.core.sortstep import (
    IncrementalSorter,
    counting_sort_order,
    sort_by_cell,
)
from repro.errors import ConfigurationError
from repro.geometry.domain import Domain
from repro.geometry.domain3d import Domain3D
from repro.geometry.wedge import Wedge
from repro.physics.freestream import Freestream
from repro.physics.molecules import MolecularModel
from repro.rng import shard_stream


def _sort_step(sorter, parts):
    """One indexed-sort step, as the driver runs it: detect, update."""
    sorter.detect(parts)
    return sorter.update(parts)


@pytest.fixture
def fs():
    return Freestream(mach=4.0, c_mp=0.2, lambda_mfp=0.5, density=8.0)


@pytest.fixture
def pop(rng, fs):
    return ParticleArrays.from_freestream(rng, 400, fs, (0, 10), (0, 10))


def _clone(parts):
    return parts.select(np.arange(parts.n))


class TestAdjacentPairEquivalence:
    def test_all_pairs_match_generic_kernel(self, pop):
        m = pop.n // 2
        ref = _clone(pop)
        s_ref = collide_pairs(
            ref,
            np.arange(0, pop.n, 2),
            np.arange(1, pop.n, 2),
            rng=np.random.default_rng(21),
        )
        s_adj = collide_adjacent_pairs(pop, rng=np.random.default_rng(21))
        for name in ("u", "v", "w", "rot", "perm"):
            assert np.array_equal(getattr(pop, name), getattr(ref, name)), name
        assert s_adj.n_collisions == s_ref.n_collisions == m
        # The exchange diagnostic is the oracle's alone.
        assert s_ref.energy_exchanged > 0.0 and s_adj.energy_exchanged is None

    def test_subset_matches_generic_kernel(self, pop, rng):
        accepted = np.sort(rng.choice(pop.n // 2, size=60, replace=False))
        ref = _clone(pop)
        collide_pairs(
            ref, 2 * accepted, 2 * accepted + 1,
            rng=np.random.default_rng(21),
        )
        collide_adjacent_pairs(pop, accepted, rng=np.random.default_rng(21))
        for name in ("u", "v", "w", "rot", "perm"):
            assert np.array_equal(getattr(pop, name), getattr(ref, name)), name

    def test_partial_internal_exchange_matches(self, pop):
        # The frozen-pair branch draws after the words; identical
        # streams must yield identical outcomes through either kernel.
        accepted = np.arange(pop.n // 2)
        ref = _clone(pop)
        collide_pairs(
            ref, 2 * accepted, 2 * accepted + 1,
            rng=np.random.default_rng(5), internal_exchange_probability=0.5,
        )
        collide_adjacent_pairs(
            pop, accepted, rng=np.random.default_rng(5),
            internal_exchange_probability=0.5,
        )
        for name in ("u", "v", "w", "rot", "perm"):
            assert np.array_equal(getattr(pop, name), getattr(ref, name)), name

    def test_empty_selection(self, pop):
        stats = collide_adjacent_pairs(pop, np.empty(0, dtype=np.intp))
        assert stats.n_collisions == 0


def _population(n, rdof, scratch, seed=8):
    fs = Freestream(mach=4.0, c_mp=0.2, lambda_mfp=0.5, density=8.0)
    parts = ParticleArrays.from_freestream(
        np.random.default_rng(seed), n, fs, (0, 10), (0, 10),
        rotational_dof=rdof,
    )
    if scratch:
        parts.enable_scratch()
    return parts


def _assert_same(pop, ref):
    for name in ("u", "v", "w", "rot", "perm"):
        assert getattr(pop, name).tobytes() == getattr(ref, name).tobytes(), name


class TestPooledCoreEquivalence:
    """The pooled collision core against the oracle, bitwise.

    One population, one pair list, one seeded generator handed to both
    -- a PCG64 one, or (``keyed``) the keyed Philox stream a replica or
    shard draws from: ``collide_pairs`` and each entry point of the hot
    core must leave the same bytes behind.
    """

    @staticmethod
    def _stream(keyed):
        return shard_stream(21, 0, 3) if keyed else np.random.default_rng(5)

    @pytest.mark.parametrize("keyed", [False, True])
    @pytest.mark.parametrize("iep", [1.0, 0.6])
    @pytest.mark.parametrize("rdof", [0, 2, 3])
    @pytest.mark.parametrize("m", [0, 1, 7, 50_000])
    def test_rows_with_velocities_matches_oracle(self, m, rdof, iep, keyed):
        n = max(2 * m + 5, 16)
        rows = np.random.default_rng(3).permutation(n)[: 2 * m]
        a, b = rows[:m].astype(np.intp), rows[m:].astype(np.intp)
        ref = _population(n, rdof, scratch=False)
        s_ref = collide_pairs(
            ref, a, b, rng=self._stream(keyed),
            internal_exchange_probability=iep,
        )
        # Two calls on one warm pool: the second reuses every buffer.
        for scratch in (False, True, True):
            pop = _population(n, rdof, scratch)
            velocities = [
                col[r] for col in (pop.u, pop.v, pop.w) for r in (a, b)
            ]
            stats = collide_rows_with_velocities(
                pop, a, b, *velocities, rng=self._stream(keyed),
                internal_exchange_probability=iep,
            )
            assert stats.n_collisions == s_ref.n_collisions == m
            _assert_same(pop, ref)

    @pytest.mark.parametrize("keyed", [False, True])
    @pytest.mark.parametrize("rdof", [0, 2, 3])
    @pytest.mark.parametrize("m", [0, 1, 7, 50_000])
    def test_adjacent_pairs_match_oracle(self, m, rdof, keyed):
        # Accepted subset (index arrays) and all pairs (strided views).
        n = 2 * m + 1  # the odd one out stays unpaired
        subset = np.arange(m, dtype=np.intp)
        ref = _population(n, rdof, scratch=False)
        collide_pairs(
            ref, 2 * subset, 2 * subset + 1, rng=self._stream(keyed)
        )
        for pair_index in (subset, None):
            pop = _population(n, rdof, scratch=True)
            stats = collide_adjacent_pairs(
                pop, pair_index, rng=self._stream(keyed)
            )
            assert stats.n_collisions == m
            _assert_same(pop, ref)

    def test_bad_shapes_are_rejected(self):
        pop = _population(16, 2, scratch=True)
        v = [np.zeros(2)] * 6
        with pytest.raises(ConfigurationError):
            collide_rows_with_velocities(
                pop, np.array([0, 1]), np.array([2]), *v
            )
        with pytest.raises(ConfigurationError, match="2 streams for 1"):
            collide_rows_with_velocities(
                pop, np.array([0, 1]), np.array([2, 3]), *v,
                rng=[np.random.default_rng(1)] * 2,
            )
        with pytest.raises(ConfigurationError):
            collide_rows_with_velocities(
                pop, np.array([0, 1]), np.array([2, 3]), *v
            )  # no rng


class TestTilingIsBitwise:
    """Any tile size leaves the bytes of the untiled call and the oracle.

    The kernel draws every number up front and then works tile by tile;
    the tiles consume no random numbers and touch disjoint rows.  Tiles
    of 1, 7 and 64 pairs against ``TILE >= m`` and against
    ``collide_pairs`` run block by block: one block, and three blocks
    of 20, 0 and 25 pairs whose edges the tiles straddle, through index
    rows (``collide_rows_with_velocities``) and through the all-pairs
    rows (``collide_adjacent_pairs(None)``: strided views for one block,
    per-block rows after odd-sized blocks for three).
    """

    #: Rows per block: 41, 0 and 51 leave 20, 0 and 25 pairs, and odd
    #: blocks shift every later block's pairs off the even rows.
    BLOCK_ROWS = {"one": (91,), "three": (41, 0, 51)}

    def _call(self, rows, layout, rdof, iep, tile, monkeypatch):
        sizes = self.BLOCK_ROWS[layout]
        starts = np.concatenate([[0], np.cumsum(sizes)])
        pop = _population(int(starts[-1]), rdof, scratch=True, seed=6)
        if layout == "three":
            pop.starts = starts.copy()
        streams = [np.random.default_rng(700 + i) for i in range(len(sizes))]
        pairs = [
            (np.arange(s0, s0 + n - 1, 2), np.arange(s0 + 1, s0 + n, 2))
            for s0, n in zip(starts, sizes)
        ]
        if rows == "index":
            # Each block's pairs in a shuffled order: scattered rows.
            shuffled = []
            for a, b in pairs:
                p = np.random.default_rng(5).permutation(a.shape[0])
                shuffled.append((a[p], b[p]))
            pairs = shuffled
        if tile == "oracle":
            for (a, b), stream in zip(pairs, streams):
                collide_pairs(
                    pop, a, b, rng=stream, internal_exchange_probability=iep
                )
            return pop, [stream.random() for stream in streams]
        m = sum(a.shape[0] for a, _ in pairs)
        monkeypatch.setattr(collision_mod, "TILE", tile or m)
        if rows == "index":
            a = np.concatenate([a for a, _ in pairs])
            b = np.concatenate([b for _, b in pairs])
            edges = np.cumsum([0] + [a.shape[0] for a, _ in pairs])
            velocities = [
                col[r] for col in (pop.u, pop.v, pop.w) for r in (a, b)
            ]
            collide_rows_with_velocities(
                pop, a, b, *velocities, rng=streams, edges=edges,
                internal_exchange_probability=iep,
            )
        else:
            collide_adjacent_pairs(
                pop, None, rng=streams, internal_exchange_probability=iep
            )
        return pop, [stream.random() for stream in streams]

    @pytest.mark.parametrize("rows", ["index", "all-pairs"])
    @pytest.mark.parametrize("layout", ["one", "three"])
    @pytest.mark.parametrize("iep", [1.0, 0.6])
    @pytest.mark.parametrize("rdof", [0, 2, 3])
    def test_tiles_match_untiled_and_oracle(
        self, monkeypatch, rdof, iep, layout, rows
    ):
        args = (rows, layout, rdof, iep)
        want, want_next = self._call(*args, "oracle", monkeypatch)
        untiled, untiled_next = self._call(*args, None, monkeypatch)
        _assert_same(untiled, want)
        assert untiled_next == want_next  # every stream where the oracle left it
        for tile in (1, 7, 64):
            tiled, tiled_next = self._call(*args, tile, monkeypatch)
            _assert_same(tiled, untiled)
            assert tiled_next == untiled_next


class TestDrawCount:
    """What a collision costs in random numbers: one word, nothing more."""

    @pytest.mark.parametrize("rdof", [0, 2, 3])
    def test_one_word_per_collision(self, rdof):
        m, k = 5_000, 3 + rdof
        pop = _population(2 * m, rdof, scratch=True)
        a, b = np.arange(0, 2 * m, 2), np.arange(1, 2 * m, 2)
        velocities = [col[r] for col in (pop.u, pop.v, pop.w) for r in (a, b)]
        rng, twin = np.random.default_rng(42), np.random.default_rng(42)
        collide_rows_with_velocities(pop, a, b, *velocities, rng=rng)
        twin.integers(0, k * k << k, m, np.uint16)
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_near_continuum_draws_offsets_and_words_only(self):
        n_cells = 16
        fs = Freestream(mach=4.0, c_mp=0.2, lambda_mfp=0.0, density=8.0)
        parts = _population(600, 2, scratch=True)
        parts.cell[:] = np.random.default_rng(2).integers(0, n_cells, 600)
        res = _sort_step(IncrementalSorter(n_cells), parts)
        rng, twin = np.random.default_rng(9), np.random.default_rng(9)
        fused = fused_select_collide(
            parts, res.order, res.counts, res.offsets, fs, MolecularModel(),
            rng=rng,
        )
        assert fused.n_collisions == fused.n_candidates > 0
        reflection_offsets(twin, res.counts)
        twin.integers(0, 25 << 5, fused.n_collisions, np.uint16)
        assert rng.bit_generator.state == twin.bit_generator.state


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


def _packed_reference(cell, seed, max_key):
    """The packed-key order spelled as a lexsort, and the stream after it."""
    n = cell.shape[0]
    twin = np.random.default_rng(seed)
    word = twin.integers(0, 1 << 32, n, dtype=np.uint32)
    fit = 64 - int(max_key).bit_length() - (n - 1).bit_length()
    word >>= 32 - min(32, fit)
    return np.lexsort((np.arange(n), word, cell)), twin


class TestPackedSortKey:
    """The randomized counting order is one sort of ``(cell, word, row)``
    packed into a ``uint64``: the order of a lexsort on those digits."""

    @pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 65536, 65537])
    @pytest.mark.parametrize("max_key", [0, 97, 6271, 65535])
    @pytest.mark.parametrize("scratch", [False, True])
    def test_equals_lexsort_of_cell_word_row(self, n, max_key, scratch):
        cell = np.random.default_rng(n).integers(0, max_key + 1, n)
        cell[n // 2] = max_key
        pool = ScratchBuffers() if scratch else None
        rng = np.random.default_rng(5)
        order = counting_sort_order(cell, rng, scratch=pool, max_key=max_key)
        ref, twin = _packed_reference(cell, 5, max_key)
        assert order.dtype == np.intp
        assert np.array_equal(order, ref)
        # Exactly one uint32 word per particle: a pending half-word
        # (odd n) must be pending in both.
        assert rng.integers(0, 1 << 32, 3, np.uint32).tolist() == (
            twin.integers(0, 1 << 32, 3, np.uint32).tolist()
        )

    def test_word_keeps_its_top_bits_when_32_do_not_fit(self):
        # 16 cell bits + 18 row bits leave 30 bits of each word.
        n, max_key = (1 << 17) + 1, (1 << 16) - 1
        cell = np.random.default_rng(1).integers(0, max_key + 1, n)
        cell[0] = max_key
        order = counting_sort_order(
            cell, np.random.default_rng(2), max_key=max_key
        )
        assert np.array_equal(order, _packed_reference(cell, 2, max_key)[0])

    def test_scanned_key_range_equals_the_vouched_one(self):
        cell = np.random.default_rng(3).integers(0, 500, 1000)
        a = counting_sort_order(cell, np.random.default_rng(4))
        b = counting_sort_order(
            cell, np.random.default_rng(4), max_key=int(cell.max())
        )
        assert np.array_equal(a, b)

    def test_fewer_than_16_random_bits_is_a_typed_error(self):
        cell = np.zeros(512, dtype=np.int64)  # 9 row bits
        # 39 cell bits leave exactly 16 bits of word; 40 leave 15.
        counting_sort_order(cell, np.random.default_rng(0), max_key=(1 << 39) - 1)
        with pytest.raises(ConfigurationError, match="random bits"):
            counting_sort_order(cell, np.random.default_rng(0), max_key=1 << 39)


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
