"""Property-based tests for the sort and the pairing invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.cm.machine import CM2
from repro.core.cells import randomized_sort_keys
from repro.core.pairing import even_odd_pairs
from repro.core.particles import ParticleArrays
from repro.core.sortstep import sort_by_cell

keys_strategy = arrays(
    np.int64,
    st.integers(min_value=0, max_value=300),
    elements=st.integers(min_value=0, max_value=1000),
)


def _scaled_key_sort(cells):
    """``sort_by_cell``'s scaled-key (CM mix bits) order of ``cells``."""
    n = cells.size
    zeros = np.zeros(n)
    parts = ParticleArrays(
        x=zeros, y=zeros, u=zeros, v=zeros, w=zeros, rot=np.zeros((n, 2)),
        perm=np.zeros((n, 5), dtype=np.int8), cell=cells.copy(),
    )
    mix = (cells * 7919) % 256
    keys = randomized_sort_keys(cells, scale=16, mix_bits=mix)
    return sort_by_cell(parts, scale=16, mix_bits=mix).order, keys


class TestSortProperties:
    @given(keys_strategy)
    @settings(max_examples=80, deadline=None)
    def test_order_is_permutation_and_sorted(self, keys):
        order, scaled = _scaled_key_sort(keys)
        assert np.array_equal(np.sort(order), np.arange(keys.size))
        assert np.all(np.diff(scaled[order]) >= 0)

    @given(keys_strategy)
    @settings(max_examples=80, deadline=None)
    def test_rank_inverse(self, keys):
        # The route measured from the order is the route of the rank.
        order, _ = _scaled_key_sort(keys)
        if keys.size:
            rank = np.empty_like(order)
            rank[order] = np.arange(keys.size)
            assert np.array_equal(rank[order], np.arange(keys.size))
            geom = CM2(n_processors=8).geometry(keys.size)
            rows = np.arange(keys.size)
            assert geom.offchip_fraction(order, rows) == (
                geom.offchip_fraction(rows, rank)
            )


class TestPairingProperties:
    @given(keys_strategy)
    @settings(max_examples=80, deadline=None)
    def test_pairs_disjoint_and_complete(self, cells):
        sorted_cells = np.sort(cells)
        pairs = even_odd_pairs(sorted_cells)
        all_idx = np.concatenate((pairs.first, pairs.second))
        # Disjoint indices covering the first 2 * n_pairs addresses.
        assert np.unique(all_idx).size == all_idx.size
        assert pairs.n_pairs == cells.size // 2

    @given(keys_strategy)
    @settings(max_examples=80, deadline=None)
    def test_candidates_share_cells(self, cells):
        sorted_cells = np.sort(cells)
        pairs = even_odd_pairs(sorted_cells)
        a, b = pairs.candidate_indices()
        assert np.array_equal(sorted_cells[a], sorted_cells[b])

    @given(keys_strategy)
    @settings(max_examples=60, deadline=None)
    def test_at_most_one_lost_pair_per_cell(self, cells):
        # The even/odd scheme wastes at most one straddling pair per
        # cell boundary.
        sorted_cells = np.sort(cells)
        pairs = even_odd_pairs(sorted_cells)
        n_cells_present = np.unique(cells).size
        lost = pairs.n_pairs - pairs.n_candidates
        assert lost <= max(n_cells_present - 1, 0) + 1
