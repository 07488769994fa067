"""Property-based tests for the sort and the pairing invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.cm.sort import sort_by_key
from repro.core.pairing import even_odd_pairs

keys_strategy = arrays(
    np.int64,
    st.integers(min_value=0, max_value=300),
    elements=st.integers(min_value=0, max_value=1000),
)


class TestSortProperties:
    @given(keys_strategy)
    @settings(max_examples=80, deadline=None)
    def test_order_is_permutation_and_sorted(self, keys):
        res = sort_by_key(keys, key_bits=10)
        assert np.array_equal(np.sort(res.order), np.arange(keys.size))
        assert np.all(np.diff(keys[res.order]) >= 0)

    @given(keys_strategy)
    @settings(max_examples=80, deadline=None)
    def test_rank_inverse(self, keys):
        res = sort_by_key(keys, key_bits=10)
        if keys.size:
            assert np.array_equal(res.rank[res.order], np.arange(keys.size))


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
