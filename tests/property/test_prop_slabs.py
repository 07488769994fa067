"""Properties of non-uniform slab decompositions and the rebalancer.

PR 2 only ever built uniform splits, so :class:`ShardSlabs`'s contract
for arbitrary edge tuples was untested.  The adaptive rebalancer makes
non-uniform decompositions routine; these properties pin what the
backend relies on:

* ``partition_order`` stays an exact, stable gather/re-partition
  round-trip under *any* valid edge tuple (the bind/gather seam of the
  sharded backend);
* invalid edge tuples (width below ``MIN_SLAB_WIDTH``, edges outside
  ``[0, nx]``) are rejected at construction;
* ``rebalance`` is a deterministic pure function of the load vector
  and honors all three clamps (damping, adjacency, minimum width).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.parallel.shard import MIN_SLAB_WIDTH, ShardSlabs


@st.composite
def slab_decompositions(draw):
    """An arbitrary valid (possibly non-uniform) decomposition."""
    widths = draw(
        st.lists(
            st.integers(min_value=MIN_SLAB_WIDTH, max_value=9),
            min_size=1,
            max_size=5,
        )
    )
    edges = np.concatenate(([0], np.cumsum(widths)))
    return ShardSlabs.from_edges(int(edges[-1]), edges)


@st.composite
def decompositions_with_loads(draw):
    slabs = draw(slab_decompositions())
    loads = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1e4,
                      allow_nan=False, allow_infinity=False),
            min_size=slabs.nx,
            max_size=slabs.nx,
        )
    )
    return slabs, np.asarray(loads)


class TestNonUniformPartitionOrder:
    @given(slab_decompositions(), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_gather_repartition_round_trip_exact(self, slabs, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 200))
        x = rng.uniform(0.0, slabs.nx, size=n)
        order, splits = slabs.partition_order(x)

        # The reordering is a permutation grouping particles by shard,
        # and every split segment lies inside its slab.
        assert sorted(order.tolist()) == list(range(n))
        gathered = x[order]
        for k in range(slabs.n_workers):
            seg = gathered[splits[k]:splits[k + 1]]
            lo, hi = slabs.edges[k], slabs.edges[k + 1]
            if seg.size:
                assert seg.min() >= lo
                assert seg.max() < hi

        # Re-partitioning the gathered order is the identity: the seam
        # this pins is bind(gather(bind(x))) == bind(x) bitwise.
        order2, splits2 = slabs.partition_order(gathered)
        assert np.array_equal(order2, np.arange(n))
        assert np.array_equal(splits, splits2)
        assert np.array_equal(gathered[order2], gathered)

    @given(slab_decompositions())
    @settings(max_examples=30, deadline=None)
    def test_stability_preserves_within_shard_order(self, slabs):
        # Two particles in the same slab keep their relative order.
        rng = np.random.default_rng(7)
        x = rng.uniform(0.0, slabs.nx, size=64)
        order, _ = slabs.partition_order(x)
        shard = slabs.shard_of(x)
        for k in range(slabs.n_workers):
            idx = order[shard[order] == k]
            assert np.array_equal(idx, np.sort(idx))


class TestEdgeValidation:
    def test_min_width_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardSlabs.from_edges(10, (0, 1, 10))
        with pytest.raises(ConfigurationError):
            ShardSlabs.from_edges(10, (0, 9, 10))

    def test_span_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardSlabs.from_edges(10, (1, 5, 10))
        with pytest.raises(ConfigurationError):
            ShardSlabs.from_edges(10, (0, 5, 9))

    def test_valid_non_uniform_accepted(self):
        s = ShardSlabs.from_edges(12, (0, 2, 9, 12))
        assert s.n_workers == 3
        assert s.edges[1:3] == (2, 9)


class TestRebalanceProperties:
    @given(decompositions_with_loads(),
           st.integers(min_value=MIN_SLAB_WIDTH, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_deterministic_and_clamp_respecting(self, case, max_shift):
        slabs, loads = case
        new = slabs.rebalance(loads, max_shift=max_shift)
        again = slabs.rebalance(loads, max_shift=max_shift)
        assert new.edges == again.edges  # pure function of the loads

        W = slabs.n_workers
        assert new.nx == slabs.nx
        assert new.n_workers == W
        assert new.edges[0] == 0 and new.edges[-1] == slabs.nx
        widths = np.diff(new.edges)
        assert (widths >= MIN_SLAB_WIDTH).all()
        for k in range(1, W):
            # Damping clamp (the min-width repair may add at most
            # MIN_SLAB_WIDTH on top of the raw clamp).
            assert abs(new.edges[k] - slabs.edges[k]) <= (
                max_shift + MIN_SLAB_WIDTH
            )
            # Adjacency: ceded columns only move between neighbours.
            assert slabs.edges[k - 1] <= new.edges[k] <= slabs.edges[k + 1]

    @given(decompositions_with_loads())
    @settings(max_examples=30, deadline=None)
    def test_noop_returns_self(self, case):
        slabs, loads = case
        new = slabs.rebalance(loads)
        if new.edges == slabs.edges:
            assert new is slabs

    def test_balanced_loads_do_not_move(self):
        slabs = ShardSlabs.split(40, 4)
        assert slabs.rebalance(np.ones(40)) is slabs

    def test_skewed_loads_move_toward_the_mass(self):
        slabs = ShardSlabs.split(40, 2)
        loads = np.zeros(40)
        loads[:10] = 1.0
        new = slabs.rebalance(loads, max_shift=8)
        assert new.edges[1] < slabs.edges[1]

    def test_max_shift_below_min_width_rejected(self):
        slabs = ShardSlabs.split(40, 2)
        with pytest.raises(ConfigurationError):
            slabs.rebalance(np.ones(40), max_shift=MIN_SLAB_WIDTH - 1)

    def test_bad_loads_rejected(self):
        slabs = ShardSlabs.split(40, 2)
        with pytest.raises(ConfigurationError):
            slabs.rebalance(np.full(40, np.nan))
        with pytest.raises(ConfigurationError):
            slabs.rebalance(-np.ones(40))
        with pytest.raises(ConfigurationError):
            slabs.rebalance(np.ones(7))
