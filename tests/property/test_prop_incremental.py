"""Property tests for the indexed ("incremental") sort kernel.

The kernel's entire correctness story is one invariant:

* **path independence** -- after any ``update`` the order is the
  stable argsort of the live cell column (strict ``(cell, row)``
  order), whatever history of cell changes, row surgery and population
  swaps preceded it, so nothing that happened before a step can change
  what the step pairs and collides.

Hypothesis drives random cell-change/surgery/swap programs against one
sorter and demands the from-scratch answer after every step; a second
property pins the moved count (an observable, not a switch) to its
definition.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.particles import ParticleArrays
from repro.core.sortstep import IncrementalSorter
from repro.physics.freestream import Freestream

N_CELLS = 12

seeds = st.integers(min_value=0, max_value=2**31 - 1)

# A surgery program: a sequence of (op, seed) instructions.
programs = st.lists(
    st.tuples(
        st.sampled_from(["move", "remove", "append", "swap", "noop"]),
        st.integers(min_value=0, max_value=2**16),
    ),
    min_size=1,
    max_size=6,
)


def _population(seed, n=160):
    rng = np.random.default_rng(seed)
    fs = Freestream(mach=4.0, c_mp=0.2, lambda_mfp=0.5, density=8.0)
    parts = ParticleArrays.from_freestream(rng, n, fs, (0, 10), (0, 10))
    parts.enable_scratch()
    parts.cell[:] = rng.integers(0, N_CELLS, size=parts.n)
    return parts


def _apply(op, seed, parts):
    """Run one instruction; returns the (possibly new) population."""
    rng = np.random.default_rng(seed)
    n = parts.n
    if op == "move" and n:
        k = int(rng.integers(1, max(2, n // 8)))
        idx = rng.choice(n, size=k, replace=False)
        parts.cell[idx] = rng.integers(0, N_CELLS, size=k)
    elif op == "remove" and n > 8:
        mask = np.zeros(n, dtype=bool)
        mask[rng.choice(n, size=int(rng.integers(1, n // 4)), replace=False)] = True
        parts.remove_inplace(mask)
    elif op == "append":
        extra = _population(seed + 1, n=int(rng.integers(1, 24)))
        parts.append_inplace(extra)
    elif op == "swap":
        # A different object of a different size: a restored snapshot
        # or a gathered population handed to the same sorter.
        parts = _population(seed + 2, n=int(rng.integers(1, 320)))
    return parts


def _assert_canonical(order, cell):
    n = cell.shape[0]
    assert np.array_equal(np.sort(order), np.arange(n))
    keys = cell[order].astype(np.int64) * n + order
    if n > 1:
        assert np.all(np.diff(keys) > 0)


class TestPathIndependence:
    @given(seeds, programs)
    @settings(max_examples=40, deadline=None)
    def test_any_history_yields_stable_argsort(self, seed, program):
        parts = _population(seed)
        sorter = IncrementalSorter(N_CELLS)
        sorter.step(parts)
        for op, op_seed in program:
            parts = _apply(op, op_seed, parts)
            res = sorter.step(parts)
            assert res.n == parts.n
            assert np.array_equal(
                res.order, np.argsort(parts.cell, kind="stable")
            )
            counts = np.bincount(parts.cell, minlength=N_CELLS)
            assert np.array_equal(res.counts, counts)
            assert res.offsets[0] == 0
            assert np.array_equal(res.offsets[1:], np.cumsum(counts))
            _assert_canonical(res.order, parts.cell)

    @given(seeds, programs)
    @settings(max_examples=30, deadline=None)
    def test_moved_count_bounds_and_counts_histogram(self, seed, program):
        parts = _population(seed)
        sorter = IncrementalSorter(N_CELLS)
        assert sorter.step(parts).moved_fraction == 1.0  # fresh sorter
        for op, op_seed in program:
            cached = parts.cell.copy()
            parts = _apply(op, op_seed, parts)
            res = sorter.step(parts)
            # Rows whose cell differs from the one cached at the same
            # row, plus every row beyond the cached length.
            k = min(cached.shape[0], parts.n)
            changed = int(np.count_nonzero(parts.cell[:k] != cached[:k]))
            assert res.moved == changed + (parts.n - k)
            assert 0 <= res.moved <= res.n
            assert res.moved_fraction == res.moved / res.n
            assert np.array_equal(
                res.counts, np.bincount(parts.cell, minlength=N_CELLS)
            )
            assert res.offsets[-1] == res.n
            _assert_canonical(res.order, parts.cell)
