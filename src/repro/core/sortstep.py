"""The randomized sort by cell key (sub-step 3, part 2).

"The sort is a crucial step in the implementation of this particle
simulation algorithm. ... The primary purpose of the sort is to put all
particles occupying a given cell into neighbouring addresses thus making
it easy both to identify collision candidates and to sample macroscopic
quantities from cells."  The subtler consequence: with one particle per
virtual processor the sort achieves "a perfect dynamic load balance for
the collision routine" -- processing power is redistributed to match the
cell populations every step.

**The fused counting-sort kernel.**  The cell index is a small dense
integer (98x64 = 6272 cells), so a comparison sort is overkill: the
natural O(N) algorithm is a counting sort -- per-cell histogram, prefix
sum to bucket offsets, stable placement.  NumPy exposes exactly that
machinery: ``np.argsort(kind="stable")`` on a <= 16-bit integer key runs
the library's radix/counting path (histogram + prefix scan per byte), an
order of magnitude faster than the comparison sort it falls back to for
wider dtypes.  :func:`sort_by_cell` therefore narrows the key to 16 bits
whenever the cell range allows and keeps the wide comparison sort only
as a fallback for huge grids.

The paper's intra-cell randomization ("a random number less than the
scale factor is added" to the scaled cell index) is preserved, but
implemented as bucket shuffling: apply a uniform random permutation of
*all* particles first, then counting-sort the permuted cell keys stably.
Each cell's bucket receives its members in uniformly random relative
order -- exactly the distribution the scaled-key trick approximates --
while the key stays narrow and the histogram (``counts``) falls out of
the same pass, eliminating the separate ``cell_populations`` bincount
the step loop used to pay.

The CM engine supplies explicit ``mix_bits`` instead of an rng; that
path keeps the paper's literal ``cell * scale + bits`` key (narrowed
when it fits) so the emulated sort order is bit-identical to the seed
implementation.

**The indexed kernel** (:class:`IncrementalSorter`, the default) builds
the same cell-contiguous order every step as a permutation and lets the
collision gather through it; it applies that permutation to the
columns -- the purpose quoted above -- only on every
:data:`RESORT_PERIOD`-th step, which is often enough that partners
stay at neighbouring addresses in between.  It does so for one block or
for the R blocks a population declares (``particles.starts``, the
ensemble's replicas), keyed by :func:`blocked_cell_key`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.constants import DEFAULT_SORT_SCALE
from repro.core.cells import randomized_sort_keys
from repro.core.particles import ParticleArrays, pooled, pooled_arange
from repro.errors import ConfigurationError

#: Largest key value that still takes NumPy's radix/counting sort path
#: (stable argsort of uint16); beyond this the kernel falls back to the
#: wide comparison sort.  Keys are validated non-negative upstream.
NARROW_KEY_LIMIT = int(np.iinfo(np.uint16).max)

#: Steps between the indexed kernel's physical re-sorts (the step whose
#: completed-step count is a multiple re-sorts).  A constant, not a
#: setting: the optimum is flat (docs/algorithm.md, "Temporal coherence").
RESORT_PERIOD = 32


@dataclass(frozen=True)
class SortStepResult:
    """Bookkeeping from one sort step.

    Attributes
    ----------
    order:
        Applied permutation (pre-sort index of each sorted slot).
    counts:
        Per-cell populations (length ``n_cells``) when the caller
        passed ``n_cells`` -- the histogram half of the fused kernel,
        reusable downstream (selection probabilities, diagnostics)
        without a second bincount.  ``None`` otherwise.
    """

    order: np.ndarray
    counts: Optional[np.ndarray] = None


def counting_sort_order(
    cell: np.ndarray,
    rng: Optional[np.random.Generator] = None,
    shuffle: bool = True,
    scratch=None,
    max_key: Optional[int] = None,
) -> np.ndarray:
    """Stable O(N) sort permutation of small-integer cell keys.

    With ``shuffle=True`` (and an rng) the returned order additionally
    randomizes intra-cell positions uniformly: a global permutation
    ``p`` is drawn, the permuted keys are counting-sorted stably, and
    the two permutations are composed, so equal keys land in the order
    ``p`` visits them.  ``shuffle=False`` is the plain stable sort (the
    ablation / ``scale=1`` configuration).

    ``scratch`` (a :class:`repro.core.particles.ScratchBuffers`) makes
    the kernel allocation-free apart from the argsort's own output;
    ``max_key`` skips the O(N) max scan when the caller knows the key
    range (e.g. ``domain.n_cells - 1``).
    """
    n = cell.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.intp)
    if max_key is None:
        # Only scanned when the caller did not vouch for the key range
        # (the step loop passes ``max_key`` and skips both scans).  A
        # negative key would corrupt silently via the unsafe uint16
        # narrowing, so it must be rejected here.
        if int(cell.min()) < 0:
            raise ConfigurationError("cell indices must be non-negative")
        max_key = int(cell.max())
    narrow = max_key <= NARROW_KEY_LIMIT

    if not (shuffle and rng is not None):
        if narrow:
            if scratch is not None:
                key16 = scratch.array("sort_key16", n, dtype=np.uint16)
            else:
                key16 = np.empty(n, dtype=np.uint16)
            np.copyto(key16, cell, casting="unsafe")
            return np.argsort(key16, kind="stable")
        return np.argsort(cell, kind="stable")

    if scratch is not None:
        p = scratch.permutation(n, rng)
        key16 = scratch.array("sort_key16", n, dtype=np.uint16)
        order = scratch.array("sort_order", n, dtype=np.intp)
    else:
        p = rng.permutation(n)
        key16 = np.empty(n, dtype=np.uint16)
        order = np.empty(n, dtype=np.intp)
    if narrow:
        np.copyto(key16, cell, casting="unsafe")
        # Gather the pre-shuffled keys; "clip" because p is a
        # permutation (always in range) and "raise" would buffer.
        shuffled = scratch.array("sort_shuf16", n, dtype=np.uint16) \
            if scratch is not None else np.empty(n, dtype=np.uint16)
        np.take(key16, p, out=shuffled, mode="clip")
        s = np.argsort(shuffled, kind="stable")
    else:
        s = np.argsort(cell[p], kind="stable")
    np.take(p, s, out=order, mode="clip")
    return order


def blocked_cell_key(
    cell: np.ndarray,
    starts: np.ndarray,
    n_cells: int,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Composite replica-blocked sort key: ``cell + block * n_cells``.

    :class:`IncrementalSorter` sorts R declared blocks as one population
    by lifting the cell index into a key whose high digit is the *block
    position* (not the replica id -- position keeps the key dense in
    ``[0, R * n_cells)`` so the narrow radix path applies whenever
    ``R * n_cells <= NARROW_KEY_LIMIT + 1``).  A stable sort of this key
    can never move a particle across its replica block, and within a
    block it is exactly the solo stable cell sort -- the property the
    bitwise replica-equality contract rests on.
    """
    n = cell.shape[0]
    if int(starts[-1]) != n:
        raise ConfigurationError("starts[-1] must equal the population")
    key = out if out is not None else np.empty(n, dtype=np.int64)
    for r in range(starts.shape[0] - 1):
        b0, b1 = int(starts[r]), int(starts[r + 1])
        np.add(cell[b0:b1], r * n_cells, out=key[b0:b1])
    return key


def sort_by_cell(
    particles: ParticleArrays,
    rng: Optional[np.random.Generator] = None,
    scale: int = DEFAULT_SORT_SCALE,
    mix_bits: Optional[np.ndarray] = None,
    n_cells: Optional[int] = None,
) -> SortStepResult:
    """Sort the population by cell with randomized intra-cell order.

    After this call, particles of one cell occupy a contiguous run of
    addresses in random intra-cell order, ready for even/odd pairing.

    ``scale`` retains its seed-implementation meaning: ``scale = 1``
    disables the intra-cell mixing (stable no-op on equal cells, the
    ablation configuration); ``scale > 1`` enables it.  When
    ``mix_bits`` is given the literal scaled-key sort of the seed
    implementation runs (the CM engine's "quick & dirty" bits path,
    bit-identical ordering); otherwise mixing uses the fused
    shuffle-then-counting-sort kernel, which is uniform rather than
    approximately uniform and keeps the sort key 16 bits wide.

    ``n_cells`` additionally requests the per-cell histogram in the
    result (derived from the sorted population by binary search).
    """
    cell = particles.cell
    scratch = particles.scratch

    if mix_bits is not None:
        # Seed-faithful scaled-key path (CM mix bits).  Narrow the key
        # dtype when the scaled range fits: stability makes the
        # permutation bit-identical to the wide sort.
        keys = randomized_sort_keys(cell, rng=rng, scale=scale,
                                    mix_bits=mix_bits)
        if keys.size and keys.max() <= NARROW_KEY_LIMIT:
            keys = keys.astype(np.uint16)
        order = np.argsort(keys, kind="stable")
    else:
        if scale < 1 or (scale > 1 and rng is None):
            # Delegate the argument validation (raises) to the shared
            # key helper so the error contract matches the seed.
            randomized_sort_keys(cell, rng=rng, scale=scale)
        max_key = (n_cells - 1) if n_cells is not None else None
        order = counting_sort_order(
            cell, rng=rng, shuffle=(scale > 1), scratch=scratch,
            max_key=max_key,
        )

    particles.reorder_inplace(order)

    counts = None
    if n_cells is not None:
        # The population is cell-sorted now, so the histogram is a
        # binary search over the n_cells bucket edges -- O(C log N)
        # instead of the O(N) bincount pass.
        edges = np.searchsorted(particles.cell, np.arange(n_cells + 1))
        counts = np.diff(edges)
    return SortStepResult(order=order, counts=counts)


# ---------------------------------------------------------------------------
# The indexed ("incremental") kernel
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IncrementalSortResult:
    """Bookkeeping from one sorter step (the ``collision_stage`` seam).

    Attributes
    ----------
    order:
        Canonical permutation view (length ``n``): ``order[slot]`` is
        the particle *row* occupying sorted slot ``slot``.  Slots are
        sorted by ``(block, cell, row)`` -- cell-contiguous, never
        crossing a block, deterministic -- and downstream kernels
        gather through ``order``.  ``None`` on the steps the sorter
        made that order physical (every :data:`RESORT_PERIOD`-th):
        slots are rows.
    counts / offsets:
        Per-cell populations over the blocks' cells back to back
        (length ``n_blocks * n_cells``; cell ``c`` of block ``b`` is
        entry ``b * n_cells + c``) and their exclusive prefix sum (one
        longer): composite cell ``k`` owns slots
        ``offsets[k]:offsets[k + 1]``.
    moved:
        Rows whose cell differs from the one the previous ``update``
        saw at the same row, as counted by the last ``detect``.
    moved_fraction:
        ``moved / n``.
    """

    order: Optional[np.ndarray]
    counts: np.ndarray
    offsets: np.ndarray
    moved: int
    moved_fraction: float
    n: int


class IncrementalSorter:
    """Build a cell-contiguous particle *order*; make it physical rarely.

    The indexed kernel (``sort_kernel="incremental"``): instead of
    physically shuffling all nine particle columns into cell order
    every step, ``update`` rebuilds one :data:`order` permutation,
    canonically sorted by ``(cell, row)``, with the narrow-key stable
    argsort, and downstream kernels gather through it.  A population
    that declares blocks (``particles.starts``: the ensemble's R
    replicas) is sorted by the composite :func:`blocked_cell_key`
    instead, ``(block, cell, row)``: a stable sort never moves a row
    across a block and orders each block's slots exactly as a sort of
    that block alone would.  The order is rebuilt from scratch **every
    step**: at the paper's time step about half the population changes
    cell per step, so there is no order worth keeping
    (docs/algorithm.md, "Temporal coherence").

    What is worth keeping is a *storage* order.  On the steps whose
    completed-step count is a multiple of :data:`RESORT_PERIOD` the
    order just built is applied to the columns
    (``particles.reorder_inplace``, the counting kernel's per-step
    call) and ``order=None`` is handed back; for the steps in between
    a row's same-cell partners are still stored a few cells away, so
    the collision's gathers and scatters walk a cache-sized window
    instead of the whole population.

    ``detect`` reports how much of the population did change cell -- an
    observable for telemetry and the benchmark, not a switch: it
    decides nothing.

    The order is a pure function of the cell column and the declared
    blocks, and the sorter consumes **no random numbers**.  Within a
    cell, slot order is row order, so a physical re-sort does change
    the realization -- which
    is why its schedule is a function of the step count alone, the one
    piece of schedule state every driver already persists
    (``step_count`` in every snapshot): a resumed, sharded or served
    run re-sorts on exactly the steps the uninterrupted serial run
    does.  Nothing of the sorter itself is persisted.  Pairing
    randomness lives downstream in
    :func:`repro.core.pairing.reflection_pairs`, which randomizes *pair
    assignment within each cell* per step instead of randomizing
    storage order -- the same statistical contract as the counting
    kernel's bucket shuffle, under any slot order.

    This is a host-performance mode outside the CM-2 cost model; the
    paper-faithful rank-sort analogue remains ``sort_kernel="counting"``.
    """

    def __init__(self, n_cells: int) -> None:
        if n_cells < 1:
            raise ConfigurationError("n_cells must be positive")
        self.n_cells = int(n_cells)
        #: Cumulative order-rebuild count (one per ``update``).
        self.rebuilds = 0
        # Capacity-grown per-row state.  These must persist across
        # steps (the auditor validates ``_order``/``_prev_cell`` between
        # steps), so they live here rather than in the population's
        # ping-pong scratch pool (whose buffers are step-transient).
        self._prev_cell = np.empty(0, dtype=np.int64)
        self._mover = np.empty(0, dtype=bool)
        self._key16 = np.empty(0, dtype=np.uint16)
        #: The last ``update``'s argsort result, kept as returned (no
        #: copy into a sorter-owned buffer) -- or, after a physical
        #: re-sort, the pooled read-only identity; length ``_order_n``.
        self._order = np.empty(0, dtype=np.intp)
        #: Population size the cached order/cells describe (0 = none).
        self._order_n = 0
        self._moved = 0
        self._moved_fraction = 1.0

    def detect(self, particles: ParticleArrays) -> float:
        """Count the movers; returns the moved fraction.

        Call after the cell-indexing pass (``assign_cells``).  A mover
        is a row whose cell differs from the value the previous
        ``update`` cached at the same row; rows beyond the cached
        length count as moved, so a fresh sorter reports 1.0.
        """
        n = particles.n
        self._grow(n)
        k = min(n, self._order_n)
        mover = self._mover[:k]
        np.not_equal(particles.cell[:k], self._prev_cell[:k], out=mover)
        self._moved = int(np.count_nonzero(mover)) + (n - k)
        self._moved_fraction = (self._moved / n) if n else 0.0
        return self._moved_fraction

    def update(
        self, particles: ParticleArrays, step: Optional[int] = None
    ) -> IncrementalSortResult:
        """Rebuild the canonical order; refresh counts/offsets.

        ``step`` is the driver's completed-step count: on a multiple of
        :data:`RESORT_PERIOD` the order becomes the physical row order.
        Without it (a caller with no step loop) the rows never move.
        The key is ``cell`` for one block, :func:`blocked_cell_key`
        when the population declares ``starts``.
        """
        n = particles.n
        cell = particles.cell
        self._grow(n)
        if particles.starts is None:
            key, n_keys = cell, self.n_cells
        else:
            n_keys = particles.n_blocks * self.n_cells
            key = blocked_cell_key(
                cell, particles.starts, self.n_cells,
                out=pooled(particles.scratch, "blocked_key", n, np.int64),
            )
        if n_keys - 1 <= NARROW_KEY_LIMIT:
            key16 = self._key16[:n]
            np.copyto(key16, key, casting="unsafe")
            order = np.argsort(key16, kind="stable")
        else:
            order = np.argsort(key, kind="stable")
        # A histogram ignores row order: the key as built serves a
        # re-sort step too.
        counts = np.bincount(key, minlength=n_keys)
        physical = step is not None and step % RESORT_PERIOD == 0
        if physical:
            # Slots become rows; the cached order and cell baseline
            # follow the rows, so ``detect`` and the auditor stay true.
            particles.reorder_inplace(order)
            cell = particles.cell
            order = pooled_arange(particles.scratch, n)
        self._order = order
        self.rebuilds += 1
        self._prev_cell[:n] = cell
        self._order_n = n
        offsets = np.zeros(n_keys + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return IncrementalSortResult(
            order=None if physical else order,
            counts=counts,
            offsets=offsets,
            moved=self._moved,
            moved_fraction=self._moved_fraction,
            n=n,
        )

    def step(self, particles: ParticleArrays) -> IncrementalSortResult:
        """Convenience: ``detect`` + ``update`` in one call."""
        self.detect(particles)
        return self.update(particles)

    def _grow(self, n: int) -> None:
        cap = self._prev_cell.shape[0]
        if cap >= n:
            return
        new_cap = max(n, 2 * cap, 1024)
        for name in ("_prev_cell", "_mover", "_key16"):
            old = getattr(self, name)
            buf = np.empty(new_cap, dtype=old.dtype)
            buf[: old.shape[0]] = old
            setattr(self, name, buf)
