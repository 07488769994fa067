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
integer (98x64 = 6272 cells).  The plain stable sort (``scale = 1``,
the ablation) narrows it to 16 bits whenever the range allows, so
``np.argsort(kind="stable")`` runs the library's radix/counting path
(histogram + prefix scan per byte) instead of a comparison sort.

The paper's intra-cell randomization is literal: "the cell index of a
particle is scaled by some constant factor and, before sorting, a
random number less than the scale factor is added to it".  The kernel
does exactly that with the widest factor a machine word allows: one
``uint64`` key per particle holds the cell in its top bits, one fresh
32-bit stream word below it (its top bits only, when the grid and the
population leave fewer than 32), and the row as the last digit.  Every
key is distinct, so one in-place sort of the keys is the whole sort
and the order is the keys' low bits.  Equal cells land in the order of
their words: uniform up to 32-bit ties (about ``m**2 / 2**33`` per cell
of ``m`` particles), and tied words keep row order.  The histogram
(``counts``) is read off the sorted population by binary search, so
the step loop pays no separate ``cell_populations`` bincount.

The CM-2 engine's sort kernel supplies ``mix_bits`` (the low-order
bits of its position words) instead of an rng; that path sorts the
paper's literal ``cell * scale + bits`` key, stable and narrowed to
16 bits when it fits, and the kernel charges the machine's radix sort
for it (:class:`repro.core.engine_cm.FixedPointKernels`).

**The indexed kernel** (:class:`IncrementalSorter`, the default) builds
the same cell-contiguous order every step as a permutation and lets the
collision gather through it; it applies that permutation to the
columns -- the purpose quoted above -- only on every
:data:`RESORT_PERIOD`-th step, which is often enough that partners
stay at neighbouring addresses in between.  It does so for one block or
for the R blocks a population declares (``particles.starts``, the
ensemble's replicas), keyed by :func:`blocked_cell_key`.  The order is
the counting kernel's packing without the random word: one key per row,
``(block * n_cells + cell) << row_bits | row``, in ``uint32`` when it
fits (the paper's 98x64 cells and 512 k particles need 13 + 19 = 32
bits) and ``uint64`` otherwise, sorted in place; the row digit masked
back out is the order.
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
#: (stable argsort of uint16) in the plain and the mix-bits sorts;
#: beyond this they fall back to the wide comparison sort.  Keys are
#: validated non-negative upstream.
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
    """Sort permutation of small-integer cell keys, optionally randomized.

    With ``shuffle=True`` (and an rng) the order is that of one packed
    ``uint64`` key per particle, sorted in place: the cell in the top
    bits, one fresh ``uint32`` stream word below it (its top
    ``64 - cell_bits - row_bits`` bits when fewer than 32 fit), and the
    row as the last digit, which makes every key distinct and the
    order the key's low bits.  Equal cells therefore land in the order
    of their words -- uniform up to 32-bit ties, about ``m**2 / 2**33``
    per cell of ``m`` particles.  The stream advances by exactly one
    ``uint32`` word per particle.  Fewer than 16 random bits left for
    the word is a :class:`ConfigurationError`.

    ``shuffle=False`` is the plain stable sort (the ablation /
    ``scale=1`` configuration), through the uint16 counting path when
    the keys fit.

    ``scratch`` (a :class:`repro.core.particles.ScratchBuffers`) holds
    the key, which becomes the returned order in place; ``max_key``
    skips the O(N) min/max scan when the caller knows the key range
    (e.g. ``domain.n_cells - 1``).
    """
    n = cell.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.intp)
    if max_key is None:
        # Only scanned when the caller did not vouch for the key range
        # (the step loop passes ``max_key`` and skips both scans).  A
        # negative key would corrupt silently via the unsafe narrowing
        # and packing, so it must be rejected here.
        if int(cell.min()) < 0:
            raise ConfigurationError("cell indices must be non-negative")
        max_key = cell.max()
    max_key = int(max_key)

    if not (shuffle and rng is not None):
        if max_key <= NARROW_KEY_LIMIT:
            return np.argsort(cell.astype(np.uint16), kind="stable")
        return np.argsort(cell, kind="stable")

    row_bits = (n - 1).bit_length()
    word_bits = min(32, 64 - max_key.bit_length() - row_bits)
    if word_bits < 16:
        raise ConfigurationError(
            f"{n} rows of cells up to {max_key} leave {word_bits} random "
            "bits in the 64-bit sort key (at least 16 are needed)"
        )
    words = rng.integers(0, 1 << 32, size=n, dtype=np.uint32)
    if word_bits < 32:
        words >>= 32 - word_bits
    key = pooled(scratch, "sort_order", n, np.intp).view(np.uint64)
    np.left_shift(cell, word_bits, out=key, dtype=np.uint64, casting="unsafe")
    key |= words
    return _sort_packed(
        key, row_bits, pooled_arange(scratch, n), key, key
    ).view(np.intp)


def _sort_packed(
    high: np.ndarray,
    row_bits: int,
    rows: np.ndarray,
    key: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """Order rows by ``high`` through one packed key, sorted in place.

    ``key`` (``uint32`` or ``uint64``, one entry per row) receives
    ``high << row_bits | row`` for ``rows = arange(n)``.  Every key is
    distinct, so one in-place ``ndarray.sort`` is the stable sort by
    ``high`` (ties in row order), and the row digit masked back out into
    ``out`` is the order.  ``high`` may be ``key`` itself and ``out`` may
    be ``key`` (the counting kernel's in-place order) or an ``intp``
    buffer.  The caller sees to it that the packed key fits its dtype.
    """
    np.left_shift(high, row_bits, out=key, dtype=key.dtype, casting="unsafe")
    if rows.dtype.itemsize == key.dtype.itemsize:
        rows = rows.view(key.dtype)  # same width: or without a cast
    np.bitwise_or(key, rows, out=key, dtype=key.dtype, casting="unsafe")
    key.sort()
    np.bitwise_and(key, (1 << row_bits) - 1, out=out, casting="unsafe")
    return out


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
    ``[0, R * n_cells)``, so it packs with the row into as few bits as
    the composite cells allow).  A stable sort of this key
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
    bit-identical ordering); otherwise mixing uses
    :func:`counting_sort_order`'s packed key, whose random digit is a
    32-bit stream word per particle rather than a number below
    ``scale``.

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
    canonically sorted by ``(cell, row)``, and downstream kernels gather
    through it.  The order is one in-place sort of a packed key per row,
    ``cell << row_bits | row`` (``uint32`` when it fits, ``uint64``
    otherwise): every key is distinct, so the sort is the stable sort
    by cell, and the row digit masked back out into a sorter-owned
    buffer is the order.  A population
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
    kernel's packed-key sort, under any slot order.

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
        # scratch pool (whose buffers are step-transient).
        self._prev_cell = np.empty(0, dtype=np.int64)
        self._mover = np.empty(0, dtype=bool)
        #: The packed sort key (viewed as ``uint32`` when it fits) and
        #: the rows it sorts into.
        self._key = np.empty(0, dtype=np.uint64)
        self._rows = np.empty(0, dtype=np.intp)
        #: The last ``update``'s order: a view of ``_rows`` -- or, after
        #: a physical re-sort, the pooled read-only identity; length
        #: ``_order_n``.
        self._order = np.empty(0, dtype=np.intp)
        #: Population size the cached order/cells describe (0 = none).
        self._order_n = 0
        self._moved = 0
        self._moved_fraction = 1.0

    def detect(self, particles: ParticleArrays) -> float:
        """Count the movers; returns the moved fraction.

        Call on a current cell column (the boundary phase leaves it
        so).  A mover
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
            ckey, n_keys = cell, self.n_cells
        else:
            n_keys = particles.n_blocks * self.n_cells
            ckey = blocked_cell_key(
                cell, particles.starts, self.n_cells,
                out=pooled(particles.scratch, "blocked_key", n, np.int64),
            )
        row_bits = (n - 1).bit_length()
        key = self._key[:n]
        if (n_keys - 1).bit_length() + row_bits <= 32:
            key = self._key.view(np.uint32)[:n]
        order = _sort_packed(
            ckey, row_bits, pooled_arange(particles.scratch, n), key,
            self._rows[:n],
        )
        # A histogram ignores row order: the key as built serves a
        # re-sort step too.
        counts = np.bincount(ckey, minlength=n_keys)
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

    def _grow(self, n: int) -> None:
        cap = self._prev_cell.shape[0]
        if cap >= n:
            return
        new_cap = max(n, 2 * cap, 1024)
        for name in ("_prev_cell", "_mover", "_key", "_rows"):
            old = getattr(self, name)
            buf = np.empty(new_cap, dtype=old.dtype)
            buf[: old.shape[0]] = old
            setattr(self, name, buf)
