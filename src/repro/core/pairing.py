"""Even/odd collision-candidate pairing (sub-step 3, part 3).

"Collision candidates are identified on an 'even/odd' basis, i.e. all
even numbered partners within a cell are eligible for collision with
their odd numbered neighbour.  This, in conjunction with the use of
virtual processors, proves to be a very efficient arrangement because
collision candidates are now guaranteed to be in the same physical
processor."

After the randomized sort, the particle at sorted address ``2i`` is
paired with address ``2i+1``; the pair is a *candidate* only when both
occupy the same cell.  Pairs straddling a cell boundary (at most one per
cell per step) are skipped -- the re-randomized sort re-rolls the
pairing next step, so no particle is systematically excluded.  Candidacy
still has to pass the probabilistic selection rule before an actual
collision happens.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.particles import pooled, pooled_arange
from repro.errors import ConfigurationError
from repro.rng import block_streams


@dataclass(frozen=True)
class CandidatePairs:
    """Even/odd pairing of a cell-sorted population.

    Attributes
    ----------
    first, second:
        Sorted addresses ``2i`` and ``2i+1`` of each pair (the trailing
        unpaired particle of an odd-sized population is dropped).
    same_cell:
        Mask of pairs whose members share a cell: the collision
        *candidates*.
    adjacent:
        True when pair ``i`` is guaranteed to occupy rows ``(2i,
        2i+1)`` (always the case for :func:`even_odd_pairs`).  Lets the
        selection and collision kernels replace scattered gathers with
        strided views over the pair blocks.
    """

    first: np.ndarray
    second: np.ndarray
    same_cell: np.ndarray
    adjacent: bool = False

    @property
    def n_pairs(self) -> int:
        return self.first.shape[0]

    @property
    def n_candidates(self) -> int:
        return int(np.count_nonzero(self.same_cell))

    def candidate_indices(self) -> tuple:
        """(first, second) addresses of the same-cell candidate pairs."""
        return self.first[self.same_cell], self.second[self.same_cell]


def even_odd_pairs(cell_sorted: np.ndarray, scratch=None) -> CandidatePairs:
    """Pair sorted addresses 2i with 2i+1 and test cell agreement.

    ``cell_sorted`` is the cell-index column *after* the sort.  An
    optional :class:`repro.core.particles.ScratchBuffers` makes the
    call allocation-free: the address arrays become strided views of a
    cached ``arange`` and the candidacy mask reuses a pooled buffer.
    """
    cell_sorted = np.asarray(cell_sorted)
    n_pairs = cell_sorted.shape[0] // 2
    even = cell_sorted[0 : 2 * n_pairs : 2]
    odd = cell_sorted[1 : 2 * n_pairs : 2]
    if scratch is not None:
        base = scratch.arange(2 * n_pairs)
        first = base[0::2]
        second = base[1::2]
        same = scratch.array("pairs_same", n_pairs, dtype=bool)
        np.equal(even, odd, out=same)
    else:
        first = np.arange(n_pairs, dtype=np.int64) * 2
        second = first + 1
        same = even == odd
    return CandidatePairs(
        first=first, second=second, same_cell=same, adjacent=True
    )


@dataclass(frozen=True)
class ReflectionPairs:
    """Per-cell reflection pairing of an *indexed* canonical order.

    Produced by :func:`reflection_pairs` for the incremental sort
    kernel: every pair is same-cell by construction (no boundary
    straddle, no ``same_cell`` mask) and the members are particle *row*
    indices gathered through the canonical order, not sorted
    addresses.

    Attributes
    ----------
    first, second:
        Particle rows of each pair's two members.
    cell:
        The (shared) cell index of each pair -- the selection kernel's
        density lookup key, precomputed here because the pairing
        already expanded it.
    """

    first: np.ndarray
    second: np.ndarray
    cell: np.ndarray
    #: Members are scattered rows, never ``(2i, 2i+1)`` blocks.
    adjacent = False

    @property
    def n_pairs(self) -> int:
        return self.first.shape[0]


def reflection_slots(m: int, s: int) -> list:
    """Slot pairs of one cell of ``m`` members under reflection ``s``.

    The scalar reference for :func:`reflection_pairs` (exhaustively
    testable): pair the cell's slots ``0..m-1`` using the involution
    ``a + b = s (mod m)``.  For odd ``s`` the map ``b = (s - a) mod m``
    is a perfect matching of all slots when ``m`` is even (and leaves
    exactly one fixed point unpaired when ``m`` is odd); for even ``s``
    the two fixed points of the involution are paired *with each
    other* (even ``m``) so no slot is wasted.  Every ``s`` yields
    ``m // 2`` disjoint pairs, each slot's partner is uniform over the
    cell across ``s`` draws, and a slot is never paired with itself.
    """
    q, odd = s >> 1, s & 1
    out = []
    for kk in range(m // 2):
        if odd:
            a, b = (q - kk) % m, (q + 1 + kk) % m
        else:
            d = kk + 1
            a, b = (q - d) % m, (q + d) % m
            if 2 * d == m:
                # Degenerate reflection rank: a == b.  Pair the two
                # fixed points of the involution (q and q + m/2)
                # together instead of dropping them.
                a = q % m
        out.append((a, b))
    return out


def block_cell_edges(n_blocks: int, n_cells_total: int) -> np.ndarray:
    """Cell boundaries of ``n_blocks`` equal blocks laid back to back."""
    if n_cells_total % n_blocks:
        raise ConfigurationError(
            f"{n_cells_total} cells do not split into "
            f"{n_blocks} equal blocks"
        )
    return np.arange(n_blocks + 1) * (n_cells_total // n_blocks)


def reflection_offsets(rng, counts: np.ndarray, edges=None) -> np.ndarray:
    """One reflection offset per cell, uniform over its occupancy.

    The pairing's whole RNG contract: exactly one ``integers`` call per
    block over that block's cells.  A bound of 1 (a cell of fewer than
    two) returns 0 *without consuming the stream* -- pinned in
    ``tests/unit/test_rng.py`` -- so a stream's position afterwards
    depends only on its block's pairable cells, never on how the
    population came to be laid out nor on whether the caller dropped
    the other cells.  ``rng`` is one generator per block
    (:func:`repro.rng.block_streams`); ``counts`` spans the blocks'
    cells back to back: equally many each, or split at ``edges``.
    """
    streams = block_streams(rng)
    if edges is None:
        edges = block_cell_edges(len(streams), counts.shape[0])
    bound = np.maximum(counts, 1)
    s = np.empty_like(bound)
    for stream, c0, c1 in zip(streams, edges[:-1], edges[1:]):
        s[c0:c1] = stream.integers(0, bound[c0:c1])
    return s


def reflection_pairs(
    order: np.ndarray,
    counts: np.ndarray,
    offsets: np.ndarray,
    s: np.ndarray,
    scratch=None,
    subset: np.ndarray = None,
    starts: np.ndarray = None,
) -> ReflectionPairs:
    """Randomized same-cell pairing over a canonical indexed order.

    The incremental kernel's replacement for sort-then-even/odd: the
    canonical order is deterministic (no intra-cell shuffle), so the
    per-step randomness moves into the *pairing* -- each cell has one
    reflection offset ``s[c]`` drawn uniform over its occupancy
    (:func:`reflection_offsets`: the selection kernel draws them first,
    because it selects before it pairs) and pairs slot ``a`` with slot
    ``b`` where ``a + b = s (mod m)`` (:func:`reflection_slots`).  One draw
    per cell per step replaces a full random permutation of the
    population, and every formed pair is same-cell, so the pairing
    efficiency is exactly ``sum(m_c // 2) / (n // 2)`` -- no candidates
    lost to cell-boundary straddle.

    Pairs are numbered cell by cell (cell ``c`` owns ``counts[c] // 2``
    consecutive ids, in :func:`reflection_slots` order).  ``subset``
    (an array of pair ids) materialises only those pairs -- the rows of
    the full result at ``subset`` -- which is how the selection rule
    pairs only what collides when acceptance does not depend on the
    partners (:func:`repro.core.selection.fused_select_collide`).
    ``starts`` is each cell's first pair id, if the caller holds it.
    The per-cell inputs are only indexed by a pair's cell, so any
    subsequence of the cells that keeps every pairable one is as valid
    (the result's ``cell`` then indexes that subsequence).

    Returns particle-row pairs gathered through ``order``; ``scratch``
    backs the returned arrays and every per-pair intermediate.

    ``order=None`` declares that slot addresses *are* particle rows (a
    physically cell-sorted population: the sorter's re-sort step),
    skipping the two gather passes.
    """
    n_cells = counts.shape[0]
    if s.shape[0] != n_cells:
        raise ValueError(
            f"reflection offsets must be per-cell: got {s.shape[0]} "
            f"for {n_cells} cells"
        )
    pair_counts = counts >> 1
    n_out = int(pair_counts.sum()) if subset is None else subset.shape[0]
    slot_a, slot_b, m, sp, work, pair_cell = (
        pooled(scratch, f"rp_{name}", n_out, dtype=np.int64)
        for name in ("slot_a", "slot_b", "m", "s", "work", "cell")
    )
    if n_out == 0:
        return ReflectionPairs(first=slot_a, second=slot_b, cell=pair_cell)
    # The one P-sized expansion (np.repeat has no out=; transient): the
    # cell of every pair id.  All other passes are over the requested
    # pairs only, in pooled buffers.
    all_cells = np.repeat(pooled_arange(scratch, n_cells), pair_counts)
    if subset is None:
        pair_cell[:] = all_cells
        ids = pooled_arange(scratch, n_out)
    else:
        np.take(all_cells, subset, out=pair_cell, mode="clip")
        ids = subset
    np.take(counts, pair_cell, out=m, mode="clip")
    np.take(s, pair_cell, out=sp, mode="clip")
    if starts is None:
        starts = np.cumsum(pair_counts) - pair_counts
    kk = work  # the pair's rank inside its cell
    np.take(starts, pair_cell, out=kk, mode="clip")
    np.subtract(ids, kk, out=kk)
    # Slots q - kk - 1 + odd and q + 1 + kk (q = s >> 1, odd = s & 1),
    # the second pre-shifted by -m so that both sit in (-m, m).
    np.subtract(sp, 1, out=slot_a)
    slot_a >>= 1  # q - 1 + odd
    slot_a -= kk
    np.add(sp, 2, out=slot_b)
    slot_b >>= 1  # q + 1
    slot_b += kk
    slot_b -= m
    # Range reduction without the division behind ``%``: one conditional
    # + m folds (-m, m) into [0, m).  ``x >> 63`` is all-ones exactly
    # when x < 0, making ``x += (x >> 63) & m`` a branch-free
    # conditional add.
    fold = work
    for slot in (slot_a, slot_b):
        np.right_shift(slot, 63, out=fold)
        fold &= m
        slot += fold
    # Degenerate reflection rank (even s, even m, the cell's last pair)
    # is the one case where both formulas land on the same slot: pair
    # the two fixed points of the involution (q and q + m/2) instead.
    hit = np.flatnonzero(slot_a == slot_b)
    slot_a[hit] = sp[hit] >> 1
    base = work
    np.take(offsets, pair_cell, out=base, mode="clip")
    slot_a += base
    slot_b += base
    if order is None:
        # Physically sorted population: slots are rows.
        return ReflectionPairs(first=slot_a, second=slot_b, cell=pair_cell)
    first = pooled(scratch, "rp_first", n_out, dtype=np.intp)
    second = pooled(scratch, "rp_second", n_out, dtype=np.intp)
    np.take(order, slot_a, out=first, mode="clip")
    np.take(order, slot_b, out=second, mode="clip")
    return ReflectionPairs(first=first, second=second, cell=pair_cell)
