"""The collision algorithm (sub-step 4; eqs. (9)-(18) of the paper).

The outcome of a collision of two perfect diatomic molecules is "for
each particle, a new velocity and internal energy subject to the
constraints of conservation of linear momentum and energy".  Rotational
energy is carried by a rotational velocity vector r with
``E_rot = 1/2 m r.r`` (eq. (9)); a diatomic r has two components.

**The five values.**  "One begins by computing the relative and mean
pre-collision velocity components for each collision partner"
(eqs. (12)-(15)).  With m1 = m2 = m define, per component,

    mean:           W  = (c1 + c2) / 2       (3 translational)
                    S  = (r1 + r2) / 2       (2 rotational)
    half-relative:  h  = (c1 - c2) / 2       (3 translational)
                    hq = (r1 - r2) / 2       (2 rotational)

Momentum conservation fixes W' = W (eq. (14)-(15)); the paper's
assumption (eqs. (16)-(17)) additionally carries the rotational mean S
through the collision unchanged.  Substituting into energy conservation
(eqs. (10)-(11)) collapses both constraints into the single equation
(18):

    |h'|^2 + |hq'|^2 = |h|^2 + |hq|^2

i.e. the *norm of the five-element half-relative vector is conserved*,
and "any post-collision values that satisfy (18) are valid".  The
implementation uses exactly the paper's choice: re-order the five
pre-collision values by the particle's permutation vector and give every
element a random, equally probable sign; then "for the first particle
the new relative velocity is added to the mean velocity and for the
second particle the relative velocity is subtracted from the mean
velocity":

    c1' = W + h'[0:3]    c2' = W - h'[0:3]
    r1' = S + h'[3:5]    r2' = S - h'[3:5]

Momentum and energy are conserved *exactly* (to rounding), and repeated
collisions equidistribute energy over all five degrees of freedom --
the stationary state satisfies classical equipartition (<c_x'^2> =
<r_j^2>), which the property tests verify.

This module is the float64 reference; the CM engine re-implements the
same arithmetic in Q8.23 fixed point where the divisions by two above
are exactly the truncation hazard the paper's stochastic rounding fixes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.particles import (
    ParticleArrays,
    pooled,
    pooled_arange,
    row_records,
)
from repro.core.permutation import apply_permutation
from repro.errors import ConfigurationError
from repro.rng import block_streams, random_signs


@dataclass(frozen=True)
class CollisionStats:
    """Bookkeeping from one collision sub-step."""

    n_collisions: int
    #: |translational energy change| summed over pairs.  A diagnostic
    #: only the oracle :func:`collide_pairs` computes (ten extra passes
    #: per call); the hot kernels leave it ``None``.
    energy_exchanged: Optional[float] = None


def collide_pairs(
    particles: ParticleArrays,
    first: np.ndarray,
    second: np.ndarray,
    rng: Optional[np.random.Generator] = None,
    internal_exchange_probability: float = 1.0,
) -> CollisionStats:
    """Collide the given (first[i], second[i]) pairs, in place.

    Parameters
    ----------
    particles:
        The population (velocities, rotational state and permutation
        vectors are updated in place).
    first, second:
        Sorted addresses of the colliding pairs (the accepted candidate
        pairs from the selection rule).
    rng:
        Source of each collision's one word (:func:`_collision_words`:
        its random signs and the two partners' permutation-refresh
        transpositions).
    internal_exchange_probability:
        The Future-Work relaxation knob (see
        :class:`repro.physics.molecules.MolecularModel`): with this
        probability a pair's internal components join the five-element
        shuffle; otherwise only the three translational half-relative
        components are re-ordered among themselves (drawn from ``rng``;
        energy and momentum are conserved either way).  1.0 (default)
        is the paper's fully mixing model.

    The row-major oracle of the hot kernels (:func:`_collide`), which
    the unit tests hold to it bitwise.  Returns per-step collision
    statistics.
    """
    a = np.asarray(first)
    b = np.asarray(second)
    if a.shape != b.shape:
        raise ConfigurationError("first/second shapes differ")
    n = a.shape[0]
    k = 3 + particles.rotational_dof
    if n == 0:
        return CollisionStats(n_collisions=0, energy_exchanged=0.0)
    blocks = _blocks(rng, (0, n))
    words = _collision_words(blocks, k)
    signs = (words[:, None] >> np.arange(k)) & 1
    signs = 2 * signs.astype(np.int8) - 1
    ja, jb = divmod(words.astype(np.int64) >> k, k)

    # Means (conserved) and half-relatives (eqs. (12)-(15)).
    wu = 0.5 * (particles.u[a] + particles.u[b])
    wv = 0.5 * (particles.v[a] + particles.v[b])
    ww = 0.5 * (particles.w[a] + particles.w[b])
    smean = 0.5 * (particles.rot[a] + particles.rot[b])

    h = np.empty((n, k))
    h[:, 0] = 0.5 * (particles.u[a] - particles.u[b])
    h[:, 1] = 0.5 * (particles.v[a] - particles.v[b])
    h[:, 2] = 0.5 * (particles.w[a] - particles.w[b])
    h[:, 3:] = 0.5 * (particles.rot[a] - particles.rot[b])

    # Re-order by the first partner's permutation vector ("which one
    # gets used is inconsequential") and apply random signs; a frozen
    # pair (internal exchange refused) re-orders its translational
    # components only.
    h_new = apply_permutation(h, particles.perm[a]) * signs
    if internal_exchange_probability < 1.0:
        ids, perms, fsigns = _draw_frozen(blocks, internal_exchange_probability)
        h_new[ids, :3] = h[ids][np.arange(ids.shape[0])[:, None], perms] * fsigns
        h_new[ids, 3:] = h[ids, 3:]

    e_trans_before = h[:, 0] ** 2 + h[:, 1] ** 2 + h[:, 2] ** 2

    # Reconstruct post-collision states (momentum: mean +- relative).
    particles.u[a] = wu + h_new[:, 0]
    particles.u[b] = wu - h_new[:, 0]
    particles.v[a] = wv + h_new[:, 1]
    particles.v[b] = wv - h_new[:, 1]
    particles.w[a] = ww + h_new[:, 2]
    particles.w[b] = ww - h_new[:, 2]
    particles.rot[a] = smean + h_new[:, 3:]
    particles.rot[b] = smean - h_new[:, 3:]

    e_trans_after = h_new[:, 0] ** 2 + h_new[:, 1] ** 2 + h_new[:, 2] ** 2

    # Refresh both partners' permutation vectors with one random
    # transposition each (the Aldous-Diaconis shuffle step).
    _transpose_rows(particles.perm, a, ja)
    _transpose_rows(particles.perm, b, jb)

    return CollisionStats(
        n_collisions=n,
        energy_exchanged=float(np.abs(e_trans_after - e_trans_before).sum()),
    )


def _blocks(rng, edges) -> tuple:
    """``(stream, first pair, end pair)`` per block of the pair arrays.

    Every draw below is made block by block, each block from its own
    stream (:func:`repro.rng.block_streams`) in the one-block order, so
    a block's outcome never depends on which others share the call.
    """
    streams = block_streams(rng)
    if len(streams) != len(edges) - 1:
        raise ConfigurationError(
            f"{len(streams)} streams for {len(edges) - 1} pair blocks"
        )
    return tuple(zip(streams, edges[:-1], edges[1:]))


def _collision_words(blocks, k: int) -> np.ndarray:
    """One uniform word in ``[0, k^2 2^k)`` per collision, block by block.

    The word is all the randomness of a collision: its low ``k`` bits
    are the signs of the ``k`` mixed half-relatives (bit ``j`` set:
    ``+``), and the high part ``w >> k = ja * k + jb`` holds the first
    and second partners' permutation-refresh transpositions.  A uniform
    word makes the signs fair and independent and ``ja``, ``jb``
    uniform and independent -- the joint law of ``k`` sign draws and
    two transposition draws, from one bounded uint16 draw (``k`` up to
    9; NumPy refuses a larger bound).
    """
    bound = k * k << k
    draws = []
    for rng, e0, e1 in blocks:
        if rng is None:
            raise ConfigurationError("collisions need an rng")
        draws.append(rng.integers(0, bound, size=e1 - e0, dtype=np.uint16))
    return draws[0] if len(draws) == 1 else np.concatenate(draws)


@functools.lru_cache(maxsize=None)
def _sign_table(k: int) -> np.ndarray:
    """``(k, 2^k)`` factors: entry ``[j, s]`` is +-0.5 as bit j of s.

    The halving of the half-relatives folded into the signs (scaling
    by a power of two is exact), looked up by a word's low ``k`` bits.
    """
    bits = (np.arange(1 << k) >> np.arange(k)[:, None]) & 1
    table = bits - 0.5
    table.flags.writeable = False
    return table


def _gather(col: np.ndarray, rows, out: np.ndarray) -> np.ndarray:
    """``col[rows]``: a view for a slice, a pooled copy for an index array."""
    if isinstance(rows, slice):
        return col[rows]
    # mode="clip": rows are in range by construction; "raise" would
    # buffer the out array.
    return np.take(col, rows, axis=0, out=out, mode="clip")


def _scatter(col: np.ndarray, rows, op, x, y, stage: np.ndarray) -> None:
    """``col[rows] = op(x, y)`` without a temporary.

    ``x``/``y`` are component-major: one contiguous row per column of a
    2-D ``col`` (written as strided columns of the target or ``stage``,
    ~3x faster than one transposed 2-D ufunc call).
    """
    out = col[rows] if isinstance(rows, slice) else stage
    if col.ndim == 1:
        op(x, y, out=out)
    else:
        for j in range(col.shape[1]):
            op(x[j], y[j], out=out[:, j])
    if out is stage:
        if col.ndim == 2:
            # One record per row: a single 1-D scatter instead of a 2-D
            # fancy assignment (~3x slower) or a flat scatter per column.
            col, stage = row_records(col), row_records(stage)
        col[rows] = stage


#: Pairs per tile of :func:`_collide`.  One tile's working blocks --
#: three ``(k, TILE)`` float64 blocks, the ``(k, TILE)`` index block and
#: the gathered rotational/permutation rows, ~1.6 MB at k = 5 -- stay
#: in a 2 MB per-core L2, so the ~60 passes of a tile stream from L2
#: instead of the LLC.  Chosen from the tile sweep in docs/algorithm.md.
TILE = 8192


def _collide(
    particles: ParticleArrays,
    m: int,
    a,
    b,
    velocities: Optional[tuple],
    rng,
    edges,
    internal_exchange_probability: float,
) -> CollisionStats:
    """The hot collision kernel: eqs. (12)-(18) on ``m`` row pairs.

    ``a``/``b`` select each pair's two rows -- index arrays, or two
    slices when the partners are interleaved -- and ``velocities`` are
    the six translational components ``(u0, u1, v0, v1, w0, w1)`` when
    the caller already gathered them (``None``: gathered here).
    ``rng`` / ``edges`` are the pairs' blocks (:func:`_blocks`).

    Every random number is drawn up front, block by block, in
    :func:`collide_pairs`' order (the words, then the optional
    internal-exchange draws); the arithmetic then runs over tiles of
    :data:`TILE` pairs.  It consumes no random numbers and the pairs
    touch disjoint rows, so the outcome is bitwise the oracle's for any
    tile size.  A tile is laid out component-major, so every
    per-component pass is a contiguous row, and every temporary lives
    in ``particles.scratch`` at tile size.  Only the draws themselves
    (no ``out=``) allocate.
    """
    if m == 0:
        return CollisionStats(n_collisions=0)
    blocks = _blocks(rng, edges)
    words = _collision_words(blocks, 3 + particles.rotational_dof)
    frozen = None
    if internal_exchange_probability < 1.0:
        frozen = _draw_frozen(blocks, internal_exchange_probability)
    for t0 in range(0, m, TILE):
        t1 = min(t0 + TILE, m)
        _collide_tile(
            particles, t0, t1, _rows(a, t0, t1), _rows(b, t0, t1),
            None if velocities is None
            else tuple(x[t0:t1] for x in velocities),
            words[t0:t1], frozen,
        )
    return CollisionStats(n_collisions=m)


def _rows(rows, t0: int, t1: int):
    """Pairs ``t0:t1`` of a pair-row selector (index array or slice)."""
    if isinstance(rows, slice):
        return slice(rows.start + t0 * rows.step,
                     rows.start + t1 * rows.step, rows.step)
    return rows[t0:t1]


def _draw_frozen(blocks, probability: float) -> tuple:
    """The internal-exchange draws of every block, made up front.

    Per block, one uniform per pair (the pair is *frozen* -- keeps its
    internal components -- when it is >= ``probability``), then per
    frozen pair three uniforms (the ranking keys of a uniform
    3-permutation) and three signs.  Returns the frozen pair ids
    (ascending), their 3-permutations and their +-1 signs.
    """
    frozen, keys, signs = [], [], []
    for rng, e0, e1 in blocks:
        block = np.flatnonzero(rng.random(e1 - e0) >= probability)
        frozen.append(block + e0)
        keys.append(rng.random((block.shape[0], 3)))
        signs.append(random_signs(rng, (block.shape[0], 3)))
    return (
        np.concatenate(frozen),
        np.argsort(np.concatenate(keys), axis=1),
        np.concatenate(signs),
    )


def _frozen_outcome(h, t0: int, t1: int, frozen: tuple) -> tuple:
    """The translational-only outcome of the frozen pairs among ``t0:t1``.

    ``h`` is the tile's ``(n, k)`` relatives (not yet halved) and
    ``frozen`` :func:`_draw_frozen`'s draws.  A frozen pair (internal
    exchange refused) gets its 3 translational half-relatives permuted
    among themselves with fresh signs and its internal ones untouched.
    Returns the pairs' tile rows and their ``(nf, k)`` mixed
    half-relatives.
    """
    ids, perms, signs = frozen
    r0, r1 = np.searchsorted(ids, (t0, t1))
    rows = ids[r0:r1] - t0
    h_rows = h[rows]
    out = 0.5 * h_rows
    out[:, :3] = h_rows[np.arange(rows.shape[0])[:, None], perms[r0:r1]]
    out[:, :3] *= signs[r0:r1]
    out[:, :3] *= 0.5
    return rows, out


def _collide_tile(particles, t0, t1, a, b, velocities, words, frozen):
    """One tile of :func:`_collide`: pairs ``t0:t1``, their rows and words.

    ``frozen`` is the call's internal-exchange draws (or ``None``).
    """
    n = t1 - t0
    scratch = particles.scratch
    rdof = particles.rotational_dof
    k = 3 + rdof
    mean, ht, htn = pooled(scratch, "coll_f8", 3 * k * n).reshape(3, k, n)
    idx = pooled(scratch, "coll_idx", k * n, dtype=np.intp).reshape(k, n)

    # Means (conserved) and relatives (eqs. (12)-(15)); ``htn`` is free
    # until the mix, so it stages the velocity gathers.
    columns = (particles.u, particles.v, particles.w)
    for c, col in enumerate(columns):
        if velocities is None:
            x0, x1 = _gather(col, a, htn[0]), _gather(col, b, htn[1])
        else:
            x0, x1 = velocities[2 * c], velocities[2 * c + 1]
        np.add(x0, x1, out=mean[c])
        np.subtract(x0, x1, out=ht[c])
    if rdof:
        r0, r1 = pooled(scratch, "coll_rot", 2 * n, width=rdof).reshape(
            2, n, rdof
        )
        q0, q1 = _gather(particles.rot, a, r0), _gather(particles.rot, b, r1)
        for j in range(rdof):
            np.add(q0[:, j], q1[:, j], out=mean[3 + j])
            np.subtract(q0[:, j], q1[:, j], out=ht[3 + j])
    mean *= 0.5

    # The eq. (18) shuffle: re-order by the first partner's permutation
    # vector ("which one gets used is inconsequential") as one flat
    # take, out[j, i] = ht[perm[i, j], i], then random signs -- the
    # words' low k bits, looked up as +-0.5 factors that also halve.
    perm_rows = pooled(scratch, "coll_perm", n, dtype=np.int8, width=k)
    idx[...] = _gather(particles.perm, a, perm_rows).T
    idx *= n
    idx += pooled_arange(scratch, n)
    np.take(ht.reshape(-1), idx, out=htn, mode="clip")
    if frozen is not None:
        # Read before ``ht`` takes the sign factors.
        frozen_rows, frozen_mix = _frozen_outcome(ht.T, t0, t1, frozen)
    low, ja, jb = pooled(scratch, "coll_bits", 3 * n, words.dtype).reshape(3, n)
    np.bitwise_and(words, (1 << k) - 1, out=low)
    np.take(_sign_table(k), low, axis=1, out=ht, mode="clip")
    htn *= ht
    if frozen is not None:
        htn.T[frozen_rows] = frozen_mix

    # Post-collision states (momentum: mean +- relative); ``ht`` is
    # free again and stages the scatters.
    for c, col in enumerate(columns):
        _scatter(col, a, np.add, mean[c], htn[c], ht[0])
        _scatter(col, b, np.subtract, mean[c], htn[c], ht[0])
    if rdof:
        _scatter(particles.rot, a, np.add, mean[3:], htn[3:], r0)
        _scatter(particles.rot, b, np.subtract, mean[3:], htn[3:], r1)

    # Refresh both partners' permutation vectors with one random
    # transposition each (the Aldous-Diaconis shuffle step): the words'
    # high part is ja * k + jb.  In the index and permutation-row blocks
    # the mix is done with; a slice's rows are spelled out in the index
    # block's third row.
    np.right_shift(words, k, out=ja)
    np.divmod(ja, k, out=(ja, jb))
    work = (idx[0], idx[1], perm_rows.reshape(-1)[: 2 * n].reshape(2, n))
    for rows, js in ((a, ja), (b, jb)):
        if isinstance(rows, slice):
            start = rows.start
            rows = np.multiply(
                pooled_arange(scratch, n), rows.step, out=idx[2]
            )
            rows += start
        _transpose_rows(particles.perm, rows, js, work)


def collide_adjacent_pairs(
    particles: ParticleArrays,
    pair_index: Optional[np.ndarray] = None,
    rng: Optional[np.random.Generator] = None,
    internal_exchange_probability: float = 1.0,
) -> CollisionStats:
    """Collide pairs of *adjacent* rows ``(2i, 2i+1)``, in place.

    After the cell sort, even/odd pairing makes every collision pair a
    pair of adjacent addresses.  ``pair_index`` holds the indices ``i``
    of the accepted pairs, drawn from one ``rng``.  ``None`` means
    *every* formed pair of every block the population declares
    collides (the reservoir mix after its re-pairing shuffle): block
    ``b`` starting at row ``s_b`` pairs rows ``(s_b + 2j, s_b + 2j + 1)``
    for ``j < n_b // 2`` and draws from ``rng[b]``
    (:func:`repro.rng.block_streams`).  One block needs no gathers or
    scatters at all -- the kernel reads and writes the two interleaved
    partner sets through strided views.

    Physics and, per block, RNG consumption identical to
    :func:`collide_pairs`; the equivalence is pinned by a unit test.
    """
    scratch = particles.scratch
    rows = particles.block_edges() if pair_index is None else [0, 2 * len(pair_index)]
    edges = np.cumsum([0] + [(r1 - r0) // 2 for r0, r1 in zip(rows, rows[1:])])
    m = int(edges[-1])
    if pair_index is None and len(rows) == 2:
        a, b = slice(0, 2 * m, 2), slice(1, 2 * m, 2)
    else:
        a = pooled(scratch, "adj_a", m, dtype=np.intp)
        b = pooled(scratch, "adj_b", m, dtype=np.intp)
        if pair_index is None:
            pair_index = pooled_arange(scratch, m)
        np.multiply(pair_index, 2, out=a)
        # Pair i of the block whose rows start at r0 and whose pair ids
        # start at p0 is rows 2i + r0 - 2 p0 and the one after.
        for r0, p0, p1 in zip(rows, edges[:-1], edges[1:]):
            if r0 != 2 * p0:
                a[p0:p1] += r0 - 2 * p0
        np.add(a, 1, out=b)
    return _collide(
        particles, m, a, b, None, rng, edges, internal_exchange_probability
    )


def collide_rows_with_velocities(
    particles: ParticleArrays,
    a_rows: np.ndarray,
    b_rows: np.ndarray,
    u0: np.ndarray,
    u1: np.ndarray,
    v0: np.ndarray,
    v1: np.ndarray,
    w0: np.ndarray,
    w1: np.ndarray,
    rng=None,
    internal_exchange_probability: float = 1.0,
    edges=None,
) -> CollisionStats:
    """Collide arbitrary row pairs whose velocities are already gathered.

    The entry point of the fused selection/collision pass: ``u0/u1``,
    ``v0/v1``, ``w0/w1`` hold one entry per pair, aligned with
    ``a_rows``/``b_rows``, and are not modified; rotational state and
    permutation vectors are gathered here.  ``rng`` is one generator
    per block of pairs, ``edges`` the block boundaries (default: one
    block).  Physics and, per block, RNG consumption identical to
    :func:`collide_pairs`; pinned bitwise by a unit test.
    """
    a = np.asarray(a_rows)
    b = np.asarray(b_rows)
    if a.shape != b.shape:
        raise ConfigurationError("a_rows/b_rows shapes differ")
    m = a.shape[0]
    return _collide(
        particles, m, a, b, (u0, u1, v0, v1, w0, w1), rng,
        (0, m) if edges is None else edges, internal_exchange_probability,
    )


def _transpose_rows(
    perm: np.ndarray, rows: np.ndarray, js: np.ndarray, work=None
) -> None:
    """Swap element js[i] with element 0 in perm[rows[i]], vectorized.

    ``rows`` may repeat only if the repeats carry identical swaps; the
    collision pairing guarantees disjoint rows within each call.
    ``work`` optionally supplies the temporaries: two intp index
    buffers and a ``(2, m)`` int8 block.
    """
    if not perm.flags.c_contiguous:
        tmp = perm[rows, js].copy()
        perm[rows, js] = perm[rows, 0]
        perm[rows, 0] = tmp
        return
    m = js.shape[0]
    if work is None:
        work = (
            np.empty(m, dtype=np.intp),
            np.empty(m, dtype=np.intp),
            np.empty((2, m), dtype=np.int8),
        )
    i0, ij, (head, swapped) = work
    # 1-D flattened swap: fancy indexing with a single index array
    # beats the (rows, js) double-index path on every op here.
    flat = perm.reshape(-1)
    np.multiply(rows, perm.shape[1], out=i0)
    np.add(i0, js, out=ij)
    np.take(flat, i0, out=head, mode="clip")
    np.take(flat, ij, out=swapped, mode="clip")
    flat[ij] = head
    flat[i0] = swapped
