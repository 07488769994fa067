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

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.particles import ParticleArrays, pooled, pooled_arange
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
    signs: Optional[np.ndarray] = None,
    transpositions: Optional[np.ndarray] = None,
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
        Source for the random signs and the permutation-refresh
        transpositions when they are not supplied explicitly.
    signs:
        Optional ``(n_pairs, k)`` array of +-1 (the CM engine feeds
        quick-and-dirty bits here).
    transpositions:
        Optional ``(2 * n_pairs,)`` swap indices for refreshing first
        then second partners' permutation vectors.
    internal_exchange_probability:
        The Future-Work relaxation knob (see
        :class:`repro.physics.molecules.MolecularModel`): with this
        probability a pair's internal components join the five-element
        shuffle; otherwise only the three translational half-relative
        components are re-ordered among themselves (drawn from ``rng``;
        energy and momentum are conserved either way).  1.0 (default)
        is the paper's fully mixing model.

    Returns per-step collision statistics.
    """
    a = np.asarray(first)
    b = np.asarray(second)
    if a.shape != b.shape:
        raise ConfigurationError("first/second shapes differ")
    n = a.shape[0]
    k = 3 + particles.rotational_dof
    if n == 0:
        return CollisionStats(n_collisions=0, energy_exchanged=0.0)

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
    # gets used is inconsequential") and apply random signs.
    h_new = _mixed_half_relatives(
        h, particles.perm[a], rng, signs, internal_exchange_probability, k
    )

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
    transpositions = _resolve_transpositions(
        _blocks(rng, (0, n)), transpositions, n, k
    )
    _transpose_rows(particles.perm, a, transpositions[:n])
    _transpose_rows(particles.perm, b, transpositions[n:])

    return CollisionStats(
        n_collisions=n,
        energy_exchanged=float(np.abs(e_trans_after - e_trans_before).sum()),
    )


def _mixed_half_relatives(
    h: np.ndarray,
    perm_rows: np.ndarray,
    rng: Optional[np.random.Generator],
    signs: Optional[np.ndarray],
    internal_exchange_probability: float,
    k: int,
) -> np.ndarray:
    """The eq. (18) shuffle: permute half-relatives, apply random signs.

    The oracle's row-major spelling; :func:`_collide` performs the same
    shuffle component-major.
    """
    h_new = apply_permutation(h, perm_rows)
    blocks = _blocks(rng, (0, h.shape[0]))
    signs = _resolve_signs(blocks, signs, h.shape[0], k)
    np.multiply(h_new, signs, out=h_new, casting="unsafe")
    if internal_exchange_probability < 1.0:
        _freeze_internal(h, h_new, blocks, internal_exchange_probability)
    return h_new


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


def _resolve_signs(blocks, signs, m: int, k: int, scratch=None) -> np.ndarray:
    """Caller-supplied +-1 signs, validated, or a fresh draw per block."""
    if signs is not None:
        signs = np.asarray(signs)
        if signs.shape != (m, k):
            raise ConfigurationError(f"signs must have shape {(m, k)}")
        return signs
    signs = pooled(scratch, "coll_signs", m, dtype=np.int8, width=k)
    for rng, e0, e1 in blocks:
        if rng is None:
            raise ConfigurationError("need rng or explicit signs")
        signs[e0:e1] = rng.integers(0, 2, size=(e1 - e0, k), dtype=np.int8)
    # {0, 1} -> {-1, +1}, once for all blocks (repro.rng.random_signs).
    signs *= 2
    signs -= 1
    return signs


def _resolve_transpositions(
    blocks, transpositions, m: int, k: int, scratch=None
) -> np.ndarray:
    """Caller-supplied swap indices, validated, or a fresh draw per block.

    Laid out first partners then second partners: a block's one draw is
    split across its slice of each half.
    """
    if transpositions is not None:
        transpositions = np.asarray(transpositions)
        if transpositions.shape != (2 * m,):
            raise ConfigurationError("need 2 * n_pairs transposition draws")
        return transpositions
    transpositions = pooled(scratch, "coll_transp", 2 * m, dtype=np.int64)
    for rng, e0, e1 in blocks:
        if rng is None:
            raise ConfigurationError("need rng or explicit transpositions")
        draw = rng.integers(0, k, size=2 * (e1 - e0))
        transpositions[e0:e1] = draw[: e1 - e0]
        transpositions[m + e0 : m + e1] = draw[e1 - e0 :]
    return transpositions


def _freeze_internal(h, h_new, blocks, probability: float) -> None:
    """Undo the internal exchange of the pairs that fail its draw.

    ``h``/``h_new`` are the ``(n, k)`` half-relatives before and after
    the shuffle (any strides); a frozen pair gets the translational-only
    outcome instead: its 3 translational half-relatives permuted among
    themselves (uniform 3-permutation) with fresh signs, its internal
    components untouched.
    """
    frozen = np.empty(h.shape[0], dtype=bool)
    keys, signs = [], []
    for rng, e0, e1 in blocks:
        if rng is None:
            raise ConfigurationError(
                "internal_exchange_probability < 1 requires rng"
            )
        frozen[e0:e1] = rng.random(e1 - e0) >= probability
        nf = int(np.count_nonzero(frozen[e0:e1]))
        keys.append(rng.random((nf, 3)))
        signs.append(random_signs(rng, (nf, 3)))
    rows = np.flatnonzero(frozen)
    trans_perm = np.argsort(np.concatenate(keys), axis=1)
    h_trans = h[rows][:, :3][np.arange(rows.shape[0])[:, None], trans_perm]
    h_trans *= np.concatenate(signs)
    h_new[rows, :3] = h_trans
    h_new[rows, 3:] = h[rows, 3:]


def _gather(col: np.ndarray, rows, out: np.ndarray) -> np.ndarray:
    """``col[rows]``: a view for a slice, a pooled copy for an index array."""
    if isinstance(rows, slice):
        return col[rows]
    # mode="clip": rows are in range by construction; "raise" would
    # buffer the out array.
    return np.take(col, rows, axis=0, out=out, mode="clip")


def _records(block: np.ndarray) -> np.ndarray:
    """The rows of a C-contiguous 2-D block as one opaque item each."""
    return block.view((np.void, block.strides[0])).reshape(-1)


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
            col, stage = _records(col), _records(stage)
        col[rows] = stage


def _collide(
    particles: ParticleArrays,
    m: int,
    a,
    b,
    velocities: Optional[tuple],
    rng,
    edges,
    signs: Optional[np.ndarray],
    transpositions: Optional[np.ndarray],
    internal_exchange_probability: float,
) -> CollisionStats:
    """The hot collision kernel: eqs. (12)-(18) on ``m`` row pairs.

    ``a``/``b`` select each pair's two rows -- index arrays, or two
    slices when the partners are interleaved -- and ``velocities`` are
    the six translational components ``(u0, u1, v0, v1, w0, w1)`` when
    the caller already gathered them (``None``: gathered here).
    ``rng`` / ``edges`` are the pairs' blocks (:func:`_blocks`).

    Arithmetic and, block by block, RNG consumption order (signs, the
    optional internal-exchange draws, transpositions) are
    :func:`collide_pairs`' -- the oracle the unit tests compare against
    bitwise -- laid out component-major so every per-component pass is
    a contiguous row, and every O(m) temporary lives in
    ``particles.scratch``: three ``(k, m)`` float blocks (means,
    half-relatives, mixed), the permutation index block, the gathered
    rotational/permutation rows and the packed draws.  Only the RNG
    draws themselves (no ``out=``) allocate.
    """
    if m == 0:
        return CollisionStats(n_collisions=0)
    scratch = particles.scratch
    blocks = _blocks(rng, edges)
    rdof = particles.rotational_dof
    k = 3 + rdof
    mean, ht, htn = pooled(scratch, "coll_f8", 3 * k * m).reshape(3, k, m)
    idx = pooled(scratch, "coll_idx", k * m, dtype=np.intp).reshape(k, m)

    # Means (conserved) and half-relatives (eqs. (12)-(15)); ``htn`` is
    # free until the mix, so it stages the velocity gathers.
    columns = (particles.u, particles.v, particles.w)
    for c, col in enumerate(columns):
        if velocities is None:
            x0, x1 = _gather(col, a, htn[0]), _gather(col, b, htn[1])
        else:
            x0, x1 = velocities[2 * c], velocities[2 * c + 1]
        np.add(x0, x1, out=mean[c])
        np.subtract(x0, x1, out=ht[c])
    if rdof:
        r0, r1 = pooled(scratch, "coll_rot", 2 * m, width=rdof).reshape(
            2, m, rdof
        )
        q0, q1 = _gather(particles.rot, a, r0), _gather(particles.rot, b, r1)
        for j in range(rdof):
            np.add(q0[:, j], q1[:, j], out=mean[3 + j])
            np.subtract(q0[:, j], q1[:, j], out=ht[3 + j])
    mean *= 0.5
    ht *= 0.5

    # The eq. (18) shuffle: re-order by the first partner's permutation
    # vector ("which one gets used is inconsequential") as one flat
    # take, out[j, i] = ht[perm[i, j], i], then random signs in place.
    perm_rows = pooled(scratch, "coll_perm", m, dtype=np.int8, width=k)
    idx[...] = _gather(particles.perm, a, perm_rows).T
    idx *= m
    idx += pooled_arange(scratch, m)
    np.take(ht.reshape(-1), idx, out=htn, mode="clip")
    signs = _resolve_signs(blocks, signs, m, k, scratch)
    np.multiply(htn, signs.T, out=htn, casting="unsafe")
    if internal_exchange_probability < 1.0:
        _freeze_internal(ht.T, htn.T, blocks, internal_exchange_probability)

    # Post-collision states (momentum: mean +- relative); ``ht`` is
    # dead now and stages the scatters.
    for c, col in enumerate(columns):
        _scatter(col, a, np.add, mean[c], htn[c], ht[0])
        _scatter(col, b, np.subtract, mean[c], htn[c], ht[0])
    if rdof:
        _scatter(particles.rot, a, np.add, mean[3:], htn[3:], r0)
        _scatter(particles.rot, b, np.subtract, mean[3:], htn[3:], r1)

    # Refresh both partners' permutation vectors with one random
    # transposition each (the Aldous-Diaconis shuffle step), in the
    # index and permutation-row blocks the mix is done with.
    transpositions = _resolve_transpositions(
        blocks, transpositions, m, k, scratch
    )
    if isinstance(a, slice):
        rows = pooled_arange(scratch, 2 * m)
        a, b = rows[a], rows[b]
    work = (idx[0], idx[1], perm_rows.reshape(-1)[: 2 * m].reshape(2, m))
    _transpose_rows(particles.perm, a, transpositions[:m], work)
    _transpose_rows(particles.perm, b, transpositions[m:], work)
    return CollisionStats(n_collisions=m)


def collide_adjacent_pairs(
    particles: ParticleArrays,
    pair_index: Optional[np.ndarray] = None,
    rng: Optional[np.random.Generator] = None,
    signs: Optional[np.ndarray] = None,
    transpositions: Optional[np.ndarray] = None,
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
        a = pooled(scratch, "coll_a", m, dtype=np.intp)
        b = pooled(scratch, "coll_b", m, dtype=np.intp)
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
        particles, m, a, b, None, rng, edges,
        signs, transpositions, internal_exchange_probability,
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
    signs: Optional[np.ndarray] = None,
    transpositions: Optional[np.ndarray] = None,
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
        (0, m) if edges is None else edges, signs, transpositions,
        internal_exchange_probability,
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
