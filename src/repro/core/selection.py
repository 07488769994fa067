"""The McDonald-Baganoff collision selection rule (sub-step 3, part 4).

Unlike Bird's per-cell time counter, "a probability of collision is
computed for each pair of collision candidates and collisions are
carried out in accordance with this probability.  The decision to
perform a collision is applied on the individual candidate pairs and not
on the cell as a whole.  Consequently ... the selection rule can be
parallelized at a particle level" while conserving energy and momentum
per collision.

Equations (3)-(8) of the paper:

    t_c      = 1 / (n sigma c_bar)                       (3)
    P_c      = dt / t_c          (valid for dt << t_c)    (4)
    P_c      = n sigma g dt                               (5)
    P_c ~    n g^(1 - 4/alpha)                            (6)
    P_c/P_co = (n/n_oo) (g/g_oo)^(1-4/alpha)              (7)
    P_c/P_co = n/n_oo            (Maxwell, alpha = 4)     (8)

The freestream anchor ``P_co`` comes from
:attr:`repro.physics.freestream.Freestream.collision_probability`.
Near-continuum runs (lambda = 0) saturate every candidate at P = 1:
"all collision candidates must collide and the number of collisions in a
cell is just equal to half the number of particles in the cell."

Cut cells: the local number density divides by the cell's **fractional
open volume** ("where cells are divided by the wedge special allowance
must be made for the fractional cell volume when employing the selection
rule").
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.collision import collide_rows_with_velocities
from repro.core.pairing import (
    CandidatePairs,
    block_cell_edges,
    reflection_offsets,
    reflection_pairs,
)
from repro.core.particles import ParticleArrays, pooled
from repro.errors import ConfigurationError
from repro.physics.freestream import Freestream
from repro.physics.molecules import MolecularModel
from repro.rng import block_streams

#: Cells whose open fraction falls below this are treated as fully
#: blocked for density purposes (they should hold no particles; the
#: floor avoids division blow-ups on stray reflections mid-resolution).
MIN_VOLUME_FRACTION = 1.0 / 64.0


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of the selection rule for one step.

    Attributes
    ----------
    accept:
        Boolean per *pair* (aligned with the pairing arrays): True for
        pairs that will actually collide.
    probability:
        The computed per-pair probability (0 for non-candidates), before
        the random draw -- kept for diagnostics and tests.
    """

    accept: np.ndarray
    probability: np.ndarray

    @property
    def n_collisions(self) -> int:
        return int(np.count_nonzero(self.accept))


def pair_relative_speed(particles: ParticleArrays, pairs) -> np.ndarray:
    """Translational relative speed |c1 - c2| of every formed pair.

    ``pairs`` is a :class:`CandidatePairs` or a
    :class:`ReflectionPairs`.  With scratch enabled every temporary is
    a pooled buffer (strided reads on the adjacent path, ``out=``
    gathers otherwise); the arithmetic is identical either way.
    """
    n_pairs = pairs.n_pairs
    scratch = particles.scratch
    du, dv, dw, other = (
        pooled(scratch, name, n_pairs)
        for name in ("sel_du", "sel_dv", "sel_dw", "sel_other")
    )
    columns = ((particles.u, du), (particles.v, dv), (particles.w, dw))
    if pairs.adjacent:
        # Pair i occupies rows (2i, 2i+1): strided views replace the
        # six scattered gathers of the generic path.
        m = 2 * n_pairs
        for col, d in columns:
            np.subtract(col[0:m:2], col[1:m:2], out=d)
    else:
        for col, d in columns:
            np.take(col, pairs.first, out=d, mode="clip")
            np.take(col, pairs.second, out=other, mode="clip")
            d -= other
    du *= du
    dv *= dv
    dw *= dw
    du += dv
    du += dw
    return np.sqrt(du, out=du)


def density_lookup_table(
    cell_counts: np.ndarray,
    volume_fractions: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-cell density table for the selection rule's pair gather.

    Divides the cell populations by the (floored) open volume fraction
    -- the cut-cell allowance of eq. (7)/(8).
    """
    counts = np.asarray(cell_counts, dtype=np.float64)
    if volume_fractions is not None:
        vf = np.maximum(
            np.asarray(volume_fractions, dtype=np.float64),
            MIN_VOLUME_FRACTION,
        )
        return counts / vf
    return counts


def collision_probabilities(
    particles: ParticleArrays,
    pairs: CandidatePairs,
    freestream: Freestream,
    model: MolecularModel,
    cell_counts: np.ndarray,
    volume_fractions: Optional[np.ndarray] = None,
) -> tuple:
    """Per-pair collision probability via eq. (7)/(8).

    Parameters
    ----------
    cell_counts:
        Particles per cell (length n_cells) for *this* population.
    volume_fractions:
        Open area fraction per cell (flattened, length n_cells);
        ``None`` means all cells fully open.

    Returns ``(probability, relative_speed)`` over pairs; the relative
    speed is computed only where the probability reads it (a
    speed-dependent model away from the near-continuum limit) and is
    ``None`` otherwise.
    """
    n_pairs = pairs.n_pairs
    needs_speed = (
        not freestream.is_near_continuum and model.speed_exponent != 0.0
    )
    if n_pairs == 0:
        return np.zeros(0), (np.zeros(0) if needs_speed else None)

    # Compute over ALL formed pairs, then zero the non-candidates at
    # the end: full-array arithmetic beats boolean-masked gathers on
    # every step (candidates are the vast majority after the sort).
    cand = pairs.same_cell
    if pairs.adjacent:
        cells = particles.cell[0 : 2 * n_pairs : 2]
    else:
        cells = particles.cell[pairs.first]

    if freestream.is_near_continuum:
        # The lambda -> 0 validation limit: every candidate collides.
        return cand.astype(np.float64), None

    # Per-cell density table first (n_cells entries), then one gather
    # per pair -- not a division per pair.
    density_table = density_lookup_table(cell_counts, volume_fractions)
    # mode="clip": cell indices are clipped into range upstream
    # (assign_cells); "raise" would buffer the out array.
    prob = pooled(particles.scratch, "sel_prob", n_pairs)
    np.take(density_table, cells, out=prob, mode="clip")
    prob *= freestream.collision_probability / freestream.density
    g = None
    if needs_speed:
        g = pair_relative_speed(particles, pairs)
        g_ref = np.sqrt(2.0) * freestream.mean_speed  # mean relative speed
        prob *= model.speed_factor(g, g_ref)
        g *= cand
    np.minimum(prob, 1.0, out=prob)
    prob *= cand
    return prob, g


def select_collisions(
    particles: ParticleArrays,
    pairs: CandidatePairs,
    freestream: Freestream,
    model: MolecularModel,
    cell_counts: np.ndarray,
    volume_fractions: Optional[np.ndarray] = None,
    rng: Optional[np.random.Generator] = None,
    draws: Optional[np.ndarray] = None,
) -> SelectionResult:
    """Apply the selection rule: probability, then an acceptance draw.

    ``draws`` holds the pairs' uniforms when the caller has drawn them
    (the counting path fills a pooled buffer from its stream);
    otherwise ``rng`` provides them.  At lambda = 0 every candidate
    collides and nothing is drawn.
    """
    prob, _ = collision_probabilities(
        particles, pairs, freestream, model, cell_counts, volume_fractions
    )
    accept = pooled(
        particles.scratch, "sel_accept", pairs.n_pairs, dtype=bool
    )
    if freestream.is_near_continuum:
        np.copyto(accept, pairs.same_cell)
        return SelectionResult(accept=accept, probability=prob)
    if draws is None:
        if rng is None:
            raise ConfigurationError("need rng or draws")
        draws = rng.random(pairs.n_pairs)
    else:
        draws = np.asarray(draws, dtype=np.float64)
        if draws.shape != (pairs.n_pairs,):
            raise ConfigurationError("draws must have one entry per pair")
    np.less(draws, prob, out=accept)
    return SelectionResult(accept=accept, probability=prob)


@dataclass(frozen=True)
class FusedSelectCollideResult:
    """Diagnostics from one fused selection+collision pass.

    Attributes
    ----------
    n_candidates:
        Pairs evaluated by the selection rule (every reflection pair is
        same-cell, so all formed pairs are candidates).
    n_collisions:
        Pairs accepted and collided.
    probability_sum:
        Sum of the per-pair collision probabilities (mean probability =
        ``probability_sum / n_candidates``).
    t_boundary:
        ``perf_counter`` stamp taken once the colliding row pairs are
        known (offsets drawn, pairs selected and materialised) and
        before their state is gathered -- the driver splits the fused
        pass into the paper's ``selection`` / ``collision`` ledger
        phases at this timestamp.
    collisions_by_block:
        ``n_collisions`` split by block (one entry per stream).
    """

    n_candidates: int
    n_collisions: int
    probability_sum: float
    t_boundary: float
    collisions_by_block: tuple


def fused_select_collide(
    particles: ParticleArrays,
    order: np.ndarray,
    counts: np.ndarray,
    offsets: np.ndarray,
    freestream: Freestream,
    model: MolecularModel,
    volume_fractions: Optional[np.ndarray] = None,
    rng=None,
    internal_exchange_probability: float = 1.0,
) -> FusedSelectCollideResult:
    """Pair, select and collide through the indexed order in one pass.

    The hot path over a sorter's ``order`` / ``counts`` / ``offsets``,
    for any number of **blocks**: ``rng`` is one generator per block
    (:func:`repro.rng.block_streams` -- the serial engine and a shard
    worker pass their one stream, the ensemble engine its R replica
    streams) and ``counts`` spans the blocks' cells back to back, so
    cell ``c`` of block ``b`` is entry ``b * n_cells + c`` and, pairs
    being numbered cell by cell, every block owns one contiguous range
    of pair ids.  ``volume_fractions`` covers one block's cells (blocks
    share the geometry).  ``order=None`` declares the population
    physically sorted by that composite cell.  Pairing never leaves a
    cell, hence never a block, and every random number of a block comes
    from its own stream in the one-block order below: a block's outcome
    is bitwise what a one-block call on it alone would produce.

    Which pairs exist is fixed by the per-cell reflection offsets
    alone, so the order of work follows what the molecular model needs:

    * **Per-cell probability** (Maxwell molecules, eq. 8, and the
      near-continuum limit where it is 1): acceptance does not depend
      on the partners, so *select before pairing* -- expand the
      per-cell probability to pair ids, draw, accept, and only then run
      the reflection arithmetic and the two ``order`` gathers, on the
      accepted ids alone (``reflection_pairs(subset=...)``).  When
      every pair collides (lambda = 0) there is no acceptance draw and
      no compare/compaction.
    * **Speed-dependent models** (eq. 7) need every pair's relative
      speed, so all pairs are materialised first.

    RNG consumption order is the same either way, and the same as
    ``reflection_pairs`` + ``select_collisions`` + ``collide_pairs``:
    reflection offsets (one per cell; the kernel skips the cells that
    cannot pair, whose draw consumes nothing), acceptance draws (one
    per formed pair; none at lambda = 0, where every pair collides),
    one collision word per accepted pair
    (:func:`repro.core.collision._collision_words`), the optional
    internal-exchange draws.  A seeded generator
    therefore leaves bitwise the state of that unfused reference --
    pinned by unit and stage-level tests.
    """
    if rng is None:
        raise ConfigurationError("fused_select_collide requires rng")
    scratch = particles.scratch
    streams = block_streams(rng)
    needs_speed = (
        not freestream.is_near_continuum and model.speed_exponent != 0.0
    )
    # Only a cell of two or more can pair: every per-cell pass below
    # (offset draw, probability table, expansion to pair ids) sees those
    # cells alone.  ``live`` ascends, so blocks stay contiguous in it.
    block_edges = block_cell_edges(len(streams), counts.shape[0])
    live = np.flatnonzero(counts > 1)
    cell_edges = np.searchsorted(live, block_edges)
    counts, offsets = counts[live], offsets[live]
    s = reflection_offsets(streams, counts, edges=cell_edges)
    pair_counts = counts >> 1
    # Cell i of ``live`` owns pair ids pair_starts[i]:pair_starts[i + 1],
    # block b pair ids pair_edges[b]:pair_edges[b + 1].
    pair_starts = pooled(scratch, "fs_starts", live.shape[0] + 1, np.int64)
    pair_starts[0] = 0
    np.cumsum(pair_counts, out=pair_starts[1:])
    pair_edges = pair_starts[cell_edges]
    n_pairs = int(pair_starts[-1])

    if freestream.is_near_continuum:
        # The lambda -> 0 validation limit: every candidate collides.
        prob = None
    else:
        # Per-cell first, then one expansion per pair -- not a division
        # per pair.  Blocks share the geometry: composite cell c has
        # the open fraction of cell c mod n_cells.
        if volume_fractions is not None:
            volume_fractions = volume_fractions[live % block_edges[1]]
        cell_prob = density_lookup_table(counts, volume_fractions)
        cell_prob *= freestream.collision_probability / freestream.density
        if needs_speed:
            rpairs = reflection_pairs(
                order, counts, offsets, s, scratch, starts=pair_starts
            )
            prob = pooled(scratch, "fs_prob", n_pairs)
            np.take(cell_prob, rpairs.cell, out=prob, mode="clip")
            g_ref = np.sqrt(2.0) * freestream.mean_speed
            prob *= model.speed_factor(
                pair_relative_speed(particles, rpairs), g_ref
            )
            np.minimum(prob, 1.0, out=prob)
        else:
            np.minimum(cell_prob, 1.0, out=cell_prob)
            prob = np.repeat(cell_prob, pair_counts)

    if prob is None:
        accepted = None  # all of them, in order, and nothing to draw
        probability_sum = float(n_pairs)
        accepted_edges = pair_edges
    else:
        draws = pooled(scratch, "fs_draws", n_pairs)
        for stream, p0, p1 in zip(streams, pair_edges[:-1], pair_edges[1:]):
            stream.random(out=draws[p0:p1])
        accept = pooled(scratch, "fs_accept", n_pairs, dtype=bool)
        np.less(draws, prob, out=accept)
        probability_sum = float(prob.sum())
        accepted = np.flatnonzero(accept)
        # Accepted ids ascend, so the blocks stay contiguous among them.
        accepted_edges = np.searchsorted(accepted, pair_edges)

    if needs_speed:
        a_rows = pooled(scratch, "fs_arows", accepted.shape[0], np.intp)
        b_rows = pooled(scratch, "fs_brows", accepted.shape[0], np.intp)
        np.take(rpairs.first, accepted, out=a_rows, mode="clip")
        np.take(rpairs.second, accepted, out=b_rows, mode="clip")
    else:
        rpairs = reflection_pairs(
            order, counts, offsets, s, scratch,
            subset=accepted, starts=pair_starts,
        )
        a_rows, b_rows = rpairs.first, rpairs.second
    t_boundary = time.perf_counter()

    # Only the colliding rows' velocities are ever gathered: an O(A)
    # touch of the population instead of O(P).
    n_acc = a_rows.shape[0]
    velocities = [
        np.take(col, rows, out=pooled(scratch, f"fs_vel{i}", n_acc),
                mode="clip")
        for i, (col, rows) in enumerate(
            (col, rows)
            for col in (particles.u, particles.v, particles.w)
            for rows in (a_rows, b_rows)
        )
    ]
    stats = collide_rows_with_velocities(
        particles, a_rows, b_rows, *velocities,
        rng=streams,
        internal_exchange_probability=internal_exchange_probability,
        edges=accepted_edges,
    )
    return FusedSelectCollideResult(
        n_candidates=n_pairs,
        n_collisions=stats.n_collisions,
        probability_sum=probability_sum,
        t_boundary=t_boundary,
        collisions_by_block=tuple(np.diff(accepted_edges).tolist()),
    )
