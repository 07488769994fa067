"""The particle reservoir.

"Those particles exiting through the soft downstream boundary are
removed from the physical space of the simulation and put in a separate
reservoir.  These particles are given velocities from a rectangular
distribution with the same variance as the freestream, therefore after a
few time steps collisions with other reservoir particles relaxes these
to the correct Gaussian distributions.  When new particles need to be
introduced at the upstream boundary they are taken from this reservoir."

The reservoir earns its keep three ways (paper, "Particle Motion and
Boundary Interaction"):

* idle virtual processors do useful work (Gaussianizing future inflow)
  instead of wasting their SIMD time slice;
* no transcendental functions or repeated random draws are needed to
  sample a Maxwellian -- a single uniform draw per component suffices;
* the start-up transient's surplus particles have somewhere to live.

The emulation models the reservoir as a single well-mixed cell: each
step the population is randomly re-paired and every pair collides
(Maxwell-molecule collisions conserve the population's energy and
momentum, so the distribution relaxes to a drifting Maxwellian with the
freestream's mean and variance).  An ensemble's reservoir is one such
cell per replica: the blocks its population declares, like the flow's.
"""

from __future__ import annotations

import numpy as np

from repro.core.collision import collide_adjacent_pairs
from repro.core.particles import ParticleArrays, pooled, pooled_arange
from repro.errors import ConfigurationError
from repro.physics.distributions import rectangular_half_width
from repro.physics.freestream import Freestream
from repro.rng import block_streams

#: What a collision reads and writes -- a reservoir's other columns are
#: placeholders.
MIXED_COLUMNS = ("u", "v", "w", "rot", "perm")


class Reservoir:
    """Holding tank for particles outside the physical space.

    One block or R, like the flow: ``particles`` (scratch-enabled) may
    declare blocks in its ``starts``, and :meth:`deposit`,
    :meth:`withdraw` and :meth:`mix` take one stream per block
    (:func:`repro.rng.block_streams`; a bare generator is one block).
    Per block they only draw, from that block's stream in the order a
    reservoir of that block alone would; the surgery and the collision
    are one call over all blocks.

    Parameters
    ----------
    freestream:
        Target conditions: deposited particles are re-dealt rectangular
        velocities with the freestream variance around the freestream
        drift, and relax toward the matching Maxwellian.
    rotational_dof:
        Internal degrees of freedom of the molecule model.
    """

    def __init__(self, freestream: Freestream, rotational_dof: int = 2) -> None:
        self.freestream = freestream
        self.particles = ParticleArrays.empty(rotational_dof).enable_scratch()

    # -- inspection --------------------------------------------------------

    @property
    def size(self) -> int:
        return self.particles.n

    def _streams(self, rng) -> tuple:
        """``rng`` as one stream per block, or a typed error."""
        streams = block_streams(rng)
        if len(streams) != self.particles.n_blocks:
            raise ConfigurationError(
                f"{len(streams)} streams for {self.particles.n_blocks} "
                "reservoir blocks"
            )
        return streams

    # -- deposit / withdraw --------------------------------------------------

    def deposit(self, rng, n) -> None:
        """Add ``n`` particles with rectangular freestream-variance state.

        ``n`` is one count per block (an int for one block).  The
        incoming particles' actual post-shock velocities are discarded
        (the paper re-deals them; keeping hot wake velocities would
        bias the future inflow), so only the count matters.

        Every block grows by its count in one relayout
        (:meth:`ParticleArrays.grow_inplace`); then each block draws its
        state from its own stream in one call: ``k * (3 + rdof)``
        uniforms for its velocities then its rotational state, and as
        many keys for its permutation table -- the doubles
        :func:`~repro.physics.distributions.sample_rectangular` twice
        and :func:`~repro.rng.random_permutation_table` would read, in
        that order.  One affine map, one drift and one row argsort over
        all blocks make them the same values bit for bit, and they land
        in the new rows with one copy per column.  The positional
        columns of a reservoir particle are zero.
        """
        streams = self._streams(rng)
        counts = np.atleast_1d(n).tolist()
        if len(counts) != len(streams):
            raise ConfigurationError(
                f"{len(counts)} counts for {len(streams)} reservoir blocks"
            )
        if min(counts) < 0:
            raise ConfigurationError("n must be non-negative")
        if not any(counts):
            return
        parts = self.particles
        rows = parts.grow_inplace(counts)
        fs = self.freestream
        rdof = parts.rotational_dof
        width = 3 + rdof
        drawn = [
            (s.random(2 * width * k), k) for s, k in zip(streams, counts) if k
        ]
        # Regrouped as every block's velocities, then every block's
        # rotational state, then every block's keys.
        flat = np.concatenate(
            [u[: 3 * k] for u, k in drawn]
            + [u[3 * k : width * k] for u, k in drawn]
            + [u[width * k :] for u, k in drawn]
        )
        total = sum(counts)
        state = flat[: width * total]
        a = rectangular_half_width(fs.c_mp)
        # sample_rectangular's ``rng.uniform(-a, a)`` is -a + (a - -a) * u.
        state *= a - -a
        state += -a
        vel = state[: 3 * total].reshape(total, 3)
        for c, (name, d) in enumerate(zip(("u", "v", "w"), fs.drift_vector())):
            if d:
                vel[:, c] += d
            getattr(parts, name)[rows] = vel[:, c]
        parts.rot[rows] = state[3 * total :].reshape(total, rdof)
        keys = flat[width * total :].reshape(total, width)
        parts.perm[rows] = np.argsort(keys, axis=1)
        for name in ("x", "y", "z", "cell"):
            getattr(parts, name)[rows] = 0

    def withdraw(self, rng, n: int) -> ParticleArrays:
        """Remove and return ``n`` particles of every block (as relaxed).

        A block that runs short is topped up with fresh
        rectangular-distribution particles first (they enter the flow
        less Gaussian than usual; the paper's sizing -- ~10% of the
        population idles in the reservoir -- makes this rare).

        Each block's subset is drawn uniformly without replacement
        (O(n), not a full-block permutation) and the remainder is
        compacted in one pass.  The result declares the reservoir's
        blocks, ``n`` rows each.
        """
        streams = self._streams(rng)
        if n < 0:
            raise ConfigurationError("n must be non-negative")
        edges = self.particles.block_edges()
        short = [max(n - (e1 - e0), 0) for e0, e1 in zip(edges[:-1], edges[1:])]
        if any(short):
            self.deposit(streams, short)
            edges = self.particles.block_edges()
        take = np.concatenate([
            e0 + stream.choice(e1 - e0, size=n, replace=False, shuffle=False)
            for stream, e0, e1 in zip(streams, edges[:-1], edges[1:])
        ])
        out = self.particles.select(take)
        if self.particles.starts is not None:
            out.starts = n * np.arange(len(streams) + 1, dtype=np.int64)
        self.particles.remove_inplace(np.sort(take))
        return out

    # -- relaxation -----------------------------------------------------------

    def mix(self, rng, rounds: int = 1) -> int:
        """Collide every block against itself for ``rounds`` steps.

        Every round randomly re-pairs each block and collides every pair
        (a block is one conceptual cell at freestream density where
        candidates always collide).  Returns collisions performed.

        Each block shuffles from its own stream, exactly as alone; the
        shuffles are one physical reorder of the population, and the
        collision one call over the pairs ``(s_b + 2j, s_b + 2j + 1)``
        of every block -- strided views with no gathers for one block.
        """
        streams = self._streams(rng)
        parts = self.particles
        total = 0
        for _ in range(rounds):
            edges = parts.block_edges()
            order = pooled(parts.scratch, "mix_order", parts.n, dtype=np.intp)
            order[...] = pooled_arange(parts.scratch, parts.n)
            for stream, e0, e1 in zip(streams, edges[:-1], edges[1:]):
                if e1 - e0 >= 2:
                    stream.shuffle(order[e0:e1])
            parts.reorder_inplace(order, columns=MIXED_COLUMNS)
            total += collide_adjacent_pairs(parts, rng=streams).n_collisions
        return total
