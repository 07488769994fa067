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
freestream's mean and variance).
"""

from __future__ import annotations

import numpy as np

from repro.core.collision import collide_adjacent_pairs, collide_pairs
from repro.core.particles import ParticleArrays, pooled, pooled_arange
from repro.errors import ConfigurationError
from repro.physics.distributions import sample_rectangular
from repro.physics.freestream import Freestream
from repro.rng import block_streams, random_permutation_table

#: What a collision reads and writes -- a reservoir's other columns are
#: placeholders.
MIXED_COLUMNS = ("u", "v", "w", "rot", "perm")


class Reservoir:
    """Holding tank for particles outside the physical space.

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
        self.particles = ParticleArrays.empty(rotational_dof)

    # -- inspection --------------------------------------------------------

    @property
    def size(self) -> int:
        return self.particles.n

    @property
    def rotational_dof(self) -> int:
        return self.particles.rotational_dof

    # -- deposit / withdraw --------------------------------------------------

    def deposit(self, rng: np.random.Generator, n: int) -> None:
        """Add ``n`` particles with rectangular freestream-variance state.

        The incoming particles' actual post-shock velocities are
        discarded (the paper re-deals them; keeping hot wake velocities
        would bias the future inflow), so only the count matters.
        """
        if n < 0:
            raise ConfigurationError("n must be non-negative")
        if n == 0:
            return
        rdof = self.rotational_dof
        vel = sample_rectangular(
            rng, n, self.freestream.c_mp, drift=self.freestream.drift_vector()
        )
        rot = sample_rectangular(rng, n, self.freestream.c_mp, components=rdof)
        newcomers = ParticleArrays(
            x=np.zeros(n),
            y=np.zeros(n),
            u=vel[:, 0].copy(),
            v=vel[:, 1].copy(),
            w=vel[:, 2].copy(),
            rot=rot,
            perm=random_permutation_table(rng, n, length=3 + rdof),
            cell=np.zeros(n, dtype=np.int64),
        )
        if self.particles.scratch is not None:
            self.particles.append_inplace(newcomers)
        else:
            self.particles = ParticleArrays.concatenate(
                self.particles, newcomers
            )

    def withdraw(self, rng: np.random.Generator, n: int) -> ParticleArrays:
        """Remove and return ``n`` particles (velocities as relaxed).

        If the reservoir runs short, the balance is topped up with fresh
        rectangular-distribution particles first (they enter the flow
        less Gaussian than usual; the paper's sizing -- ~10% of the
        population idles in the reservoir -- makes this rare).

        The withdrawn subset is drawn uniformly without replacement
        (O(n), not a full-reservoir permutation) and the remainder is
        compacted in one pass.
        """
        if n < 0:
            raise ConfigurationError("n must be non-negative")
        if n > self.size:
            self.deposit(rng, n - self.size)
        take = rng.choice(self.size, size=n, replace=False, shuffle=False)
        out = self.particles.select(take)
        if self.particles.scratch is not None:
            gone = np.zeros(self.size, dtype=bool)
            gone[take] = True
            self.particles.remove_inplace(gone)
        else:
            keep = np.ones(self.size, dtype=bool)
            keep[take] = False
            self.particles = self.particles.select(keep)
        return out

    # -- relaxation -----------------------------------------------------------

    def mix(self, rng, rounds: int = 1, peers=()) -> int:
        """Collide the reservoir against itself for ``rounds`` steps.

        Every round randomly re-pairs the population and collides every
        pair (the reservoir is one conceptual cell at freestream density
        where candidates always collide).  Returns collisions performed.

        ``peers`` are further reservoirs mixed by the same call (the
        ensemble's replicas), ``rng`` then one generator per reservoir,
        this one's first.  Each shuffles and draws from its own stream,
        bitwise as a call on it alone would; only the collision
        arithmetic is shared -- the pairs of all are staged back to back
        and collide as the blocks of one kernel call.
        """
        tanks = (self, *peers)
        streams = block_streams(rng)
        if len(streams) != len(tanks):
            raise ConfigurationError(
                f"{len(streams)} streams for {len(tanks)} reservoirs"
            )
        all_pooled = all(t.particles.scratch is not None for t in tanks)
        if peers and not all_pooled:
            raise ConfigurationError("mixing with peers requires scratch")
        total = 0
        for _ in range(rounds):
            if all_pooled:
                # Physically shuffle once (ping-pong reorder), then the
                # adjacent-pair kernel collides every (2i, 2i+1) block
                # with zero gathers -- same pairing distribution as
                # colliding (order[2i], order[2i+1]) in place.
                edges = [0]
                for tank, stream in zip(tanks, streams):
                    n = tank.size
                    if n >= 2:
                        tank.particles.reorder_inplace(
                            tank.particles.scratch.permutation(n, stream),
                            columns=MIXED_COLUMNS,
                        )
                    edges.append(edges[-1] + n // 2)
                # Alone, collide in place; with peers, in staged rows.
                pool = self._staged(2 * edges[-1]) if peers else self.particles
                staged = tanks if peers else ()
                _copy_pairs(staged, edges, pool, back=False)
                stats = collide_adjacent_pairs(pool, rng=streams, edges=edges)
                _copy_pairs(staged, edges, pool, back=True)
            else:
                n = self.size
                if n < 2:
                    break
                order = streams[0].permutation(n)
                n_pairs = n // 2
                first = order[0 : 2 * n_pairs : 2]
                second = order[1 : 2 * n_pairs : 2]
                stats = collide_pairs(
                    self.particles, first, second, rng=streams[0]
                )
            total += stats.n_collisions
        return total

    def _staged(self, n: int) -> ParticleArrays:
        """``n`` pooled rows to collide in (the positional columns, a
        reservoir's placeholders, alias ``u``)."""
        scratch, rdof = self.particles.scratch, self.rotational_dof
        u, v, w = pooled(scratch, "mix_uvw", 3 * n).reshape(3, n)
        pool = ParticleArrays(
            x=u, y=u, z=u, u=u, v=v, w=w, cell=pooled_arange(scratch, n),
            rot=pooled(scratch, "mix_rot", n, width=rdof),
            perm=pooled(scratch, "mix_perm", n, np.int8, width=3 + rdof),
        )
        pool.scratch = scratch
        return pool


def _copy_pairs(tanks, edges, pool: ParticleArrays, back: bool) -> None:
    """Copy the first ``2 * (n_r // 2)`` rows of every reservoir ``r`` to
    block ``r`` of ``pool`` (even lengths keep the pairs adjacent), or back."""
    for name in MIXED_COLUMNS:
        staged = getattr(pool, name)
        for tank, e0, e1 in zip(tanks, edges[:-1], edges[1:]):
            own = getattr(tank.particles, name)[: 2 * (e1 - e0)]
            if back:
                own[...] = staged[2 * e0 : 2 * e1]
            else:
                staged[2 * e0 : 2 * e1] = own
