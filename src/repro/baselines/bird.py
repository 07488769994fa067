"""Bird's time-counter collision scheme (the incumbent the paper cites).

"The most common approach is that used in Bird's Monte Carlo method
where pairs of molecules within a cell are randomly chosen and collided
until the asynchronous cell time exceeds the global simulation time.
Pryor and Burns describe a vectorized implementation of this method but
clearly it suffers a strong dependence on the number of cells in the
simulation.  At best this method can be parallelized only at the cell
level and thus is strongly influenced by statistical fluctuations in the
cell populations."

Implementation: per cell, maintain a time counter ``t_c``; each selected
collision advances it by

    delta_t = 2 / (N_c * n * sigma_T * g)

(for Maxwell molecules ``sigma_T * g`` is a constant fixed by the
freestream anchor: ``c_bar_oo / (n_oo * lambda_oo)``); pairs are drawn
uniformly within the cell and collided until the counter passes the
global time.  The per-cell sequential loop is intrinsic to the method --
exactly why it resists fine-grained parallelism -- so the emulation
keeps it as an explicit loop over cells with an inner counter loop,
vectorizing only the within-collision arithmetic.
"""

from __future__ import annotations

import numpy as np

from repro.constants import DT
from repro.core.collision import collide_pairs
from repro.core.particles import ParticleArrays
from repro.errors import ConfigurationError
from repro.physics.freestream import Freestream


class BirdTimeCounter:
    """Bird's per-cell time-counter scheme.

    Parameters
    ----------
    freestream:
        Supplies the Maxwell-molecule collision-rate anchor
        ``nu_oo = c_bar_oo / lambda_oo`` at density ``n_oo``.
    max_collisions_per_cell:
        Safety valve against runaway counters in nearly empty cells.
    """

    name = "bird-time-counter"

    def __init__(
        self, freestream: Freestream, max_collisions_per_cell: int = 10_000
    ) -> None:
        if freestream.is_near_continuum:
            raise ConfigurationError(
                "Bird's counter needs a finite mean free path"
            )
        self.freestream = freestream
        self.max_collisions_per_cell = max_collisions_per_cell
        # Maxwell molecules: sigma_T * g is velocity-independent.
        # Anchor: per-particle collision rate at freestream density is
        # c_bar / lambda, so sigma_T g = c_bar / (lambda * n_oo).
        self._sigma_g = freestream.mean_speed / (
            freestream.lambda_mfp * freestream.density
        )

    def collide_step(
        self, particles: ParticleArrays, n_cells: int, rng: np.random.Generator
    ) -> int:
        """Advance every cell's counter through one global time step."""
        cell = particles.cell
        order = np.argsort(cell, kind="stable")
        sorted_cells = cell[order]
        # Per-cell slices via the run-length boundaries.
        boundaries = np.flatnonzero(
            np.diff(np.concatenate(([-1], sorted_cells)))
        )
        starts = boundaries
        ends = np.concatenate((boundaries[1:], [sorted_cells.size]))
        total = 0
        for s, e in zip(starts, ends):
            total += self._collide_cell(particles, order[s:e], rng)
        return total

    def _collide_cell(
        self,
        particles: ParticleArrays,
        members: np.ndarray,
        rng: np.random.Generator,
    ) -> int:
        """Counter loop for one cell (the intrinsically serial part)."""
        n_c = members.size
        if n_c < 2:
            return 0
        density = float(n_c)  # unit cell volume
        delta_t = 2.0 / (n_c * density * self._sigma_g)
        # Number of counter advances needed to pass the global time,
        # with the fractional remainder resolved probabilistically.
        needed = DT / delta_t
        n_target = int(needed) + (1 if rng.random() < needed % 1.0 else 0)
        n_target = min(n_target, self.max_collisions_per_cell)
        # Collisions happen in rounds of *disjoint* random pairs: each
        # round re-deals the cell so sequential collisions see their
        # predecessors' outcomes (rounds are ordered; pairs within a
        # round touch distinct molecules, so batching them is exact).
        done = 0
        while done < n_target:
            deal = rng.permutation(members)
            k = min(n_target - done, n_c // 2)
            firsts = deal[0 : 2 * k : 2]
            seconds = deal[1 : 2 * k : 2]
            collide_pairs(particles, firsts, seconds, rng=rng)
            done += k
        return done
