"""Bird's no-time-counter (NTC) scheme -- the later standard.

The paper compares against Bird's *time counter* (the state of the art
in 1988).  Bird replaced it soon after with the **no-time-counter**
scheme that modern DSMC codes (SPARTA, dsmcFoam, Bird's own DS2V) use:
per cell, a majorant number of candidate pairs

    N_cand = 1/2 * N * (N-1) * F_N * (sigma g)_max * dt / V_cell

is drawn, and each candidate collides with probability
``sigma g / (sigma g)_max``.  Unlike the time counter it needs no
per-cell serial loop (all candidates are independent), and unlike the
McDonald-Baganoff rule it draws a *variable* number of pairs per cell
with replacement.

Included as the bridge between the paper's incumbent and the paper's
contribution: the ablation suite can show all three selection schemes
agree on the physics while differing exactly where the paper says they
do (parallel granularity, conservation, fluctuation sensitivity).

For Maxwell molecules ``sigma g`` is constant, so the acceptance
probability is 1 and NTC degenerates to drawing a Poisson-binomial
number of always-accepted pairs -- the cleanest possible comparison
against the pairwise selection rule's fixed N/2 candidates.
"""

from __future__ import annotations

import numpy as np

from repro.constants import DT
from repro.core.collision import collide_pairs
from repro.core.particles import ParticleArrays
from repro.errors import ConfigurationError
from repro.physics.freestream import Freestream
from repro.physics.molecules import MolecularModel, maxwell_molecule


class BirdNTC:
    """Bird's no-time-counter selection (majorant-frequency scheme)."""

    name = "bird-ntc"

    def __init__(
        self,
        freestream: Freestream,
        model: MolecularModel = None,
        majorant_factor: float = 1.5,
    ) -> None:
        if freestream.is_near_continuum:
            raise ConfigurationError("NTC needs a finite mean free path")
        if majorant_factor < 1.0:
            raise ConfigurationError("majorant factor must be >= 1")
        self.freestream = freestream
        self.model = model or maxwell_molecule()
        self.majorant_factor = majorant_factor
        # Maxwell molecules: sigma g = c_bar / (lambda n_inf), constant.
        self._sigma_g_ref = freestream.mean_speed / (
            freestream.lambda_mfp * freestream.density
        )

    def collide_step(
        self, particles: ParticleArrays, n_cells: int, rng: np.random.Generator
    ) -> int:
        """Draw majorant candidates per cell; accept by sigma-g ratio."""
        n = particles.n
        if n < 2:
            return 0
        cell = particles.cell
        counts = np.bincount(cell, minlength=n_cells)

        # Majorant candidates per cell (unit cell volume, F_N = 1):
        # 1/2 N (N-1) (sigma g)_max dt, fractional part resolved
        # probabilistically.
        sig_max = self._sigma_g_ref * self.majorant_factor
        expected = 0.5 * counts * np.maximum(counts - 1, 0) * sig_max * DT
        n_cand = expected.astype(np.int64)
        n_cand += rng.random(n_cells) < (expected - n_cand)

        # Draw candidate pairs per cell (with replacement, as NTC does).
        order = np.argsort(cell, kind="stable")
        starts = np.zeros(n_cells, dtype=np.int64)
        np.cumsum(counts[:-1], out=starts[1:])

        cells_with = np.flatnonzero((n_cand > 0) & (counts >= 2))
        total = 0
        firsts_all, seconds_all = [], []
        for c in cells_with:
            k = int(n_cand[c])
            base = starts[c]
            i = rng.integers(0, counts[c], size=k)
            j = rng.integers(0, counts[c], size=k)
            ok = i != j
            a = order[base + i[ok]]
            b = order[base + j[ok]]
            if self.model.is_maxwell:
                # sigma g is constant: acceptance = 1 / majorant factor.
                acc = rng.random(a.size) < 1.0 / self.majorant_factor
            else:
                du = particles.u[a] - particles.u[b]
                dv = particles.v[a] - particles.v[b]
                dw = particles.w[a] - particles.w[b]
                g = np.sqrt(du * du + dv * dv + dw * dw)
                g_ref = np.sqrt(2.0) * self.freestream.mean_speed
                ratio = self.model.speed_factor(g, g_ref) / self.majorant_factor
                acc = rng.random(a.size) < ratio
            firsts_all.append(a[acc])
            seconds_all.append(b[acc])
        if not firsts_all:
            return 0
        firsts = np.concatenate(firsts_all)
        seconds = np.concatenate(seconds_all)

        # NTC draws with replacement, so a particle can appear in two
        # accepted pairs in one step; collisions must then apply
        # sequentially.  Batch the disjoint majority, loop the overlap.
        total += _collide_with_overlaps(particles, firsts, seconds, rng)
        return total


def _collide_with_overlaps(
    particles: ParticleArrays,
    firsts: np.ndarray,
    seconds: np.ndarray,
    rng: np.random.Generator,
) -> int:
    """Apply collisions whose pairs may share particles.

    Greedy rounds: each round takes the not-yet-seen-this-round pairs
    (disjoint by construction) and batches them; repeats until all
    pairs applied.  Order within the original draw is preserved across
    rounds only approximately -- acceptable, since NTC's with-
    replacement draw has no canonical order either.
    """
    n_done = 0
    remaining = np.ones(firsts.size, dtype=bool)
    while remaining.any():
        seen = set()
        take = []
        for idx in np.flatnonzero(remaining):
            a, b = int(firsts[idx]), int(seconds[idx])
            if a in seen or b in seen:
                continue
            seen.add(a)
            seen.add(b)
            take.append(idx)
        take = np.asarray(take, dtype=np.int64)
        collide_pairs(particles, firsts[take], seconds[take], rng=rng)
        n_done += take.size
        remaining[take] = False
    return n_done
