"""Cell indexing and randomized sort keys (sub-step 3, part 1).

"Once the particles have been moved and all the boundary conditions
enforced, each particle computes its occupying cell index."

The sort key is *not* the raw cell index: "the cell index of a particle
is scaled by some constant factor and, before sorting, a random number
less than the scale factor is added to it.  Now sorting the particles no
longer preserves the relative ordering within a cell and there is
confidence in the statistical randomness of the collision candidate
pairs."  Without this mixing the same even/odd partners collide
repeatedly, producing correlated velocity distributions -- ablation
bench ABL1 measures exactly that.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.constants import DEFAULT_SORT_SCALE
from repro.core.particles import ParticleArrays
from repro.errors import ConfigurationError


def assign_cells(particles: ParticleArrays, domain) -> None:
    """Recompute every particle's flattened cell index, in place.

    ``domain`` says which position columns make up the index
    (``domain.cell_axes``: x, y for a :class:`Domain`, plus z for a
    :class:`repro.geometry.domain3d.Domain3D`).  Scratch-enabled
    populations keep the cell column bound to its ping-pong buffer, so
    the indices are written through the existing view instead of
    rebinding the attribute to a fresh array.
    """
    axes = domain.cell_axes(particles)
    if (
        particles.scratch is not None
        and particles.cell.shape == particles.x.shape
    ):
        # Allocation-free indexing, one digit at a time (Horner) through
        # a pooled int64 buffer.  The unsafe copyto truncates toward
        # zero, which equals floor for the non-negative coordinates
        # boundary enforcement guarantees (and stray negatives clip to
        # cell 0 either way, exactly as floor-then-clip would).
        cell = particles.cell
        digit = particles.scratch.array("cells_digit", particles.n, np.int64)
        (coords, extent), *lower = axes
        np.copyto(cell, coords, casting="unsafe")
        np.clip(cell, 0, extent - 1, out=cell)
        for coords, extent in lower:
            np.copyto(digit, coords, casting="unsafe")
            np.clip(digit, 0, extent - 1, out=digit)
            cell *= extent
            cell += digit
    else:
        particles.cell = domain.cell_index(*(coords for coords, _ in axes))


def randomized_sort_keys(
    cell: np.ndarray,
    rng: Optional[np.random.Generator] = None,
    scale: int = DEFAULT_SORT_SCALE,
    mix_bits: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Scaled cell index plus a sub-scale random offset.

    ``key = cell * scale + U{0..scale-1}``.  Integer-dividing a key by
    ``scale`` recovers the cell, while the low digits shuffle the
    intra-cell order between steps.

    ``mix_bits`` lets the CM engine supply its "quick & dirty"
    low-order-bit random numbers instead of a generator draw (the paper:
    "it is used during the sort to enhance mixing").

    ``scale = 1`` disables the mixing (the ablation configuration).
    """
    cell = np.asarray(cell)
    if scale < 1:
        raise ConfigurationError(f"scale must be >= 1, got {scale}")
    if cell.size and cell.min() < 0:
        raise ConfigurationError("cell indices must be non-negative")
    if scale == 1:
        return cell.astype(np.int64)
    if mix_bits is not None:
        offs = np.asarray(mix_bits).astype(np.int64) % scale
        if offs.shape != cell.shape:
            raise ConfigurationError("mix_bits must match cell shape")
    else:
        if rng is None:
            raise ConfigurationError("need rng or mix_bits when scale > 1")
        offs = rng.integers(0, scale, size=cell.shape)
    return cell.astype(np.int64) * scale + offs


def cell_populations(cell: np.ndarray, n_cells: int) -> np.ndarray:
    """Histogram of particles per cell (length ``n_cells``)."""
    cell = np.asarray(cell)
    if cell.size and (cell.min() < 0 or cell.max() >= n_cells):
        raise ConfigurationError("cell index out of range")
    return np.bincount(cell, minlength=n_cells)
