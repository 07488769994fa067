"""Cell indexing and randomized sort keys (sub-step 3, part 1).

"Once the particles have been moved and all the boundary conditions
enforced, each particle computes its occupying cell index."  Here
the step indexes before the boundaries, which re-index the rows they
write.

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
from repro.core.particles import ParticleArrays, pooled
from repro.errors import ConfigurationError


def assign_cells(particles: ParticleArrays, domain) -> None:
    """Recompute every particle's flattened cell index, in place.

    ``domain`` says which position columns make up the index
    (``domain.cell_axes``: x, y for a :class:`Domain`, plus z for a
    :class:`repro.geometry.domain3d.Domain3D`).  Scratch-enabled
    populations keep the cell column bound to its capacity buffer, so
    the indices are written through the existing view instead of
    rebinding the attribute to a fresh array.
    """
    if particles.cell.shape != particles.x.shape:
        particles.cell = np.empty(particles.n, dtype=np.int64)
    index_rows(particles, domain)


def index_rows(particles: ParticleArrays, domain, rows=slice(None)) -> None:
    """Recompute the cell index of ``rows`` (a slice or row array): the
    moved population once, then what a boundary, a refill or a
    migration writes.

    One digit at a time (Horner) in two pooled int32 buffers (a grid
    under 2**31 cells): truncate toward zero, then clip.  Any position
    outside the tunnel, NaN and infinities included, lands in column 0
    or nx - 1 or row 0 or ny - 1; inside, truncation is floor.
    """
    (coords, extent), *lower = [
        (c[rows], extent) for c, extent in domain.cell_axes(particles)
    ]
    m = coords.shape[0]
    work = pooled(particles.scratch, "cells_digits", 2 * m, np.int32)
    acc, digit = work[:m], work[m:]
    np.copyto(acc, coords, casting="unsafe")
    np.clip(acc, 0, extent - 1, out=acc)
    for coords, extent in lower:
        np.copyto(digit, coords, casting="unsafe")
        np.clip(digit, 0, extent - 1, out=digit)
        acc *= extent
        acc += digit
    particles.cell[rows] = acc


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
