"""The wind-tunnel domain: a rectangular grid of unit square cells.

McDonald & Baganoff argue for "small, geometrically simple and similar
cells", which "leads to a rectangular grid (in two dimensions) of square
cells of unit normal width" -- exactly what this class provides.  The
paper's validation runs use a 98 x 64 grid.

Coordinates: x in [0, nx), y in [0, ny), cell (i, j) covers
[i, i+1) x [j, j+1).  The flattened cell index is ``i * ny + j`` so that
consecutive indices run along y -- matching the sort-based pairing's
preference for compact cells (any consistent flattening works; tests pin
this one).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.errors import GeometryError


@dataclass(frozen=True)
class Domain:
    """A 2-D wind tunnel of ``nx`` by ``ny`` unit cells.

    The third (z) dimension is periodic and unit deep: particles carry a
    z velocity (three translational degrees of freedom) but no z
    position in the 2-D configuration.
    """

    nx: int = 98
    ny: int = 64

    #: What a serialised config names this domain by.
    kind = "plane"
    #: No span: motion advances no ``z``, seeding and plunger refills
    #: draw none (:class:`repro.geometry.domain3d.Domain3D` has one).
    has_span = False
    #: z extent of a cell column (the volume behind a unit x-y area).
    depth = 1.0

    def __post_init__(self) -> None:
        if self.nx < 2 or self.ny < 2:
            raise GeometryError(
                f"domain must be at least 2x2 cells, got {self.nx}x{self.ny}"
            )

    def xy_domain(self) -> "Domain":
        """The x-y footprint fields are sampled on (a 2-D domain's own)."""
        return self

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.nx, self.ny)

    @property
    def width(self) -> float:
        return float(self.nx)

    @property
    def height(self) -> float:
        return float(self.ny)

    # -- cell indexing ----------------------------------------------------

    def cell_coords(self, x: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Cell (i, j) containing each point, clipped into the grid.

        Clipping puts every point outside the grid into an edge cell:
        the step indexes the moved population *before* enforcing the
        boundaries, which then test only the rows in edge cells
        (:attr:`repro.core.boundary.WindTunnelBoundaries.edge_cells`).
        """
        i = np.clip(np.floor(x).astype(np.int64), 0, self.nx - 1)
        j = np.clip(np.floor(y).astype(np.int64), 0, self.ny - 1)
        return i, j

    def cell_index(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Flattened cell index ``i * ny + j`` of each point."""
        i, j = self.cell_coords(x, y)
        return i * self.ny + j

    def cell_axes(self, particles) -> tuple:
        """``(coordinate column, cell count)`` per digit of the flattened
        cell index, most significant first.

        What :func:`repro.core.cells.index_rows` indexes a population
        through: the domain, not the caller, knows how many position
        columns a cell index has (:class:`Domain3D` adds ``z``).
        """
        return ((particles.x, self.nx), (particles.y, self.ny))

    def open_volume_fractions(self, body=None) -> np.ndarray:
        """Gas-accessible area fraction of every cell, shape ``(nx, ny)``.

        ``body``'s cut-cell field (the selection rule's and the
        sampler's fractional-volume allowance), or all ones for an
        empty tunnel.
        """
        if body is None:
            return np.ones(self.shape)
        return body.open_volume_fractions(self)

    # -- predicates -------------------------------------------------------
