"""Three-dimensional wind-tunnel domain (the Future Work extension).

"The code should also be extended to 3D."  The 3-D domain is the 2-D
tunnel extruded ``nz`` cells in z with a periodic span: the wedge
becomes an infinite prism, which makes the 2-D solution the exact
reference for the 3-D run (span-collapsed fields must match) -- the
natural validation for the added dimension.

The paper's processor-mapping discussion already anticipates 3-D: a
cells-to-processors mapping would need 26 serialized neighbour
exchanges; the particles-to-processors mapping is untouched by the
extra dimension (the cell index just gets a third digit).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.errors import GeometryError
from repro.geometry.domain import Domain


@dataclass(frozen=True)
class Domain3D:
    """An ``nx x ny x nz`` tunnel of unit cubes, periodic in z.

    Cell ``(i, j, k)`` flattens to ``(i * ny + j) * nz + k``, keeping
    the x-y part of the index compatible with the 2-D layout so
    span-collapsing is a division.
    """

    nx: int = 98
    ny: int = 64
    nz: int = 8

    kind = "slab"
    #: Particles carry a periodic ``z`` (see :class:`Domain`).
    has_span = True

    def __post_init__(self) -> None:
        if self.nx < 2 or self.ny < 2:
            raise GeometryError("domain must be at least 2x2 in x, y")
        if self.nz < 1:
            raise GeometryError("nz must be >= 1")

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny * self.nz

    @property
    def shape(self) -> Tuple[int, int, int]:
        return (self.nx, self.ny, self.nz)

    @property
    def width(self) -> float:
        return float(self.nx)

    @property
    def height(self) -> float:
        return float(self.ny)

    @property
    def depth(self) -> float:
        return float(self.nz)

    def xy_domain(self) -> Domain:
        """The x-y footprint as a 2-D domain (for shared geometry)."""
        return Domain(self.nx, self.ny)

    # -- indexing --------------------------------------------------------

    def cell_index(
        self, x: np.ndarray, y: np.ndarray, z: np.ndarray
    ) -> np.ndarray:
        """Flattened 3-D cell index of each point (clipped inside)."""
        i = np.clip(np.floor(x).astype(np.int64), 0, self.nx - 1)
        j = np.clip(np.floor(y).astype(np.int64), 0, self.ny - 1)
        k = np.clip(np.floor(z).astype(np.int64), 0, self.nz - 1)
        return (i * self.ny + j) * self.nz + k

    def cell_axes(self, particles) -> tuple:
        """``(coordinate column, cell count)`` per cell-index digit
        (see :meth:`repro.geometry.domain.Domain.cell_axes`)."""
        return (
            (particles.x, self.nx),
            (particles.y, self.ny),
            (particles.z, self.nz),
        )

    def open_volume_fractions(self, body=None) -> np.ndarray:
        """Gas-accessible fraction of every cell, ``(nx, ny, nz)``: the
        body is a prism, cutting every z-slab like the footprint."""
        vf = self.xy_domain().open_volume_fractions(body)
        return np.repeat(vf[:, :, None], self.nz, axis=2)
