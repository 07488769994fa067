"""Field extraction helpers for the figure benches.

Figures 2/3/5/6 of the paper are *surface* (perspective) views of the
same density data as the contour plots; what they communicate is the
shape of the density surface in specific windows: the full tunnel (wake
shock visible or washed out) and the stagnation region by the wedge
(approach to the theoretical post-shock rise).  These helpers cut those
windows and summarize them so the benches can print comparable numbers
and dump the raw surfaces for inspection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.geometry.domain import Domain
from repro.geometry.wedge import Wedge


@dataclass(frozen=True)
class Window:
    """A rectangular cell-index window of a field."""

    i_lo: int
    i_hi: int
    j_lo: int
    j_hi: int

    def extract(self, field: np.ndarray) -> np.ndarray:
        """Slice the window out of a full-domain field."""
        return field[self.i_lo : self.i_hi, self.j_lo : self.j_hi]


def stagnation_window(wedge: Wedge, domain: Domain, pad: float = 6.0) -> Window:
    """The figure 3/6 window: the region by the wedge face.

    Covers from ``pad`` cells upstream of the leading edge to the
    corner, floor to a little above the corner height.
    """
    i_lo = max(int(wedge.x_leading - pad), 0)
    i_hi = min(int(wedge.x_trailing + 1), domain.nx)
    j_hi = min(int(wedge.height + pad), domain.ny)
    if i_hi <= i_lo or j_hi <= 0:
        raise ConfigurationError("degenerate stagnation window")
    return Window(i_lo=i_lo, i_hi=i_hi, j_lo=0, j_hi=j_hi)


def wake_window(wedge: Wedge, domain: Domain, clearance: float = 2.0) -> Window:
    """The wake region behind the back face (figure 2/5's far field)."""
    i_lo = min(int(wedge.x_trailing + clearance), domain.nx - 2)
    j_hi = min(int(wedge.height + 2), domain.ny)
    return Window(i_lo=i_lo, i_hi=domain.nx, j_lo=0, j_hi=j_hi)


@dataclass(frozen=True)
class SurfaceSummary:
    """Scalar description of a density-surface window."""

    minimum: float
    maximum: float
    mean: float
    roughness: float  # RMS cell-to-cell jump: statistical noise proxy

    @classmethod
    def of(cls, window_field: np.ndarray) -> "SurfaceSummary":
        f = np.asarray(window_field, dtype=np.float64)
        if f.size == 0:
            raise ConfigurationError("empty window")
        diff_x = np.diff(f, axis=0)
        diff_y = np.diff(f, axis=1)
        rough = float(
            np.sqrt(
                (np.concatenate((diff_x.ravel(), diff_y.ravel())) ** 2).mean()
            )
        )
        return cls(
            minimum=float(f.min()),
            maximum=float(f.max()),
            mean=float(f.mean()),
            roughness=rough,
        )


def stagnation_rise_profile(
    rho: np.ndarray,
    wedge: Wedge,
    offsets: Tuple[float, ...] = (1.0, 2.0, 3.0, 5.0),
    chord_fraction: float = 0.75,
) -> np.ndarray:
    """Density sampled at fixed normal offsets off the ramp surface.

    Figure 3's subject: "the approach that the simulation takes to the
    theoretical rise in density behind the shock."  Samples the field at
    points displaced along the ramp normal from the surface point at
    ``chord_fraction`` of the ramp (default 75%, where the shock layer
    is thick enough that small offsets stay inside it; the ramp normal
    leans upstream, so large offsets or forward stations would poke
    through the shock into the freestream).  A converged near-continuum
    run rises toward the R-H plateau as the offset leaves the cut-cell
    band.
    """
    if not 0.0 < chord_fraction < 1.0:
        raise ConfigurationError("chord_fraction must be in (0, 1)")
    xm = wedge.x_leading + chord_fraction * wedge.base
    ym = wedge.ramp_height_at(xm)
    nx_hat, ny_hat = wedge.ramp_normal
    out = []
    for d in offsets:
        px, py = xm + d * nx_hat, ym + d * ny_hat
        i, j = int(px), int(py)
        i = min(max(i, 0), rho.shape[0] - 1)
        j = min(max(j, 0), rho.shape[1] - 1)
        out.append(rho[i, j])
    return np.asarray(out)
