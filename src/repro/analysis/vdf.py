"""Velocity-distribution-function probes.

Macroscopic fields cannot distinguish a true kinetic shock from a
smeared fluid one; the *velocity distribution* inside the front can.
Kinetic theory (Mott-Smith) describes a shock interior as a bimodal
mixture of the upstream and downstream Maxwellians -- exactly what a
particle method resolves for free and what no Navier-Stokes solver can.

:class:`VDFProbe` collects the velocities of every particle found inside
a spatial window at each sampled step, and exposes the histogram and
shape diagnostics (mean, variance, the bimodal-mixture variance test)
that the tests and examples use to exhibit the kinetic structure.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.core.particles import ParticleArrays
from repro.errors import ConfigurationError

_COMPONENTS = ("u", "v", "w")


class VDFProbe:
    """Accumulates a velocity component's samples inside a box.

    Parameters
    ----------
    x_range, y_range:
        The spatial window (cell widths).
    component:
        Which translational component to record ("u", "v" or "w").
    max_samples:
        Memory guard; sampling stops silently once reached (the
        histogram is converged long before).
    """

    def __init__(
        self,
        x_range: Tuple[float, float],
        y_range: Tuple[float, float],
        component: str = "u",
        max_samples: int = 2_000_000,
    ) -> None:
        if component not in _COMPONENTS:
            raise ConfigurationError(
                f"component must be one of {_COMPONENTS}"
            )
        if x_range[1] <= x_range[0] or y_range[1] <= y_range[0]:
            raise ConfigurationError("degenerate probe window")
        if max_samples < 100:
            raise ConfigurationError("max_samples too small to be useful")
        self.x_range = x_range
        self.y_range = y_range
        self.component = component
        self.max_samples = max_samples
        self._chunks: List[np.ndarray] = []
        self._count = 0

    # -- accumulation -----------------------------------------------------

    def sample(self, particles: ParticleArrays) -> int:
        """Record the window's particles from one snapshot."""
        if self._count >= self.max_samples:
            return 0
        mask = (
            (particles.x >= self.x_range[0])
            & (particles.x < self.x_range[1])
            & (particles.y >= self.y_range[0])
            & (particles.y < self.y_range[1])
        )
        vals = getattr(particles, self.component)[mask]
        if vals.size:
            self._chunks.append(vals.copy())
            self._count += vals.size
        return int(vals.size)

    # -- results ------------------------------------------------------------

    @property
    def n_samples(self) -> int:
        return self._count

    def values(self) -> np.ndarray:
        """All collected samples as one array."""
        if not self._chunks:
            raise ConfigurationError("probe collected no samples")
        return np.concatenate(self._chunks)

    def moments(self) -> dict:
        """Mean, variance, skewness and excess kurtosis of the VDF."""
        x = self.values()
        mu = x.mean()
        c = x - mu
        m2 = (c**2).mean()
        if m2 == 0:
            raise ConfigurationError("degenerate (zero-variance) VDF")
        m3 = (c**3).mean()
        m4 = (c**4).mean()
        return {
            "mean": float(mu),
            "variance": float(m2),
            "skewness": float(m3 / m2**1.5),
            "excess_kurtosis": float(m4 / m2**2 - 3.0),
        }


def maxwellian_reference(
    c_mp: float, drift: float, samples: np.ndarray
) -> np.ndarray:
    """Maxwellian pdf evaluated on sample points (for overlays)."""
    sigma2 = c_mp**2 / 2.0
    return np.exp(-((samples - drift) ** 2) / (2 * sigma2)) / np.sqrt(
        2 * np.pi * sigma2
    )
