"""Thermodynamic field analysis: temperature and Mach-number fields.

The paper validates on density, but the sampler accumulates full second
moments, so the reproduction can also check the *temperature* and
*Mach-number* structure against the Rankine-Hugoniot relations -- a
stricter test of the collision algorithm (density can be right while
the energy partition is wrong; temperature cannot).

All fields are derived from a :class:`repro.core.sampling.CellSampler`
in the Baganoff normalization (RT in cell-widths^2 / step^2).
"""

from __future__ import annotations

import numpy as np

from repro.core.sampling import CellSampler
from repro.physics.freestream import Freestream


def temperature_ratio_field(
    sampler: CellSampler, freestream: Freestream
) -> np.ndarray:
    """Translational temperature normalized by the freestream value."""
    rt = sampler.translational_temperature()
    return rt / freestream.rt


def mach_field(
    sampler: CellSampler,
    freestream: Freestream,
    floor_rt_fraction: float = 1e-3,
) -> np.ndarray:
    """Local Mach number |bulk velocity| / sqrt(gamma R T) per cell.

    Cells with vanishing temperature (empty or single-particle) are
    reported as 0 rather than inf.
    """
    u, v, w = sampler.mean_velocity()
    speed = np.sqrt(u**2 + v**2 + w**2)
    rt = sampler.translational_temperature()
    floor = freestream.rt * floor_rt_fraction
    sound = np.sqrt(freestream.gamma * np.maximum(rt, floor))
    mach = np.where(rt > floor, speed / sound, 0.0)
    return mach
