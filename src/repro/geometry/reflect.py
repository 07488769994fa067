"""Wall reflection kernels.

The paper implements hard boundaries as **inviscid (specular)**
surfaces: "To simulate inviscid boundaries the particles are specularly
reflected from surfaces; this sort of boundary allows the direct
comparison of simulation results with 2D inviscid theoretical results."

The Future Work section asks for "no slip adiabatic and isothermal
walls"; :func:`reflect_diffuse_axis` implements the isothermal diffuse
(full accommodation) wall as that extension.

All kernels are vectorized over the rows they are handed and return
updated copies.  The boundary pass
(:meth:`repro.core.boundary.WindTunnelBoundaries.reflect`) hands them one
block's crossers of one wall, with that block's stream, and writes the
copies back in place; the draws are one set per crossing, in row order.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.errors import ConfigurationError


def reflect_specular_axis(
    pos: np.ndarray,
    vel: np.ndarray,
    wall: float,
    side: str,
) -> Tuple[np.ndarray, np.ndarray]:
    """Specularly reflect positions/velocities off an axis-aligned wall.

    ``side`` is which side of the wall the *gas* occupies:

    * ``"above"``: gas at ``pos >= wall``; points below mirror up.
    * ``"below"``: gas at ``pos <= wall``; points above mirror down.

    Mirrors the coordinate across the wall plane and flips the normal
    velocity of exactly the particles that had crossed.  Unaffected
    entries are returned unchanged, so callers may pass full columns.
    """
    pos = np.asarray(pos, dtype=np.float64)
    vel = np.asarray(vel, dtype=np.float64)
    if side == "above":
        crossed = pos < wall
    elif side == "below":
        crossed = pos > wall
    else:
        raise ConfigurationError(f"side must be 'above' or 'below', got {side!r}")
    new_pos = np.where(crossed, 2.0 * wall - pos, pos)
    new_vel = np.where(crossed, -vel, vel)
    return new_pos, new_vel


def reflect_diffuse_axis(
    rng: np.random.Generator,
    pos: np.ndarray,
    velocity_components: Tuple[np.ndarray, np.ndarray, np.ndarray],
    rotational: np.ndarray,
    wall: float,
    side: str,
    normal_axis: int,
    wall_c_mp: float,
) -> tuple:
    """Diffuse (isothermal, fully accommodating) wall reflection.

    Particles that crossed the wall are re-emitted with velocities drawn
    from the wall-temperature distributions (the paper's Future Work
    "no slip ... isothermal wall"):

    * normal component: flux (Rayleigh) distributed *into* the gas,
      ``|c_n| = c_w * sqrt(-ln U)`` with ``c_w = wall_c_mp / sqrt(2)``
      scaling,
    * tangential components: Maxwellian at the wall temperature with
      zero slip,
    * rotational components: Maxwellian at the wall temperature.

    Positions fold back across the wall plane (the sub-step travel after
    re-emission is not retraced -- standard first-order DSMC treatment).

    Returns ``(pos, (u, v, w), rotational, crossed_mask)``.
    """
    if wall_c_mp <= 0:
        raise ConfigurationError("wall_c_mp must be positive")
    if normal_axis not in (0, 1, 2):
        raise ConfigurationError("normal_axis must be 0, 1 or 2")
    pos = np.asarray(pos, dtype=np.float64)
    if side == "above":
        crossed = pos < wall
        direction = 1.0
    elif side == "below":
        crossed = pos > wall
        direction = -1.0
    else:
        raise ConfigurationError(f"side must be 'above' or 'below', got {side!r}")

    n = int(np.count_nonzero(crossed))
    comps = [np.array(c, dtype=np.float64, copy=True) for c in velocity_components]
    rot = np.array(rotational, dtype=np.float64, copy=True)
    new_pos = np.where(crossed, 2.0 * wall - pos, pos)
    if n == 0:
        return new_pos, tuple(comps), rot, crossed

    sigma = wall_c_mp / math.sqrt(2.0)
    # Normal component: flux-weighted magnitude into the gas.
    u_draw = rng.random(n)
    normal_speed = wall_c_mp * np.sqrt(-np.log1p(-u_draw))
    for axis in range(3):
        if axis == normal_axis:
            comps[axis][crossed] = direction * normal_speed
        else:
            comps[axis][crossed] = rng.normal(0.0, sigma, size=n)
    if rot.size:
        rot[crossed] = rng.normal(0.0, sigma, size=(n, rot.shape[1]))
    return new_pos, tuple(comps), rot, crossed


def reflect_adiabatic_axis(
    rng: np.random.Generator,
    pos: np.ndarray,
    velocity_components: Tuple[np.ndarray, np.ndarray, np.ndarray],
    wall: float,
    side: str,
    normal_axis: int,
) -> tuple:
    """Adiabatic diffuse (no-slip) wall reflection.

    The second no-slip variant of the paper's Future Work.  Particles
    that crossed are re-emitted in a *random* (cosine-weighted)
    direction into the gas with their translational speed preserved --
    full directional accommodation (no slip) with zero net energy
    exchange at the wall (adiabatic).  Rotational state is untouched.

    Returns ``(pos, (u, v, w), crossed_mask)``.
    """
    if normal_axis not in (0, 1, 2):
        raise ConfigurationError("normal_axis must be 0, 1 or 2")
    pos = np.asarray(pos, dtype=np.float64)
    if side == "above":
        crossed = pos < wall
        direction = 1.0
    elif side == "below":
        crossed = pos > wall
        direction = -1.0
    else:
        raise ConfigurationError(f"side must be 'above' or 'below', got {side!r}")

    comps = [np.array(c, dtype=np.float64, copy=True) for c in velocity_components]
    new_pos = np.where(crossed, 2.0 * wall - pos, pos)
    n = int(np.count_nonzero(crossed))
    if n == 0:
        return new_pos, tuple(comps), crossed

    speed = np.sqrt(sum(c[crossed] ** 2 for c in comps))
    # Cosine-weighted hemisphere about the wall normal (the equilibrium
    # effusion flux distribution of directions).
    z = np.sqrt(rng.random(n))           # cos(theta) ~ sqrt(U)
    phi = rng.random(n) * 2.0 * math.pi
    t_mag = np.sqrt(np.maximum(1.0 - z**2, 0.0))
    tangent_axes = [a for a in range(3) if a != normal_axis]
    comps[normal_axis][crossed] = direction * speed * z
    comps[tangent_axes[0]][crossed] = speed * t_mag * np.cos(phi)
    comps[tangent_axes[1]][crossed] = speed * t_mag * np.sin(phi)
    return new_pos, tuple(comps), crossed

