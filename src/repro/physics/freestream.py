"""Freestream conditions in the Baganoff normalization.

Everything the simulation needs to know about the oncoming stream is
bundled in :class:`Freestream`:

* the Mach number (the paper validates at Mach 4),
* the thermal velocity scale ``c_mp`` = most probable speed in *cell
  widths per time step* (sets how fast the simulation moves through the
  grid; the motion/collision splitting of the Boltzmann equation wants
  particles to cross at most ~1 cell per step),
* the freestream mean free path ``lambda_mfp`` in cell widths
  (``0`` selects the paper's near-continuum limit where every candidate
  pair collides),
* the number density ``density`` in particles per cell area (sets the
  statistical quality; the paper runs ~75 particles/cell).

Derived quantities implement eqs. (3)-(4) of the paper (mean collision
time, freestream collision probability) plus the dimensionless groups
quoted for the rarefied run (Knudsen 0.02, Reynolds 600).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.constants import (
    DT,
    GAMMA,
    MAX_COLLISION_PROBABILITY,
    MEAN_TO_MOST_PROBABLE,
)
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Freestream:
    """Freestream state in normalized (cell width / time step) units.

    Parameters
    ----------
    mach:
        Freestream Mach number (> 0; hypersonic interest is M > 5, the
        paper validates at 4).
    c_mp:
        Most probable thermal speed, cell widths per time step.  The
        default 0.14 puts the Mach-4 bulk speed at ~0.47 cells/step and
        keeps the freestream collision probability inside the eq. (4)
        validity bound down to lambda = 0.5 cell widths.
    lambda_mfp:
        Freestream mean free path, cell widths.  0 means near-continuum
        (selection rule saturates at probability 1).
    density:
        Freestream number density, particles per cell area.
    gamma:
        Ratio of specific heats (7/5 for the diatomic model).
    """

    mach: float = 4.0
    c_mp: float = 0.14
    lambda_mfp: float = 0.5
    density: float = 32.0
    gamma: float = GAMMA

    def __post_init__(self) -> None:
        if self.mach <= 0:
            raise ConfigurationError(f"mach must be positive, got {self.mach}")
        if self.c_mp <= 0:
            raise ConfigurationError(f"c_mp must be positive, got {self.c_mp}")
        if self.lambda_mfp < 0:
            raise ConfigurationError(
                f"lambda_mfp must be non-negative, got {self.lambda_mfp}"
            )
        if self.density <= 0:
            raise ConfigurationError(
                f"density must be positive, got {self.density}"
            )
        if self.gamma <= 1:
            raise ConfigurationError(f"gamma must exceed 1, got {self.gamma}")

    # -- velocity scales ------------------------------------------------

    @property
    def sound_speed(self) -> float:
        """a = sqrt(gamma R T) = c_mp * sqrt(gamma / 2)."""
        return self.c_mp * math.sqrt(self.gamma / 2.0)

    @property
    def speed(self) -> float:
        """Bulk freestream speed U = M * a (cells per step, +x)."""
        return self.mach * self.sound_speed

    @property
    def mean_speed(self) -> float:
        """Mean thermal speed c_bar = (2/sqrt(pi)) c_mp (eq. (3)'s c)."""
        return MEAN_TO_MOST_PROBABLE * self.c_mp

    @property
    def rt(self) -> float:
        """R*T in normalized units (= c_mp^2 / 2)."""
        return self.c_mp**2 / 2.0

    # -- collision quantities --------------------------------------------

    @property
    def is_near_continuum(self) -> bool:
        """True in the paper's lambda = 0 validation limit."""
        return self.lambda_mfp == 0.0

    @property
    def mean_collision_time(self) -> float:
        """t_c,inf = 1 / (n sigma c_bar) = lambda / c_bar (eq. (3)).

        Infinite mean free path would make this infinite; the
        near-continuum limit makes it 0 (handled by the probability
        clamp).
        """
        if self.is_near_continuum:
            return 0.0
        return self.lambda_mfp / self.mean_speed

    @property
    def collision_probability(self) -> float:
        """P_c,inf = dt / t_c,inf (eq. (4)), clamped to 1 at continuum."""
        if self.is_near_continuum:
            return 1.0
        return min(1.0, DT / self.mean_collision_time)

    def check_selection_rule_validity(self) -> None:
        """Raise if P_c,inf violates the eq. (4) validity bound.

        The derivation of P_c = dt / t_c needs dt at least 3-4x smaller
        than the mean collision time so multiple collisions per step are
        negligible.  The near-continuum limit deliberately violates this
        (it is not a physical collision rate, it is the "collide
        everything" limit), so it is exempt.
        """
        if self.is_near_continuum:
            return
        if self.collision_probability > MAX_COLLISION_PROBABILITY:
            raise ConfigurationError(
                f"freestream collision probability "
                f"{self.collision_probability:.3f} exceeds the selection "
                f"rule validity bound {MAX_COLLISION_PROBABILITY:.3f}; "
                f"increase lambda_mfp or decrease c_mp"
            )

    # -- dimensionless groups ----------------------------------------------

    def knudsen(self, length: float) -> float:
        """Knudsen number lambda / L for a body of size L (cell widths)."""
        if length <= 0:
            raise ConfigurationError("length must be positive")
        return self.lambda_mfp / length

    def reynolds(self, length: float, viscosity_coefficient: float = 0.25) -> float:
        """Reynolds number U L / nu with kinetic viscosity nu = k c_bar lambda.

        First-order kinetic theory gives nu between ~0.25 and ~0.5
        c_bar*lambda depending on the molecular model and the level of
        the Chapman-Enskog expansion; the default 0.25 reproduces the
        paper's quoted Re = 600 for the Mach-4, lambda = 0.5, L = 25
        rarefied run to within ~1%.
        """
        if self.is_near_continuum:
            return math.inf
        if length <= 0:
            raise ConfigurationError("length must be positive")
        nu = viscosity_coefficient * self.mean_speed * self.lambda_mfp
        return self.speed * length / nu

    # -- convenience -----------------------------------------------------

    def drift_vector(self) -> tuple:
        """Bulk velocity as a 3-vector (stream along +x)."""
        return (self.speed, 0.0, 0.0)
