"""Molecular interaction models.

The paper simulates "ideal diatomic Maxwell molecules with three
translational and two rotational degrees of freedom".  Maxwell molecules
interact through an inverse-power-law potential with exponent
``alpha = 4``, for which the collision cross-section scales as
``g**(-4/alpha) = 1/g`` and the per-pair collision probability of the
McDonald-Baganoff selection rule (eq. (7))

    P_c / P_cinf = (n / n_inf) * (g / g_inf)**(1 - 4/alpha)

loses its relative-speed dependence entirely (eq. (8)) -- the property
that makes the fine-grained CM implementation particularly clean.

The paper's Future Work asks for generalized power-law interactions;
this module supports any ``alpha > 2`` (hard spheres are the
``alpha -> inf`` limit with exponent 1) plus a configurable number of
rotational degrees of freedom (0 for a monatomic gas, 2 for the paper's
diatomic; a crude vibration hook adds more).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.constants import MAXWELL_ALPHA, ROTATIONAL_DOF
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class MolecularModel:
    """An inverse-power-law molecule with internal degrees of freedom.

    Parameters
    ----------
    alpha:
        Inverse-power-law exponent (intermolecular force ~ r**-alpha).
        ``alpha = 4`` is a Maxwell molecule; ``alpha = math.inf`` is a
        hard sphere.  Must exceed 2 for a finite effective cross-section
        exponent.
    rotational_dof:
        Number of (fully excited, classical) internal degrees of
        freedom.  2 for the paper's diatomic model.  The collision
        algorithm's relative vector has ``3 + rotational_dof``
        components.
    mass:
        Molecular mass in simulation units (single-species: 1.0).
    internal_exchange_probability:
        Probability that a collision exchanges energy with the internal
        (rotational/vibrational) modes.  1.0 (default) reproduces the
        paper's model, where every collision mixes all five components;
        smaller values implement the Future Work "relaxation into
        vibrational energy": the internal modes equilibrate once per
        ``1 / p`` collisions (a Borgnakke-Larsen-style collision number
        Z = 1/p), while non-exchanging collisions still randomize the
        translational relative velocity and conserve energy exactly.
    name:
        Human-readable label.
    """

    alpha: float = MAXWELL_ALPHA
    rotational_dof: int = ROTATIONAL_DOF
    mass: float = 1.0
    internal_exchange_probability: float = 1.0
    name: str = "maxwell-diatomic"

    def __post_init__(self) -> None:
        if not self.alpha > 2:
            raise ConfigurationError(
                f"alpha must exceed 2 (got {self.alpha}); the selection "
                "rule's speed exponent 1 - 4/alpha diverges otherwise"
            )
        if self.rotational_dof < 0:
            raise ConfigurationError("rotational_dof must be >= 0")
        if self.mass <= 0:
            raise ConfigurationError("mass must be positive")
        if not 0.0 <= self.internal_exchange_probability <= 1.0:
            raise ConfigurationError(
                "internal_exchange_probability must be in [0, 1]"
            )

    # -- derived quantities -------------------------------------------------

    @property
    def speed_exponent(self) -> float:
        """Exponent of relative speed in the selection rule, 1 - 4/alpha.

        0 for Maxwell molecules (probability independent of g), 1 for
        hard spheres (probability proportional to g).
        """
        if math.isinf(self.alpha):
            return 1.0
        return 1.0 - 4.0 / self.alpha

    @property
    def is_maxwell(self) -> bool:
        """True when the speed dependence drops out (eq. (8))."""
        return self.speed_exponent == 0.0

    def speed_factor(self, g: np.ndarray, g_ref: float) -> np.ndarray:
        """Relative-speed factor ``(g / g_ref)**(1 - 4/alpha)`` of eq. (7).

        Vectorized over pair relative speeds ``g``.  Zero relative speed
        yields factor 0 for positive exponents (grazing pairs never
        collide for hard-sphere-like molecules) and is clamped to 0 for
        negative exponents (such pairs would have probability > 1, which
        the caller clamps anyway; returning 0 avoids division blowups
        on *exactly* coincident velocities, which carry no momentum
        exchange to perform).
        """
        expo = self.speed_exponent
        if expo == 0.0:
            return np.ones_like(np.asarray(g, dtype=np.float64))
        g = np.asarray(g, dtype=np.float64)
        if g_ref <= 0:
            raise ConfigurationError("g_ref must be positive")
        with np.errstate(divide="ignore", invalid="ignore"):
            factor = (g / g_ref) ** expo
        return np.where(g > 0, factor, 0.0)


def maxwell_molecule(rotational_dof: int = ROTATIONAL_DOF) -> MolecularModel:
    """The paper's molecule: Maxwell interaction, diatomic by default."""
    return MolecularModel(
        alpha=MAXWELL_ALPHA,
        rotational_dof=rotational_dof,
        name=f"maxwell-{rotational_dof}rot",
    )


def hard_sphere(rotational_dof: int = ROTATIONAL_DOF) -> MolecularModel:
    """Hard-sphere molecule (alpha -> infinity limit)."""
    return MolecularModel(
        alpha=math.inf,
        rotational_dof=rotational_dof,
        name=f"hard-sphere-{rotational_dof}rot",
    )


def vhs_like(alpha: float, rotational_dof: int = ROTATIONAL_DOF) -> MolecularModel:
    """A general inverse-power-law molecule (Future Work extension)."""
    return MolecularModel(
        alpha=alpha,
        rotational_dof=rotational_dof,
        name=f"ipl-{alpha:g}-{rotational_dof}rot",
    )
