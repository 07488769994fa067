"""Surface aerodynamics: pressure and drag from reflection impulses.

The paper's motivation is vehicle design (NASP, AOTVs), and the
quantity designers need from a DSMC code is the surface load.  In a
particle simulation it falls out of the boundary conditions for free:
every specular reflection transfers momentum ``-2 m c_n`` to the body,
so accumulating reflection impulses per surface strip over the
averaging phase gives the pressure distribution, and summing the x
component gives the (pressure) drag.

Validation: for the attached oblique shock, inviscid theory fixes the
ramp pressure at the post-shock static pressure
``p2 = p_inf * (1 + 2 gamma / (gamma + 1) (Mn^2 - 1))`` -- about
9.2 p_inf for the paper's Mach 4 / 30-degree case -- and the measured
impulse flux on a non-penetrating specular wall equals the gas static
pressure exactly (kinetic theory: flux of 2 m c_n over the incoming
half-Maxwellian is n m <c_n^2> = p).
"""

from __future__ import annotations

import math
import numpy as np

from repro.errors import ConfigurationError
from repro.geometry.wedge import Wedge
from repro.physics.freestream import Freestream

#: Accumulator attribute names of a :class:`SurfaceSampler` (cf.
#: :data:`repro.core.sampling.SAMPLER_FIELDS`).
SURFACE_FIELDS = ("_impulse_x", "_impulse_y", "_hits")


class SurfaceSampler:
    """Accumulates reflection impulses on the wedge surfaces.

    The ramp is divided into ``n_strips`` equal-x strips; the vertical
    back face is one additional panel.  :meth:`record` is called by the
    boundary machinery with the per-particle velocity changes of a
    reflection pass.

    All quantities are per unit span (2-D) in simulation units
    (m = 1, cell widths, time steps).
    """

    def __init__(self, wedge: Wedge, n_strips: int = 16) -> None:
        if n_strips < 1:
            raise ConfigurationError("n_strips must be >= 1")
        self.wedge = wedge
        self.n_strips = n_strips
        self._impulse_x = np.zeros(n_strips + 1)  # [-1] = back face
        self._impulse_y = np.zeros(n_strips + 1)
        self._hits = np.zeros(n_strips + 1, dtype=np.int64)
        self._steps = 0

    # -- accumulation -----------------------------------------------------

    def record(
        self,
        x: np.ndarray,
        du: np.ndarray,
        dv: np.ndarray,
        back_face: np.ndarray,
    ) -> None:
        """Add one reflection pass's impulses.

        Parameters
        ----------
        x:
            Post-reflection x positions of the reflected particles.
        du, dv:
            Velocity changes of the *particles*; the body receives the
            opposite impulse.
        back_face:
            Mask of reflections off the vertical back face (the rest
            bin onto the ramp strips).
        """
        x = np.asarray(x)
        if x.size == 0:
            return
        strip = np.clip(
            ((x - self.wedge.x_leading) / self.wedge.base * self.n_strips)
            .astype(np.int64),
            0,
            self.n_strips - 1,
        )
        strip = np.where(np.asarray(back_face), self.n_strips, strip)
        np.add.at(self._impulse_x, strip, -np.asarray(du))
        np.add.at(self._impulse_y, strip, -np.asarray(dv))
        np.add.at(self._hits, strip, 1)

    def end_step(self) -> None:
        """Mark the completion of one sampled time step."""
        self._steps += 1

    def reset(self) -> None:
        """Discard accumulated impulses (e.g. at end of transient)."""
        self._impulse_x[:] = 0.0
        self._impulse_y[:] = 0.0
        self._hits[:] = 0
        self._steps = 0

    # -- derived quantities ----------------------------------------------

    @property
    def steps(self) -> int:
        return self._steps

    def _require(self) -> None:
        if self._steps == 0:
            raise ConfigurationError("no steps recorded")

    def ramp_pressure(self) -> np.ndarray:
        """Normal pressure on each ramp strip (force / area / time).

        Projects the strip impulse onto the outward ramp normal and
        divides by strip area (strip length along the surface, unit
        span) and by the recorded steps.
        """
        self._require()
        nx, ny = self.wedge.ramp_normal
        strip_len = self.wedge.base / self.n_strips / math.cos(self.wedge.angle)
        # The body's impulse points *into* the surface; projecting onto
        # the inward normal (-n) makes compression positive.
        normal_impulse = -(
            self._impulse_x[:-1] * nx + self._impulse_y[:-1] * ny
        )
        return normal_impulse / strip_len / self._steps

    def back_face_pressure(self) -> float:
        """Pressure on the vertical base (the near-vacuum wake side)."""
        self._require()
        area = self.wedge.height
        return float(self._impulse_x[-1] / area / self._steps) * -1.0

    def drag(self) -> float:
        """Streamwise force on the body per step (pressure drag)."""
        self._require()
        return float(self._impulse_x.sum() / self._steps)

    def lift(self) -> float:
        """Transverse force on the body per step."""
        self._require()
        return float(self._impulse_y.sum() / self._steps)

    def hits_per_step(self) -> float:
        """Mean wall encounters per sampled step."""
        self._require()
        return float(self._hits.sum() / self._steps)

    # -- coefficients ------------------------------------------------------

    def pressure_coefficient(self, freestream: Freestream) -> np.ndarray:
        """Cp per ramp strip: (p - p_inf) / (1/2 rho_inf U^2)."""
        p_inf = freestream.density * freestream.rt
        q_inf = 0.5 * freestream.density * freestream.speed**2
        return (self.ramp_pressure() - p_inf) / q_inf

    def drag_coefficient(self, freestream: Freestream) -> float:
        """Cd referenced to the frontal (base-height) area."""
        q_inf = 0.5 * freestream.density * freestream.speed**2
        return self.drag() / (q_inf * self.wedge.height)


def oblique_shock_surface_pressure_ratio(
    mach: float, angle_deg: float, gamma: float
) -> float:
    """Theory target: ramp pressure / freestream pressure.

    Inviscid attached flow puts the post-shock static pressure on the
    ramp: ``p2/p1`` of the oblique shock.
    """
    from repro.physics import theory

    beta = theory.shock_angle(mach, math.radians(angle_deg), gamma)
    return theory.normal_shock_pressure_ratio(mach * math.sin(beta), gamma)
