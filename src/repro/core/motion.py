"""Collisionless motion of particles (sub-step 1).

Eq. (2) of the paper: with time normalized by the step,
``x_i^(n+1) = x_i^n + u_i``.  "The implementation of particle motion in
the particles-to-processors mapping is very straightforward and
perfectly load balanced.  All particles simply add their velocity
components to the appropriate position co-ordinate.  All processors are
active for this event."

The update is in place (one fused add per coordinate -- the guides'
"in-place operations" rule) and vectorized over the whole population.
"""

from __future__ import annotations

import numpy as np

from repro.core.particles import ParticleArrays


def advance(particles: ParticleArrays, domain=None) -> None:
    """Advance positions by one time step, in place.

    A ``domain`` with a span (:class:`repro.geometry.domain3d.Domain3D`)
    also advances ``z`` by ``w`` and wraps it into the periodic depth.
    Without one there is no z position; ``w`` still participates in
    collisions (three translational degrees of freedom).
    """
    particles.x += particles.u
    particles.y += particles.v
    if domain is not None and domain.has_span:
        particles.z += particles.w
        np.mod(particles.z, domain.depth, out=particles.z)
