"""The paper's contribution: the fine-grained parallel DSMC algorithm.

One time step comprises four sub-steps (paper, "Description of
Algorithm"):

1. collisionless motion of particles      (:mod:`~repro.core.motion`)
2. enforcement of boundary conditions     (:mod:`~repro.core.boundary`)
3. selection of collision partners        (:mod:`~repro.core.cells`,
   :mod:`~repro.core.sortstep`, :mod:`~repro.core.pairing`,
   :mod:`~repro.core.selection`)
4. collision of selected partners         (:mod:`~repro.core.collision`,
   :mod:`~repro.core.permutation`)

:mod:`~repro.core.simulation` assembles them into the wind-tunnel driver
with the reservoir (:mod:`~repro.core.reservoir`) and macroscopic
sampling (:mod:`~repro.core.sampling`); what a cell is -- a unit
square, or the unit cube of a z-periodic slab -- is the configured
domain's business (:mod:`repro.geometry.domain3d`).  One step runs
both engines: the float64 reference and, with three fixed-point kernels
swapped into its counting path, the CM-2 emulation engine with cost
accounting (:mod:`~repro.core.engine_cm`).
"""

from repro.core.particles import ParticleArrays
from repro.core.simulation import Simulation, SimulationConfig, StepDiagnostics
from repro.core.surface import SurfaceSampler
from repro.core.history import RunHistory, run_with_history

__all__ = [
    "ParticleArrays",
    "Simulation",
    "SimulationConfig",
    "StepDiagnostics",
    "SurfaceSampler",
    "RunHistory",
    "run_with_history",
]
