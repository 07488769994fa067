"""Three-dimensional wind-tunnel driver (the Future Work extension).

Runs the identical algorithm in a z-periodic slab: the wedge is an
infinite prism, particles carry a z position advanced by their (already
3-D) w velocity, cells are unit cubes, and the collision half of the
step is the shared :func:`repro.core.simulation.collision_stage` on the
paper-faithful counting kernel -- one block whose cells happen to be
cubes (it never looked at positions beyond the cell index, which the
domain object computes).

Validation built into the design: span-collapsing the 3-D solution must
reproduce the 2-D solution of the same x-y configuration (the
integration tests check the shock angle and density ratio match).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.constants import DEFAULT_SORT_SCALE
from repro.core.boundary import WindTunnelBoundaries
from repro.core.cells import assign_cells
from repro.core.reservoir import Reservoir
from repro.core.sampling import CellSampler
from repro.core.simulation import collision_stage, seed_flow_particles
from repro.errors import ConfigurationError
from repro.geometry.domain3d import Domain3D
from repro.geometry.wedge import Wedge
from repro.physics.freestream import Freestream
from repro.physics.molecules import MolecularModel, maxwell_molecule
from repro.rng import SeedLike, make_rng


@dataclass(frozen=True)
class Simulation3DConfig:
    """Configuration of a 3-D slab run.

    ``freestream.density`` is particles per unit *cube*; the span is
    periodic, so the 2-D solution at the same areal density
    (``density * nz`` per x-y column) is the reference.
    """

    domain: Domain3D = field(default_factory=Domain3D)
    freestream: Freestream = field(default_factory=Freestream)
    wedge: Optional[Wedge] = field(default_factory=Wedge)
    model: MolecularModel = field(default_factory=maxwell_molecule)
    sort_scale: int = DEFAULT_SORT_SCALE
    plunger_trigger: float = 4.0
    reservoir_fraction: float = 0.1
    reservoir_mix_rounds: int = 1
    seed: SeedLike = None

    def __post_init__(self) -> None:
        if self.wedge is not None:
            self.wedge.validate_in(self.domain.xy_domain())
        self.freestream.check_selection_rule_validity()


class Simulation3D:
    """The z-periodic slab wind tunnel."""

    def __init__(self, config: Simulation3DConfig) -> None:
        self.config = config
        self.rng = make_rng(config.seed)
        self.step_count = 0
        dom = config.domain

        xy = dom.xy_domain()
        vf_xy = xy.open_volume_fractions(config.wedge)
        #: Open volume fraction per 3-D cell: the prism cuts every
        #: z-slab identically.
        self.volume_fractions_xy = vf_xy
        self._vf3_flat = np.repeat(vf_xy.reshape(-1), dom.nz)

        # Boundary machinery is shared with 2-D (x-y walls + plunger);
        # z periodicity is applied separately each step.
        self.boundaries = WindTunnelBoundaries(
            domain=xy,
            freestream=config.freestream,
            wedge=config.wedge,
            plunger_trigger=config.plunger_trigger,
            span_depth=dom.depth,
        )
        self.reservoir = Reservoir(
            config.freestream, rotational_dof=config.model.rotational_dof
        )
        # The 2-D seeding recipe on the slab's open volume (exhausted
        # wedge rejection raises there), then uniform span positions.
        self.particles = seed_flow_particles(config, self.rng, self._vf3_flat)
        self.particles.z = self.rng.uniform(
            0.0, dom.depth, size=self.particles.n
        )
        self.reservoir.deposit(
            self.rng, int(round(config.reservoir_fraction * self.particles.n))
        )
        #: Span-collapsed sampler: time averages accumulate on the x-y
        #: grid (the 3-D field's z-average, which is also the 2-D
        #: reference field).
        self.sampler = CellSampler(xy, vf_xy)
        assign_cells(self.particles, dom)

    # -- stepping ------------------------------------------------------------

    def step(self, sample: bool = False) -> dict:
        """Advance one 3-D time step; returns a diagnostics dict."""
        cfg = self.config
        dom = cfg.domain
        parts = self.particles

        # 1) Collisionless motion, now including z.
        parts.x += parts.u
        parts.y += parts.v
        parts.z = dom.wrap_z(parts.z + parts.w)

        # 2) Boundaries: x-y walls/wedge/plunger/sink (shared code);
        #    injected particles get uniform span positions.
        parts, bstats = self.boundaries.apply_rebuilding(
            parts, self.reservoir, self.rng
        )
        if bstats.n_injected_upstream:
            fresh = slice(parts.n - bstats.n_injected_upstream, parts.n)
            parts.z[fresh] = self.rng.uniform(
                0.0, dom.depth, size=bstats.n_injected_upstream
            )

        # 3+4) The collision half of the step in 3-D cells: the shared
        #    stage on the counting kernel (sort, even/odd pairs,
        #    selection rule, collision).
        self.particles = parts
        stage = collision_stage(parts, cfg, self._vf3_flat, self.rng, None)

        if cfg.reservoir_mix_rounds:
            self.reservoir.mix(self.rng, rounds=cfg.reservoir_mix_rounds)

        self.step_count += 1
        if sample:
            # Span-collapsed accumulation on the x-y grid.
            saved = parts.cell
            parts.cell = dom.collapse_to_xy(saved)
            self.sampler.accumulate(parts)
            parts.cell = saved

        return {
            "step": self.step_count,
            "n_flow": parts.n,
            "n_collisions": stage.n_collisions,
            "pairing_efficiency": stage.pairing_efficiency,
        }

    def run(self, n_steps: int, sample: bool = False) -> dict:
        """Run ``n_steps`` steps; returns the final diagnostics."""
        if n_steps <= 0:
            raise ConfigurationError("n_steps must be positive")
        out = {}
        for _ in range(n_steps):
            out = self.step(sample=sample)
        return out

    # -- results ------------------------------------------------------------

    def density_ratio_field(self) -> np.ndarray:
        """Span-averaged density / freestream density, shape (nx, ny).

        The sampler counts particles per x-y column; dividing by the
        span depth converts to per-unit-volume density comparable with
        ``freestream.density``.
        """
        per_column = self.sampler.number_density()
        return per_column / self.config.domain.depth / self.config.freestream.density
