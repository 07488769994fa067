"""Boundary-condition enforcement (sub-step 2).

The wind-tunnel boundaries of the paper:

* **Hard boundaries** -- solid impermeable barriers: the tunnel floor
  and ceiling and the wedge in the test section, implemented inviscid
  (specular reflection) so results compare directly with 2-D inviscid
  theory.
* **Soft downstream boundary** -- a sink: "all particles exiting
  downstream are removed from the simulation" (into the reservoir).
  "For physical consistency this constrains the downstream boundary to
  be supersonic."
* **Upstream plunger** -- on parallel architectures the upstream
  boundary is a hard wall "moving with the freestream until it crosses a
  predefined trigger point which causes the plunger to be withdrawn and
  enough new particles to be introduced to fill the void.  In this
  manner the introduction of new particles can be delayed an arbitrary
  number of time steps."

Reflections are resolved iteratively: a particle bounced off the ramp
can land below the floor (and vice versa at the wedge's leading-edge
corner), so the wall/wedge passes repeat until no particle remains
inside any solid, with a positional clamp as the (counted) last resort
for pathological corner cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.particles import ParticleArrays
from repro.core.reservoir import Reservoir
from repro.errors import ConfigurationError
from repro.geometry.domain import Domain
from repro.geometry.reflect import (
    reflect_adiabatic_axis,
    reflect_diffuse_axis,
    reflect_specular_axis,
)
from repro.geometry.wedge import Wedge
from repro.physics.freestream import Freestream
from repro.rng import block_streams

#: Supported tunnel-wall models.  "specular" is the paper's inviscid
#: boundary; "diffuse" (isothermal) and "adiabatic" are the no-slip
#: walls its Future Work calls for; "maxwell" blends specular and
#: diffuse with an accommodation coefficient (Maxwell's classical
#: gas-surface model, the standard DSMC wall).
WALL_MODELS = ("specular", "diffuse", "adiabatic", "maxwell")


def check_wall_model(wall_model: str, accommodation: float) -> None:
    """Raise unless ``wall_model`` is one of :data:`WALL_MODELS` and
    ``accommodation`` lies in [0, 1] (the config and the boundaries
    share this check, so a bad model fails where the config is built)."""
    if wall_model not in WALL_MODELS:
        raise ConfigurationError(
            f"wall_model must be one of {WALL_MODELS}, got {wall_model!r}"
        )
    if not 0.0 <= accommodation <= 1.0:
        raise ConfigurationError(
            f"accommodation must be in [0, 1], got {accommodation!r}"
        )


#: Maximum wall/wedge reflection passes before clamping.
MAX_REFLECTION_PASSES = 6


@dataclass
class PlungerState:
    """The moving upstream piston.

    Attributes
    ----------
    position:
        Current x of the plunger face (starts at 0).
    trigger:
        When the face passes this x, the plunger withdraws to 0 and the
        vacated slab refills from the reservoir.
    speed:
        Face speed, = freestream bulk speed ("moving with the
        freestream").
    """

    position: float
    trigger: float
    speed: float

    def __post_init__(self) -> None:
        if not 0.0 < self.trigger:
            raise ConfigurationError("trigger must be positive")
        if self.speed <= 0.0:
            raise ConfigurationError("plunger speed must be positive")
        if not 0.0 <= self.position <= self.trigger:
            raise ConfigurationError("plunger position outside [0, trigger]")


@dataclass(frozen=True)
class BoundaryStats:
    """Diagnostics from one boundary-enforcement sub-step."""

    n_reflected_walls: int
    n_reflected_wedge: int
    n_removed_downstream: int
    n_injected_upstream: int
    n_clamped: int
    plunger_reset: bool


class WindTunnelBoundaries:
    """Enforces all wind-tunnel boundary conditions on a population.

    Parameters
    ----------
    domain:
        The tunnel grid.
    freestream:
        Sets the plunger speed and the refill density.
    wedge:
        Optional body in the test section.
    plunger_trigger:
        x position (cell widths) at which the plunger withdraws;
        defaults to 4 cells, giving refills every ~trigger/U steps ("the
        introduction of new particles can be delayed an arbitrary number
        of time steps").
    """

    def __init__(
        self,
        domain: Domain,
        freestream: Freestream,
        wedge: Optional[Wedge] = None,
        plunger_trigger: float = 4.0,
        wall_model: str = "specular",
        wall_c_mp: Optional[float] = None,
        accommodation: float = 1.0,
        has_inlet: bool = True,
        has_outlet: bool = True,
    ) -> None:
        if wedge is not None:
            wedge.validate_in(domain)
        check_wall_model(wall_model, accommodation)
        self.domain = domain
        self.freestream = freestream
        self.wedge = wedge
        self.wall_model = wall_model
        #: Wall temperature handle for the isothermal diffuse model
        #: (defaults to the freestream temperature).  The wedge surface
        #: remains specular in all models -- the inviscid-body
        #: comparison is the validation anchor; no-slip walls apply to
        #: the tunnel floor and ceiling.
        self.wall_c_mp = wall_c_mp if wall_c_mp is not None else freestream.c_mp
        if self.wall_c_mp <= 0:
            raise ConfigurationError("wall_c_mp must be positive")
        #: Maxwell-model accommodation coefficient: the fraction of
        #: wall encounters re-emitted diffusely at the wall temperature
        #: (the rest reflect specularly).  0 degenerates to "specular",
        #: 1 to "diffuse"; only the "maxwell" model reads it.
        self.accommodation = accommodation
        #: Optional surface-load sampler; when set, wedge reflections
        #: deposit their impulses into it (armed per step by the driver
        #: so surface averages align with the field-sampling phase).
        self.surface_sampler = None
        #: Domain-sharded runs split the streamwise boundaries across
        #: workers: only the first shard owns the upstream plunger
        #: (``has_inlet``) and only the last shard owns the downstream
        #: sink (``has_outlet``).  Interior shards run with both False;
        #: their x-crossings are migrations handled by the exchange
        #: machinery, not boundary conditions.  Serial runs keep both.
        self.has_inlet = has_inlet
        self.has_outlet = has_outlet
        self.plunger = PlungerState(
            position=0.0, trigger=plunger_trigger, speed=freestream.speed
        )

    @classmethod
    def from_config(
        cls, config, has_inlet: bool = True, has_outlet: bool = True
    ) -> "WindTunnelBoundaries":
        """The boundaries a :class:`SimulationConfig` describes.

        A shard passes which streamwise ends it owns; every other
        setting is the config's.
        """
        return cls(
            domain=config.domain,
            freestream=config.freestream,
            wedge=config.wedge,
            plunger_trigger=config.plunger_trigger,
            wall_model=config.wall_model,
            accommodation=config.accommodation,
            has_inlet=has_inlet,
            has_outlet=has_outlet,
        )

    # -- main entry point ----------------------------------------------------

    def apply_rebuilding(
        self,
        particles: ParticleArrays,
        reservoir: Optional[Reservoir],
        rng: np.random.Generator,
    ) -> tuple:
        """Enforce all boundaries; returns ``(particles, stats)``.

        Order of enforcement follows the causal order within the step:
        moving-piston reflection, solid-surface reflections (iterated),
        downstream removal, then the plunger advance/withdraw-refill.

        One pass for any number of row blocks (``particles.starts``):
        ``rng`` is one stream per block
        (:func:`repro.rng.block_streams`; a bare generator is one
        block), and so is ``surface_sampler``.  ``reservoir`` (or
        ``None``, one block) declares as many blocks as the flow: block
        ``b``'s exits go to reservoir block ``b`` and its refill comes
        from there, drawn from stream ``b``.

        The population must be scratch-enabled: every surgery here
        (reflection, removal, refill) rewrites its own buffers in place.
        """
        streams = block_streams(rng)
        n_blocks = particles.n_blocks
        n_tanks = 1 if reservoir is None else reservoir.particles.n_blocks
        if n_tanks != n_blocks or len(streams) != n_blocks:
            raise ConfigurationError(
                f"{n_tanks} reservoir blocks and {len(streams)} streams "
                f"for {n_blocks} blocks"
            )
        scratch = particles.scratch
        if scratch is None:
            raise ConfigurationError(
                "apply_rebuilding needs a scratch-enabled population "
                "(ParticleArrays.enable_scratch)"
            )
        n_walls, n_wedge, n_clamped = self.reflect(
            particles, streams, self._surface_record(particles)
        )

        # 3) Soft downstream boundary: remove into the reservoir.
        n_removed = 0
        if self.has_outlet:
            exited = scratch.array("bnd_mask", particles.n, dtype=bool)
            np.greater_equal(particles.x, self.domain.width, out=exited)
            n_removed = int(np.count_nonzero(exited))
            if n_removed:
                # Backfill removal: O(exited), and the cell sort right
                # after this phase re-orders the population anyway.
                removed = particles.remove_inplace(exited)
                if reservoir is not None:
                    reservoir.deposit(streams, removed)

        # 4) Advance the plunger; withdraw and refill past the trigger.
        #    The refill count is deterministic and shared by the blocks;
        #    the withdrawn particles and their positions are per block.
        n_injected = 0
        reset = False
        if self.has_inlet:
            self.plunger.position += self.plunger.speed
            if self.plunger.position >= self.plunger.trigger:
                fresh = self.plunger_inflow(
                    reservoir, streams, particles.rotational_dof
                )
                if fresh is not None:
                    n_injected = fresh.n
                    particles.append_inplace(fresh)
                self.plunger.position = 0.0
                reset = True

        return particles, BoundaryStats(
            n_reflected_walls=n_walls,
            n_reflected_wedge=n_wedge,
            n_removed_downstream=n_removed,
            n_injected_upstream=n_injected,
            n_clamped=n_clamped,
            plunger_reset=reset,
        )

    def _surface_record(self, particles: ParticleArrays):
        """The reflections' ``record`` callback for ``surface_sampler``.

        With one sampler per block, a body pass's hits are split by
        block: ``rows`` is ascending, so each block's hits are one
        contiguous slice (``searchsorted`` on the block starts) in the
        order a run of that block alone would record them -- the
        ``np.add.at`` accumulation in each sampler is bitwise solo.
        """
        if self.surface_sampler is None:
            return None
        samplers = block_streams(self.surface_sampler)
        if len(samplers) != particles.n_blocks:
            raise ConfigurationError(
                f"{len(samplers)} surface samplers for "
                f"{particles.n_blocks} blocks"
            )
        if len(samplers) == 1:
            return lambda rows, *impulses: samplers[0].record(*impulses)
        starts = particles.starts

        def record(rows, x, du, dv, back) -> None:
            edges = np.searchsorted(rows, starts).tolist()
            for sampler, e0, e1 in zip(samplers, edges[:-1], edges[1:]):
                if e1 > e0:
                    sampler.record(x[e0:e1], du[e0:e1], dv[e0:e1], back[e0:e1])

        return record

    # -- the reflections ----------------------------------------------------

    def reflect(self, particles: ParticleArrays, streams, record=None) -> tuple:
        """Plunger face, then walls + body to a fixed point, in place.

        The elementwise half of the boundary phase on a scratch-enabled
        population, under any wall model and for any number of row
        blocks; returns ``(n_walls, n_wedge, n_clamped)``.  At steady
        state only a few percent of the population touches any
        boundary, so this scans everyone exactly once (pass 1) and
        afterwards tracks the *moved* subset: a reflection is the only
        way to (re)enter a solid, hence passes 2+ and the final clamp
        only need to look at particles moved by the previous pass.

        Only the floor and ceiling under a non-specular model draw, per
        crossing and per block (:meth:`_wall_step`): ``streams`` holds
        one stream per block.  ``record(rows, x, du, dv, back_face)``
        receives each body pass's surface hits; the ascending
        population ``rows`` let a blocked caller split them by block.
        """
        sc = particles.scratch
        n = particles.n
        x, y, u, v = particles.x, particles.y, particles.u, particles.v
        height = self.domain.height
        n_walls = 0
        n_wedge = 0
        n_clamped = 0

        # 1) Upstream plunger face: specular in the moving frame.
        mask = sc.array("bnd_mask", n, dtype=bool)
        if self.has_inlet:
            xp = self.plunger.position
            np.less(x, xp, out=mask)
            behind = np.flatnonzero(mask)
            if behind.size:
                x[behind] = 2.0 * xp - x[behind]
                u[behind] = 2.0 * self.plunger.speed - u[behind]
                n_walls += int(behind.size)

        # 2) Solid surfaces, iterated to a fixed point on the moved set.
        active: Optional[np.ndarray] = None  # None = scan everyone
        clean = False
        for _ in range(MAX_REFLECTION_PASSES):
            moved = []
            # Floor and ceiling.
            if active is None:
                m2 = sc.array("bnd_mask2", n, dtype=bool)
                np.less(y, 0.0, out=mask)
                np.greater(y, height, out=m2)
                np.logical_or(mask, m2, out=mask)
                off = np.flatnonzero(mask)
            else:
                ys = y[active]
                off = active[(ys < 0.0) | (ys > height)]
            if off.size:
                self._wall_step(particles, off, streams)
                n_walls += int(off.size)
                moved.append(off)
            # The wedge (specular), on the subset actually inside it.
            if self.wedge is not None:
                if active is None:
                    idx_in = np.flatnonzero(self.wedge.inside(x, y))
                else:
                    idx_in = active[self.wedge.inside(x[active], y[active])]
                if idx_in.size:
                    x0 = x[idx_in]
                    y0 = y[idx_in]
                    u0 = u[idx_in]
                    v0 = v[idx_in]
                    x1, y1, u1, v1, back, ramp = (
                        self.wedge.reflect_specular_report(x0, y0, u0, v0)
                    )
                    if record is not None:
                        hit = back | ramp
                        record(
                            idx_in[hit], x1[hit], u1[hit] - u0[hit],
                            v1[hit] - v0[hit], back[hit],
                        )
                    x[idx_in] = x1
                    y[idx_in] = y1
                    u[idx_in] = u1
                    v[idx_in] = v1
                    n_wedge += int(idx_in.size)
                    moved.append(idx_in)
            if not moved:
                clean = True
                break
            active = moved[0] if len(moved) == 1 else (
                np.unique(np.concatenate(moved))
            )
        if not clean and active is not None and active.size:
            n_clamped = self._clamp_subset(particles, active)
        return n_walls, n_wedge, n_clamped

    def _wall_step(
        self, particles: ParticleArrays, off: np.ndarray, streams
    ) -> None:
        """Floor, then ceiling, for the ascending rows ``off`` outside the gas.

        Specular walls fold every row at once and draw nothing.  The
        other models take each wall's crossers in turn -- the floor's,
        then the ceiling's once the floor has folded its own -- and
        re-emit each block's share from that block's stream, in
        ascending row order: the rows and draws a run of that block
        alone would make.
        """
        y, v = particles.y, particles.v
        height = self.domain.height
        if self.wall_model == "specular":
            ys = y[off]
            below = ys < 0.0
            ys[below] = -ys[below]
            above = ys > height
            ys[above] = 2.0 * height - ys[above]
            y[off] = ys
            v[off] = -v[off]
            return
        edges = particles.block_edges()
        for wall, side in ((0.0, "above"), (height, "below")):
            ys = y[off]
            crossed = off[ys < wall] if side == "above" else off[ys > wall]
            cuts = np.searchsorted(crossed, edges).tolist()
            for stream, c0, c1 in zip(streams, cuts[:-1], cuts[1:]):
                if c1 > c0:
                    self._reemit(particles, crossed[c0:c1], wall, side, stream)

    def _reemit(
        self,
        particles: ParticleArrays,
        rows: np.ndarray,
        wall: float,
        side: str,
        rng: np.random.Generator,
    ) -> None:
        """One block's crossers of one wall, under a non-specular model.

        Maxwell's model draws one uniform per crossing: with
        probability ``accommodation`` the particle re-emits diffusely at
        the wall temperature, otherwise it reflects specularly.
        """
        p = particles
        if self.wall_model == "maxwell":
            accommodated = rng.random(rows.size) < self.accommodation
            mirror = rows[~accommodated]
            if mirror.size:
                p.y[mirror], p.v[mirror] = reflect_specular_axis(
                    p.y[mirror], p.v[mirror], wall, side
                )
            rows = rows[accommodated]
            if not rows.size:
                return
        velocity = (p.u[rows], p.v[rows], p.w[rows])
        if self.wall_model == "adiabatic":
            y1, (u1, v1, w1), _ = reflect_adiabatic_axis(
                rng, p.y[rows], velocity, wall=wall, side=side, normal_axis=1
            )
        else:  # diffuse, or Maxwell's accommodated share
            y1, (u1, v1, w1), rot1, _ = reflect_diffuse_axis(
                rng, p.y[rows], velocity, p.rot[rows], wall=wall, side=side,
                normal_axis=1, wall_c_mp=self.wall_c_mp,
            )
            p.rot[rows] = rot1
        p.y[rows], p.u[rows], p.v[rows], p.w[rows] = y1, u1, v1, w1

    def _clamp_subset(
        self, particles: ParticleArrays, candidates: np.ndarray
    ) -> int:
        """Last-resort positional clamp for unresolved reflections.

        Extremely fast particles or corner geometry can defeat the
        bounded reflection iteration; such stragglers among
        ``candidates`` are snapped to the nearest open point (onto the
        body surface, just outside the solid).  The count is surfaced
        in the stats so runs can verify this stays negligible (tests
        assert it is rare).
        """
        x, y = particles.x, particles.y
        xs = x[candidates]
        ys = y[candidates]
        bad = (ys < 0.0) | (ys > self.domain.height)
        if self.wedge is not None:
            bad |= self.wedge.inside(xs, ys)
        idx = candidates[bad]
        if idx.size == 0:
            return 0
        y[idx] = np.clip(y[idx], 0.0, self.domain.height)
        if self.wedge is not None:
            still = self.wedge.inside(x[idx], y[idx])
            if np.any(still):
                sidx = idx[still]
                x[sidx], y[sidx] = self.wedge.project_out(x[sidx], y[sidx])
        return int(idx.size)

    def plunger_inflow(
        self,
        reservoir: Optional[Reservoir],
        rng,
        rotational_dof: int,
    ) -> Optional[ParticleArrays]:
        """Freestream particles for the void a withdrawn plunger leaves.

        Enough to fill ``[0, plunger position) x [0, H)`` -- times the
        depth of a span domain -- at freestream density (``None`` when
        that rounds to zero), for every block of ``reservoir``:
        withdrawn from it (sampled afresh without one, one block), then
        placed uniformly from the block's stream of ``rng``: x, y, then
        z when the domain has a span.  The result declares the
        reservoir's blocks; the caller appends them its own way.
        """
        streams = block_streams(rng)
        xp = self.plunger.position
        height = self.domain.height
        volume = xp * height * self.domain.depth
        n_new = int(round(self.freestream.density * volume))
        if n_new == 0:
            return None
        if reservoir is not None:
            fresh = reservoir.withdraw(streams, n_new)
        else:
            fresh = ParticleArrays.from_freestream(
                streams[0],
                n_new,
                self.freestream,
                x_range=(0.0, xp),
                y_range=(0.0, height),
                rotational_dof=rotational_dof,
                rectangular=True,
            )
        for b, stream in enumerate(streams):
            rows = slice(b * n_new, (b + 1) * n_new)
            fresh.x[rows] = stream.uniform(0.0, xp, size=n_new)
            fresh.y[rows] = stream.uniform(0.0, height, size=n_new)
            if self.domain.has_span:
                fresh.z[rows] = stream.uniform(0.0, self.domain.depth, size=n_new)
        return fresh
