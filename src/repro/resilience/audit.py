"""Runtime invariant auditing: catch silent corruption, loudly.

A production solver's worst failure mode is not a crash -- it is
quietly wrong numbers marching on for thousands of steps.  The
:class:`InvariantAuditor` runs O(N) checks over the *authoritative*
particle state at a configurable cadence.  The per-block checks are one
function of one block (:func:`audit_block`), run where the block lives:
the serial backend runs it once over the whole population (an
ensemble's R blocks included), and every shard worker runs it on its
own slab, inline or in its forked process (``ShardedBackend.audit``).
The auditor keeps only the global checks over the summed per-block
counts and energies.  Each check encodes a conservation or validity
property of the paper's algorithm:

* **count accounting** -- the flow population changes only through the
  boundary fluxes: ``N(t) = N(t0) + injected - removed`` exactly, since
  collisions are pairwise and migration conserves particles globally.
* **finite state** -- positions, velocities and rotational components
  are finite (NaN/inf is how a corrupted exchange payload propagates).
* **fixed-point range** -- positions inside the tunnel (and inside the
  periodic depth of a span domain) and velocity
  magnitudes below the Q8.23 representable bound; the CM-2 engine
  would overflow on anything outside it.
* **cell consistency** -- every particle's stored cell index equals
  the index recomputed from its position (the sort, pairing and
  selection all trust this column).
* **slab containment** (sharded) -- every particle sits inside its
  owner shard's x-slab; a violation means migration lost or
  teleported a particle.
* **channel conservation** (sharded) -- migration-channel counts are
  within ``[0, capacity]``; the sharded backend checks each shard's
  outgoing channels in the same round.
* **cached order** (incremental sort kernel) -- the order the last
  step paired and collided through, read from the sorter that built
  it (a forked shard's lives in its worker), is a true permutation of
  the live population, cell-contiguous against the current cell column
  (keyed ``(block, cell, row)`` when the flow declares blocks, the
  sorter's own composite key), and the sorter's cell cache matches the
  committed cells; a violation means the index (or the population
  under it) was corrupted after the sort.
* **energy drift** -- total (kinetic + rotational) energy moves less
  than a relative tolerance between audits; boundary fluxes exchange
  energy with the reservoir so this is a drift band, not an equality,
  but it catches runaway corruption (1e30 velocities) immediately.

Violations raise :class:`repro.errors.InvariantViolationError` with
structured context (step, shard, the check, the numbers); a forked
shard's violation crosses the fork as that same typed error.  An audit
draws no random numbers and writes no state.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.particles import ParticleArrays
from repro.core.sortstep import blocked_cell_key
from repro.errors import InvariantViolationError

#: Columns whose values must be finite after every step.
_FINITE_COLUMNS = ("x", "y", "u", "v", "w", "z", "rot")
#: Velocity columns bounded by the fixed-point range.
_VELOCITY_COLUMNS = ("u", "v", "w")
#: The Q8.23 magnitude bound (256 cell widths per step): the paper's
#: fixed-point engine cannot represent anything faster, so a larger
#: velocity component is corruption by definition.
VELOCITY_LIMIT = 256.0
#: Slack on the tunnel and slab bounds a position is checked against.
POSITION_TOLERANCE = 1e-9
#: Relative energy drift allowed between audits.  Deliberately loose
#: (boundary fluxes move real energy in and out): it catches blow-ups,
#: it does not police stochastic drift.
ENERGY_DRIFT_TOL = 0.5
#: Every check an audit can run, in report order; a report names the
#: ones that ran.
CHECKS = (
    "counts",
    "finite",
    "range",
    "cells",
    "slabs",
    "channels",
    "energy",
    "order",
)


def audit_block(
    parts: ParticleArrays,
    domain,
    ctx: dict,
    x_bounds: Optional[Tuple[float, float]] = None,
    sorter=None,
) -> Tuple[int, float, Tuple[str, ...]]:
    """Run the per-block checks over one block's live columns.

    ``ctx`` (the step, and the shard for a slab) goes into every
    violation's context.  ``x_bounds`` is a shard's slab (``None`` for
    the whole tunnel); ``sorter`` the block's incremental sorter
    (``None`` on the counting kernel), checked against the blocks
    ``parts`` declares.  Returns the block's particle count, its total
    energy and the names of the checks that ran.
    """
    for name in _FINITE_COLUMNS:
        col = getattr(parts, name)
        if col.size and not np.isfinite(col).all():
            raise InvariantViolationError(
                f"non-finite values in particle column {name!r}",
                check="finite",
                column=name,
                n_bad=int(np.count_nonzero(~np.isfinite(col))),
                **ctx,
            )
    # The position columns a cell index is made of, with their
    # extents: x, y -- and z on a span domain.
    axes = domain.cell_axes(parts)
    _check_range(parts, axes, ctx)
    checks = ("finite", "range", "cells")
    if parts.n:
        expected_cell = domain.cell_index(*(col for col, _ in axes))
        if not np.array_equal(parts.cell, expected_cell):
            raise InvariantViolationError(
                "cell-index column inconsistent with particle positions",
                check="cells",
                n_bad=int(np.count_nonzero(parts.cell != expected_cell)),
                **ctx,
            )
    if sorter is not None and sorter.rebuilds:
        _check_order(sorter, parts, ctx)
        checks += ("order",)
    if x_bounds is not None:
        lo, hi = x_bounds
        tol = POSITION_TOLERANCE
        x = parts.x
        if x.size and (float(x.min()) < lo - tol or float(x.max()) >= hi + tol):
            raise InvariantViolationError(
                "particle outside its owner shard's slab "
                "(migration lost or teleported it)",
                check="slabs",
                slab_lo=lo,
                slab_hi=hi,
                x_min=float(x.min()),
                x_max=float(x.max()),
                **ctx,
            )
        checks += ("slabs",)
    return parts.n, parts.total_energy(), checks


def _check_range(parts: ParticleArrays, axes, ctx) -> None:
    tol = POSITION_TOLERANCE
    for name, (col, extent) in zip("xyz", axes):
        if col.size and (
            float(col.min()) < -tol or float(col.max()) > extent + tol
        ):
            raise InvariantViolationError(
                f"particle {name} position outside the tunnel",
                check="range",
                column=name,
                minimum=float(col.min()),
                maximum=float(col.max()),
                extent=extent,
                **ctx,
            )
    for name in _VELOCITY_COLUMNS:
        col = getattr(parts, name)
        if col.size:
            peak = float(np.abs(col).max())
            if peak > VELOCITY_LIMIT:
                raise InvariantViolationError(
                    f"velocity component {name!r} exceeds the "
                    "fixed-point representable range",
                    check="range",
                    column=name,
                    peak=peak,
                    limit=VELOCITY_LIMIT,
                    **ctx,
                )


def _check_order(sorter, parts: ParticleArrays, ctx) -> None:
    """Validate an incremental sorter's committed canonical order.

    When ``parts`` declares blocks (an ensemble's replicas) the order
    is sorted by the composite
    :func:`~repro.core.sortstep.blocked_cell_key`, as the sorter built
    it.
    """
    n = parts.n
    if sorter._order_n != n:
        raise InvariantViolationError(
            "cached sort order tracks a different population size "
            "than the live particle state",
            check="order",
            order_n=int(sorter._order_n),
            n_particles=n,
            **ctx,
        )
    if n == 0:
        return
    cell = parts.cell
    key = cell if parts.starts is None else blocked_cell_key(
        cell, parts.starts, sorter.n_cells
    )
    order = sorter._order[:n]
    hits = np.bincount(order, minlength=n)
    if hits.shape[0] != n or not (hits == 1).all():
        raise InvariantViolationError(
            "cached sort order is not a permutation of the live "
            "particle rows",
            check="order",
            n_particles=n,
            n_missing=int(np.count_nonzero(hits[:n] == 0)),
            **ctx,
        )
    keys = key[order].astype(np.int64) * n + order
    if n > 1 and not (np.diff(keys) > 0).all():
        raise InvariantViolationError(
            "cached sort order is not cell-contiguous canonical "
            "(block, cell, row) order",
            check="order",
            n_particles=n,
            **ctx,
        )
    if not np.array_equal(sorter._prev_cell[:n], cell):
        raise InvariantViolationError(
            "incremental sorter's committed cell baseline "
            "disagrees with the live cell column (mover detection "
            "would miss movers)",
            check="order",
            n_bad=int(np.count_nonzero(sorter._prev_cell[:n] != cell)),
            **ctx,
        )


class InvariantAuditor:
    """Cadenced invariant checks over the live particle state.

    Usage from a step loop (the supervisor does exactly this)::

        auditor = InvariantAuditor()
        auditor.rebase(sim)
        for _ in range(n_steps):
            diag = sim.step()
            auditor.observe(diag)          # O(1): flux accounting
            if sim.step_count % cadence == 0:
                auditor.audit(sim)         # O(N): the real checks

    ``rebase`` must be called again whenever the simulation state is
    replaced outside the step loop (snapshot restore, recovery).  Both
    read the state through the backend's ``audit`` round, which runs
    :func:`audit_block` on every block where it lives.
    """

    def __init__(self) -> None:
        self._n_base: Optional[int] = None
        self._energy_base: Optional[float] = None
        self._injected = 0
        self._removed = 0
        #: Total audits run (cheap observability for tests/benchmarks).
        self.audits_run = 0

    # -- bookkeeping ----------------------------------------------------

    def rebase(self, sim) -> None:
        """Re-prime the accounting baselines from ``sim``'s live state."""
        blocks = sim.backend.audit(sim)
        self._n_base = sum(n for n, _, _ in blocks)
        self._energy_base = sum(e for _, e, _ in blocks)
        self._injected = 0
        self._removed = 0

    def observe(self, diag) -> None:
        """Accumulate one step's boundary fluxes (O(1) per step)."""
        b = diag.boundary
        self._injected += b.n_injected_upstream
        self._removed += b.n_removed_downstream

    # -- the audit ------------------------------------------------------

    def audit(self, sim) -> Optional[dict]:
        """Run every O(N) check; raise on the first violation.

        On success, returns a small report (the checks that ran,
        particle count, total energy, shard count) that the supervisor
        forwards to telemetry as the audit event's payload.  Returns
        ``None`` when the call only primed the baselines.
        """
        if self._n_base is None:
            self.rebase(sim)
            return None
        step = sim.step_count
        blocks = sim.backend.audit(sim)
        self.audits_run += 1
        n_now = sum(n for n, _, _ in blocks)
        expected = self._n_base + self._injected - self._removed
        if n_now != expected:
            raise InvariantViolationError(
                "particle-count accounting broken: flow population "
                "does not match the boundary-flux ledger",
                step=step,
                check="counts",
                n_now=n_now,
                n_expected=expected,
                injected=self._injected,
                removed=self._removed,
            )

        energy = sum(e for _, e, _ in blocks)
        base = self._energy_base
        drift = abs(energy - base) / max(abs(base), 1.0)
        if drift > ENERGY_DRIFT_TOL:
            raise InvariantViolationError(
                "total energy drifted past the audit tolerance",
                step=step,
                check="energy",
                energy=energy,
                baseline=base,
                drift=drift,
                tolerance=ENERGY_DRIFT_TOL,
            )

        # Roll the accounting window forward.
        self._n_base = n_now
        self._energy_base = energy
        self._injected = 0
        self._removed = 0
        ran = {"counts", "energy"}.union(*(c for _, _, c in blocks))
        return {
            "checks": tuple(c for c in CHECKS if c in ran),
            "n_particles": n_now,
            "energy": energy,
            "shards": len(blocks),
        }
