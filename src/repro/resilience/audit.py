"""Runtime invariant auditing: catch silent corruption, loudly.

A production solver's worst failure mode is not a crash -- it is
quietly wrong numbers marching on for thousands of steps.  The
:class:`InvariantAuditor` runs O(N) checks over the *authoritative*
particle state (the shard workers' shared buffers for sharded runs, no
gather needed) at a configurable cadence, each encoding a conservation
or validity property of the paper's algorithm:

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
  within ``[0, capacity]``.
* **cached order** (incremental sort kernel) -- the order the last
  step paired and collided through is a true permutation of the live
  population, cell-contiguous against the current cell column (keyed
  ``(block, cell, row)`` when the flow declares blocks, the sorter's
  own composite key), and the
  sorter's cell cache matches the committed cells; a violation means
  the index (or the population under it) was corrupted after the sort.
* **energy drift** -- total (kinetic + rotational) energy moves less
  than a relative tolerance between audits; boundary fluxes exchange
  energy with the reservoir so this is a drift band, not an equality,
  but it catches runaway corruption (1e30 velocities) immediately.

Violations raise :class:`repro.errors.InvariantViolationError` with
structured context (step, shard, the check, the numbers).
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Dict, List, Optional

import numpy as np

from repro.core.particles import COLUMN_NAMES, ParticleArrays
from repro.core.sortstep import blocked_cell_key
from repro.errors import InvariantViolationError

#: Columns whose values must be finite after every step.
_FINITE_COLUMNS = ("x", "y", "u", "v", "w", "z")
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
#: Every audit runs every check, in this order.
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
    replaced outside the step loop (snapshot restore, recovery).
    """

    def __init__(self) -> None:
        self._n_base: Optional[int] = None
        self._energy_base: Optional[float] = None
        self._injected = 0
        self._removed = 0
        self._last_step: Optional[int] = None
        #: Total audits run (cheap observability for tests/benchmarks).
        self.audits_run = 0

    # -- bookkeeping ----------------------------------------------------

    def rebase(self, sim) -> None:
        """Re-prime the accounting baselines from ``sim``'s live state."""
        views = self._views(sim)
        self._n_base = sum(int(v["x"].shape[0]) for v in views)
        self._energy_base = self._total_energy(views)
        self._injected = 0
        self._removed = 0
        self._last_step = sim.step_count

    def observe(self, diag) -> None:
        """Accumulate one step's boundary fluxes (O(1) per step)."""
        b = diag.boundary
        self._injected += b.n_injected_upstream
        self._removed += b.n_removed_downstream
        self._last_step = diag.step

    # -- the audit ------------------------------------------------------

    def audit(self, sim) -> Optional[dict]:
        """Run every O(N) check; raise on the first violation.

        On success, returns a small report (which checks ran, particle
        count, total energy, shard count) that the supervisor forwards
        to telemetry as the audit event's payload.  Returns ``None``
        when the call only primed the baselines.
        """
        if self._n_base is None:
            self.rebase(sim)
            return None
        step = sim.step_count
        views = self._views(sim)
        self.audits_run += 1

        n_now = sum(int(v["x"].shape[0]) for v in views)
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

        domain = sim.config.domain
        slabs = self._slab_bounds(sim)
        sorters = self._sort_states(sim)
        for shard, v in enumerate(views):
            ctx = {"step": step}
            if len(views) > 1:
                ctx["shard"] = shard
            for name in _FINITE_COLUMNS:
                col = v[name]
                if col.size and not np.isfinite(col).all():
                    bad = int(np.count_nonzero(~np.isfinite(col)))
                    raise InvariantViolationError(
                        f"non-finite values in particle column {name!r}",
                        check="finite",
                        column=name,
                        n_bad=bad,
                        **ctx,
                    )
            rot = v["rot"]
            if rot.size and not np.isfinite(rot).all():
                raise InvariantViolationError(
                    "non-finite rotational state",
                    check="finite",
                    column="rot",
                    **ctx,
                )
            # The position columns a cell index is made of, with their
            # extents: x, y -- and z on a span domain.
            axes = domain.cell_axes(SimpleNamespace(**v))
            self._check_range(v, axes, ctx)
            if v["x"].size:
                expected_cell = domain.cell_index(*(col for col, _ in axes))
                if not np.array_equal(v["cell"], expected_cell):
                    bad = int(np.count_nonzero(v["cell"] != expected_cell))
                    raise InvariantViolationError(
                        "cell-index column inconsistent with particle "
                        "positions",
                        check="cells",
                        n_bad=bad,
                        **ctx,
                    )
            if (
                sorters is not None
                and shard < len(sorters)
                and sorters[shard] is not None
            ):
                self._check_order(
                    sorters[shard], v, ctx, sim.particles.starts
                )
            if slabs is not None and v["x"].size:
                lo, hi = slabs[shard]
                tol = POSITION_TOLERANCE
                x = v["x"]
                if float(x.min()) < lo - tol or float(x.max()) >= hi + tol:
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

        state = self._migration_state(sim)
        if state is not None:
            counts, capacity = state
            if counts.min() < 0 or counts.max() > capacity:
                raise InvariantViolationError(
                    "migration-channel count outside [0, capacity]",
                    step=step,
                    check="channels",
                    count_min=int(counts.min()),
                    count_max=int(counts.max()),
                    capacity=int(capacity),
                )

        energy = self._total_energy(views)
        base = self._energy_base
        if base is not None:
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
        self._energy_base = energy

        # Roll the accounting window forward.
        self._n_base = sum(int(v["x"].shape[0]) for v in views)
        self._injected = 0
        self._removed = 0
        return {
            "checks": CHECKS,
            "n_particles": self._n_base,
            "energy": energy,
            "shards": len(views),
        }

    # -- helpers --------------------------------------------------------

    @staticmethod
    def _check_range(v: Dict[str, np.ndarray], axes, ctx) -> None:
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
            col = v[name]
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

    @staticmethod
    def _check_order(
        sorter, v: Dict[str, np.ndarray], ctx, starts=None
    ) -> None:
        """Validate an incremental sorter's cached canonical order.

        ``starts`` are the blocks the flow declares (an ensemble's
        replicas): the order is then sorted by the composite
        :func:`~repro.core.sortstep.blocked_cell_key`, as the sorter
        built it.
        """
        if sorter.rebuilds == 0:
            return  # nothing committed yet (first step not taken)
        n = int(v["x"].shape[0])
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
        cell = v["cell"]
        key = cell if starts is None else blocked_cell_key(
            cell, starts, sorter.n_cells
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

    @staticmethod
    def _sort_states(sim) -> Optional[List]:
        """Per-view incremental sorters, aligned with ``_views``.

        Sharded backends expose per-shard sorters via ``sort_states()``
        (inline mode only -- worker-private in process mode, where the
        order audit is skipped).  Serially the simulation-owned sorter
        is authoritative.
        """
        fn = getattr(sim.backend, "sort_states", None)
        states = fn() if callable(fn) else None
        if states is not None:
            return states
        cols = getattr(sim.backend, "shard_columns", None)
        if callable(cols) and cols() is not None:
            return None  # process-mode shards: sorters unreachable
        return [getattr(sim, "sort_state", None)]

    @staticmethod
    def _views(sim) -> List[Dict[str, np.ndarray]]:
        """Authoritative per-shard column views (single view serially)."""
        fn = getattr(sim.backend, "shard_columns", None)
        views = fn() if callable(fn) else None
        if views is None:
            p = sim.particles
            views = [{name: getattr(p, name) for name in COLUMN_NAMES}]
        return views

    @staticmethod
    def _slab_bounds(sim):
        fn = getattr(sim.backend, "shard_slab_bounds", None)
        return fn() if callable(fn) else None

    @staticmethod
    def _migration_state(sim):
        fn = getattr(sim.backend, "migration_state", None)
        return fn() if callable(fn) else None

    @staticmethod
    def _total_energy(views: List[Dict[str, np.ndarray]]) -> float:
        return sum(ParticleArrays(**v).total_energy() for v in views)
