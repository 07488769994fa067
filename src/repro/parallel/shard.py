"""Slab decomposition of the cell grid for sharded execution.

The tunnel is cut into ``n_workers`` contiguous x-slabs; boundaries
sit on integer cell columns, so every grid cell -- and therefore every
particle after boundary enforcement -- belongs to exactly one shard,
and the selection rule's per-cell machinery runs unchanged inside each
shard.  :meth:`ShardSlabs.split` produces the (nearly) equal-width
static decomposition; slabs need not stay uniform -- any edge tuple
respecting :data:`MIN_SLAB_WIDTH` is a valid decomposition, and
:meth:`ShardSlabs.rebalance` plans a new one from measured loads.

This mirrors the paper's processor decomposition: where the CM-2
assigns one virtual processor per particle and lets the sort migrate
particle state between physical processors, the shard decomposition
assigns one worker per slab and migrates the few boundary-crossing
particles explicitly each step (see :mod:`repro.parallel.exchange`).
X-slabs (rather than 2-D tiles) keep every shard's migration pattern a
two-neighbour exchange and match the wind tunnel's streamwise flow:
the mean drift crosses slab faces, the transverse motion never does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError

#: Minimum slab width, cells.  A particle must never out-run its
#: neighbouring slab in one step (the exchange only wires adjacent
#: shards); molecular speeds in the validation regime are O(1) cell
#: per step, so two cells of slab width is already a 2x guard band.
MIN_SLAB_WIDTH = 2

#: Default damping clamp of :meth:`ShardSlabs.rebalance`: no edge
#: moves more than this many columns per rebalance event.  Small moves
#: keep each repartition's migration traffic bounded (and well inside
#: the exchange-channel capacity) at the cost of converging over a few
#: events instead of one -- the cadenced analogue of the paper's
#: every-sort re-homing.
DEFAULT_MAX_SHIFT = 4


@dataclass(frozen=True)
class ShardSlabs:
    """Contiguous x-slab decomposition of an ``nx``-column grid.

    Attributes
    ----------
    nx:
        Total grid columns being decomposed.
    edges:
        Integer cell-column boundaries, length ``n_workers + 1``:
        shard ``k`` owns columns (and x positions) in
        ``[edges[k], edges[k+1])``.
    """

    nx: int
    edges: Tuple[int, ...]

    @classmethod
    def split(cls, nx: int, n_workers: int) -> "ShardSlabs":
        """Evenly decompose ``nx`` columns into ``n_workers`` slabs."""
        if n_workers < 1:
            raise ConfigurationError("n_workers must be >= 1")
        if nx < n_workers * MIN_SLAB_WIDTH:
            raise ConfigurationError(
                f"{nx} columns cannot host {n_workers} shards of at least "
                f"{MIN_SLAB_WIDTH} cells each"
            )
        edges = tuple(
            int(round(k * nx / n_workers)) for k in range(n_workers + 1)
        )
        return cls(nx=nx, edges=edges)

    @classmethod
    def from_edges(cls, nx: int, edges: Sequence[int]) -> "ShardSlabs":
        """Decomposition with explicit (possibly non-uniform) edges."""
        return cls(nx=int(nx), edges=tuple(int(e) for e in edges))

    def __post_init__(self) -> None:
        if len(self.edges) < 2 or self.edges[0] != 0 or self.edges[-1] != self.nx:
            raise ConfigurationError("edges must span [0, nx]")
        widths = np.diff(self.edges)
        if (widths < MIN_SLAB_WIDTH).any():
            raise ConfigurationError(
                f"every slab needs >= {MIN_SLAB_WIDTH} cell columns, got "
                f"widths {widths.tolist()}"
            )

    @property
    def n_workers(self) -> int:
        return len(self.edges) - 1

    def bounds(self, shard_id: int) -> Tuple[float, float]:
        """``[x_lo, x_hi)`` extent of one slab, in cell widths."""
        return float(self.edges[shard_id]), float(self.edges[shard_id + 1])

    def shard_of(self, x: np.ndarray) -> np.ndarray:
        """Owning shard of each x position (clipped into the grid)."""
        # searchsorted('right') maps x in [edges[k], edges[k+1]) to k+1;
        # the clip folds upstream/downstream stragglers (x < 0 or
        # x >= nx, which only boundary enforcement may later remove)
        # into the first/last shard.
        idx = np.searchsorted(np.asarray(self.edges), x, side="right") - 1
        return np.clip(idx, 0, self.n_workers - 1)

    def partition_order(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Stable partition of positions into shard-contiguous order.

        Returns ``(order, splits)``: applying ``order`` groups the
        particles by shard (relative order within a shard preserved --
        this is what makes a gather/re-partition round-trip exact), and
        ``splits[k]`` is the first index of shard ``k``'s run in the
        ordered arrays (length ``n_workers + 1``).
        """
        shard = self.shard_of(x)
        order = np.argsort(shard, kind="stable")
        splits = np.searchsorted(shard, np.arange(self.n_workers + 1),
                                 sorter=order)
        return order, splits

    # -- adaptive load balancing ----------------------------------------

    def column_loads(self, loads: Sequence[float]) -> np.ndarray:
        """Per-column load vector from per-column or per-shard loads.

        ``loads`` of length ``nx`` is taken as measured per-column
        counts; length ``n_workers`` is spread uniformly over each
        slab's columns (the coarse fallback when only shard totals are
        known).  ``MIN_SLAB_WIDTH >= 2`` guarantees ``nx > n_workers``,
        so the two cases never collide.
        """
        arr = np.asarray(loads, dtype=np.float64)
        if arr.ndim != 1:
            raise ConfigurationError("loads must be a 1-D vector")
        if (arr < 0).any() or not np.isfinite(arr).all():
            raise ConfigurationError("loads must be finite and non-negative")
        if arr.shape[0] == self.nx:
            return arr
        if arr.shape[0] == self.n_workers:
            col = np.empty(self.nx, dtype=np.float64)
            for k in range(self.n_workers):
                lo, hi = self.edges[k], self.edges[k + 1]
                col[lo:hi] = arr[k] / (hi - lo)
            return col
        raise ConfigurationError(
            f"loads must have length nx={self.nx} (per column) or "
            f"n_workers={self.n_workers} (per shard), got {arr.shape[0]}"
        )

    def slab_sums(self, column_loads: np.ndarray,
                  edges: Tuple[int, ...]) -> np.ndarray:
        """Per-slab load totals of ``column_loads`` under ``edges``."""
        cum = np.concatenate(([0.0], np.cumsum(column_loads)))
        e = np.asarray(edges)
        return cum[e[1:]] - cum[e[:-1]]

    def rebalance(
        self,
        loads: Sequence[float],
        max_shift: int = DEFAULT_MAX_SHIFT,
    ) -> "ShardSlabs":
        """Plan new edges that equalize the predicted per-slab load.

        Pure arithmetic on the load vector (per-column counts, or
        per-shard totals spread uniformly -- see :meth:`column_loads`),
        so the plan is deterministic: the same loads always produce the
        same edges, which is what keeps W-worker runs bitwise
        reproducible when the rebalancer is driven from particle counts
        rather than wall-clock timings.

        Each new edge is the column nearest the load quantile (slabs
        ``0..k-1`` target ``k/W`` of the total), subject to three
        clamps:

        * **damping** -- no edge moves more than ``max_shift`` columns
          per event (bounds the repartition's migration traffic);
        * **adjacency** -- an edge stays within its old neighbours'
          slabs, so every ceded column transfers between *adjacent*
          shards and the existing two-neighbour exchange channels can
          carry the repartition;
        * **width** -- every new slab keeps >= :data:`MIN_SLAB_WIDTH`
          columns (the one-step-crossing guard band).

        Returns ``self`` when the plan moves nothing.
        """
        if max_shift < MIN_SLAB_WIDTH:
            # The min-width repair below can move an edge by up to
            # MIN_SLAB_WIDTH columns, so a tighter clamp could not be
            # honored.
            raise ConfigurationError(
                f"max_shift must be >= MIN_SLAB_WIDTH ({MIN_SLAB_WIDTH})"
            )
        W = self.n_workers
        if W == 1:
            return self
        col = self.column_loads(loads)
        total = float(col.sum())
        if total <= 0.0:
            return self
        cum = np.concatenate(([0.0], np.cumsum(col)))
        new = list(self.edges)
        for k in range(1, W):
            target = total * k / W
            ideal = int(np.searchsorted(cum, target, side="left"))
            # The nearer of the two edges bracketing the quantile: the
            # first edge past it alone always leaves slab k-1 the
            # heavier one.
            if ideal > 0 and target - cum[ideal - 1] < cum[ideal] - target:
                ideal -= 1
            old = self.edges[k]
            e = min(max(ideal, old - max_shift), old + max_shift)
            e = min(max(e, self.edges[k - 1]), self.edges[k + 1])
            e = min(max(e, k * MIN_SLAB_WIDTH),
                    self.nx - (W - k) * MIN_SLAB_WIDTH)
            new[k] = e
        # Left-to-right min-width repair.  Every edge sits at most at
        # nx - (W - k) * MIN_SLAB_WIDTH (clamped above), so raising
        # edge k to edge k-1 + MIN_SLAB_WIDTH never exceeds its own
        # ceiling, and raises it by at most MIN_SLAB_WIDTH past its old
        # neighbour's position -- which keeps both the damping and the
        # adjacency bounds intact (old slabs are >= MIN_SLAB_WIDTH wide).
        for k in range(1, W):
            new[k] = max(new[k], new[k - 1] + MIN_SLAB_WIDTH)
        edges = tuple(int(e) for e in new)
        if edges == self.edges:
            return self
        return ShardSlabs(nx=self.nx, edges=edges)
