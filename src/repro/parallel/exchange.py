"""Serialize-free particle migration between adjacent shards.

When a particle's post-motion position leaves its shard's slab, its
state must move to the neighbouring worker -- the software analogue of
the CM-2 router delivering a sorted particle to its new home processor.
The channels here are preallocated shared-memory rectangles (one float64
block for the continuous state, one int8 block for the permutation
vectors, per directed adjacent pair) written by the source worker in
phase A and read by the destination worker in phase B, with a barrier in
between.  No pickling, no queues: a migration is two block copies.

Adjacency is structural: only ``(k, k-1)`` and ``(k, k+1)`` channels
exist, which encodes the slab-width invariant that no particle out-runs
a neighbouring slab in one step (:data:`repro.parallel.shard.MIN_SLAB_WIDTH`);
the worker checks the invariant at pack time and fails loudly rather
than teleporting particles.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.core.particles import ParticleArrays, migration_float_width
from repro.errors import ConfigurationError, ExchangeOverflowError

#: Directions of a shard's outgoing channels.
LEFT = 0
RIGHT = 1


class MigrationChannels:
    """Paired migration buffers for every directed adjacent shard pair.

    Parameters
    ----------
    n_workers:
        Shard count; channels exist for ``k -> k-1`` (``LEFT``) and
        ``k -> k+1`` (``RIGHT``) only.
    rotational_dof:
        Molecule model's internal degrees of freedom (fixes the float
        row width and the permutation row width).
    capacity:
        Maximum migrants per channel per step.  Sized generously by the
        backend; an overflow raises (in :meth:`ship`, via
        ``pack_rows``) instead of dropping particles.
    alloc:
        ``alloc(shape, dtype) -> ndarray`` supplying zeroed backing
        memory: the backend's shared segments
        (:func:`repro.parallel.backend.shared_segment`), or any heap
        allocator where no worker is forked.
    """

    def __init__(
        self,
        n_workers: int,
        rotational_dof: int,
        capacity: int,
        alloc: Callable[[Tuple[int, ...], np.dtype], np.ndarray],
    ) -> None:
        if n_workers < 1:
            raise ConfigurationError("n_workers must be >= 1")
        if capacity < 1:
            raise ConfigurationError("channel capacity must be >= 1")
        width = migration_float_width(rotational_dof)
        k = 3 + rotational_dof
        self.n_workers = n_workers
        self.capacity = capacity
        #: Migrant count per (source shard, direction), written by the
        #: source in phase A, read by the destination in phase B.
        self.counts = alloc((n_workers, 2), np.int64)
        #: Run-lifetime high-water mark per channel (telemetry: how
        #: close each channel came to its capacity).  Written by the
        #: source worker at ship time; one compare per ship.
        self.high_water = alloc((n_workers, 2), np.int64)
        self._float: Dict[Tuple[int, int], np.ndarray] = {}
        self._perm: Dict[Tuple[int, int], np.ndarray] = {}
        for src in range(n_workers):
            for direction in (LEFT, RIGHT):
                if self.dest(src, direction) is None:
                    continue
                self._float[(src, direction)] = alloc(
                    (capacity, width), np.float64
                )
                self._perm[(src, direction)] = alloc((capacity, k), np.int8)

    def dest(self, src: int, direction: int) -> int:
        """Destination shard of a channel, ``None`` at the domain edge."""
        dst = src - 1 if direction == LEFT else src + 1
        return dst if 0 <= dst < self.n_workers else None

    def buffers(self, src: int, direction: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(float_block, perm_block)`` of one directed channel."""
        try:
            return self._float[(src, direction)], self._perm[(src, direction)]
        except KeyError:
            raise ConfigurationError(
                f"no migration channel from shard {src} in direction "
                f"{direction} (only adjacent shards are wired)"
            ) from None

    # -- the two halves of a migration ---------------------------------

    def ship(
        self,
        parts: ParticleArrays,
        idx: np.ndarray,
        src: int,
        direction: int,
        *,
        step: Optional[int] = None,
        plan=None,
    ) -> int:
        """Pack step ``step``'s particles at ``idx`` into one outgoing
        channel.

        Called by the source worker in phase A (before it backfills the
        departed rows away).  Overwrites the channel's previous count,
        so every existing channel must be shipped every step -- zero
        migrants included -- to keep the counts current.  ``plan`` is
        the shipping shard's own
        :class:`~repro.resilience.faults.FaultPlan` (``None`` on
        production runs): it arms the ``overflow`` and ``corrupt``
        injection points, keyed by ``(step, src)``.

        Raises :class:`~repro.errors.ExchangeOverflowError` when the
        migrant count exceeds the channel capacity (sized at bind time;
        the error names the knob), carrying the step/shard/counts
        context a supervisor needs.
        """
        fb, pb = self.buffers(src, direction)
        cap = min(self.capacity, fb.shape[0])
        fault = None
        if plan is not None and idx.shape[0] > 0:
            fault = plan.take("overflow", step, src)
            if fault is not None:
                cap = fault.capacity
        if idx.shape[0] > cap:
            raise ExchangeOverflowError(
                "migration channel overflow; raise "
                "ShardedBackend(channel_capacity=...) for this flow",
                step=step,
                shard=src,
                direction="left" if direction == LEFT else "right",
                migrants=int(idx.shape[0]),
                capacity=cap,
                injected=fault is not None,
            )
        m = parts.pack_rows(idx, fb, pb)
        if plan is not None and m > 0 and plan.take("corrupt", step, src):
            fb[:m] = plan.corruption_pattern(step, src, fb[:m].shape)
        self.counts[src, direction] = m
        if m > self.high_water[src, direction]:
            self.high_water[src, direction] = m
        return m

    def receive(self, parts: ParticleArrays, dst: int) -> int:
        """Append everything shipped toward shard ``dst`` this step.

        Called in phase B, after the mid-step barrier.  Arrival order
        is fixed (left neighbour first, then right) so the resulting
        particle order -- and therefore the downstream sort and pairing
        -- is identical run to run and identical between the process
        and inline execution modes.
        """
        total = 0
        if dst > 0:
            m = int(self.counts[dst - 1, RIGHT])
            fb, pb = self.buffers(dst - 1, RIGHT)
            parts.append_rows(fb, pb, m)
            total += m
        if dst < self.n_workers - 1:
            m = int(self.counts[dst + 1, LEFT])
            fb, pb = self.buffers(dst + 1, LEFT)
            parts.append_rows(fb, pb, m)
            total += m
        return total
