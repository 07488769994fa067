"""Process-parallel sharded execution of the wind-tunnel step loop.

The paper scales the Stanford (McDonald-Baganoff) DSMC algorithm by
decomposing particles and cells across the Connection Machine's
processors.  This package is the reproduction's analogue on a
multi-core host: the cell grid is split into contiguous x-slabs
(:mod:`repro.parallel.shard`), one worker process steps each slab
(:mod:`repro.parallel.backend`), and particles that cross a slab
boundary migrate between workers through serialize-free shared-memory
buffers (:mod:`repro.parallel.exchange`) -- the software equivalent of
the CM-2 router moving a particle's state to its new home processor.

Determinism: every worker draws from a counter-based RNG stream keyed
by ``(seed, shard_id, step)`` (:func:`repro.rng.shard_stream`), so a
sharded run is run-to-run reproducible at any worker count.  One
worker is the serial engine itself; the sharded backend takes two or
more.
"""

from repro.parallel.backend import ShardedBackend
from repro.parallel.shard import ShardSlabs

__all__ = ["ShardedBackend", "ShardSlabs"]
