"""State verification: one digest for every engine.

``state_digest`` hashes what a bitwise continuation depends on, so
"same scenario + seed => same state" across execution modes, restores
and commits is one string comparison (``tests/golden_digests.json``).
"""

from __future__ import annotations

import hashlib
from typing import Optional

import numpy as np

from repro.core.particles import COLUMN_NAMES
from repro.core.sampling import SAMPLER_FIELDS
from repro.core.surface import SURFACE_FIELDS


def state_digest(engine, block: Optional[int] = None) -> str:
    """sha256 of the state of a ``Simulation`` over one block or R.

    Covers every flow column and the flow's block ``starts``, every
    reservoir column -- one block at a time, every column of block 0,
    then of block 1, ... -- the cell-sampler and every block's surface
    accumulators with their step counts, the plunger phase, the step
    count and, for a sharded run, the downstream exits in transit to
    shard 0's reservoir.  A sharded simulation is gathered first.

    ``block=r`` hashes block ``r`` alone, exactly as the whole digest
    of a one-block run: block ``r`` of an R-block run has the digest of
    the solo run keyed for that replica.
    """
    engine.gather()
    h = hashlib.sha256()

    def feed(*values) -> None:
        for value in values:
            h.update(np.ascontiguousarray(value).tobytes())

    flow, reservoir = engine.particles, engine.reservoir.particles
    sampler, surfaces = engine.sampler, engine.surfaces
    if block is not None:
        flow, reservoir = flow.blocks()[block], reservoir.blocks()[block]
        sampler, surfaces = sampler.block(block), surfaces[block : block + 1]
    for pop in (flow, *reservoir.blocks()):
        feed(*(getattr(pop, name) for name in COLUMN_NAMES))
    feed(np.asarray(flow.block_edges(), dtype=np.int64))
    tallies = [(sampler, SAMPLER_FIELDS)]
    tallies += [(s, SURFACE_FIELDS) for s in surfaces]
    for acc, fields in tallies:
        feed(*(getattr(acc, name) for name in fields), acc.steps)
    feed(engine.boundaries.plunger.position, engine.step_count)
    in_transit = getattr(engine.backend, "pending_flux", None)
    if in_transit is not None:
        feed(in_transit)
    return h.hexdigest()
