"""State verification: one digest for every engine.

``state_digest`` hashes what a bitwise continuation depends on, so
"same scenario + seed => same state" across execution modes, restores
and commits is one string comparison (``tests/golden_digests.json``).
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.core.particles import COLUMN_NAMES
from repro.core.sampling import SAMPLER_FIELDS
from repro.core.surface import SURFACE_FIELDS


def state_digest(engine) -> str:
    """sha256 of the state of a ``Simulation`` over one block or R.

    Covers every flow column and the flow's block ``starts``, every
    reservoir column -- one block at a time, every column of block 0,
    then of block 1, ... -- the cell-sampler and every block's surface
    accumulators with their step counts, the plunger phase and the step
    count.  A sharded simulation is gathered first.
    """
    engine.gather()
    h = hashlib.sha256()

    def feed(*values) -> None:
        for value in values:
            h.update(np.ascontiguousarray(value).tobytes())

    flow = engine.particles
    for pop in (flow, *engine.reservoir.particles.blocks()):
        feed(*(getattr(pop, name) for name in COLUMN_NAMES))
    feed(np.asarray(flow.block_edges(), dtype=np.int64))
    tallies = [(engine.sampler, SAMPLER_FIELDS)]
    tallies += [(s, SURFACE_FIELDS) for s in engine.surfaces]
    for acc, fields in tallies:
        feed(*(getattr(acc, name) for name in fields), acc.steps)
    feed(engine.boundaries.plunger.position, engine.step_count)
    return h.hexdigest()
