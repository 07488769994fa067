"""The cell column is current when the collision stage starts.

The boundary phase indexes the moved population once and re-indexes
only the rows it writes afterwards (reflections, the clamp, the
refill); a shard indexes only its migration arrivals.  Nothing re-indexes
the whole population before the sort, so a row any of those paths
forgets keeps a stale cell.  Every execution mode is held here to one
check at the top of ``step_stage2``: the cell column equals a fresh
``assign_cells``.
"""

import numpy as np
import pytest

import repro.core.simulation as simulation
import repro.parallel.backend as backend
from repro.core.cells import assign_cells
from repro.core.simulation import Simulation
from repro.ensemble.engine import EnsembleEngine
from repro.parallel.backend import ShardedBackend, shared_segment
from repro.resilience import SupervisedRun
from repro.scenarios.library import WEDGE3D
from tests.integration.test_digests import _wedge

#: Past one physical re-sort (``RESORT_PERIOD`` 32), sampled at the end.
SCHEDULE = [(30, False), (10, True)]


@pytest.fixture
def checked(monkeypatch):
    """Check the cells at every ``step_stage2``; count the checks per shard.

    The counts live in a shared mapping, so forked shard workers (which
    inherit the patched stage) report theirs too; a stale cell raises
    inside the worker, which fails the parent's step.
    """
    seen = shared_segment((4,), np.int64)
    stage2 = simulation.step_stage2

    def checked_stage2(sim, rng, step, *args, **kw):
        parts = sim.particles
        fresh = parts.copy()
        assign_cells(fresh, sim.config.domain)
        stale = np.count_nonzero(parts.cell != fresh.cell)
        if stale:
            raise AssertionError(f"{stale} stale cells entering step {step}")
        seen[getattr(sim, "shard_id", 0)] += 1
        return stage2(sim, rng, step, *args, **kw)

    monkeypatch.setattr(simulation, "step_stage2", checked_stage2)
    monkeypatch.setattr(backend, "step_stage2", checked_stage2)
    return seen


def _run(engine, schedule=SCHEDULE):
    for n_steps, sample in schedule:
        engine.run(n_steps, sample=sample)
    return engine


SERIAL = {
    "serial_incremental": lambda: Simulation(_wedge()),
    "serial_counting": lambda: Simulation(_wedge(sort_kernel="counting")),
    "serial_diffuse": lambda: Simulation(_wedge(wall_model="diffuse")),
    "ensemble_r3": lambda: EnsembleEngine(_wedge(4.0), n_replicas=3),
    "wedge3d": WEDGE3D.build_simulation,
}


@pytest.mark.parametrize("name", sorted(SERIAL))
def test_cells_current_in_process(name, checked):
    with SERIAL[name]() as engine:
        _run(engine)
        engine.backend.audit(engine)  # the auditor's cells check too
    assert checked[0] == sum(n for n, _ in SCHEDULE)


def _sharded(processes, checked):
    steps = sum(n for n, _ in SCHEDULE)
    with Simulation(
        _wedge(), backend=ShardedBackend(2, processes=processes)
    ) as sim:
        sim.run(12)
        # An off-cadence repartition epoch: arrivals indexed, audited.
        sim.backend.maybe_rebalance(sim.step_count, force=True)
        sim.backend.audit(sim)
        _run(sim, [(steps - 12, False)])
        sim.backend.audit(sim)
        assert sim.backend.rebalance_count >= 1
    assert checked[:2].tolist() == [steps, steps]


def test_cells_current_sharded_inline(checked):
    _sharded(False, checked)


@pytest.mark.sharded
def test_cells_current_sharded_forked(checked):
    _sharded(True, checked)


def test_cells_current_after_resuming_a_checkpoint(checked, tmp_path):
    with SupervisedRun(
        Simulation(_wedge()), tmp_path, checkpoint_every=7, audit_every=1
    ) as run:
        run.run_schedule(SCHEDULE, max_steps=24)
    with SupervisedRun.resume(tmp_path) as run:
        assert run.sim.step_count == 24
        run.run_schedule()
        assert run.sim.step_count == sum(n for n, _ in SCHEDULE)
    assert checked[0] == sum(n for n, _ in SCHEDULE)
