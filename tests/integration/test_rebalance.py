"""Integration tests of adaptive slab rebalancing.

The contract under test:

* A sharded run balances on its own: every ``REBALANCE_EVERY`` steps
  the backend weighs the particles each shard steps (shard 0's
  reservoir included) and moves the edges toward equal loads.
* A repartition re-homes particle ownership and nothing else: the
  global particle multiset is bitwise unchanged across a forced
  rebalance, and per-shard populations land inside the new slabs.
* Process workers and the inline mode stay bitwise identical while
  rebalancing (the epoch is carried by the same deterministic
  channels as a normal step).
* A checkpoint taken mid-run with non-uniform edges restores the same
  decomposition and continues bitwise at the same worker count.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.simulation import Simulation, SimulationConfig
from repro.core.sortstep import RESORT_PERIOD
from repro.errors import ConfigurationError
from repro.geometry.domain import Domain
from repro.geometry.wedge import Wedge
from repro.io.snapshots import load_simulation, save_simulation
from repro.parallel.backend import ShardedBackend
from repro.parallel.rebalance import REBALANCE_EVERY, THRESHOLD
from repro.physics.freestream import Freestream
from repro.resilience.audit import InvariantAuditor
from repro.verify import state_digest

pytestmark = pytest.mark.sharded


def _config(seed: int = 42, nx: int = 32, ny: int = 16) -> SimulationConfig:
    return SimulationConfig(
        domain=Domain(nx=nx, ny=ny),
        freestream=Freestream(mach=4.0, c_mp=0.14, lambda_mfp=0.5, density=10.0),
        wedge=Wedge(x_leading=8.0, base=9.0, angle_deg=30.0),
        seed=seed,
    )


def _eager(sim, steps: int) -> None:
    """Step ``sim``, forcing a rebalance decision after every step."""
    for _ in range(steps):
        sim.run(1)
        sim.backend.maybe_rebalance(sim.step_count, force=True)


def _run(steps: int, eager: bool = False, processes: bool = False,
         seed: int = 42):
    sim = Simulation(
        _config(seed), backend=ShardedBackend(2, processes=processes)
    )
    if eager:
        _eager(sim, steps)
    else:
        sim.run(steps)
    sim.gather()
    return sim


def _sorted_multiset(parts) -> np.ndarray:
    """Row-canonical view of the population (order-independent)."""
    rows = np.column_stack([parts.x, parts.y, parts.u, parts.v, parts.w])
    return rows[np.lexsort(rows.T)]


class TestAlwaysOn:
    def test_default_backend_rebalances_on_the_cadence(self):
        """No knob: the backend decides every ``REBALANCE_EVERY`` steps
        from the reservoir-inclusive loads and acts on the skew."""
        from repro.telemetry.observables import load_imbalance

        sim = Simulation(_config(), backend=ShardedBackend(2, processes=False))
        try:
            steps = []
            for _ in range(3 * REBALANCE_EVERY):
                sim.run(1)
                event = sim.backend.take_rebalance_event()
                if event is not None:
                    steps.append(event["step"])
                    assert event["imbalance"] >= THRESHOLD
            assert steps
            assert all(s % REBALANCE_EVERY == 0 for s in steps)
            assert sim.backend.rebalance_count > 0
            assert sim.backend.slab_edges != (0, 16, 32)
            loads = sim.backend.shard_loads()
            assert load_imbalance(loads) < 1.15
        finally:
            sim.close()

    def test_shard_zero_load_counts_its_reservoir(self):
        sim = Simulation(_config(), backend=ShardedBackend(2, processes=False))
        try:
            n_res = sim.reservoir.particles.n
            loads = sim.backend.shard_loads()
            flow = np.asarray(sim.backend._shared["n_parts"])
            assert loads[0] == flow[0] + n_res * sim.config.reservoir_mix_rounds
            assert loads[1] == flow[1]
            diag_res = sim.run(3).n_reservoir
            loads = sim.backend.shard_loads()
            flow = np.asarray(sim.backend._shared["n_parts"])
            assert loads.sum() == flow.sum() + diag_res
        finally:
            sim.close()


class TestRebalanceExecution:
    def test_wedge_triggers_and_reduces_imbalance(self):
        from repro.telemetry.observables import load_imbalance

        sim = _run(20, eager=True)
        try:
            be = sim.backend
            assert be.rebalance_count > 0
            assert be.rebalance_columns_moved > 0
            imb = load_imbalance(be.shard_loads())
            assert imb <= 1.15
        finally:
            sim.close()

    @pytest.mark.parametrize(
        "processes", [False, True], ids=["inline", "forked"]
    )
    def test_forced_rebalance_conserves_the_particle_multiset(
        self, processes
    ):
        sim = _run(8, processes=processes)
        try:
            be = sim.backend
            before = _sorted_multiset(sim.particles)
            auditor = InvariantAuditor()
            auditor.rebase(sim)
            moved = be.maybe_rebalance(sim.step_count, force=True)
            assert moved  # the shock has skewed the loads by step 8
            event = be.take_rebalance_event()
            assert event["executed"] and event["rows_moved"] > 0
            # Every shard's rows sit inside its new slab, with the
            # cells and the indexed order the epoch rebuilt.
            assert {"slabs", "cells", "order"} <= set(
                auditor.audit(sim)["checks"]
            )
            sim.gather()
            after = _sorted_multiset(sim.particles)
            assert np.array_equal(before, after)
        finally:
            sim.close()

    def test_process_mode_matches_inline_while_rebalancing(self):
        inline = _run(15, eager=True, processes=False)
        procs = _run(15, eager=True, processes=True)
        try:
            assert inline.backend.rebalance_count == procs.backend.rebalance_count
            assert inline.backend.slab_edges == procs.backend.slab_edges
            assert state_digest(procs) == state_digest(inline)
        finally:
            inline.close()
            procs.close()

    def test_bad_edges_length_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardedBackend(2, edges=(0, 8, 16, 32))


class TestCheckpointContinuity:
    def test_non_uniform_checkpoint_restores_and_continues_bitwise(
        self, tmp_path
    ):
        # Uninterrupted reference: 43 + 36 rebalancing steps.  Step 43
        # is chosen because the eager rebalancer has the decomposition
        # genuinely non-uniform there (checked below) -- the case the
        # edge persistence exists for -- and because it sits between
        # two physical re-sorts of the indexed kernel, with one on each
        # side (steps 32 and 64): the restored workers must re-sort on
        # the uninterrupted run's schedule.
        before, after = RESORT_PERIOD + 11, RESORT_PERIOD + 4
        ref = _run(before + after, eager=True)

        sim = _run(before, eager=True)
        try:
            assert sim.backend.slab_edges != (0, 16, 32)
            saved_edges = sim.backend.slab_edges
            path = tmp_path / "mid.npz"
            save_simulation(sim, path)
        finally:
            sim.close()

        restored = load_simulation(path, workers=2, processes=False)
        try:
            assert restored.backend.slab_edges == saved_edges
            _eager(restored, after)
            assert state_digest(restored) == state_digest(ref)
            assert ref.backend.slab_edges == restored.backend.slab_edges
        finally:
            ref.close()
            restored.close()

