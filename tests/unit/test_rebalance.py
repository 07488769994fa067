"""Unit tests of the rebalance planner plumbing and two falsy-value
bugfix regressions.

* The planner's loads (`column_loads`: flow rows with the reservoir at
  column 0) and the transfer-plan arithmetic (`planned_transfers`,
  `validate_plan`) that re-validates channel and buffer capacity
  before a repartition executes.
* Exchange fault keying: ``MigrationChannels.ship`` used to key faults
  with ``self._step or 0``, conflating an unpublished step (``None``)
  with a genuine step 0.  A fault armed for step 0 must fire *at* step
  0, and shipping with a plan armed but no step published must fail
  loudly instead of silently aliasing to step 0.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.particles import ParticleArrays
from repro.errors import ExchangeOverflowError
from repro.parallel.exchange import RIGHT, MigrationChannels
from repro.parallel.rebalance import (
    column_loads,
    planned_transfers,
    validate_plan,
)
from repro.parallel.shard import ShardSlabs
from repro.resilience.faults import FaultPlan, FaultSpec


class TestReservoirAtColumnZero:
    def test_column_loads_add_the_reservoir_to_the_inlet_column(self):
        flow = np.arange(6, dtype=np.int64)
        loads = column_loads(flow, 40)
        assert loads.tolist() == [40, 1, 2, 3, 4, 5]
        assert flow.tolist() == [0, 1, 2, 3, 4, 5]  # input untouched

    def test_reservoir_moves_the_edge_left(self):
        old = ShardSlabs.split(20, 2)  # edges (0, 10, 20)
        flow = np.full(20, 10, dtype=np.int64)
        assert old.rebalance(flow) is old
        new = old.rebalance(column_loads(flow, 40))
        # 240 particles stepped: shard 0 takes the reservoir's 40 and
        # columns [0, 8) of flow, shard 1 the other 120.
        assert new.edges == (0, 8, 20)

    def test_capacity_is_checked_against_flow_rows_only(self):
        """Reservoir rows never migrate and live outside the column
        buffers: a plan whose reservoir-inclusive load overfills shard 0
        while its flow rows fit is executable."""
        old = ShardSlabs.split(20, 2)
        flow = np.full(20, 10, dtype=np.int64)
        loads = column_loads(flow, 40)
        new = old.rebalance(loads)
        caps = np.array([100, 200])
        assert new.slab_sums(loads.astype(float), new.edges)[0] > caps[0]
        assert validate_plan(old, new, flow, 1000, caps) is None


class TestNoKnobs:
    """Balancing is what a sharded run does: no config, kwarg or flag."""

    def test_config_is_gone(self):
        import repro.parallel.rebalance as rebalance

        assert not hasattr(rebalance, "RebalanceConfig")

    def test_backend_takes_no_rebalance_argument(self):
        from repro.parallel.backend import ShardedBackend

        with pytest.raises(TypeError):
            ShardedBackend(2, rebalance=None)
        assert not hasattr(ShardedBackend(2), "rebalance_config")

    def test_cli_has_no_balance_flag(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["wedge", "--workers", "2", "--balance", "every:10"])
        assert "--balance" in capsys.readouterr().err


class TestPlannedTransfers:
    def test_edge_moving_left_ships_rows_right(self):
        old = ShardSlabs.split(10, 2)   # edges (0, 5, 10)
        new = ShardSlabs.from_edges(10, (0, 3, 10))
        counts = np.arange(10)  # column k holds k particles
        to_left, to_right = planned_transfers(old, new, counts)
        # Columns [3, 5) move from shard 0 to shard 1: 3 + 4 rows.
        assert to_right[1] == 7
        assert to_left.sum() == 0

    def test_edge_moving_right_ships_rows_left(self):
        old = ShardSlabs.split(10, 2)
        new = ShardSlabs.from_edges(10, (0, 7, 10))
        counts = np.ones(10, dtype=np.int64)
        to_left, to_right = planned_transfers(old, new, counts)
        assert to_left[1] == 2  # columns [5, 7) from shard 1 to shard 0
        assert to_right.sum() == 0

    def test_unchanged_edges_ship_nothing(self):
        slabs = ShardSlabs.split(10, 2)
        to_left, to_right = planned_transfers(
            slabs, slabs, np.ones(10, dtype=np.int64)
        )
        assert to_left.sum() == 0 and to_right.sum() == 0


class TestValidatePlan:
    def test_fitting_plan_passes(self):
        old = ShardSlabs.split(10, 2)
        new = ShardSlabs.from_edges(10, (0, 3, 10))
        counts = np.full(10, 5, dtype=np.int64)
        assert validate_plan(old, new, counts, 64, np.array([100, 100])) is None

    def test_channel_overflow_named(self):
        old = ShardSlabs.split(10, 2)
        new = ShardSlabs.from_edges(10, (0, 3, 10))
        counts = np.full(10, 50, dtype=np.int64)
        reason = validate_plan(old, new, counts, 8, np.array([1000, 1000]))
        assert reason is not None and "channel" in reason

    def test_shard_capacity_named(self):
        old = ShardSlabs.split(10, 2)
        new = ShardSlabs.from_edges(10, (0, 3, 10))
        counts = np.full(10, 50, dtype=np.int64)
        reason = validate_plan(old, new, counts, 1000, np.array([1000, 300]))
        assert reason is not None and "capacity" in reason


def _heap_alloc(shape, dtype):
    return np.zeros(shape, dtype=dtype)


def _tiny_population(n: int, dof: int = 2) -> ParticleArrays:
    rng = np.random.default_rng(11)
    k = 3 + dof
    perm = np.stack(
        [rng.permutation(k).astype(np.int8) for _ in range(n)]
    )
    parts = ParticleArrays(
        x=rng.uniform(0.0, 10.0, n),
        y=rng.uniform(0.0, 10.0, n),
        u=rng.normal(size=n),
        v=rng.normal(size=n),
        w=rng.normal(size=n),
        rot=rng.normal(size=(n, dof)),
        perm=perm,
        cell=np.zeros(n, dtype=np.int64),
    )
    parts.enable_scratch()
    return parts


class TestShipFaultKeying:
    def test_step_zero_overflow_fault_fires_at_step_zero(self):
        # Regression: step 0 is falsy, and a fault scheduled for the
        # very first step must still fire there, keyed by the step the
        # shipping shard passes.
        plan = FaultPlan(
            [FaultSpec(kind="overflow", step=0, shard=0, capacity=1)]
        )
        chans = MigrationChannels(2, 2, 64, _heap_alloc)
        parts = _tiny_population(8)
        with pytest.raises(ExchangeOverflowError) as err:
            chans.ship(parts, np.arange(4), 0, RIGHT, step=0, plan=plan)
        assert err.value.context["injected"] is True
        assert err.value.context["step"] == 0

    def test_no_plan_needs_no_step(self):
        chans = MigrationChannels(2, 2, 64, _heap_alloc)
        parts = _tiny_population(8)
        assert chans.ship(parts, np.arange(4), 0, RIGHT) == 4
