"""Unit tests of the resilience primitives: fault plans and typed errors."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.simulation import Simulation
from repro.errors import (
    CheckpointCorruptionError,
    ExchangeOverflowError,
    InvariantViolationError,
    RecoveryExhaustedError,
    ReproError,
    ResilienceError,
    WorkerCrashError,
    WorkerHangError,
)
from repro.geometry.domain3d import Domain3D
from repro.resilience import FaultPlan, FaultSpec, InvariantAuditor
from repro.resilience.faults import (
    ANY_SHARD,
    FAULT_KINDS,
    SERVICE_FAULT_KINDS,
    STEP_FAULT_KINDS,
)

pytestmark = pytest.mark.resilience


class TestErrorTaxonomy:
    def test_all_resilience_errors_are_repro_errors(self):
        for cls in (
            WorkerCrashError,
            WorkerHangError,
            ExchangeOverflowError,
            InvariantViolationError,
            CheckpointCorruptionError,
            RecoveryExhaustedError,
        ):
            assert issubclass(cls, ResilienceError)
            assert issubclass(cls, ReproError)

    def test_context_is_carried_and_rendered(self):
        err = WorkerCrashError("worker died", step=12, shard=3)
        assert err.context == {"step": 12, "shard": 3}
        assert "step=12" in str(err)
        assert "shard=3" in str(err)

    def test_none_context_values_are_dropped(self):
        err = WorkerHangError("stuck", step=None, timeout_s=5.0)
        assert "step" not in err.context
        assert err.context["timeout_s"] == 5.0


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("meteor", step=0)

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            FaultSpec("crash", step=-1)

    def test_kinds_cover_the_documented_set(self):
        assert set(STEP_FAULT_KINDS) == {
            "crash", "exception", "hang", "overflow", "corrupt", "truncate",
        }
        assert set(SERVICE_FAULT_KINDS) == {
            "worker_kill", "worker_stall", "journal_tear",
            "orchestrator_kill",
        }
        assert set(FAULT_KINDS) == (
            set(STEP_FAULT_KINDS) | set(SERVICE_FAULT_KINDS)
        )

    def test_dict_round_trip(self):
        spec = FaultSpec("worker_kill", step=16, shard=ANY_SHARD)
        back = FaultSpec.from_dict(spec.to_dict())
        assert (back.kind, back.step, back.shard) == (
            spec.kind, spec.step, spec.shard,
        )
        stall = FaultSpec.from_dict(
            {"kind": "worker_stall", "step": 4, "seconds": 2.5}
        )
        assert stall.seconds == 2.5


class TestFaultPlan:
    def test_take_fires_once(self):
        plan = FaultPlan([FaultSpec("crash", step=5, shard=1)])
        assert plan.armed
        assert plan.take("crash", 3, 1) is None       # too early
        assert plan.take("crash", 5, 0) is None       # wrong shard
        spec = plan.take("crash", 5, 1)
        assert spec is not None and spec.fired
        assert plan.take("crash", 6, 1) is None       # fire-once
        assert not plan.armed

    def test_step_is_a_floor_not_an_exact_match(self):
        plan = FaultPlan([FaultSpec("overflow", step=5)])
        assert plan.take("overflow", 9, 0) is not None

    def test_any_shard_matches_first_comer(self):
        plan = FaultPlan([FaultSpec("hang", step=2, shard=ANY_SHARD)])
        assert plan.take("hang", 2, 7) is not None

    def test_shard_none_skips_shard_filter(self):
        plan = FaultPlan([FaultSpec("truncate", step=4, shard=2)])
        assert plan.take("truncate", 4) is not None

    def test_disarm_through(self):
        plan = FaultPlan(
            [FaultSpec("crash", step=5), FaultSpec("crash", step=50)]
        )
        assert plan.disarm_through(10) == 1
        assert plan.take("crash", 10, 0) is None      # early one disarmed
        assert plan.take("crash", 50, 0) is not None  # later one survives

    def test_corruption_pattern_is_deterministic_and_nasty(self):
        plan = FaultPlan([], seed=9)
        a = plan.corruption_pattern(3, 1, (4, 6))
        b = plan.corruption_pattern(3, 1, (4, 6))
        assert a.shape == (4, 6)
        assert np.array_equal(a, b, equal_nan=True)
        assert not np.isfinite(a).all() or np.abs(a[np.isfinite(a)]).max() > 1e20
        c = plan.corruption_pattern(4, 1, (4, 6))
        assert not np.array_equal(a, c, equal_nan=True)

    def test_describe_is_serializable(self):
        import json

        plan = FaultPlan([FaultSpec("exception", step=1, shard=0)])
        blob = json.dumps(plan.describe())
        assert "exception" in blob


class TestBackoffJitter:
    """The one jittered exponential backoff the supervisor and the
    service share: decorrelates retries without touching the sim RNG."""

    def test_zero_base_stays_exactly_zero(self):
        # The fast test path: backoff_base=0 must never sleep.
        from repro.resilience.supervisor import backoff_seconds

        assert all(backoff_seconds(0.0, r) == 0.0 for r in (1, 2, 5))

    def test_jitter_stays_inside_the_band_and_varies(self):
        from repro.resilience.supervisor import backoff_seconds

        for retry, nominal in ((1, 1.0), (2, 2.0), (3, 4.0)):
            samples = [backoff_seconds(1.0, retry) for _ in range(200)]
            assert all(
                0.5 * nominal <= s <= 1.5 * nominal for s in samples
            )
            assert max(samples) - min(samples) > 0.1 * nominal


class TestSlabAudit:
    """The auditor reads cells and ranges through ``domain.cell_axes``,
    so a span domain's ``z`` is audited like ``x`` and ``y``."""

    @pytest.fixture
    def audited(self, box_config):
        config = dataclasses.replace(box_config, domain=Domain3D(30, 20, 3))
        sim = Simulation(config)
        auditor = InvariantAuditor()
        auditor.rebase(sim)
        auditor.observe(sim.step())
        assert "cells" in auditor.audit(sim)["checks"]
        return sim, auditor

    def test_corrupted_z_is_out_of_range(self, audited):
        sim, auditor = audited
        sim.particles.z[0] = 3.5
        with pytest.raises(InvariantViolationError) as exc_info:
            auditor.audit(sim)
        assert exc_info.value.context["check"] == "range"
        assert exc_info.value.context["column"] == "z"

    def test_z_moved_to_another_cell_breaks_cell_consistency(self, audited):
        sim, auditor = audited
        sim.particles.z[0] = (sim.particles.z[0] + 1.0) % 3.0
        with pytest.raises(InvariantViolationError) as exc_info:
            auditor.audit(sim)
        assert exc_info.value.context["check"] == "cells"

    def test_corrupted_cell_is_caught(self, audited):
        sim, auditor = audited
        sim.particles.cell[0] += 1
        with pytest.raises(InvariantViolationError) as exc_info:
            auditor.audit(sim)
        assert exc_info.value.context["check"] in ("cells", "order")
