"""Orchestrator behaviour: dispatch, cache, backpressure, cancel, drain."""

from __future__ import annotations

import time

import pytest

from repro.errors import (
    BackpressureError,
    ConfigurationError,
    JobStateError,
    ServiceError,
)
from repro.service import Orchestrator, OrchestratorConfig
from repro.service import store as st
from tests.service.conftest import TINY_SLAB, fast_config, wait_terminal

pytestmark = pytest.mark.service


class TestConfig:
    def test_bad_knobs_rejected(self):
        with pytest.raises(ConfigurationError):
            OrchestratorConfig(workers=0)
        with pytest.raises(ConfigurationError):
            OrchestratorConfig(queue_limit=0)
        with pytest.raises(ConfigurationError):
            OrchestratorConfig(max_job_retries=-1)

    @pytest.mark.parametrize(
        "knobs",
        [
            {"heartbeat_timeout": 0.0},
            {"heartbeat_timeout": -1.0},
            {"heartbeat_timeout": float("nan")},
            {"default_deadline": -5.0},
            {"default_deadline": 0.0},
            {"default_deadline": float("nan")},
            {"default_deadline": float("inf")},
        ],
    )
    def test_bad_time_budgets_rejected(self, knobs):
        with pytest.raises(ConfigurationError, match=next(iter(knobs))):
            OrchestratorConfig(**knobs)

    @pytest.mark.parametrize(
        "budget",
        [
            {"deadline": -1.0},
            {"deadline": 0.0},
            {"deadline": float("nan")},
            {"deadline": float("inf")},
            {"deadline": "soon"},
            {"max_retries": -1},
            {"max_retries": 1.5},
            {"max_retries": "2"},
            {"max_retries": True},
        ],
    )
    def test_malformed_job_budget_rejected_unjournaled(
        self, orchestrator, tiny_overrides, budget
    ):
        seq = orchestrator.store.seq
        with pytest.raises(ConfigurationError, match=next(iter(budget))):
            orchestrator.submit(
                scenario="wedge", seed=3, overrides=tiny_overrides, **budget
            )
        assert orchestrator.store.seq == seq
        assert orchestrator.store.jobs == {}

    def test_malformed_deadline_is_checked_before_the_cache(
        self, orchestrator, tiny_overrides
    ):
        out = orchestrator.submit(
            scenario="wedge", seed=5, overrides=tiny_overrides
        )
        assert wait_terminal(orchestrator, out["job_id"])["state"] == st.DONE
        seq = orchestrator.store.seq
        with pytest.raises(ConfigurationError, match="deadline"):
            orchestrator.submit(
                scenario="wedge",
                seed=5,
                overrides=tiny_overrides,
                deadline=-1.0,
            )
        assert orchestrator.store.seq == seq

    def test_submit_needs_exactly_one_spec_source(self, orchestrator):
        with pytest.raises(ConfigurationError, match="exactly one"):
            orchestrator.submit()
        with pytest.raises(ConfigurationError, match="exactly one"):
            orchestrator.submit(scenario="wedge", spec={"name": "x"})

    def test_unknown_override_keys_rejected(self, orchestrator):
        with pytest.raises(ConfigurationError, match="bogus"):
            orchestrator.submit(scenario="wedge", overrides={"bogus": 1})


class TestLifecycle:
    def test_job_runs_to_done_and_caches(
        self, orchestrator, tiny_overrides
    ):
        out = orchestrator.submit(
            scenario="wedge", seed=11, overrides=tiny_overrides
        )
        assert out["state"] == st.QUEUED and out["cached"] is False
        status = wait_terminal(orchestrator, out["job_id"])
        assert status["state"] == st.DONE
        assert status["attempt"] == 1
        result = orchestrator.result(out["job_id"])
        assert result["steps"] == tiny_overrides["average"]
        assert len(result["state_digest"]) == 64

        # Duplicate submission: same (digest, seed, overrides,
        # schedule) returns the original job without stepping the
        # engine -- instantly, and without a new job record.
        t0 = time.time()
        again = orchestrator.submit(
            scenario="wedge", seed=11, overrides=tiny_overrides
        )
        assert time.time() - t0 < 0.5
        assert again == {
            "job_id": out["job_id"], "state": st.DONE, "cached": True,
        }
        assert len(orchestrator.store.jobs) == 1

    def test_slab_job_runs_to_done_with_telemetry(self, orchestrator):
        """A ``wedge3d`` job is a ``Domain3D`` run of the one driver:
        supervised, checkpointed and telemetered like any other."""
        out = orchestrator.submit(
            scenario="wedge3d", seed=11, overrides=dict(TINY_SLAB)
        )
        status = wait_terminal(orchestrator, out["job_id"])
        assert status["state"] == st.DONE, status
        result = orchestrator.result(out["job_id"])
        assert result["scenario"] == "wedge3d"
        assert result["steps"] == TINY_SLAB["average"]
        job_dir = orchestrator.data_dir / out["job_id"]
        assert (job_dir / "events.jsonl").stat().st_size > 0
        assert (job_dir / "trace.json").exists()

    def test_seed_changes_miss_the_cache(
        self, orchestrator, tiny_overrides
    ):
        a = orchestrator.submit(
            scenario="wedge", seed=1, overrides=tiny_overrides
        )
        b = orchestrator.submit(
            scenario="wedge", seed=2, overrides=tiny_overrides
        )
        assert a["job_id"] != b["job_id"]
        assert wait_terminal(orchestrator, a["job_id"])["state"] == st.DONE
        assert wait_terminal(orchestrator, b["job_id"])["state"] == st.DONE
        ra = orchestrator.result(a["job_id"])
        rb = orchestrator.result(b["job_id"])
        assert ra["state_digest"] != rb["state_digest"]

    def test_result_before_done_raises(self, tmp_path, tiny_overrides):
        orch = Orchestrator(tmp_path, fast_config(), start=False)
        out = orch.submit(
            scenario="wedge", seed=3, overrides=tiny_overrides
        )
        with pytest.raises(JobStateError, match="no result"):
            orch.result(out["job_id"])
        orch.shutdown()


class TestBackpressure:
    def test_full_queue_rejects_with_429_semantics(
        self, tmp_path, tiny_overrides
    ):
        # Scheduler never started: everything stays QUEUED.
        orch = Orchestrator(
            tmp_path, fast_config(queue_limit=2), start=False
        )
        for seed in (1, 2):
            orch.submit(
                scenario="wedge", seed=seed, overrides=tiny_overrides
            )
        with pytest.raises(BackpressureError) as err:
            orch.submit(
                scenario="wedge", seed=3, overrides=tiny_overrides
            )
        assert err.value.context["queue_depth"] == 2
        assert err.value.context["limit"] == 2
        # The rejection is journaled and counted.
        assert orch._m_backpressure.value == 1
        orch.shutdown()


class TestCancel:
    def test_cancel_queued_job(self, tmp_path, tiny_overrides):
        orch = Orchestrator(tmp_path, fast_config(), start=False)
        out = orch.submit(
            scenario="wedge", seed=5, overrides=tiny_overrides
        )
        status = orch.cancel(out["job_id"])
        assert status["state"] == st.CANCELLED
        with pytest.raises(JobStateError, match="terminal"):
            orch.cancel(out["job_id"])
        orch.shutdown()

    def test_cancel_running_job_drains(self, tmp_path):
        orch = Orchestrator(tmp_path, fast_config(workers=1))
        out = orch.submit(
            scenario="wedge",
            seed=6,
            overrides={
                "nx": 32, "ny": 16, "density": 6.0,
                "transient": 0, "average": 4000,
            },
        )
        deadline = time.time() + 30
        while orch.status(out["job_id"])["state"] != st.RUNNING:
            assert time.time() < deadline
            time.sleep(0.02)
        orch.cancel(out["job_id"])
        status = wait_terminal(orch, out["job_id"], timeout=60)
        assert status["state"] == st.CANCELLED
        orch.shutdown()


class TestShutdown:
    def test_shutdown_rejects_new_submissions(
        self, tmp_path, tiny_overrides
    ):
        orch = Orchestrator(tmp_path, fast_config())
        orch.shutdown()
        with pytest.raises(ServiceError):
            orch.submit(
                scenario="wedge", seed=1, overrides=tiny_overrides
            )

    def test_drain_requeues_and_restart_finishes(self, tmp_path):
        overrides = {
            "nx": 32, "ny": 16, "density": 6.0,
            "transient": 0, "average": 600,
        }
        orch = Orchestrator(tmp_path, fast_config(workers=1))
        out = orch.submit(scenario="wedge", seed=8, overrides=overrides)
        deadline = time.time() + 30
        while orch.status(out["job_id"])["state"] != st.RUNNING:
            assert time.time() < deadline
            time.sleep(0.02)
        time.sleep(0.3)  # let it cross a checkpoint or two
        summary = orch.shutdown(drain=True)
        assert summary["drained"] + summary["completed"] == 1
        # The journal records the drain; a restarted orchestrator
        # resumes the job from its checkpoint and finishes it.
        orch2 = Orchestrator(tmp_path, fast_config(workers=1))
        status = wait_terminal(orch2, out["job_id"], timeout=120)
        assert status["state"] == st.DONE
        result = orch2.result(out["job_id"])
        assert result["steps"] == 600
        orch2.shutdown()


class TestMetrics:
    def test_prometheus_snapshot_written(
        self, tmp_path, tiny_overrides
    ):
        orch = Orchestrator(tmp_path, fast_config())
        out = orch.submit(
            scenario="wedge", seed=9, overrides=tiny_overrides
        )
        wait_terminal(orch, out["job_id"])
        orch.shutdown()
        prom = (tmp_path / "metrics.prom").read_text()
        assert "repro_service_submissions_total 1" in prom
        assert 'repro_service_jobs{state="DONE"} 1' in prom
