"""Chaos integration suite: the PR's acceptance criteria.

Every scenario here injects a real failure -- SIGKILLed workers,
stalled heartbeats, expired deadlines, a SIGKILLed orchestrator, a
torn journal -- and asserts the service's exactly-once terminal-state
contract plus bitwise-identical resumption:

* every submitted job reaches exactly ONE terminal state (counted in
  the journal, not just the in-memory table);
* a job that was killed and resumed ends in the ``state_digest`` of
  an unfailed in-process supervised ``execute`` of the same job;
* duplicate submission of a completed (digest, seed) returns the
  cached result without stepping the engine.
"""

from __future__ import annotations

import time

import pytest

from repro.core.sortstep import RESORT_PERIOD
from repro.scenarios import get
from repro.scenarios.golden import execute
from repro.service import Orchestrator, ServiceJournal
from repro.service import store as st
from repro.telemetry.stream import read_jsonl
from repro.resilience.faults import FaultPlan, FaultSpec
from tests.service.conftest import (
    TINY,
    TINY_SLAB,
    fast_config,
    wait_terminal,
)

pytestmark = [pytest.mark.service, pytest.mark.resilience]

#: The bitwise-resumption jobs run past two physical re-sorts of the
#: indexed kernel (steps 32 and 64) and die on the checkpoint between
#: them: the resumed worker must take the re-sort schedule from the
#: restored step count.  (Kills fire on heartbeat boundaries, every 8.)
KILL_STEP = RESORT_PERIOD + 8
LONG_TINY = {**TINY, "average": 2 * RESORT_PERIOD + 8}
LONG_SLAB = {**TINY_SLAB, "average": LONG_TINY["average"]}


def terminal_record_counts(data_dir) -> dict:
    """job_id -> number of terminal-state records in the journal."""
    records, _ = read_jsonl(
        data_dir / ServiceJournal.filename
    )
    counts: dict = {}
    for rec in records:
        if rec.get("kind") == "submitted":
            counts.setdefault(rec["job"]["job_id"], 0)
        if (
            rec.get("kind") == "state"
            and rec.get("state") in st.TERMINAL_STATES
        ):
            counts[rec["job_id"]] = counts.get(rec["job_id"], 0) + 1
    return counts


def assert_exactly_once_terminal(orch) -> None:
    counts = terminal_record_counts(orch.data_dir)
    assert counts, "no jobs journaled"
    assert all(n == 1 for n in counts.values()), counts
    for job in orch.store.jobs.values():
        assert job.terminal, (job.job_id, job.state)


def clean_digest(tmp_path, seed, scenario="wedge", overrides=TINY) -> str:
    """The state digest of an unfailed run of the same job: one
    supervised ``execute`` in this process, at its own cadences."""
    (run,) = execute(
        get(scenario),
        dict(overrides, seed=seed),
        supervise={
            "run_dir": tmp_path / "clean",
            "checkpoint_every": 50,
            "audit_every": 50,
        },
    )
    return run.state_digest


class TestWorkerDeath:
    def test_sigkilled_worker_resumes_bitwise_identical(self, tmp_path):
        orch = Orchestrator(tmp_path / "svc", fast_config(workers=1))
        out = orch.submit(
            scenario="wedge",
            seed=31,
            overrides=dict(LONG_TINY),
            faults=[{"kind": "worker_kill", "step": KILL_STEP}],
        )
        status = wait_terminal(orch, out["job_id"])
        assert status["state"] == st.DONE
        assert status["attempt"] == 2  # one death, one resume
        result = orch.result(out["job_id"])
        assert result["attempt"] == 2
        assert_exactly_once_terminal(orch)
        orch.shutdown()
        assert result["steps"] == LONG_TINY["average"]
        assert result["state_digest"] == clean_digest(
            tmp_path, 31, overrides=LONG_TINY
        )

    def test_sigkilled_slab_worker_resumes_bitwise_identical(self, tmp_path):
        orch = Orchestrator(tmp_path / "svc", fast_config(workers=1))
        out = orch.submit(
            scenario="wedge3d",
            seed=33,
            overrides=dict(LONG_SLAB),
            faults=[{"kind": "worker_kill", "step": KILL_STEP}],
        )
        status = wait_terminal(orch, out["job_id"])
        assert status["state"] == st.DONE
        assert status["attempt"] == 2  # one death, one resume
        result = orch.result(out["job_id"])
        assert_exactly_once_terminal(orch)
        orch.shutdown()
        assert result["state_digest"] == clean_digest(
            tmp_path, 33, "wedge3d", LONG_SLAB
        )

    def test_repeated_deaths_exhaust_retries_to_failed(self, tmp_path):
        # Three kills against max_job_retries=1: attempts 1 and 2 both
        # die, so the job must FAIL -- exactly once.
        orch = Orchestrator(
            tmp_path, fast_config(workers=1, max_job_retries=1)
        )
        out = orch.submit(
            scenario="wedge",
            seed=32,
            overrides=dict(TINY),
            faults=[
                {"kind": "worker_kill", "step": 8},
                {"kind": "worker_kill", "step": 8},
                {"kind": "worker_kill", "step": 8},
            ],
        )
        status = wait_terminal(orch, out["job_id"])
        assert status["state"] == st.FAILED
        assert status["attempt"] == 2
        assert_exactly_once_terminal(orch)
        orch.shutdown()


class TestWatchdog:
    def test_stalled_heartbeat_is_killed_and_retried(self, tmp_path):
        orch = Orchestrator(
            tmp_path / "svc",
            fast_config(workers=1, heartbeat_timeout=1.0),
        )
        out = orch.submit(
            scenario="wedge",
            seed=33,
            overrides=dict(TINY),
            faults=[
                {"kind": "worker_stall", "step": 8, "seconds": 60.0}
            ],
        )
        status = wait_terminal(orch, out["job_id"])
        assert status["state"] == st.DONE
        assert status["attempt"] == 2
        assert "stall" in (orch.store.get(out["job_id"]).error or "")
        assert_exactly_once_terminal(orch)
        result = orch.result(out["job_id"])
        orch.shutdown()
        assert result["state_digest"] == clean_digest(tmp_path, 33)

    def test_deadline_expiry_times_out_without_retry(self, tmp_path):
        orch = Orchestrator(tmp_path, fast_config(workers=1))
        out = orch.submit(
            scenario="wedge",
            seed=34,
            overrides={
                "nx": 32, "ny": 16, "density": 6.0,
                "transient": 0, "average": 100000,
            },
            deadline=1.0,
        )
        status = wait_terminal(orch, out["job_id"], timeout=60)
        assert status["state"] == st.TIMED_OUT
        assert status["attempt"] == 1  # a deadline is not retryable
        assert "deadline" in status["error"]
        assert orch._m_timeouts.value == 1
        assert_exactly_once_terminal(orch)
        orch.shutdown()


class TestOrchestratorCrash:
    def test_sigkill_after_dispatch_resumes_on_restart(self, tmp_path):
        # The injected kill fires right after the RUNNING transition is
        # journaled (seq 3: service_start, submitted, state) -- the
        # worker is mid-flight and the orchestrator dies without a
        # trace, exactly like SIGKILL.
        data = tmp_path / "svc"
        plan = FaultPlan([FaultSpec("orchestrator_kill", step=3)])
        orch = Orchestrator(
            data, fast_config(workers=1), fault_plan=plan
        )
        out = orch.submit(
            scenario="wedge", seed=35, overrides=dict(LONG_TINY)
        )
        deadline = time.time() + 30
        while not orch._dead:
            assert time.time() < deadline, "injected kill never fired"
            time.sleep(0.02)

        orch2 = Orchestrator(data, fast_config(workers=1))
        # Crash recovery replayed the journal: the in-flight job was
        # requeued, resumed from its checkpoint, and finished.
        status = wait_terminal(orch2, out["job_id"])
        assert status["state"] == st.DONE
        assert_exactly_once_terminal(orch2)
        result = orch2.result(out["job_id"])
        # The cache survived the crash too: resubmission is served
        # without stepping the engine.
        again = orch2.submit(
            scenario="wedge", seed=35, overrides=dict(LONG_TINY)
        )
        assert again["cached"] is True
        assert again["job_id"] == out["job_id"]
        orch2.shutdown()
        assert result["state_digest"] == clean_digest(
            tmp_path, 35, overrides=LONG_TINY
        )

    def test_torn_journal_tail_recovers_on_restart(self, tmp_path):
        # Tear the journal on the DONE record: the crash loses the
        # terminal transition, so the restarted orchestrator replays
        # the job as RUNNING, requeues it, and it completes again.
        # The journal then holds exactly one (surviving) DONE record.
        plan = FaultPlan([FaultSpec("journal_tear", step=4)])
        orch = Orchestrator(
            tmp_path, fast_config(workers=1), fault_plan=plan
        )
        out = orch.submit(scenario="wedge", seed=36, overrides=dict(TINY))
        deadline = time.time() + 60
        while not orch._dead:
            assert time.time() < deadline, "injected tear never fired"
            time.sleep(0.02)

        orch2 = Orchestrator(tmp_path, fast_config(workers=1))
        assert orch2.store.torn_tail is True
        status = wait_terminal(orch2, out["job_id"])
        assert status["state"] == st.DONE
        assert_exactly_once_terminal(orch2)
        result = orch2.result(out["job_id"])
        orch2.shutdown()
        assert result["steps"] == TINY["average"]


class TestChaosMix:
    def test_every_job_reaches_exactly_one_terminal_state(self, tmp_path):
        """The headline invariant under a mixed chaos load."""
        orch = Orchestrator(
            tmp_path,
            fast_config(
                workers=2, heartbeat_timeout=1.5, max_job_retries=2
            ),
        )
        jobs = [
            orch.submit(scenario="wedge", seed=41, overrides=dict(TINY)),
            orch.submit(
                scenario="wedge",
                seed=42,
                overrides=dict(TINY),
                faults=[{"kind": "worker_kill", "step": 8}],
            ),
            orch.submit(
                scenario="wedge",
                seed=43,
                overrides=dict(TINY),
                faults=[
                    {"kind": "worker_stall", "step": 16, "seconds": 30.0}
                ],
            ),
            orch.submit(
                scenario="wedge",
                seed=44,
                overrides={
                    "nx": 32, "ny": 16, "density": 6.0,
                    "transient": 0, "average": 100000,
                },
                deadline=1.5,
            ),
        ]
        states = {
            j["job_id"]: wait_terminal(orch, j["job_id"], timeout=180)[
                "state"
            ]
            for j in jobs
        }
        assert states[jobs[0]["job_id"]] == st.DONE
        assert states[jobs[1]["job_id"]] == st.DONE
        assert states[jobs[2]["job_id"]] == st.DONE
        assert states[jobs[3]["job_id"]] == st.TIMED_OUT
        assert_exactly_once_terminal(orch)
        orch.shutdown()
