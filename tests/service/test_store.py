"""Store unit tests: journal replay edge cases and the state machine.

The replay edge cases are the crash-recovery contract: an empty
journal, a torn final line, a journal written by a newer schema, and
replay idempotency.  No simulations run here -- the store is pure
bookkeeping.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.errors import (
    JobNotFoundError,
    JobStateError,
    JournalVersionError,
    ServiceJournalError,
)
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.service import store as st
from repro.service.store import (
    JobRecord,
    JobStore,
    ServiceJournal,
    replay,
    summarize_journal,
)
from repro.telemetry.stream import read_jsonl

pytestmark = pytest.mark.service


def make_job(job_id="j1", **kw) -> JobRecord:
    fields = dict(
        job_id=job_id,
        scenario="wedge",
        spec={"name": "wedge"},
        seed=7,
        overrides={"nx": 32},
        schedule=(0, 24),
        cache_key="k-" + job_id,
        job_dir=f"/tmp/{job_id}",
        submitted_time=100.0,
    )
    fields.update(kw)
    return JobRecord(**fields)


def journal_path(tmp_path):
    return tmp_path / ServiceJournal.filename


class TestJournalLoading:
    def test_missing_journal_is_empty_not_an_error(self, tmp_path):
        records, torn = read_jsonl(journal_path(tmp_path))
        assert records == [] and torn is False
        store = JobStore(tmp_path)
        assert store.jobs == {} and store.seq == 0

    def test_empty_file_is_empty(self, tmp_path):
        journal_path(tmp_path).write_text("")
        records, torn = read_jsonl(journal_path(tmp_path))
        assert records == [] and torn is False

    def test_torn_final_line_is_dropped_and_flagged(self, tmp_path):
        good = {"kind": "service_start", "v": 1}
        journal_path(tmp_path).write_text(
            json.dumps(good) + "\n" + '{"kind": "submitted", "jo'
        )
        records, torn = read_jsonl(journal_path(tmp_path))
        assert torn is True
        assert records == [good]

    def test_store_repairs_the_torn_tail(self, tmp_path):
        good = {"kind": "service_start", "v": 1}
        journal_path(tmp_path).write_text(
            json.dumps(good) + "\n" + '{"kind": "subm'
        )
        store = JobStore(tmp_path)
        assert store.torn_tail is True
        store.record("noop")
        store.close()
        # Every line parses again: the repair dropped the partial one
        # instead of letting the next append weld onto it.
        records, torn = read_jsonl(journal_path(tmp_path))
        assert torn is False
        assert [r["kind"] for r in records] == ["service_start", "noop"]

    def test_garbage_before_the_tail_raises(self, tmp_path):
        journal_path(tmp_path).write_text(
            '{"kind": "ser\n{"kind": "service_stop", "v": 1}\n'
        )
        with pytest.raises(ServiceJournalError, match="corrupt"):
            read_jsonl(journal_path(tmp_path))

    def test_newer_schema_version_raises(self, tmp_path):
        journal_path(tmp_path).write_text(
            json.dumps({"kind": "service_start", "v": st.JOURNAL_VERSION + 1})
            + "\n"
        )
        with pytest.raises(JournalVersionError, match="newer"):
            JobStore(tmp_path)


class TestReplay:
    def records(self):
        job = make_job()
        return [
            {"kind": "service_start", "v": 1},
            {"kind": "submitted", "v": 1, "job": job.to_dict()},
            {"kind": "state", "v": 1, "job_id": "j1",
             "state": st.RUNNING, "attempt": 1, "started_time": 101.0},
            {"kind": "state", "v": 1, "job_id": "j1",
             "state": st.DONE, "finished_time": 109.0, "exit_code": 0},
            {"kind": "cached", "v": 1, "key": "k-j1", "job_id": "j1"},
        ]

    def test_replay_reconstructs_the_job(self):
        jobs, cache = replay(self.records())
        job = jobs["j1"]
        assert job.state == st.DONE
        assert job.attempt == 1
        assert job.started_time == 101.0
        assert job.finished_time == 109.0
        assert cache == {"k-j1": "j1"}

    def test_replay_is_idempotent(self):
        records = self.records()
        assert replay(records) == replay(records)

    def test_replay_tolerates_unknown_informational_kinds(self):
        records = self.records() + [
            {"kind": "solar_flare_warning", "v": 1, "severity": "high"}
        ]
        jobs, _ = replay(records)
        assert jobs["j1"].state == st.DONE

    def test_replay_tolerates_state_for_unknown_job(self):
        # Only reachable through manual journal surgery, but the
        # restart path must never crash on it.
        jobs, _ = replay(
            [{"kind": "state", "v": 1, "job_id": "ghost",
              "state": st.DONE}]
        )
        assert jobs == {}

    def test_lost_tail_record_rolls_back_one_transition(self, tmp_path):
        # Simulating the real crash: the DONE record was torn away, so
        # the job replays as RUNNING and the orchestrator requeues it.
        records = self.records()
        blob = "".join(json.dumps(r) + "\n" for r in records[:-2])
        blob += json.dumps(records[-2])[: len(json.dumps(records[-2])) // 2]
        journal_path(tmp_path).write_text(blob)
        store = JobStore(tmp_path)
        assert store.torn_tail is True
        assert store.jobs["j1"].state == st.RUNNING


#: JSON values of every type a journal line can carry.
JSON_VALUES = hst.one_of(
    hst.none(), hst.booleans(), hst.integers(-3, 10**6),
    hst.floats(allow_nan=False), hst.text(max_size=4),
    hst.lists(hst.integers(0, 9), max_size=3),
    hst.dictionaries(hst.text(max_size=3), hst.integers(), max_size=2),
)


class TestMalformedRecords:
    """A well-formed record with one field dropped or retyped replays
    or raises :class:`ServiceJournalError` -- never a ``KeyError`` or
    ``TypeError`` out of the restart path."""

    def test_a_submission_without_its_job_is_a_journal_error(self, tmp_path):
        journal_path(tmp_path).write_text('{"kind":"submitted","v":1}\n')
        with pytest.raises(ServiceJournalError, match=r"record 0 \('submitted'\)"):
            JobStore(tmp_path)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=hst.data())
    def test_one_field_dropped_or_retyped(self, data):
        records = TestReplay().records()
        i = data.draw(hst.integers(0, len(records) - 1), label="record")
        target = records[i]
        if "job" in target and data.draw(hst.booleans(), label="in job"):
            target = target["job"]
        key = data.draw(hst.sampled_from(sorted(target)), label="field")
        if data.draw(hst.booleans(), label="drop"):
            del target[key]
        else:
            target[key] = data.draw(JSON_VALUES, label="value")
        try:
            jobs, _ = replay(records)
        except ServiceJournalError:
            return
        for job in jobs.values():
            assert job.state in st.VALID_TRANSITIONS
            assert len(job.schedule) == 2


class TestStateMachine:
    def store(self, tmp_path):
        store = JobStore(tmp_path)
        store.add_job(make_job())
        return store

    def test_happy_path(self, tmp_path):
        store = self.store(tmp_path)
        store.transition("j1", st.RUNNING, attempt=1)
        store.transition("j1", st.DONE, exit_code=0)
        assert store.get("j1").terminal

    def test_retry_loop(self, tmp_path):
        store = self.store(tmp_path)
        store.transition("j1", st.RUNNING, attempt=1)
        store.transition("j1", st.RETRYING, error="boom")
        store.transition("j1", st.QUEUED, not_before=123.0)
        store.transition("j1", st.RUNNING, attempt=2)
        job = store.get("j1")
        assert job.attempt == 2 and job.not_before == 123.0

    def test_invalid_transition_rejected(self, tmp_path):
        store = self.store(tmp_path)
        with pytest.raises(JobStateError, match="invalid"):
            store.transition("j1", st.DONE)  # QUEUED -> DONE skips RUNNING

    @pytest.mark.parametrize(
        "terminal", sorted(st.TERMINAL_STATES)
    )
    def test_terminal_states_are_absorbing(self, tmp_path, terminal):
        store = JobStore(tmp_path)
        store.add_job(make_job())
        store.transition("j1", st.RUNNING)
        store.transition("j1", terminal)
        for requested in st.VALID_TRANSITIONS:
            with pytest.raises(JobStateError):
                store.transition("j1", requested)

    def test_unknown_job_raises(self, tmp_path):
        store = JobStore(tmp_path)
        with pytest.raises(JobNotFoundError):
            store.get("nope")

    def test_duplicate_submission_id_rejected(self, tmp_path):
        store = self.store(tmp_path)
        with pytest.raises(JobStateError, match="duplicate"):
            store.add_job(make_job())

    def test_transitions_survive_restart(self, tmp_path):
        store = self.store(tmp_path)
        store.transition("j1", st.RUNNING, attempt=1, started_time=5.0)
        store.transition("j1", st.TIMED_OUT, error="deadline")
        store.close()
        again = JobStore(tmp_path)
        job = again.get("j1")
        assert job.state == st.TIMED_OUT
        assert job.error == "deadline"
        assert job.started_time == 5.0


class TestJournalTearFault:
    def test_injected_tear_kills_the_writer_and_is_recoverable(
        self, tmp_path
    ):
        plan = FaultPlan([FaultSpec("journal_tear", step=3)])
        store = JobStore(tmp_path, fault_plan=plan)
        store.add_job(make_job())          # seq 1
        store.transition("j1", st.RUNNING)  # seq 2
        with pytest.raises(ServiceJournalError, match="torn"):
            store.transition("j1", st.DONE)  # seq 3: torn mid-write
        # Restart: the torn DONE record is gone, the job replays as
        # RUNNING, exactly what a crash mid-append must look like.
        again = JobStore(tmp_path)
        assert again.torn_tail is True
        assert again.get("j1").state == st.RUNNING


class TestSummarize:
    def test_missing_journal_returns_none(self, tmp_path):
        assert summarize_journal(tmp_path) is None

    def test_counts(self, tmp_path):
        store = JobStore(tmp_path)
        store.add_job(make_job("a"))
        store.add_job(make_job("b"))
        store.transition("a", st.RUNNING, attempt=1)
        store.transition("a", st.RETRYING, error="x")
        store.transition("a", st.QUEUED)
        store.transition("b", st.RUNNING, attempt=1)
        store.transition("b", st.DONE)
        store.record("cache_hit", key="k-b", job_id="b")
        store.record("backpressure", queue_depth=8, limit=8)
        store.record("drained", job_id="a", exit_code=3)
        store.transition("a", st.RUNNING, attempt=2)
        store.transition("a", st.QUEUED, requeued=True)
        store.close()
        summary = summarize_journal(tmp_path)
        assert summary["jobs"] == 2
        assert summary["submissions"] == 2
        assert summary["retries"] == 1
        assert summary["cache_hits"] == 1
        assert summary["backpressure"] == 1
        assert summary["drains"] == 1
        assert summary["requeues"] == 1
        assert summary["by_state"] == {st.QUEUED: 1, st.DONE: 1}
        assert summary["torn_tail"] is False
