"""Unit tests for the streaming layer: follower, tail, stitch, watch.

Pure filesystem tests -- no orchestrator, no HTTP.  The integration
behaviour (routes, SSE, live fleet) lives in
``tests/service/test_stream.py``.
"""

from __future__ import annotations

import io
import json
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, ServiceJournalError
from repro.resilience import RunJournal
from repro.service.watch import (
    JobView,
    fleet_lines,
    progress_bar,
    sparkline,
)
from repro.telemetry.stitch import (
    ORCH_SPANS_FILE,
    ORCHESTRATOR_PID,
    stitch_fleet_trace,
)
from repro.telemetry.stream import (
    JobEventTail,
    JsonlFollower,
    snapshot_records,
)
from repro.telemetry.spans import validate_trace


def _append(path, *records, torn: str = "") -> None:
    with open(path, "a", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
        if torn:
            fh.write(torn)


class TestSnapshotRecords:
    def test_missing_file_is_empty(self, tmp_path):
        assert snapshot_records(tmp_path / "nope.jsonl") == []

    def test_reads_complete_records(self, tmp_path):
        p = tmp_path / "s.jsonl"
        _append(p, {"kind": "a"}, {"kind": "b"})
        assert [r["kind"] for r in snapshot_records(p)] == ["a", "b"]

    def test_torn_tail_is_dropped(self, tmp_path):
        p = tmp_path / "s.jsonl"
        _append(p, {"kind": "a"}, torn='{"kind": "b", "x"')
        assert [r["kind"] for r in snapshot_records(p)] == ["a"]

    def test_midfile_garbage_raises_strict(self, tmp_path):
        p = tmp_path / "s.jsonl"
        p.write_text('{"kind": "a"}\nGARBAGE\n{"kind": "c"}\n')
        with pytest.raises(ServiceJournalError):
            snapshot_records(p)

    def test_midfile_garbage_skipped_lenient(self, tmp_path):
        p = tmp_path / "s.jsonl"
        p.write_text('{"kind": "a"}\nGARBAGE\n{"kind": "c"}\n')
        kinds = [r["kind"] for r in snapshot_records(p, strict=False)]
        assert kinds == ["a", "c"]


class TestTornRunJournal:
    """What a ``proc.kill()`` mid-append leaves: a journal cut at any
    byte loads its complete records (or raises typed), and the next
    writer's first record starts on a clean line and reads back."""

    RECORDS = [
        {"kind": "checkpoint", "step": 5, "time": 1.0},
        {"kind": "recovery", "step": 7, "restored_step": 5, "time": 2.0},
        {"kind": "audit", "step": 10, "checks": ["finite"], "time": 3.0},
    ]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_cut_at_any_byte_loads_and_appends_clean(self, data):
        with tempfile.TemporaryDirectory() as run_dir:
            writer = RunJournal(run_dir)
            writer.append_many(self.RECORDS)
            writer.close()
            blob = writer.path.read_bytes()
            cut = data.draw(st.integers(0, len(blob)))
            writer.path.write_bytes(blob[:cut])
            whole = blob[:cut].count(b"\n")
            try:
                assert RunJournal.load(run_dir) == self.RECORDS[:whole]
            except ServiceJournalError:
                pass
            after = {"kind": "resumed", "step": 8, "time": 4.0}
            resumed = RunJournal(run_dir)
            resumed.append(after)
            resumed.close()
            assert RunJournal.load(run_dir) == self.RECORDS[:whole] + [after]


def _poll(follower) -> list:
    """The records a follower's next poll returns (cursors dropped)."""
    return [rec for rec, _ in follower.poll_records()]


class TestJsonlFollower:
    def test_incremental_polls(self, tmp_path):
        p = tmp_path / "f.jsonl"
        f = JsonlFollower(p)
        assert _poll(f) == []  # file does not exist yet
        _append(p, {"n": 1})
        assert [r["n"] for r in _poll(f)] == [1]
        assert _poll(f) == []
        _append(p, {"n": 2}, {"n": 3})
        assert [r["n"] for r in _poll(f)] == [2, 3]

    def test_torn_line_held_until_complete(self, tmp_path):
        p = tmp_path / "f.jsonl"
        f = JsonlFollower(p)
        _append(p, {"n": 1}, torn='{"n": 2')
        assert [r["n"] for r in _poll(f)] == [1]
        with open(p, "a") as fh:
            fh.write(', "ok": true}\n')
        assert [r["n"] for r in _poll(f)] == [2]

    def test_cursor_resumes_in_fresh_follower(self, tmp_path):
        p = tmp_path / "f.jsonl"
        _append(p, {"n": 1}, {"n": 2})
        f1 = JsonlFollower(p)
        _poll(f1)
        _append(p, {"n": 3})
        f2 = JsonlFollower(p, cursor=f1.cursor)  # e.g. across processes
        assert [r["n"] for r in _poll(f2)] == [3]

    def test_rotation_resets_to_start(self, tmp_path):
        p = tmp_path / "f.jsonl"
        _append(p, {"n": 1}, {"n": 2})
        f = JsonlFollower(p)
        _poll(f)
        p.write_text('{"n": 9}\n')  # truncate-and-rewrite
        assert [r["n"] for r in _poll(f)] == [9]
        assert f.rotations == 1

    def test_bad_complete_line_counted_dropped(self, tmp_path):
        p = tmp_path / "f.jsonl"
        p.write_text('{"n": 1}\nnot json\n{"n": 2}\n')
        f = JsonlFollower(p)
        assert [r["n"] for r in _poll(f)] == [1, 2]
        assert f.dropped == 1

    def test_per_record_cursors_are_gapless(self, tmp_path):
        p = tmp_path / "f.jsonl"
        _append(p, {"n": 1}, {"n": 2}, {"n": 3})
        pairs = JsonlFollower(p).poll_records()
        assert [r["n"] for r, _ in pairs] == [1, 2, 3]
        # Resuming from the cursor after record k yields k+1 onwards.
        _, after_first = pairs[0]
        rest = _poll(JsonlFollower(p, cursor=after_first))
        assert [r["n"] for r in rest] == [2, 3]


class TestJobEventTail:
    def _job_dir(self, tmp_path):
        _append(
            tmp_path / "worker.jsonl",
            {"kind": "started", "time": 1.0},
            {"kind": "heartbeat", "step": 8, "time": 3.0},
        )
        _append(
            tmp_path / "events.jsonl",
            {"kind": "metrics", "step": 8, "time": 2.0},
            {"kind": "span", "name": "x", "ts": 0.0, "time": 2.5},
        )
        return tmp_path

    def test_merged_time_order_and_src(self, tmp_path):
        tail = JobEventTail(self._job_dir(tmp_path))
        recs = tail.poll()
        assert [r["kind"] for r in recs] == [
            "started", "metrics", "heartbeat",
        ]
        assert [r["src"] for r in recs] == [
            "worker", "telemetry", "worker",
        ]

    def test_spans_are_skipped(self, tmp_path):
        recs = JobEventTail(self._job_dir(tmp_path)).poll()
        assert all(r["kind"] != "span" for r in recs)

    def test_cursor_round_trip(self, tmp_path):
        job = self._job_dir(tmp_path)
        t1 = JobEventTail(job)
        t1.poll()
        _append(job / "worker.jsonl", {"kind": "done", "time": 4.0})
        t2 = JobEventTail(job, cursor=t1.cursor)
        assert [r["kind"] for r in t2.poll()] == ["done"]

    def test_per_record_cursor_resumes_mid_batch(self, tmp_path):
        job = self._job_dir(tmp_path)
        recs = JobEventTail(job).poll()
        # Drop the connection after the first record: resuming from its
        # cursor replays exactly the rest, no gap, no duplicate.
        resumed = JobEventTail(job, cursor=recs[0]["cursor"]).poll()
        assert [r["kind"] for r in resumed] == ["metrics", "heartbeat"]

    def test_malformed_cursor_raises(self, tmp_path):
        with pytest.raises(ConfigurationError):
            JobEventTail(tmp_path, cursor="not-a-cursor")
        with pytest.raises(ConfigurationError):
            JobEventTail.decode_cursor("1:2:3")

    def test_empty_cursor_is_start(self):
        assert JobEventTail.decode_cursor(None) == (0, 0)
        assert JobEventTail.decode_cursor("") == (0, 0)


class TestStitch:
    def _fleet_dir(self, tmp_path):
        data = tmp_path / "svc"
        data.mkdir()
        _append(
            data / ORCH_SPANS_FILE,
            {"kind": "span", "name": "dispatch attempt 1", "ts": 10.0,
             "dur": 0.01, "tid": 0, "job_id": "job-a"},
            {"kind": "span", "name": "attempt 1 (exit 0)", "ts": 10.0,
             "dur": 2.0, "tid": 1, "job_id": "job-a"},
        )
        for i, job in enumerate(("job-a", "job-b")):
            jd = data / job
            jd.mkdir()
            _append(
                jd / "events.jsonl",
                {"kind": "metrics", "step": 1},  # non-span: ignored
                {"kind": "span", "name": "step", "ts": 10.5 + i,
                 "dur": 0.1, "step": 1, "tid": 0},
            )
        return data

    def test_stitched_trace_validates(self, tmp_path):
        data = self._fleet_dir(tmp_path)
        trace = stitch_fleet_trace(data)
        assert validate_trace(trace) == []
        assert (data / "fleet_trace.json").exists()

    def test_processes_are_distinct_tracks(self, tmp_path):
        trace = stitch_fleet_trace(self._fleet_dir(tmp_path))
        xs = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        pids = {e["pid"] for e in xs}
        assert ORCHESTRATOR_PID in pids
        assert len(pids) == 3  # orchestrator + two jobs
        names = {
            e["pid"]: e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert names[ORCHESTRATOR_PID] == "orchestrator"
        assert set(names.values()) == {"orchestrator", "job-a", "job-b"}

    def test_timestamps_rebased_to_zero(self, tmp_path):
        trace = stitch_fleet_trace(self._fleet_dir(tmp_path))
        ts = [
            e["ts"] for e in trace["traceEvents"] if e["ph"] == "X"
        ]
        assert min(ts) == 0.0
        assert all(t >= 0.0 for t in ts)

    def test_empty_dir_still_valid(self, tmp_path):
        data = tmp_path / "empty"
        data.mkdir()
        trace = stitch_fleet_trace(data)
        assert validate_trace(trace) == []

    def test_cli_exit_zero(self, tmp_path, capsys):
        from repro.telemetry.stitch import main

        data = self._fleet_dir(tmp_path)
        assert main([str(data)]) == 0
        assert "3 processes" in capsys.readouterr().out


class TestReportTolerance:
    def test_summarize_tolerates_torn_tail(self, tmp_path):
        from repro.telemetry.report import summarize

        _append(
            tmp_path / "events.jsonl",
            {"kind": "run_start", "workers": 1, "seed": 7},
            {"kind": "metrics", "step": 10, "n_flow": 100,
             "us_per_particle": 1.5},
            torn='{"kind": "metrics", "step": 20, "n_fl',
        )
        summary = summarize(tmp_path)
        assert summary["seed"] == 7
        assert summary["last_step"] == 10  # torn record not counted

    def test_diff_of_live_runs(self, tmp_path):
        from repro.telemetry.report import main

        for name in ("a", "b"):
            d = tmp_path / name
            d.mkdir()
            _append(
                d / "events.jsonl",
                {"kind": "run_start", "workers": 1, "seed": 1},
                {"kind": "metrics", "step": 5, "us_per_particle": 2.0},
                torn='{"kind": "metr',
            )
        rc = main([str(tmp_path / "a"), "--diff", str(tmp_path / "b")])
        assert rc == 0


class TestWatchRendering:
    def test_sparkline_shape(self):
        s = sparkline([1, 2, 3, 4], width=4)
        assert len(s) == 4
        assert s[0] == "▁" and s[-1] == "█"
        assert sparkline([]) == ""
        assert len(sparkline(list(range(100)), width=8)) == 8

    def test_progress_bar(self):
        assert progress_bar(None, None).endswith("?%")
        assert progress_bar(12, 24).endswith(" 50%")
        assert progress_bar(24, 24).endswith("100%")

    def test_job_view_accumulates(self):
        view = JobView("job-x")
        view.feed({"kind": "started", "attempt": 1, "total": 24})
        view.feed({"kind": "heartbeat", "step": 8, "total": 24,
                   "n_flow": 900, "us_per_particle": 1.25})
        view.feed({"kind": "metrics", "load_imbalance": 1.1})
        view.feed({"kind": "heartbeat", "step": 16, "total": 24,
                   "n_flow": 950, "us_per_particle": 1.5})
        text = "\n".join(view.lines())
        assert "16/24" in text
        assert "950" in text
        assert "1.500" in text
        assert "imbalance" in text
        assert "heartbeat:2" in text

    def test_fleet_lines_table(self):
        fleet = {
            "health": {"running": 1, "queue_depth": 2, "jobs": 3, "ok": True},
            "jobs": [
                {"job_id": "a", "state": "RUNNING", "step": 8,
                 "total": 24, "n_flow": 900, "us_per_particle": 1.25,
                 "heartbeat_age": 0.4, "attempt": 2},
                {"job_id": "b", "state": "QUEUED"},
            ],
        }
        lines = fleet_lines(fleet)
        assert "1 running" in lines[0]
        assert "8/24" in lines[2]
        assert "0.4s" in lines[2]
        assert lines[2].rstrip().endswith("1")  # attempt 2 = 1 retry

    def test_panel_plain_output_when_not_tty(self):
        from repro.service.watch import _Panel

        buf = io.StringIO()
        panel = _Panel(buf)
        panel.draw(["one"])
        panel.draw(["two"])
        assert buf.getvalue() == "one\ntwo\n"
