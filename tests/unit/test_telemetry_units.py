"""Unit tests for the telemetry subsystem and the perf-ledger fixes."""

from __future__ import annotations

import json
import urllib.request

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.perf import PerfLedger
from repro.telemetry import (
    EventStream,
    MetricsRegistry,
    SpanTracer,
    US_PER_PARTICLE_BUCKETS,
    validate_trace,
)
from repro.telemetry import observables
from repro.telemetry.exporters import MetricsServer, write_prometheus_snapshot
from repro.telemetry.report import render, render_diff, summarize
from repro.telemetry.spans import (
    RING_FIELDS,
    RING_STATE,
    WORKER_SPAN_NAMES,
    drain_ring,
    ring_append,
)


# -- metrics registry ---------------------------------------------------


class TestMetrics:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_things_total")
        c.inc()
        c.inc(4)
        assert reg.counter("repro_things_total").value == 5

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            reg.counter("c").inc(-1)

    def test_gauge_tracks_high_water(self):
        reg = MetricsRegistry()
        g = reg.gauge("repro_pop")
        g.set(10)
        g.set(3)
        assert g.value == 3
        assert g.high_water == 10

    def test_histogram_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_us")
        for v in (0.1, 1.5, 100.0):
            h.observe(v)
        assert h.count == 3 and sum(h.counts) == 3
        assert len(h.counts) == len(US_PER_PARTICLE_BUCKETS) + 1
        assert h.counts[0] == 1  # 0.1 <= 0.25
        assert h.counts[-1] == 1  # 100 lands in the +Inf tail
        assert h.mean() == pytest.approx((0.1 + 1.5 + 100.0) / 3)

    def test_labels_separate_series(self):
        reg = MetricsRegistry()
        reg.gauge("repro_load", labels={"shard": "0"}).set(7)
        reg.gauge("repro_load", labels={"shard": "1"}).set(9)
        assert reg.gauge("repro_load", labels={"shard": "0"}).value == 7
        assert reg.gauge("repro_load", labels={"shard": "1"}).value == 9

    def test_prometheus_text_format(self):
        reg = MetricsRegistry()
        reg.counter("repro_steps_total", help="steps").inc(3)
        reg.gauge("repro_pop", labels={"shard": "0"}).set(42)
        reg.histogram("repro_us").observe(1.0)
        text = reg.to_prometheus()
        assert "# TYPE repro_steps_total counter" in text
        assert "repro_steps_total 3" in text
        assert 'repro_pop{shard="0"} 42' in text
        assert 'repro_us_bucket{le="+Inf"} 1' in text
        assert "repro_us_count 1" in text
        assert "repro_us_sum" in text
        # Every non-comment line is "name{labels} value"
        for line in text.splitlines():
            if line.startswith("#") or not line.strip():
                continue
            assert len(line.rsplit(" ", 1)) == 2

    def test_snapshot_is_json_safe(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.histogram("h").observe(2.0)
        json.dumps(reg.snapshot())


# -- spans --------------------------------------------------------------


class TestSpans:
    def test_ring_roundtrip(self):
        ring = np.zeros((4, RING_FIELDS))
        state = np.zeros(RING_STATE, dtype=np.int64)
        ring_append(ring, state, 0, 1.0, 2.0, 5, 1, 999)
        ring_append(ring, state, 1, 2.0, 3.5, 5, 1, 999)
        rows = drain_ring(ring, state)
        assert rows.shape == (2, RING_FIELDS)
        assert rows[0][0] == 0 and rows[1][0] == 1
        assert state[0] == 0  # drained
        # drained again: empty
        assert drain_ring(ring, state).shape[0] == 0

    def test_ring_drops_when_full(self):
        ring = np.zeros((1, RING_FIELDS))
        state = np.zeros(RING_STATE, dtype=np.int64)
        ring_append(ring, state, 0, 0.0, 1.0, 0, 0, 1)
        ring_append(ring, state, 0, 1.0, 2.0, 0, 0, 1)
        assert state[0] == 1 and state[1] == 1  # one kept, one dropped

    def test_tracer_absorbs_ring_rows(self):
        tracer = SpanTracer(pid=1)
        rows = np.array([[2.0, 1.0, 1.5, 7.0, 0.0, 42.0]])
        tracer.absorb_ring_rows(rows)
        span = tracer.spans[0]
        assert span["name"] == WORKER_SPAN_NAMES[2]
        assert span["pid"] == 42 and span["step"] == 7
        assert span["dur"] == pytest.approx(0.5)

    def test_stamp_pending(self):
        tracer = SpanTracer(pid=1)
        tracer.record("motion", 0.0, 1.0)
        tracer.record("sort", 1.0, 2.0)
        tracer.stamp_pending(9)
        assert all(s["step"] == 9 for s in tracer.spans)
        tracer.record("motion", 2.0, 3.0)
        tracer.stamp_pending(10)
        assert tracer.spans[-1]["step"] == 10
        assert tracer.spans[0]["step"] == 9  # earlier stamps untouched

    def test_chrome_trace_valid_and_labelled(self):
        tracer = SpanTracer(pid=1)
        tracer.record("motion", 10.0, 10.5, step=1)
        tracer.absorb_ring_rows(np.array([[0.0, 10.0, 10.2, 1.0, 1.0, 77.0]]))
        trace = tracer.chrome_trace()
        assert validate_trace(trace) == []
        xs = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        ms = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        assert len(xs) == 2 and len(ms) == 2
        assert all(e["dur"] >= 0 for e in xs)
        names = {m["args"]["name"] for m in ms}
        assert "driver" in names and "shard 1" in names

    def test_validate_trace_catches_problems(self):
        bad = {
            "traceEvents": [
                {"ph": "B", "pid": 1, "tid": 0, "name": "a", "ts": 0},
                {"ph": "X", "pid": 1, "tid": 0, "name": "b", "ts": 0,
                 "dur": -1},
            ]
        }
        problems = validate_trace(bad)
        assert any("negative" in p for p in problems)
        assert any("unclosed" in p for p in problems)
        assert validate_trace({"traceEvents": None}) == [
            "traceEvents is not a list"
        ]

    def test_tracer_bounds_memory(self):
        tracer = SpanTracer(max_spans=2, pid=1)
        for i in range(5):
            tracer.record("motion", i, i + 1)
        assert len(tracer.spans) == 2
        assert tracer.dropped == 3


# -- event stream -------------------------------------------------------


class TestEventStream:
    def test_append_load_roundtrip(self, tmp_path):
        stream = EventStream(tmp_path)
        stream.emit("metrics", step=1, n_flow=100)
        stream.append({"kind": "audit", "ok": True})
        loaded = EventStream.load(tmp_path)
        assert [e["kind"] for e in loaded] == ["metrics", "audit"]
        assert all("time" in e for e in loaded)

    def test_load_missing_is_empty(self, tmp_path):
        assert EventStream.load(tmp_path / "nope") == []

    def test_journal_subclass_uses_own_file(self, tmp_path):
        from repro.resilience.supervisor import RunJournal

        journal = RunJournal(tmp_path)
        journal.append({"kind": "recovery", "step": 3})
        assert (tmp_path / "journal.jsonl").exists()
        assert not (tmp_path / "events.jsonl").exists()
        assert RunJournal.load(tmp_path)[0]["step"] == 3
        assert EventStream.load(tmp_path) == []


# -- exporters ----------------------------------------------------------


class TestExporters:
    def test_prometheus_snapshot_file(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("repro_steps_total").inc(2)
        path = tmp_path / "metrics.prom"
        write_prometheus_snapshot(reg, path)
        assert "repro_steps_total 2" in path.read_text()
        assert not path.with_suffix(".prom.tmp").exists()

    def test_http_endpoint(self):
        reg = MetricsRegistry()
        reg.counter("repro_steps_total").inc(7)
        server = MetricsServer(reg, port=0)
        try:
            url = f"http://127.0.0.1:{server.port}/metrics"
            body = urllib.request.urlopen(url, timeout=5).read().decode()
            assert "repro_steps_total 7" in body
            snap = json.loads(
                urllib.request.urlopen(
                    f"http://127.0.0.1:{server.port}/snapshot.json", timeout=5
                ).read()
            )
            assert "repro_steps_total" in snap
        finally:
            server.close()
        server.close()  # idempotent


# -- physics observables ------------------------------------------------


class TestObservables:
    def test_energy_drift(self):
        assert observables.energy_drift(101.0, 100.0) == pytest.approx(0.01)
        # Zero baseline: the denominator clamps to 1 (absolute drift).
        assert observables.energy_drift(5.0, 0.0) == pytest.approx(5.0)

    def test_load_imbalance(self):
        assert observables.load_imbalance([10, 10]) == pytest.approx(1.0)
        assert observables.load_imbalance([30, 10]) == pytest.approx(1.5)
        assert observables.load_imbalance([]) == 1.0
        assert observables.load_imbalance([0, 0]) == 1.0

    def test_mean_free_path_bands_uniform(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0.0, 80.0, size=40_000)
        lam = observables.mean_free_path_bands(
            [x], 80.0, 10.0, freestream_density=50.0,
            freestream_lambda=2.0, n_bands=4,
        )
        # Uniform at freestream density -> every band near lambda_inf.
        assert lam.shape == (4,)
        assert np.allclose(lam, 2.0, rtol=0.1)

    def test_mean_free_path_bands_take_the_band_volume(self):
        # A depth-4 slab at freestream density holds 4x the particles
        # of the 2-D tunnel; its cross-section (height x depth) says so.
        rng = np.random.default_rng(1)
        x = rng.uniform(0.0, 80.0, size=160_000)
        lam = observables.mean_free_path_bands(
            [x], 80.0, 10.0 * 4.0, freestream_density=50.0,
            freestream_lambda=2.0, n_bands=4,
        )
        assert np.allclose(lam, 2.0, rtol=0.1)

    def test_mean_free_path_continuum_is_none(self):
        assert (
            observables.mean_free_path_bands(
                [np.array([1.0])], 10.0, 5.0, 10.0, 0.0
            )
            is None
        )

    def test_mean_free_path_empty_band_is_inf(self):
        x = np.full(100, 0.5)  # everything in the first band
        lam = observables.mean_free_path_bands(
            [x], 10.0, 5.0, 2.0, 1.0, n_bands=2
        )
        assert np.isfinite(lam[0])
        assert np.isinf(lam[1])


# -- the report CLI -----------------------------------------------------


def _write_stream(run_dir, us=1.0, recoveries=0):
    stream = EventStream(run_dir)
    stream.emit("run_start", step=0, n_flow=1000, workers=2, seed=1)
    stream.emit(
        "metrics", step=10, n_flow=1000, us_per_particle=us,
        energy_drift=1e-3, load_imbalance=1.1,
        fractions={"motion": 0.14, "sort": 0.27,
                   "selection": 0.20, "collision": 0.39},
    )
    stream.emit("span", name="motion", ts=0.0, dur=0.1, step=10,
                tid=0, pid=1)
    stream.emit("audit", step=10, ok=True)
    for _ in range(recoveries):
        stream.emit("recovery", step=10, error="WorkerCrashError")
    stream.emit("checkpoint", step=10, path="ckpt_00000010.npz")
    stream.emit("run_end", snapshot={
        "metrics": {"repro_steps_total": {"value": 10}}
    })


class TestReport:
    def test_summarize(self, tmp_path):
        _write_stream(tmp_path, recoveries=2)
        s = summarize(tmp_path)
        assert s["steps"] == 10
        assert s["workers"] == 2
        assert s["us_per_particle_mean"] == pytest.approx(1.0)
        assert s["spans"] == 1
        assert s["audits"] == 1 and s["audit_failures"] == 0
        assert s["recoveries"] == 2
        assert s["checkpoints"] == 1

    def test_render_and_diff(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        _write_stream(a, us=1.0)
        _write_stream(b, us=2.0)
        out = render(summarize(a))
        assert "us/particle" in out and "14/27/20/39" in out
        diff = render_diff(summarize(a), summarize(b))
        assert "+100.0%" in diff

    def test_main_exit_codes(self, tmp_path, capsys):
        from repro.telemetry.report import main

        assert main([str(tmp_path / "missing")]) == 2
        _write_stream(tmp_path)
        assert main([str(tmp_path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["steps"] == 10

    def test_zero_step_run_reports_zero(self, tmp_path):
        # Regression: ``if not summary["steps"]`` conflated a reported
        # step count of 0 with "metric absent" and fell back to the
        # last metrics step.  A genuine zero-step run must report 0.
        stream = EventStream(tmp_path)
        stream.emit("run_start", step=0, n_flow=10, workers=1, seed=1)
        stream.emit("metrics", step=40, n_flow=10)
        stream.emit("run_end", snapshot={
            "metrics": {"repro_steps_total": {"value": 0}}
        })
        assert summarize(tmp_path)["steps"] == 0

    def test_missing_step_metric_falls_back_to_last_step(self, tmp_path):
        stream = EventStream(tmp_path)
        stream.emit("run_start", step=0, n_flow=10, workers=1, seed=1)
        stream.emit("metrics", step=40, n_flow=10)
        stream.emit("run_end", snapshot={"metrics": {}})
        assert summarize(tmp_path)["steps"] == 40

    def test_diff_from_zero_baseline_shows_absolute_delta(self, tmp_path):
        # Regression: a relative delta from a baseline of exactly 0 is
        # undefined, and render_diff hid the regression as "-".
        a, b = tmp_path / "a", tmp_path / "b"
        _write_stream(a, recoveries=0)
        _write_stream(b, recoveries=3)
        diff = render_diff(summarize(a), summarize(b))
        line = next(ln for ln in diff.splitlines() if "recoveries" in ln)
        assert "+3" in line

    def test_summarize_counts_rebalance_events(self, tmp_path):
        stream = EventStream(tmp_path)
        stream.emit("run_start", step=0, n_flow=10, workers=2, seed=1)
        stream.emit("rebalance", step=10, executed=True, columns_moved=3)
        stream.emit("rebalance", step=20, executed=False,
                    skipped="channel capacity")
        stream.emit("run_end", snapshot={
            "metrics": {"repro_steps_total": {"value": 20}}
        })
        s = summarize(tmp_path)
        assert s["rebalances"] == 1
        assert s["rebalances_skipped"] == 1
        assert s["rebalance_columns_moved"] == 3
        assert "rebalances" in render(s)


# -- perf ledger fixes --------------------------------------------------


class TestPerfLedger:
    def test_reset_under_open_phase_discards_charge(self):
        perf = PerfLedger()
        with perf.phase("motion"):
            perf.reset()  # e.g. warm-up reset while a phase is open
        assert perf.phase_seconds("motion") == 0.0
        assert perf.total_seconds() == 0.0
        # The ledger still works after the interrupted phase.
        with perf.phase("sort"):
            pass
        assert perf.phase_seconds("sort") > 0.0

    def test_us_per_particle_uses_step_series(self):
        perf = PerfLedger()
        for n in (100, 300):
            perf.record("motion", 1e-3)
            perf.end_step(n_particles=n)
        assert perf.particle_steps == 400
        us = perf.us_per_particle()
        # 2e-3 s over 400 particle-steps = 5 us/particle/step.
        assert us["motion"] == pytest.approx(5.0)

    def test_us_per_particle_single_count_removed(self):
        # The deprecated one-population signature is gone: the count
        # series reported through end_step is the only denominator.
        perf = PerfLedger()
        perf.record("motion", 1e-3)
        perf.end_step(n_particles=100)
        with pytest.raises(TypeError):
            perf.us_per_particle(100)

    def test_summary_includes_series_denominator(self):
        perf = PerfLedger()
        perf.record("motion", 2e-3)
        perf.end_step(n_particles=200)
        s = perf.summary()
        assert s["particle_steps"] == 200
        assert s["us_per_particle"]["motion"] == pytest.approx(10.0)

    def test_phase_records_span_when_traced(self):
        perf = PerfLedger()
        perf.tracer = SpanTracer(pid=1)
        with perf.phase("collision"):
            pass
        assert perf.tracer.spans[0]["name"] == "collision"
