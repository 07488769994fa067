"""End-to-end telemetry: one stream across serial/sharded/supervised runs.

The acceptance contract of the observability milestone:

* a sharded wedge run with telemetry produces a parseable
  ``events.jsonl``, a well-formed Prometheus snapshot and a valid
  Chrome trace with one timeline per worker;
* a supervised sharded run with an injected worker crash lands spans,
  metric samples, audit results and the recovery event in a *single*
  JSONL stream that the report CLI renders;
* ``merge_diagnostics`` aggregates the shards' diagnostics rows
  correctly (the merged phase seconds are the per-shard sums) in both
  the inline and forked execution modes, and one packed row merges back
  to the step it came from.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.core.simulation import (
    DIAGNOSTICS_ROW,
    ROW_PHASES,
    Simulation,
    SimulationConfig,
    merge_diagnostics,
    pack_diagnostics,
    step_stage1,
    step_stage2,
)
from repro.geometry.domain import Domain
from repro.geometry.wedge import Wedge
from repro.parallel.backend import ShardedBackend
from repro.perf import PAPER_PHASES, PerfLedger
from repro.physics.freestream import Freestream
from repro.telemetry import EventStream, Telemetry, validate_trace
from repro.telemetry.report import render, summarize

pytestmark = pytest.mark.telemetry

FAST_TIMEOUT = 20.0


def _small_config(seed: int = 42, nx: int = 48, ny: int = 24) -> SimulationConfig:
    return SimulationConfig(
        domain=Domain(nx=nx, ny=ny),
        freestream=Freestream(
            mach=4.0, c_mp=0.14, lambda_mfp=2.0, density=8.0
        ),
        wedge=Wedge(x_leading=10.0, base=12.0, angle_deg=30.0),
        seed=seed,
    )


class TestSerialTelemetry:
    def test_serial_run_produces_all_artifacts(self, tmp_path):
        tel = Telemetry(run_dir=tmp_path, sample_every=5, observables_every=10)
        sim = Simulation(_small_config(), telemetry=tel)
        sim.run(20)
        sim.close()
        tel.close()

        events = EventStream.load(tmp_path)
        kinds = {e["kind"] for e in events}
        assert {"run_start", "metrics", "span", "observables",
                "run_end"} <= kinds

        trace = json.loads((tmp_path / "trace.json").read_text())
        assert validate_trace(trace) == []
        names = {e["name"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert set(PAPER_PHASES) <= names

        prom = (tmp_path / "metrics.prom").read_text()
        assert "repro_steps_total 20" in prom
        assert "repro_step_us_per_particle_count 20" in prom

    def test_metrics_samples_track_population(self, tmp_path):
        tel = Telemetry(run_dir=tmp_path, sample_every=5)
        sim = Simulation(_small_config(), telemetry=tel)
        sim.run(10)
        n = sim.particles.n
        sim.close()
        tel.close()
        samples = [
            e for e in EventStream.load(tmp_path) if e["kind"] == "metrics"
        ]
        assert samples and samples[-1]["n_flow"] == n
        assert samples[-1]["us_per_particle"] > 0


@pytest.mark.sharded
class TestShardedTelemetry:
    @pytest.mark.parametrize("processes", [False, True])
    def test_sharded_trace_has_worker_timelines(self, tmp_path, processes):
        tel = Telemetry(run_dir=tmp_path, sample_every=5)
        sim = Simulation(
            _small_config(),
            backend=ShardedBackend(
                2, processes=processes, barrier_timeout=FAST_TIMEOUT
            ),
            telemetry=tel,
        )
        sim.run(12)
        sim.gather()
        sim.close()
        tel.close()

        trace = json.loads((tmp_path / "trace.json").read_text())
        assert validate_trace(trace) == []
        xs = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        # One timeline per shard: both tids present, phase_a/phase_b on
        # each, with per-phase worker spans inside.
        tids = {e["tid"] for e in xs}
        assert tids == {0, 1}
        names = {e["name"] for e in xs}
        assert {"phase_a", "phase_b", "motion", "sort", "selection",
                "collision"} <= names
        if processes:
            assert len({e["pid"] for e in xs}) == 2

        events = EventStream.load(tmp_path)
        imb = [
            e["load_imbalance"]
            for e in events
            if e["kind"] == "metrics" and "load_imbalance" in e
        ]
        assert imb and all(v >= 1.0 for v in imb)
        prom = (tmp_path / "metrics.prom").read_text()
        assert 'repro_shard_load{shard="0"}' in prom
        assert "repro_migrations_total" in prom
        assert "repro_exchange_occupancy_peak" in prom

    def test_jsonl_parses_line_by_line(self, tmp_path):
        tel = Telemetry(run_dir=tmp_path, sample_every=5)
        sim = Simulation(
            _small_config(),
            backend=ShardedBackend(2, processes=False),
            telemetry=tel,
        )
        sim.run(10)
        sim.close()
        tel.close()
        for line in (tmp_path / "events.jsonl").read_text().splitlines():
            record = json.loads(line)
            assert "kind" in record and "time" in record


@pytest.mark.sharded
class TestMergeDiagnostics:
    @pytest.mark.parametrize("processes", [False, True])
    def test_merged_phase_seconds_are_shard_sums(self, processes):
        sim = Simulation(
            _small_config(),
            backend=ShardedBackend(
                2, processes=processes, barrier_timeout=FAST_TIMEOUT
            ),
        )
        try:
            diag = None
            for _ in range(5):
                diag = sim.step()
            rows = sim.backend._shared["diag"]
            assert rows.shape == (2, len(DIAGNOSTICS_ROW))
            assert diag.phase_seconds.keys() == set(ROW_PHASES)
            for name in ROW_PHASES:
                col = rows[:, DIAGNOSTICS_ROW.index(name)]
                merged = diag.phase_seconds[name]
                assert merged == pytest.approx(float(col.sum()))
                assert merged > 0.0
            # The driver ledger accumulated the same totals across steps.
            assert sim.perf.steps == 5
            assert sim.perf.particle_steps > 0
        finally:
            sim.close()

    def test_one_packed_row_merges_to_its_step(self):
        sim = Simulation(_small_config())
        rng = sim.streams(1)
        bstats = step_stage1(sim, rng, False)
        diag, stage = step_stage2(sim, rng, 0, bstats, False)
        rows = np.zeros((1, len(DIAGNOSTICS_ROW)))
        pack_diagnostics(rows[0], diag, stage)
        merged = merge_diagnostics(rows, diag.step, PerfLedger())
        assert dataclasses.replace(merged, phase_seconds=None) == (
            dataclasses.replace(diag, phase_seconds=None)
        )
        assert merged.phase_seconds.keys() == set(ROW_PHASES)
        for name, seconds in diag.phase_seconds.items():
            assert merged.phase_seconds[name] == seconds

    def test_merged_n_flow_feeds_perf_series(self):
        sim = Simulation(
            _small_config(), backend=ShardedBackend(2, processes=False)
        )
        try:
            total = 0
            for _ in range(3):
                diag = sim.step()
                total += diag.n_flow
            assert sim.perf.particle_steps == total
            us = sim.perf.us_per_particle()
            assert us and all(v > 0 for v in us.values())
        finally:
            sim.close()

    def test_recovery_events_survive_merge(self):
        from repro.resilience.supervisor import RecoveryEvent

        sim = Simulation(
            _small_config(), backend=ShardedBackend(2, processes=False)
        )
        try:
            diag = sim.step()
            event = RecoveryEvent(
                step=1, error="WorkerCrashError", detail="x", retry=1,
                restored_step=0, workers_after=2,
            )
            merged = dataclasses.replace(diag, recovery=(event,))
            assert merged.recovery == (event,)
            assert merged.n_flow == diag.n_flow
            assert merged.phase_seconds == diag.phase_seconds
        finally:
            sim.close()


@pytest.mark.sharded
@pytest.mark.resilience
class TestSupervisedTelemetry:
    def test_crash_recovery_lands_in_single_stream(self, tmp_path, capsys):
        """Acceptance: supervised sharded run + injected worker crash."""
        from repro.resilience import SupervisedRun
        from repro.resilience.faults import FaultPlan, FaultSpec

        tel_dir = tmp_path / "telemetry"
        run_dir = tmp_path / "run"
        plan = FaultPlan([FaultSpec(kind="crash", step=12, shard=1)])
        tel = Telemetry(
            run_dir=tel_dir, sample_every=5, observables_every=10
        )
        sim = Simulation(
            _small_config(seed=7),
            backend=ShardedBackend(
                2, barrier_timeout=FAST_TIMEOUT, fault_plan=plan
            ),
            telemetry=tel,
        )
        run = SupervisedRun(
            sim, run_dir, checkpoint_every=10, audit_every=10,
            backoff_base=0.0, fault_plan=plan,
        )
        with run:
            run.run_schedule([(20, False)])
        tel.close()

        events = EventStream.load(tel_dir)
        kinds = {}
        for e in events:
            kinds[e["kind"]] = kinds.get(e["kind"], 0) + 1
        # One stream carries everything the acceptance criteria name.
        assert kinds.get("span", 0) > 0
        assert kinds.get("metrics", 0) > 0
        assert kinds.get("audit", 0) > 0
        assert kinds.get("recovery", 0) == 1
        assert kinds.get("checkpoint", 0) > 0

        # Audits carry the auditor's report payload.
        audit = next(e for e in events if e["kind"] == "audit")
        assert audit["ok"] is True
        assert "counts" in audit["checks"]

        # The journal still exists separately with the same recovery.
        journal = EventStream.load_path(run_dir / "journal.jsonl")
        assert any(e["kind"] == "recovery" for e in journal)

        # The report CLI renders the stream.
        out = render(summarize(tel_dir))
        assert "recoveries" in out

        # Metric counters saw the recovery and the audits.
        snap = tel.snapshot()["metrics"]
        assert snap["repro_recoveries_total"]["value"] == 1
        assert snap["repro_audits_total"]["value"] >= 1
        assert snap["repro_audit_failures_total"]["value"] == 0


class TestCostLedgerExport:
    def test_cm_cost_lands_in_stream(self, tmp_path):
        from repro.cm.machine import CM2
        from repro.cm.timing import CM2TimingModel, CostLedger

        ledger = CostLedger()
        with ledger.phase("motion"):
            ledger.charge("alu", 100.0)
        with ledger.phase("sort"):
            ledger.charge("route_off", 300.0)
        ledger.end_step()

        stream = EventStream(tmp_path)
        tm = CM2TimingModel(machine=CM2(n_processors=512))
        record = ledger.export(
            stream, timing_model=tm, n_flow_particles=1000
        )
        assert record["steps"] == 1
        assert record["fractions"]["sort"] == pytest.approx(0.75)
        loaded = EventStream.load(tmp_path)
        assert loaded[0]["kind"] == "cm_cost"
        assert loaded[0]["us_per_particle_total"] > 0

    def test_export_through_telemetry_hub(self, tmp_path):
        from repro.cm.timing import CostLedger

        tel = Telemetry(run_dir=tmp_path)
        ledger = CostLedger()
        with ledger.phase("collision"):
            ledger.charge("alu", 10.0)
        ledger.end_step()
        ledger.export(tel)
        tel.close()
        assert any(
            e["kind"] == "cm_cost" for e in EventStream.load(tmp_path)
        )
