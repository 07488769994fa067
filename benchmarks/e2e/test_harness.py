"""Checks of the benchmark harness itself (not part of the tier-1 suite).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py``.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
from time import perf_counter

import pytest

import run
from tracer import Hook, Span, Tracer, busy_by_layer, self_times

HERE = pathlib.Path(__file__).resolve().parent


# -- span arithmetic on synthetic spans --------------------------------------


def synthetic_spans():
    """One step: a root with two layers, one of which nests twice."""
    return [
        Span("core.simulation", 0.0, 10.0, 0, -1, 7),
        Span("core.motion", 1.0, 3.0, 1, 0, 7),
        Span("core.reservoir", 4.0, 9.0, 2, 0, 7),
        Span("core.collision", 5.0, 8.0, 3, 2, 7),  # reservoir's own
        Span("core.collision", 6.0, 7.0, 4, 3, 7),  # nested once more
    ]


def test_self_time_is_duration_minus_direct_children():
    own = self_times(synthetic_spans())
    assert own == {0: 10.0 - 2.0 - 5.0, 1: 2.0, 2: 5.0 - 3.0, 3: 3.0 - 1.0,
                   4: 1.0}
    assert sum(own.values()) == pytest.approx(10.0)


def test_layer_busy_charges_nested_hooks_to_the_layer_the_step_called():
    busy = busy_by_layer(synthetic_spans(), roots=("core.simulation",))
    assert busy == {
        "core.simulation": {7: 3.0},
        "core.motion": {7: 2.0},
        "core.reservoir": {7: 5.0},  # includes its nested collisions
    }
    assert sum(v[7] for v in busy.values()) == pytest.approx(10.0)


def test_wrapper_records_parent_and_split_boundary():
    tracer = Tracer()

    class Fused:
        """Stands in for a kernel result that reports its inner boundary."""

        def __init__(self):
            self.t_boundary = perf_counter()

    def fused():
        wrapped_inner()
        return Fused()

    wrapped_inner = tracer.wrap(Hook("layer.inner", "", "inner"), lambda: 1)
    wrapped = tracer.wrap(Hook("layer.a", "", "fused", split="layer.b"), fused)
    with tracer.span("root"):
        wrapped()
    by_name = {s.name: s for s in tracer.spans}
    assert set(by_name) == {"root", "layer.a", "layer.b", "layer.inner"}
    root = by_name["root"]
    assert by_name["layer.a"].parent == by_name["layer.b"].parent == root.id
    assert by_name["layer.a"].end == by_name["layer.b"].start
    assert by_name["layer.a"].start <= by_name["layer.inner"].start
    assert tracer._stack == []


def test_install_rebinds_every_namespace_and_uninstall_restores():
    # json.dumps is referenced from the json package namespace only; the
    # prefix argument stands in for "repro".
    original = json.dumps
    tracer = Tracer()
    hooks = (
        Hook("layer.dumps", "json", "dumps"),
        Hook("layer.gone", "json", "no_such_function"),
        Hook("layer.gone", "no_such_module_xyz", "f"),
        Hook("layer.method", "json.decoder", "JSONDecoder.decode"),
    )
    tracer.install(hooks, prefix="json")
    try:
        assert json.dumps is not original
        assert json.loads("[1]") == [1] and json.dumps([1]) == "[1]"
    finally:
        tracer.uninstall()
    assert json.dumps is original
    assert sorted(s.name for s in tracer.spans) == ["layer.dumps",
                                                    "layer.method"]
    assert tracer.missing == ["json:no_such_function",
                              "no_such_module_xyz:f"]


# -- a missing hook is a null and a count, not a crash ------------------------


def test_missing_hook_yields_null_metric_and_a_count():
    import host
    import workloads as w

    tracer = Tracer()
    hooks = (
        Hook("core.motion", "repro.core.motion", "advance"),
        Hook("core.cells", "repro.core.cells", "no_such_function"),
    )
    rec = w.StepRecorder("core.simulation", host.HostClock(), tracer, hooks)
    engine = w.Simulation(w.wedge_config(1.0, seed=3))
    try:
        w.run_steps(rec, engine, 2 * w.BLOCK, w.Ops())
    finally:
        tracer.uninstall()
    refs = {"host.copy_ns_per_f64": 1.0, "host.dispatch_us": 0.2}
    layers = w.step_layer_metrics(tracer, rec, refs)
    assert layers["core.cells.ns_per_particle"] is None
    assert layers["core.motion.ns_per_particle"] > 0.0
    assert layers["core.simulation.self_ns_per_particle"] > 0.0
    assert w.trace_metrics(tracer)["trace.missing_hooks"] == 1.0
    assert [r.traced for r in rec.rows] == [True] * w.BLOCK + [False] * w.BLOCK


# -- comparing two results -----------------------------------------------------


def result(value, lo, hi, failed_frac=0.0):
    metric = {"value": value, "min": lo, "max": hi, "reps": 3, "samples": 3}
    return {"workloads": {"wedge_dense": {
        "end_to_end": {"us_per_particle_step": metric, "setup_s": None},
        "ops_failed_frac": failed_frac,
    }}}


@pytest.mark.parametrize("b, status", [
    (result(1.02, 1.01, 1.03), "ok"),
    (result(1.50, 1.49, 1.51), "regressed"),
    (result(1.50, 1.00, 2.00), "unresolved"),  # spread wider than bound
    (result(0.50, 0.30, 0.70), "ok"),  # wide, but every run is better
])
def test_compare_marks_rows(b, status):
    rows = run.compare_rows(result(1.0, 0.99, 1.01), b)
    by_metric = {r["metric"]: r for r in rows}
    assert by_metric["us_per_particle_step"]["status"] == status
    assert "setup_s" not in by_metric  # null on one side: no row
    assert by_metric["ops_failed_frac"]["status"] == "ok"


def test_compare_counts_any_new_failure_as_a_regression():
    rows = run.compare_rows(result(1.0, 1.0, 1.0),
                            result(1.0, 1.0, 1.0, failed_frac=0.01))
    assert rows[-1]["status"] == "regressed"


# -- the whole command, at smoke scale -----------------------------------------


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--reps", "2",
         "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text()), proc.stdout


def test_smoke_emits_every_workload_and_metric_with_a_unit(smoke):
    data, printed = smoke
    assert list(data["workloads"]) == run.WORKLOADS
    for name, w in data["workloads"].items():
        assert set(w["end_to_end"]) == set(run.END_TO_END), name
        for metric, m in w["end_to_end"].items():
            assert m is not None and m["value"] > 0.0, (name, metric)
            assert run.END_TO_END[metric]["unit"]
        assert w["ops"]["attempted"] > 0
        assert w["ops_failed_frac"] == 0.0, w["ops"]["failures"]
        assert w["traced_failures"] == []
        assert name in printed
    # Every per-layer metric is reported by the workload that owns it.
    reported = {
        metric
        for w in data["workloads"].values()
        for metric, value in w["per_layer"].items()
        if value is not None
    }
    # The 95th percentile needs 200 steps, which a smoke run never has.
    assert set(run.PER_LAYER) - reported <= {"step.p95_ms"}
    for key in ("cpus", "python", "numpy", "blas", "thread_env", "llc_bytes"):
        assert key in data["host"]
    assert set(data["host"]["thread_env"].values()) == {"1"}


def test_no_hook_is_missing_on_this_commit(smoke):
    data, _ = smoke
    for name, w in data["workloads"].items():
        assert w["per_layer"]["trace.missing_hooks"] == 0.0, name
