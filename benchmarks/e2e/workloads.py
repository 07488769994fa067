"""The six workloads: one repetition each, inside a child interpreter.

Every workload runs on the paper's 98 x 64 Mach-4, 30-degree wedge and
drives the program only through its public functions.  ``run_workload``
returns one record: timing samples, CPU, particle-steps, a state digest
and the operations attempted/failed.  With ``trace=True`` the same code
runs under :mod:`tracer` hooks and the record carries per-layer metrics
instead of being fit for end-to-end numbers.

Why each workload exists is recorded in ``BENCHMARK.json`` and in the
README's interaction table.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import os
import pathlib
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, NamedTuple, Optional

import numpy as np

from repro.core.simulation import Simulation, SimulationConfig
from repro.ensemble import EnsembleEngine, verify_replica_equality
from repro.geometry.domain import Domain
from repro.geometry.wedge import Wedge
from repro.io.snapshots import load_simulation, save_simulation
from repro.parallel.backend import ShardedBackend
from repro.physics.freestream import Freestream
from repro.resilience import SupervisedRun
from repro.scenarios import get
from repro.scenarios.golden import run_scenario, validate_scenario
from repro.service import DONE, Orchestrator, OrchestratorConfig
from repro.telemetry.observables import load_imbalance

import host
from tracer import Hook, Tracer, busy_by_layer

HERE = pathlib.Path(__file__).resolve().parent
#: Scratch for job directories, checkpoints and snapshots: the benchmark
#: writes nowhere outside its checkout.
WORK_DIR = HERE / ".work"

NX, NY = 98, 64
WORKERS = 2
#: Steps per traced / untraced block of a traced pass.
BLOCK = 10
JOB_TIMEOUT_S = 150.0

WORKLOADS = (
    "wedge_dense",
    "wedge_counting",
    "wedge_solution",
    "ensemble_r8",
    "sharded_w2",
    "service_job",
)

#: Schedules.  ``trace_steps`` is the traced pass's step count: half of
#: them run under hooks, and 200 is the fewest that leave ten samples
#: beyond the 95th percentile.
PROFILES: Dict[str, Dict[str, dict]] = {
    "full": {
        "wedge_dense": {"density": 40.0, "warm": 20, "steps": 150,
                        "trace_steps": 200},
        "wedge_counting": {"density": 40.0, "warm": 20, "steps": 150,
                           "trace_steps": 200},
        "wedge_solution": {"overrides": {"nx": NX, "ny": NY, "density": 20.0,
                                         "transient": 150, "average": 150}},
        "ensemble_r8": {"density": 0.65, "replicas": 8, "warm": 20,
                        "steps": 600, "trace_steps": 600, "solo_steps": 100},
        "sharded_w2": {"density": 40.0, "warm": 10, "steps": 150,
                       "trace_steps": 200, "probe_steps": 50,
                       "serial_steps": 50},
        "service_job": {"density": 12.0, "average": 300,
                        "trace_average": 150},
    },
    # Seconds, not minutes: checks the harness, not the program's speed
    # (``copy_cap`` keeps the bandwidth probe's arrays small, so its
    # number is not a ceiling either).
    "smoke": {
        "wedge_dense": {"density": 2.0, "warm": 3, "steps": 20,
                        "trace_steps": 20, "copy_cap": 32 << 20},
        "wedge_counting": {"density": 2.0, "warm": 3, "steps": 20,
                           "trace_steps": 20, "copy_cap": 32 << 20},
        # The registry's own validation scale (49 x 32), so the physics
        # checks still mean something.
        "wedge_solution": {"overrides": {}, "copy_cap": 32 << 20},
        "ensemble_r8": {"density": 0.65, "replicas": 8, "warm": 3,
                        "steps": 20, "trace_steps": 20, "solo_steps": 5,
                        "copy_cap": 32 << 20},
        "sharded_w2": {"density": 2.0, "warm": 3, "steps": 20,
                       "trace_steps": 20, "probe_steps": 5,
                       "serial_steps": 10, "copy_cap": 32 << 20},
        "service_job": {"density": 2.0, "average": 30, "trace_average": 20},
    },
}

STEP_ROOTS = ("core.simulation", "ensemble.engine")

#: Layer boundaries of the step pipeline, as public functions.
STEP_HOOKS = (
    Hook("core.motion", "repro.core.motion", "advance"),
    Hook("core.boundary", "repro.core.boundary",
         "WindTunnelBoundaries.apply_rebuilding"),
    Hook("core.cells", "repro.core.cells", "assign_cells"),
    Hook("core.sortstep", "repro.core.sortstep", "IncrementalSorter.detect"),
    Hook("core.sortstep", "repro.core.sortstep", "IncrementalSorter.update"),
    Hook("core.sortstep", "repro.core.sortstep", "sort_by_cell"),
    Hook("core.sortstep", "repro.core.sortstep", "blocked_cell_key"),
    Hook("core.sortstep", "repro.core.sortstep", "counting_sort_order"),
    Hook("core.pairing", "repro.core.pairing", "reflection_pairs"),
    Hook("core.pairing", "repro.core.pairing", "even_odd_pairs"),
    Hook("core.selection", "repro.core.selection", "fused_select_collide",
         split="core.collision"),
    Hook("core.selection", "repro.core.selection", "select_collisions"),
    Hook("core.collision", "repro.core.collision", "collide_adjacent_pairs"),
    Hook("core.collision", "repro.core.collision",
         "collide_rows_with_velocities"),
    Hook("core.reservoir", "repro.core.reservoir", "Reservoir.mix"),
    Hook("core.sampling", "repro.core.sampling", "CellSampler.accumulate"),
    Hook("core.sampling", "repro.core.surface", "SurfaceSampler.end_step"),
    Hook("rng.stream", "repro.rng", "shard_stream"),
)

#: Forked shard workers keep their spans to themselves, so the sharded
#: workload is traced at the driver's side of the backend seam only.
SHARDED_HOOKS = tuple(
    Hook(f"parallel.backend.{m}", "repro.parallel.backend",
         f"ShardedBackend.{m}")
    for m in ("bind", "step", "gather", "close")
)

CHECKPOINT_HOOKS = (
    Hook("io.snapshots.save", "repro.io.snapshots", "save_simulation"),
)

STEP_LAYERS = (
    "core.motion", "core.boundary", "core.cells", "core.sortstep",
    "core.pairing", "core.selection", "core.collision", "core.reservoir",
    "core.sampling",
)


# -- small helpers ----------------------------------------------------------


def error_line() -> str:
    """Last line of the traceback being handled."""
    return traceback.format_exc().strip().splitlines()[-1]


class Ops:
    """Operations attempted and failed; a failure never aborts the run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)

    @contextmanager
    def guard(self, name: str):
        """One operation that fails by raising."""
        self.attempted += 1
        try:
            yield
        except Exception:
            self.failures.append(f"{name}: {error_line()}")


def wedge_config(
    density: float, seed: int, sort_kernel: str = "incremental"
) -> SimulationConfig:
    return SimulationConfig(
        domain=Domain(NX, NY),
        freestream=Freestream(
            mach=4.0, c_mp=0.14, lambda_mfp=0.5, density=density
        ),
        wedge=Wedge(x_leading=20.0, base=25.0, angle_deg=30.0),
        seed=seed,
        sort_kernel=sort_kernel,
    )


@contextmanager
def work_dir():
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as d:
        yield pathlib.Path(d)


def _proc_cpu(pid: int) -> float:
    """user+sys seconds of a live process (0.0 where /proc is absent)."""
    try:
        stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()
        ticks = int(fields[11]) + int(fields[12])
    except (OSError, IndexError, ValueError):
        return 0.0
    return ticks / os.sysconf("SC_CLK_TCK")


def cpu_seconds() -> float:
    """CPU of this process, its reaped children and its live workers.

    Shard workers live until ``close()``, so their time is read from
    /proc while they run; once reaped, the same seconds arrive through
    ``RUSAGE_CHILDREN`` and the sum stays consistent.
    """
    live = multiprocessing.active_children()  # also reaps the finished
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = time.process_time() + reaped.ru_utime + reaped.ru_stime
    return total + sum(_proc_cpu(p.pid) for p in live)


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # Linux reports KiB


def _each(x) -> tuple:
    """A per-replica tuple, or the serial engine's single value."""
    return (x,) if isinstance(x, int) else tuple(x)


def _total(x) -> int:
    return sum(_each(x))


def flow_count(diag) -> int:
    return _total(diag.n_flow)


def populations(engine) -> list:
    """Flow population, then the reservoir (one per replica)."""
    reservoirs = getattr(engine, "reservoirs", None) or [engine.reservoir]
    return [engine.particles] + [r.particles for r in reservoirs]


def total_count(engine) -> int:
    in_transit = getattr(getattr(engine, "backend", None), "pending_flux", 0)
    return sum(p.n for p in populations(engine)) + in_transit


def state_digest(engine) -> str:
    """sha256 over every particle column, flow then reservoir."""
    h = hashlib.sha256()
    for parts in populations(engine):
        for name in ("x", "y", "u", "v", "w", "rot", "perm", "cell"):
            h.update(np.ascontiguousarray(getattr(parts, name)).tobytes())
    return h.hexdigest()


def median(values) -> Optional[float]:
    values = list(values)
    return statistics.median(values) if values else None


# -- timed sections ---------------------------------------------------------


class Timed(NamedTuple):
    """One timed section, in host-normalised seconds (see host.HostClock)."""

    wall_s: float
    cpu_s: float
    #: Median raw seconds of the reference kernel while the section ran.
    reference_s: float
    #: normalised = raw * factor.
    factor: float

    @property
    def raw_wall_s(self) -> float:
        return self.wall_s / self.factor


def timed_call(clock: host.HostClock, fn: Callable[[], object], timer=True):
    """Run one long public call; returns ``(result, Timed)``.

    The reference is sampled before, after and (``timer``) from an
    interval timer during the call; its own time is taken back out.
    """
    mark = clock.mark()
    clock.sample()
    inner = clock.mark()
    cpu0 = cpu_seconds()
    t0 = perf_counter()
    if timer:
        with clock.sampling():
            result = fn()
    else:
        result = fn()
    t1 = perf_counter()
    cpu1 = cpu_seconds()
    spent = clock.spent(inner)
    clock.sample()
    f = clock.factor(mark)
    return result, Timed((t1 - t0 - spent) * f, (cpu1 - cpu0 - spent) * f,
                         clock.reference(mark), f)


class Row(NamedTuple):
    traced: bool
    seconds: float  # raw
    n_flow: int
    diag: object


class StepRecorder:
    """Times steps; in a traced pass, alternates hooked and bare blocks.

    Hooks go on for ``BLOCK`` steps and off for the next ``BLOCK``: the
    hooked steps give the layer metrics, and each adjacent pair of
    blocks gives one sample of the tracing overhead in the same process
    on the same trajectory.  Between steps the host clock takes a
    reference sample whenever one is due.
    """

    def __init__(
        self, root: str, clock: host.HostClock,
        tracer: Optional[Tracer] = None, hooks=(),
    ) -> None:
        self.root = root
        self.clock = clock
        self.tracer = tracer
        self.hooks = hooks
        self.rows: List[Row] = []
        self.timed: Optional[Timed] = None

    def begin(self) -> None:
        self._mark = self.clock.mark()
        self._cpu0 = cpu_seconds()

    def step(self, call: Callable[[], object]):
        tracer = self.tracer
        i = len(self.rows)
        traced = tracer is not None and (i // BLOCK) % 2 == 0
        if tracer is not None and i % BLOCK == 0:
            if traced:
                tracer.install(self.hooks)
            else:
                tracer.uninstall()
        self.clock.sample_if_due()
        if traced:
            tracer.step = i
            sid = tracer.open()
        t0 = perf_counter()
        diag = call()
        t1 = perf_counter()
        if traced:
            tracer.close(self.root, sid, t0, t1)
        self.rows.append(Row(traced, t1 - t0, flow_count(diag), diag))
        return diag

    def end(self) -> Timed:
        cpu = cpu_seconds() - self._cpu0 - self.clock.spent(self._mark)
        self.clock.sample()
        f = self.clock.factor(self._mark)
        self.timed = Timed(f * sum(r.seconds for r in self.rows), f * cpu,
                           self.clock.reference(self._mark), f)
        return self.timed

    def step_us(self) -> List[float]:
        """Host-normalised microseconds per particle, one per step."""
        f = self.timed.factor * 1e6
        return [r.seconds / r.n_flow * f for r in self.rows]

    def particle_steps(self) -> int:
        return sum(r.n_flow for r in self.rows)

    def overhead_frac(self) -> Optional[float]:
        """Median over block pairs of hooked / bare time per particle."""

        def rate(rows):
            return sum(r.seconds for r in rows) / sum(r.n_flow for r in rows)

        n = len(self.rows) - len(self.rows) % (2 * BLOCK)
        ratios = [
            rate(self.rows[i:i + BLOCK])
            / rate(self.rows[i + BLOCK:i + 2 * BLOCK]) - 1.0
            for i in range(0, n, 2 * BLOCK)
        ]
        return median(ratios)


def run_steps(rec: StepRecorder, engine, n: int, ops: Ops) -> Timed:
    """``n`` timed steps; each is one operation (raised / non-finite)."""
    ops.attempted += n
    done = 0
    rec.begin()
    try:
        for _ in range(n):
            diag = rec.step(engine.step)
            done += 1
            if not math.isfinite(diag.total_energy):
                ops.failures.append(f"step {diag.step}: non-finite energy")
    except Exception:
        ops.failures += [f"step raised: {error_line()}"] * (n - done)
    return rec.end()


def warmed(engine, warm: int):
    for _ in range(warm):
        engine.step()
    return engine


# -- layer metrics of a traced step loop -------------------------------------


def count_metrics(rows: List[Row], n_cells: int, workers: int) -> dict:
    """Counts at the layer boundaries, exact for a seed."""
    diags = [r.diag for r in rows]
    steps = len(diags)
    if not steps:
        return {}
    moved = [d.sort_moved_fraction for d in diags
             if getattr(d, "sort_moved_fraction", None) is not None]
    rebuilds = [d.sort_rebuilds for d in diags
                if getattr(d, "sort_rebuilds", None) is not None]
    candidates = sum(d.n_candidates for d in diags)
    collisions = sum(_total(d.n_collisions) for d in diags)
    efficiency = [
        d.pairing_efficiency if hasattr(d, "pairing_efficiency")
        else d.n_candidates / max(r.n_flow // 2, 1)
        for r, d in zip(rows, diags)
    ]
    b = [d.boundary for d in diags]
    return {
        "core.sortstep.moved_fraction": median(moved),
        "core.sortstep.rebuild_fraction": (
            sum(rebuilds) / (len(rebuilds) * workers) if rebuilds else None
        ),
        "core.pairing.efficiency": statistics.fmean(efficiency),
        "core.selection.accept_ratio": (
            collisions / candidates if candidates else None
        ),
        "core.collision.collisions_per_step": collisions / steps,
        "core.boundary.removed_per_step": (
            sum(x.n_removed_downstream for x in b) / steps
        ),
        "core.boundary.injected_per_step": (
            sum(x.n_injected_upstream for x in b) / steps
        ),
        "core.boundary.reflected_per_step": (
            sum(x.n_reflected_walls + x.n_reflected_wedge for x in b) / steps
        ),
        "core.boundary.plunger_resets": float(
            sum(bool(x.plunger_reset) for x in b)
        ),
        "core.cells.particles_per_cell": (
            statistics.fmean(r.n_flow for r in rows) / n_cells
        ),
    }


def step_layer_metrics(
    tracer: Tracer, rec: StepRecorder, refs: Dict[str, float]
) -> dict:
    """Layer busy/self times of the hooked steps and whole-step shape.

    Times are host-normalised like the end-to-end ones; the two ratios
    against a host ceiling use raw times on both sides.
    """
    rows = rec.rows
    f = rec.timed.factor
    traced_n = {i: r.n_flow for i, r in enumerate(rows) if r.traced}
    busy = busy_by_layer(tracer.spans, STEP_ROOTS)

    def ns_per_particle(layer: str) -> Optional[float]:
        # Over the steps in which the layer ran at all, so a layer that
        # only runs on sampled steps is costed against sampled steps.
        per_step = busy.get(layer)
        if not per_step:
            return None
        particles = sum(traced_n[s] for s in per_step if s in traced_n)
        if not particles:
            return None
        return f * sum(per_step.values()) / particles * 1e9

    out = {f"{layer}.ns_per_particle": ns_per_particle(layer)
           for layer in STEP_LAYERS}
    out["rng.stream_ns_per_particle"] = ns_per_particle("rng.stream")
    out["core.simulation.self_ns_per_particle"] = ns_per_particle(
        "core.simulation")
    out["ensemble.engine.self_ns_per_particle"] = ns_per_particle(
        "ensemble.engine")

    seconds = sorted(r.seconds for r in rows)
    mid = statistics.median(seconds)
    # The 95th percentile only where ten samples lie beyond it.
    out["step.p95_ms"] = (
        f * seconds[int(0.95 * len(seconds))] * 1e3
        if len(seconds) >= 200 else None
    )
    out["step.samples"] = float(len(seconds))
    out["step.max_over_median"] = seconds[-1] / mid
    raw_ns = median(r.seconds / r.n_flow for r in rows) * 1e9
    out["step.raw_ns_per_particle"] = raw_ns
    out["step.copy_passes"] = raw_ns / refs["host.copy_ns_per_f64"]
    hooked = [r.seconds for r in rows if r.traced]
    if hooked:
        spans = sum(1 for s in tracer.spans if s.step in traced_n)
        out["step.dispatch_floor_frac"] = (
            spans / len(hooked) * refs["host.dispatch_us"] * 1e-6
            / statistics.median(hooked)
        )
    out["trace.overhead_frac"] = rec.overhead_frac()
    return out


def trace_metrics(tracer: Tracer) -> Dict[str, float]:
    return {
        "trace.missing_hooks": float(len(tracer.missing)),
        "trace.span_count": float(len(tracer.spans)),
    }


def span_seconds(tracer: Tracer, name: str) -> List[float]:
    return [s.end - s.start for s in tracer.spans if s.name == name]


def span_cost_us(calls: int = 20000) -> float:
    """Microseconds one hook adds to a call, measured on a no-op."""
    probe = Tracer()

    def bare():
        return None

    hooked = probe.wrap(Hook("probe", "", "noop"), bare)
    costs = []
    for fn in (bare, hooked):
        t0 = perf_counter()
        for _ in range(calls):
            fn()
        costs.append(perf_counter() - t0)
    return (costs[1] - costs[0]) / calls * 1e6


def host_layer(reference_s: float) -> Dict[str, float]:
    """Who measured, and how fast the host was while it did."""
    return {
        "host.cpus": float(os.cpu_count() or 1),
        "host.blas_threads_pinned": float(
            all(os.environ.get(k) == "1" for k in host.PINNED_ENV)
        ),
        "host.reference_ms": reference_s * 1e3,
        "host.slowdown": reference_s / host.REFERENCE_NOMINAL_S,
    }


def host_refs(reference_s: float, copy_cap: Optional[int]) -> Dict[str, float]:
    """``host_layer`` plus the two measured ceilings of a step."""
    refs = host_layer(reference_s)
    refs["host.dispatch_us"] = host.measure_dispatch()
    refs.update(host.measure_copy(max_bytes=copy_cap))
    return refs


# -- workloads: construction ------------------------------------------------


def build_engine(name: str, p: dict, seed: int):
    if name == "ensemble_r8":
        return EnsembleEngine(
            wedge_config(p["density"], seed), n_replicas=p["replicas"]
        )
    if name == "sharded_w2":
        return Simulation(
            wedge_config(p["density"], seed), backend=ShardedBackend(WORKERS)
        )
    kernel = "counting" if name == "wedge_counting" else "incremental"
    return Simulation(wedge_config(p["density"], seed, sort_kernel=kernel))


def solution_overrides(p: dict, seed: int) -> dict:
    return dict(p["overrides"], seed=seed)


def orchestrator(data_dir) -> Orchestrator:
    return Orchestrator(
        data_dir,
        OrchestratorConfig(
            workers=1, heartbeat_every=10, poll_interval=0.25, audit_every=0
        ),
    )


def setup_cycle(name: str, p: dict, seed: int) -> float:
    """Raw seconds of one build-and-teardown of the workload's engine."""
    if name == "service_job":
        with work_dir() as d:
            t0 = perf_counter()
            orchestrator(d).shutdown()
            return perf_counter() - t0
    t0 = perf_counter()
    if name == "wedge_solution":
        engine = get("wedge").build_simulation(solution_overrides(p, seed))
    else:
        engine = build_engine(name, p, seed)
    if hasattr(engine, "close"):
        engine.close()
    return perf_counter() - t0


# -- workloads: one repetition ----------------------------------------------


def run_step_workload(name, p, seed, trace, clock) -> dict:
    """wedge_dense, wedge_counting, ensemble_r8 and sharded_w2."""
    ops = Ops()
    sharded = name == "sharded_w2"
    root = "ensemble.engine" if name == "ensemble_r8" else "core.simulation"
    tracer = Tracer() if trace else None
    hooks = SHARDED_HOOKS if sharded else STEP_HOOKS
    rec = StepRecorder(root, clock, tracer, hooks)
    if trace and sharded:
        tracer.install(hooks)  # bind happens inside the constructor
    engine = build_engine(name, p, seed)
    digest = loads = None
    try:
        total0 = total_count(engine)
        warmed(engine, p["warm"])
        timed = run_steps(
            rec, engine, p["trace_steps" if trace else "steps"], ops)
        if trace:
            tracer.install(hooks)  # on for gather/close whatever the parity
        with ops.guard("gather + digest"):
            if sharded:
                engine.gather()
            digest = state_digest(engine)
            # A reservoir that runs dry mints particles to refill the
            # void behind the plunger (the ensemble's do, at under one
            # particle per cell); otherwise the count is exact.
            total = total_count(engine)
            dry = any(min(_each(r.diag.n_reservoir)) == 0 for r in rec.rows)
            ops.check("particle count conserved",
                      total >= total0 if dry else total == total0)
        if name == "ensemble_r8":
            with ops.guard("verify_replica_equality"):
                verify_replica_equality(
                    wedge_config(p["density"], seed), n_replicas=2,
                    transient=3, average=2,
                )
        if sharded:
            loads = engine.backend.shard_loads()
    finally:
        if hasattr(engine, "close"):
            engine.close()
        if trace:
            tracer.uninstall()

    out = {
        "step_us": rec.step_us(),
        "call_us": None,
        "particle_steps": rec.particle_steps(),
        "timed": timed,
        "digest": digest,
        "ops": ops,
    }
    if sharded and (os.cpu_count() or 1) < WORKERS:
        out["label"] = "oversubscribed"
    if not trace:
        return out

    refs = host_refs(timed.reference_s, p.get("copy_cap"))
    n_cells = NX * NY * p.get("replicas", 1)
    layers = dict(refs)
    layers.update(step_layer_metrics(tracer, rec, refs))
    layers.update(count_metrics(rec.rows, n_cells, WORKERS if sharded else 1))
    if name == "ensemble_r8":
        layers["ensemble.engine.speedup_vs_solo"] = ensemble_speedup(
            p, seed, clock)
    if sharded:
        layers.update(sharded_layers(tracer, rec, p, seed, loads))
    out["tracer"] = tracer
    out["layers"] = layers
    return out


def ensemble_speedup(p: dict, seed: int, clock: host.HostClock) -> float:
    """Batched R-replica stepping over R solo runs, step-aligned.

    Solo step times are bimodal (plunger-refill steps cost several quiet
    ones), so the solo runs are summed at matching step indices before
    the median: both sides then time the same physics schedule.
    """
    cfg = wedge_config(p["density"], seed)

    def times(engine) -> np.ndarray:
        rec = StepRecorder("ensemble.engine", clock)
        timed = run_steps(rec, warmed(engine, p["warm"]), p["solo_steps"],
                          Ops())
        return timed.factor * np.array([r.seconds for r in rec.rows])

    solo = sum(
        times(EnsembleEngine(cfg, replica_ids=[r]))
        for r in range(p["replicas"])
    )
    batched = times(EnsembleEngine(cfg, n_replicas=p["replicas"]))
    return float(np.median(solo) / np.median(batched))


def sharded_layers(tracer, rec, p, seed, loads) -> dict:
    rows = rec.rows
    timed = rec.timed
    f = timed.factor
    step_us = median(rec.step_us())

    # The plain single-process run of the same problem, in this run.
    serial = StepRecorder("core.simulation", rec.clock)
    run_steps(serial, warmed(build_engine("wedge_dense", p, seed), p["warm"]),
              p["serial_steps"], Ops())
    serial_us = median(serial.step_us())

    phases = [r.diag.phase_seconds or {} for r in rows]
    exchange = statistics.fmean(ph.get("exchange", 0.0) for ph in phases)
    busy = statistics.fmean(sum(ph.values()) for ph in phases) - exchange
    mean_step = statistics.fmean(r.seconds for r in rows)
    return {
        "parallel.backend.bind_s": f * median(
            span_seconds(tracer, "parallel.backend.bind")),
        "parallel.backend.step_ms": f * median(r.seconds for r in rows) * 1e3,
        "parallel.backend.gather_ms": f * 1e3 * median(
            span_seconds(tracer, "parallel.backend.gather")),
        "parallel.backend.close_ms": f * 1e3 * median(
            span_seconds(tracer, "parallel.backend.close")),
        "parallel.backend.serial_step_us_per_particle": serial_us,
        "parallel.backend.scaling_efficiency": (
            serial_us / (WORKERS * step_us)
        ),
        "parallel.backend.cpu_s_per_wall_s": timed.cpu_s / timed.wall_s,
        # Summed over shards by the program's own ledger.
        "parallel.backend.reported_busy_ms_per_step": f * busy * 1e3,
        "parallel.exchange.reported_ms_per_step": f * exchange * 1e3,
        "parallel.backend.wait_frac": 1.0 - busy / (WORKERS * mean_step),
        "parallel.rebalance.imbalance": float(load_imbalance(loads)),
        "parallel.backend.unpinned_step_ratio": (
            unpinned_probe(p, seed) / step_us
        ),
    }


def probe_sharded(p: dict, seed: int) -> float:
    """Median normalised us/particle/step of a short sharded run."""
    rec = StepRecorder("core.simulation", host.HostClock())
    engine = build_engine("sharded_w2", p, seed)
    try:
        run_steps(rec, warmed(engine, p["warm"]), p["probe_steps"], Ops())
    finally:
        engine.close()
    return median(rec.step_us())


def unpinned_probe(p: dict, seed: int) -> float:
    """``probe_sharded`` in an interpreter with the BLAS threads unpinned.

    ``ParticleArrays.kinetic_energy`` calls ``np.dot``; left alone,
    OpenBLAS starts a thread per core in every shard worker and the
    step oversubscribes the host.  Kept visible for a later fix.
    """
    env = {k: v for k, v in os.environ.items() if k not in host.PINNED_ENV}
    code = (
        f"import sys; sys.path.insert(0, {str(HERE)!r}); import workloads; "
        f"print(workloads.probe_sharded({p!r}, {seed}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=JOB_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"unpinned probe failed:\n{proc.stderr}")
    return float(proc.stdout.splitlines()[-1])


def run_solution(p, seed, trace, clock) -> dict:
    """Time to a validated solution through the scenario registry."""
    ops = Ops()
    spec = get("wedge")
    overrides = solution_overrides(p, seed)
    tracer = Tracer() if trace else None
    rec = StepRecorder("core.simulation", clock, tracer, STEP_HOOKS)
    sims = []
    original = Simulation.step
    if trace:
        # The stepping happens inside run_scenario; the recorder sees it
        # through the one method every step goes through, and samples
        # the host clock between steps in place of the timer.
        def step(self, sample: bool = False):
            sims[:] = [self]
            return rec.step(lambda: original(self, sample=sample))

        Simulation.step = step
        rec.begin()

    def solve():
        """The two public calls, and the raw seconds each took."""
        t0 = perf_counter()
        run = run_scenario(spec, overrides=overrides)
        t1 = perf_counter()
        report = validate_scenario(spec, run=run)
        return run, report, t1 - t0, perf_counter() - t1

    run = report = timed = None
    try:
        with ops.guard("run_scenario + validate_scenario"):
            (run, report, stepping_s, validate_s), timed = timed_call(
                clock, solve, timer=not trace)
    finally:
        if trace:
            Simulation.step = original
            tracer.uninstall()
            rec.end()
    for result in report.results if report is not None else ():
        ops.check(
            f"{result.name}: {result.value:.4f} vs {result.expected:.4f}",
            result.ok,
        )

    # Particle-steps from the run's own output: the time-averaged field
    # is particles per open cell volume over freestream density.
    particle_steps = 0
    call_us = digest = None
    if run is not None:
        merged = dict(spec.validation.get("overrides", {}), **overrides)
        density = float(merged.get("density", spec.freestream["density"]))
        field = np.nan_to_num(run.fields[0])
        volumes = run.body.open_volume_fractions(Domain(*field.shape))
        mean_flow = float((field * volumes).sum()) * density
        particle_steps = int(mean_flow * sum(spec.resolve_schedule(merged)))
        # The share of the call spent stepping, in normalised time.
        share = stepping_s / (stepping_s + validate_s)
        call_us = timed.wall_s * share / particle_steps * 1e6
        digest = hashlib.sha256(
            np.ascontiguousarray(run.fields[0]).tobytes()).hexdigest()

    out = {
        "step_us": None,
        "call_us": call_us,
        "particle_steps": particle_steps,
        "timed": timed,
        "digest": digest,
        "ops": ops,
    }
    if not trace:
        return out

    refs = host_refs(rec.timed.reference_s, p.get("copy_cap"))
    layers = dict(refs)
    if rec.rows:
        layers.update(step_layer_metrics(tracer, rec, refs))
        layers.update(count_metrics(rec.rows, NX * NY, 1))
    if report is not None:
        layers["scenarios.golden.validate_ms"] = (
            timed.factor * validate_s * 1e3)
        for result in report.results:
            if result.kind == "shock_angle":
                layers["scenarios.golden.shock_angle_rel_err"] = abs(
                    result.value - result.expected) / abs(result.expected)
    if sims:
        layers.update(snapshot_layers(sims[0], ops, timed.factor))
    out["tracer"] = tracer
    out["layers"] = layers
    return out


def snapshot_layers(sim, ops: Ops, f: float) -> dict:
    """Uncompressed snapshot of the solution's final state, and back."""
    with work_dir() as d:
        path = d / "final.npz"
        t0 = perf_counter()
        save_simulation(sim, path, compress=False)
        t1 = perf_counter()
        loaded = load_simulation(path)
        t2 = perf_counter()
        nbytes = path.stat().st_size
    same = state_digest(loaded) == state_digest(sim)
    ops.check("snapshot round-trip", same)
    return {
        "io.snapshots.save_ms": f * (t1 - t0) * 1e3,
        "io.snapshots.load_ms": f * (t2 - t1) * 1e3,
        "io.snapshots.bytes": float(nbytes),
        "io.snapshots.save_mb_per_s": nbytes / (f * (t1 - t0)) / 1e6,
        "io.snapshots.roundtrip_ok": float(same),
    }


def run_service(p, seed, trace, clock) -> dict:
    """One job through the orchestrator, then the same job again."""
    ops = Ops()
    steps = p["trace_average" if trace else "average"]
    overrides = {"nx": NX, "ny": NY, "density": p["density"],
                 "transient": 0, "average": steps}
    tracer = Tracer()
    result = result_bytes = None
    status: dict = {}
    # The worker is another process: the reference runs here, beside
    # it on the one core both are confined to, so what it takes from
    # that core comes back out of the job's wall and CPU alike.
    with work_dir() as d, host.one_core():
        with tracer.span("service.orchestrator.start"):
            orch = orchestrator(d)
        try:
            mark = clock.mark()
            cpu0 = cpu_seconds()
            t0 = perf_counter()
            with tracer.span("service.orchestrator.submit"):
                job = orch.submit(
                    scenario="wedge", seed=seed, overrides=overrides)
            while perf_counter() - t0 < JOB_TIMEOUT_S:
                status = orch.status(job["job_id"])
                if status["terminal"]:
                    break
                clock.sample_if_due(clock.CALL_PERIOD_S)
                time.sleep(0.02)
            observed = time.time()
            spent = clock.spent(mark)
            latency = perf_counter() - t0 - spent
            cpu = cpu_seconds() - cpu0 - spent
            clock.sample()
            f = clock.factor(mark)
            timed = Timed(f * latency, f * cpu, clock.reference(mark), f)
            ops.check(f"job state {status.get('state')}",
                      status.get("state") == DONE)
            with ops.guard("result loads"):
                result = orch.result(job["job_id"])
                result_bytes = (
                    pathlib.Path(status["job_dir"]) / "result.json"
                ).stat().st_size
            with tracer.span("service.orchestrator.cached_resubmit"):
                again = orch.submit(
                    scenario="wedge", seed=seed, overrides=overrides)
            ops.check("resubmission cached", again.get("cached") is True)
        finally:
            with tracer.span("service.orchestrator.shutdown"):
                orch.shutdown()

    particle_steps = result["steps"] * result["n_flow"] if result else 0
    out = {
        "step_us": None,
        "call_us": (
            timed.wall_s / particle_steps * 1e6 if particle_steps else None
        ),
        "particle_steps": particle_steps,
        "timed": timed,
        "digest": result["density_sha256"] if result else None,
        "ops": ops,
    }
    if not trace:
        return out

    def ms(name: str) -> float:
        (seconds,) = span_seconds(tracer, f"service.orchestrator.{name}")
        return f * seconds * 1e3

    bare = supervisor_layers(seed, steps, overrides, clock)
    layers = {
        **host_layer(timed.reference_s),
        "service.orchestrator.start_s": ms("start") / 1e3,
        "service.orchestrator.submit_ms": ms("submit"),
        "service.orchestrator.cached_resubmit_ms": ms("cached_resubmit"),
        "service.orchestrator.shutdown_ms": ms("shutdown"),
        # Raw seconds on both sides: the job's reference was sampled
        # beside a running worker, the bare run's was not, and a
        # difference must not mix the two scales.
        "service.orchestrator.overhead_s": timed.raw_wall_s - bare.pop("raw"),
        "service.worker.result_bytes": (
            float(result_bytes) if result_bytes else None),
        # Spans exist at the driver only, so their cost is computed:
        # spans x measured cost per span over the job's latency.
        "trace.overhead_frac": (
            len(tracer.spans) * span_cost_us() * 1e-6 / latency),
    }
    if status.get("finished_time") and status.get("started_time"):
        layers.update({
            "service.orchestrator.queue_wait_ms": f * 1e3 * (
                status["started_time"] - status["submitted_time"]),
            "service.orchestrator.run_s": f * (
                status["finished_time"] - status["started_time"]),
            "service.orchestrator.reap_ms": f * 1e3 * (
                observed - status["finished_time"]),
        })
    layers.update(bare)
    out["tracer"] = tracer
    out["layers"] = layers
    return out


def supervisor_layers(seed, steps, overrides, clock) -> dict:
    """The job's schedule without the service: supervised, then plain."""
    spec = get("wedge")
    build = {k: v for k, v in overrides.items()
             if k not in ("transient", "average")}
    build["seed"] = seed
    tracer = Tracer()
    tracer.install(CHECKPOINT_HOOKS)
    try:
        with work_dir() as d:
            run = SupervisedRun(
                spec.build_simulation(build), d, checkpoint_every=10,
                audit_every=0, backoff_base=0.0)

            def supervised():
                with run:
                    run.run_schedule([{"steps": steps, "sample": True}])
                    run.sim.gather()

            _, bare = timed_call(clock, supervised)
    finally:
        tracer.uninstall()
    sim = spec.build_simulation(build)
    _, plain = timed_call(clock, lambda: sim.run(steps, sample=True))
    sim.close()
    return {
        "resilience.supervisor.bare_s": bare.wall_s,
        "resilience.supervisor.plain_s": plain.wall_s,
        "resilience.supervisor.overhead_frac": (
            bare.wall_s / plain.wall_s - 1.0),
        "resilience.supervisor.checkpoints": float(len(tracer.spans)),
        "raw": bare.raw_wall_s,  # for the caller's overhead_s
    }


def run_workload(name, profile, seed, trace, clock) -> dict:
    p = PROFILES[profile][name]
    if name == "wedge_solution":
        return run_solution(p, seed, trace, clock)
    if name == "service_job":
        return run_service(p, seed, trace, clock)
    return run_step_workload(name, p, seed, trace, clock)
