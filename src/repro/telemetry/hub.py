"""The telemetry hub: one observability layer for every execution mode.

:class:`Telemetry` is the object the serial engine, the sharded
backend and the supervisor all emit into.  It owns

* a :class:`~repro.telemetry.metrics.MetricsRegistry` fed every step
  with engine metrics (population, collision candidates/acceptances,
  reservoir flux, migration rows per channel, exchange occupancy
  high-water marks, audit and recovery totals) and physics observables
  (energy drift, per-shard load imbalance, mean free path per x band);
* a :class:`~repro.telemetry.spans.SpanTracer` merging driver-side
  phase spans (via the perf ledger's tracer hook) with worker-side
  shared-memory span rings (drained at the step barrier), exportable
  to Chrome ``trace_event`` JSON;
* the run's JSONL :class:`~repro.telemetry.events.EventStream`
  (``events.jsonl``) plus a Prometheus snapshot file
  (``metrics.prom``) and an optional live HTTP endpoint.

Wiring: pass a hub to ``Simulation(config, telemetry=...)`` (or to an
:class:`~repro.ensemble.EnsembleEngine`: the hub counts the block
totals, and a run with ``replica_ids`` also gets per-replica
``ensemble_*`` gauges); the engine calls :meth:`on_step` once per
completed step, the supervisor
calls :meth:`record_audit`/:meth:`record_event`, and :meth:`close`
writes the final artifacts (``trace.json``, ``metrics.prom``).

Overhead: with defaults the per-step cost is a handful of dict updates
and one histogram insert -- microseconds against kernels that run for
hundreds of milliseconds -- plus cadenced JSONL/Prometheus writes; the
measured budget (<3% at the 240k-particle wedge) is enforced by
``benchmarks/bench_telemetry_overhead.py``.
"""

from __future__ import annotations

import os
import pathlib
import sys
import time
from typing import Optional, Union

import numpy as np

from repro.perf import PAPER_PHASES
from repro.telemetry import observables
from repro.telemetry.events import EventStream
from repro.telemetry.exporters import ensure_server, write_prometheus_snapshot
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import SpanTracer

PathLike = Union[str, pathlib.Path]

#: The paper's phase split, for the live status line.
_PAPER_SPLIT = "14/27/20/39"
#: Steps between live status lines (``live=True``).
LIVE_EVERY = 20


class Telemetry:
    """Central telemetry hub for one run.

    Parameters
    ----------
    run_dir:
        Directory for ``events.jsonl`` / ``metrics.prom`` /
        ``trace.json``.  ``None`` keeps everything in memory (metrics
        and spans still accumulate and can be snapshotted).
    sample_every:
        Steps between JSONL metric samples and Prometheus snapshot
        rewrites (the "default cadence" of the overhead budget).
    observables_every:
        Steps between O(N) physics observables (mean-free-path bands).
    live:
        Print a one-line status to stderr every :data:`LIVE_EVERY`
        steps.
    port:
        Serve ``/metrics`` on this port (``0`` = ephemeral) via the
        stdlib HTTP server; ``None`` disables.
    max_spans:
        Driver-side span buffer bound; excess spans are dropped and
        counted.
    """

    def __init__(
        self,
        run_dir: Optional[PathLike] = None,
        sample_every: int = 10,
        observables_every: int = 50,
        live: bool = False,
        port: Optional[int] = None,
        max_spans: int = 200_000,
    ) -> None:
        self.sample_every = max(1, int(sample_every))
        self.observables_every = max(1, int(observables_every))
        self.live = bool(live)
        self.registry = MetricsRegistry()
        reg = self.registry
        # Hot-path metric objects are resolved once here; on_step then
        # touches them as attributes instead of get-or-create lookups.
        self._m_steps = reg.counter(
            "repro_steps_total", help="completed simulation steps"
        )
        self._m_collisions = reg.counter(
            "repro_collisions_total", help="accepted collision pairs"
        )
        self._m_candidates = reg.counter(
            "repro_collision_candidates_total",
            help="same-cell candidate pairs",
        )
        self._m_injected = reg.counter(
            "repro_particles_injected_total",
            help="reservoir flux: particles injected upstream",
        )
        self._m_removed = reg.counter(
            "repro_particles_removed_total",
            help="reservoir flux: particles removed downstream",
        )
        self._m_flow = reg.gauge(
            "repro_flow_particles", help="particles in the flow"
        )
        self._m_reservoir = reg.gauge(
            "repro_reservoir_particles",
            help="particles idling in the reservoir",
        )
        self._m_drift = reg.gauge(
            "repro_energy_drift",
            help="relative total-energy drift vs the run baseline",
        )
        self._m_uspp = reg.histogram(
            "repro_step_us_per_particle",
            help="four-phase wall-clock microseconds per particle per step",
        )
        self._m_moved = reg.gauge(
            "repro_sort_moved_fraction",
            help="fraction of particles that changed cell this step "
            "(incremental sort kernel only)",
        )
        self._m_rebuilds = reg.counter(
            "repro_sort_rebuilds_total",
            help="full canonical-order rebuilds by the incremental "
            "sort kernel",
        )
        self._m_migrations = None  # created on first sharded step
        self.tracer = SpanTracer(max_spans=max_spans, pid=os.getpid())
        self.stream: Optional[EventStream] = (
            EventStream(run_dir) if run_dir is not None else None
        )
        self.run_dir = pathlib.Path(run_dir) if run_dir is not None else None
        self.server = ensure_server(self.registry, port)
        self._sim = None
        #: The run's ``replica_ids`` (``None`` for a run without).
        self._replica_ids = None
        #: The last ``exchange_occupancy()`` read (sharded runs).
        self._channels = None
        self._energy0: Optional[float] = None
        self._flushed_spans = 0
        self._closed = False
        self._t_attach = time.time()

    # -- lifecycle -------------------------------------------------------

    def attach(self, sim) -> "Telemetry":
        """Bind to a simulation: baseline energy, perf tracer hook."""
        self._sim = sim
        self._replica_ids = getattr(sim, "replica_ids", None)
        sim.perf.tracer = self.tracer
        if self._energy0 is None:
            self._energy0 = float(sim.particles.total_energy())
        if sim.config.scenario is not None:
            # Constant-1 info gauge: joins the scenario id onto every
            # other series at query time (the Prometheus info idiom).
            self.registry.gauge(
                "repro_scenario_info",
                help="scenario the run was built from (info label)",
                labels={"scenario": sim.config.scenario},
            ).set(1.0)
        if self.stream is not None and not self.stream.events:
            extra = (
                {"scenario": sim.config.scenario}
                if sim.config.scenario is not None
                else {}
            )
            self.stream.emit(
                "run_start",
                step=sim.step_count,
                n_flow=sim.particles.n,
                workers=getattr(sim.backend, "n_workers", 1),
                seed=sim.config.seed
                if isinstance(sim.config.seed, int)
                else None,
                **extra,
            )
        return self

    def reattach(self, sim) -> None:
        """Re-bind after recovery replaced the simulation object.

        The energy baseline and accumulated metrics survive -- a
        recovery restores a bitwise-identical state, so continuity of
        the drift series is exactly what we want.
        """
        self._sim = sim
        self._replica_ids = getattr(sim, "replica_ids", None)
        sim.telemetry = self
        sim.perf.tracer = self.tracer

    def close(self) -> None:
        """Flush final artifacts and stop the exporter (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.flush(final=True)
        if self.run_dir is not None:
            import json

            trace_path = self.run_dir / "trace.json"
            trace_path.write_text(
                json.dumps(self.tracer.chrome_trace()), encoding="utf-8"
            )
        if self.server is not None:
            self.server.close()

    # -- the per-step feed ----------------------------------------------

    def on_step(self, sim, diag) -> None:
        """Ingest one completed step's diagnostics (every mode).

        The every-step path touches pre-resolved metric objects and the
        migration counter only; per-shard gauges, ring drains and file
        writes all run at the sampling cadence (the overhead budget is
        enforced by ``benchmarks/bench_telemetry_overhead.py``).
        """
        step = diag.step
        self.tracer.stamp_pending(step)

        n_flow = diag.n_flow_total
        self._m_steps.inc()
        self._m_collisions.inc(diag.n_collisions_total)
        self._m_candidates.inc(diag.n_candidates)
        b = diag.boundary
        self._m_injected.inc(b.n_injected_upstream)
        self._m_removed.inc(b.n_removed_downstream)
        self._m_flow.set(n_flow)
        self._m_reservoir.set(diag.n_reservoir_total)
        if self._replica_ids is not None:
            self._publish_replicas(diag)

        if diag.sort_moved_fraction is not None:
            self._m_moved.set(diag.sort_moved_fraction)
        if diag.sort_rebuilds:
            self._m_rebuilds.inc(diag.sort_rebuilds)

        drift = None
        if self._energy0:
            drift = observables.energy_drift(diag.total_energy, self._energy0)
            self._m_drift.set(drift)

        us_pp = None
        if diag.phase_seconds and n_flow > 0:
            step_s = sum(
                diag.phase_seconds.get(p, 0.0) for p in PAPER_PHASES
            )
            us_pp = step_s / n_flow * 1e6
            self._m_uspp.observe(us_pp)

        self._count_migrations(sim)
        self._collect_rebalance(sim, step)

        do_obs = step % self.observables_every == 0
        do_sample = step % self.sample_every == 0
        do_live = self.live and step % LIVE_EVERY == 0
        imbalance = None
        if do_obs or do_sample or do_live:
            imbalance = self._sample_backend(sim)
        if do_obs:
            self._sample_observables(sim, step)
        if do_sample:
            self._emit_sample(sim, diag, step, us_pp, drift, imbalance)
        if do_live:
            self._print_live(sim, diag, step, us_pp, imbalance)

    def _publish_replicas(self, diag) -> None:
        """The ensemble gauges: totals, and one series per replica id.

        ``ensemble_replicas``, ``ensemble_flow_total``,
        ``ensemble_collisions_total``, ``ensemble_energy_total`` and,
        labeled ``replica``, ``ensemble_flow`` / ``ensemble_collisions``
        / ``ensemble_reservoir``.
        """
        m = self.registry
        m.gauge("ensemble_replicas").set(len(self._replica_ids))
        m.gauge("ensemble_flow_total").set(diag.n_flow_total)
        m.gauge("ensemble_collisions_total").set(diag.n_collisions_total)
        m.gauge("ensemble_energy_total").set(diag.total_energy)
        for name in ("flow", "collisions", "reservoir"):
            values = np.atleast_1d(getattr(diag, f"n_{name}")).tolist()
            for rid, value in zip(self._replica_ids, values):
                m.gauge(f"ensemble_{name}", {"replica": str(rid)}).set(value)

    def _count_migrations(self, sim) -> None:
        """Every-step migration total (the counts reset each step)."""
        occ_fn = getattr(sim.backend, "exchange_occupancy", None)
        self._channels = occ_fn() if callable(occ_fn) else None
        if self._channels is None:
            return
        if self._m_migrations is None:
            self._m_migrations = self.registry.counter(
                "repro_migrations_total",
                help="particle rows migrated between shards",
            )
        self._m_migrations.inc(int(self._channels[0].sum()))

    def _collect_rebalance(self, sim, step: int) -> None:
        """Ingest the backend's latest rebalance event, if any.

        This is where the measured ``load_imbalance`` gauge is finally
        *consumed*, not just emitted: the backend acts on the same
        per-shard loads and reports back what it did (or why it
        skipped), and the hub turns that into counters and a JSONL
        ``rebalance`` event.
        """
        take_fn = getattr(sim.backend, "take_rebalance_event", None)
        if not callable(take_fn):
            return
        event = take_fn()
        if event is None:
            return
        reg = self.registry
        if event.get("executed"):
            reg.counter(
                "repro_rebalances_total",
                help="slab repartitions executed",
            ).inc()
            reg.counter(
                "repro_rebalance_columns_moved_total",
                help="cell columns re-homed by slab repartitions",
            ).inc(int(event.get("columns_moved", 0)))
            reg.counter(
                "repro_rebalance_rows_moved_total",
                help="particle rows shipped by slab repartitions",
            ).inc(int(event.get("rows_moved", 0)))
        else:
            reg.counter(
                "repro_rebalances_skipped_total",
                help="slab repartitions skipped (capacity re-validation)",
            ).inc()
        if self.stream is not None:
            self.stream.emit("rebalance", **event)

    def _sample_backend(self, sim) -> Optional[float]:
        """Sharded-backend extras: loads, channels, worker spans.

        Runs at the sampling cadence, not every step -- per-shard
        labeled gauges and the span-ring drain are the expensive part
        of backend introspection.  Ring capacity
        (:data:`~repro.telemetry.spans.RING_CAPACITY` rows) comfortably
        covers a cadence worth of worker spans.
        """
        backend = sim.backend
        reg = self.registry
        imbalance = None

        loads_fn = getattr(backend, "shard_loads", None)
        if callable(loads_fn):
            loads = loads_fn()
            if loads is not None:
                imbalance = observables.load_imbalance(loads)
                reg.gauge(
                    "repro_load_imbalance",
                    help="max-over-mean shard load (particles stepped)",
                ).set(imbalance)
                for k, n_k in enumerate(loads):
                    reg.gauge(
                        "repro_shard_load",
                        labels={"shard": str(k)},
                        help="particles stepped per shard (flow rows; "
                        "shard 0 adds its reservoir per mix round)",
                    ).set(n_k)

        if self._channels is not None:
            counts, high_water, capacity = self._channels
            for (shard, direction), rows in np.ndenumerate(counts):
                reg.gauge(
                    "repro_channel_rows",
                    labels={
                        "shard": str(shard),
                        "dir": "left" if direction == 0 else "right",
                    },
                    help="migration rows per channel this step",
                ).set(int(rows))
            peak = float(np.max(high_water)) / capacity if capacity else 0.0
            reg.gauge(
                "repro_exchange_occupancy_peak",
                help="high-water channel occupancy as a fraction of capacity",
            ).set(peak)

        self._drain_worker_spans(sim)
        return imbalance

    def _drain_worker_spans(self, sim) -> None:
        drain_fn = getattr(sim.backend, "drain_span_rings", None)
        if callable(drain_fn):
            rows = drain_fn()
            if rows is not None and rows.shape[0]:
                self.tracer.absorb_ring_rows(rows)

    def _sample_observables(self, sim, step: int) -> None:
        """O(N) physics observables at their own (slower) cadence."""
        cfg = sim.config
        cols_fn = getattr(sim.backend, "shard_columns", None)
        views = cols_fn() if callable(cols_fn) else None
        xs = (
            [v["x"] for v in views] if views is not None else [sim.particles.x]
        )
        # R replica blocks fill the tunnel R times over.
        n_blocks = 1 if self._replica_ids is None else len(self._replica_ids)
        bands = observables.mean_free_path_bands(
            xs,
            cfg.domain.width,
            cfg.domain.height * cfg.domain.depth,
            cfg.freestream.density * n_blocks,
            cfg.freestream.lambda_mfp,
        )
        if bands is None:
            return
        for i, lam in enumerate(bands):
            self.registry.gauge(
                "repro_mean_free_path_cells",
                labels={"band": str(i)},
                help="local mean free path per x band, cell widths",
            ).set(lam if np.isfinite(lam) else -1.0)
        if self.stream is not None:
            self.stream.emit(
                "observables",
                step=step,
                mean_free_path_bands=[
                    (float(v) if np.isfinite(v) else None) for v in bands
                ],
            )

    def _emit_sample(self, sim, diag, step, us_pp, drift, imbalance) -> None:
        """One cadenced JSONL metrics sample + pending spans + .prom."""
        if self.stream is not None:
            record = {
                "step": step,
                "n_flow": diag.n_flow,
                "n_reservoir": diag.n_reservoir,
                "n_collisions": diag.n_collisions,
                "n_candidates": diag.n_candidates,
                "us_per_particle": us_pp,
                "energy_drift": drift,
                "fractions": sim.perf.fractions(),
            }
            if diag.sort_moved_fraction is not None:
                record["sort_moved_fraction"] = diag.sort_moved_fraction
            if diag.sort_rebuilds is not None:
                record["sort_rebuilds"] = int(
                    self._m_rebuilds.value
                )
            if imbalance is not None:
                record["load_imbalance"] = imbalance
            batch = [{"kind": "metrics", **record}]
            batch.extend(
                {"kind": "span", **span}
                for span in self.tracer.spans[self._flushed_spans:]
            )
            self.stream.append_many(batch)
            self._flushed_spans = len(self.tracer.spans)
        if self.run_dir is not None:
            write_prometheus_snapshot(
                self.registry, self.run_dir / "metrics.prom"
            )

    def _print_live(self, sim, diag, step, us_pp, imbalance) -> None:
        frac = sim.perf.fractions()
        split = "/".join(
            f"{100 * frac.get(p, 0.0):.0f}" for p in PAPER_PHASES
        )
        rec = self.registry.counter("repro_recoveries_total").value
        parts = [
            f"step {step:6d}",
            f"n={diag.n_flow_total}",
            f"{us_pp:.2f} us/p" if us_pp is not None else "us/p n/a",
            f"phases {split} (paper {_PAPER_SPLIT})",
        ]
        if imbalance is not None:
            parts.append(f"imb {imbalance:.2f}")
        if diag.sort_moved_fraction is not None:
            parts.append(
                f"mv {diag.sort_moved_fraction:.2f}"
                f"/rb {int(self._m_rebuilds.value)}"
            )
        parts.append(f"rec {int(rec)}")
        bal = self.registry.counter("repro_rebalances_total").value
        if bal:
            parts.append(f"bal {int(bal)}")
        print("  ".join(parts), file=sys.stderr, flush=True)

    # -- supervisor-facing hooks ----------------------------------------

    def record_audit(self, step: int, ok: bool, **fields) -> None:
        """Record one invariant-audit outcome."""
        self.registry.counter(
            "repro_audits_total", help="invariant audits executed"
        ).inc()
        failures = self.registry.counter(
            "repro_audit_failures_total",
            help="invariant audits that raised a violation",
        )
        if not ok:
            failures.inc()
        if self.stream is not None:
            self.stream.emit("audit", step=step, ok=ok, **fields)

    def record_event(self, kind: str, **fields) -> None:
        """Mirror an arbitrary run event (recovery, checkpoint, ...).

        Recovery events also bump the recovery counter here: the
        supervisor attaches them to the step diagnostics only *after*
        ``Simulation.step`` has already fed the hub, so :meth:`on_step`
        never sees them on the supervised path.
        """
        if kind == "recovery":
            self.registry.counter(
                "repro_recoveries_total",
                help="supervisor recoveries absorbed",
            ).inc()
        if self.stream is not None:
            self.stream.emit(kind, **fields)

    # -- reading ---------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-serializable snapshot of the registry plus span stats."""
        return {
            "metrics": self.registry.snapshot(),
            "spans": len(self.tracer.spans),
            "spans_dropped": self.tracer.dropped,
            "wall_seconds": time.time() - self._t_attach,
        }

    def flush(self, final: bool = False) -> None:
        """Write the Prometheus snapshot and drain unflushed spans."""
        if self._sim is not None:
            self._drain_worker_spans(self._sim)
        if self.stream is not None:
            self.stream.append_many(
                {"kind": "span", **span}
                for span in self.tracer.spans[self._flushed_spans:]
            )
            self._flushed_spans = len(self.tracer.spans)
            if final:
                self.stream.emit("run_end", snapshot=self.snapshot())
                self.stream.close()
        if self.run_dir is not None:
            write_prometheus_snapshot(
                self.registry, self.run_dir / "metrics.prom"
            )
