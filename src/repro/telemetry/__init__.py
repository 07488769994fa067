"""Unified telemetry: metrics, span tracing, event streams, exporters.

The observability layer every execution mode emits into -- the serial
engine, the sharded backend and the supervisor all feed one
:class:`~repro.telemetry.hub.Telemetry` hub::

    from repro.telemetry import Telemetry

    tel = Telemetry(run_dir="runs/wedge-1989")
    with Simulation(config, telemetry=tel) as sim, tel:
        sim.run(300)
        sim.run(400, sample=True)

    # afterwards: runs/wedge-1989/{events.jsonl, metrics.prom, trace.json}
    # and: python -m repro.telemetry.report runs/wedge-1989

See ``docs/observability.md`` for the event schema, exporter formats
and the Perfetto how-to.
"""

from repro.telemetry.events import EventStream
from repro.telemetry.hub import Telemetry
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    US_PER_PARTICLE_BUCKETS,
)
from repro.telemetry.spans import SpanTracer, validate_trace
from repro.telemetry.stream import (
    JobEventTail,
    JsonlFollower,
    snapshot_records,
)

__all__ = [
    "Telemetry",
    "EventStream",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "US_PER_PARTICLE_BUCKETS",
    "SpanTracer",
    "validate_trace",
    "JsonlFollower",
    "JobEventTail",
    "snapshot_records",
]
