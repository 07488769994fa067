"""Typed metrics registry: counters, gauges, fixed-bucket histograms.

The paper's headline results are metrics -- 7.2 us/particle/step split
14/27/20/39 -- so the registry is built around exactly that shape of
data: monotonically increasing event totals (collisions, migrations,
recoveries), instantaneous levels with high-water tracking (particle
counts, exchange occupancy, load imbalance), and fixed-bucket
histograms for the us/particle/step distribution so a run's timing
profile survives aggregation without storing every step.

Everything here is plain in-process Python (dict updates and a bisect
per observation); the per-step cost is microseconds against step
kernels that run hundreds of milliseconds, which is how the telemetry
subsystem stays inside its <3% overhead budget.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, Optional, Tuple

from repro.errors import ConfigurationError

#: Fixed bucket upper bounds (microseconds per particle per step) for
#: the step-time histogram.  The paper's CM-2 anchor sits at 7.2; the
#: NumPy hot path on a modern core lands around 1-2, so the buckets
#: bracket both with headroom for degraded (serial-fallback) steps.
US_PER_PARTICLE_BUCKETS = (
    0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0,
)

LabelPairs = Tuple[Tuple[str, str], ...]


def _labelkey(labels: Optional[Dict[str, str]]) -> LabelPairs:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing total."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (>= 0) to the total."""
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name!r} cannot decrease (inc {amount})"
            )
        self.value += amount

    def snapshot(self) -> dict:
        """Plain-dict view (JSON-serializable)."""
        return {"kind": self.kind, "value": self.value}


class Gauge:
    """An instantaneous level, with its high-water mark tracked."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0
        self.high_water = float("-inf")

    def set(self, value: float) -> None:
        """Set the level, updating the high-water mark."""
        self.value = float(value)
        if self.value > self.high_water:
            self.high_water = self.value

    def snapshot(self) -> dict:
        """Plain-dict view (JSON-serializable)."""
        out = {"kind": self.kind, "value": self.value}
        if self.high_water != float("-inf"):
            out["high_water"] = self.high_water
        return out


class Histogram:
    """Fixed-bucket histogram (cumulative counts, Prometheus-style).

    The finite upper bounds are :data:`US_PER_PARTICLE_BUCKETS`; an
    implicit ``+inf`` bucket catches the tail.  ``observe`` is one
    ``bisect`` plus two adds -- cheap enough to run every step.
    """

    kind = "histogram"
    buckets = US_PER_PARTICLE_BUCKETS

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.counts = [0] * (len(self.buckets) + 1)  # +inf tail
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Count ``value`` into its bucket and the sum/count totals."""
        self.counts[bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    def snapshot(self) -> dict:
        """Plain-dict view (JSON-serializable)."""
        return {
            "kind": self.kind,
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }


class MetricsRegistry:
    """Name -> metric map with Prometheus text exposition.

    Metrics are created on first use (``counter``/``gauge``/
    ``histogram`` are get-or-create) and optionally carry labels;
    the same metric name with different label sets becomes separate
    series under one family, exactly as Prometheus models it.
    """

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelPairs], object] = {}
        self._help: Dict[str, str] = {}

    # -- get-or-create ---------------------------------------------------

    def _get(self, cls, name, labels, **kwargs):
        key = (name, _labelkey(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, **kwargs)
            self._metrics[key] = metric
            if kwargs.get("help"):
                self._help.setdefault(name, kwargs["help"])
        elif not isinstance(metric, cls):
            raise ConfigurationError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        return metric

    def counter(
        self, name: str, labels: Optional[Dict[str, str]] = None,
        help: str = "",
    ) -> Counter:
        """Get or create the counter ``name`` (optionally labeled)."""
        return self._get(Counter, name, labels, help=help)

    def gauge(
        self, name: str, labels: Optional[Dict[str, str]] = None,
        help: str = "",
    ) -> Gauge:
        """Get or create the gauge ``name`` (optionally labeled)."""
        return self._get(Gauge, name, labels, help=help)

    def histogram(
        self, name: str, labels: Optional[Dict[str, str]] = None,
        help: str = "",
    ) -> Histogram:
        """Get or create the histogram ``name`` (optionally labeled)."""
        return self._get(Histogram, name, labels, help=help)

    def drop(
        self, name: str, labels: Optional[Dict[str, str]] = None
    ) -> bool:
        """Remove one series (if present); returns whether it existed.

        Labeled per-job series must be retired when the job leaves the
        fleet -- a long-lived service would otherwise grow one gauge
        set per job ever submitted and its ``/metrics`` page without
        bound.
        """
        return self._metrics.pop((name, _labelkey(labels)), None) is not None

    # -- reading ---------------------------------------------------------

    def families(self) -> Iterable[Tuple[str, LabelPairs, object]]:
        """Yield ``(name, labels, metric)`` sorted by name then labels."""
        for (name, labels), metric in sorted(
            self._metrics.items(), key=lambda kv: kv[0]
        ):
            yield name, labels, metric

    def snapshot(self) -> dict:
        """Plain-dict snapshot of every series (JSON-serializable)."""
        out: Dict[str, object] = {}
        for name, labels, metric in self.families():
            key = name if not labels else (
                name + "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"
            )
            out[key] = metric.snapshot()
        return out

    def to_prometheus(self) -> str:
        """Prometheus text exposition (format 0.0.4) of the registry."""
        lines = []
        seen_header = set()
        for name, labels, metric in self.families():
            if name not in seen_header:
                seen_header.add(name)
                if self._help.get(name):
                    lines.append(f"# HELP {name} {self._help[name]}")
                lines.append(f"# TYPE {name} {metric.kind}")
            lab = (
                "{" + ",".join(f'{k}="{v}"' for k, v in labels) + "}"
                if labels
                else ""
            )
            if isinstance(metric, Histogram):
                cum = 0
                for bound, c in zip(metric.buckets, metric.counts):
                    cum += c
                    blab = _merge_label(lab, f'le="{bound:g}"')
                    lines.append(f"{name}_bucket{blab} {cum}")
                cum += metric.counts[-1]
                blab = _merge_label(lab, 'le="+Inf"')
                lines.append(f"{name}_bucket{blab} {cum}")
                lines.append(f"{name}_sum{lab} {metric.sum:.9g}")
                lines.append(f"{name}_count{lab} {metric.count}")
            else:
                lines.append(f"{name}{lab} {metric.value:.9g}")
        return "\n".join(lines) + "\n"


def _merge_label(existing: str, extra: str) -> str:
    if not existing:
        return "{" + extra + "}"
    return existing[:-1] + "," + extra + "}"
