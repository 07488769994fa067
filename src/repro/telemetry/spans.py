"""Span tracing: nested timed regions exportable to Chrome trace JSON.

This generalizes :meth:`repro.perf.PerfLedger.phase` (one flat
seconds-by-name accumulator) into *spans*: individual timed intervals
with step / shard / worker-pid attributes that can be laid out on a
timeline.  Two recording paths feed one stream:

* **driver-side** -- :class:`SpanTracer` collects spans in a plain
  Python list (the serial engine's phases, step-level envelopes, audit
  and checkpoint intervals);
* **worker-side** -- a shard worker runs the one step driver (stage 1 /
  exchange / stage 2) under its own ledger, whose tracer appends
  fixed-width rows to a preallocated shared-memory *ring*
  (:func:`ring_append`); the parent drains the rings at the step
  barrier (:func:`drain_ring`) and merges them into the tracer.  Ring
  rows carry only numbers (a name *id* into :data:`WORKER_SPAN_NAMES`),
  so no serialization crosses the process boundary.

``perf_counter`` on Linux is CLOCK_MONOTONIC, which is system-wide, so
worker and driver timestamps share one axis and a W-worker step renders
as W aligned tracks in Perfetto / ``chrome://tracing`` with the
migration barriers visible as the gap between each worker's ``phase_a``
and ``phase_b`` spans.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

#: Name table for ring-encoded worker spans (the row stores the index).
#: ``phase_a``/``phase_b`` are the two barrier-separated halves of the
#: sharded step protocol (stage 1 + outbound exchange, inbound exchange
#: + stage 2); the rest are the algorithm phases.
WORKER_SPAN_NAMES = (
    "phase_a",
    "phase_b",
    "motion",
    "exchange",
    "sort",
    "selection",
    "collision",
    "reservoir",
    # Appended (index stability): cell indexing + mover detection for
    # the incremental sort kernel.
    "index",
)

#: Ring row layout: ``(name_id, t_start, t_end, step, tid, pid)``.
RING_FIELDS = 6

#: Ring state layout: ``(cursor, dropped)``.
RING_STATE = 2

#: Rows per worker span ring (the sharded backend allocates the rings
#: at bind time when a hub is attached).
RING_CAPACITY = 8192


def ring_append(
    ring: np.ndarray,
    state: np.ndarray,
    name_id: int,
    t0: float,
    t1: float,
    step: int,
    tid: int,
    pid: int,
) -> None:
    """Append one span row to a shared ring; drop (and count) on full."""
    cur = int(state[0])
    if cur >= ring.shape[0]:
        state[1] += 1
        return
    ring[cur] = (name_id, t0, t1, step, tid, pid)
    state[0] = cur + 1


def drain_ring(ring: np.ndarray, state: np.ndarray) -> np.ndarray:
    """Copy out and clear a ring's appended rows (parent side)."""
    cur = int(state[0])
    rows = ring[:cur].copy()
    state[0] = 0
    return rows


class SpanTracer:
    """Bounded in-memory span buffer with Chrome-trace export.

    Spans are plain dicts (``name, ts, dur, step, tid, pid``; seconds on
    the perf_counter axis).  The buffer is bounded: past ``max_spans``
    new spans are dropped and counted rather than growing without
    limit -- a telemetry layer must never be the thing that OOMs the
    run it is watching.
    """

    def __init__(self, max_spans: int = 200_000, pid: int = 0) -> None:
        self.max_spans = int(max_spans)
        self.pid = int(pid)
        self.spans: List[dict] = []
        self.dropped = 0
        self._depth = 0

    # -- recording -------------------------------------------------------

    def record(
        self,
        name: str,
        t0: float,
        t1: float,
        step: Optional[int] = None,
        tid: int = 0,
        pid: Optional[int] = None,
    ) -> None:
        """Record one completed span (drops and counts past the bound)."""
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
            return
        self.spans.append(
            {
                "name": name,
                "ts": float(t0),
                "dur": float(t1 - t0),
                "step": step,
                "tid": int(tid),
                "pid": self.pid if pid is None else int(pid),
            }
        )

    def stamp_pending(self, step: int) -> None:
        """Assign ``step`` to spans recorded before the index was known.

        The serial engine's phase spans are recorded mid-step, before
        the step counter advances; the hub stamps them when the step's
        diagnostics arrive.
        """
        for span in reversed(self.spans):
            if span["step"] is not None:
                break
            span["step"] = step

    def absorb_ring_rows(self, rows: np.ndarray) -> None:
        """Merge drained worker ring rows (name ids -> names).

        ``tolist()`` converts the whole block to Python scalars in one
        C call -- per-element numpy indexing here was the telemetry
        hot spot at the sampling cadence.
        """
        room = self.max_spans - len(self.spans)
        if room < rows.shape[0]:
            self.dropped += int(rows.shape[0] - max(room, 0))
            rows = rows[: max(room, 0)]
        if not rows.shape[0]:
            return
        names = WORKER_SPAN_NAMES
        append = self.spans.append
        for name_id, t0, t1, step, tid, pid in rows.tolist():
            append(
                {
                    "name": names[int(name_id)],
                    "ts": t0,
                    "dur": t1 - t0,
                    "step": int(step),
                    "tid": int(tid),
                    "pid": int(pid),
                }
            )

    # -- export ----------------------------------------------------------

    def chrome_trace(self) -> dict:
        """Chrome ``trace_event`` JSON (Perfetto-loadable) of the buffer.

        Spans become complete (``ph: "X"``) events with microsecond
        timestamps relative to the earliest span, one track per
        ``(pid, tid)``; thread-name metadata labels shard tracks.
        """
        events: List[dict] = []
        if self.spans:
            t_base = min(s["ts"] for s in self.spans)
            tracks = set()
            for s in self.spans:
                tracks.add((s["pid"], s["tid"]))
                events.append(
                    {
                        "ph": "X",
                        "name": s["name"],
                        "ts": (s["ts"] - t_base) * 1e6,
                        "dur": max(s["dur"], 0.0) * 1e6,
                        "pid": s["pid"],
                        "tid": s["tid"],
                        "args": {"step": s["step"]},
                    }
                )
            for pid, tid in sorted(tracks):
                events.append(
                    {
                        "ph": "M",
                        "name": "thread_name",
                        "pid": pid,
                        "tid": tid,
                        "args": {
                            "name": "driver" if tid == 0 and pid == self.pid
                            else f"shard {tid}"
                        },
                    }
                )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"dropped_spans": self.dropped},
        }


def validate_trace(trace: dict) -> List[str]:
    """Sanity-check a Chrome trace dict; returns a list of problems.

    Checks the two properties a timeline viewer needs: every duration
    event opened (``B``) on a track is closed (``E``) in order, and no
    complete (``X``) event has a negative duration or missing fields.
    An empty list means the trace is well-formed.
    """
    problems: List[str] = []
    open_stacks: Dict[tuple, int] = {}
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is not a list"]
    for i, ev in enumerate(events):
        ph = ev.get("ph")
        key = (ev.get("pid"), ev.get("tid"))
        if ph == "B":
            open_stacks[key] = open_stacks.get(key, 0) + 1
        elif ph == "E":
            depth = open_stacks.get(key, 0)
            if depth <= 0:
                problems.append(f"event {i}: E without matching B on {key}")
            else:
                open_stacks[key] = depth - 1
        elif ph == "X":
            if "ts" not in ev or "name" not in ev:
                problems.append(f"event {i}: X event missing ts/name")
            elif ev.get("dur", 0) < 0:
                problems.append(f"event {i}: negative duration")
        elif ph == "M":
            continue
    for key, depth in open_stacks.items():
        if depth:
            problems.append(f"track {key}: {depth} unclosed B event(s)")
    return problems
