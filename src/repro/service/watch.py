"""``repro watch``: a live terminal dashboard over the service API.

Two views, both plain stdlib over the streaming routes:

* **job view** (``repro watch <job_id>``) -- long-polls
  ``/jobs/<id>/events`` and renders step progress, particle count, a
  us/particle sparkline built from the heartbeat-to-heartbeat deltas
  of the worker's step-time histogram, retry/attempt state and (when
  sharded) the load imbalance.  Exits 0 when the job lands DONE, 1 on
  any other terminal state.
* **fleet view** (``repro watch --fleet``) -- polls ``/fleet`` and
  renders one row per job; exits once every job is terminal.

On a TTY the panel redraws in place (ANSI cursor-up); redirected
output degrades to one status line per refresh, so a CI log of a
watch session stays readable.
"""

from __future__ import annotations

import sys
import time
from typing import IO, List, Optional

from repro.service import store as st
from repro.service.client import ServiceClient

#: Eighth-block ramp for sparklines (space = no data).
SPARK_CHARS = " ▁▂▃▄▅▆▇█"


def sparkline(values: List[float], width: int = 32) -> str:
    """Render the last ``width`` values as a unicode sparkline."""
    vals = [float(v) for v in values][-width:]
    if not vals:
        return ""
    lo, hi = min(vals), max(vals)
    span = hi - lo
    out = []
    for v in vals:
        frac = 1.0 if span <= 0 else (v - lo) / span
        out.append(SPARK_CHARS[1 + int(frac * (len(SPARK_CHARS) - 2))])
    return "".join(out)


def progress_bar(step: Optional[float], total: Optional[float],
                 width: int = 24) -> str:
    """``[#####....] 42%`` (empty when totals are unknown)."""
    if not total or step is None:
        return "[" + " " * width + "]   ?%"
    frac = min(1.0, max(0.0, float(step) / float(total)))
    filled = int(round(frac * width))
    return (
        "[" + "#" * filled + "." * (width - filled)
        + f"] {int(frac * 100):3d}%"
    )


class JobView:
    """Accumulates one job's live events into a renderable panel."""

    #: Columns of the us/particle sparkline.
    SPARK_WIDTH = 32

    def __init__(self, job_id: str) -> None:
        self.job_id = job_id
        self.step: Optional[int] = None
        self.total: Optional[int] = None
        self.n_flow: Optional[int] = None
        self.attempt: Optional[int] = None
        self.state: str = "?"
        self.load_imbalance: Optional[float] = None
        self.us_series: List[float] = []
        self.kinds: dict = {}

    def feed(self, rec: dict) -> None:
        """Fold one streamed record into the view."""
        kind = rec.get("kind")
        self.kinds[kind] = self.kinds.get(kind, 0) + 1
        if kind == "heartbeat":
            self.step = rec.get("step", self.step)
            self.total = rec.get("total", self.total)
            self.n_flow = rec.get("n_flow", self.n_flow)
            self.attempt = rec.get("attempt", self.attempt)
            if rec.get("us_per_particle") is not None:
                self.us_series.append(float(rec["us_per_particle"]))
        elif kind == "metrics":
            if rec.get("load_imbalance") is not None:
                self.load_imbalance = float(rec["load_imbalance"])
            if rec.get("n_flow") is not None:
                self.n_flow = rec["n_flow"]
        elif kind == "started":
            self.attempt = rec.get("attempt", self.attempt)
            self.total = rec.get("total", self.total)

    def lines(self) -> List[str]:
        """The dashboard panel, one string per terminal row."""
        retries = max(0, (self.attempt or 1) - 1)
        us = self.us_series[-1] if self.us_series else None
        rows = [
            f"job {self.job_id}  [{self.state}]  attempt "
            f"{self.attempt or '?'}  retries {retries}",
            f"  steps {progress_bar(self.step, self.total)}  "
            f"{self.step if self.step is not None else '?'}"
            f"/{self.total if self.total is not None else '?'}",
            f"  particles {self.n_flow if self.n_flow is not None else '?':>8}"
            + (
                f"   imbalance {self.load_imbalance:.3f}"
                if self.load_imbalance is not None
                else ""
            ),
        ]
        if self.us_series:
            rows.append(
                f"  us/particle {us:7.3f}  "
                f"{sparkline(self.us_series, self.SPARK_WIDTH)}"
            )
        counts = "  ".join(
            f"{k}:{n}"
            for k, n in sorted(self.kinds.items())
            if k in ("heartbeat", "checkpoint", "recovery", "failed")
        )
        if counts:
            rows.append(f"  events {counts}")
        return rows


class _Panel:
    """Redraw-in-place writer (plain appends when not a TTY)."""

    def __init__(self, out: IO[str]) -> None:
        self.out = out
        self.tty = bool(getattr(out, "isatty", lambda: False)())
        self._last = 0

    def draw(self, lines: List[str]) -> None:
        if self.tty and self._last:
            self.out.write(f"\x1b[{self._last}F\x1b[J")
        for line in lines:
            self.out.write(line + "\n")
        self.out.flush()
        self._last = len(lines)


def watch_job(
    client: ServiceClient,
    job_id: str,
    out: IO[str] = sys.stdout,
    poll_timeout: float = 2.0,
    max_rounds: Optional[int] = None,
) -> int:
    """Follow one job live until terminal; returns the exit code."""
    view = JobView(job_id)
    panel = _Panel(out)
    cursor: Optional[str] = None
    rounds = 0
    while True:
        batch = client.events(job_id, cursor=cursor, timeout=poll_timeout)
        cursor = batch["cursor"]
        view.state = batch["state"]
        for rec in batch["events"]:
            view.feed(rec)
        panel.draw(view.lines())
        rounds += 1
        if batch["terminal"]:
            return 0 if batch["state"] == st.DONE else 1
        if max_rounds is not None and rounds >= max_rounds:
            return 0


def fleet_lines(fleet: dict) -> List[str]:
    """Render the ``/fleet`` summary as a table, one row per job."""
    health = fleet.get("health", {})
    rows = [
        f"fleet: {health.get('running', 0)} running, queue depth "
        f"{health.get('queue_depth', 0)}, {health.get('jobs', 0)} jobs"
        + ("" if health.get("ok", True) else "  [SERVICE DEAD]")
    ]
    header = (
        f"{'job':<34} {'state':<9} {'step':>10} {'part.':>8} "
        f"{'us/part':>8} {'hb age':>7} {'retry':>5}"
    )
    rows.append(header)
    for job in fleet.get("jobs", []):
        step = job.get("step")
        total = job.get("total")
        steps = (
            f"{step}/{total}" if step is not None and total else
            (str(step) if step is not None else "-")
        )
        us = job.get("us_per_particle")
        age = job.get("heartbeat_age")
        rows.append(
            f"{job.get('job_id', '?'):<34} {job.get('state', '?'):<9} "
            f"{steps:>10} "
            f"{job.get('n_flow') if job.get('n_flow') is not None else '-':>8} "
            f"{f'{us:.3f}' if us is not None else '-':>8} "
            f"{f'{age:.1f}s' if age is not None else '-':>7} "
            f"{max(0, (job.get('attempt') or 1) - 1):>5}"
        )
    return rows


def watch_fleet(
    client: ServiceClient,
    out: IO[str] = sys.stdout,
    interval: float = 1.0,
    max_rounds: Optional[int] = None,
) -> int:
    """Follow the whole fleet until every job is terminal."""
    panel = _Panel(out)
    rounds = 0
    while True:
        fleet = client.fleet()
        panel.draw(fleet_lines(fleet))
        rounds += 1
        jobs = fleet.get("jobs", [])
        live = [j for j in jobs if j.get("state") not in st.TERMINAL_STATES]
        if jobs and not live:
            return 0
        if max_rounds is not None and rounds >= max_rounds:
            return 0
        time.sleep(interval)
