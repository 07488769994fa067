"""Per-phase wall-clock performance ledger for the NumPy engine.

The paper reports its runtime as a per-phase breakdown -- motion and
boundaries 14%, sort 27%, selection 20%, collision 39% of 7.2
microseconds per particle per step -- and the CM emulation reproduces
that structurally through :class:`repro.cm.timing.CostLedger`.  This
module is the *wall-clock* counterpart for the reference (NumPy)
engine: the step loop wraps each phase in :meth:`PerfLedger.phase` and
the ledger accumulates real elapsed seconds, so a run can print its own
motion/sort/selection/collision split next to the paper's and the
benchmark suite can track the hot path's trajectory across commits.

Overhead is two ``perf_counter`` calls per phase per step (tens of
nanoseconds), negligible against the O(N) kernels being timed; the
ledger can still be disabled for the purest timing runs.

The ledger is also the serial engine's feed into the telemetry
subsystem: when a :class:`repro.telemetry.spans.SpanTracer` is
installed as :attr:`PerfLedger.tracer`, every phase records a span
(with its real start/end timestamps) in addition to the aggregate
seconds, which is what the Chrome-trace export renders.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

#: The paper's four timed phases, in execution order.  The ledger also
#: accepts extra phase names (e.g. "reservoir", "sampling") -- they are
#: reported separately and excluded from the four-phase fractions so the
#: split stays comparable with the paper's table.
PAPER_PHASES = ("motion", "sort", "selection", "collision")


class PerfLedger:
    """Accumulates wall-clock seconds by named phase.

    Typical use inside a step loop::

        perf = PerfLedger()
        with perf.phase("motion"):
            ...
        with perf.phase("sort"):
            ...
        perf.end_step(n_particles=parts.n)

    and afterwards ``perf.fractions()`` for the paper-style split or
    ``perf.us_per_particle()`` for the per-particle budget (computed
    against the accumulated per-step particle counts).
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._seconds: Dict[str, float] = {}
        self._last_step: Dict[str, float] = {}
        self._current: Dict[str, float] = {}
        self._steps = 0
        #: Sum of per-step particle counts over the recorded steps (the
        #: correct denominator for us/particle when the population
        #: changes step to step, which it always does: boundary fluxes).
        self._particle_steps = 0
        #: Steps that reported a particle count to :meth:`end_step`.
        self._counted_steps = 0
        #: Bumped by :meth:`reset`; a phase entered before a reset
        #: discards its charge instead of polluting the fresh ledger.
        self._generation = 0
        #: Optional :class:`repro.telemetry.spans.SpanTracer`; when set,
        #: every completed phase also records a span (telemetry installs
        #: this; ``None`` keeps the hot path at two perf_counter calls).
        self.tracer = None

    # -- recording --------------------------------------------------------

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time the enclosed block and charge it to ``name``."""
        if not self.enabled:
            yield
            return
        gen = self._generation
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            if gen == self._generation:
                dt = t1 - t0
                self._current[name] = self._current.get(name, 0.0) + dt
                self._seconds[name] = self._seconds.get(name, 0.0) + dt
                if self.tracer is not None:
                    self.tracer.record(name, t0, t1)

    def record(self, name: str, seconds: float) -> None:
        """Charge externally measured ``seconds`` to phase ``name``.

        The sharded backend times phases inside worker processes and
        merges the per-shard ledgers into the driver's ledger through
        this method (summed CPU-seconds per phase, so the paper-style
        four-phase split still reports globally).
        """
        if not self.enabled:
            return
        self._current[name] = self._current.get(name, 0.0) + seconds
        self._seconds[name] = self._seconds.get(name, 0.0) + seconds

    def record_spans(self, spans) -> None:
        """Charge ``(name, t_start, t_end)`` spans timed by the callee.

        How every in-process engine books the collision stage's own
        phase boundaries, so a phase means the same in every mode.
        """
        if not self.enabled:
            return
        for name, t0, t1 in spans:
            self.record(name, t1 - t0)
            if self.tracer is not None:
                self.tracer.record(name, t0, t1)

    def end_step(self, n_particles: Optional[int] = None) -> None:
        """Close out one time step (freezes that step's phase split).

        ``n_particles`` is the step's flow population; passing it every
        step builds the particle-count series that
        :meth:`us_per_particle` divides by, so the per-particle budget
        stays honest while the population fluctuates.
        """
        self._steps += 1
        if n_particles is not None and n_particles > 0:
            self._particle_steps += int(n_particles)
            self._counted_steps += 1
        self._last_step = self._current
        self._current = {}

    def reset(self) -> None:
        """Drop all accumulated timings (e.g. after warm-up steps).

        Safe to call while a :meth:`phase` context is open: the
        in-flight phase detects the reset (generation counter) and
        discards its charge rather than leaking warm-up seconds into
        the fresh ledger.
        """
        self._generation += 1
        self._seconds = {}
        self._last_step = {}
        self._current = {}
        self._steps = 0
        self._particle_steps = 0
        self._counted_steps = 0

    # -- reading ----------------------------------------------------------

    @property
    def steps(self) -> int:
        return self._steps

    @property
    def particle_steps(self) -> int:
        """Sum of per-step particle counts reported to :meth:`end_step`."""
        return self._particle_steps

    @property
    def last_step_seconds(self) -> Dict[str, float]:
        """Phase -> seconds of the most recently completed step."""
        return dict(self._last_step)

    def total_seconds(self) -> float:
        """Wall-clock seconds accumulated across all phases."""
        return sum(self._seconds.values())

    def phase_seconds(self, name: str) -> float:
        """Accumulated seconds for one phase (0.0 if never entered)."""
        return self._seconds.get(name, 0.0)

    def per_step_seconds(self) -> Dict[str, float]:
        """Phase -> mean seconds per recorded step."""
        if self._steps == 0:
            return {}
        return {p: s / self._steps for p, s in self._seconds.items()}

    def fractions(self) -> Dict[str, float]:
        """Share of each *paper* phase in the four-phase total.

        Extra phases (reservoir work, sampling) are excluded from the
        denominator so the split is directly comparable with the
        paper's 14/27/20/39 table.
        """
        total = sum(self._seconds.get(p, 0.0) for p in PAPER_PHASES)
        if total == 0.0:
            return {p: 0.0 for p in PAPER_PHASES}
        return {p: self._seconds.get(p, 0.0) / total for p in PAPER_PHASES}

    def us_per_particle(self) -> Dict[str, float]:
        """Phase -> microseconds per particle per step (paper units).

        Divides by the accumulated per-step particle counts (the series
        built by ``end_step(n_particles=...)``), which is exact under a
        fluctuating population.  The old single-count signature
        (``us_per_particle(n_particles)``), which silently applied the
        *final* population to every recorded step, has been removed;
        report the count per step via ``end_step`` instead.
        """
        if self._particle_steps == 0 or self._counted_steps == 0:
            return {}
        # Steps that predate the series (mixed old/new callers) scale
        # the denominator by the counted fraction, keeping the mean
        # honest for the steps that did report.
        scale = self._counted_steps / self._steps if self._steps else 1.0
        return {
            p: s * scale / self._particle_steps * 1e6
            for p, s in self._seconds.items()
        }

    def summary(self) -> Dict[str, object]:
        """One serializable record of everything the ledger knows."""
        out: Dict[str, object] = {
            "steps": self._steps,
            "particle_steps": self._particle_steps,
            "seconds_by_phase": dict(self._seconds),
            "per_step_seconds": self.per_step_seconds(),
            "fractions": self.fractions(),
        }
        if self._particle_steps:
            out["us_per_particle"] = self.us_per_particle()
        return out
