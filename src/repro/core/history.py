"""Per-step time-series recording for simulation runs.

Captures the scalar diagnostics of every step (population, collisions,
energy, boundary traffic) into growable arrays so transients can be
inspected, steady state detected
(:class:`repro.analysis.convergence.SteadyStateDetector` plugs in
directly), and runs compared quantitatively -- the observability layer a
production solver needs around the paper's bare time loop.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.analysis.convergence import SteadyStateDetector
from repro.core.simulation import Simulation, StepDiagnostics
from repro.errors import ConfigurationError

#: Scalar channels extracted from each step's diagnostics.
CHANNELS = (
    "n_flow",
    "n_reservoir",
    "n_candidates",
    "n_collisions",
    "pairing_efficiency",
    "mean_collision_probability",
    "total_energy",
    "momentum_x",
    "n_removed_downstream",
    "n_injected_upstream",
)


class RunHistory:
    """Accumulates per-step scalars from :class:`StepDiagnostics`."""

    def __init__(self) -> None:
        self._data: Dict[str, List[float]] = {c: [] for c in CHANNELS}

    def record(self, diag: StepDiagnostics) -> None:
        """Append one step's scalars to every channel."""
        d = self._data
        d["n_flow"].append(diag.n_flow)
        d["n_reservoir"].append(diag.n_reservoir)
        d["n_candidates"].append(diag.n_candidates)
        d["n_collisions"].append(diag.n_collisions)
        d["pairing_efficiency"].append(diag.pairing_efficiency)
        d["mean_collision_probability"].append(
            diag.mean_collision_probability
        )
        d["total_energy"].append(diag.total_energy)
        d["momentum_x"].append(diag.momentum_x)
        d["n_removed_downstream"].append(diag.boundary.n_removed_downstream)
        d["n_injected_upstream"].append(diag.boundary.n_injected_upstream)

    def __len__(self) -> int:
        return len(self._data["n_flow"])

    def series(self, channel: str) -> np.ndarray:
        """The recorded time series of one channel."""
        if channel not in self._data:
            raise ConfigurationError(
                f"unknown channel {channel!r}; have {sorted(self._data)}"
            )
        return np.asarray(self._data[channel], dtype=np.float64)

    def mass_balance_residual(self) -> float:
        """Net particle flux imbalance over the recorded window.

        (injected - removed - population change) / mean population:
        a closed-bookkeeping check that no particles are silently lost
        or duplicated by the boundary machinery.
        """
        if len(self) < 2:
            raise ConfigurationError("need at least 2 recorded steps")
        # n_flow[k] is the population *after* step k, so the window's
        # population change is driven by the fluxes of steps 1..end
        # (step 0's fluxes are already inside n_flow[0]).
        injected = self.series("n_injected_upstream")[1:].sum()
        removed = self.series("n_removed_downstream")[1:].sum()
        n = self.series("n_flow")
        change = n[-1] - n[0]
        return float((injected - removed - change) / max(n.mean(), 1.0))


def run_with_history(
    sim: Simulation,
    n_steps: int,
    sample: bool = False,
    detector: Optional[SteadyStateDetector] = None,
    monitor_channel: str = "n_flow",
    stop_when_steady: bool = False,
) -> RunHistory:
    """Run ``sim`` while recording history; optionally stop at steady state.

    With a detector and ``stop_when_steady=True``, the loop ends as soon
    as the monitored channel settles -- the automated version of the
    paper's hand-chosen "1200 time steps to reach steady state".
    """
    if n_steps <= 0:
        raise ConfigurationError("n_steps must be positive")
    history = RunHistory()
    for _ in range(n_steps):
        diag = sim.step(sample=sample)
        history.record(diag)
        if detector is not None:
            value = getattr(diag, monitor_channel, None)
            if value is None:
                raise ConfigurationError(
                    f"diagnostics have no channel {monitor_channel!r}"
                )
            if detector.update(float(value)) and stop_when_steady:
                break
    return history
