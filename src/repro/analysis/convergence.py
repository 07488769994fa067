"""Convergence utilities: steady-state detection.

The paper's run schedule -- "1200 time steps to reach steady state and
then time averaged for a further 2000 timesteps" -- encodes two
statistical facts about DSMC:

1. the transient must be *detected* (averaging too early biases the
   solution; averaging too late wastes the machine), and
2. the averaged fields' noise falls as ``1 / sqrt(samples per cell)``
   (samples = particles/cell x averaging steps), which fixes how long
   the averaging phase must be for a target accuracy.

:class:`SteadyStateDetector` implements the standard windowed-slope
criterion on any scalar monitor (flow population, total energy, a probe
density); the integration tests measure the 1/sqrt(N) law directly.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

import numpy as np

from repro.errors import ConfigurationError


class SteadyStateDetector:
    """Windowed steady-state detection on a scalar time series.

    Feed one monitor value per step; the run is declared steady when
    the relative drift of the windowed mean over one full window is
    below ``tolerance`` for ``patience`` consecutive steps.

    Parameters
    ----------
    window:
        Number of steps per averaging window (should exceed the
        monitor's correlation time; ~50 works for tunnel populations).
    tolerance:
        Relative change of the windowed mean over a window below which
        the signal counts as flat.
    patience:
        Consecutive flat verdicts required (guards against a monitor
        pausing at an inflection).
    """

    def __init__(
        self, window: int = 50, tolerance: float = 0.002, patience: int = 10
    ) -> None:
        if window < 2:
            raise ConfigurationError("window must be >= 2")
        if tolerance <= 0:
            raise ConfigurationError("tolerance must be positive")
        if patience < 1:
            raise ConfigurationError("patience must be >= 1")
        self.window = window
        self.tolerance = tolerance
        self.patience = patience
        self._values: Deque[float] = deque(maxlen=2 * window)
        self._flat_streak = 0
        self._steps = 0
        self.steady_at: Optional[int] = None

    def update(self, value: float) -> bool:
        """Record one monitor value; returns True once steady."""
        self._steps += 1
        self._values.append(float(value))
        if len(self._values) < 2 * self.window:
            return False
        vals = np.asarray(self._values)
        old = vals[: self.window].mean()
        new = vals[self.window :].mean()
        scale = max(abs(old), abs(new), 1e-300)
        drift = abs(new - old) / scale
        if drift < self.tolerance:
            self._flat_streak += 1
        else:
            self._flat_streak = 0
        if self._flat_streak >= self.patience and self.steady_at is None:
            self.steady_at = self._steps
        return self.steady_at is not None
