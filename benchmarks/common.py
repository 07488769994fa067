"""Shared scale of the benchmark suite.

Every wedge-tunnel bench runs the registered ``wedge`` scenario
(:data:`repro.scenarios.library.WEDGE`) through
:func:`repro.scenarios.execute` or its builders, with the overrides
below.  Scale is controlled by ``REPRO_FULL`` (see ``conftest.py``):
the default runs the paper's 98 x 64 geometry at reduced particle
density; the full mode reproduces the paper's 512k-particle schedule.
"""

from __future__ import annotations

import os
import pathlib

FULL = bool(int(os.environ.get("REPRO_FULL", "0")))

# Density 40/cell keeps the wake populated enough for the figure-2
# wake-shock physics (at 12/cell the wake is numerically collisionless);
# the paper runs ~80/cell.
DENSITY = 80.0 if FULL else 40.0
TRANSIENT_STEPS = 1200 if FULL else 400
AVERAGE_STEPS = 2000 if FULL else 350

OUT_DIR = pathlib.Path(__file__).parent / "out"
