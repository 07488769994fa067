"""Input/output: simulation checkpoints and field dumps.

The paper's production runs take 3.5 hours on the CM-2 (1200 steps to
steady state + 2000 averaging); any practical reproduction needs to
checkpoint the particle state so the averaging phase can be re-run or
extended without repeating the transient.  :mod:`repro.io.snapshots`
provides exact save/restore of a simulation over one block or R --
serial, sharded or ensemble -- through one writer and one loader
(particles and reservoir blocks, plunger phase, random streams and
accumulated statistics).
"""

from repro.io.snapshots import load_simulation, save_simulation

__all__ = ["save_simulation", "load_simulation"]
