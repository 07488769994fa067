"""Analysis of simulation fields: the numbers the paper reads off figures.

* :mod:`~repro.analysis.fields` -- field extraction (wake and stagnation
  windows, profiles);
* :mod:`~repro.analysis.shock` -- shock angle, post-shock density ratio,
  shock thickness, Prandtl-Meyer expansion check, wake-shock detector;
* :mod:`~repro.analysis.contour` -- ASCII contour rendering and level
  crossings (the stand-in for the paper's plotting package);
* :mod:`~repro.analysis.report` -- paper-vs-measured experiment records
  and markdown table emission for EXPERIMENTS.md.
"""

from repro.analysis import (
    contour,
    convergence,
    fields,
    report,
    shock,
    thermo,
    vdf,
)

__all__ = [
    "contour",
    "convergence",
    "fields",
    "report",
    "shock",
    "thermo",
    "vdf",
]
