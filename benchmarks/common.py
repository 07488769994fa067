"""Shared configuration for the benchmark suite.

Scale is controlled by ``REPRO_FULL`` (see ``conftest.py``): the default
runs the paper's 98 x 64 geometry at reduced particle density; the full
mode reproduces the paper's 512k-particle schedule.
"""

from __future__ import annotations

import os
import pathlib

from repro.core.simulation import Simulation, SimulationConfig
from repro.geometry.domain import Domain
from repro.geometry.wedge import Wedge
from repro.physics.freestream import Freestream

FULL = bool(int(os.environ.get("REPRO_FULL", "0")))

#: The validation geometry (the paper's, both scales).
DOMAIN = Domain(98, 64)
WEDGE = Wedge(x_leading=20.0, base=25.0, angle_deg=30.0)

# Density 40/cell keeps the wake populated enough for the figure-2
# wake-shock physics (at 12/cell the wake is numerically collisionless);
# the paper runs ~80/cell.
DENSITY = 80.0 if FULL else 40.0
TRANSIENT_STEPS = 1200 if FULL else 400
AVERAGE_STEPS = 2000 if FULL else 350

OUT_DIR = pathlib.Path(__file__).parent / "out"


def default_config(density: float = 40.0, seed: int = 1989) -> SimulationConfig:
    """The paper's Mach-4 wedge geometry at the benchmark density."""
    return SimulationConfig(
        domain=DOMAIN,
        freestream=Freestream(
            mach=4.0, c_mp=0.14, lambda_mfp=0.5, density=density
        ),
        wedge=WEDGE,
        seed=seed,
    )


def telemetry_metrics(tel) -> dict:
    """JSON-safe telemetry snapshot for embedding in BENCH_*.json files.

    Benchmarks that run with a :class:`repro.telemetry.hub.Telemetry`
    attached call this to record what the hub observed (metric values,
    span counts) next to their timing numbers, so a regression in the
    numbers and a regression in the instrumentation are diagnosed from
    the same artifact.
    """
    if tel is None:
        return {}
    snap = tel.snapshot()
    # Prometheus-style sample dicts are already JSON-safe; keep only
    # scalar-bearing entries to bound the artifact size.
    return {
        "metrics": snap.get("metrics", {}),
        "spans": snap.get("spans", 0),
        "spans_dropped": snap.get("spans_dropped", 0),
    }


def run_solution(lambda_mfp: float, seed: int = 1989) -> Simulation:
    """Run the Mach-4 wedge problem to a time-averaged solution."""
    cfg = SimulationConfig(
        domain=DOMAIN,
        freestream=Freestream(
            mach=4.0, c_mp=0.14, lambda_mfp=lambda_mfp, density=DENSITY
        ),
        wedge=WEDGE,
        seed=seed,
    )
    sim = Simulation(cfg)
    sim.run(TRANSIENT_STEPS)
    sim.run(AVERAGE_STEPS, sample=True)
    return sim
