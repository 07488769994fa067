#!/usr/bin/env python
"""Figure 7: per-particle time vs problem size on the emulated CM-2.

Runs the fixed-point CM engine across virtual-processor ratios 1..16 on
a scaled machine, converts the measured cost ledger with the calibrated
timing model, and prints the figure-7 curve next to the structural
model's prediction for the paper's full 32k-processor machine.

Run:
    python examples/cm_timing_curve.py
"""

import numpy as np

from repro import CMSimulation, Domain, Freestream, SimulationConfig
from repro.cm.machine import CM2
from repro.cm.timing import CM2TimingModel
from repro.constants import PAPER_CM2_PROCESSORS

SCALED_PROCESSORS = 512
VP_RATIOS = (1, 2, 4, 8, 16)


def main() -> None:
    machine = CM2(n_processors=SCALED_PROCESSORS)
    tm = CM2TimingModel(machine=machine)
    tm_paper = CM2TimingModel(machine=CM2(n_processors=PAPER_CM2_PROCESSORS))

    print(f"emulated machine: {SCALED_PROCESSORS} physical processors")
    print(f"{'VPR':>4s} {'particles':>10s} {'measured us':>12s} "
          f"{'model us':>9s}   phase breakdown (measured)")
    for vpr in VP_RATIOS:
        n_target = SCALED_PROCESSORS * vpr
        ny = max(int(np.sqrt(n_target / 16.0)), 6)
        nx = 2 * ny
        cfg = SimulationConfig(
            domain=Domain(nx, ny),
            freestream=Freestream(
                mach=4.0, c_mp=0.14, lambda_mfp=0.5,
                density=n_target / (nx * ny),
            ),
            wedge=None,
            seed=7,
        )
        sim = CMSimulation(cfg, machine=machine)
        sim.run(6)
        pb = sim.phase_breakdown(tm)
        model = tm_paper.predict_curve([PAPER_CM2_PROCESSORS * vpr])[
            PAPER_CM2_PROCESSORS * vpr
        ]
        phases = "  ".join(
            f"{k}={v:4.2f}" for k, v in pb.us_per_particle.items()
        )
        print(
            f"{vpr:4d} {sim.particles.n:10d} {pb.total:12.2f} "
            f"{model.total:9.2f}   {phases}"
        )

    print(
        "\nThe paper's figure 7: ~10.5 us/particle/step at VPR 1 falling "
        "to 7.2 at VPR 16,\nwith the largest step from VPR 1 to 2 "
        "(collision pair traffic moves on-chip)."
    )


if __name__ == "__main__":
    main()
