#!/usr/bin/env python
"""The 3-D extension: a z-periodic slab over the same wedge.

The paper's Future Work asks for a 3-D code.  The slab configuration
(wedge extruded as an infinite prism, periodic span) is the natural
first step because the 2-D solution is its exact reference: collapsing
the 3-D field along the span must reproduce figure 1's shock.  The slab
is not a separate engine: it is the same ``Simulation`` handed a
``Domain3D`` (so it shards, checkpoints and reports like any 2-D run).
This example runs both and prints the comparison.

Run:
    python examples/wedge3d.py
"""

import time

import numpy as np

from repro import Domain, Freestream, Simulation, SimulationConfig, Wedge
from repro.analysis.shock import fit_shock_angle, post_shock_plateau
from repro.geometry.domain3d import Domain3D

WEDGE = Wedge(x_leading=10.0, base=12.5, angle_deg=30.0)
NX, NY, NZ = 49, 32, 6
STEPS = (250, 250)


def main() -> None:
    # 3-D slab: density per unit cube; same areal density as the 2-D
    # reference (per-column particles match).
    density_3d = 2.5
    fs3 = Freestream(mach=4.0, c_mp=0.14, lambda_mfp=0.0, density=density_3d)
    cfg3 = SimulationConfig(
        domain=Domain3D(NX, NY, NZ), freestream=fs3, wedge=WEDGE, seed=11
    )
    sim3 = Simulation(cfg3)
    print(f"3-D slab: {sim3.particles.n} particles in {NX}x{NY}x{NZ} cells")
    t0 = time.time()
    sim3.run(STEPS[0])
    sim3.run(STEPS[1], sample=True)
    print(f"  done in {time.time() - t0:.0f} s")

    fs2 = Freestream(
        mach=4.0, c_mp=0.14, lambda_mfp=0.0, density=density_3d * NZ
    )
    cfg2 = SimulationConfig(
        domain=Domain(NX, NY), freestream=fs2, wedge=WEDGE, seed=11
    )
    sim2 = Simulation(cfg2)
    print(f"2-D reference: {sim2.particles.n} particles in {NX}x{NY} cells")
    t0 = time.time()
    sim2.run(STEPS[0])
    sim2.run(STEPS[1], sample=True)
    print(f"  done in {time.time() - t0:.0f} s")

    rho3 = sim3.density_ratio_field()   # span-collapsed
    rho2 = sim2.density_ratio_field()

    fit3 = fit_shock_angle(rho3, WEDGE)
    fit2 = fit_shock_angle(rho2, WEDGE)
    p3 = post_shock_plateau(rho3, WEDGE, fit3)
    p2 = post_shock_plateau(rho2, WEDGE, fit2)
    diff = np.abs(rho3 - rho2).mean()

    print("\nspan-collapsed 3-D vs 2-D reference:")
    print(f"  shock angle   : {fit3.angle_deg:6.2f} vs {fit2.angle_deg:6.2f} deg")
    print(f"  density ratio : {p3:6.2f} vs {p2:6.2f}")
    print(f"  mean |drho|   : {diff:6.3f}")
    print(
        "\nThe infinite-prism slab reproduces the 2-D solution -- the "
        "added dimension\nchanges the bookkeeping (3-D cells, z "
        "periodicity), not the physics."
    )


if __name__ == "__main__":
    main()
