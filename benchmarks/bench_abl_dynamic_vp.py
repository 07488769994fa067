"""ABL5 -- Future Work: dynamic virtual-processor configuration.

"The newer software allows dynamic modification of the virtual
processor configuration, this can be used to speed up the computational
time spent to reach steady state."

Under C* 4.3 the VP set is sized once, for the *largest* population the
run will reach (the post-shock density build-up grows the flow by tens
of percent), so early steps burn idle VP slots.  The ablation runs the
same transient with the static and the dynamic policy and compares the
total raw machine cost.
"""

from repro.analysis.report import ExperimentRecord
from repro.cm.machine import CM2
from repro.core.engine_cm import CMSimulation
from repro.core.simulation import SimulationConfig
from repro.geometry.domain import Domain
from repro.geometry.wedge import Wedge
from repro.physics.freestream import Freestream

MACHINE = CM2(n_processors=64)
STEPS = 25


def _config():
    return SimulationConfig(
        domain=Domain(40, 26),
        freestream=Freestream(mach=4.0, c_mp=0.14, lambda_mfp=0.5, density=6.0),
        wedge=Wedge(x_leading=8.0, base=10.0, angle_deg=30.0),
        seed=31,
    )


def test_abl_dynamic_vp(benchmark, emit):
    static = CMSimulation(
        _config(), machine=MACHINE, dynamic_vp=False
    )
    static.run(STEPS)
    static_cost = static.ledger.total()

    def run_dynamic():
        sim = CMSimulation(_config(), machine=MACHINE, dynamic_vp=True)
        sim.run(STEPS)
        return sim

    dynamic = benchmark.pedantic(run_dynamic, rounds=1, iterations=1)
    dynamic_cost = dynamic.ledger.total()

    rec = ExperimentRecord("ABL5", "dynamic VP configuration (Future Work)")
    rec.add("transient raw cost, static VP set", None, static_cost)
    rec.add("transient raw cost, dynamic VP set", None, dynamic_cost)
    rec.add(
        "transient savings fraction",
        None,
        1.0 - dynamic_cost / static_cost,
        note="idle VP slots reclaimed during the build-up",
    )
    rec.add(
        "static VP capacity (particles)",
        None,
        float(static.vp_capacity),
        note="sized 1.3x the initial population",
    )
    rec.add(
        "final population (both engines)",
        None,
        float(dynamic.particles.n),
    )
    emit(rec)

    # Physics identical; accounting cheaper.
    assert dynamic_cost < static_cost
    assert dynamic.particles.n == static.particles.n
