"""EXT1 -- weak scaling: grow the machine with the problem.

Figure 7 holds the machine at 32k processors and grows the problem.
The complementary question a 1989 buyer would ask -- "if I double the
machine *and* the problem, does per-particle time hold?" -- is
answerable from the same calibrated cost structure: per-particle ALU
and volume terms are flat by construction, while the scan-tree and
router-setup terms grow like the hypercube dimension d = log2(P),
amortized over the VP ratio.

Method note: the calibration must be held fixed (anchored once, at the
paper's 32k machine) while the structural machine is swapped -- a
per-machine calibration would normalize every machine to 7.2 µs and
erase exactly the effect under study.  Two emulated machines
cross-check the model under the same shared calibration.
"""

import numpy as np

from repro.analysis.report import ExperimentRecord
from repro.cm.machine import CM2
from repro.cm.timing import CM2TimingModel
from repro.constants import PAPER_CM2_PROCESSORS, PAPER_CM2_US_PER_PARTICLE
from repro.core.engine_cm import CMSimulation
from repro.core.simulation import SimulationConfig
from repro.geometry.domain import Domain
from repro.physics.freestream import Freestream

#: Machine sizes (physical processors), all at VPR 16.
MACHINES = tuple(2**k for k in (10, 12, 14, 15, 16))
VPR = 16

#: One calibration for everything: the paper's machine.
TM = CM2TimingModel(machine=CM2(n_processors=PAPER_CM2_PROCESSORS))


def _measured_point(n_procs: int) -> float:
    machine = CM2(n_processors=n_procs)
    n_target = n_procs * VPR
    ny = max(int(np.sqrt(n_target / 16.0)), 6)
    cfg = SimulationConfig(
        domain=Domain(2 * ny, ny),
        freestream=Freestream(
            mach=4.0, c_mp=0.14, lambda_mfp=0.5,
            density=n_target / (2 * ny * ny),
        ),
        wedge=None,
        seed=71,
    )
    sim = CMSimulation(cfg, machine=machine)
    sim.run(5)
    # Shared calibration: convert this machine's ledger with TM.
    return TM.per_particle_us(sim.ledger, n_flow_particles=sim.particles.n).total


def _step_time_us(n_procs: int) -> float:
    """Model wall time of ONE step at VPR 16 on a P-processor machine.

    Per-particle time trivially falls as 1/P (more particles served per
    step); the weak-scaling question is about the *step wall time*,
    which should be flat apart from the log2(P) tree/setup terms.
    """
    n = n_procs * VPR
    pb = TM.predict_for_machine(CM2(n_processors=n_procs), n)
    return pb.total * n * TM.flow_fraction


def test_ext_weak_scaling(benchmark, emit):
    model = {p: _step_time_us(p) for p in MACHINES}
    base = model[MACHINES[0]]
    measured_small = _measured_point(64)
    measured_big = benchmark.pedantic(
        _measured_point, args=(1024,), rounds=1, iterations=1
    )

    rec = ExperimentRecord(
        "EXT1", "weak scaling at VPR 16 (step wall time, relative)"
    )
    for p in MACHINES:
        rec.add(
            f"model step time, {p // 1024}k processors (x 1k machine)",
            None,
            model[p] / base,
            note="growth = scan-tree + router-setup terms, ~log2(P)",
        )
    rec.add(
        "per-particle at the paper anchor (32k, us)",
        PAPER_CM2_US_PER_PARTICLE,
        TM.predict_for_machine(
            CM2(n_processors=32 * 1024), 32 * 1024 * VPR
        ).total,
        rel_tol=0.01,
    )
    # measured_* are per-particle; step time = per-particle x n, and
    # n scales with the machine, so the step-time ratio is the
    # per-particle ratio times the machine ratio.
    ratio_measured = (measured_big / measured_small) * (1024 / 64)
    rec.add(
        "measured step-time growth, 64 -> 1024 procs (x ideal)",
        None,
        ratio_measured,
        note="1.0 = perfect weak scaling; slight excess = d growth "
             "(hypercube dimension 6 -> 10)",
    )
    emit(rec)

    # Weak scaling is good: 64x more processors (and particles) costs
    # only a modest step-time increase from the log-depth collectives.
    vals = [model[p] for p in MACHINES]
    assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:])), (
        "step time grows (slowly) with machine size"
    )
    assert vals[-1] / vals[0] < 1.35
    assert 0.9 < ratio_measured < 1.4
