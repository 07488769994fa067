"""TAB1 -- the paper's computational-time distribution table.

"The distribution of computational time within the algorithm is as
follows: 1) collisionless motion of particles (including boundary
conditions) -- 14%  2) sort -- 27%  3) selection of collision partners
-- 20%  4) collision of selected partners -- 39%."

The bench runs the CM engine on the wedge problem at the calibration
VP ratio and reports the measured phase fractions.  A second (slow)
bench puts the two host kernels side by side -- ``counting``
(paper-faithful randomized counting sort) and ``incremental`` (indexed
canonical order, rebuilt each step) -- and emits the measured per-step
moved fraction.
"""

import dataclasses
import statistics
import time

import pytest

from repro.analysis.report import ExperimentRecord
from repro.cm.machine import CM2
from repro.cm.timing import PHASES
from repro.constants import PAPER_PHASE_FRACTIONS
from repro.core.engine_cm import CMSimulation
from repro.core.simulation import Simulation
from repro.scenarios.library import WEDGE

MACHINE = CM2(n_processors=256)


def test_table_phase_breakdown(benchmark, emit):
    cfg = WEDGE.build_config(
        nx=49, ny=32, lambda_mfp=0.5, density=8.0, seed=17
    )
    sim = CMSimulation(cfg, machine=MACHINE)
    sim.run(10)

    def regenerate():
        return sim.phase_breakdown()

    pb = benchmark(regenerate)
    fractions = pb.fractions()

    rec = ExperimentRecord("TAB1", "computational-time distribution by phase")
    for phase in PHASES:
        rec.add(
            f"{phase} fraction",
            PAPER_PHASE_FRACTIONS[phase],
            fractions[phase],
            rel_tol=0.3,
        )
    emit(rec)
    assert rec.all_agree()


HOST_KERNELS = ("counting", "incremental")

#: Timed rounds per kernel; consecutive rounds swap which kernel runs
#: first, so a drift of the host's speed falls on both alike.
ROUNDS = 5


@pytest.mark.slow
def test_table_host_kernel_breakdown(emit):
    """Host-engine phase split for both kernels, side by side.

    The counting kernel physically re-sorts the population into a
    re-randomized order each step (the paper-faithful arrangement); the
    incremental kernel only rebuilds an index, so its ledger is the one
    where the sort fraction should collapse.  The emitted record also
    carries the measured moved fraction (about half the population
    changes cell per step, which is why no order is kept across steps).
    Each kernel is timed over :data:`ROUNDS` rounds of ``steps`` steps
    and compared by its median round.
    """
    # sort_kernel is a config field, not a spec setting.
    base = WEDGE.build_config(lambda_mfp=0.5, density=20.0, seed=17)
    steps = 20
    rec = ExperimentRecord(
        "TAB1-host", "host sort-kernel phase split + moved fraction"
    )
    sims = {
        kernel: Simulation(dataclasses.replace(base, sort_kernel=kernel))
        for kernel in HOST_KERNELS
    }
    for sim in sims.values():
        sim.run(5)
        sim.perf.reset()
    rounds = {kernel: [] for kernel in HOST_KERNELS}
    moved = {kernel: [] for kernel in HOST_KERNELS}
    for r in range(ROUNDS):
        for kernel in HOST_KERNELS[:: 1 if r % 2 == 0 else -1]:
            sim = sims[kernel]
            t0 = time.perf_counter()
            for _ in range(steps):
                diag = sim.step()
                if diag.sort_moved_fraction is not None:
                    moved[kernel].append(diag.sort_moved_fraction)
            rounds[kernel].append(time.perf_counter() - t0)
    wall = {kernel: statistics.median(t) for kernel, t in rounds.items()}
    for kernel, sim in sims.items():
        fractions = sim.perf.fractions()
        for phase in PHASES:
            rec.add(
                f"{kernel}: {phase} fraction",
                PAPER_PHASE_FRACTIONS[phase],
                fractions[phase],
                rel_tol=0.5,
                note="host kernel, informational",
            )
        if moved[kernel]:
            rec.add(
                f"{kernel}: moved fraction (mean)",
                None,
                sum(moved[kernel]) / len(moved[kernel]),
            )
    rec.add(
        "incremental speedup vs counting",
        None,
        wall["counting"] / wall["incremental"],
    )
    emit(rec)
    # The incremental kernel must actually beat the counting kernel.
    assert wall["incremental"] < wall["counting"], rounds
