"""Committed state digests: "parent == change" as ``pytest -k digests``.

``tests/golden_digests.json`` pins :func:`repro.verify.state_digest`
after 60 steps (30 transient + 30 sampled, several plunger refills) of
one run per execution mode.  The other modes land on those rows: forked
shard workers, a supervised run recovered from a fault, stopped and
resumed, and each block of an ensemble row (its solo replica's digest).
A PR that means to change a realization regenerates exactly the rows it
names, on its own commit::

    PYTHONPATH=src python tests/integration/test_digests.py [case ...]

Bit streams and summation order are NumPy's, so the file records the
NumPy ``major.minor`` that wrote it and the test skips on any other.
"""

import json
import pathlib
import sys
from typing import Tuple

import numpy as np
import pytest

from repro.core.simulation import Simulation, SimulationConfig
from repro.core.sortstep import RESORT_PERIOD
from repro.ensemble.engine import EnsembleEngine, verify_replica_equality
from repro.geometry.domain import Domain
from repro.geometry.wedge import Wedge
from repro.parallel.backend import CTRL_FLUX, ShardedBackend
from repro.physics.freestream import Freestream
from repro.resilience import FaultPlan, FaultSpec, SupervisedRun
from repro.rng import shard_stream
from repro.scenarios.library import WEDGE3D
from repro.verify import state_digest

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "golden_digests.json"
NUMPY = ".".join(np.__version__.split(".")[:2])


def _wedge(density=6.0, **kw) -> SimulationConfig:
    return SimulationConfig(
        domain=Domain(49, 32),
        freestream=Freestream(
            mach=4.0, c_mp=0.14, lambda_mfp=0.5, density=density
        ),
        wedge=Wedge(x_leading=10.0, base=12.5, angle_deg=30.0),
        seed=1989,
        **kw,
    )


#: The non-specular wall models' settings (Maxwell half accommodated,
#: so both of its branches run).
WALLS = {
    "diffuse": {"wall_model": "diffuse"},
    "adiabatic": {"wall_model": "adiabatic"},
    "maxwell": {"wall_model": "maxwell", "accommodation": 0.5},
}


def _sharded_w2(**backend) -> Simulation:
    return Simulation(_wedge(), backend=ShardedBackend(2, **backend))


CASES = {
    "serial_incremental": lambda: Simulation(_wedge()),
    "serial_diffuse": lambda: Simulation(_wedge(**WALLS["diffuse"])),
    "serial_adiabatic": lambda: Simulation(_wedge(**WALLS["adiabatic"])),
    "serial_maxwell": lambda: Simulation(_wedge(**WALLS["maxwell"])),
    "serial_counting": lambda: Simulation(_wedge(sort_kernel="counting")),
    "sharded_w2_inline": lambda: _sharded_w2(processes=False),
    "wedge3d_slab": WEDGE3D.build_simulation,
    "ensemble_r3": lambda: EnsembleEngine(_wedge(4.0), n_replicas=3),
    "ensemble_r8_sparse": lambda: EnsembleEngine(_wedge(0.65), n_replicas=8),
    "ensemble_r3_diffuse": lambda: EnsembleEngine(
        _wedge(4.0, **WALLS["diffuse"]), n_replicas=3
    ),
    "ensemble_r3_maxwell": lambda: EnsembleEngine(
        _wedge(4.0, **WALLS["maxwell"]), n_replicas=3
    ),
}


#: Every case's schedule: 30 transient, then 30 sampled steps.
SCHEDULE = [(30, False), (30, True)]


def scheduled(engine):
    """``engine`` after :data:`SCHEDULE`."""
    for n_steps, sample in SCHEDULE:
        engine.run(n_steps, sample=sample)
    return engine


def run_case(name: str) -> str:
    with CASES[name]() as engine:
        return state_digest(scheduled(engine))


def run_supervised_resumed(name: str, run_dir) -> Tuple[str, int]:
    """The case under the supervisor -- an audit every step, a
    checkpoint every 7 -- stopped at step 24 (transient) and at step 40
    (sampling, after the step-35 checkpoint), and resumed from its run
    directory each time to the end of the schedule.  Returns the digest
    and the slab repartitions the resumed backends executed (0
    unsharded)."""
    with SupervisedRun(
        CASES[name](), run_dir, checkpoint_every=7, audit_every=1
    ) as run:
        run.run_schedule(SCHEDULE, max_steps=24)
    rebalances = 0
    for stop, steps in ((24, 16), (40, None)):
        with SupervisedRun.resume(run_dir) as run:
            assert run.sim.step_count == stop
            run.run_schedule(max_steps=steps)
            rebalances += getattr(run.sim.backend, "rebalance_count", 0)
            digest = state_digest(run.sim)
    return digest, rebalances


def _golden() -> dict:
    golden = json.loads(GOLDEN.read_text())
    if golden["numpy"] != NUMPY:
        pytest.skip(
            f"golden digests were written under NumPy {golden['numpy']}, "
            f"this is {NUMPY}"
        )
    return golden["digests"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_state_digest_matches_golden(name):
    assert run_case(name) == _golden()[name]


@pytest.mark.parametrize(
    "name", ["serial_incremental", "ensemble_r3", "sharded_w2_inline"]
)
def test_supervised_resume_matches_golden(name, tmp_path):
    # The same row, reached through audits, checkpoints and a restart.
    digest, rebalances = run_supervised_resumed(name, tmp_path)
    assert digest == _golden()[name]
    if name.startswith("sharded"):
        # The resumed run keeps balancing on the cadence (steps 30-60).
        assert rebalances >= 1


@pytest.mark.sharded
def test_forked_workers_land_on_the_inline_row():
    # One step body: fork + shared memory are pure transport.
    with _sharded_w2(processes=True) as forked:
        assert state_digest(scheduled(forked)) == _golden()[
            "sharded_w2_inline"
        ]


#: A worker fault inside the sampled window, after the step-35
#: checkpoint and before the step-40 rebalance.
FAULT_STEP = 37


def test_recovered_stopped_and_resumed_lands_on_the_row(tmp_path):
    plan = FaultPlan([FaultSpec("exception", step=FAULT_STEP, shard=1)])
    with SupervisedRun(
        _sharded_w2(processes=False, fault_plan=plan), tmp_path,
        checkpoint_every=7, audit_every=1, backoff_base=0.0,
        fault_plan=plan,
    ) as run:
        # The budget counts the two steps replayed from the step-35
        # checkpoint: 37 + 2 + 7 steps stop the run at step 44.
        run.run_schedule(SCHEDULE, max_steps=FAULT_STEP + 2 + 7)
        assert run.retries == 1
        (event,) = [e for e in run.journal.events if e["kind"] == "recovery"]
        assert (event["step"], event["restored_step"]) == (FAULT_STEP, 35)
        stopped = run.sim.step_count
    assert stopped == 44
    with SupervisedRun.resume(tmp_path) as run:
        assert run.sim.step_count == stopped
        run.run_schedule()
        assert run.sim.backend.rebalance_count >= 1
        assert state_digest(run.sim) == _golden()["sharded_w2_inline"]


@pytest.mark.parametrize(
    "name", sorted(n for n in CASES if n.startswith("ensemble_r3"))
)
def test_ensemble_row_blocks_are_its_solo_replicas(name):
    # Replica r of R = 3 is solo replica r -- the wall re-emissions
    # draw per crossing from each replica's own stream.
    ensemble = scheduled(CASES[name]())
    assert state_digest(ensemble) == _golden()[name]
    for r, rid in enumerate(ensemble.replica_ids):
        solo = EnsembleEngine(ensemble.config, replica_ids=[rid])
        assert state_digest(ensemble, block=r) == state_digest(
            scheduled(solo)
        )


@pytest.mark.parametrize("walls", ["adiabatic"])
def test_ensemble_under_wall_models_is_its_solo_replicas(walls):
    # The wall model with no ensemble row, at the rows' config and
    # schedule (diffuse and Maxwell: the ensemble_r3_<walls> rows).
    (transient, _), (average, _) = SCHEDULE
    verify_replica_equality(
        _wedge(4.0, **WALLS[walls]), n_replicas=3,
        transient=transient, average=average,
    )


def test_digest_sees_every_piece_of_state():
    # One flipped bit anywhere the digest claims to cover changes it.
    sim = Simulation(_wedge(2.0))
    sim.run(3, sample=True)
    seen = {state_digest(sim)}
    sim.particles.z[0] += 1.0
    seen.add(state_digest(sim))
    sim.reservoir.particles.u[0] += 1.0
    seen.add(state_digest(sim))
    sim.sampler._count[0] += 1.0
    seen.add(state_digest(sim))
    sim.surface._hits[0] += 1
    seen.add(state_digest(sim))
    sim.boundaries.plunger.position += 0.5
    seen.add(state_digest(sim))
    sim.step_count += 1
    seen.add(state_digest(sim))
    assert len(seen) == 7

    # A sharded run's exits in transit to shard 0's reservoir.
    with Simulation(
        _wedge(2.0), backend=ShardedBackend(2, processes=False)
    ) as sharded:
        sharded.run(3)
        before = state_digest(sharded)
        sharded.backend._ctrl[CTRL_FLUX] += 1
        assert state_digest(sharded) != before

    # A flip in one block moves that block's digest and no other's.
    eng = EnsembleEngine(_wedge(2.0), n_replicas=3)
    eng.run(3, sample=True)
    block_1 = [
        eng.particles.blocks()[1].u,
        eng.reservoir.particles.blocks()[1].u,
        eng.sampler._count[eng.config.domain.n_cells :],
        eng.surfaces[1]._hits,
    ]
    for array in block_1:
        before = [state_digest(eng, block=r) for r in range(3)]
        array[0] += 1
        after = [state_digest(eng, block=r) for r in range(3)]
        assert after[1] != before[1]
        assert (after[0], after[2]) == (before[0], before[2])


@pytest.mark.parametrize("density", [6.0, 0.65])
@pytest.mark.parametrize("rid", [0, 2])
def test_ensemble_is_the_simulation_with_keyed_streams(rid, density):
    """The one fork left between the two drivers is the stream source.

    ``Simulation`` with nothing swapped but :meth:`Simulation.streams`
    for the ensemble's keyed one lands on the same digest as a solo
    ``EnsembleEngine`` keyed for ``rid`` -- across the re-sorts at steps
    32 and 64, and at 0.65 per cell with its dry reservoir refills.
    """

    class Keyed(Simulation):
        def streams(self, step):
            return shard_stream(self.config.seed, 0, step, replica=rid)

    config = _wedge(density)
    digests = []
    for engine in (Keyed(config), EnsembleEngine(config, replica_ids=[rid])):
        engine.run(2 * RESORT_PERIOD - 24)
        engine.run(30, sample=True)
        digests.append(state_digest(engine))
    assert digests[0] == digests[1]


if __name__ == "__main__":
    names = sys.argv[1:] or sorted(CASES)
    golden = (
        json.loads(GOLDEN.read_text())
        if GOLDEN.exists()
        else {"numpy": NUMPY, "digests": {}}
    )
    if golden["numpy"] != NUMPY:
        raise SystemExit(f"golden file is NumPy {golden['numpy']}, not {NUMPY}")
    for case in names:
        golden["digests"][case] = run_case(case)
        print(case, golden["digests"][case])
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
