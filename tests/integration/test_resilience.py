"""Integration tests of fault injection, auditing and supervised recovery.

The contract under test (ROADMAP: fault-tolerant execution):

* Every armed fault kind surfaces as its typed error with structured
  context -- never a bare ``RuntimeError``, never a silent wrong answer.
* ``ShardedBackend.close`` is idempotent and always reaps its worker
  processes, even after a crash or a wedged barrier.
* A supervised run with an injected mid-run fault recovers
  automatically and -- at the same worker count -- finishes **bitwise
  identical** to an unfailed run (the counter-based per-shard RNG
  streams make the replay exact).
* A supervised run directory is resumable from a different process.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.simulation import Simulation, SimulationConfig
from repro.core.sortstep import RESORT_PERIOD
from repro.errors import (
    CheckpointCorruptionError,
    ConfigurationError,
    ExchangeOverflowError,
    InvariantViolationError,
    RecoveryExhaustedError,
    WorkerCrashError,
    WorkerHangError,
)
from repro.geometry.domain import Domain
from repro.geometry.domain3d import Domain3D
from repro.geometry.wedge import Wedge
from repro.io.snapshots import load_simulation, save_simulation
from repro.parallel.backend import ShardedBackend
from repro.physics.freestream import Freestream
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    InvariantAuditor,
    RunJournal,
    SupervisedRun,
)
from repro.resilience.audit import CHECKS
from repro.verify import state_digest

pytestmark = pytest.mark.resilience


#: Short barrier timeout for tests that expect a death/hang detection.
FAST_TIMEOUT = 5.0


def _small_config(
    seed: int = 42, nx: int = 32, ny: int = 16, nz: int = 0
) -> SimulationConfig:
    """The small wedge tunnel; ``nz`` makes it a z-periodic slab."""
    return SimulationConfig(
        domain=Domain3D(nx, ny, nz) if nz else Domain(nx=nx, ny=ny),
        freestream=Freestream(mach=4.0, c_mp=0.14, lambda_mfp=0.5, density=10.0),
        wedge=Wedge(x_leading=8.0, base=9.0, angle_deg=30.0),
        seed=seed,
    )


def _inline_sim(seed=42, plan=None, workers=2, nz=0) -> Simulation:
    return Simulation(
        _small_config(seed, nz=nz),
        backend=ShardedBackend(workers, processes=False, fault_plan=plan),
    )


class TestFaultInjection:
    """Each fault kind fires deterministically as its typed error."""

    def test_inline_worker_exception(self):
        plan = FaultPlan([FaultSpec("exception", step=4, shard=1)])
        sim = _inline_sim(plan=plan)
        sim.run(4)
        with pytest.raises(WorkerCrashError, match="injected") as exc_info:
            sim.step()
        assert exc_info.value.context["shard"] == 1
        assert exc_info.value.context["step"] == 4
        sim.close()

    def test_inline_crash_raises_instead_of_exiting(self):
        # ``crash`` must never take down the host process in inline mode.
        plan = FaultPlan([FaultSpec("crash", step=2, shard=0)])
        sim = _inline_sim(plan=plan)
        with pytest.raises(WorkerCrashError, match="inline"):
            sim.run(5)
        sim.close()

    def test_overflow_forces_typed_error(self):
        plan = FaultPlan([FaultSpec("overflow", step=2, capacity=0)])
        sim = _inline_sim(plan=plan)
        with pytest.raises(ExchangeOverflowError) as exc_info:
            sim.run(10)
        ctx = exc_info.value.context
        assert ctx["injected"] is True
        assert ctx["migrants"] > ctx["capacity"] == 0
        assert "channel_capacity" in str(exc_info.value)
        sim.close()

    @pytest.mark.filterwarnings("ignore:invalid value encountered in cast")
    def test_corrupt_payload_is_caught_by_the_auditor(self):
        plan = FaultPlan([FaultSpec("corrupt", step=3)], seed=7)
        sim = _inline_sim(plan=plan)
        auditor = InvariantAuditor()
        auditor.rebase(sim)
        with pytest.raises(InvariantViolationError) as exc_info:
            for _ in range(10):
                auditor.observe(sim.step())
                auditor.audit(sim)
        assert exc_info.value.context["check"] in ("finite", "range")
        sim.close()

    def test_truncated_checkpoint_is_detected_on_load(self, tmp_path):
        plan = FaultPlan([FaultSpec("truncate", step=0)])
        sim = Simulation(_small_config())
        sim.run(3)
        path = tmp_path / "snap.npz"
        save_simulation(sim, path, fault_plan=plan)
        with pytest.raises(CheckpointCorruptionError) as exc_info:
            load_simulation(path)
        assert "path" in exc_info.value.context

    def test_unarmed_plan_changes_nothing(self):
        # A bound-but-empty plan must not perturb the trajectory.
        ref = _inline_sim(seed=3)
        ref.run(8)
        sim = _inline_sim(seed=3, plan=FaultPlan([]))
        sim.run(8)
        assert state_digest(sim) == state_digest(ref)
        ref.close()
        sim.close()


class TestAuditReport:
    """An audit report names the checks that ran, and only those."""

    @pytest.mark.parametrize(
        "mode, want",
        [
            ("counting", ("counts", "finite", "range", "cells", "energy")),
            (
                "incremental",
                ("counts", "finite", "range", "cells", "energy", "order"),
            ),
            pytest.param("forked", CHECKS, marks=pytest.mark.sharded),
        ],
        ids=["counting", "incremental", "forked"],
    )
    def test_report_names_the_checks_that_ran(self, mode, want):
        if mode == "forked":
            sim = Simulation(_small_config(), backend=ShardedBackend(2))
        else:
            sim = Simulation(
                dataclasses.replace(_small_config(), sort_kernel=mode)
            )
        try:
            auditor = InvariantAuditor()
            auditor.rebase(sim)
            for _ in range(3):
                auditor.observe(sim.step())
            assert auditor.audit(sim)["checks"] == want
        finally:
            sim.close()


@pytest.mark.sharded
class TestProcessFaults:
    """Worker-process death and hangs, detected at the barrier."""

    def test_worker_crash_is_detected(self):
        plan = FaultPlan([FaultSpec("crash", step=3, shard=0)])
        sim = Simulation(
            _small_config(),
            backend=ShardedBackend(
                2, barrier_timeout=FAST_TIMEOUT, fault_plan=plan
            ),
        )
        with pytest.raises(WorkerCrashError) as exc_info:
            sim.run(8)
        assert exc_info.value.context.get("dead") or (
            "shard" in exc_info.value.context
        )
        sim.close()  # second close after the emergency stop: no-op
        assert all(not p.is_alive() for p in sim.backend._procs)

    def test_worker_hang_times_out_as_typed_error(self):
        plan = FaultPlan([FaultSpec("hang", step=2, shard=1, seconds=60.0)])
        sim = Simulation(
            _small_config(),
            backend=ShardedBackend(2, barrier_timeout=2.0, fault_plan=plan),
        )
        with pytest.raises(WorkerHangError) as exc_info:
            sim.run(8)
        assert exc_info.value.context["timeout_s"] == 2.0
        sim.close()
        assert all(not p.is_alive() for p in sim.backend._procs)

    @pytest.mark.filterwarnings("ignore:invalid value encountered in cast")
    def test_forked_violation_is_recovered_bitwise(self, tmp_path):
        """A corrupt payload fails the receiving worker's own audit; the
        violation reaches the supervisor typed, and the replay lands
        where the unfailed run does."""
        ref = _inline_sim()
        ref.run(12)
        plan = FaultPlan([FaultSpec("corrupt", step=6)], seed=7)
        sim = Simulation(
            _small_config(), backend=ShardedBackend(2, fault_plan=plan)
        )
        with SupervisedRun(
            sim, tmp_path / "run", checkpoint_every=5, audit_every=1,
            backoff_base=0.0, fault_plan=plan,
        ) as run:
            run.run_schedule([(12, False)])
            (event,) = [
                e for e in run.journal.events if e["kind"] == "recovery"
            ]
            assert event["error"] == "InvariantViolationError"
            assert state_digest(run.sim) == state_digest(ref)
        ref.close()

    def test_close_is_idempotent_and_reaps(self):
        sim = Simulation(_small_config(), backend=ShardedBackend(2))
        sim.run(2)
        procs = list(sim.backend._procs)
        sim.close()
        sim.close()
        assert all(not p.is_alive() for p in procs)

    def test_simulation_is_a_context_manager(self):
        with Simulation(_small_config(), backend=ShardedBackend(2)) as sim:
            sim.run(2)
            procs = list(sim.backend._procs)
        assert all(not p.is_alive() for p in procs)


@pytest.mark.sharded
@pytest.mark.parametrize("processes", [False, True], ids=["inline", "forked"])
class TestShardFaultParity:
    """A shard's failure means one thing in both execution modes: the
    same exception, with the same step/shard context, from each shard's
    own copy of the fault plan."""

    @staticmethod
    def _failure(sim, steps, audit=False) -> BaseException:
        """The exception ``steps`` steps of ``sim`` raise (then closed)."""
        auditor = InvariantAuditor()
        auditor.rebase(sim)
        try:
            with pytest.raises(Exception) as exc_info:
                for _ in range(steps):
                    auditor.observe(sim.step())
                    if audit:
                        auditor.audit(sim)
        finally:
            sim.close()
        return exc_info.value

    @pytest.mark.parametrize(
        "spec, nx, audit, error, context",
        [
            pytest.param(
                FaultSpec("exception", step=4, shard=1), 32, False,
                WorkerCrashError, {"step": 4, "shard": 1, "injected": True},
                id="exception",
            ),
            pytest.param(
                FaultSpec("overflow", step=2, capacity=0), 40, False,
                ExchangeOverflowError,
                {"step": 2, "shard": 0, "direction": "right",
                 "capacity": 0, "injected": True},
                id="overflow",
            ),
            pytest.param(
                FaultSpec("corrupt", step=3), 32, True,
                InvariantViolationError,
                {"step": 4, "shard": 1, "check": "finite"},
                id="corrupt",
            ),
        ],
    )
    @pytest.mark.filterwarnings("ignore:invalid value encountered in cast")
    def test_fault_raises_its_own_error(
        self, processes, spec, nx, audit, error, context
    ):
        # A fresh spec per run: a plan marks its faults as they fire.
        plan = FaultPlan([dataclasses.replace(spec)], seed=7)
        sim = Simulation(
            _small_config(nx=nx),
            backend=ShardedBackend(2, processes=processes, fault_plan=plan),
        )
        exc = self._failure(sim, 10, audit=audit)
        assert type(exc) is error
        assert context.items() <= exc.context.items()
        if spec.kind == "overflow":
            assert exc.context["migrants"] > 0

    def test_slab_crossing_stops_the_supervisor(self, processes, tmp_path):
        """A worker's ``ConfigurationError`` is a wrong input: it stops a
        supervised run at once, with no recovery and no degraded run."""
        cfg = SimulationConfig(
            domain=Domain(nx=24, ny=8),
            freestream=Freestream(
                mach=8.0, c_mp=0.2, lambda_mfp=2.0, density=10.0
            ),
            wedge=None,
            seed=5,
        )
        sim = Simulation(cfg, backend=ShardedBackend(12, processes=processes))
        with SupervisedRun(
            sim, tmp_path / "run", checkpoint_every=5, backoff_base=0.0
        ) as run:
            with pytest.raises(
                ConfigurationError, match="shard 0: a particle crossed more"
            ):
                run.run_schedule([(30, False)])
            kinds = {e["kind"] for e in run.journal.events}
        assert not kinds & {"recovery", "degraded"}

    def test_any_shard_fault_fires_in_every_shard(self, processes):
        """Each shard fires its own copy; the first in shard order is
        raised, naming the other, and every run names the same shard."""
        for _ in range(3 if processes else 1):
            plan = FaultPlan([FaultSpec("exception", step=3)])
            sim = Simulation(
                _small_config(),
                backend=ShardedBackend(2, processes=processes, fault_plan=plan),
            )
            exc = self._failure(sim, 6)
            assert type(exc) is WorkerCrashError
            assert exc.context == {"step": 3, "shard": 0, "injected": True}
            also = [n for n in exc.__notes__ if "also failed" in n]
            assert len(also) == 1 and also[0].startswith("shard 1 ")


class TestSupervisedRecovery:
    """The supervisor restores, replays and finishes -- bitwise.

    The bitwise cases fault a few steps past the indexed kernel's
    physical re-sort at step ``RESORT_PERIOD``, so the checkpoint they
    restore (step 35) is not on the re-sort schedule, and finish past
    the next one (step 64): a replay must re-sort exactly where the
    unfailed run did.
    """

    N_STEPS = 2 * RESORT_PERIOD + 6
    TRANSIENT = RESORT_PERIOD + 8
    SCHEDULE = [(TRANSIENT, False), (N_STEPS - TRANSIENT, True)]

    def _reference(self, seed=42, nz=0) -> Simulation:
        ref = _inline_sim(seed=seed, nz=nz)
        # Same transient/sampling split the supervised run uses.
        for steps, sample in self.SCHEDULE:
            ref.run(steps, sample=sample)
        return ref

    @pytest.mark.parametrize(
        "spec,audit_every",
        [
            pytest.param(
                FaultSpec("exception", step=RESORT_PERIOD + 7, shard=1), 0,
                id="exception",
            ),
            pytest.param(
                FaultSpec("overflow", step=RESORT_PERIOD + 4, capacity=0), 0,
                id="overflow",
            ),
            pytest.param(
                FaultSpec("corrupt", step=RESORT_PERIOD + 4), 1, id="corrupt"
            ),
        ],
    )
    @pytest.mark.filterwarnings("ignore:invalid value encountered in cast")
    def test_recovery_is_bitwise_identical(self, tmp_path, spec, audit_every):
        ref = self._reference()
        plan = FaultPlan([spec], seed=5)
        run = SupervisedRun(
            _inline_sim(plan=plan),
            tmp_path / "run",
            checkpoint_every=5,
            audit_every=audit_every,
            max_retries=3,
            backoff_base=0.0,
            fault_plan=plan,
        )
        diag = run.run_schedule(self.SCHEDULE)
        assert run.retries == 1
        assert state_digest(run.sim) == state_digest(ref)
        assert diag is not None and diag.step == self.N_STEPS
        events = [e for e in run.journal.events if e["kind"] == "recovery"]
        assert len(events) == 1
        assert events[0]["restored_step"] <= events[0]["step"]
        assert events[0]["restored_step"] % RESORT_PERIOD
        run.close()
        ref.close()

    def test_slab_crash_resume_is_bitwise_identical(self, tmp_path):
        """A z-periodic slab under the supervisor: a worker fault is
        absorbed, the process then "dies", and the resumed run still
        ends bitwise where the unfailed one does (audits on)."""
        ref = self._reference(nz=2)
        fault_step = RESORT_PERIOD + 7
        plan = FaultPlan(
            [FaultSpec("exception", step=fault_step, shard=1)], seed=5
        )
        run = SupervisedRun(
            _inline_sim(plan=plan, nz=2),
            tmp_path / "run",
            checkpoint_every=5,
            audit_every=1,
            backoff_base=0.0,
            fault_plan=plan,
        )
        run.run_schedule(self.SCHEDULE, max_steps=fault_step + 5)
        # (Replayed steps count against the max_steps budget.)
        assert run.retries == 1
        assert fault_step < run.sim.step_count < 2 * RESORT_PERIOD
        run.close()  # simulate the process dying here

        resumed = SupervisedRun.resume(tmp_path / "run")
        resumed.run_schedule()
        assert state_digest(resumed.sim) == state_digest(ref)
        assert resumed.sim.particles.z.any()
        resumed.close()
        ref.close()

    def test_recovery_events_surface_in_diagnostics(self, tmp_path):
        plan = FaultPlan([FaultSpec("exception", step=7, shard=0)])
        run = SupervisedRun(
            _inline_sim(plan=plan),
            tmp_path / "run",
            checkpoint_every=5,
            audit_every=0,
            backoff_base=0.0,
            fault_plan=plan,
        )
        recovered = []
        for _ in range(10):
            diag = run.step()
            if diag.recovery:
                recovered.append(diag)
        assert len(recovered) == 1
        (event,) = recovered[0].recovery
        assert event.error == "WorkerCrashError"
        assert event.restored_step == 5
        run.close()

    def test_torn_checkpoint_falls_back_to_older(self, tmp_path):
        ref = self._reference(seed=11)
        plan = FaultPlan(
            [
                FaultSpec("truncate", step=RESORT_PERIOD + 8),
                FaultSpec("exception", step=RESORT_PERIOD + 10, shard=0),
            ]
        )
        run = SupervisedRun(
            _inline_sim(seed=11, plan=plan),
            tmp_path / "run",
            checkpoint_every=5,
            audit_every=0,
            backoff_base=0.0,
            fault_plan=plan,
        )
        run.run_schedule(self.SCHEDULE)
        kinds = [e["kind"] for e in run.journal.events]
        assert "checkpoint_corrupt" in kinds
        assert "recovery" in kinds
        assert state_digest(run.sim) == state_digest(ref)
        run.close()
        ref.close()

    def test_retries_exhaust_into_typed_error(self, tmp_path):
        plan = FaultPlan([FaultSpec("exception", step=3, shard=0)])
        run = SupervisedRun(
            _inline_sim(plan=plan),
            tmp_path / "run",
            checkpoint_every=5,
            audit_every=0,
            max_retries=0,
            backoff_base=0.0,
            fault_plan=plan,
        )
        with pytest.raises(RecoveryExhaustedError) as exc_info:
            run.run_schedule([(10, False)])
        assert exc_info.value.context["last_error"] == "WorkerCrashError"
        assert [e["kind"] for e in run.journal.events] == ["exhausted"]
        run.close()

    def test_degrades_to_serial_after_repeated_parallel_faults(self, tmp_path):
        plan = FaultPlan(
            [
                FaultSpec("exception", step=4, shard=0),
                FaultSpec("exception", step=8, shard=1),
            ]
        )
        run = SupervisedRun(
            _inline_sim(plan=plan),
            tmp_path / "run",
            checkpoint_every=3,
            audit_every=0,
            max_retries=4,
            backoff_base=0.0,
            fault_plan=plan,
        )
        run.run_schedule([(14, False)])
        assert run.sim.step_count == 14
        assert run.sim.backend.n_workers == 1  # degraded to serial
        assert any(e["kind"] == "degraded" for e in run.journal.events)
        run.close()

    def test_resume_continues_bitwise(self, tmp_path):
        ref = _inline_sim(seed=13)
        ref.run(self.N_STEPS)
        run = SupervisedRun(
            _inline_sim(seed=13),
            tmp_path / "run",
            checkpoint_every=5,
            audit_every=0,
            backoff_base=0.0,
        )
        run.run_schedule([(self.N_STEPS, False)], max_steps=RESORT_PERIOD + 6)
        assert run.sim.step_count == RESORT_PERIOD + 6
        run.close()  # simulate the process dying here

        resumed = SupervisedRun.resume(tmp_path / "run")
        resumed.run_schedule()
        assert resumed.sim.step_count == self.N_STEPS
        assert state_digest(resumed.sim) == state_digest(ref)
        assert any(
            e["kind"] == "resumed" for e in RunJournal.load(tmp_path / "run")
        )
        resumed.close()
        ref.close()

    def test_fresh_run_refuses_a_directory_holding_a_run(self, tmp_path):
        """The old run's newest checkpoints would outlive a fresh run's
        baseline in the prune, and its first recovery would restore
        them: a silent wrong answer, refused with a typed error."""
        run_dir = tmp_path / "run"
        with SupervisedRun(
            Simulation(_small_config(seed=1)), run_dir,
            checkpoint_every=10, audit_every=0,
        ) as run:
            run.run_schedule([(40, False)])
        kept = sorted(p.name for p in run_dir.glob("ckpt_*.npz"))
        assert kept[-1] == "ckpt_00000040.npz"
        with Simulation(_small_config(seed=2)) as sim:
            with pytest.raises(ConfigurationError, match="--resume.*--run-dir"):
                SupervisedRun(sim, run_dir)
            (run_dir / "run.json").unlink()  # checkpoints alone are a run
            with pytest.raises(ConfigurationError, match="--resume"):
                SupervisedRun(sim, run_dir)
        assert sorted(p.name for p in run_dir.glob("ckpt_*.npz")) == kept


@pytest.mark.sharded
class TestSupervisedProcessMode:
    """End-to-end recovery with real worker processes."""

    def test_hard_crash_recovers_bitwise(self, tmp_path):
        ref = Simulation(_small_config(seed=7), backend=ShardedBackend(2))
        ref.run(12)

        plan = FaultPlan([FaultSpec("crash", step=6, shard=0)])
        sim = Simulation(
            _small_config(seed=7),
            backend=ShardedBackend(
                2, barrier_timeout=FAST_TIMEOUT, fault_plan=plan
            ),
        )
        run = SupervisedRun(
            sim,
            tmp_path / "run",
            checkpoint_every=4,
            audit_every=4,
            max_retries=2,
            backoff_base=0.0,
            fault_plan=plan,
        )
        run.run_schedule([(12, False)])
        assert run.retries == 1
        assert state_digest(run.sim) == state_digest(ref)
        run.close()
        ref.close()
