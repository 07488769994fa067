"""Integration tests of the domain-sharded execution backend.

The contract under test (ROADMAP: process-parallel stepping):

* Process workers and the in-process (inline) debug mode produce
  bitwise identical trajectories: the fork/shared-memory machinery is
  pure transport.
* A sharded run is reproducible run to run (the per-shard RNG streams
  are counter-based functions of ``(seed, shard, step)``, not shared
  mutable state).
* A sharded run checkpoints and restores bitwise (dynamics; the
  surface-load float accumulators are associativity-limited to ~1 ulp).
* All of it holds on a z-periodic slab (``Domain3D``) as on the 2-D
  tunnel: x-slab sharding never looks at the span.
* All of it holds across the indexed kernel's physical re-sorts (every
  ``RESORT_PERIOD`` steps): every worker takes the schedule from the
  step index the parent hands it, so the 70-step and checkpoint tests
  cross steps 32 and 64.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.particles import COLUMN_NAMES as PARTICLE_COLUMNS
from repro.core.sampling import SAMPLER_FIELDS
from repro.core.simulation import Simulation, SimulationConfig
from repro.core.sortstep import RESORT_PERIOD
from repro.geometry.domain import Domain
from repro.geometry.domain3d import Domain3D
from repro.geometry.wedge import Wedge
from repro.io.snapshots import load_simulation, save_simulation
from repro.parallel.backend import ShardedBackend
from repro.physics.freestream import Freestream

pytestmark = pytest.mark.sharded


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


def _assert_particles_equal(a, b, what: str) -> None:
    assert a.n == b.n, f"{what}: population sizes differ"
    for col in PARTICLE_COLUMNS:
        assert np.array_equal(getattr(a, col), getattr(b, col)), (
            f"{what}: column {col} not bitwise identical"
        )


def _assert_sims_equal(a: Simulation, b: Simulation, what: str) -> None:
    _assert_particles_equal(a.particles, b.particles, f"{what} flow")
    _assert_particles_equal(
        a.reservoir.particles, b.reservoir.particles, f"{what} reservoir"
    )
    assert a.step_count == b.step_count
    assert a.boundaries.plunger.position == b.boundaries.plunger.position


def _assert_samplers_equal(a: Simulation, b: Simulation) -> None:
    assert a.sampler.steps == b.sampler.steps
    for name in SAMPLER_FIELDS:
        assert np.array_equal(
            getattr(a.sampler, name), getattr(b.sampler, name)
        ), f"sampler accumulator {name} not bitwise identical"


class TestProcessInlineEquivalence:
    def test_process_workers_match_inline_across_two_resorts(self):
        with Simulation(
            _small_config(), backend=ShardedBackend(2, processes=True)
        ) as proc, Simulation(
            _small_config(), backend=ShardedBackend(2, processes=False)
        ) as inline:
            for sim in (proc, inline):
                sim.run(2 * RESORT_PERIOD)
                sim.run(6, sample=True)
                sim.gather()
            _assert_sims_equal(proc, inline, "process vs inline, 70 steps")
            assert proc.backend.pending_flux == inline.backend.pending_flux
            _assert_samplers_equal(proc, inline)

    def test_process_workers_match_inline(self):
        """Real fork+shared-memory workers vs the in-process mode."""
        proc = Simulation(
            _small_config(), backend=ShardedBackend(2, processes=True)
        )
        inline = Simulation(
            _small_config(), backend=ShardedBackend(2, processes=False)
        )
        try:
            proc.run(4)
            inline.run(4)
            proc.run(3, sample=True)
            inline.run(3, sample=True)
            proc.gather()
            inline.gather()
            _assert_sims_equal(proc, inline, "process vs inline")
            assert proc.backend.pending_flux == inline.backend.pending_flux
            assert np.array_equal(proc.sampler._count, inline.sampler._count)
            assert np.array_equal(proc.sampler._mu, inline.sampler._mu)
        finally:
            proc.close()
            inline.close()

    def test_slab_process_workers_match_inline(self):
        with Simulation(
            _small_config(nz=2), backend=ShardedBackend(2, processes=True)
        ) as proc, Simulation(
            _small_config(nz=2), backend=ShardedBackend(2, processes=False)
        ) as inline:
            for sim in (proc, inline):
                sim.run(8)
                sim.run(4, sample=True)
                sim.gather()
            assert proc.particles.z.any()
            _assert_sims_equal(proc, inline, "slab process vs inline")
            assert proc.backend.pending_flux == inline.backend.pending_flux
            _assert_samplers_equal(proc, inline)


class TestReproducibility:
    def test_four_workers_run_to_run_bitwise(self):
        runs = []
        for _ in range(2):
            sim = Simulation(
                _small_config(), backend=ShardedBackend(4, processes=False)
            )
            try:
                sim.run(8, sample=True)
                sim.gather()
                runs.append(
                    {
                        c: getattr(sim.particles, c).copy()
                        for c in PARTICLE_COLUMNS
                    }
                )
            finally:
                sim.close()
        for col in PARTICLE_COLUMNS:
            assert np.array_equal(runs[0][col], runs[1][col]), col


class TestShardedProbes:
    def test_sampling_with_probes_is_refused(self):
        from repro.analysis.vdf import VDFProbe
        from repro.errors import ConfigurationError

        with Simulation(
            _small_config(), backend=ShardedBackend(2, processes=False)
        ) as sim:
            sim.probes.append(VDFProbe((2, 9), (2, 9)))
            sim.run(2)
            with pytest.raises(ConfigurationError, match="probes"):
                sim.step(sample=True)


class TestShardedSnapshots:
    def test_save_restore_continues_bitwise(self, tmp_path):
        path = tmp_path / "sharded.npz"

        reference = Simulation(
            _small_config(), backend=ShardedBackend(2, processes=False)
        )
        saved = Simulation(
            _small_config(), backend=ShardedBackend(2, processes=False)
        )
        try:
            # Checkpoint between two re-sorts, one on each side.
            reference.run(RESORT_PERIOD + 5)
            saved.run(RESORT_PERIOD + 5)
            save_simulation(saved, path)

            reference.run(RESORT_PERIOD + 4, sample=True)
            restored = load_simulation(path, processes=False)
            assert restored.backend.n_workers == 2
            try:
                restored.run(RESORT_PERIOD + 4, sample=True)
                reference.gather()
                restored.gather()
                _assert_sims_equal(reference, restored, "snapshot restore")
                assert np.array_equal(
                    reference.sampler._count, restored.sampler._count
                )
                if reference.surface is not None:
                    # Restart changes the association order of the
                    # impulse sums (saved partial + new vs one running
                    # sum); identical to 1 ulp, not bitwise.
                    assert np.allclose(
                        reference.surface._impulse_x,
                        restored.surface._impulse_x,
                        rtol=1e-12,
                        atol=0.0,
                    )
                    assert np.array_equal(
                        reference.surface._hits, restored.surface._hits
                    )
            finally:
                restored.close()
        finally:
            reference.close()
            saved.close()

    def test_restore_to_serial_engine(self, tmp_path):
        """``workers=1`` override detaches the sharded backend."""
        path = tmp_path / "sharded.npz"
        sim = Simulation(
            _small_config(), backend=ShardedBackend(2, processes=False)
        )
        try:
            sim.run(3)
            save_simulation(sim, path)
        finally:
            sim.close()
        restored = load_simulation(path, workers=1)
        assert restored.backend is None or not isinstance(
            restored.backend, ShardedBackend
        )
        restored.run(2)  # must step fine on the serial engine
        restored.close()


class TestNonSpecularWallsStayPooled:
    """A scratch-enabled population is rebuilt in its own buffers under
    every wall model: the full-array reflections used to hand back a
    bare ``select`` copy, which un-pooled every serial run and killed
    every shard worker in its first step."""

    @staticmethod
    def _sim(model, accommodation, backend=None) -> Simulation:
        return Simulation(
            SimulationConfig(
                domain=Domain(48, 24),
                freestream=Freestream(
                    mach=4.0, c_mp=0.14, lambda_mfp=0.5, density=6.0
                ),
                wedge=Wedge(x_leading=10.0, base=12.0, angle_deg=30.0),
                seed=3,
                wall_model=model,
                accommodation=accommodation,
            ),
            backend=backend,
        )

    @staticmethod
    def _total(sim) -> int:
        in_transit = getattr(sim.backend, "pending_flux", 0)
        return sim.particles.n + sim.reservoir.size + in_transit

    @staticmethod
    def _run(sim) -> None:
        sim.run(20)
        sim.run(20, sample=True)
        sim.gather()

    @staticmethod
    def _shards(sim) -> list:
        """The populations that are stepped (the shards', when sharded)."""
        workers = getattr(sim.backend, "_workers", None)
        return [w.particles for w in workers] if workers else [sim.particles]

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "inline-w2"])
    @pytest.mark.parametrize(
        "model, accommodation",
        [("diffuse", 1.0), ("adiabatic", 1.0), ("maxwell", 0.5)],
    )
    def test_pool_survives_forty_steps(self, model, accommodation, workers):
        backend = ShardedBackend(2, processes=False) if workers > 1 else None
        with self._sim(model, accommodation, backend) as sim:
            shards = self._shards(sim)
            assert len(shards) == workers
            pools = [parts.scratch for parts in shards]
            assert all(pool is not None for pool in pools)
            total = self._total(sim)
            self._run(sim)
            for was, parts, pool in zip(shards, self._shards(sim), pools):
                assert parts is was and parts.scratch is pool
                parts.validate()
            sim.particles.validate()
            assert self._total(sim) == total
            assert sim.sampler.steps == 20

    def test_forked_diffuse_run(self):
        with self._sim(
            "diffuse", 1.0, ShardedBackend(2, processes=True)
        ) as forked, self._sim(
            "diffuse", 1.0, ShardedBackend(2, processes=False)
        ) as inline:
            total = self._total(forked)
            self._run(forked)
            self._run(inline)
            forked.particles.validate()
            assert self._total(forked) == total
            _assert_sims_equal(forked, inline, "diffuse forked vs inline")
