"""Integration tests of the domain-sharded execution backend.

The contract under test (ROADMAP: process-parallel stepping):

* Process workers and the in-process (inline) debug mode produce
  bitwise identical trajectories: the fork/shared-memory machinery is
  pure transport (``tests/integration/test_digests.py`` holds forked
  W = 2 to the ``sharded_w2_inline`` row).
* A sharded run is reproducible run to run (the per-shard RNG streams
  are counter-based functions of ``(seed, shard, step)``, not shared
  mutable state).
* A sharded run checkpoints and restores bitwise.
* All of it holds on a z-periodic slab (``Domain3D``) as on the 2-D
  tunnel: x-slab sharding never looks at the span.
* All of it holds across the indexed kernel's physical re-sorts (every
  ``RESORT_PERIOD`` steps): every worker takes the schedule from the
  step index the parent hands it, so the 70-step and checkpoint tests
  cross steps 32 and 64.
"""

from __future__ import annotations

import pytest

from repro.core.simulation import Simulation, SimulationConfig
from repro.core.sortstep import RESORT_PERIOD
from repro.geometry.domain import Domain
from repro.geometry.domain3d import Domain3D
from repro.geometry.wedge import Wedge
from repro.io.snapshots import load_simulation, save_simulation
from repro.parallel.backend import ShardedBackend
from repro.physics.freestream import Freestream
from repro.verify import state_digest

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
            assert state_digest(proc) == state_digest(inline)

    def test_slab_process_workers_match_inline(self):
        with Simulation(
            _small_config(nz=2), backend=ShardedBackend(2, processes=True)
        ) as proc, Simulation(
            _small_config(nz=2), backend=ShardedBackend(2, processes=False)
        ) as inline:
            for sim in (proc, inline):
                sim.run(8)
                sim.run(4, sample=True)
            assert state_digest(proc) == state_digest(inline)
            assert proc.particles.z.any()


class TestReproducibility:
    def test_four_workers_run_to_run_bitwise(self):
        digests = []
        for _ in range(2):
            with Simulation(
                _small_config(), backend=ShardedBackend(4, processes=False)
            ) as sim:
                sim.run(8, sample=True)
                digests.append(state_digest(sim))
        assert digests[0] == digests[1]


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
                assert state_digest(restored) == state_digest(reference)
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
            assert state_digest(forked) == state_digest(inline)
