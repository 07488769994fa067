"""Performance regression guards (generous bounds, CI-safe).

The hpc-parallel guides' core demand is that the hot paths stay
vectorized: a Python-level per-particle loop sneaking into motion,
selection or collision shows up as a 10-100x throughput cliff.  These
guards use deliberately loose thresholds (5-10x headroom over measured)
so they only fire on structural regressions, not on machine noise.

The hot-path engine adds two sharper guarantees worth guarding:

* the fused counting-sort kernel keeps the whole step O(N), so the
  per-particle time bound tightens from the old 3 us to 1.5 us;
* steady-state stepping performs **zero retained O(N) allocations**
  (every per-step temporary lives in the preallocated scratch pool),
  checked directly with tracemalloc;
* the indexed kernel's collisions gather from neighbouring addresses:
  between two physical re-sorts a colliding pair's rows stay a few
  per cent of the population apart -- a count, not a timing;
* the particle state is held once: a population's buffers, and each
  shard's shared segments, are one column set plus one spare per item
  shape -- counted in ``nbytes``, not read off the RSS.
"""

import cProfile
import dataclasses
import gc
import pstats
import time
import tracemalloc

import numpy as np
import pytest

import repro.core.selection as selection_mod
from repro.core.collision import (
    TILE,
    collide_adjacent_pairs,
    collide_rows_with_velocities,
)
from repro.core.particles import ParticleArrays
from repro.core.reservoir import Reservoir
from repro.core.simulation import Simulation, SimulationConfig
from repro.core.sortstep import RESORT_PERIOD
from repro.ensemble import EnsembleEngine
from repro.geometry.domain import Domain
from repro.geometry.wedge import Wedge
from repro.parallel.backend import ShardedBackend
from repro.physics.freestream import Freestream
from repro.rng import shard_stream

pytestmark = pytest.mark.perf


def _wedge_config(density, seed):
    return SimulationConfig(
        domain=Domain(98, 64),
        freestream=Freestream(
            mach=4.0, c_mp=0.14, lambda_mfp=0.5, density=density
        ),
        wedge=Wedge(x_leading=20.0, base=25.0, angle_deg=30.0),
        seed=seed,
    )


class TestThroughput:
    def test_reference_engine_stays_vectorized(self):
        # The default (indexed) kernel measured ~0.10 us/particle/step
        # on a 2-vCPU x86 host, the counting kernel's packed-key sort
        # within a few per cent of it (0.12 with the shuffle it
        # replaced); 1.5 us is a 10x+ cushion that a per-particle
        # Python loop (30+ us) cannot hide under.
        sim = Simulation(_wedge_config(density=10.0, seed=1))
        sim.run(5)  # warm up
        n = sim.particles.n
        steps = 20
        t0 = time.perf_counter()
        sim.run(steps)
        per_particle_us = (time.perf_counter() - t0) / steps / n * 1e6
        assert per_particle_us < 1.5, (
            f"{per_particle_us:.2f} us/particle/step: a hot path has "
            "likely devectorized or fallen off the O(N) sort"
        )

    @pytest.mark.parametrize("kernel", ["counting", "incremental"])
    def test_stepping_retains_no_per_particle_memory(self, kernel):
        # The scratch-buffer contract: after the pool is warm, stepping
        # must not RETAIN any O(N) allocation (transient RNG draws are
        # fine; they are freed within the step).  One float64 column
        # here is ~8 * n bytes; the threshold is a small fraction of
        # one column, far below any leaked per-particle array.  Both
        # sort kernels must honor it: the incremental path's cached
        # order and the fused selection/collision scratch are sized
        # once and reused, never regrown per step.
        cfg = dataclasses.replace(
            _wedge_config(density=10.0, seed=1), sort_kernel=kernel
        )
        sim = Simulation(cfg)
        # Traced from before the warm-up, so an array that each step
        # replaces (the indexed kernel keeps its argsort result) counts
        # on both sides of the difference.
        tracemalloc.start()
        try:
            sim.run(10)  # past the start-up transient; pool fully grown
            gc.collect()
            base = tracemalloc.get_traced_memory()[0]
            sim.run(6)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        n = sim.particles.n
        assert n > 50_000  # the guard must be exercising real scale
        assert grown < n, (
            f"stepping retained {grown} bytes over 6 steps "
            f"(n={n}): an O(N) per-step allocation is being kept alive"
        )

    def test_warm_resort_step_retains_no_per_particle_memory(self):
        # The physical re-sort gathers each column into its item
        # shape's spare and swaps (the spares made resident by the
        # step-0 re-sort), and its identity order is the pooled arange:
        # crossing step 32 keeps nothing alive that the steps before it
        # did not.
        sim = Simulation(_wedge_config(density=10.0, seed=1))
        tracemalloc.start()
        try:
            sim.run(RESORT_PERIOD - 2)
            gc.collect()
            base = tracemalloc.get_traced_memory()[0]
            sim.run(4)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        n = sim.particles.n
        assert sim.step_count > RESORT_PERIOD and n > 50_000
        assert grown < n, (
            f"a warm re-sort step retained {grown} bytes (n={n})"
        )

    def test_sampling_allocates_per_cell_not_per_particle(self):
        # The moment kernel's squares and collapsed key live in the
        # scratch pool: a warm accumulate() allocates only bincount's
        # per-cell results, and sampled stepping retains nothing O(N).
        sim = Simulation(_wedge_config(density=10.0, seed=1))
        n_cells = sim.config.domain.n_cells
        tracemalloc.start()
        try:
            sim.run(10, sample=True)
            gc.collect()
            base = tracemalloc.get_traced_memory()[0]
            sim.run(6, sample=True)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - base
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            sim.sampler.accumulate(sim.particles)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        n = sim.particles.n
        assert n > 50_000
        assert grown < n, (
            f"sampled stepping retained {grown} bytes over 6 steps (n={n})"
        )
        # Two float64 per-cell arrays alive at once, with headroom; one
        # per-particle temporary would be 8 * n > 60 * n_cells bytes.
        assert peak < 4 * 8 * n_cells, (
            f"accumulate() peaked at {peak} bytes ({peak / n:.1f} per "
            "particle): a per-particle temporary has left the scratch pool"
        )

    def test_sampled_step_costs_little_more_than_an_unsampled_one(self):
        """Measurement is outside the paper's four phases, so it must
        stay a small tax on them: ~1.2x here with the pooled moment
        kernel, 1.3x+ with the allocating sum(axis=1) spelling.

        Sixteen pairs of 5-step blocks, the sampled block first in
        every other pair, so neither kind always runs on the other's warm cache.
        Thirty runs of this spelling on a shared 2-vCPU x86 host read
        medians of 1.16-1.27 (median 1.21, sd 0.023): 1.3 sits ~4 sd
        out, a false-fail chance near 1e-4 per run on a quiet host.
        The seven plain-then-sampled pairs it replaced read 1.13-1.26
        (sd 0.036) and once failed a full tier-1 run at 1.31.
        """
        sim = Simulation(_wedge_config(density=12.0, seed=1))
        sim.run(10, sample=True)  # warm both paths' pools

        def block(sample):
            t0 = time.perf_counter()
            sim.run(5, sample=sample)
            return time.perf_counter() - t0

        ratios = []
        for pair in range(16):
            first = bool(pair % 2)
            t_first = block(first)
            t_second = block(not first)
            sampled, plain = (t_first, t_second) if first else (
                t_second, t_first
            )
            ratios.append(sampled / plain)
        ratio = float(np.median(ratios))
        assert ratio <= 1.3, (
            f"a sampled step costs {ratio:.2f}x an unsampled one"
        )

    def test_collision_core_allocates_only_its_rng_draws(self):
        # The pooled collision core: inside one warm call every O(A)
        # temporary comes from the scratch pool, so the tracemalloc
        # peak is just the RNG draw, which has no out= -- one uint16
        # word per collision (2 bytes) -- under 8 bytes per collision.
        # The allocate-per-temporary kernel this replaced peaked near
        # 300, the untiled pooled core with its int8 signs and int64
        # transpositions near 30.
        m = 50_000
        fs = Freestream(mach=4.0, c_mp=0.14, lambda_mfp=0.5, density=10.0)
        rng = np.random.default_rng(3)
        parts = ParticleArrays.from_freestream(
            rng, 4 * m, fs, (0.0, 98.0), (0.0, 64.0)
        ).enable_scratch()
        rows = rng.permutation(parts.n)[: 2 * m]
        a, b = rows[:m].astype(np.intp), rows[m:].astype(np.intp)
        velocities = [
            col[r] for col in (parts.u, parts.v, parts.w) for r in (a, b)
        ]
        collide_rows_with_velocities(parts, a, b, *velocities, rng=rng)
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            collide_rows_with_velocities(parts, a, b, *velocities, rng=rng)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 8 * m, (
            f"{peak / m:.0f} bytes per collision allocated inside a warm "
            "collide_rows_with_velocities call: a temporary has left "
            "the scratch pool"
        )

    def test_collision_buffers_are_tile_sized(self):
        # The kernel works one TILE of pairs at a time, so its pooled
        # working blocks hold a tile, not all m pairs: that is what
        # keeps a tile's passes in L2, and what peak RSS saves.  A
        # 50 k-pair call pools exactly what a one-tile call pools.  (The
        # adjacent entry point's pair rows, adj_a / adj_b, are its
        # input, m-sized like the fused pass's own pair rows.)
        def pooled_bytes(m):
            fs = Freestream(mach=4.0, c_mp=0.14, lambda_mfp=0.5, density=10.0)
            rng = np.random.default_rng(3)
            parts = ParticleArrays.from_freestream(
                rng, 2 * m + 1, fs, (0.0, 98.0), (0.0, 64.0)
            ).enable_scratch()
            a, b = np.arange(0, 2 * m, 2), np.arange(1, 2 * m, 2)
            velocities = [
                col[r] for col in (parts.u, parts.v, parts.w) for r in (a, b)
            ]
            collide_rows_with_velocities(parts, a, b, *velocities, rng=rng)
            collide_adjacent_pairs(parts, np.arange(m), rng=rng)
            collide_adjacent_pairs(parts, rng=rng)
            return {
                name: buf.nbytes
                for name, buf in parts.scratch._arrays.items()
                if name.startswith("coll_")
            }

        assert TILE < 50_000
        tiled = pooled_bytes(50_000)
        assert set(tiled) == {"coll_f8", "coll_idx", "coll_rot", "coll_perm",
                              "coll_bits"}
        assert tiled == pooled_bytes(TILE)

    def test_seeding_is_fast(self):
        # Rejection seeding must not loop per particle either.
        cfg = SimulationConfig(
            domain=Domain(98, 64),
            freestream=Freestream(
                mach=4.0, c_mp=0.14, lambda_mfp=0.5, density=20.0
            ),
            wedge=Wedge(x_leading=20.0, base=25.0, angle_deg=30.0),
            seed=2,
        )
        t0 = time.perf_counter()
        sim = Simulation(cfg)
        assert time.perf_counter() - t0 < 5.0
        assert sim.particles.n > 100_000


#: Bytes of one row with two rotational dof (seven float64 values, the
#: int64 ``cell``, a 5-byte ``perm`` row) and of one spare row per item
#: shape (an 8-byte scalar, a ``rot`` row, a ``perm`` row).
ROW_BYTES, SPARE_ROW_BYTES = 77, 29


def _held_bytes(parts: ParticleArrays) -> int:
    """Bytes of every distinct array a population holds outside its
    scratch pool of step temporaries (a column and the buffer it views
    start at one address and count once)."""
    held = {}
    for name, value in vars(parts).items():
        if name in ("scratch", "starts"):
            continue
        for a in value.values() if isinstance(value, dict) else [value]:
            if isinstance(a, np.ndarray):
                addr = a.__array_interface__["data"][0]
                held[addr] = max(held.get(addr, 0), a.nbytes)
    return sum(held.values())


class TestStateIsHeldOnce:
    """No second copy of the particle state: a population holds its
    columns' buffers plus one spare per item shape (29 B a row beside
    77 with two rotational dof), and so does each shard's reservation."""

    def _assert_held_once(self, parts: ParticleArrays, held: int, cap: int):
        assert parts.rotational_dof == 2
        assert held <= cap * (ROW_BYTES + SPARE_ROW_BYTES), (
            f"{held} B held for {cap} rows of {ROW_BYTES} B: a second copy "
            "of the particle state is being kept"
        )

    def test_serial_population_and_reservoir(self):
        with Simulation(_wedge_config(density=2.0, seed=1)) as sim:
            sim.run(RESORT_PERIOD + 2)  # past two physical re-sorts
            for parts in (sim.particles, sim.reservoir.particles):
                assert parts.scratch_enabled
                self._assert_held_once(parts, _held_bytes(parts), parts.capacity)

    def test_each_shards_segments(self):
        with Simulation(
            _wedge_config(density=2.0, seed=1),
            backend=ShardedBackend(2, processes=False),
        ) as sim:
            sim.run(RESORT_PERIOD + 2)
            be = sim.backend
            for k, (pool, w) in enumerate(zip(be._pools, be._workers)):
                cap = int(be._shard_caps[k])
                reserved = sum(buf.nbytes for buf in pool)
                self._assert_held_once(w.particles, reserved, cap)
                self._assert_held_once(
                    w.particles, _held_bytes(w.particles), cap
                )


class TestCollisionsGatherFromNeighbouringAddresses:
    """Why the indexed kernel re-sorts physically every 32nd step.

    Every gather and scatter of a collision walks the two partners'
    rows.  In seeding order a same-cell pair is two uniform draws from
    the population -- median distance 1 - 1/sqrt(2) = 0.29 n, a cache
    miss per column per partner; after a physical re-sort the pair is
    adjacent, and it drifts apart only as fast as the gas mixes
    (measured on the run below: 0.0003 n on the re-sort step, 0.002 n
    one step later, 0.045 n after 31 -- 0.044-0.045 on five seeds --
    against 0.24-0.31 n for a population that is never re-sorted).
    """

    def test_partner_distance_stays_small_between_resorts(self, monkeypatch):
        spans = []
        collide = selection_mod.collide_rows_with_velocities

        def spy(parts, a_rows, b_rows, *args, **kwargs):
            spans.append(float(np.median(np.abs(a_rows - b_rows))) / parts.n)
            return collide(parts, a_rows, b_rows, *args, **kwargs)

        monkeypatch.setattr(
            selection_mod, "collide_rows_with_velocities", spy
        )
        sim = Simulation(
            SimulationConfig(
                domain=Domain(49, 32),
                freestream=Freestream(
                    mach=4.0, c_mp=0.14, lambda_mfp=0.5, density=12.0
                ),
                wedge=Wedge(x_leading=10.0, base=12.5, angle_deg=30.0),
                seed=1989,
            )
        )
        sim.run(RESORT_PERIOD + 1)
        assert spans[RESORT_PERIOD] < 1e-3  # the re-sort step: adjacent
        del spans[:]
        sim.run(RESORT_PERIOD - 1)  # steps 33 .. 63: no re-sort among them
        assert len(spans) == RESORT_PERIOD - 1
        assert max(spans) < 0.05, (
            f"colliding partners sit {max(spans):.3f} n apart (median, "
            "worst step): the population is no longer kept near cell "
            "order, and every collision gather is a cache miss again"
        )


class TestBlockedStepCostsPerParticle:
    """What a replica adds to the ensemble step, counted, not timed.

    At 0.65 particles per cell the step is dispatch-bound, so the
    number of Python-visible calls *is* its cost model.  Inside a
    blocked kernel only the draws are per block, and only pairable
    cells are visited; a per-replica loop creeping back into selection,
    collision or the reservoir mix shows up here as calls per replica.
    """

    @staticmethod
    def _profiled_steps(n_replicas, steps=18):
        eng = EnsembleEngine(
            _wedge_config(density=0.65, seed=1), n_replicas=n_replicas
        )
        eng.run(9)  # one plunger cycle: pools warm
        profile = cProfile.Profile()
        profile.enable()
        eng.run(steps)  # two plunger cycles
        profile.disable()
        return pstats.Stats(profile)

    def test_calls_per_replica_per_step(self):
        # Deterministic for a seed.  308 with eight Reservoir.mix calls
        # and every per-cell pass over all R * n_cells composite cells;
        # 213-220 with one collision call for eight reservoirs over
        # pairable cells only; 142.7 with one reservoir of eight blocks
        # (one reorder, one surgery per deposit / withdrawal); 134.6
        # before, 75.2 after the surgery went per particle (blocks slid
        # in place, one backfill copy per column, deposits drawn into
        # grown rows, replica streams re-keyed); 55.8 with a block's
        # deposit drawn in one stream call (velocities, rotation and
        # permutation keys mapped and argsorted over all blocks at
        # once).  What is left per replica: its stream's re-key, its
        # draws and the relayout's slides.
        stats = {r: self._profiled_steps(r) for r in (1, 8)}
        per_replica = (stats[8].total_calls - stats[1].total_calls) / 18 / 7
        assert per_replica <= 62, (
            f"{per_replica:.0f} calls per replica per step (budget 55.8 "
            "+ 10 %): per-block work beyond the draws is back in a "
            "blocked kernel"
        )
        # Building a Philox generator seeds a SeedSequence from OS
        # entropy before the key replaces it; re-keyed streams never do.
        entropy = [name for _, _, name in stats[8].stats if "urandom" in name]
        assert not entropy, f"a step read OS entropy: {entropy}"

    def test_warm_blocked_mix_retains_no_memory(self):
        # The shuffle order and the pair rows come from the reservoir's
        # scratch pool: once warm, mixing R blocks keeps nothing alive.
        fs = Freestream(mach=4.0, c_mp=0.14, lambda_mfp=0.5, density=0.65)
        tanks = []
        for r in range(8):
            res = Reservoir(fs)
            res.deposit(np.random.default_rng(r), 4000 + r)
            tanks.append(res.particles)
        tank = Reservoir(fs)
        tank.particles = ParticleArrays.from_blocks(tanks).enable_scratch()

        def mix(step):
            streams = [shard_stream(1, 0, step, replica=r) for r in range(8)]
            tank.mix(streams, rounds=2)

        mix(0)
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for step in range(1, 5):
                mix(step)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        # The reorder re-points the reservoir's five mixed column views
        # (array headers); one retained float64 column would be 256 kB.
        assert grown < 16_384, (
            f"a warm blocked mix retained {grown} bytes: a mix temporary "
            "has left the scratch pool"
        )
