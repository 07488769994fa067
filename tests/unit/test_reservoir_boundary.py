"""Unit tests for the reservoir and the wind-tunnel boundaries."""

import numpy as np
import pytest

from repro.core.boundary import PlungerState, WindTunnelBoundaries
from repro.core.particles import COLUMN_NAMES, ParticleArrays
from repro.core.reservoir import Reservoir
from repro.core.surface import SURFACE_FIELDS, SurfaceSampler
from repro.errors import ConfigurationError
from repro.geometry.domain import Domain
from repro.geometry.wedge import Wedge
from repro.physics.distributions import excess_kurtosis, sample_rectangular
from repro.physics.freestream import Freestream
from repro.rng import random_permutation_table, shard_stream


@pytest.fixture
def fs():
    return Freestream(mach=4.0, c_mp=0.14, lambda_mfp=0.5, density=10.0)


class TestReservoir:
    def test_deposit_withdraw_counts(self, fs, rng):
        res = Reservoir(fs)
        res.deposit(rng, 100)
        assert res.size == 100
        out = res.withdraw(rng, 30)
        assert out.n == 30 and res.size == 70

    def test_deposit_velocities_rectangular_at_freestream(self, fs, rng):
        res = Reservoir(fs)
        res.deposit(rng, 50_000)
        p = res.particles
        assert p.u.mean() == pytest.approx(fs.speed, abs=0.01)
        assert p.u.var() == pytest.approx(fs.c_mp**2 / 2, rel=0.05)
        # Rectangular: strongly negative excess kurtosis.
        assert excess_kurtosis(p.u[:, None])[0] < -1.0

    def test_mix_relaxes_to_gaussian(self, fs, rng):
        # The paper's claim: "after a few time steps collisions with
        # other reservoir particles relaxes these to the correct
        # Gaussian distributions."
        res = Reservoir(fs)
        res.deposit(rng, 20_000)
        res.mix(rng, rounds=8)
        k = excess_kurtosis(
            np.column_stack((res.particles.u, res.particles.v, res.particles.w))
        )
        assert np.all(np.abs(k) < 0.15)

    def test_mix_conserves_energy_momentum(self, fs, rng):
        res = Reservoir(fs)
        res.deposit(rng, 5000)
        e0 = res.particles.total_energy()
        p0 = res.particles.momentum()
        res.mix(rng, rounds=5)
        assert res.particles.total_energy() == pytest.approx(e0, rel=1e-12)
        assert np.allclose(res.particles.momentum(), p0, atol=1e-9)

    def test_overdraw_tops_up(self, fs, rng):
        res = Reservoir(fs)
        res.deposit(rng, 10)
        out = res.withdraw(rng, 50)
        assert out.n == 50
        assert res.size == 0

    def test_mix_empty_reservoir(self, fs, rng):
        assert Reservoir(fs).mix(rng) == 0

    def test_negative_counts_rejected(self, fs, rng):
        res = Reservoir(fs)
        with pytest.raises(ConfigurationError):
            res.deposit(rng, -1)
        with pytest.raises(ConfigurationError):
            res.withdraw(rng, -1)


class TestDepositDraws:
    """A block's deposit is one stream call that reproduces the two
    :func:`sample_rectangular` calls and the
    :func:`random_permutation_table` call it replaced, bit for bit."""

    @staticmethod
    def _streams(kind, seed, n_blocks):
        streams = []
        for r in range(n_blocks):
            s = np.random.Generator(kind(seed * 7 + r))
            if r % 2:
                # A pending uint32 half-word: doubles must skip it.
                s.integers(0, 1 << 32, dtype=np.uint32)
            streams.append(s)
        return streams

    @pytest.mark.parametrize("kind", [np.random.Philox, np.random.PCG64])
    @pytest.mark.parametrize("rdof", [0, 2, 3])
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_the_reference_samplers(self, fs, kind, rdof, seed):
        counts = [0, 1, 37, 5][: 1 + seed % 4]
        res = Reservoir(fs, rotational_dof=rdof)
        res.particles = ParticleArrays.from_blocks(
            [ParticleArrays.empty(rdof) for _ in counts]
        ).enable_scratch()
        streams = self._streams(kind, seed, len(counts))
        res.deposit(streams, counts)
        twins = self._streams(kind, seed, len(counts))
        drawn = [
            (
                sample_rectangular(s, k, fs.c_mp, drift=fs.drift_vector()),
                sample_rectangular(s, k, fs.c_mp, components=rdof),
                random_permutation_table(s, k, length=3 + rdof),
            )
            for s, k in zip(twins, counts)
        ]
        vel, rot, perm = (np.concatenate(d) for d in zip(*drawn))
        p = res.particles
        for c, name in enumerate(("u", "v", "w")):
            assert np.array_equal(getattr(p, name), vel[:, c]), name
        assert np.array_equal(p.rot, rot)
        assert np.array_equal(p.perm, perm)
        for s, twin in zip(streams, twins):
            assert s.integers(0, 1 << 32, 4, np.uint32).tolist() == (
                twin.integers(0, 1 << 32, 4, np.uint32).tolist()
            )


def _one_reservoir(tanks, scratch=True):
    """One reservoir whose blocks are copies of ``tanks``' populations."""
    joint = Reservoir(tanks[0].freestream)
    joint.particles = ParticleArrays.from_blocks([t.particles for t in tanks])
    if scratch:
        joint.particles.enable_scratch()
    return joint


def _assert_blocks_are_tanks(joint, tanks, what="reservoir"):
    """Every column of block ``b`` (placeholders included) is tank ``b``'s."""
    blocks = joint.particles.blocks()
    assert [b.n for b in blocks] == [t.size for t in tanks]
    for b, (block, tank) in enumerate(zip(blocks, tanks)):
        for name in COLUMN_NAMES:
            assert np.array_equal(
                getattr(block, name), getattr(tank.particles, name)
            ), f"block {b} {what} {name}"


class TestBlockedMix:
    """One reservoir of R blocks == R one-block reservoirs, bitwise.

    The loop of one-block calls is the oracle: every block shuffles and
    draws from its own stream, so sharing the reorder, the surgery and
    the collision call may change nothing -- no column, no stream
    position.  Blocks of sizes 0, 1, 2, odd and even side by side start
    at odd rows, where the pairs ``(s_b + 2j, s_b + 2j + 1)`` leave the
    population's even/odd grid.
    """

    @staticmethod
    def _tanks(fs, sizes):
        tanks = []
        for r, n in enumerate(sizes):
            res = Reservoir(fs)
            res.deposit(np.random.default_rng(50 + r), n)
            tanks.append(res)
        return tanks

    @staticmethod
    def _streams(n):
        return [shard_stream(1989, 0, 4, replica=r) for r in range(n)]

    @staticmethod
    def _assert_same_streams(got, want):
        for b, (g, w) in enumerate(zip(got, want)):
            np.testing.assert_equal(
                g.bit_generator.state, w.bit_generator.state, err_msg=f"{b}"
            )

    @pytest.mark.parametrize(
        "sizes",
        [(0, 1, 2, 7, 10), (10, 7, 2, 1, 0), (1, 0), (9,), (6, 6, 6)],
        ids=lambda s: "-".join(map(str, s)),
    )
    def test_peers_equal_separate_mixes(self, fs, sizes):
        tanks = self._tanks(fs, sizes)
        joint = _one_reservoir(tanks)
        streams_t, streams_a = self._streams(len(sizes)), self._streams(len(sizes))
        n_together = joint.mix(streams_t, rounds=2)
        n_apart = sum(
            res.mix(st, rounds=2) for res, st in zip(tanks, streams_a)
        )
        assert n_together == n_apart == 2 * sum(n // 2 for n in sizes)
        _assert_blocks_are_tanks(joint, tanks)
        self._assert_same_streams(streams_t, streams_a)

    @pytest.mark.parametrize(
        "sizes", [(0, 1, 2, 7, 10), (3, 0, 5)], ids=lambda s: "-".join(map(str, s))
    )
    @pytest.mark.parametrize("n", [0, 4], ids=["none", "four"])
    def test_deposit_and_withdraw_equal_separate_calls(self, fs, sizes, n):
        # Withdrawing four tops up every block holding fewer: the dry
        # ones mint the balance from their own stream first.
        tanks = self._tanks(fs, sizes)
        joint = _one_reservoir(tanks)
        streams_t, streams_a = self._streams(len(sizes)), self._streams(len(sizes))
        got = joint.withdraw(streams_t, n)
        want = [res.withdraw(st, n) for res, st in zip(tanks, streams_a)]
        assert got.starts.tolist() == [n * b for b in range(len(sizes) + 1)]
        for name in COLUMN_NAMES:
            assert np.array_equal(
                getattr(got, name),
                np.concatenate([getattr(w, name) for w in want]),
            ), f"withdrawn {name}"
        counts = [2 * r + 1 for r in range(len(sizes))]
        joint.deposit(streams_t, counts)
        for res, st, k in zip(tanks, streams_a, counts):
            res.deposit(st, k)
        _assert_blocks_are_tanks(joint, tanks)
        self._assert_same_streams(streams_t, streams_a)

    def test_mixing_changes_every_paired_reservoir(self, fs):
        # Guards the oracle above against comparing two no-ops.
        joint = _one_reservoir(self._tanks(fs, (8, 5)))
        before = [b.u.copy() for b in joint.particles.blocks()]
        joint.mix(self._streams(2))
        for block, u0 in zip(joint.particles.blocks(), before):
            assert not np.array_equal(np.sort(block.u), np.sort(u0))

    def test_one_stream_per_reservoir(self, fs):
        joint = _one_reservoir(self._tanks(fs, (4, 4, 4)))
        with pytest.raises(ConfigurationError, match="2 streams for 3"):
            joint.mix(self._streams(2))
        with pytest.raises(ConfigurationError, match="2 streams for 3"):
            joint.withdraw(self._streams(2), 1)
        with pytest.raises(ConfigurationError, match="2 counts for 3"):
            joint.deposit(self._streams(3), [1, 2])

    def test_peers_need_the_scratch_pool(self, fs):
        # A reservoir is built pooled.  One whose population was swapped
        # for a plain one still mixes (bitwise as pooled: the pool only
        # supplies buffers), but its surgery refuses, typed.
        tanks = self._tanks(fs, (4, 3))
        assert Reservoir(fs).particles.scratch is not None
        bare, pooled = _one_reservoir(tanks, scratch=False), _one_reservoir(tanks)
        bare.mix(self._streams(2), rounds=2)
        pooled.mix(self._streams(2), rounds=2)
        for name in COLUMN_NAMES:
            assert np.array_equal(
                getattr(bare.particles, name), getattr(pooled.particles, name)
            ), name
        for call in (
            lambda: bare.deposit(self._streams(2), [1, 1]),
            lambda: bare.withdraw(self._streams(2), 1),
        ):
            with pytest.raises(ConfigurationError, match="enable_scratch"):
                call()


class TestBlockedBoundaryPass:
    """``apply_rebuilding`` over R blocks == R one-block calls.

    The one-block call is the oracle: each block alone, with its own
    boundaries object at the same plunger phase, its own one-block
    reservoir, stream and surface sampler; the R-block call has one
    reservoir of R blocks.  Block 1 has no downstream exits and a nearly
    dry reservoir block (a refill mints the balance), block 2 is empty
    with an empty reservoir block.  Every wall model takes the same
    pass: the non-specular ones re-emit each block's floor and ceiling
    crossers from that block's stream.
    """

    DOMAIN = Domain(30, 20)
    WEDGE = Wedge(x_leading=8.0, base=10.0, angle_deg=30.0)
    FS = Freestream(mach=4.0, c_mp=0.14, lambda_mfp=0.5, density=2.0)

    def _boundaries(self, position, **kw):
        wb = WindTunnelBoundaries(
            self.DOMAIN, self.FS, wedge=self.WEDGE, plunger_trigger=2.0, **kw
        )
        wb.plunger.position = position
        return wb

    def _blocks(self, sizes):
        """Flow blocks straying past every boundary, and their reservoirs."""
        blocks, tanks = [], []
        for b, (n, n_tank) in enumerate(zip(sizes, (500, 3, 0))):
            rng = np.random.default_rng(40 + b)
            blk = ParticleArrays.from_freestream(
                rng, n, self.FS, (-0.4, 30.6), (-0.4, 20.4)
            )
            blk.z[:] = rng.random(n)
            if b == 1:
                np.minimum(blk.x, 29.0, out=blk.x)
            tank = Reservoir(self.FS)
            tank.deposit(rng, n_tank)
            blocks.append(blk)
            tanks.append(tank)
        return blocks, tanks

    @staticmethod
    def _pooled_copy(tank):
        copy = Reservoir(tank.freestream)
        copy.particles = tank.particles.copy().enable_scratch()
        return copy

    @staticmethod
    def _streams(n):
        return [shard_stream(7, 0, 12, replica=b) for b in range(n)]

    #: The wall-model settings of the parametrization (Maxwell half
    #: accommodated, so both of its branches run).
    WALLS = {
        "specular": {},
        "diffuse": {"wall_model": "diffuse"},
        "adiabatic": {"wall_model": "adiabatic"},
        "maxwell": {"wall_model": "maxwell", "accommodation": 0.5},
    }

    @pytest.mark.parametrize("walls", WALLS.values(), ids=WALLS.keys())
    @pytest.mark.parametrize("sizes", [(300,), (300, 200, 0)], ids=["R1", "R3"])
    @pytest.mark.parametrize("position", [0.3, 1.6], ids=["plain", "refill"])
    def test_blocks_equal_one_block_calls(self, sizes, position, walls):
        n_blocks = len(sizes)
        blocks, tanks = self._blocks(sizes)
        parts = ParticleArrays.from_blocks(blocks).enable_scratch()
        # Every non-empty block has floor and ceiling crossers.
        for blk in blocks[:2]:
            assert np.any(blk.y < 0.0) and np.any(blk.y > 20.0)
        joint_tank = _one_reservoir(tanks)
        joint_streams = self._streams(n_blocks)
        wb = self._boundaries(position, **walls)
        wb.surface_sampler = [SurfaceSampler(self.WEDGE) for _ in sizes]
        out, stats = wb.apply_rebuilding(parts, joint_tank, joint_streams)
        assert out is parts and parts.scratch is not None
        parts.validate()
        joint_tank.particles.validate()

        totals = dict.fromkeys(
            ("n_reflected_walls", "n_reflected_wedge", "n_removed_downstream",
             "n_injected_upstream", "n_clamped"), 0,
        )
        alone_tanks = []
        for b, (blk, tank, stream) in enumerate(
            zip(blocks, tanks, self._streams(n_blocks))
        ):
            alone = self._boundaries(position, **walls)
            alone.surface_sampler = SurfaceSampler(self.WEDGE)
            tank = self._pooled_copy(tank)
            alone_tanks.append(tank)
            blk, want = alone.apply_rebuilding(
                blk.enable_scratch(), tank, stream
            )
            for key in totals:
                totals[key] += getattr(want, key)
            assert want.plunger_reset == stats.plunger_reset == (position > 1)
            assert alone.plunger.position == wb.plunger.position
            rows = slice(*parts.starts[b : b + 2])
            for name in COLUMN_NAMES:
                assert np.array_equal(
                    getattr(parts, name)[rows], getattr(blk, name)
                ), f"block {b} flow {name}"
            for name in SURFACE_FIELDS:
                assert np.array_equal(
                    getattr(wb.surface_sampler[b], name),
                    getattr(alone.surface_sampler, name),
                ), f"block {b} surface {name}"
            np.testing.assert_equal(
                joint_streams[b].bit_generator.state,
                stream.bit_generator.state,
            )
        _assert_blocks_are_tanks(joint_tank, alone_tanks)
        assert {k: getattr(stats, k) for k in totals} == totals
        # The scenario does what its docstring says.
        assert stats.n_reflected_wedge and stats.n_removed_downstream
        if position > 1:
            refill = stats.n_injected_upstream // n_blocks
            assert refill > 3  # tank 1 minted the balance
            if n_blocks == 3:
                assert alone_tanks[1].size == alone_tanks[2].size == 0
                assert np.diff(parts.starts)[2] == refill

    def _three_blocks(self, **kw):
        blocks, tanks = self._blocks((20, 10, 5))
        parts = ParticleArrays.from_blocks(blocks)
        return self._boundaries(0.3, **kw), parts, tanks

    def test_one_reservoir_and_stream_per_block(self):
        wb, parts, tanks = self._three_blocks()
        parts.enable_scratch()
        tank = _one_reservoir(tanks)
        with pytest.raises(
            ConfigurationError, match="2 reservoir blocks and 3 streams"
        ):
            wb.apply_rebuilding(parts, _one_reservoir(tanks[:2]), self._streams(3))
        with pytest.raises(
            ConfigurationError, match="1 reservoir blocks and 3 streams"
        ):
            wb.apply_rebuilding(parts, None, self._streams(3))
        with pytest.raises(
            ConfigurationError, match="3 reservoir blocks and 1 streams"
        ):
            wb.apply_rebuilding(parts, tank, self._streams(1)[0])
        wb.surface_sampler = SurfaceSampler(self.WEDGE)
        with pytest.raises(ConfigurationError, match="1 surface samplers for 3"):
            wb.apply_rebuilding(parts, tank, self._streams(3))

    def test_needs_a_scratch_enabled_population(self):
        wb, parts, tanks = self._three_blocks(wall_model="diffuse")
        for pop, tank, streams in (
            (parts, _one_reservoir(tanks), self._streams(3)),
            (parts.blocks()[0], tanks[0], self._streams(1)[0]),
        ):
            with pytest.raises(ConfigurationError, match="scratch-enabled"):
                wb.apply_rebuilding(pop, tank, streams)


class TestPlungerState:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PlungerState(position=0.0, trigger=0.0, speed=0.1)
        with pytest.raises(ConfigurationError):
            PlungerState(position=0.0, trigger=1.0, speed=0.0)
        with pytest.raises(ConfigurationError):
            PlungerState(position=2.0, trigger=1.0, speed=0.1)


class TestBoundaries:
    def make_pop(self, rng, fs, n=200, domain=None):
        domain = domain or Domain(30, 20)
        return ParticleArrays.from_freestream(
            rng, n, fs, (1, domain.width - 1), (1, domain.height - 1)
        ).enable_scratch()

    def test_floor_ceiling_reflection(self, fs, rng):
        d = Domain(30, 20)
        b = WindTunnelBoundaries(d, fs)
        pop = self.make_pop(rng, fs)
        pop.y[0] = -0.5
        pop.v[0] = -0.2
        pop.y[1] = 20.4
        pop.v[1] = 0.3
        pop, stats = b.apply_rebuilding(pop, None, rng)
        assert pop.y[0] == pytest.approx(0.5)
        assert pop.v[0] == pytest.approx(0.2)
        assert pop.y[1] == pytest.approx(19.6)
        assert pop.v[1] == pytest.approx(-0.3)
        assert stats.n_reflected_walls >= 2

    def test_downstream_removal_to_reservoir(self, fs, rng):
        d = Domain(30, 20)
        b = WindTunnelBoundaries(d, fs)
        res = Reservoir(fs)
        pop = self.make_pop(rng, fs)
        pop.x[:5] = 30.2
        n0 = pop.n
        pop, stats = b.apply_rebuilding(pop, res, rng)
        assert stats.n_removed_downstream == 5
        assert pop.n == n0 - 5
        assert res.size == 5

    def test_plunger_reflects_in_moving_frame(self, fs, rng):
        d = Domain(30, 20)
        b = WindTunnelBoundaries(d, fs, plunger_trigger=5.0)
        b.plunger.position = 2.0
        pop = self.make_pop(rng, fs)
        pop.x[0] = 1.5
        pop.u[0] = 0.0
        pop, stats = b.apply_rebuilding(pop, None, rng)
        assert pop.x[0] == pytest.approx(2.5)
        assert pop.u[0] == pytest.approx(2.0 * fs.speed)

    def test_plunger_advances_each_step(self, fs, rng):
        d = Domain(30, 20)
        b = WindTunnelBoundaries(d, fs, plunger_trigger=50.0)
        pop = self.make_pop(rng, fs)
        x0 = b.plunger.position
        pop, _ = b.apply_rebuilding(pop, None, rng)
        assert b.plunger.position == pytest.approx(x0 + fs.speed)

    def test_plunger_withdraw_and_refill(self, fs, rng):
        d = Domain(30, 20)
        b = WindTunnelBoundaries(d, fs, plunger_trigger=1.0)
        b.plunger.position = 0.9
        res = Reservoir(fs)
        res.deposit(rng, 2000)
        pop = self.make_pop(rng, fs)
        n0 = pop.n
        pop, stats = b.apply_rebuilding(pop, res, rng)
        assert stats.plunger_reset
        assert b.plunger.position == 0.0
        # Refill count ~ density * void area.
        void = (0.9 + fs.speed) * d.height
        assert stats.n_injected_upstream == pytest.approx(
            fs.density * void, rel=0.01
        )
        assert pop.n == n0 + stats.n_injected_upstream
        # Injected particles occupy the void.
        injected = pop.x[n0:]
        assert injected.max() <= 0.9 + fs.speed + 1e-9

    def test_refill_without_reservoir_samples_fresh(self, fs, rng):
        d = Domain(30, 20)
        b = WindTunnelBoundaries(d, fs, plunger_trigger=1.0)
        b.plunger.position = 0.99
        pop = self.make_pop(rng, fs)
        pop, stats = b.apply_rebuilding(pop, None, rng)
        assert stats.n_injected_upstream > 0

    def test_wedge_reflection_counted(self, fs, rng):
        d = Domain(30, 20)
        w = Wedge(x_leading=8, base=10, angle_deg=30)
        b = WindTunnelBoundaries(d, fs, wedge=w)
        pop = self.make_pop(rng, fs)
        pop.x[0], pop.y[0] = 12.0, 0.5  # inside the wedge
        pop.u[0], pop.v[0] = 0.3, -0.1
        pop, stats = b.apply_rebuilding(pop, None, rng)
        assert stats.n_reflected_wedge >= 1
        assert not w.inside(pop.x, pop.y).any()

    def test_no_particle_left_in_any_solid(self, fs, rng):
        # Stress: a blob of fast particles aimed at the wedge corner.
        d = Domain(30, 20)
        w = Wedge(x_leading=8, base=10, angle_deg=30)
        b = WindTunnelBoundaries(d, fs, wedge=w)
        pop = self.make_pop(rng, fs, n=2000)
        pop.x[:] = rng.uniform(7, 19, pop.n)
        pop.y[:] = rng.uniform(0, 7, pop.n)
        pop.u[:] = rng.normal(0.4, 0.3, pop.n)
        pop.v[:] = rng.normal(-0.3, 0.3, pop.n)
        pop, stats = b.apply_rebuilding(pop, None, rng)
        assert not w.inside(pop.x, pop.y).any()
        assert pop.y.min() >= 0.0
        assert pop.y.max() <= d.height
        # The clamp fallback should be rare.
        assert stats.n_clamped <= pop.n * 0.01

    def test_wedge_must_fit_domain(self, fs):
        with pytest.raises(Exception):
            WindTunnelBoundaries(
                Domain(20, 10), fs, wedge=Wedge(x_leading=15, base=10)
            )
