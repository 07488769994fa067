"""Unit tests for the reservoir and the wind-tunnel boundaries."""

import numpy as np
import pytest

from repro.core.boundary import PlungerState, WindTunnelBoundaries
from repro.core.particles import COLUMN_NAMES, ParticleArrays
from repro.core.reservoir import Reservoir
from repro.errors import ConfigurationError
from repro.geometry.domain import Domain
from repro.geometry.wedge import Wedge
from repro.physics.distributions import excess_kurtosis
from repro.physics.freestream import Freestream
from repro.rng import shard_stream


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


class TestBlockedMix:
    """``mix(peers=...)`` == the R separate mixes it replaced, bitwise.

    The loop of one-reservoir calls is the oracle: every reservoir
    shuffles and draws from its own stream, so sharing the collision
    call may change nothing -- no column, no stream position.
    """

    @staticmethod
    def _tanks(fs, sizes):
        tanks = []
        for r, n in enumerate(sizes):
            res = Reservoir(fs)
            res.deposit(np.random.default_rng(50 + r), n)
            res.particles.enable_scratch()
            tanks.append(res)
        return tanks

    @staticmethod
    def _streams(n):
        return [shard_stream(1989, 0, 4, replica=r) for r in range(n)]

    @pytest.mark.parametrize(
        "sizes",
        [(0, 1, 2, 7, 10), (10, 7, 2, 1, 0), (1, 0), (9,), (6, 6, 6)],
        ids=lambda s: "-".join(map(str, s)),
    )
    def test_peers_equal_separate_mixes(self, fs, sizes):
        together, apart = self._tanks(fs, sizes), self._tanks(fs, sizes)
        streams_t, streams_a = self._streams(len(sizes)), self._streams(len(sizes))
        n_together = together[0].mix(streams_t, rounds=2, peers=together[1:])
        n_apart = sum(
            res.mix(st, rounds=2) for res, st in zip(apart, streams_a)
        )
        assert n_together == n_apart == 2 * sum(n // 2 for n in sizes)
        for r, (res_t, res_a) in enumerate(zip(together, apart)):
            assert res_t.size == sizes[r]
            for name in COLUMN_NAMES:
                assert np.array_equal(
                    getattr(res_t.particles, name),
                    getattr(res_a.particles, name),
                ), (r, name)
            assert streams_t[r].random() == streams_a[r].random(), r

    def test_mixing_changes_every_paired_reservoir(self, fs):
        # Guards the oracle above against comparing two no-ops.
        tanks = self._tanks(fs, (8, 5))
        before = [res.particles.u.copy() for res in tanks]
        tanks[0].mix(self._streams(2), peers=tanks[1:])
        for res, u0 in zip(tanks, before):
            assert not np.array_equal(np.sort(res.particles.u), np.sort(u0))

    def test_one_stream_per_reservoir(self, fs):
        tanks = self._tanks(fs, (4, 4, 4))
        with pytest.raises(ConfigurationError, match="2 streams for 3"):
            tanks[0].mix(self._streams(2), peers=tanks[1:])

    def test_peers_need_the_scratch_pool(self, fs):
        bare = Reservoir(fs)
        bare.deposit(np.random.default_rng(1), 4)
        pooled = self._tanks(fs, (4,))
        with pytest.raises(ConfigurationError, match="scratch"):
            bare.mix(self._streams(2), peers=pooled)
        with pytest.raises(ConfigurationError, match="scratch"):
            pooled[0].mix(self._streams(2), peers=[bare])


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
        )

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
