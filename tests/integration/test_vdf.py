"""Velocity-distribution probes: kinetic structure of the shock front."""

import math

import numpy as np
import pytest

from repro.analysis.vdf import VDFProbe, maxwellian_reference
from repro.core.simulation import Simulation, SimulationConfig
from repro.errors import ConfigurationError
from repro.geometry.domain import Domain
from repro.geometry.wedge import Wedge
from repro.physics import theory
from repro.physics.freestream import Freestream

pytestmark = pytest.mark.slow


class TestProbeMechanics:
    def test_window_selection(self, rng):
        fs = Freestream(mach=4.0, c_mp=0.14, lambda_mfp=0.5, density=8.0)
        from repro.core.particles import ParticleArrays

        pop = ParticleArrays.from_freestream(rng, 1000, fs, (0, 10), (0, 10))
        probe = VDFProbe((2, 4), (3, 6))
        n = probe.sample(pop)
        expected = int(
            (
                (pop.x >= 2) & (pop.x < 4) & (pop.y >= 3) & (pop.y < 6)
            ).sum()
        )
        assert n == expected == probe.n_samples

    def test_sample_cap(self, rng):
        fs = Freestream(mach=4.0, c_mp=0.14, lambda_mfp=0.5, density=8.0)
        from repro.core.particles import ParticleArrays

        pop = ParticleArrays.from_freestream(rng, 500, fs, (0, 1), (0, 1))
        probe = VDFProbe((0, 1), (0, 1), max_samples=100)
        probe.sample(pop)
        assert probe.sample(pop) == 0  # capped

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            VDFProbe((0, 1), (0, 1), component="q")
        with pytest.raises(ConfigurationError):
            VDFProbe((1, 0), (0, 1))
        with pytest.raises(ConfigurationError):
            VDFProbe((0, 1), (0, 1)).values()

    def test_moments_of_known_gaussian(self, rng):
        probe = VDFProbe((0, 1), (0, 1))
        probe._chunks = [rng.normal(2.0, 0.5, size=200_000)]
        probe._count = 200_000
        m = probe.moments()
        assert m["mean"] == pytest.approx(2.0, abs=0.01)
        assert m["variance"] == pytest.approx(0.25, rel=0.02)
        assert abs(m["skewness"]) < 0.02
        assert abs(m["excess_kurtosis"]) < 0.05

    def test_reference_pdf_normalized(self):
        x = np.linspace(-2, 2, 4001)
        pdf = maxwellian_reference(0.3, 0.0, x)
        assert np.trapezoid(pdf, x) == pytest.approx(1.0, abs=1e-3)


class TestShockInteriorKinetics:
    #: Independent realizations pooled by the excess-variance test.
    SEEDS = tuple(range(33, 45))

    @staticmethod
    def _probed_run(seed):
        cfg = SimulationConfig(
            domain=Domain(49, 32),
            freestream=Freestream(
                mach=4.0, c_mp=0.14, lambda_mfp=1.5, density=14.0
            ),
            wedge=Wedge(x_leading=10.0, base=12.5, angle_deg=30.0),
            seed=seed,
        )
        sim = Simulation(cfg)
        sim.run(200)
        # Probes: freestream box; shock-front box at ~75% chord where
        # the (45 deg) front passes y ~ [9, 11] for x ~ [19, 21].  At
        # lambda = 1.5 the front is several cells thick, so a fixed box
        # on its upstream side samples the two-stream interior in every
        # realization (at lambda = 0.5 the front is ~1 cell thick and
        # realization-to-realization shock drift moves it in and out of
        # any fixed box, making the excess-variance statistic flaky).
        # The freestream box sits upstream of the leading edge: at
        # lambda = 1.5 hot front particles random-walk far enough that
        # boxes above the wedge pick up a percent-level variance tail.
        free = VDFProbe((2, 9), (20, 30), component="u")
        front = VDFProbe((18.0, 22.0), (10.5, 14.0), component="u")
        sim.probes = [free, front]
        sim.run(260, sample=True)
        return sim, free, front

    @pytest.fixture(scope="class")
    def probed_run(self):
        return self._probed_run(self.SEEDS[0])

    @pytest.fixture(scope="class")
    def front_probes(self, probed_run):
        """The shock-front probe of every seed's realization."""
        return [probed_run[2]] + [
            self._probed_run(seed)[2] for seed in self.SEEDS[1:]
        ]

    def test_freestream_probe_is_equilibrium(self, probed_run):
        sim, free, front = probed_run
        fs = sim.config.freestream
        m = free.moments()
        assert m["mean"] == pytest.approx(fs.speed, rel=0.03)
        assert m["variance"] == pytest.approx(fs.c_mp**2 / 2, rel=0.08)
        assert free.mixture_excess_variance(fs.c_mp**2 / 2) < 0.15

    def test_shock_interior_is_not_equilibrium(self, probed_run, front_probes):
        # The kinetic signature: the VDF inside the front carries MORE
        # variance than ANY local equilibrium could.  The hottest
        # equilibrium in the problem is the post-shock state, so
        # variance above eq_var_post proves a two-stream (kinetic)
        # mixture.  Interior collisions partially equilibrate the
        # front, so the excess is percent-level, and one realization
        # does not resolve it: the variance estimator's own noise at
        # ~1e5 samples is ~0.5%, but the front drifts against the fixed
        # box from realization to realization.  Seeds 33-44 measure
        # 0.026 0.038 0.052 0.060 0.039 0.072 0.056 0.060 0.039 0.067
        # 0.034 0.048 (mean 0.049, sd 0.014): a single seed sits little
        # more than one sigma above the 3% threshold and fails it about
        # one time in six.  Pooled over the twelve seeds the standard
        # error is 0.0041, and the mean clears the threshold by 4.7 of
        # them.
        sim = probed_run[0]
        fs = sim.config.freestream
        beta = theory.shock_angle(fs.mach, math.radians(30.0))
        mn = fs.mach * math.sin(beta)
        t_ratio = theory.normal_shock_temperature_ratio(mn)
        eq_var_post = (fs.c_mp**2 / 2) * t_ratio
        excess = [
            front.mixture_excess_variance(eq_var_post)
            for front in front_probes
        ]
        assert all(front.n_samples > 30_000 for front in front_probes)
        assert np.mean(excess) > 0.03

    def test_shock_interior_mean_between_states(self, probed_run):
        sim, free, front = probed_run
        fs = sim.config.freestream
        # Downstream u (normal to a 45 deg shock, flow turned 30 deg):
        # bulk x velocity behind the oblique shock.
        m2 = theory.post_oblique_shock_mach(fs.mach, math.radians(30.0))
        beta = theory.shock_angle(fs.mach, math.radians(30.0))
        t_ratio = theory.normal_shock_temperature_ratio(
            fs.mach * math.sin(beta)
        )
        a2 = fs.sound_speed * math.sqrt(t_ratio)
        u2x = m2 * a2 * math.cos(math.radians(30.0))
        mean = front.moments()["mean"]
        lo, hi = sorted((u2x, fs.speed))
        assert lo - 0.02 < mean < hi + 0.02
