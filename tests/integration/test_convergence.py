"""Convergence machinery: steady-state detection and the 1/sqrt(N) law."""

import math

import numpy as np
import pytest

from repro.analysis.convergence import SteadyStateDetector
from repro.core.simulation import Simulation, SimulationConfig
from repro.errors import ConfigurationError
from repro.geometry.domain import Domain
from repro.physics.freestream import Freestream


class TestDetectorOnSyntheticSignals:
    def test_exponential_settling(self):
        det = SteadyStateDetector(window=20, tolerance=0.002, patience=5)
        steady_step = None
        for t in range(600):
            v = 1000.0 * (1.0 + 0.5 * math.exp(-t / 60.0))
            if det.update(v):
                steady_step = det.steady_at
                break
        assert steady_step is not None
        # Steady declared well after the decay scale but before the end.
        assert 150 < steady_step < 550

    def test_never_steady_on_ramp(self):
        det = SteadyStateDetector(window=20, tolerance=0.001, patience=5)
        for t in range(400):
            assert not det.update(1000.0 + 5.0 * t)
        assert det.steady_at is None

    def test_noise_does_not_fool_detector(self, rng):
        det = SteadyStateDetector(window=40, tolerance=0.01, patience=5)
        for t in range(300):
            det.update(1000.0 + rng.normal(0, 5.0))
        assert det.steady_at is not None

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SteadyStateDetector(window=1)
        with pytest.raises(ConfigurationError):
            SteadyStateDetector(tolerance=0.0)
        with pytest.raises(ConfigurationError):
            SteadyStateDetector(patience=0)


class TestDetectorOnRealRun:
    def test_tunnel_population_settles(self, small_config):
        sim = Simulation(small_config)
        det = SteadyStateDetector(window=30, tolerance=0.005, patience=5)
        for _ in range(250):
            d = sim.step()
            if det.update(d.n_flow):
                break
        assert det.steady_at is not None
        # The wedge tunnel fills for tens of steps before settling.
        assert det.steady_at > 60


def _patch_noise(rho: np.ndarray) -> float:
    """Relative RMS fluctuation of the freestream patch."""
    patch = rho[5:25, 5:15]
    return float(patch.std() / patch.mean())


class TestNoiseLaw:
    def test_measured_matches_expected_order(self):
        # Empty-tunnel freestream: measured patch noise within ~3x of
        # the Poisson prediction 1 / sqrt(N_ppc * steps) (decorrelation
        # inflates it somewhat).
        fs = Freestream(mach=4.0, c_mp=0.14, lambda_mfp=0.5, density=10.0)
        cfg = SimulationConfig(
            domain=Domain(30, 20), freestream=fs, wedge=None, seed=4
        )
        sim = Simulation(cfg)
        sim.run(40)
        steps = 60
        sim.run(steps, sample=True)
        measured = _patch_noise(sim.density_ratio_field())
        predicted = 1.0 / math.sqrt(10.0 * steps)
        assert measured < 5.0 * predicted
        assert measured > 0.3 * predicted

    def test_noise_falls_with_averaging(self):
        fs = Freestream(mach=4.0, c_mp=0.14, lambda_mfp=0.5, density=10.0)
        noises = {}
        for steps in (15, 240):
            cfg = SimulationConfig(
                domain=Domain(30, 20), freestream=fs, wedge=None, seed=4
            )
            sim = Simulation(cfg)
            sim.run(40)
            sim.run(steps, sample=True)
            noises[steps] = _patch_noise(sim.density_ratio_field())
        # 16x more averaging ~ 4x less noise (allow slack for
        # correlation between snapshots).
        assert noises[240] < noises[15] / 2.0
