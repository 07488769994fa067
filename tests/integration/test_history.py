"""Run-history recording and the automated steady-state stop."""

import pytest

from repro.analysis.convergence import SteadyStateDetector
from repro.core.history import CHANNELS, RunHistory, run_with_history
from repro.core.simulation import Simulation
from repro.errors import ConfigurationError


class TestRunHistory:
    def test_records_every_step(self, small_config):
        sim = Simulation(small_config)
        h = run_with_history(sim, 25)
        assert len(h) == 25
        for c in CHANNELS:
            assert h.series(c).shape == (25,)

    def test_unknown_channel(self, small_config):
        sim = Simulation(small_config)
        h = run_with_history(sim, 3)
        with pytest.raises(ConfigurationError):
            h.series("temperature_of_the_cray")

    def test_mass_balance_closes(self, small_config):
        # injected - removed must equal the population change exactly
        # (particles are never silently created or destroyed).
        sim = Simulation(small_config)
        sim.run(10)
        n0 = sim.particles.n
        h = run_with_history(sim, 40)
        residual = h.mass_balance_residual()
        injected = h.series("n_injected_upstream").sum()
        removed = h.series("n_removed_downstream").sum()
        assert sim.particles.n == n0 + injected - removed
        assert residual == pytest.approx(0.0, abs=1e-12)

    def test_needs_steps_for_balance(self, small_config):
        with pytest.raises(ConfigurationError):
            RunHistory().mass_balance_residual()


class TestSteadyStop:
    def test_stops_early_when_steady(self, small_config):
        sim = Simulation(small_config)
        det = SteadyStateDetector(window=20, tolerance=0.01, patience=5)
        h = run_with_history(
            sim, 500, detector=det, stop_when_steady=True
        )
        assert det.steady_at is not None
        assert len(h) < 500  # stopped before the cap

    def test_bad_monitor_channel(self, small_config):
        sim = Simulation(small_config)
        det = SteadyStateDetector()
        with pytest.raises(ConfigurationError):
            run_with_history(
                sim, 5, detector=det, monitor_channel="nope",
                stop_when_steady=True,
            )

    def test_invalid_steps(self, small_config):
        sim = Simulation(small_config)
        with pytest.raises(ConfigurationError):
            run_with_history(sim, 0)
