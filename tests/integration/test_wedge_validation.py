"""The paper's validation experiment at reduced scale.

A half-size Mach 4 / 30-degree wedge run must reproduce the figure 1
checks: shock angle ~45 degrees, post-shock density ratio ~3.7, and the
rarefied run's thicker shock.  This is the slowest test in the suite
(~30 s); the benchmarks repeat it at larger scale with tighter
tolerances.
"""

import math

import pytest

from repro.analysis.shock import (
    fit_shock_angle,
    post_shock_plateau,
    shock_thickness,
)
from repro.core.simulation import Simulation, SimulationConfig
from repro.geometry.domain import Domain
from repro.geometry.wedge import Wedge
from repro.physics import theory
from repro.physics.freestream import Freestream


pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def continuum_run():
    cfg = SimulationConfig(
        domain=Domain(49, 32),
        freestream=Freestream(mach=4.0, c_mp=0.14, lambda_mfp=0.0, density=14.0),
        wedge=Wedge(x_leading=10.0, base=12.5, angle_deg=30.0),
        seed=2026,
    )
    sim = Simulation(cfg)
    sim.run(220)
    sim.run(200, sample=True)
    return sim


class TestFigure1Checks:
    def test_shock_angle_matches_theory(self, continuum_run):
        sim = continuum_run
        rho = sim.density_ratio_field()
        fit = fit_shock_angle(rho, sim.config.wedge)
        expected = theory.shock_angle_deg(4.0, 30.0)
        assert fit.angle_deg == pytest.approx(expected, abs=3.0)

    def test_density_ratio_matches_rankine_hugoniot(self, continuum_run):
        sim = continuum_run
        rho = sim.density_ratio_field()
        plateau = post_shock_plateau(rho, sim.config.wedge)
        expected = theory.oblique_shock_density_ratio(4.0, math.radians(30.0))
        assert plateau == pytest.approx(expected, rel=0.08)

    def test_freestream_undisturbed_above_shock(self, continuum_run):
        sim = continuum_run
        rho = sim.density_ratio_field()
        # Far field above the shock: still freestream.
        assert rho[5:15, 25:30].mean() == pytest.approx(1.0, abs=0.08)

    def test_shock_is_thin(self, continuum_run):
        sim = continuum_run
        rho = sim.density_ratio_field()
        t = shock_thickness(rho, sim.config.wedge)
        # Paper: ~3 cell widths (resolution-limited) near continuum.
        assert t < 4.5
