"""Thermodynamic-field validation: temperature and Mach structure."""

import math

import pytest

from repro.analysis import thermo
from repro.core.simulation import Simulation, SimulationConfig
from repro.geometry.domain import Domain
from repro.geometry.wedge import Wedge
from repro.physics import theory
from repro.physics.freestream import Freestream

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def wedge_run():
    cfg = SimulationConfig(
        domain=Domain(49, 32),
        freestream=Freestream(mach=4.0, c_mp=0.14, lambda_mfp=0.0, density=14.0),
        wedge=Wedge(x_leading=10.0, base=12.5, angle_deg=30.0),
        seed=5,
    )
    sim = Simulation(cfg)
    sim.run(220)
    sim.run(220, sample=True)
    return sim


class TestFreestreamThermo:
    def test_freestream_temperature_unity(self, wedge_run):
        t = thermo.temperature_ratio_field(
            wedge_run.sampler, wedge_run.config.freestream
        )
        # Far field above the shock: T/T_inf ~ 1.
        assert t[5:12, 24:30].mean() == pytest.approx(1.0, abs=0.1)

    def test_freestream_mach_recovered(self, wedge_run):
        m = thermo.mach_field(wedge_run.sampler, wedge_run.config.freestream)
        assert m[5:12, 24:30].mean() == pytest.approx(4.0, rel=0.05)


class TestShockLayerThermo:
    def test_temperature_jump_matches_rankine_hugoniot(self, wedge_run):
        beta = theory.shock_angle(4.0, math.radians(30.0))
        mn = 4.0 * math.sin(beta)
        expected = theory.normal_shock_temperature_ratio(mn)
        t = thermo.temperature_ratio_field(
            wedge_run.sampler, wedge_run.config.freestream
        )
        # Mid shock layer, where the Mach test samples it too.
        assert t[16:20, 5:8].mean() == pytest.approx(expected, rel=0.12)

    def test_post_shock_mach_subsonic_normal(self, wedge_run):
        # Downstream Mach (flow frame) behind the oblique shock ~ 1.7.
        m = thermo.mach_field(wedge_run.sampler, wedge_run.config.freestream)
        expected = theory.post_oblique_shock_mach(4.0, math.radians(30.0))
        # Sample mid shock layer.
        layer = m[16:20, 5:8]
        assert layer.mean() == pytest.approx(expected, rel=0.15)
