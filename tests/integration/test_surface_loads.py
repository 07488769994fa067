"""Surface aerodynamics: wall pressure and drag validation."""

import math

import numpy as np
import pytest

from repro.core.simulation import Simulation, SimulationConfig
from repro.core.surface import (
    SurfaceSampler,
    oblique_shock_surface_pressure_ratio,
)
from repro.errors import ConfigurationError
from repro.geometry.domain import Domain
from repro.geometry.wedge import Wedge
from repro.physics.freestream import Freestream


pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def loaded_run():
    cfg = SimulationConfig(
        domain=Domain(49, 32),
        freestream=Freestream(mach=4.0, c_mp=0.14, lambda_mfp=0.0, density=14.0),
        wedge=Wedge(x_leading=10.0, base=12.5, angle_deg=30.0),
        seed=21,
    )
    sim = Simulation(cfg)
    sim.run(220)
    sim.run(250, sample=True)
    return sim


class TestSamplerMechanics:
    def test_strip_binning(self):
        w = Wedge(x_leading=10, base=10, angle_deg=30)
        s = SurfaceSampler(w, n_strips=5)
        # One hit mid-ramp (strip 2), one on the back face.
        s.record(
            x=np.array([15.1, 20.0]),
            du=np.array([0.0, 2.0]),
            dv=np.array([1.0, 0.0]),
            back_face=np.array([False, True]),
        )
        s.end_step()
        assert s._hits[2] == 1
        assert s._hits[5] == 1

    def test_requires_steps(self):
        s = SurfaceSampler(Wedge(), n_strips=4)
        with pytest.raises(ConfigurationError):
            s.drag()

    def test_strip_count_validated(self):
        with pytest.raises(ConfigurationError):
            SurfaceSampler(Wedge(), n_strips=0)


class TestWedgeLoads:
    def test_ramp_pressure_matches_oblique_shock(self, loaded_run):
        sim = loaded_run
        fs = sim.config.freestream
        p_inf = fs.density * fs.rt
        p_ratio_theory = oblique_shock_surface_pressure_ratio(
            fs.mach, sim.config.wedge.angle_deg, fs.gamma
        )
        pressures = sim.surface.ramp_pressure() / p_inf
        # Interior strips (leading-edge strip sees the forming shock).
        interior = pressures[2:-2]
        assert interior.mean() == pytest.approx(p_ratio_theory, rel=0.12)

    def test_pressure_roughly_uniform_along_ramp(self, loaded_run):
        p = loaded_run.surface.ramp_pressure()
        interior = p[2:-2]
        assert interior.std() / interior.mean() < 0.2

    def test_base_pressure_is_small(self, loaded_run):
        # The wake is nearly vacuum: base pressure << ramp pressure.
        sim = loaded_run
        base = sim.surface.back_face_pressure()
        ramp = sim.surface.ramp_pressure()[2:-2].mean()
        assert 0.0 <= base < 0.15 * ramp

    def test_drag_positive_and_dominated_by_ramp(self, loaded_run):
        sim = loaded_run
        fs = sim.config.freestream
        assert sim.surface.drag() > 0.0
        cd = sim.surface.drag_coefficient(fs)
        # Inviscid wedge pressure drag: Cd ~ Cp_ramp (ramp force x-proj
        # over frontal area) minus the small base-pressure credit.
        p_inf = fs.density * fs.rt
        p_ratio = oblique_shock_surface_pressure_ratio(
            fs.mach, sim.config.wedge.angle_deg, fs.gamma
        )
        q = 0.5 * fs.density * fs.speed**2
        cp_ramp = (p_ratio - 1.0) * p_inf / q
        # Ramp x-force = p2 * height (the ramp's frontal projection);
        # subtract freestream reference and the base credit bounds.
        assert cd == pytest.approx(cp_ramp + p_inf / q, rel=0.25)

    def test_pressure_coefficient_magnitude(self, loaded_run):
        sim = loaded_run
        fs = sim.config.freestream
        cp = (sim.surface.ramp_pressure() - fs.density * fs.rt) / (
            0.5 * fs.density * fs.speed**2
        )
        # Mach 4 / 30 deg: Cp ~ 0.73 on the ramp.
        assert cp[2:-2].mean() == pytest.approx(0.73, rel=0.15)


class TestStaticGasPressure:
    def test_floor_specular_flux_equals_static_pressure(self, rng):
        # Kinetic-theory anchor: the impulse flux of a resting
        # equilibrium gas on a specular wall is p = n R T.  Build the
        # equivalent measurement with the sampler on a synthetic
        # reflection stream.
        fs = Freestream(mach=4.0, c_mp=0.2, lambda_mfp=0.5, density=50.0)
        w = Wedge(x_leading=0.0, base=10.0, angle_deg=30.0)
        s = SurfaceSampler(w, n_strips=1)
        # Simulate a unit-area ramp patch for many steps: the number of
        # gas-side particles crossing per step with n density and
        # Maxwellian c_n: flux integral done by sampling.
        n_steps = 400
        sigma = fs.c_mp / np.sqrt(2.0)
        area = w.base / math.cos(w.angle)
        nx, ny = w.ramp_normal
        for _ in range(n_steps):
            # Particles within one step of the wall moving toward it
            # reflect: sample c_n < 0 population in a slab of depth
            # |c_n| (per unit area): count ~ n * |c_n|.
            c_n = rng.normal(0.0, sigma, size=int(fs.density * area * 4 * sigma))
            hitters = c_n < 0
            keep = rng.random(hitters.sum()) < (
                np.abs(c_n[hitters]) / (4 * sigma)
            )
            c_hit = c_n[hitters][keep]
            # Specular: c_n -> -c_n; velocity change 2|c_n| along +n.
            dvn = -2.0 * c_hit  # positive magnitudes
            s.record(
                x=np.full(c_hit.size, 5.0),
                du=dvn * nx,
                dv=dvn * ny,
                back_face=np.zeros(c_hit.size, dtype=bool),
            )
            s.end_step()
        p_measured = s.ramp_pressure()[0]
        p_theory = fs.density * fs.rt
        assert p_measured == pytest.approx(p_theory, rel=0.05)
