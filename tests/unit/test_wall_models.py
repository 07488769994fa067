"""Unit tests for the no-slip wall models (the paper's Future Work)."""

import numpy as np
import pytest

from repro.core.boundary import WALL_MODELS, WindTunnelBoundaries
from repro.core.particles import ParticleArrays
from repro.core.simulation import SimulationConfig
from repro.errors import ConfigurationError
from repro.geometry.domain import Domain
from repro.geometry.reflect import reflect_adiabatic_axis
from repro.physics.freestream import Freestream


@pytest.fixture
def fs():
    return Freestream(mach=4.0, c_mp=0.14, lambda_mfp=0.5, density=10.0)


def crossing_population(rng, fs, n=4000, domain=None):
    domain = domain or Domain(30, 20)
    pop = ParticleArrays.from_freestream(
        rng, n, fs, (1, domain.width - 1), (1, domain.height - 1)
    ).enable_scratch()
    # Half the population has just crossed the floor.
    pop.y[: n // 2] = -0.2
    pop.v[: n // 2] = -0.3
    return pop


class TestAdiabaticKernel:
    def test_speed_preserved(self, rng):
        n = 2000
        pos = np.full(n, -0.1)
        u = rng.normal(0.4, 0.2, n)
        v = np.full(n, -0.3)
        w = rng.normal(0, 0.1, n)
        speed0 = np.sqrt(u**2 + v**2 + w**2)
        new_pos, (u2, v2, w2), crossed = reflect_adiabatic_axis(
            rng, pos, (u, v, w), wall=0.0, side="above", normal_axis=1
        )
        assert crossed.all()
        assert np.allclose(np.sqrt(u2**2 + v2**2 + w2**2), speed0)
        assert np.all(v2 >= 0.0)
        assert np.all(new_pos >= 0.0)

    def test_no_slip_tangential_mean(self, rng):
        # Full accommodation: outgoing tangential mean is zero even for
        # a strongly drifting incident stream.
        n = 40_000
        pos = np.full(n, -0.1)
        u = np.full(n, 0.5)
        v = np.full(n, -0.3)
        w = np.zeros(n)
        _, (u2, _v2, w2), _ = reflect_adiabatic_axis(
            rng, pos, (u, v, w), wall=0.0, side="above", normal_axis=1
        )
        assert abs(u2.mean()) < 0.01
        assert abs(w2.mean()) < 0.01

    def test_cosine_flux_distribution(self, rng):
        # cos(theta) ~ sqrt(U): mean normal cosine is 2/3.
        n = 100_000
        pos = np.full(n, -0.1)
        u = np.zeros(n)
        v = np.full(n, -1.0)
        w = np.zeros(n)
        _, (u2, v2, w2), _ = reflect_adiabatic_axis(
            rng, pos, (u, v, w), wall=0.0, side="above", normal_axis=1
        )
        cos_theta = v2 / np.sqrt(u2**2 + v2**2 + w2**2)
        assert cos_theta.mean() == pytest.approx(2.0 / 3.0, abs=0.01)

    def test_validation(self, rng):
        z = np.zeros(1)
        with pytest.raises(ConfigurationError):
            reflect_adiabatic_axis(rng, z, (z, z, z), 0.0, "sideways", 1)
        with pytest.raises(ConfigurationError):
            reflect_adiabatic_axis(rng, z, (z, z, z), 0.0, "above", 7)


class TestTunnelWallModels:
    def test_model_validation(self, fs):
        with pytest.raises(ConfigurationError):
            WindTunnelBoundaries(Domain(30, 20), fs, wall_model="slippery")
        with pytest.raises(ConfigurationError):
            WindTunnelBoundaries(Domain(30, 20), fs, wall_c_mp=0.0)

    @pytest.mark.parametrize("model", WALL_MODELS)
    def test_all_models_expel_particles(self, model, fs, rng):
        b = WindTunnelBoundaries(Domain(30, 20), fs, wall_model=model)
        pop = crossing_population(rng, fs)
        pop, stats = b.apply_rebuilding(pop, None, rng)
        assert pop.y.min() >= 0.0
        assert pop.y.max() <= 20.0

    def test_specular_conserves_wall_energy(self, fs, rng):
        b = WindTunnelBoundaries(Domain(30, 20), fs, wall_model="specular")
        pop = crossing_population(rng, fs)
        crossed = pop.y < 0
        e0 = (pop.u[crossed] ** 2 + pop.v[crossed] ** 2 + pop.w[crossed] ** 2).sum()
        ids0 = pop.n
        pop, _ = b.apply_rebuilding(pop, None, rng)
        # No removals expected in this setup: same population size.
        e1 = (pop.u[:ids0 // 2] ** 2 + pop.v[:ids0 // 2] ** 2 + pop.w[:ids0 // 2] ** 2).sum()
        assert e1 == pytest.approx(e0, rel=1e-12)

    def test_adiabatic_conserves_wall_energy_but_scrambles(self, fs, rng):
        b = WindTunnelBoundaries(Domain(30, 20), fs, wall_model="adiabatic")
        pop = crossing_population(rng, fs)
        n_half = pop.n // 2
        e0 = (pop.u[:n_half] ** 2 + pop.v[:n_half] ** 2 + pop.w[:n_half] ** 2).sum()
        u_before = pop.u[:n_half].copy()
        pop, _ = b.apply_rebuilding(pop, None, rng)
        e1 = (pop.u[:n_half] ** 2 + pop.v[:n_half] ** 2 + pop.w[:n_half] ** 2).sum()
        assert e1 == pytest.approx(e0, rel=1e-12)
        # But the directions are fully accommodated (no slip).
        assert abs(pop.u[:n_half].mean()) < 0.1 * abs(u_before.mean())

    def test_diffuse_thermalizes_to_wall_temperature(self, fs, rng):
        cold_wall = 0.05
        b = WindTunnelBoundaries(
            Domain(30, 20), fs, wall_model="diffuse", wall_c_mp=cold_wall
        )
        pop = crossing_population(rng, fs, n=40_000)
        n_half = pop.n // 2
        pop, _ = b.apply_rebuilding(pop, None, rng)
        # Tangential variance of the re-emitted half matches the wall.
        var = pop.u[:n_half].var()
        assert var == pytest.approx(cold_wall**2 / 2, rel=0.05)

    def test_maxwell_accommodation_zero_is_specular(self, fs, rng):
        b_m = WindTunnelBoundaries(
            Domain(30, 20), fs, wall_model="maxwell", accommodation=0.0
        )
        pop = crossing_population(rng, fs, n=2000)
        y0 = pop.y.copy()
        v0 = pop.v.copy()
        pop, _ = b_m.apply_rebuilding(pop, None, rng)
        crossed = y0 < 0
        assert np.allclose(pop.y[: crossed.sum()], -y0[crossed])
        assert np.allclose(pop.v[: crossed.sum()], -v0[crossed])

    def test_maxwell_accommodation_one_is_diffuse(self, fs, rng):
        b = WindTunnelBoundaries(
            Domain(30, 20), fs, wall_model="maxwell", accommodation=1.0,
            wall_c_mp=0.05,
        )
        pop = crossing_population(rng, fs, n=40_000)
        n_half = pop.n // 2
        pop, _ = b.apply_rebuilding(pop, None, rng)
        assert pop.u[:n_half].var() == pytest.approx(0.05**2 / 2, rel=0.05)

    def test_maxwell_partial_accommodation_blends(self, fs, rng):
        # Half accommodation: outgoing tangential mean halfway between
        # the incident drift (specular keeps it) and zero (diffuse).
        b = WindTunnelBoundaries(
            Domain(30, 20), fs, wall_model="maxwell", accommodation=0.5
        )
        pop = crossing_population(rng, fs, n=40_000)
        n_half = pop.n // 2
        drift0 = pop.u[:n_half].mean()
        pop, _ = b.apply_rebuilding(pop, None, rng)
        assert pop.u[:n_half].mean() == pytest.approx(0.5 * drift0, rel=0.1)

    def test_accommodation_validated(self, fs):
        with pytest.raises(ConfigurationError):
            WindTunnelBoundaries(
                Domain(30, 20), fs, wall_model="maxwell", accommodation=1.5
            )

    @pytest.mark.parametrize(
        "boundaries, match",
        [
            ({"wall_model": "x"}, "wall_model"),
            ({"wall_model": "maxwell", "accommodation": 1.5}, "accommodation"),
        ],
    )
    def test_bad_wall_fails_where_the_config_is_built(self, boundaries, match):
        from repro.scenarios import ScenarioSpec, get

        with pytest.raises(ConfigurationError, match=match):
            SimulationConfig(domain=Domain(30, 20), wedge=None, **boundaries)
        with pytest.raises(ConfigurationError, match=match):
            ScenarioSpec.from_dict(
                {**get("wedge").to_dict(), "boundaries": boundaries}
            )

    def test_diffuse_wall_cools_a_hot_gas(self, fs, rng):
        # Energy is NOT conserved at an isothermal wall: a hot gas
        # hitting a cold wall loses energy.
        cold_wall = 0.02
        b = WindTunnelBoundaries(
            Domain(30, 20), fs, wall_model="diffuse", wall_c_mp=cold_wall
        )
        pop = crossing_population(rng, fs, n=10_000)
        e0 = pop.total_energy()
        pop, _ = b.apply_rebuilding(pop, None, rng)
        assert pop.total_energy() < e0
