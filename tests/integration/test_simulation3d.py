"""Integration tests for the 3-D slab: a ``Domain3D`` run of ``Simulation``."""

import numpy as np
import pytest

from repro.analysis.shock import fit_shock_angle, post_shock_plateau
from repro.core import motion
from repro.core.particles import ParticleArrays
from repro.core.simulation import Simulation, SimulationConfig
from repro.errors import ConfigurationError
from repro.geometry.domain import Domain
from repro.geometry.domain3d import Domain3D
from repro.geometry.wedge import Wedge
from repro.physics.freestream import Freestream

pytestmark = pytest.mark.slow


@pytest.fixture
def fs():
    return Freestream(mach=4.0, c_mp=0.14, lambda_mfp=0.5, density=4.0)


class TestDomain3D:
    def test_cell_index_layout(self):
        d = Domain3D(4, 3, 2)
        idx = d.cell_index(np.array([1.5]), np.array([2.5]), np.array([0.5]))
        assert idx[0] == (1 * 3 + 2) * 2 + 0

    def test_collapse_matches_2d_layout(self, rng):
        d = Domain3D(10, 8, 4)
        xy = d.xy_domain()
        x = rng.uniform(0, 10, 200)
        y = rng.uniform(0, 8, 200)
        z = rng.uniform(0, 4, 200)
        c3 = d.cell_index(x, y, z)
        assert np.array_equal(c3 // d.nz, xy.cell_index(x, y))

    def test_wrap_z(self, rng, fs):
        """Motion advances z by w and wraps it into the periodic depth."""
        parts = ParticleArrays.from_freestream(rng, 2, fs, (0, 4), (0, 4))
        parts.z[:] = (1.75, 0.25)
        parts.w[:] = (0.75, -0.75)
        motion.advance(parts, Domain3D(4, 4, 2))
        assert parts.z == pytest.approx([0.5, 1.5])

    def test_validation(self):
        with pytest.raises(Exception):
            Domain3D(1, 4, 2)
        with pytest.raises(Exception):
            Domain3D(4, 4, 0)


class TestSimulation3D:
    def test_seeding_density(self, fs):
        cfg = SimulationConfig(
            domain=Domain3D(20, 12, 4),
            freestream=fs,
            wedge=Wedge(x_leading=5, base=6, angle_deg=30),
            seed=5,
        )
        sim = Simulation(cfg)
        open_volume = sim.volume_fractions.sum()
        assert sim.volume_fractions.shape == (20, 12, 4)
        assert sim.particles.n == pytest.approx(
            fs.density * open_volume, rel=0.01
        )
        assert sim.particles.z.min() >= 0
        assert sim.particles.z.max() <= 4.0

    def test_steps_and_z_periodicity(self, fs):
        cfg = SimulationConfig(
            domain=Domain3D(20, 12, 2), freestream=fs, wedge=None, seed=5
        )
        sim = Simulation(cfg)
        out = sim.run(15)
        assert out.n_flow > 0
        assert sim.particles.z.min() >= 0.0
        assert sim.particles.z.max() < 2.0

    def test_collisions_happen_and_conserve(self, fs):
        cfg = SimulationConfig(
            domain=Domain3D(16, 10, 3), freestream=fs, wedge=None, seed=6
        )
        sim = Simulation(cfg)
        out = sim.run(10)
        assert out.n_collisions > 0
        sim.particles.validate()

    def test_run_validates(self, fs):
        cfg = SimulationConfig(
            domain=Domain3D(16, 10, 2), freestream=fs, wedge=None, seed=6
        )
        with pytest.raises(ConfigurationError):
            Simulation(cfg).run(0)

    def test_wedge_must_fit(self, fs):
        with pytest.raises(Exception):
            SimulationConfig(
                domain=Domain3D(16, 10, 2),
                freestream=fs,
                wedge=Wedge(x_leading=12, base=10, angle_deg=30),
            )


class TestSpanCollapseValidation:
    """The 3-D slab must reproduce the 2-D solution when collapsed."""

    @pytest.fixture(scope="class")
    def pair_of_runs(self):
        wedge = Wedge(x_leading=8.0, base=10.0, angle_deg=30.0)
        fs3 = Freestream(mach=4.0, c_mp=0.14, lambda_mfp=0.0, density=3.0)
        cfg3 = SimulationConfig(
            domain=Domain3D(40, 26, 4), freestream=fs3, wedge=wedge, seed=11
        )
        sim3 = Simulation(cfg3)
        sim3.run(150)
        sim3.run(150, sample=True)

        fs2 = Freestream(mach=4.0, c_mp=0.14, lambda_mfp=0.0, density=12.0)
        cfg2 = SimulationConfig(
            domain=Domain(40, 26), freestream=fs2, wedge=wedge, seed=11
        )
        sim2 = Simulation(cfg2)
        sim2.run(150)
        sim2.run(150, sample=True)
        return sim3, sim2, wedge

    def test_density_fields_match(self, pair_of_runs):
        sim3, sim2, wedge = pair_of_runs
        rho3 = sim3.density_ratio_field()
        rho2 = sim2.density_ratio_field()
        # Compare away from the cut-cell band (different vf handling of
        # noise) -- mean absolute difference small.
        open_cells = sim2.volume_fractions > 0.99
        diff = np.abs(rho3[open_cells] - rho2[open_cells])
        assert diff.mean() < 0.15

    def test_shock_angle_matches(self, pair_of_runs):
        sim3, sim2, wedge = pair_of_runs
        fit3 = fit_shock_angle(sim3.density_ratio_field(), wedge)
        fit2 = fit_shock_angle(sim2.density_ratio_field(), wedge)
        # The two fits are independent realizations on a coarse 40x26
        # grid; the fitted-angle difference measured across seeds spans
        # -3.1..+1.1 deg (sigma ~ 1.8 deg).  5 deg separates that
        # realization noise from a structural collapse failure (a
        # broken z-average shifts the fit by >10 deg).
        assert fit3.angle_deg == pytest.approx(fit2.angle_deg, abs=5.0)

    def test_plateau_matches(self, pair_of_runs):
        sim3, sim2, wedge = pair_of_runs
        p3 = post_shock_plateau(sim3.density_ratio_field(), wedge)
        p2 = post_shock_plateau(sim2.density_ratio_field(), wedge)
        assert p3 == pytest.approx(p2, rel=0.1)
