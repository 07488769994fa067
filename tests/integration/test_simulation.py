"""Integration tests for the reference simulation driver."""

import numpy as np
import pytest

from repro.core.simulation import Simulation, SimulationConfig
from repro.errors import ConfigurationError
from repro.geometry.wedge import Wedge
from repro.physics.freestream import Freestream
from repro.verify import state_digest


class TestDriver:
    def test_initial_seeding_at_freestream_density(self, small_config):
        sim = Simulation(small_config)
        open_area = sim.volume_fractions.sum()
        expected = small_config.freestream.density * open_area
        assert sim.particles.n == pytest.approx(expected, rel=0.01)
        # No particle starts inside the wedge.
        w = small_config.wedge
        assert not w.inside(sim.particles.x, sim.particles.y).any()

    def test_reservoir_seeded(self, small_config):
        sim = Simulation(small_config)
        assert sim.reservoir.size == pytest.approx(
            0.1 * sim.particles.n, rel=0.02
        )

    def test_step_diagnostics_sane(self, small_config):
        sim = Simulation(small_config)
        d = sim.step()
        assert d.step == 1
        assert d.n_flow > 0
        assert 0.0 <= d.pairing_efficiency <= 1.0
        assert d.n_collisions <= d.n_candidates
        assert d.total_energy > 0

    def test_population_stays_bounded(self, small_config):
        sim = Simulation(small_config)
        n0 = sim.particles.n
        sim.run(60)
        # Steady state: inflow ~ outflow; population within 2x of seed.
        assert 0.5 * n0 < sim.particles.n < 2.0 * n0

    def test_particles_remain_in_open_region(self, small_config):
        sim = Simulation(small_config)
        sim.run(40)
        p = sim.particles
        assert p.x.min() >= 0.0 and p.x.max() < small_config.domain.width
        assert p.y.min() >= 0.0 and p.y.max() <= small_config.domain.height
        assert not small_config.wedge.inside(p.x, p.y).any()

    def test_determinism_same_seed(self, small_config):
        a = Simulation(small_config)
        b = Simulation(small_config)
        a.run(10)
        b.run(10)
        assert state_digest(a) == state_digest(b)

    def test_different_seeds_differ(self, small_domain, small_wedge, rarefied_freestream):
        cfg_a = SimulationConfig(
            domain=small_domain, freestream=rarefied_freestream,
            wedge=small_wedge, seed=1,
        )
        cfg_b = SimulationConfig(
            domain=small_domain, freestream=rarefied_freestream,
            wedge=small_wedge, seed=2,
        )
        a, b = Simulation(cfg_a), Simulation(cfg_b)
        a.run(5)
        b.run(5)
        assert state_digest(a) != state_digest(b)

    def test_sampling_accumulates(self, small_config):
        sim = Simulation(small_config)
        sim.run(5)
        assert sim.sampler.steps == 0
        sim.run(5, sample=True)
        assert sim.sampler.steps == 5
        rho = sim.density_ratio_field()
        assert rho.shape == small_config.domain.shape

    def test_run_validates_steps(self, small_config):
        with pytest.raises(ConfigurationError):
            Simulation(small_config).run(0)

    def test_empty_tunnel_keeps_freestream(self, box_config):
        # Without a body the tunnel must hold freestream conditions:
        # uniform density ~1, bulk velocity ~U everywhere.
        sim = Simulation(box_config)
        sim.run(40)
        sim.run(30, sample=True)
        rho = sim.density_ratio_field()
        interior = rho[3:-3, 3:-3]
        assert interior.mean() == pytest.approx(1.0, abs=0.05)
        assert interior.std() < 0.25
        u, v, w = sim.sampler.mean_velocity()
        assert u[3:-3, 3:-3].mean() == pytest.approx(
            box_config.freestream.speed, rel=0.05
        )

    def test_near_continuum_collides_half_of_candidates_pop(
        self, small_domain, small_wedge, continuum_freestream
    ):
        # "all collision candidates must collide and the number of
        # collisions in a cell is just equal to half the number of
        # particles in the cell."
        cfg = SimulationConfig(
            domain=small_domain,
            freestream=continuum_freestream,
            wedge=small_wedge,
            seed=3,
        )
        sim = Simulation(cfg)
        d = sim.step()
        assert d.n_collisions == d.n_candidates
        assert d.mean_collision_probability == 1.0

    def test_config_validation(self, small_domain, rarefied_freestream):
        with pytest.raises(Exception):
            SimulationConfig(
                domain=small_domain,
                freestream=rarefied_freestream,
                wedge=Wedge(x_leading=25, base=10),  # pokes out
            )
        with pytest.raises(ConfigurationError):
            SimulationConfig(
                domain=small_domain,
                freestream=Freestream(lambda_mfp=0.1),  # P too high
                wedge=None,
            )
        with pytest.raises(ConfigurationError):
            SimulationConfig(
                domain=small_domain,
                freestream=rarefied_freestream,
                wedge=None,
                reservoir_fraction=1.5,
            )


class TestConservationInStep:
    def test_collisions_conserve_energy_within_step(self, box_config):
        # The collision sub-step must be exactly conservative; boundary
        # and plunger work changes energy, so test the collision phase
        # in isolation by comparing before/after with motion frozen.
        sim = Simulation(box_config)
        sim.run(5)
        parts = sim.particles
        from repro.core.cells import assign_cells, cell_populations
        from repro.core.collision import collide_pairs
        from repro.core.pairing import even_odd_pairs
        from repro.core.selection import select_collisions
        from repro.core.sortstep import sort_by_cell

        assign_cells(parts, box_config.domain)
        sort_by_cell(parts, rng=sim.rng)
        pairs = even_odd_pairs(parts.cell)
        counts = cell_populations(parts.cell, box_config.domain.n_cells)
        sel = select_collisions(
            parts, pairs, box_config.freestream, box_config.model,
            counts, rng=sim.rng,
        )
        e0, p0 = parts.total_energy(), parts.momentum()
        collide_pairs(
            parts, pairs.first[sel.accept], pairs.second[sel.accept],
            rng=sim.rng,
        )
        assert parts.total_energy() == pytest.approx(e0, rel=1e-12)
        assert np.allclose(parts.momentum(), p0, atol=1e-9)
