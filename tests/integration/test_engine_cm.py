"""Integration tests for the CM-2 fixed-point engine."""

import numpy as np
import pytest

from repro.cm.machine import CM2
from repro.cm.timing import PHASES
from repro.constants import PAPER_PHASE_FRACTIONS
from repro.core.engine_cm import CMSimulation
from repro.core.simulation import Simulation, SimulationConfig
from repro.errors import ConfigurationError
from repro.geometry.domain import Domain
from repro.geometry.domain3d import Domain3D
from repro.geometry.wedge import Wedge
from repro.physics.freestream import Freestream


@pytest.fixture
def cm_config():
    return SimulationConfig(
        domain=Domain(30, 20),
        freestream=Freestream(mach=4.0, c_mp=0.14, lambda_mfp=0.5, density=8.0),
        wedge=Wedge(x_leading=8, base=10, angle_deg=30),
        seed=11,
    )


@pytest.fixture
def machine():
    return CM2(n_processors=256)


class TestBasics:
    def test_runs_and_reports(self, cm_config, machine):
        sim = CMSimulation(cm_config, machine=machine)
        out = sim.run(5)
        assert out["step"] == 5
        assert out["n_flow"] > 0
        assert out["n_collisions"] >= 0
        assert 0.0 <= out["sort_offchip_fraction"] <= 1.0

    def test_state_is_fixed_point(self, cm_config, machine):
        sim = CMSimulation(cm_config, machine=machine)
        sim.run(3)
        assert sim.state.xq.dtype == np.int32
        assert sim.state.uq.dtype == np.int32
        # Decoded positions representable on the 2**-23 grid.
        p = sim.particles
        assert np.allclose(p.x * 2**23, np.round(p.x * 2**23))

    def test_halve_mode_validated(self, cm_config, machine):
        with pytest.raises(ConfigurationError):
            CMSimulation(cm_config, machine=machine, halve_mode="round")

    def test_domain_must_fit_format(self, machine):
        cfg = SimulationConfig(
            domain=Domain(300, 20),
            freestream=Freestream(mach=4.0, c_mp=0.14, lambda_mfp=0.5, density=2.0),
            wedge=None,
            seed=1,
        )
        with pytest.raises(ConfigurationError):
            CMSimulation(cfg, machine=machine)


    def test_span_domain_rejected(self, cm_config, machine):
        import dataclasses

        d = cm_config.domain
        slab = dataclasses.replace(cm_config, domain=Domain3D(d.nx, d.ny, 2))
        with pytest.raises(ConfigurationError, match="2-D machine"):
            CMSimulation(slab, machine=machine)

    @pytest.mark.parametrize("wall_model", ["diffuse", "adiabatic", "maxwell"])
    def test_non_specular_walls_rejected(self, cm_config, machine, wall_model):
        import dataclasses

        cfg = dataclasses.replace(cm_config, wall_model=wall_model)
        with pytest.raises(ConfigurationError, match="specular"):
            CMSimulation(cfg, machine=machine)


class TestPhysicsAgreement:
    def test_matches_reference_engine_statistically(self, cm_config, machine):
        # Same config, different arithmetic: bulk statistics must agree.
        ref = Simulation(cm_config)
        cm = CMSimulation(cm_config, machine=machine)
        ref.run(25)
        cm.run(25)
        assert cm.particles.n == pytest.approx(ref.particles.n, rel=0.05)
        assert cm.particles.u.mean() == pytest.approx(
            ref.particles.u.mean(), rel=0.05
        )
        assert cm.total_energy() / cm.particles.n == pytest.approx(
            ref.particles.total_energy() / ref.particles.n, rel=0.05
        )

    def test_stochastic_rounding_beats_truncation(self):
        # The paper's energy-loss story, isolated to the collision
        # arithmetic on a cold (stagnation-like) bath: truncating halves
        # bleed energy; stochastic rounding holds it.
        from repro.core.engine_cm import fixed_point_energy_drift

        trunc = fixed_point_energy_drift("truncate", rounds=40, seed=1)
        stoch = fixed_point_energy_drift("stochastic", rounds=40, seed=1)
        assert trunc < -0.05  # percent-level loss, cumulative
        assert abs(stoch) < abs(trunc) / 10

    def test_drift_scales_with_coldness(self):
        # Colder bath (fewer LSBs per velocity word) -> worse relative
        # truncation loss: the "stagnation regions" dependence.
        from repro.core.engine_cm import fixed_point_energy_drift

        cold = fixed_point_energy_drift(
            "truncate", rounds=25, c_mp_lsb=48.0, seed=2
        )
        warm = fixed_point_energy_drift(
            "truncate", rounds=25, c_mp_lsb=384.0, seed=2
        )
        assert cold < warm < 0.0


class TestTiming:
    def test_phase_breakdown_close_to_paper(self, cm_config):
        # Run at the calibration VP ratio (16) so fractions line up.
        machine = CM2(n_processors=128)
        sim = CMSimulation(cm_config, machine=machine)
        sim.run(8)
        pb = sim.phase_breakdown()
        fr = pb.fractions()
        for p in PHASES:
            assert fr[p] == pytest.approx(PAPER_PHASE_FRACTIONS[p], abs=0.08)

    def test_measured_figure7_decline(self, machine):
        # Fixed machine, growing problem: per-particle time falls.
        totals = {}
        for density in (2.0, 16.0):
            cfg = SimulationConfig(
                domain=Domain(20, 13),
                freestream=Freestream(
                    mach=4.0, c_mp=0.14, lambda_mfp=0.5, density=density
                ),
                wedge=None,
                seed=2,
            )
            sim = CMSimulation(cfg, machine=machine)
            sim.run(6)
            totals[density] = sim.phase_breakdown().total
        assert totals[16.0] < totals[2.0]

    def test_ledger_accumulates_steps(self, cm_config, machine):
        sim = CMSimulation(cm_config, machine=machine)
        sim.run(4)
        assert sim.ledger.steps == 4
        assert sim.ledger.total() > 0
