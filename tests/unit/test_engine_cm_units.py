"""Unit-level tests of the CM engine internals and config guards."""

import math
import warnings

import numpy as np
import pytest

from repro.cm.machine import CM2
from repro.core.cells import assign_cells
from repro.core.engine_cm import CMSimulation
from repro.core.simulation import SimulationConfig
from repro.errors import ConfigurationError
from repro.fixedpoint.qformat import Q8_23
from repro.geometry.domain import Domain
from repro.geometry.wedge import Wedge
from repro.physics import theory
from repro.physics.freestream import Freestream


@pytest.fixture
def small_cm():
    cfg = SimulationConfig(
        domain=Domain(20, 13),
        freestream=Freestream(mach=4.0, c_mp=0.14, lambda_mfp=0.5, density=6.0),
        wedge=None,
        seed=2,
    )
    return CMSimulation(cfg, machine=CM2(n_processors=64))


def _words(col) -> np.ndarray:
    return Q8_23.encode(col)


class TestEncodeDecode:
    def test_roundtrip_is_lossless_on_grid(self, small_cm):
        # The float columns hold Q8.23 words exactly: encoding them as
        # words and decoding back returns the very same floats.
        small_cm.run(3)
        p = small_cm.particles
        for col in (p.x, p.y, p.u, p.v, p.w, p.rot):
            assert np.array_equal(Q8_23.decode(_words(col)), col)

    def test_cell_index_from_words_matches_float(self, small_cm):
        # The integer part of a position word is its cell coordinate, so
        # the cell index read off the words is the float cell index.
        small_cm.run(3)
        p = small_cm.particles
        ix = np.clip(_words(p.x) >> 23, 0, 19)
        iy = np.clip(_words(p.y) >> 23, 0, 12)
        expected = Domain(20, 13).cell_index(p.x, p.y)
        assert np.array_equal(
            ix.astype(np.int64) * 13 + iy.astype(np.int64), expected
        )
        assert np.array_equal(p.cell, expected)


class TestGridState:
    def test_state_on_grid_and_indexed_every_step(self):
        # The CM state is Q8.23 words held in the float columns: after
        # every step (the wedge's reflections and the plunger's refills
        # included) each column lies on the 2**-23 grid and the cell
        # column is the index of the positions.
        cfg = SimulationConfig(
            domain=Domain(30, 20),
            freestream=Freestream(
                mach=4.0, c_mp=0.14, lambda_mfp=0.5, density=6.0
            ),
            wedge=Wedge(x_leading=8, base=10, angle_deg=30),
            seed=3,
        )
        sim = CMSimulation(cfg, machine=CM2(n_processors=64))
        injected = reflected = 0
        for step in range(12):
            diag = sim.step(sample=step >= 6)
            injected += diag.boundary.n_injected_upstream
            reflected += diag.boundary.n_reflected_wedge
            p = sim.particles
            for col in (p.x, p.y, p.u, p.v, p.w, p.rot):
                scaled = col * Q8_23.scale
                assert np.array_equal(scaled, np.rint(scaled)), step
            cell = p.cell.copy()
            assign_cells(p, cfg.domain)
            assert np.array_equal(p.cell, cell), step
        assert injected and reflected  # the off-grid writers ran


class TestQuickDirtyStream:
    def test_bits_balanced(self, small_cm):
        small_cm.run(4)
        bits = small_cm.kernels._bits(_words(small_cm.particles.x), 1, 99, 4)
        assert 0.35 < bits.mean() < 0.65

    def test_salt_decorrelates(self, small_cm):
        small_cm.run(2)
        words = _words(small_cm.particles.x)
        a = small_cm.kernels._bits(words, 8, 1, 2)
        b = small_cm.kernels._bits(words, 8, 2, 2)
        assert not np.array_equal(a, b)

    def test_step_counter_decorrelates(self, small_cm):
        a = small_cm.kernels._bits(_words(small_cm.particles.x), 8, 1, 0)
        small_cm.run(1)
        b = small_cm.kernels._bits(_words(small_cm.particles.x), 8, 1, 1)
        assert not np.array_equal(a[: b.size], b[: a.size])


class TestVPPolicy:
    def test_dynamic_geometry_tracks_population(self, small_cm):
        g = small_cm.kernels.geometry(100)
        assert g.n_virtual == 100

    def test_static_geometry_holds_capacity(self):
        cfg = SimulationConfig(
            domain=Domain(20, 13),
            freestream=Freestream(
                mach=4.0, c_mp=0.14, lambda_mfp=0.5, density=6.0
            ),
            wedge=None,
            seed=2,
        )
        sim = CMSimulation(
            cfg, machine=CM2(n_processors=64), dynamic_vp=False,
            vp_capacity=5000,
        )
        assert sim.kernels.geometry(100).n_virtual == 5000
        assert sim.kernels.geometry(6000).n_virtual == 6000  # grows if exceeded

    def test_static_costs_more_per_step(self):
        cfg = SimulationConfig(
            domain=Domain(20, 13),
            freestream=Freestream(
                mach=4.0, c_mp=0.14, lambda_mfp=0.5, density=6.0
            ),
            wedge=None,
            seed=2,
        )
        m = CM2(n_processors=64)
        dyn = CMSimulation(cfg, machine=m, dynamic_vp=True)
        sta = CMSimulation(cfg, machine=m, dynamic_vp=False,
                           vp_capacity=3 * dyn.particles.n)
        dyn.run(3)
        sta.run(3)
        assert sta.ledger.total() > dyn.ledger.total()

    def test_capacity_validated(self):
        cfg = SimulationConfig(
            domain=Domain(20, 13),
            freestream=Freestream(
                mach=4.0, c_mp=0.14, lambda_mfp=0.5, density=6.0
            ),
            wedge=None,
            seed=2,
        )
        with pytest.raises(ConfigurationError):
            CMSimulation(
                cfg, machine=CM2(n_processors=64), vp_capacity=0,
                dynamic_vp=False,
            )


class TestDetachmentWarning:
    def test_attached_case_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            SimulationConfig(
                domain=Domain(30, 20),
                freestream=Freestream(
                    mach=4.0, c_mp=0.14, lambda_mfp=0.5, density=8.0
                ),
                wedge=Wedge(x_leading=8, base=10, angle_deg=30),
            )

    def test_detached_case_warns(self):
        # Mach 2 cannot hold an attached 30-degree shock (limit ~2.52).
        with pytest.warns(UserWarning, match="detached"):
            SimulationConfig(
                domain=Domain(30, 20),
                freestream=Freestream(
                    mach=2.0, c_mp=0.14, lambda_mfp=0.5, density=8.0
                ),
                wedge=Wedge(x_leading=8, base=10, angle_deg=30),
            )

    @pytest.mark.parametrize("angle", [10.0, 30.0, 45.0, 46.0, 60.0])
    @pytest.mark.parametrize("mach", [0.8, 1.5, 2.5, 2.6, 4.0, 60.0])
    def test_warns_exactly_below_the_attachment_mach(self, angle, mach):
        # 46 and 60 degrees detach at every Mach the root search covers,
        # so they warn even at Mach 60; 45 degrees attaches there.
        try:
            m_min = theory.minimum_attachment_mach(math.radians(angle))
        except ConfigurationError:
            m_min = math.inf
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            SimulationConfig(
                domain=Domain(30, 20),
                freestream=Freestream(
                    mach=mach, c_mp=0.14, lambda_mfp=0.5, density=8.0
                ),
                wedge=Wedge(x_leading=8, base=5, angle_deg=angle),
            )
        warned = any("detached" in str(w.message) for w in caught)
        assert warned == (mach < m_min)

    def test_attachment_mach_values(self):
        # Textbook-ish anchors for gamma = 1.4.
        m30 = theory.minimum_attachment_mach(math.radians(30.0))
        assert m30 == pytest.approx(2.52, abs=0.05)
        m20 = theory.minimum_attachment_mach(math.radians(20.0))
        assert 1.8 < m20 < m30
        assert theory.minimum_attachment_mach(0.0) == 1.0

    def test_impossible_deflection_rejected(self):
        with pytest.raises(ConfigurationError):
            theory.minimum_attachment_mach(math.radians(80.0))
