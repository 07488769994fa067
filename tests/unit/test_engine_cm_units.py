"""Unit-level tests of the CM engine internals and config guards."""

import math
import warnings

import numpy as np
import pytest

from repro.cm.machine import CM2
from repro.core.engine_cm import CMSimulation
from repro.core.simulation import SimulationConfig
from repro.errors import ConfigurationError
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


class TestEncodeDecode:
    def test_roundtrip_is_lossless_on_grid(self, small_cm):
        p0 = small_cm.particles
        st = small_cm._encode(p0)
        p1 = small_cm._decode(st)
        assert np.array_equal(p0.x, p1.x)
        assert np.array_equal(p0.u, p1.u)
        assert np.array_equal(p0.rot, p1.rot)

    def test_cell_index_from_words_matches_float(self, small_cm):
        small_cm.run(3)
        st = small_cm.state
        ix = np.clip(st.xq >> 23, 0, 19)
        iy = np.clip(st.yq >> 23, 0, 12)
        expected = Domain(20, 13).cell_index(
            small_cm.particles.x, small_cm.particles.y
        )
        assert np.array_equal(
            ix.astype(np.int64) * 13 + iy.astype(np.int64), expected
        )


class TestQuickDirtyStream:
    def test_bits_balanced(self, small_cm):
        small_cm.run(4)
        bits = small_cm._qd_bits(small_cm.state.xq, 1, salt=99)
        assert 0.35 < bits.mean() < 0.65

    def test_salt_decorrelates(self, small_cm):
        small_cm.run(2)
        a = small_cm._qd_bits(small_cm.state.xq, 8, salt=1)
        b = small_cm._qd_bits(small_cm.state.xq, 8, salt=2)
        assert not np.array_equal(a, b)

    def test_step_counter_decorrelates(self, small_cm):
        a = small_cm._qd_bits(small_cm.state.xq, 8, salt=1)
        small_cm.run(1)
        b = small_cm._qd_bits(small_cm.state.xq, 8, salt=1)
        assert not np.array_equal(a[: b.size], b[: a.size])


class TestVPPolicy:
    def test_dynamic_geometry_tracks_population(self, small_cm):
        g = small_cm._geometry(100)
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
        assert sim._geometry(100).n_virtual == 5000
        assert sim._geometry(6000).n_virtual == 6000  # grows if exceeded

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
                           vp_capacity=3 * dyn.state.n)
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
