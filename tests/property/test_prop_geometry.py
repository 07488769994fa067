"""Property-based tests for geometry: reflections and cut cells."""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.geometry.domain import Domain
from repro.geometry.reflect import reflect_specular_axis
from repro.geometry.wedge import Wedge
from repro.physics import theory

angles = st.floats(min_value=10.0, max_value=60.0)
positions = st.floats(min_value=-5.0, max_value=40.0, allow_nan=False)
velocities = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


class TestWedgeReflectionProperties:
    @given(
        st.lists(
            st.tuples(positions, positions, velocities, velocities),
            min_size=1,
            max_size=30,
        ),
        angles,
    )
    @settings(max_examples=80, deadline=None)
    def test_speed_invariant_and_expelled(self, pts, angle):
        w = Wedge(x_leading=10.0, base=10.0, angle_deg=angle)
        x = np.array([p[0] for p in pts])
        y = np.array([p[1] for p in pts])
        u = np.array([p[2] for p in pts])
        v = np.array([p[3] for p in pts])
        s0 = u**2 + v**2
        x2, y2, u2, v2 = w.reflect_specular_report(x, y, u, v)[:4]
        assert np.allclose(u2**2 + v2**2, s0, rtol=1e-12)
        # A single ramp/back-face reflection may land below the floor
        # (handled by the boundary iteration), but never deeper into
        # the solid than it started.
        assert not np.any(
            w.penetration_depth(x2, y2) > w.penetration_depth(x, y) + 1e-9
        )

    @given(angles)
    @settings(max_examples=30, deadline=None)
    def test_volume_fractions_conserve_area(self, angle):
        w = Wedge(x_leading=5.0, base=8.0, angle_deg=angle)
        d = Domain(30, 20)
        assume(w.height < d.height - 1)
        vf = w.open_volume_fractions(d, supersample=8)
        solid = 0.5 * w.base * w.height
        assert vf.sum() == np.float64(vf.sum())
        assert abs((d.nx * d.ny - vf.sum()) - solid) < 0.05 * solid + 0.5


class TestAxisReflectionProperties:
    @given(
        st.lists(st.tuples(positions, velocities), min_size=1, max_size=50)
    )
    @settings(max_examples=80, deadline=None)
    def test_double_reflection_is_identity(self, pts):
        pos = np.array([p[0] for p in pts])
        vel = np.array([p[1] for p in pts])
        p1, v1 = reflect_specular_axis(pos, vel, 0.0, "above")
        # Reflecting again does nothing (all now on the gas side).
        p2, v2 = reflect_specular_axis(p1, v1, 0.0, "above")
        assert np.allclose(p1, p2)
        assert np.allclose(v1, v2)

    @given(
        st.lists(st.tuples(positions, velocities), min_size=1, max_size=50)
    )
    @settings(max_examples=80, deadline=None)
    def test_energy_invariant(self, pts):
        pos = np.array([p[0] for p in pts])
        vel = np.array([p[1] for p in pts])
        _, v1 = reflect_specular_axis(pos, vel, 0.0, "above")
        assert np.allclose(np.abs(v1), np.abs(vel))


class TestTheoryProperties:
    @given(
        st.floats(min_value=1.5, max_value=20.0),
        st.floats(min_value=0.01, max_value=0.3),
    )
    @settings(max_examples=80, deadline=None)
    def test_shock_angle_bounds(self, mach, theta):
        theta_max, _ = theory.max_deflection(mach)
        assume(theta < theta_max * 0.98)
        beta = theory.shock_angle(mach, theta)
        mu = math.asin(1.0 / mach)
        assert mu < beta < math.pi / 2
        assert beta > theta  # shock steeper than the wedge

    @given(st.floats(min_value=1.01, max_value=50.0))
    @settings(max_examples=80, deadline=None)
    def test_density_ratio_bounds(self, mach_n):
        r = theory.normal_shock_density_ratio(mach_n)
        assert 1.0 < r < 6.0  # (gamma+1)/(gamma-1) for gamma = 7/5

    @given(st.floats(min_value=1.0, max_value=20.0))
    @settings(max_examples=60, deadline=None)
    def test_prandtl_meyer_monotone(self, mach):
        nu = theory.prandtl_meyer(mach)
        nu2 = theory.prandtl_meyer(mach + 0.5)
        assert nu2 > nu >= 0.0
