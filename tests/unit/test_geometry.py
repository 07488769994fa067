"""Unit tests for the domain, wedge and reflection kernels."""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError, GeometryError
from repro.geometry.domain import Domain
from repro.geometry.reflect import (
    reflect_diffuse_axis,
    reflect_specular_axis,
)
from repro.geometry.wedge import Wedge


class TestDomain:
    def test_paper_grid(self):
        d = Domain()
        assert d.shape == (98, 64)
        assert d.n_cells == 98 * 64

    def test_cell_index_layout(self):
        d = Domain(10, 4)
        # Flattening is i * ny + j.
        assert d.cell_index(np.array([2.5]), np.array([3.5]))[0] == 2 * 4 + 3

    def test_cell_roundtrip(self, rng):
        d = Domain(10, 8)
        x = rng.uniform(0, 10, 100)
        y = rng.uniform(0, 8, 100)
        idx = d.cell_index(x, y)
        i, j = d.cell_coords(x, y)
        assert np.array_equal(i * d.ny + j, idx)

    def test_boundary_clipping(self):
        d = Domain(10, 8)
        i, j = d.cell_coords(np.array([10.0, -0.5]), np.array([8.0, -1.0]))
        assert i.tolist() == [9, 0]
        assert j.tolist() == [7, 0]

    def test_too_small_rejected(self):
        with pytest.raises(GeometryError):
            Domain(1, 5)


class TestWedge:
    def test_paper_wedge_shape(self):
        w = Wedge()
        assert w.x_leading == 20.0 and w.base == 25.0
        assert w.height == pytest.approx(25.0 * math.tan(math.radians(30.0)))
        assert w.corner == (45.0, pytest.approx(14.43, abs=0.01))

    def test_inside_classification(self):
        w = Wedge(x_leading=10, base=10, angle_deg=45)
        x = np.array([9.0, 12.0, 12.0, 21.0, 15.0])
        y = np.array([0.5, 1.0, 3.0, 1.0, -0.5])
        inside = w.inside(x, y)
        assert inside.tolist() == [False, True, False, False, False]

    def test_ramp_height(self):
        w = Wedge(x_leading=10, base=10, angle_deg=45)
        assert w.ramp_height_at(np.array([15.0]))[0] == pytest.approx(5.0)
        assert w.ramp_height_at(np.array([5.0]))[0] == 0.0

    def test_normal_is_unit_and_outward(self):
        w = Wedge(angle_deg=30)
        nx, ny = w.ramp_normal
        assert nx**2 + ny**2 == pytest.approx(1.0)
        assert nx < 0 and ny > 0

    def test_validate_in_domain(self):
        Wedge(x_leading=20, base=25, angle_deg=30).validate_in(Domain(98, 64))
        with pytest.raises(GeometryError):
            Wedge(x_leading=90, base=25, angle_deg=30).validate_in(Domain(98, 64))
        with pytest.raises(GeometryError):
            Wedge(x_leading=5, base=30, angle_deg=70).validate_in(Domain(98, 24))

    def test_invalid_parameters(self):
        with pytest.raises(GeometryError):
            Wedge(base=0.0)
        with pytest.raises(GeometryError):
            Wedge(angle_deg=90.0)
        with pytest.raises(GeometryError):
            Wedge(x_leading=-1.0)

    def test_volume_fractions_bounds_and_values(self):
        d = Domain(40, 20)
        w = Wedge(x_leading=10, base=10, angle_deg=45)
        vf = w.open_volume_fractions(d, supersample=32)
        assert vf.shape == d.shape
        assert vf.min() >= 0.0 and vf.max() <= 1.0
        # Cell fully inside the solid.
        assert vf[18, 0] == 0.0
        # Cell fully in the open flow.
        assert vf[5, 5] == 1.0
        # A 45-degree ramp cuts its diagonal cells exactly in half.
        assert vf[12, 2] == pytest.approx(0.5, abs=0.03)

    def test_total_open_area_matches_triangle(self):
        d = Domain(40, 20)
        w = Wedge(x_leading=10, base=10, angle_deg=45)
        vf = w.open_volume_fractions(d, supersample=32)
        open_area = vf.sum()
        solid_area = 0.5 * 10 * 10
        assert open_area == pytest.approx(d.nx * d.ny - solid_area, rel=0.005)

    def test_specular_reflection_conserves_speed(self, rng):
        w = Wedge(x_leading=10, base=10, angle_deg=30)
        x = rng.uniform(10.5, 19.5, 50)
        y = w.ramp_height_at(x) * rng.uniform(0.2, 0.9, 50)  # inside
        u = rng.normal(0.3, 0.1, 50)
        v = rng.normal(-0.2, 0.1, 50)
        speed2 = u**2 + v**2
        x2, y2, u2, v2 = w.reflect_specular_report(x, y, u, v)[:4]
        assert np.allclose(u2**2 + v2**2, speed2)
        assert not np.any(w.inside(x2, y2))

    def test_ramp_reflection_mirrors_across_plane(self):
        w = Wedge(x_leading=0, base=10, angle_deg=45)
        # Point just below the 45-deg plane at (5, 4): mirror lands at
        # (4, 5); incoming velocity (1, 0) reflects to (0, 1).
        x, y, u, v = w.reflect_specular_report(
            np.array([5.0]), np.array([4.0]), np.array([1.0]), np.array([0.0])
        )[:4]
        assert x[0] == pytest.approx(4.0)
        assert y[0] == pytest.approx(5.0)
        assert u[0] == pytest.approx(0.0, abs=1e-12)
        assert v[0] == pytest.approx(1.0)

    def test_back_face_reflection(self):
        w = Wedge(x_leading=10, base=10, angle_deg=45)
        # Particle moved upstream through the back face at x = 20.
        x, y, u, v = w.reflect_specular_report(
            np.array([19.5]), np.array([2.0]), np.array([-1.0]), np.array([0.0])
        )[:4]
        assert x[0] == pytest.approx(20.5)
        assert u[0] == pytest.approx(1.0)
        assert v[0] == pytest.approx(0.0)

    def test_no_op_when_all_outside(self):
        w = Wedge()
        x, y, u, v = w.reflect_specular_report(
            np.array([1.0]), np.array([1.0]), np.array([0.1]), np.array([0.0])
        )[:4]
        assert x[0] == 1.0 and y[0] == 1.0


class TestAxisReflection:
    def test_floor_reflection(self):
        p, v = reflect_specular_axis(np.array([-0.3]), np.array([-0.5]), 0.0, "above")
        assert p[0] == pytest.approx(0.3)
        assert v[0] == pytest.approx(0.5)

    def test_ceiling_reflection(self):
        p, v = reflect_specular_axis(np.array([8.2]), np.array([0.5]), 8.0, "below")
        assert p[0] == pytest.approx(7.8)
        assert v[0] == pytest.approx(-0.5)

    def test_untouched_particles_unchanged(self):
        p, v = reflect_specular_axis(np.array([0.5]), np.array([-0.1]), 0.0, "above")
        assert p[0] == 0.5 and v[0] == -0.1

    def test_invalid_side(self):
        with pytest.raises(ConfigurationError):
            reflect_specular_axis(np.array([0.0]), np.array([0.0]), 0.0, "left")


class TestDiffuseReflection:
    def test_reemission_into_gas(self, rng):
        n = 4000
        pos = np.concatenate((np.full(n // 2, -0.1), np.full(n // 2, 0.5)))
        u = np.full(n, 0.1)
        v = np.full(n, -0.4)
        w = np.zeros(n)
        rot = np.zeros((n, 2))
        new_pos, (u2, v2, w2), rot2, crossed = reflect_diffuse_axis(
            rng, pos, (u, v, w), rot, wall=0.0, side="above",
            normal_axis=1, wall_c_mp=0.2,
        )
        assert crossed.sum() == n // 2
        assert np.all(new_pos >= 0.0)
        # Normal velocity points into the gas for re-emitted particles.
        assert np.all(v2[crossed] > 0.0)
        # Tangential components thermalized to wall temperature.
        assert u2[crossed].mean() == pytest.approx(0.0, abs=0.02)
        assert u2[crossed].var() == pytest.approx(0.02, rel=0.15)
        # Untouched particles keep their state.
        assert np.all(v2[~crossed] == -0.4)

    def test_rotational_thermalized(self, rng):
        n = 2000
        pos = np.full(n, -0.1)
        rot = np.full((n, 2), 5.0)
        _, _, rot2, crossed = reflect_diffuse_axis(
            rng, pos, (np.zeros(n), np.zeros(n), np.zeros(n)), rot,
            wall=0.0, side="above", normal_axis=1, wall_c_mp=0.2,
        )
        assert np.abs(rot2[crossed].mean()) < 0.05

    def test_invalid_args(self, rng):
        z = np.zeros(1)
        with pytest.raises(ConfigurationError):
            reflect_diffuse_axis(rng, z, (z, z, z), np.zeros((1, 2)), 0.0,
                                 "above", normal_axis=5, wall_c_mp=0.2)
        with pytest.raises(ConfigurationError):
            reflect_diffuse_axis(rng, z, (z, z, z), np.zeros((1, 2)), 0.0,
                                 "above", normal_axis=1, wall_c_mp=0.0)

