"""Unit tests for shock metrology, field windows, contours and reports."""

import math

import numpy as np
import pytest

from repro.analysis.contour import render_ascii, save_field_npz
from repro.analysis.fields import (
    SurfaceSummary,
    stagnation_rise_profile,
    stagnation_window,
    wake_window,
)
from repro.analysis.report import MARKDOWN_HEADER, ExperimentRecord, Metric
from repro.analysis.shock import (
    fit_shock_angle,
    post_shock_plateau,
    shock_crossings,
    shock_thickness,
    wake_floor_ridge,
    wake_recompression_factor,
)
from repro.errors import ConfigurationError
from repro.geometry.domain import Domain
from repro.geometry.wedge import Wedge


def synthetic_shock_field(
    domain: Domain,
    wedge: Wedge,
    beta_deg: float = 45.0,
    ratio: float = 3.7,
    width: float = 1.5,
    noise: float = 0.0,
    rng=None,
) -> np.ndarray:
    """An analytic oblique-shock density field for testing the metrology.

    Density ``ratio`` below the shock line (above the wedge surface),
    1 above, smoothed over ``width`` cells via a tanh profile.
    """
    slope = math.tan(math.radians(beta_deg))
    x = np.arange(domain.nx) + 0.5
    y = np.arange(domain.ny) + 0.5
    xx, yy = np.meshgrid(x, y, indexing="ij")
    y_shock = (xx - wedge.x_leading) * slope
    signed = yy - y_shock
    rho = 1.0 + 0.5 * (ratio - 1.0) * (1.0 - np.tanh(signed / width))
    rho[xx < wedge.x_leading] = 1.0
    rho[wedge.inside(xx, yy)] = 0.0
    if noise and rng is not None:
        rho += rng.normal(0.0, noise, size=rho.shape)
    return rho


@pytest.fixture
def geometry():
    return Domain(60, 40), Wedge(x_leading=15, base=20, angle_deg=30)


class TestShockFit:
    def test_recovers_known_angle(self, geometry):
        d, w = geometry
        rho = synthetic_shock_field(d, w, beta_deg=45.0)
        fit = fit_shock_angle(rho, w)
        assert fit.angle_deg == pytest.approx(45.0, abs=1.0)

    def test_recovers_other_angles(self, geometry):
        # Angles chosen to keep the shock layer measurably above the
        # 30-degree ramp surface.
        d, w = geometry
        for beta in (40.0, 55.0):
            rho = synthetic_shock_field(d, w, beta_deg=beta)
            assert fit_shock_angle(rho, w).angle_deg == pytest.approx(
                beta, abs=1.5
            )

    def test_robust_to_noise(self, geometry, rng):
        d, w = geometry
        rho = synthetic_shock_field(d, w, noise=0.05, rng=rng)
        assert fit_shock_angle(rho, w).angle_deg == pytest.approx(45.0, abs=2.0)

    def test_crossings_have_margin(self, geometry):
        d, w = geometry
        rho = synthetic_shock_field(d, w)
        xs, ys = shock_crossings(rho, w, x_margin=3.0)
        assert xs.min() >= w.x_leading + 3.0
        assert xs.max() <= w.x_trailing - 3.0 + 1.0

    def test_unconverged_field_raises(self, geometry):
        d, w = geometry
        rho = np.ones(d.shape)
        with pytest.raises(ConfigurationError):
            fit_shock_angle(rho, w)


class TestPlateauThickness:
    def test_plateau_recovered(self, geometry):
        d, w = geometry
        rho = synthetic_shock_field(d, w, ratio=3.7)
        assert post_shock_plateau(rho, w) == pytest.approx(3.7, rel=0.05)

    def test_thickness_tracks_width(self, geometry):
        d, w = geometry
        thin = shock_thickness(synthetic_shock_field(d, w, width=0.8), w)
        thick = shock_thickness(synthetic_shock_field(d, w, width=2.0), w)
        assert thick > thin

    def test_thickness_positive_and_reasonable(self, geometry):
        d, w = geometry
        t = shock_thickness(synthetic_shock_field(d, w, width=1.2), w)
        assert 0.5 < t < 8.0


class TestWakeAndExpansion:
    def test_wake_metric_distinguishes_recompression(self, geometry):
        d, w = geometry
        rho = synthetic_shock_field(d, w)
        # Paint a wake trough + recompression peak behind the wedge.
        i0 = int(w.x_trailing) + 4
        rho[i0 : i0 + 4, 0:3] = 0.3
        rho[i0 + 6 : i0 + 10, 0:3] = 1.5
        strong = wake_recompression_factor(rho, w, d)
        rho_flat = synthetic_shock_field(d, w)
        rho_flat[int(w.x_trailing) + 3 :, 0:3] = 0.5
        weak = wake_recompression_factor(rho_flat, w, d)
        assert strong > 3.0
        assert weak == pytest.approx(1.0, abs=0.2)

    def test_floor_ridge_detects_attached_layer(self, geometry):
        d, w = geometry
        rho = synthetic_shock_field(d, w)
        i0 = int(w.x_trailing)
        # Floor-attached recompression layer in the far wake.
        rho[i0:, :] = 0.3
        rho[i0:, 0:3] = 0.6
        attached = wake_floor_ridge(rho, w, d)
        # Smeared wake: uniform with height.
        rho[i0:, :] = 0.3
        smeared = wake_floor_ridge(rho, w, d)
        assert attached > 1.5
        assert smeared == pytest.approx(1.0)

    def test_floor_ridge_needs_room(self, geometry):
        d, w = geometry
        rho = synthetic_shock_field(d, w)
        with pytest.raises(ConfigurationError):
            wake_floor_ridge(rho, w, d, x_offset=100.0)


class TestWindows:
    def test_stagnation_window_bounds(self, geometry):
        d, w = geometry
        win = stagnation_window(w, d)
        assert win.i_lo < w.x_leading
        assert win.j_lo == 0
        f = win.extract(np.ones(d.shape))
        assert f.shape == (win.i_hi - win.i_lo, win.j_hi)

    def test_wake_window_behind_wedge(self, geometry):
        d, w = geometry
        win = wake_window(w, d)
        assert win.i_lo >= w.x_trailing
        assert win.i_hi == d.nx

    def test_surface_summary(self, rng):
        f = rng.random((10, 10))
        s = SurfaceSummary.of(f)
        assert s.minimum <= s.mean <= s.maximum
        assert s.roughness > 0

    def test_surface_summary_empty(self):
        with pytest.raises(ConfigurationError):
            SurfaceSummary.of(np.zeros((0, 3)))

    def test_stagnation_rise_profile(self, geometry):
        d, w = geometry
        rho = synthetic_shock_field(d, w)
        prof = stagnation_rise_profile(rho, w)
        assert prof.shape == (4,)
        assert np.all(prof > 1.0)  # inside the shock layer


class TestContour:
    def test_render_shapes(self, geometry):
        d, w = geometry
        rho = synthetic_shock_field(d, w)
        text = render_ascii(rho)
        lines = text.split("\n")
        assert len(lines) == d.ny
        assert all(len(line) == d.nx for line in lines)

    def test_render_decimates_wide_fields(self):
        f = np.ones((300, 5))
        lines = render_ascii(f, max_width=100).split("\n")
        assert len(lines[0]) <= 100

    def test_levels_validation(self):
        with pytest.raises(ConfigurationError):
            render_ascii(np.ones((4, 4)), levels=[1.0, 2.0])

    def test_save_npz_roundtrip(self, tmp_path, geometry):
        d, w = geometry
        rho = synthetic_shock_field(d, w)
        path = tmp_path / "f.npz"
        save_field_npz(str(path), rho=rho)
        loaded = np.load(path)["rho"]
        assert np.allclose(loaded, rho)

    def test_save_npz_empty_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            save_field_npz(str(tmp_path / "x.npz"))


class TestReport:
    def test_metric_agreement(self):
        assert Metric("x", 10.0, 10.5, rel_tol=0.1).agrees()
        assert not Metric("x", 10.0, 12.0, rel_tol=0.1).agrees()
        assert Metric("x", None, 1.0).agrees() is None
        assert Metric("x", 0.0, 0.05, rel_tol=0.1).agrees()

    def test_record_all_agree(self):
        rec = ExperimentRecord("FIG1", "test")
        rec.add("a", 1.0, 1.01)
        rec.add("b", None, 5.0)
        assert rec.all_agree()
        rec.add("c", 1.0, 2.0)
        assert not rec.all_agree()

    def test_text_rendering(self):
        rec = ExperimentRecord("FIG1", "density contours")
        rec.add("shock angle (deg)", 45.0, 45.6)
        text = rec.to_text()
        assert "FIG1" in text and "45.6" in text and "OK" in text

    def test_markdown_table(self):
        rec = ExperimentRecord("TAB1", "phases")
        rec.add("sort fraction", 0.27, 0.28)
        md = "\n".join([MARKDOWN_HEADER, rec.to_markdown_rows()])
        assert md.startswith("| Exp |")
        assert "TAB1" in md
