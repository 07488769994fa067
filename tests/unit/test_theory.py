"""Unit tests for the inviscid theory oracle against textbook values."""

import math
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.errors import ConfigurationError
from repro.physics import theory


class TestObliqueShock:
    def test_paper_case_mach4_wedge30(self):
        # The validation targets of figure 1: beta ~ 45 deg, rho2/rho1
        # ~ 3.7.
        beta = theory.shock_angle_deg(4.0, 30.0)
        assert beta == pytest.approx(45.0, abs=0.5)
        ratio = theory.oblique_shock_density_ratio(4.0, math.radians(30.0))
        assert ratio == pytest.approx(3.7, abs=0.05)

    def test_weak_solution_by_default(self):
        weak = theory.shock_angle(3.0, math.radians(20.0))
        strong = theory.shock_angle(3.0, math.radians(20.0), strong=True)
        assert weak < strong

    def test_zero_deflection_gives_mach_wave(self):
        beta = theory.shock_angle(2.0, 0.0)
        assert beta == pytest.approx(math.asin(0.5))

    def test_detachment_detected(self):
        theta_max, _ = theory.max_deflection(2.0)
        with pytest.raises(ConfigurationError):
            theory.shock_angle(2.0, theta_max + 0.05)

    def test_max_deflection_textbook_mach2(self):
        # gamma = 1.4, M = 2: theta_max ~ 22.97 deg.
        theta_max, _ = theory.max_deflection(2.0)
        assert math.degrees(theta_max) == pytest.approx(22.97, abs=0.1)

    def test_subsonic_rejected(self):
        with pytest.raises(ConfigurationError):
            theory.shock_angle(0.9, 0.1)

    def test_deflection_consistency(self):
        beta = theory.shock_angle(4.0, math.radians(25.0))
        assert theory.deflection_angle(4.0, beta) == pytest.approx(
            math.radians(25.0), abs=1e-9
        )


class TestNormalShock:
    def test_textbook_mach2(self):
        # gamma = 1.4: rho2/rho1 = 2.667, p2/p1 = 4.5.
        assert theory.normal_shock_density_ratio(2.0) == pytest.approx(
            8 / 3, rel=1e-12
        )
        assert theory.normal_shock_pressure_ratio(2.0) == pytest.approx(4.5)

    def test_strong_shock_density_limit(self):
        # rho2/rho1 -> (gamma+1)/(gamma-1) = 6 as M -> inf.
        assert theory.normal_shock_density_ratio(100.0) == pytest.approx(
            6.0, rel=0.01
        )

    def test_post_shock_mach_subsonic(self):
        m2 = theory.post_normal_shock_mach(2.0)
        assert m2 == pytest.approx(0.5774, abs=1e-3)

    def test_temperature_ratio_consistent(self):
        t = theory.normal_shock_temperature_ratio(2.0)
        assert t == pytest.approx(4.5 / (8 / 3))

    def test_subsonic_rejected(self):
        with pytest.raises(ConfigurationError):
            theory.normal_shock_density_ratio(1.0)

    def test_post_oblique_mach_mach4_wedge30(self):
        m2 = theory.post_oblique_shock_mach(4.0, math.radians(30.0))
        # Behind a Mach-4 / 30deg-wedge shock the flow stays supersonic
        # (~1.7), which is what lets the expansion fan exist.
        assert 1.4 < m2 < 2.0


class TestPrandtlMeyer:
    def test_nu_of_one_is_zero(self):
        assert theory.prandtl_meyer(1.0) == pytest.approx(0.0, abs=1e-12)

    def test_textbook_value_mach2(self):
        # nu(2.0) = 26.38 deg for gamma = 1.4.
        assert math.degrees(theory.prandtl_meyer(2.0)) == pytest.approx(
            26.38, abs=0.02
        )

    def test_inverse_roundtrip(self):
        for m in (1.5, 2.5, 4.0, 6.0):
            nu = theory.prandtl_meyer(m)
            assert theory.mach_from_prandtl_meyer(nu) == pytest.approx(m, rel=1e-9)

    def test_expansion_reduces_density(self):
        ratio = theory.expansion_density_ratio(2.0, math.radians(20.0))
        assert 0.0 < ratio < 1.0

    def test_zero_turn_is_identity(self):
        assert theory.expansion_density_ratio(3.0, 0.0) == pytest.approx(1.0)

    def test_subsonic_rejected(self):
        with pytest.raises(ConfigurationError):
            theory.prandtl_meyer(0.8)

    def test_out_of_range_nu(self):
        with pytest.raises(ConfigurationError):
            theory.mach_from_prandtl_meyer(10.0)

    def test_negative_turn_rejected(self):
        with pytest.raises(ConfigurationError):
            theory.expansion_density_ratio(2.0, -0.1)


class TestPrivateRootFinder:
    """SciPy is off the run path: the three root-finds use a private
    Brent solver with ``scipy.optimize.brentq``'s iteration."""

    def test_matches_scipy_brentq(self):
        brentq = pytest.importorskip("scipy.optimize").brentq
        cases = [
            (lambda x: math.cos(x) - x, 0.0, 1.0, 1e-12),
            (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0, 1e-12),
            (lambda x: math.exp(-x) - 1e-3, 0.0, 50.0, 1e-10),
            (lambda m: theory.prandtl_meyer(m) - 0.4, 1.0 + 1e-12, 50.0,
             1e-12),
        ]
        for f, lo, hi, xtol in cases:
            assert abs(
                theory._brentq(f, lo, hi, xtol) - brentq(f, lo, hi, xtol=xtol)
            ) < 1e-10

    def test_endpoint_root_and_unbracketed_interval(self):
        assert theory._brentq(lambda x: x, 0.0, 1.0, 1e-12) == 0.0
        assert theory._brentq(lambda x: x - 1.0, 0.0, 1.0, 1e-12) == 1.0
        with pytest.raises(ConfigurationError):
            theory._brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12)

    def test_attachment_mach_of_the_default_wedge(self):
        # What every SimulationConfig construction solves.
        m_min = theory.minimum_attachment_mach(math.radians(30.0))
        assert theory.max_deflection(m_min)[0] == pytest.approx(
            math.radians(30.0), abs=1e-8
        )
        assert 2.5 < m_min < 2.6

    def test_stepping_the_default_wedge_never_imports_scipy(self):
        code = (
            "import sys, repro\n"
            "sim = repro.Simulation(repro.SimulationConfig(seed=1))\n"
            "sim.run(2)\n"
            "bad = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
            "assert not bad, bad\n"
        )
        env = dict(os.environ)
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
