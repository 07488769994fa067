"""Unit tests for the freestream normalization."""

import math

import pytest

from repro.constants import GAMMA, MAX_COLLISION_PROBABILITY
from repro.errors import ConfigurationError
from repro.physics.freestream import Freestream


class TestVelocityScales:
    def test_sound_speed_relation(self):
        fs = Freestream(c_mp=0.2)
        assert fs.sound_speed == pytest.approx(0.2 * math.sqrt(GAMMA / 2))

    def test_bulk_speed_is_mach_times_sound(self):
        fs = Freestream(mach=4.0, c_mp=0.14)
        assert fs.speed == pytest.approx(4.0 * fs.sound_speed)

    def test_mean_speed_over_most_probable(self):
        fs = Freestream(c_mp=1.0)
        assert fs.mean_speed == pytest.approx(2 / math.sqrt(math.pi))

    def test_rt(self):
        assert Freestream(c_mp=0.2).rt == pytest.approx(0.02)


class TestCollisionQuantities:
    def test_near_continuum_limit(self):
        fs = Freestream(lambda_mfp=0.0)
        assert fs.is_near_continuum
        assert fs.collision_probability == 1.0
        assert fs.mean_collision_time == 0.0

    def test_eq3_eq4(self):
        # t_c = lambda / c_bar ; P = dt / t_c.
        fs = Freestream(c_mp=0.14, lambda_mfp=1.0)
        assert fs.mean_collision_time == pytest.approx(1.0 / fs.mean_speed)
        assert fs.collision_probability == pytest.approx(fs.mean_speed)

    def test_validity_bound_enforced(self):
        ok = Freestream(c_mp=0.14, lambda_mfp=0.5)
        ok.check_selection_rule_validity()
        bad = Freestream(c_mp=0.14, lambda_mfp=0.2)
        assert bad.collision_probability > MAX_COLLISION_PROBABILITY
        with pytest.raises(ConfigurationError):
            bad.check_selection_rule_validity()

    def test_continuum_exempt_from_bound(self):
        Freestream(lambda_mfp=0.0).check_selection_rule_validity()


class TestDimensionlessGroups:
    def test_paper_knudsen(self):
        # lambda = 0.5, wedge length 25 -> Kn = 0.02.
        fs = Freestream(lambda_mfp=0.5)
        assert fs.knudsen(25.0) == pytest.approx(0.02)

    def test_paper_reynolds(self):
        # Default viscosity coefficient reproduces Re ~ 600 within a few
        # percent.
        fs = Freestream(mach=4.0, lambda_mfp=0.5)
        assert fs.reynolds(25.0) == pytest.approx(600.0, rel=0.05)

    def test_continuum_reynolds_infinite(self):
        assert Freestream(lambda_mfp=0.0).reynolds(25.0) == math.inf

    def test_invalid_length(self):
        with pytest.raises(ConfigurationError):
            Freestream().knudsen(0.0)


class TestConstruction:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mach": 0.0},
            {"c_mp": 0.0},
            {"lambda_mfp": -1.0},
            {"density": 0.0},
            {"gamma": 1.0},
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ConfigurationError):
            Freestream(**kwargs)

    def test_drift_vector_is_streamwise(self):
        fs = Freestream(mach=4.0)
        d = fs.drift_vector()
        assert d[0] == pytest.approx(fs.speed)
        assert d[1] == 0.0 and d[2] == 0.0
