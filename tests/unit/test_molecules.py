"""Unit tests for the molecular interaction models."""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.physics.molecules import (
    MolecularModel,
    hard_sphere,
    maxwell_molecule,
    vhs_like,
)


class TestMaxwellMolecule:
    def test_speed_exponent_vanishes(self):
        # Eq. (8): Maxwell molecules (alpha = 4) drop the g dependence.
        assert maxwell_molecule().speed_exponent == 0.0
        assert maxwell_molecule().is_maxwell

    def test_diatomic_by_default(self):
        m = maxwell_molecule()
        assert m.rotational_dof == 2

    def test_speed_factor_is_unity(self, rng):
        g = rng.random(100) * 2
        f = maxwell_molecule().speed_factor(g, g_ref=1.0)
        assert np.allclose(f, 1.0)


class TestHardSphere:
    def test_speed_exponent_is_one(self):
        assert hard_sphere().speed_exponent == 1.0

    def test_speed_factor_linear(self):
        f = hard_sphere().speed_factor(np.array([0.5, 1.0, 2.0]), g_ref=1.0)
        assert np.allclose(f, [0.5, 1.0, 2.0])

    def test_zero_relative_speed_never_collides(self):
        f = hard_sphere().speed_factor(np.array([0.0]), g_ref=1.0)
        assert f[0] == 0.0


class TestPowerLaw:
    def test_future_work_general_alpha(self):
        # alpha = 8: exponent 1 - 4/8 = 0.5.
        m = vhs_like(8.0)
        assert m.speed_exponent == pytest.approx(0.5)
        f = m.speed_factor(np.array([4.0]), g_ref=1.0)
        assert f[0] == pytest.approx(2.0)

    def test_soft_molecules_negative_exponent(self):
        # 2 < alpha < 4: probability *rises* as g falls; zero-g pairs
        # clamp to 0 (no momentum to exchange).
        m = vhs_like(3.0)
        assert m.speed_exponent < 0
        f = m.speed_factor(np.array([0.0, 0.25]), g_ref=1.0)
        assert f[0] == 0.0
        assert f[1] > 1.0

    def test_alpha_at_most_2_rejected(self):
        with pytest.raises(ConfigurationError):
            MolecularModel(alpha=2.0)

    def test_negative_dof_rejected(self):
        with pytest.raises(ConfigurationError):
            MolecularModel(rotational_dof=-1)

    def test_nonpositive_mass_rejected(self):
        with pytest.raises(ConfigurationError):
            MolecularModel(mass=0.0)

    def test_gref_validated(self):
        with pytest.raises(ConfigurationError):
            hard_sphere().speed_factor(np.array([1.0]), g_ref=0.0)
