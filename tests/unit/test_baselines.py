"""Unit tests for the baseline collision schemes and the heat bath."""

import pytest

from repro.baselines import (
    BaganoffSelection,
    BirdNTC,
    BirdTimeCounter,
    HeatBath,
    NanbuPloss,
)
from repro.constants import DT
from repro.errors import ConfigurationError
from repro.physics.freestream import Freestream


@pytest.fixture
def fs():
    return Freestream(mach=4.0, c_mp=0.14, lambda_mfp=2.0, density=100.0)


@pytest.fixture
def bath(fs):
    return HeatBath(n_particles=4000, n_cells=40, freestream=fs)


class TestHeatBath:
    def test_initial_population_far_from_gaussian(self, bath, rng):
        pop = bath.initial_population(rng)
        from repro.physics.distributions import excess_kurtosis

        k = excess_kurtosis(pop.u[:, None])[0]
        assert k < -1.0

    def test_validation(self, fs):
        with pytest.raises(ConfigurationError):
            HeatBath(n_particles=1, n_cells=4, freestream=fs)


class TestBird:
    def test_exact_conservation(self, bath, fs):
        r = bath.run(BirdTimeCounter(fs), steps=10, seed=1)
        assert r.energy_drift < 1e-10
        assert r.momentum_drift < 1e-10

    def test_relaxes_toward_gaussian(self, bath, fs):
        r = bath.run(BirdTimeCounter(fs), steps=60, seed=1)
        assert abs(r.final_kurtosis) < 0.25

    def test_collision_rate_matches_kinetic_theory(self, fs):
        # Half a collision per particle per mean collision time, at a
        # bath whose cell density equals the freestream anchor
        # (1600 particles / 16 cells = density 100).
        bath = HeatBath(n_particles=1600, n_cells=16, freestream=fs)
        scheme = BirdTimeCounter(fs)
        steps = 30
        r = bath.run(scheme, steps=steps, seed=2)
        expected = 0.5 * 1600 * fs.mean_speed / fs.lambda_mfp * DT * steps
        assert r.total_collisions == pytest.approx(expected, rel=0.1)

    def test_rejects_continuum(self):
        with pytest.raises(ConfigurationError):
            BirdTimeCounter(Freestream(lambda_mfp=0.0))


class TestNanbu:
    def test_one_sided_update_breaks_per_collision_conservation(self, bath, fs):
        # The paper's criticism: only cell-mean conservation.
        r = bath.run(NanbuPloss(fs), steps=30, seed=1)
        assert r.energy_drift > 1e-6
        assert r.momentum_drift > 1e-6

    def test_drift_is_still_bounded(self, bath, fs):
        # Mean conservation: the drift is statistical, not systematic.
        r = bath.run(NanbuPloss(fs), steps=30, seed=1)
        assert r.energy_drift < 0.1

    def test_relaxes_toward_gaussian(self, bath, fs):
        r = bath.run(NanbuPloss(fs), steps=60, seed=1)
        assert abs(r.final_kurtosis) < 0.25

    def test_rejects_continuum(self):
        with pytest.raises(ConfigurationError):
            NanbuPloss(Freestream(lambda_mfp=0.0))


class TestBirdNTC:
    def test_exact_conservation(self, bath, fs):
        r = bath.run(BirdNTC(fs), steps=10, seed=1)
        assert r.energy_drift < 1e-10
        assert r.momentum_drift < 1e-10

    def test_relaxes_toward_gaussian(self, bath, fs):
        r = bath.run(BirdNTC(fs), steps=60, seed=1)
        assert abs(r.final_kurtosis) < 0.25

    def test_collision_rate_matches_kinetic_theory(self, fs):
        bath = HeatBath(n_particles=1600, n_cells=16, freestream=fs)
        scheme = BirdNTC(fs)
        steps = 30
        r = bath.run(scheme, steps=steps, seed=2)
        expected = 0.5 * 1600 * fs.mean_speed / fs.lambda_mfp * DT * steps
        assert r.total_collisions == pytest.approx(expected, rel=0.1)

    def test_rate_independent_of_majorant(self, fs):
        # The defining NTC property: the majorant cancels.
        bath = HeatBath(n_particles=1600, n_cells=16, freestream=fs)
        r_lo = bath.run(BirdNTC(fs, majorant_factor=1.1), steps=20, seed=3)
        r_hi = bath.run(BirdNTC(fs, majorant_factor=3.0), steps=20, seed=3)
        assert r_hi.total_collisions == pytest.approx(
            r_lo.total_collisions, rel=0.1
        )

    def test_validation(self, fs):
        from repro.physics.freestream import Freestream as FS

        with pytest.raises(ConfigurationError):
            BirdNTC(FS(lambda_mfp=0.0))
        with pytest.raises(ConfigurationError):
            BirdNTC(fs, majorant_factor=0.5)


class TestBaganoff:
    def test_exact_conservation(self, bath, fs):
        r = bath.run(BaganoffSelection(fs), steps=10, seed=1)
        assert r.energy_drift < 1e-10
        assert r.momentum_drift < 1e-10

    def test_relaxes_toward_gaussian(self, bath, fs):
        r = bath.run(BaganoffSelection(fs), steps=60, seed=1)
        assert abs(r.final_kurtosis) < 0.25

    def test_collision_rate_comparable_to_bird(self, bath, fs):
        # Same physics, same rate (within pairing losses ~ few %).
        rb = bath.run(BirdTimeCounter(fs), steps=20, seed=3)
        rm = bath.run(BaganoffSelection(fs), steps=20, seed=3)
        assert rm.total_collisions == pytest.approx(
            rb.total_collisions, rel=0.15
        )

    def test_vectorized_speed_advantage(self, fs):
        # The fine-grained scheme's throughput should beat the per-cell
        # counter loop by a wide margin at scale.
        bath = HeatBath(n_particles=30_000, n_cells=300, freestream=fs)
        rb = bath.run(BirdTimeCounter(fs), steps=3, seed=1)
        rm = bath.run(BaganoffSelection(fs), steps=3, seed=1)
        assert rm.seconds < rb.seconds
