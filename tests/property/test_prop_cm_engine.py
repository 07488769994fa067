"""Property-based tests of the CM engine's fixed-point invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cm.machine import CM2
from repro.core.engine_cm import fixed_point_energy_drift


class TestFixedPointCollisionProperties:
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.floats(min_value=64.0, max_value=4096.0),
    )
    @settings(max_examples=15, deadline=None)
    def test_stochastic_drift_small_for_any_bath(self, seed, c_mp_lsb):
        drift = fixed_point_energy_drift(
            "stochastic", rounds=10, n_particles=1000,
            c_mp_lsb=c_mp_lsb, seed=seed,
        )
        # Stochastic rounding: drift stays within a few percent even on
        # very cold baths over 10 rounds.
        assert abs(drift) < 0.05

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_truncation_always_loses(self, seed):
        drift = fixed_point_energy_drift(
            "truncate", rounds=15, n_particles=1000,
            c_mp_lsb=96.0, seed=seed,
        )
        assert drift < 0.0

    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.sampled_from(["truncate", "stochastic", "floor"]),
    )
    @settings(max_examples=15, deadline=None)
    def test_drift_bounded_by_lsb_scale(self, seed, mode):
        # Per-collision energy error is O(LSB * h); on a warm bath
        # (4096 LSB) even 20 rounds of truncation stay under 1%.
        drift = fixed_point_energy_drift(
            mode, rounds=20, n_particles=800, c_mp_lsb=4096.0, seed=seed
        )
        assert abs(drift) < 0.01


class TestVPGeometryProperties:
    @given(
        st.integers(min_value=0, max_value=10),   # log2 processors
        st.integers(min_value=1, max_value=5000),
    )
    @settings(max_examples=60, deadline=None)
    def test_vpr_covers_population(self, log_p, n):
        m = CM2(n_processors=2**log_p)
        g = m.geometry(n)
        assert g.vpr * m.n_processors >= n
        assert (g.vpr - 1) * m.n_processors < n

    @given(
        st.integers(min_value=1, max_value=8),    # log2 processors
        st.integers(min_value=2, max_value=4096),
    )
    @settings(max_examples=60, deadline=None)
    def test_pair_offchip_zero_iff_even_vpr(self, log_p, n):
        m = CM2(n_processors=2**log_p)
        g = m.geometry(n)
        f = g.pair_offchip_fraction()
        assert 0.0 <= f <= 1.0
        if g.vpr % 2 == 0:
            assert f == 0.0
        if g.vpr == 1 and n >= 2 * m.n_processors - 1:
            assert f == 1.0
