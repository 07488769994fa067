"""Property-based tests of the macroscopic sampler's invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cells import assign_cells
from repro.core.particles import ParticleArrays
from repro.core.sampling import CellSampler
from repro.geometry.domain import Domain
from repro.physics.freestream import Freestream
from repro.rng import make_rng


def population(seed, n, domain):
    rng = make_rng(seed)
    fs = Freestream(mach=4.0, c_mp=0.14, lambda_mfp=0.5, density=8.0)
    pop = ParticleArrays.from_freestream(
        rng, n, fs, (0, domain.width), (0, domain.height)
    )
    assign_cells(pop, domain)
    return pop


class TestSamplerProperties:
    @given(
        st.integers(min_value=1, max_value=2000),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_density_integrates_to_population(self, n, seed, snaps):
        d = Domain(8, 6)
        s = CellSampler(d)
        pop = population(seed, n, d)
        for _ in range(snaps):
            s.accumulate(pop)
        # Mean density times cell count equals the (constant) population.
        total = s.number_density().sum()
        assert np.isclose(total, n, rtol=1e-12)

    @given(
        st.integers(min_value=50, max_value=2000),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_momentum_consistency(self, n, seed):
        # Sum over cells of (count * mean velocity) equals the total
        # momentum of the population.
        d = Domain(8, 6)
        s = CellSampler(d)
        pop = population(seed, n, d)
        s.accumulate(pop)
        u, v, w = s.mean_velocity()
        counts = s.number_density()  # 1 snapshot, unit volumes
        assert np.isclose((counts * u).sum(), pop.u.sum(), rtol=1e-9)
        assert np.isclose((counts * v).sum(), pop.v.sum(), rtol=1e-9)

    @given(
        st.integers(min_value=50, max_value=1000),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_temperatures_nonnegative(self, n, seed):
        d = Domain(6, 5)
        s = CellSampler(d)
        pop = population(seed, n, d)
        s.accumulate(pop)
        assert (s.translational_temperature() >= 0).all()

    @given(
        st.integers(min_value=10, max_value=500),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_accumulate_is_additive(self, n, seed):
        # Accumulating the same snapshot twice doubles the counts and
        # leaves the (intensive) density unchanged.
        d = Domain(6, 5)
        s1, s2 = CellSampler(d), CellSampler(d)
        pop = population(seed, n, d)
        s1.accumulate(pop)
        s2.accumulate(pop)
        s2.accumulate(pop)
        assert np.allclose(s1.number_density(), s2.number_density())
        assert s2.steps == 2 * s1.steps
