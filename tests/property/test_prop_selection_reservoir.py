"""Property-based tests: selection-rule and reservoir invariants."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.cells import cell_populations
from repro.core.pairing import even_odd_pairs
from repro.core.particles import ParticleArrays
from repro.core.reservoir import Reservoir
from repro.core.selection import collision_probabilities
from repro.physics.freestream import Freestream
from repro.physics.molecules import hard_sphere, maxwell_molecule
from repro.rng import make_rng


def make_population(seed, n, n_cells, fs):
    rng = make_rng(seed)
    pop = ParticleArrays.from_freestream(rng, n, fs, (0, 1), (0, 1))
    pop.cell = np.sort(rng.integers(0, n_cells, size=n)).astype(np.int64)
    return pop


freestreams = st.builds(
    Freestream,
    mach=st.floats(min_value=1.5, max_value=8.0),
    c_mp=st.floats(min_value=0.05, max_value=0.14),
    lambda_mfp=st.floats(min_value=0.5, max_value=5.0),
    density=st.floats(min_value=4.0, max_value=64.0),
)


class TestSelectionProperties:
    @given(
        freestreams,
        st.integers(min_value=2, max_value=400),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_probabilities_are_probabilities(self, fs, n, n_cells, seed):
        assume(fs.collision_probability <= 1 / 3)
        pop = make_population(seed, n, n_cells, fs)
        pairs = even_odd_pairs(pop.cell)
        counts = cell_populations(pop.cell, n_cells)
        for model in (maxwell_molecule(), hard_sphere()):
            prob, g = collision_probabilities(pop, pairs, fs, model, counts)
            assert np.all(prob >= 0.0)
            assert np.all(prob <= 1.0)
            # Only a speed-dependent model reads (and returns) g.
            assert (g is None) == (model.speed_exponent == 0.0)
            assert g is None or np.all(g >= 0.0)
            # Non-candidates never collide.
            assert np.all(prob[~pairs.same_cell] == 0.0)

    @given(
        freestreams,
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_probability_monotone_in_density(self, fs, seed):
        assume(fs.collision_probability <= 1 / 3)
        # Two cells, one twice as populated: the denser cell's pairs
        # must have >= probability (Maxwell molecules).
        rng = make_rng(seed)
        n_a, n_b = 8, 16
        pop = ParticleArrays.from_freestream(
            rng, n_a + n_b, fs, (0, 1), (0, 1)
        )
        pop.cell = np.array([0] * n_a + [1] * n_b, dtype=np.int64)
        pairs = even_odd_pairs(pop.cell)
        counts = cell_populations(pop.cell, 2)
        prob, _ = collision_probabilities(
            pop, pairs, fs, maxwell_molecule(), counts
        )
        cand = pairs.same_cell
        in_a = cand & (pop.cell[pairs.first] == 0)
        in_b = cand & (pop.cell[pairs.first] == 1)
        if in_a.any() and in_b.any():
            assert prob[in_b].min() >= prob[in_a].max() - 1e-12


class TestReservoirProperties:
    @given(
        st.integers(min_value=0, max_value=300),
        st.integers(min_value=0, max_value=300),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_deposit_withdraw_accounting(self, n_dep, n_wd, seed):
        rng = make_rng(seed)
        fs = Freestream(mach=4.0, c_mp=0.14, lambda_mfp=0.5, density=8.0)
        res = Reservoir(fs)
        res.deposit(rng, n_dep)
        out = res.withdraw(rng, n_wd)
        assert out.n == n_wd
        assert res.size == max(n_dep - n_wd, 0)
        out.validate()

    @given(
        st.integers(min_value=2, max_value=500),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_mix_conserves(self, n, rounds, seed):
        rng = make_rng(seed)
        fs = Freestream(mach=4.0, c_mp=0.14, lambda_mfp=0.5, density=8.0)
        res = Reservoir(fs)
        res.deposit(rng, n)
        e0 = res.particles.total_energy()
        p0 = res.particles.momentum()
        res.mix(rng, rounds=rounds)
        assert np.isclose(res.particles.total_energy(), e0, rtol=1e-10)
        assert np.allclose(res.particles.momentum(), p0, atol=1e-9)
        res.particles.validate()
