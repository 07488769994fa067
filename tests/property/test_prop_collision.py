"""Property-based tests of the collision algorithm's invariants.

The conservation laws (eq. (18) and momentum) must hold for *arbitrary*
particle states, not just thermal ones -- exactly what hypothesis is
for.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import chisquare

from repro.core.collision import collide_pairs, collide_rows_with_velocities
from repro.core.particles import ParticleArrays
from repro.rng import random_permutation_table

finite = st.floats(
    min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False
)


def velocity_arrays(n_pairs):
    shape = (2 * n_pairs,)
    return arrays(np.float64, shape, elements=finite)


@st.composite
def pair_populations(draw, max_pairs=16):
    n_pairs = draw(st.integers(min_value=1, max_value=max_pairs))
    n = 2 * n_pairs
    rng_seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    u = draw(velocity_arrays(n_pairs))
    v = draw(velocity_arrays(n_pairs))
    w = draw(velocity_arrays(n_pairs))
    r1 = draw(velocity_arrays(n_pairs))
    r2 = draw(velocity_arrays(n_pairs))
    rng = np.random.default_rng(rng_seed)
    pop = ParticleArrays(
        x=np.zeros(n),
        y=np.zeros(n),
        u=u.copy(),
        v=v.copy(),
        w=w.copy(),
        rot=np.column_stack((r1, r2)),
        perm=random_permutation_table(rng, n),
        cell=np.zeros(n, dtype=np.int64),
    )
    first = np.arange(0, n, 2)
    second = first + 1
    return pop, first, second, rng


class TestConservationProperties:
    @given(pair_populations())
    @settings(max_examples=60, deadline=None)
    def test_energy_conserved(self, data):
        pop, first, second, rng = data
        e0 = pop.total_energy()
        collide_pairs(pop, first, second, rng=rng)
        e1 = pop.total_energy()
        assert np.isclose(e1, e0, rtol=1e-10, atol=1e-12)

    @given(pair_populations())
    @settings(max_examples=60, deadline=None)
    def test_momentum_conserved(self, data):
        pop, first, second, rng = data
        p0 = pop.momentum()
        collide_pairs(pop, first, second, rng=rng)
        assert np.allclose(pop.momentum(), p0, rtol=1e-10, atol=1e-10)

    @given(pair_populations())
    @settings(max_examples=60, deadline=None)
    def test_rotational_mean_preserved(self, data):
        # Eqs. (16)-(17): the pair's rotational mean passes through.
        pop, first, second, rng = data
        s0 = pop.rot[first] + pop.rot[second]
        collide_pairs(pop, first, second, rng=rng)
        s1 = pop.rot[first] + pop.rot[second]
        assert np.allclose(s1, s0, rtol=1e-10, atol=1e-10)

    @given(pair_populations())
    @settings(max_examples=60, deadline=None)
    def test_permutations_stay_valid(self, data):
        pop, first, second, rng = data
        collide_pairs(pop, first, second, rng=rng)
        pop.validate()

    @given(pair_populations())
    @settings(max_examples=40, deadline=None)
    def test_relative_norm_preserved_eq18(self, data):
        # The five-element half-relative vector's norm is invariant.
        pop, first, second, rng = data
        def relative_norms():
            h = np.empty((first.size, 5))
            h[:, 0] = 0.5 * (pop.u[first] - pop.u[second])
            h[:, 1] = 0.5 * (pop.v[first] - pop.v[second])
            h[:, 2] = 0.5 * (pop.w[first] - pop.w[second])
            h[:, 3:] = 0.5 * (pop.rot[first] - pop.rot[second])
            return (h**2).sum(axis=1)
        n0 = relative_norms()
        collide_pairs(pop, first, second, rng=rng)
        assert np.allclose(relative_norms(), n0, rtol=1e-10, atol=1e-12)


class TestOneWordOutcomes:
    """One word per collision is the joint law of k signs and 2 swaps.

    A pair whose second partner is at rest and whose first partner has
    identity permutation vectors shows its whole draw in its outcome:
    component j of the first partner keeps its value (sign +) or drops
    to 0 (sign -), and each partner's permutation vector now starts
    with the index its transposition swapped in.  Over many pairs the
    k^2 2^k outcomes must be uniform -- fair, independent signs and
    uniform, independent transpositions -- through the shipped kernel.
    """

    @given(
        seed=st.integers(min_value=0, max_value=2**63 - 1),
        rdof=st.sampled_from([0, 2, 3]),
    )
    @settings(max_examples=6, deadline=None)
    def test_outcomes_are_uniform(self, seed, rdof):
        k = 3 + rdof
        n_outcomes = k * k << k
        m = 40 * n_outcomes
        n = 2 * m
        values = np.arange(1.0, k + 1.0)
        pop = ParticleArrays(
            x=np.zeros(n), y=np.zeros(n),
            u=np.tile([values[0], 0.0], m),
            v=np.tile([values[1], 0.0], m),
            w=np.tile([values[2], 0.0], m),
            rot=np.tile(np.vstack([values[3:], np.zeros(rdof)]), (m, 1)),
            perm=np.tile(np.arange(k, dtype=np.int8), (n, 1)),
            cell=np.zeros(n, dtype=np.int64),
        )
        a, b = np.arange(0, n, 2), np.arange(1, n, 2)
        velocities = [col[r] for col in (pop.u, pop.v, pop.w) for r in (a, b)]
        collide_rows_with_velocities(
            pop, a, b, *velocities, rng=np.random.default_rng(seed)
        )
        after = np.column_stack((pop.u[a], pop.v[a], pop.w[a], pop.rot[a]))
        assert ((after == 0.0) | (after == values)).all()
        bits = ((after != 0) << np.arange(k)).sum(axis=1)
        ja, jb = pop.perm[a, 0].astype(np.int64), pop.perm[b, 0]
        outcome = ((ja * k + jb) << k) | bits
        counts = np.bincount(outcome, minlength=n_outcomes)
        assert counts.shape == (n_outcomes,)
        _, p = chisquare(counts)
        assert p > 1e-6, f"chi-square p = {p:.2g} over {n_outcomes} outcomes"
