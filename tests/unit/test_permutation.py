"""Unit tests for the permutation-vector machinery."""

import numpy as np
import pytest

from repro.constants import PERMUTATION_REFRESH_TRANSPOSITIONS
from repro.core.collision import _transpose_rows
from repro.core.permutation import apply_permutation
from repro.errors import ConfigurationError
from repro.rng import random_permutation_table


class TestApplyPermutation:
    def test_reorders_rows(self):
        values = np.array([[10.0, 20.0, 30.0, 40.0, 50.0]])
        perm = np.array([[4, 3, 2, 1, 0]], dtype=np.int8)
        out = apply_permutation(values, perm)
        assert out[0].tolist() == [50.0, 40.0, 30.0, 20.0, 10.0]

    def test_identity(self, rng):
        values = rng.random((20, 5))
        perm = np.tile(np.arange(5, dtype=np.int8), (20, 1))
        assert np.array_equal(apply_permutation(values, perm), values)

    def test_preserves_multiset_per_row(self, rng):
        values = rng.random((50, 5))
        perm = random_permutation_table(rng, 50)
        out = apply_permutation(values, perm)
        assert np.allclose(np.sort(out, axis=1), np.sort(values, axis=1))

    def test_norm_preserved(self, rng):
        # The eq. (18) invariant under re-ordering.
        values = rng.normal(size=(100, 5))
        perm = random_permutation_table(rng, 100)
        out = apply_permutation(values, perm)
        assert np.allclose((out**2).sum(axis=1), (values**2).sum(axis=1))

    def test_shape_mismatch(self, rng):
        with pytest.raises(ConfigurationError):
            apply_permutation(np.zeros((3, 5)), np.zeros((3, 4), dtype=np.int8))


class TestTranspose:
    """The collision kernel's refresh: one transposition with the first
    element per collision."""

    def test_swaps_with_first(self):
        perm = np.array([[0, 1, 2, 3, 4]], dtype=np.int8)
        _transpose_rows(perm, np.array([0]), np.array([3]))
        assert perm[0].tolist() == [3, 1, 2, 0, 4]

    def test_identity_swap_allowed(self):
        perm = np.array([[2, 1, 0, 3, 4]], dtype=np.int8)
        _transpose_rows(perm, np.array([0]), np.array([0]))
        assert perm[0].tolist() == [2, 1, 0, 3, 4]

    def test_rows_remain_permutations(self, rng):
        perm = random_permutation_table(rng, 200)
        rows = np.arange(200)
        for _ in range(20):
            _transpose_rows(perm, rows, rng.integers(0, 5, size=200))
        assert np.array_equal(
            np.sort(perm, axis=1),
            np.broadcast_to(np.arange(5, dtype=np.int8), (200, 5)),
        )

    def test_empty_population(self):
        perm = np.zeros((0, 5), dtype=np.int8)
        _transpose_rows(perm, np.zeros(0, dtype=np.intp),
                        np.zeros(0, dtype=np.int64))


def _fixed_fraction(before: np.ndarray, after: np.ndarray) -> float:
    """Share of permutation entries left in place (1/5 when fresh)."""
    return float(np.mean(before == after))


class TestMixing:
    def test_aldous_diaconis_refresh(self, rng):
        # After ~n log n ~ 10 transpositions (one per collision, the
        # paper's rate over 10 collisions), the permutation should be
        # statistically fresh: fixed-position fraction ~ 1/5.
        n = 20_000
        perm = random_permutation_table(rng, n)
        before = perm.copy()
        rows = np.arange(n)
        for _ in range(2 * PERMUTATION_REFRESH_TRANSPOSITIONS):
            _transpose_rows(perm, rows, rng.integers(0, 5, size=n))
        assert _fixed_fraction(before, perm) == pytest.approx(0.2, abs=0.02)

    def test_single_transposition_still_correlated(self, rng):
        # One transposition is NOT a fresh permutation (the paper leans
        # on partner randomization to compensate).
        n = 20_000
        perm = random_permutation_table(rng, n)
        before = perm.copy()
        _transpose_rows(perm, np.arange(n), rng.integers(0, 5, size=n))
        assert _fixed_fraction(before, perm) > 0.5
