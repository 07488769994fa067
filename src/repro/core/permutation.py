"""Permutation-vector machinery for the collision routine.

Part of each particle's *computational state* is "a five element
permutation vector ... used in the collision routine to re-order the
relative velocity components".  The paper refreshes it by performing
**one random transposition per collision** (Aldous & Diaconis: n log n
such transpositions give a fresh permutation); the collision kernel
(:mod:`repro.core.collision`) makes that transposition.  This module
re-orders the components by the vector, vectorized across particles."""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


def apply_permutation(values: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Re-order each row of ``values`` by its permutation vector.

    ``out[i, k] = values[i, perm[i, k]]`` -- the collision routine's
    shuffling of the five relative components.
    """
    values = np.asarray(values)
    perm = np.asarray(perm)
    if values.shape != perm.shape:
        raise ConfigurationError(
            f"values {values.shape} and perm {perm.shape} shapes differ"
        )
    if values.flags.c_contiguous:
        # Flattened gather: one 1-D take instead of the (rows, perm)
        # double-index path (~2x faster on the collision hot path).
        n, k = values.shape
        idx = perm + (np.arange(n) * k)[:, None]
        return np.take(values.reshape(-1), idx)
    rows = np.arange(values.shape[0])[:, None]
    return values[rows, perm]
