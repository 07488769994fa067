"""Prepared collision words for tests that need a chosen outcome.

The collision kernels take all of a collision's randomness from one
word (:func:`repro.core.collision._collision_words`): the low ``k``
bits are the signs of the mixed half-relatives (bit set: ``+``), the
high part ``ja * k + jb`` the two partners' permutation-refresh
transpositions.  :class:`ScriptedWords` stands in for the generator and
hands the kernel the words that spell given signs and transpositions.
"""

import numpy as np


class ScriptedWords:
    """A one-call generator stand-in that returns prepared words.

    ``signs`` is ``(m, k)`` of +-1, ``ja`` / ``jb`` are ``(m,)``
    transpositions of the first and second partners.
    """

    def __init__(self, signs, ja, jb):
        signs = np.asarray(signs)
        k = signs.shape[1]
        bits = ((signs > 0) << np.arange(k)).sum(axis=1)
        high = np.asarray(ja, dtype=np.int64) * k + np.asarray(jb)
        self.bound = k * k << k
        self.words = bits | (high << k)

    def integers(self, low, high, size=None, dtype=np.int64):
        assert (low, high, size) == (0, self.bound, self.words.shape[0])
        return self.words.astype(dtype)
