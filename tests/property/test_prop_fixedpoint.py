"""Property-based tests of the fixed-point arithmetic invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.fixedpoint import Q8_23, quick_dirty_bits

words = arrays(
    np.int32,
    st.integers(min_value=1, max_value=64),
    elements=st.integers(min_value=-(2**30), max_value=2**30 - 1),
)

representable = arrays(
    np.float64,
    st.integers(min_value=1, max_value=64),
    elements=st.floats(
        min_value=-250.0, max_value=250.0, allow_nan=False, allow_infinity=False
    ),
)


class TestRoundtrip:
    @given(representable)
    @settings(max_examples=80, deadline=None)
    def test_encode_decode_within_half_lsb(self, vals):
        out = Q8_23.decode(Q8_23.encode(vals))
        assert np.all(np.abs(out - vals) <= Q8_23.resolution / 2 + 1e-15)

    @given(words)
    @settings(max_examples=80, deadline=None)
    def test_decode_encode_exact_on_words(self, w):
        assert np.array_equal(Q8_23.encode(Q8_23.decode(w)), w)


class TestHalveProperties:
    @given(words)
    @settings(max_examples=80, deadline=None)
    def test_truncate_never_grows_magnitude(self, w):
        out = Q8_23.halve(w, mode="truncate")
        assert np.all(np.abs(out.astype(np.int64)) <= np.abs(w.astype(np.int64)) // 2 + 0)

    @given(words)
    @settings(max_examples=80, deadline=None)
    def test_truncate_error_below_one_lsb(self, w):
        out = Q8_23.halve(w, mode="truncate").astype(np.float64)
        assert np.all(np.abs(out - w / 2.0) < 1.0)

    @given(words, st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=80, deadline=None)
    def test_stochastic_error_below_one_lsb(self, w, seed):
        bits = np.random.default_rng(seed).integers(0, 2, size=w.shape)
        out = Q8_23.halve(w, mode="stochastic", rand_bits=bits).astype(np.float64)
        assert np.all(np.abs(out - w / 2.0) <= 0.5)

    @given(words)
    @settings(max_examples=80, deadline=None)
    def test_even_words_halve_exactly_all_modes(self, w):
        even = (w // 2) * 2
        for mode in ("truncate", "floor"):
            assert np.array_equal(
                Q8_23.halve(even, mode=mode), even // 2
            )
        bits = np.zeros(even.shape, dtype=np.int32)
        assert np.array_equal(
            Q8_23.halve(even, mode="stochastic", rand_bits=bits), even // 2
        )

    @given(words)
    @settings(max_examples=50, deadline=None)
    def test_add_sub_roundtrip(self, w):
        half = Q8_23.halve(w, mode="floor")
        assert np.array_equal(Q8_23.sub(Q8_23.add(half, half), half), half)


class TestQuickDirty:
    @given(words, st.integers(min_value=1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_bits_in_range(self, w, nbits):
        out = quick_dirty_bits(w, nbits)
        assert np.all(out >= 0)
        assert np.all(out < (1 << nbits))
