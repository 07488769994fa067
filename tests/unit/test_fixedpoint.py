"""Unit tests for the Q8.23 fixed-point substrate."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, FixedPointOverflowError
from repro.fixedpoint import Q8_23, QFormat, quick_dirty_bits


class TestQFormatBasics:
    def test_paper_format_resolution(self):
        # 23 fractional bits: resolution 2**-23, matching the IEEE
        # single mantissa the paper compares against.
        assert Q8_23.frac_bits == 23
        assert Q8_23.resolution == pytest.approx(2**-23)

    def test_range_is_plus_minus_256(self):
        assert Q8_23.max_value == pytest.approx(256.0, rel=1e-6)
        assert Q8_23.min_value == -256.0

    def test_encode_decode_roundtrip(self):
        vals = np.array([0.0, 1.0, -1.5, 97.25, -0.140625])
        assert np.allclose(Q8_23.decode(Q8_23.encode(vals)), vals)

    def test_encode_rounds_to_nearest(self):
        # A value halfway below one LSB should round to the nearest code.
        v = 3 * Q8_23.resolution / 4
        assert Q8_23.decode(Q8_23.encode(v)) == pytest.approx(
            Q8_23.resolution, abs=1e-12
        )

    def test_encode_overflow_raises(self):
        with pytest.raises(FixedPointOverflowError):
            Q8_23.encode(np.array([300.0]))

    def test_encode_negative_overflow_raises(self):
        with pytest.raises(FixedPointOverflowError):
            Q8_23.encode(np.array([-257.0]))

    def test_invalid_frac_bits_rejected(self):
        with pytest.raises(ConfigurationError):
            QFormat(frac_bits=0)
        with pytest.raises(ConfigurationError):
            QFormat(frac_bits=31)

    def test_only_32bit_words(self):
        with pytest.raises(ConfigurationError):
            QFormat(frac_bits=23, word_bits=16)


class TestArithmetic:
    def test_add_sub_exact(self):
        a = Q8_23.encode(np.array([1.25, -2.5]))
        b = Q8_23.encode(np.array([0.75, 0.5]))
        assert np.allclose(Q8_23.decode(Q8_23.add(a, b)), [2.0, -2.0])
        assert np.allclose(Q8_23.decode(Q8_23.sub(a, b)), [0.5, -3.0])

    def test_add_overflow_detected(self):
        a = Q8_23.encode(np.array([255.0]))
        with pytest.raises(FixedPointOverflowError):
            Q8_23.add(a, a)

    def test_add_wraps_when_unchecked(self):
        q = QFormat(frac_bits=23, check_overflow=False)
        a = q.encode(np.array([255.0]))
        out = q.add(a, a)  # wraps like hardware
        assert out.dtype == np.int32


class TestHalving:
    def test_truncate_rounds_toward_zero(self):
        a = np.array([5, -5, 4, -4], dtype=np.int32)
        out = Q8_23.halve(a, mode="truncate")
        assert out.tolist() == [2, -2, 2, -2]

    def test_floor_mode(self):
        a = np.array([5, -5], dtype=np.int32)
        out = Q8_23.halve(a, mode="floor")
        assert out.tolist() == [2, -3]

    def test_stochastic_even_exact(self):
        a = np.array([4, -4, 0], dtype=np.int32)
        bits = np.array([1, 1, 1], dtype=np.int32)
        out = Q8_23.halve(a, mode="stochastic", rand_bits=bits)
        # (4+1)>>1 == 2, (-4+1)>>1 == -2 (floor of -1.5 is -2)... check:
        assert out[0] == 2
        assert out[2] == 0

    def test_stochastic_is_unbiased_on_odd(self):
        rng = np.random.default_rng(0)
        a = np.full(200_000, 7, dtype=np.int32)
        bits = rng.integers(0, 2, size=a.size, dtype=np.int32)
        out = Q8_23.halve(a, mode="stochastic", rand_bits=bits)
        assert out.mean() == pytest.approx(3.5, abs=0.01)

    def test_truncate_is_biased_on_odd(self):
        a = np.full(1000, 7, dtype=np.int32)
        out = Q8_23.halve(a, mode="truncate")
        assert out.mean() == pytest.approx(3.0)

    def test_exact_paper_mode_biased_on_even(self):
        rng = np.random.default_rng(0)
        a = np.full(100_000, 8, dtype=np.int32)
        bits = rng.integers(0, 2, size=a.size, dtype=np.int32)
        out = Q8_23.halve(a, mode="exact_paper", rand_bits=bits)
        assert out.mean() == pytest.approx(4.5, abs=0.02)

    def test_unknown_mode_raises(self):
        with pytest.raises(ConfigurationError):
            Q8_23.halve(np.array([1], dtype=np.int32), mode="banker")

    def test_truncation_shrinks_magnitude_statistically(self):
        # The energy-loss mechanism: |halve(x)| <= |x|/2 always under
        # truncation.
        rng = np.random.default_rng(3)
        a = rng.integers(-1000, 1000, size=10_000).astype(np.int32)
        out = Q8_23.halve(a, mode="truncate")
        assert np.all(np.abs(out) <= np.abs(a) / 2.0)


class TestQuickDirtyBits:
    def test_extracts_masked_bits(self):
        words = np.array([0b101101], dtype=np.int32)
        assert quick_dirty_bits(words, 3).tolist() == [0b101]
        assert quick_dirty_bits(words, 3, shift=3).tolist() == [0b101]

    def test_bad_args_raise(self):
        w = np.array([1], dtype=np.int32)
        with pytest.raises(ConfigurationError):
            quick_dirty_bits(w, 0)
        with pytest.raises(ConfigurationError):
            quick_dirty_bits(w, 17)
        with pytest.raises(ConfigurationError):
            quick_dirty_bits(w, 8, shift=30)
