"""Q-format fixed-point arithmetic on NumPy int32 arrays.

The CM-2 implementation of the paper is an *integer* implementation: a
particle's physical state is held in 32-bit words with 23 fractional
bits (one sign bit and 8 integer bits remain, so representable values
span ``[-256, 256)`` with resolution ``2**-23``).  The paper notes this
"compares favourably with the IEEE floating point standard which
employs a 23 bit mantissa".

Two behaviours of that arithmetic matter physically and are modelled
here exactly:

* **Truncating division by two** consistently loses energy when the
  collision routine computes mean and relative velocities (eqs. (12)-(15)
  of the paper); the loss is worst in stagnation regions where the
  velocity words are small.  The fix is **stochastic rounding**: add 0
  or 1 with uniform probability so the rounding is correct *in a
  statistical sense*.

* The low-order bits of a state word provide a **"quick but dirty"
  random number** "of limited size and unspecified distribution" used
  in low-impact situations: sort-key mixing, choosing the random
  transposition, choosing random signs, and the stochastic-rounding bit
  itself.

All operations are vectorized over arrays; no Python-level loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.errors import ConfigurationError, FixedPointOverflowError

ArrayLike = Union[np.ndarray, float, int]

#: Rounding mode names accepted by :meth:`QFormat.halve`.
HALVE_MODES = ("truncate", "stochastic", "floor", "exact_paper")


@dataclass(frozen=True)
class QFormat:
    """A signed fixed-point format with ``frac_bits`` fractional bits.

    Values are stored in ``int32`` words.  A real number ``v`` is
    represented by the integer ``round(v * 2**frac_bits)``.

    Parameters
    ----------
    frac_bits:
        Number of fractional bits (the paper uses 23).
    word_bits:
        Total word size in bits; only 32 is supported (the CM-2 format),
        but the field is kept explicit so formats are self-describing.
    check_overflow:
        When True (default), encode/add/mul raise
        :class:`FixedPointOverflowError` if a result leaves the
        representable range.  Benchmarked hot loops may disable it.
    """

    frac_bits: int = 23
    word_bits: int = 32
    check_overflow: bool = True

    def __post_init__(self) -> None:
        if self.word_bits != 32:
            raise ConfigurationError(
                f"only 32-bit words are supported (got {self.word_bits})"
            )
        if not (1 <= self.frac_bits <= 30):
            raise ConfigurationError(
                f"frac_bits must be in [1, 30], got {self.frac_bits}"
            )

    # -- representation ------------------------------------------------

    @property
    def scale(self) -> int:
        """Scale factor ``2**frac_bits``."""
        return 1 << self.frac_bits

    @property
    def resolution(self) -> float:
        """Smallest representable increment (one LSB)."""
        return 1.0 / self.scale

    @property
    def max_value(self) -> float:
        """Largest representable real value."""
        return (2**31 - 1) / self.scale

    @property
    def min_value(self) -> float:
        """Smallest (most negative) representable real value."""
        return -(2**31) / self.scale

    def encode(self, values: ArrayLike) -> np.ndarray:
        """Convert real values to fixed-point words (round to nearest)."""
        scaled = np.rint(np.asarray(values, dtype=np.float64) * self.scale)
        if self.check_overflow:
            if np.any(scaled > 2**31 - 1) or np.any(scaled < -(2**31)):
                bad = np.asarray(values)[
                    (scaled > 2**31 - 1) | (scaled < -(2**31))
                ]
                raise FixedPointOverflowError(
                    f"value(s) out of Q{31 - self.frac_bits}."
                    f"{self.frac_bits} range [{self.min_value}, "
                    f"{self.max_value}]: e.g. {np.ravel(bad)[:3]}"
                )
        return scaled.astype(np.int32)

    def decode(self, words: np.ndarray) -> np.ndarray:
        """Convert fixed-point words back to float64 values."""
        return np.asarray(words, dtype=np.float64) / self.scale

    # -- arithmetic ----------------------------------------------------

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Fixed-point addition (words add directly)."""
        out = np.add(a, b, dtype=np.int64)
        return self._narrow(out)

    def sub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Fixed-point subtraction."""
        out = np.subtract(a, b, dtype=np.int64)
        return self._narrow(out)

    def halve(
        self,
        a: np.ndarray,
        mode: str = "stochastic",
        rand_bits: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Divide words by two under the selected rounding semantics.

        ``mode``:

        * ``"truncate"`` -- round toward zero, the raw CM-2 integer
          divide.  Systematically shrinks magnitudes: this is the mode
          whose cumulative energy loss the paper observed in stagnation
          regions.
        * ``"stochastic"`` -- add a uniform 0/1 bit *before* the shift,
          so odd words round up or down with equal probability; the
          expected value is exact and even words are untouched.  This is
          the statistically correct rounding the paper adopts.
        * ``"floor"`` -- arithmetic shift right (round toward -inf);
          included for completeness/ablation.
        * ``"exact_paper"`` -- the paper's literal wording ("adding with
          uniform probability either 0 or 1 to the result of this
          division"), i.e. the bit is added *after* a truncating divide.
          Unbiased for odd words but biased +0.5 LSB for even words;
          kept so the ablation bench can show why adding the bit before
          the shift is the right reading.

        ``rand_bits`` supplies the 0/1 bits for the stochastic modes
        (e.g. from :func:`quick_dirty_bits`); if omitted they are drawn
        from a module-level generator.
        """
        a = np.asarray(a)
        if mode == "floor":
            return (a >> 1).astype(np.int32)
        if mode == "truncate":
            # Round toward zero: floor-shift, then bump negatives that
            # had a dropped bit back toward zero.
            return ((a + (a < 0)) >> 1).astype(np.int32)
        if mode in ("stochastic", "exact_paper"):
            if rand_bits is None:
                rand_bits = _module_rng().integers(
                    0, 2, size=a.shape, dtype=np.int32
                )
            bits = np.asarray(rand_bits, dtype=np.int32) & 1
            if mode == "stochastic":
                return ((a + bits) >> 1).astype(np.int32)
            return (((a + (a < 0)) >> 1) + bits).astype(np.int32)
        raise ConfigurationError(
            f"unknown halve mode {mode!r}; expected one of {HALVE_MODES}"
        )

    def _narrow(self, wide: np.ndarray) -> np.ndarray:
        """Narrow an int64 intermediate back to int32 words."""
        if self.check_overflow:
            if np.any(wide > 2**31 - 1) or np.any(wide < -(2**31)):
                raise FixedPointOverflowError(
                    "fixed-point operation overflowed 32-bit word"
                )
            return wide.astype(np.int32)
        # Wrap-around semantics, as real hardware would.
        return (wide & 0xFFFFFFFF).astype(np.uint32).view(np.int32).reshape(
            wide.shape
        )


#: The paper's format: 32-bit words, 23 fractional bits.
Q8_23 = QFormat(frac_bits=23)


# ---------------------------------------------------------------------------
# "Quick but dirty" low-order-bit random numbers
# ---------------------------------------------------------------------------

def quick_dirty_bits(words: np.ndarray, nbits: int, shift: int = 0) -> np.ndarray:
    """Extract ``nbits`` low-order bits from state words.

    The paper: "An additional advantage of this implementation is the
    availability of a quick but dirty random number in the low order
    bits of a physical state quantity."  After a few collisionful time
    steps the low fractional bits of a particle's position/velocity are
    effectively chaotic; they are used for low-impact draws only.

    Parameters
    ----------
    words:
        int32 state words (any shape).
    nbits:
        How many bits to extract (1..16).
    shift:
        Skip this many lowest bits first (bit 0 is often consumed by the
        stochastic-rounding draw, so other draws read higher bits).
    """
    if not 1 <= nbits <= 16:
        raise ConfigurationError(f"nbits must be in [1, 16], got {nbits}")
    if shift < 0 or shift + nbits > 31:
        raise ConfigurationError(f"invalid shift {shift} for {nbits} bits")
    mask = (1 << nbits) - 1
    return ((np.asarray(words, dtype=np.int64) >> shift) & mask).astype(np.int32)


_RNG_CACHE: dict = {}


def _module_rng() -> np.random.Generator:
    """Fallback generator for stochastic halving without explicit bits."""
    if "rng" not in _RNG_CACHE:
        _RNG_CACHE["rng"] = np.random.default_rng(0xC0FFEE)
    return _RNG_CACHE["rng"]
