"""Fixed-point arithmetic substrate (the CM-2 integer implementation).

The paper stores the physical state of a particle in a 32-bit fixed
point format with 23 bits of precision, and corrects the truncation
error of divide-by-two with stochastic rounding.  This subpackage
provides that arithmetic on NumPy ``int32`` arrays:

* :class:`~repro.fixedpoint.qformat.QFormat` -- the representation
  (integer/fraction bit split, encode/decode, overflow checks);
* halving with truncating or stochastically rounded semantics;
* the "quick & dirty" low-order-bit random numbers the paper draws from
  the particle state words.
"""

from repro.fixedpoint.qformat import QFormat, Q8_23, quick_dirty_bits

__all__ = ["QFormat", "Q8_23", "quick_dirty_bits"]
