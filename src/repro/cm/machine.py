"""CM-2 machine description and virtual-processor geometry.

The Connection Machine model 2 is a SIMD array of bit-serial processors
(16 per chip, chips wired as a boolean hypercube).  Two facts about the
machine shape everything in the paper:

* **Virtual processors.**  The system software time-slices each physical
  processor over ``VPR`` virtual processors.  The paper maps one
  *particle* per virtual processor, so problem size is limited only by
  memory.  All per-element work therefore costs ``O(VPR)`` physical
  cycles, and *communication between VPs on the same physical processor
  is memory traffic, not router traffic* -- the source of the big
  performance step between VPR 1 and 2 in Figure 7.

* **Bit-serial ALUs.**  A b-bit integer operation costs O(b) cycles,
  which is why the paper chose a 32-bit fixed-point representation over
  floating point.

The emulation keeps these structural facts (block VP mapping, per-bit
costs, on-chip vs off-chip traffic) and calibrates the remaining
constants against the paper's reported timings (see
:mod:`repro.cm.timing`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, MachineError


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class CM2:
    """Static description of a Connection Machine model 2 configuration.

    Parameters
    ----------
    n_processors:
        Number of physical processors (the paper uses 32768; a full
        machine has 65536).  Must be a power of two (hypercube).
    memory_bits:
        Bits of memory per physical processor.  The CM-2 shipped with
        64 Kbit/processor; the paper notes 25% was reserved for
        back-compatibility by the system software of the day.
    backcompat_reserved:
        Fraction of memory unavailable to the application (0.25 in the
        paper; C* 5.0 was expected to reclaim it and allow 1M-particle
        runs).
    clock_hz:
        Nominal processor clock (7 MHz for the CM-2); only used for
        sanity-scaling of the timing model, which is calibrated against
        the paper's end-to-end numbers anyway.
    """

    n_processors: int = 32 * 1024
    memory_bits: int = 64 * 1024
    backcompat_reserved: float = 0.25
    clock_hz: float = 7.0e6

    def __post_init__(self) -> None:
        if not _is_power_of_two(self.n_processors):
            raise ConfigurationError(
                f"n_processors must be a power of two, got {self.n_processors}"
            )
        if not 0.0 <= self.backcompat_reserved < 1.0:
            raise ConfigurationError(
                "backcompat_reserved must be in [0, 1), got "
                f"{self.backcompat_reserved}"
            )
        if self.memory_bits <= 0:
            raise ConfigurationError("memory_bits must be positive")

    @property
    def hypercube_dimension(self) -> int:
        """log2 of the physical processor count."""
        return int(self.n_processors).bit_length() - 1

    def geometry(self, n_virtual: int) -> "VPGeometry":
        """Create a VP geometry of ``n_virtual`` virtual processors."""
        return VPGeometry(machine=self, n_virtual=n_virtual)


@dataclass(frozen=True)
class VPGeometry:
    """A virtual-processor set laid out block-wise over the machine.

    VP ``v`` lives on physical processor ``v // vpr`` ("send-order" /
    block layout, the CM system software default for 1D VP sets).  The
    block layout is what makes even/odd neighbour pairs co-resident for
    VPR >= 2 -- the property the paper's collision routine exploits.

    ``n_virtual`` need not be a multiple of ``n_processors``; the VP
    ratio is rounded up, as the real system software did (idle VP slots
    on the last processors still cost their time slice).
    """

    machine: CM2
    n_virtual: int

    def __post_init__(self) -> None:
        if self.n_virtual <= 0:
            raise ConfigurationError(
                f"n_virtual must be positive, got {self.n_virtual}"
            )

    @property
    def vpr(self) -> int:
        """Virtual processor ratio (rounded up to at least 1)."""
        return -(-self.n_virtual // self.machine.n_processors)

    def physical_processor(self, vp: np.ndarray) -> np.ndarray:
        """Map VP indices to their physical processor (block layout)."""
        vp = np.asarray(vp)
        if vp.size and (vp.min() < 0 or vp.max() >= self.n_virtual):
            raise MachineError(
                f"VP index out of range [0, {self.n_virtual})"
            )
        return vp // self.vpr

    def offchip_fraction(
        self, src_vp: np.ndarray, dst_vp: np.ndarray
    ) -> float:
        """Fraction of a send pattern that crosses physical processors.

        This is the quantity the paper calls "general communication":
        router traffic that leaves the chip.  It is *measured from the
        actual permutation* rather than assumed, which is what lets the
        emulation reproduce the shape of Figure 7.
        """
        src_vp = np.asarray(src_vp)
        dst_vp = np.asarray(dst_vp)
        if src_vp.shape != dst_vp.shape:
            raise MachineError("src/dst VP arrays must have equal shape")
        if src_vp.size == 0:
            return 0.0
        off = self.physical_processor(src_vp) != self.physical_processor(dst_vp)
        return float(np.count_nonzero(off)) / src_vp.size

    def pair_offchip_fraction(self) -> float:
        """Off-chip fraction for the even/odd neighbour exchange.

        VP ``2i`` exchanges with VP ``2i+1``.  In block layout this pair
        straddles a processor boundary only when the VPR is 1 (every
        pair) or odd (pairs at block seams); for even VPR >= 2 the
        exchange is entirely on-chip.  This single number explains the
        Figure 7 drop from VPR 1 to 2.
        """
        n_pairs = self.n_virtual // 2
        if n_pairs == 0:
            return 0.0
        even = np.arange(n_pairs, dtype=np.int64) * 2
        return self.offchip_fraction(even, even + 1)
