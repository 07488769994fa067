"""Sort primitive with CM cost accounting.

"It should be noted that sorts are very efficiently implemented on the
Connection Machine and do not incur the large computational cost usually
associated with sorts on sequential machines."  The paper's algorithm
sorts the particles by (randomized) cell key every time step; the sort
is 27% of the run time and its communication efficiency at high VP
ratios is one of the two effects visible in Figure 7.

The emulation computes the sorted order with NumPy's stable argsort
(same result as the machine's rank-based radix sort) and charges:

* the ranking passes (radix splits: two scans plus bookkeeping per key
  bit), and
* the data permutation, whose on-chip/off-chip split is **measured from
  the actual permutation** against the VP block layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.cm.machine import VPGeometry
from repro.cm.timing import CostModel
from repro.errors import MachineError


@dataclass(frozen=True)
class SortResult:
    """Outcome of a key sort.

    Attributes
    ----------
    order:
        ``order[r]`` is the pre-sort VP index of the particle now at
        sorted rank ``r`` (i.e. ``sorted_key = key[order]``).
    rank:
        Inverse permutation: ``rank[i]`` is the sorted rank of the
        particle that was at VP ``i``.
    offchip_fraction:
        Measured fraction of particles whose move crossed a physical
        processor boundary (the paper's "general communication").
    """

    order: np.ndarray
    rank: np.ndarray
    offchip_fraction: float


def sort_by_key(
    keys: np.ndarray,
    geometry: Optional[VPGeometry] = None,
    cost: Optional[CostModel] = None,
    key_bits: int = 16,
    payload_bits: int = 9 * 32,
) -> SortResult:
    """Stable sort of the VP set by integer key.

    Parameters
    ----------
    keys:
        Per-VP integer sort keys (the scaled, randomized cell index).
    geometry:
        VP geometry.
    cost:
        Optional cost model; charges ranking + permutation.
    key_bits:
        Width of the radix ranking passes.  Must cover ``max(keys)``.
    payload_bits:
        Total width of the per-particle state moved by the permutation
        (the paper's computational state: 7 state words, cell index and
        the packed permutation vector => 9 words by default).
    """
    k = np.asarray(keys)
    if k.ndim != 1:
        raise MachineError("sort keys must be 1-D (one key per VP)")
    if k.size and k.min() < 0:
        raise MachineError("sort keys must be non-negative")
    if k.size and key_bits < int(k.max()).bit_length():
        raise MachineError(
            f"key_bits={key_bits} too narrow for max key {int(k.max())}"
        )

    # Host-side fast path: a <= 16-bit key takes NumPy's radix/counting
    # sort (the same histogram + scan structure as the machine's
    # rank-based radix sort).  Stability makes the order bit-identical
    # to the wide sort, so results and cost charges are unchanged.
    if k.size and int(k.max()) <= np.iinfo(np.uint16).max:
        order = np.argsort(k.astype(np.uint16), kind="stable")
    else:
        order = np.argsort(k, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)

    f_off = 0.0
    if cost is not None:
        cost.sort_rank(key_bits=key_bits)
        f_off = cost.route(
            np.arange(order.size), rank, payload_bits=payload_bits
        )
    elif geometry is not None and order.size:
        f_off = geometry.offchip_fraction(np.arange(order.size), rank)
    return SortResult(order=order, rank=rank, offchip_fraction=f_off)
