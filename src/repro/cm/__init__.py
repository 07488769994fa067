"""Connection Machine (CM-2) emulation substrate.

The paper's implementation targets a Thinking Machines CM-2: up to 64k
bit-serial processors (32k used in the paper), a hypercube router for
general communication, hardware scans, and *virtual processors* -- each
physical processor time-slices over ``VPR = n_virtual / n_physical``
virtual processors, which is how a 32k-processor machine runs 512k
particles with one particle per virtual processor.

This subpackage provides:

* :mod:`~repro.cm.machine` -- the machine description and the
  virtual-processor geometry (block mapping of VPs to physical
  processors);
* :mod:`~repro.cm.news` / :mod:`~repro.cm.cellmapped` -- the NEWS-grid
  neighbour exchange of the cells-to-processors mapping;
* :mod:`~repro.cm.timing` -- the cost ledger, whose router model
  separates on-chip from off-chip traffic (the mechanism behind the
  paper's Figure 7), and the calibrated cycles-to-microseconds
  conversion;
* :mod:`~repro.cm.mapping` -- the cells-to-processors versus
  particles-to-processors load-balance study from the paper's
  "Data Structure - Processor Mapping" section.

The *physics* of the simulation never depends on this subpackage's cost
accounting; the accounting only reproduces the paper's performance
figures (Fig. 7 and the phase-breakdown table).
"""

from repro.cm.machine import CM2, VPGeometry
from repro.cm.timing import CostLedger, CM2TimingModel, PhaseBreakdown

__all__ = [
    "CM2",
    "VPGeometry",
    "CostLedger",
    "CM2TimingModel",
    "PhaseBreakdown",
]
