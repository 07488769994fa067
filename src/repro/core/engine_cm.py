"""The Connection Machine emulation engine: fixed point + cost ledger.

:class:`CMSimulation` *is* :class:`repro.core.simulation.Simulation` on
the counting path -- the same construction, the same step
(:class:`~repro.core.simulation.SerialBackend`, ``step_stage1`` /
``step_stage2``, ``collision_stage``'s physical sort and even/odd
pairing) -- the way :class:`repro.ensemble.EnsembleEngine` is the same
class over R blocks.  It runs the step the way the paper ran it on the
CM-2, through three kernels (:class:`FixedPointKernels`):

1. **The fixed-point state.**  The particle state is the paper's Q8.23
   words, held in the ordinary float64 columns on the 2**-23 grid.  That
   is exact: a Q8.23 word needs 31 significant bits and a float64 has
   53, so motion's adds stay on the grid.  The boundary pass computes
   its reflections and refills in float64; after it the rows are
   rounded back onto the grid (the identity on every row that is on it
   already) and indexed from the rounded positions.  Boundary arithmetic
   has no systematic truncation hazard (no divides), so the physically
   meaningful fixed-point effects -- collision truncation loss and its
   stochastic-rounding fix -- stay bit-faithful.
2. **Quick-and-dirty mix bits.**  The sort key's random digit is the
   low-order bits of the position words
   (:func:`repro.core.sortstep.sort_by_cell`'s ``mix_bits``), not a
   stream draw.
3. **The fixed-point collision.**  Eqs. (12)-(18) on the words of the
   accepted adjacent pairs, with truncating or stochastically rounded
   halving (:meth:`repro.fixedpoint.QFormat.halve`) -- the arithmetic
   whose energy behaviour the paper discusses -- and the rounding bits,
   the random signs and the random transposition read off the words.

The low-order bits serve exactly the four uses the paper lists.  Every
kernel charges the :class:`repro.cm.timing.CostLedger` for what it
executes, with communication volumes **measured from the actual send
patterns**, so the run produces the paper's phase breakdown and the
Figure 7 curve.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.cm.machine import CM2
from repro.cm.timing import CM2TimingModel, CostLedger, CostModel, PhaseBreakdown
from repro.constants import PAPER_CM2_PROCESSORS
from repro.core.boundary import BoundaryStats
from repro.core.cells import assign_cells, randomized_sort_keys
from repro.core.particles import ParticleArrays
from repro.core.permutation import apply_permutation
from repro.core.simulation import Simulation, SimulationConfig
from repro.core.sortstep import sort_by_cell
from repro.errors import ConfigurationError
from repro.fixedpoint.qformat import Q8_23, QFormat, quick_dirty_bits
from repro.rng import make_rng

#: Width of the emulated machine's words, the unit of every charge.
WORD_BITS = 32


class FixedPointKernels:
    """The CM-2's kernels of the counting path (the module note's three).

    :func:`repro.core.simulation.collision_stage` calls :meth:`sort` and
    :meth:`collide` in place of the reference's sort and collision, and
    ``step_stage1`` calls :meth:`bound` after the boundary pass.  Each
    charges ``ledger`` at the VP set of the rows it works on
    (:meth:`geometry`); :meth:`collide`, the step's last, closes the
    ledger's step.

    ``static_vps`` is the VP-set size a static configuration holds
    (``None``: the set follows the live population).
    """

    def __init__(
        self,
        config: SimulationConfig,
        machine: CM2,
        qformat: QFormat,
        halve_mode: str,
        ledger: CostLedger,
        static_vps: Optional[int],
    ) -> None:
        self.domain = config.domain
        self.sort_scale = config.sort_scale
        self.q = qformat
        self.halve_mode = halve_mode
        self.machine = machine
        self.ledger = ledger
        self.static_vps = static_vps

    def geometry(self, n: int):
        """The VP set of ``n`` live rows under the VP policy."""
        return self.machine.geometry(max(n, self.static_vps or 0, 1))

    def to_grid(self, parts: ParticleArrays) -> None:
        """Round the float columns onto the grid, then index the rows."""
        for col in (parts.x, parts.y, parts.u, parts.v, parts.w, parts.rot):
            col[...] = self.q.decode(self.q.encode(col))
        assign_cells(parts, self.domain)

    def bound(self, parts: ParticleArrays, bstats: BoundaryStats) -> None:
        """Finish the boundary pass on the grid; charge the motion phase
        at the VP set of the rows that moved."""
        self.to_grid(parts)
        moved = (
            parts.n + bstats.n_removed_downstream - bstats.n_injected_upstream
        )
        cost = CostModel(self.geometry(moved), self.ledger)
        with self.ledger.phase("motion"):
            cost.elementwise(bits=WORD_BITS, nops=2)  # the position adds
            cost.elementwise(bits=WORD_BITS, nops=14)  # predicates, reflections

    def sort(self, parts: ParticleArrays, step: int) -> np.ndarray:
        """The scaled-key sort, mixed by the position words' low bits;
        returns the per-cell counts.

        Charges the cell index and the key, the radix ranking over the
        largest key's width, and the permutation of the nine-word state
        through the router, whose off-chip share is measured from the
        order (the sends ``order[r] -> r``).
        """
        mix = self._bits(
            self.q.encode(parts.x) ^ self.q.encode(parts.y), 8, 1, step
        )
        res = sort_by_cell(
            parts, scale=self.sort_scale, mix_bits=mix,
            n_cells=self.domain.n_cells,
        )
        n = parts.n
        key_bits = 1
        if n:
            # The sorted population's last row holds the largest key.
            top = randomized_sort_keys(
                parts.cell[-1:], scale=self.sort_scale,
                mix_bits=mix[res.order[-1:]],
            )
            key_bits = max(int(top[0]).bit_length(), 1)
        cost = CostModel(self.geometry(n), self.ledger)
        with self.ledger.phase("sort"):
            cost.elementwise(bits=WORD_BITS, nops=4)  # the cell index
            cost.elementwise(bits=WORD_BITS, nops=3)  # key scaling + mixing
            cost.sort_rank(key_bits=key_bits)
            cost.route(res.order, np.arange(n), payload_bits=9 * WORD_BITS)
        return res.counts

    def collide(
        self, parts: ParticleArrays, accepted: np.ndarray, step: int
    ) -> None:
        """Eqs. (12)-(18) in fixed point on the accepted adjacent pairs
        (pair ``i`` is rows ``2i`` and ``2i + 1``); charges the selection
        that chose them and the collision, then closes the step."""
        cost = CostModel(self.geometry(parts.n), self.ledger)
        with self.ledger.phase("selection"):
            cost.scan(bits=WORD_BITS, nscans=2)  # the cell populations
            cost.elementwise(bits=WORD_BITS, nops=14)  # density, probability
            cost.pair_exchange(payload_bits=WORD_BITS)  # partner's cell
        with self.ledger.phase("collision"):
            cost.pair_exchange(payload_bits=5 * WORD_BITS)
            cost.elementwise(bits=WORD_BITS, nops=40)
            if accepted.size:
                self._collide(parts, 2 * accepted, 2 * accepted + 1, step)
        self.ledger.end_step()

    def _collide(self, parts, a, b, step: int) -> None:
        q, mode = self.q, self.halve_mode
        n = a.shape[0]
        cols = [parts.u, parts.v, parts.w] + [
            parts.rot[:, j] for j in range(parts.rot.shape[1])
        ]
        k = len(cols)
        words_a = [q.encode(col[a]) for col in cols]
        words_b = [q.encode(col[b]) for col in cols]
        xa, yb = q.encode(parts.x[a]), q.encode(parts.y[b])

        means = np.empty((n, k), dtype=np.int32)
        halves = np.empty((n, k), dtype=np.int32)
        for j, (wa, wb) in enumerate(zip(words_a, words_b)):
            # The divisions by two of eqs. (12)-(15): the truncation
            # hazard.  Rounding bits come from the quick & dirty stream.
            rb_mean = self._bits(xa, 1, 10 + 2 * j, step)
            rb_half = self._bits(yb, 1, 11 + 2 * j, step)
            means[:, j] = q.halve(q.add(wa, wb), mode=mode, rand_bits=rb_mean)
            halves[:, j] = q.halve(q.sub(wa, wb), mode=mode, rand_bits=rb_half)

        # Permute by the first partner's permutation vector; random signs
        # from the quick & dirty stream.
        h_new = apply_permutation(halves, parts.perm[a])
        signs = np.stack(
            [self._bits(words_b[0], 1, 30 + j, step) for j in range(k)], axis=1
        )
        h_new = np.where(signs == 1, h_new, -h_new).astype(np.int32)

        # Reconstruct: mean +- permuted half-relative (adds, exact).
        new_a, new_b = q.add(means, h_new), q.sub(means, h_new)
        for j, col in enumerate(cols):
            col[a] = q.decode(new_a[:, j])
            col[b] = q.decode(new_b[:, j])

        # One random transposition of each partner's permutation vector,
        # drawn from its new v word.
        _swap_with_first(parts.perm, a, self._bits(new_a[:, 1], 3, 50, step) % k)
        _swap_with_first(parts.perm, b, self._bits(new_b[:, 1], 3, 51, step) % k)

    @staticmethod
    def _bits(words: np.ndarray, nbits: int, salt: int, step: int) -> np.ndarray:
        """Low-order-bit draws, salted by a counter (``salt`` plus the
        completed-step count) so repeated reads of the same word
        decorrelate."""
        salted = np.asarray(words, dtype=np.int64) + 0x9E37 * (salt + step)
        return quick_dirty_bits(salted & 0x7FFFFFFF, nbits, shift=1)


class CMSimulation(Simulation):
    """Wind-tunnel run on the emulated CM-2.

    A :class:`~repro.core.simulation.Simulation` on the counting path
    whose kernels are :class:`FixedPointKernels` (``kernels``); the cost
    ledger is ``ledger``.

    Parameters
    ----------
    config:
        Same configuration object as the reference engine (its
        ``sort_kernel`` is not read: the machine sorts every step).
    machine:
        CM-2 description (defaults to the paper's 32k processors; scaled
        studies pass smaller machines so scaled particle counts cover
        the same VP-ratio range).
    halve_mode:
        ``"stochastic"`` (the paper's fix, default) or ``"truncate"``
        (the raw integer divide whose energy loss the paper observed);
        see :meth:`repro.fixedpoint.QFormat.halve`.
    qformat:
        Fixed-point format (Q8.23 unless studying precision).
    dynamic_vp:
        Future Work: "The newer software allows dynamic modification of
        the virtual processor configuration; this can be used to speed
        up the computational time spent to reach steady state."  True
        (default) sizes the VP set to the live population each step;
        False models the C* 4.3 behaviour, where the configuration is
        fixed at ``vp_capacity`` for the whole run and idle VP slots
        still burn their time slice.
    vp_capacity:
        Static VP-set size when ``dynamic_vp`` is False (defaults to
        130% of the initial population, headroom for the post-shock
        density build-up).
    """

    def __init__(
        self,
        config: SimulationConfig,
        machine: Optional[CM2] = None,
        halve_mode: str = "stochastic",
        qformat: QFormat = Q8_23,
        dynamic_vp: bool = True,
        vp_capacity: Optional[int] = None,
    ) -> None:
        if halve_mode not in ("stochastic", "truncate", "floor", "exact_paper"):
            raise ConfigurationError(f"unknown halve_mode {halve_mode!r}")
        if config.domain.has_span:
            raise ConfigurationError(
                "the CM-2 emulation engine is the paper's 2-D machine: it "
                "carries no fixed-point z position for a span domain"
            )
        if config.wall_model != "specular":
            raise ConfigurationError(
                "the CM-2 emulation engine runs the paper's inviscid "
                f"(specular) walls only, got wall_model={config.wall_model!r}"
            )
        if config.domain.width >= qformat.max_value:
            raise ConfigurationError(
                "domain does not fit the fixed-point integer range; "
                "use a wider format or smaller domain"
            )
        super().__init__(config)
        # The step stream starts over at the seed rather than continuing
        # the one that seeded the population: the CM run's realization.
        self.rng = make_rng(config.seed)
        self.sort_state = None  # the counting path
        if vp_capacity is None:
            vp_capacity = int(1.3 * self.particles.n)
        if vp_capacity < 1:
            raise ConfigurationError("vp_capacity must be positive")
        self.vp_capacity = vp_capacity
        self.machine = machine or CM2(n_processors=PAPER_CM2_PROCESSORS)
        self.ledger = CostLedger()
        self.kernels = FixedPointKernels(
            config, self.machine, qformat, halve_mode, self.ledger,
            None if dynamic_vp else vp_capacity,
        )
        self.kernels.to_grid(self.particles)

    def phase_breakdown(
        self, timing_model: Optional[CM2TimingModel] = None
    ) -> PhaseBreakdown:
        """Microseconds/particle/step by phase via the calibrated model."""
        tm = timing_model or CM2TimingModel(machine=self.machine)
        return tm.per_particle_us(self.ledger, n_flow_particles=max(self.particles.n, 1))


def _swap_with_first(perm: np.ndarray, rows: np.ndarray, js: np.ndarray) -> None:
    tmp = perm[rows, js].copy()
    perm[rows, js] = perm[rows, 0]
    perm[rows, 0] = tmp


def fixed_point_energy_drift(
    halve_mode: str,
    rounds: int = 60,
    n_particles: int = 4000,
    c_mp_lsb: float = 96.0,
    seed: int = 0,
    qformat: QFormat = Q8_23,
) -> float:
    """Relative energy drift of the fixed-point collision kernel alone.

    The paper's observation: "the consistent truncation after division
    by 2 can lead to a significant loss in total energy in stagnation
    regions of the flow" -- stagnation regions, because there the
    velocity words are only tens of LSBs and a half-LSB truncation per
    halving is a percent-level relative error.  This experiment isolates
    that mechanism: a cold thermal bath (most probable speed ``c_mp_lsb``
    fixed-point LSBs) colliding under the chosen halving mode, no
    boundaries, no selection -- pure eqs. (12)-(18) arithmetic.

    Returns ``(E_end - E_0) / E_0``.  ``"truncate"`` is strongly
    negative; ``"stochastic"`` stays near zero (the paper's fix).
    Used by the ABL2 ablation bench and the integration tests.
    """
    rng = np.random.default_rng(seed)
    c_mp = c_mp_lsb * qformat.resolution
    sigma = c_mp / np.sqrt(2.0)
    vel = rng.normal(0.0, sigma, size=(n_particles, 3))
    rot = rng.normal(0.0, sigma, size=(n_particles, 2))
    words = [qformat.encode(vel[:, j]) for j in range(3)] + [
        qformat.encode(rot[:, j]) for j in range(2)
    ]
    perm = np.argsort(rng.random((n_particles, 5)), axis=1).astype(np.int8)

    def energy() -> float:
        return float(
            sum((qformat.decode(w) ** 2).sum() for w in words)
        )

    e0 = energy()
    rows = np.arange(n_particles // 2)
    for _ in range(rounds):
        order = rng.permutation(n_particles)
        a = order[0::2][: rows.size]
        b = order[1::2][: rows.size]
        means = []
        halves = np.empty((rows.size, 5), dtype=np.int32)
        for j, w in enumerate(words):
            rb1 = rng.integers(0, 2, size=rows.size, dtype=np.int32)
            rb2 = rng.integers(0, 2, size=rows.size, dtype=np.int32)
            means.append(
                qformat.halve(qformat.add(w[a], w[b]), mode=halve_mode, rand_bits=rb1)
            )
            halves[:, j] = qformat.halve(
                qformat.sub(w[a], w[b]), mode=halve_mode, rand_bits=rb2
            )
        h_new = apply_permutation(halves, perm[a])
        signs = rng.integers(0, 2, size=(rows.size, 5)) * 2 - 1
        h_new = (h_new * signs).astype(np.int32)
        for j, w in enumerate(words):
            w[a] = qformat.add(means[j], h_new[:, j])
            w[b] = qformat.sub(means[j], h_new[:, j])
    e1 = energy()
    return (e1 - e0) / e0
