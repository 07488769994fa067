"""The Connection Machine emulation engine: fixed point + cost ledger.

Runs the identical algorithm to :class:`repro.core.simulation.Simulation`
but the way the paper ran it on the CM-2:

* the particle state lives in **Q8.23 fixed point** (int32 words);
* the collision routine's divisions by two use truncating or
  stochastically rounded halving (:meth:`repro.fixedpoint.QFormat.halve`)
  -- the arithmetic whose energy behaviour the paper discusses;
* the "quick but dirty" low-order bits of the state words drive the
  sort-key mixing, the random transposition, the random signs and the
  rounding bits, exactly the four uses the paper lists;
* every primitive charges the :class:`repro.cm.timing.CostLedger`, with
  communication volumes **measured from the actual send patterns**, so
  the run produces the paper's phase breakdown and the Figure 7 curve.

Emulation shortcut (documented, deliberate): boundary reflections are
computed in float64 on decoded values and re-encoded.  Re-encoding
rounds to the same 2**-23 grid the fixed-point pass would produce, and
boundary arithmetic has no systematic truncation hazard (no divides), so
the physically meaningful fixed-point effects -- collision truncation
loss and its stochastic-rounding fix -- remain bit-faithful while the
geometry code is shared with the reference engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.cm.machine import CM2
from repro.cm.sort import sort_by_key
from repro.cm.timing import CM2TimingModel, CostLedger, CostModel, PhaseBreakdown
from repro.constants import PAPER_CM2_PROCESSORS
from repro.core.boundary import WindTunnelBoundaries
from repro.core.cells import cell_populations, randomized_sort_keys
from repro.core.pairing import even_odd_pairs
from repro.core.particles import ParticleArrays
from repro.core.permutation import apply_permutation
from repro.core.sampling import CellSampler
from repro.core.selection import collision_probabilities
from repro.core.simulation import SimulationConfig
from repro.errors import ConfigurationError
from repro.fixedpoint.qformat import Q8_23, QFormat, quick_dirty_bits
from repro.rng import make_rng


@dataclass
class CMState:
    """Fixed-point mirror of the particle state (int32 words)."""

    xq: np.ndarray
    yq: np.ndarray
    uq: np.ndarray
    vq: np.ndarray
    wq: np.ndarray
    rotq: np.ndarray  # (n, rdof)
    perm: np.ndarray
    cell: np.ndarray

    @property
    def n(self) -> int:
        return self.xq.shape[0]


class CMSimulation:
    """Wind-tunnel run on the emulated CM-2.

    Parameters
    ----------
    config:
        Same configuration object as the reference engine.
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
        self.config = config
        self.machine = machine or CM2(n_processors=PAPER_CM2_PROCESSORS)
        self.halve_mode = halve_mode
        self.q = qformat
        self.rng = make_rng(config.seed)
        self.ledger = CostLedger()
        self.step_count = 0

        # Shared substrate with the reference engine.
        self.volume_fractions = config.domain.open_volume_fractions(
            config.wedge
        )
        self._vf_flat = self.volume_fractions.reshape(-1)
        self.boundaries = WindTunnelBoundaries.from_config(config)
        self.sampler = CellSampler(config.domain, self.volume_fractions)

        # Seed through the reference seeding path, then encode.
        from repro.core.simulation import Simulation  # avoid cycle at import

        ref = Simulation(config)
        self.reservoir = ref.reservoir
        self.state = self._encode(ref.particles)

        self.dynamic_vp = dynamic_vp
        if vp_capacity is None:
            vp_capacity = int(1.3 * self.state.n)
        if vp_capacity < 1:
            raise ConfigurationError("vp_capacity must be positive")
        self.vp_capacity = vp_capacity

    def _geometry(self, n: int):
        """The step's VP geometry under the configured VP policy."""
        if self.dynamic_vp:
            return self.machine.geometry(max(n, 1))
        return self.machine.geometry(max(n, self.vp_capacity, 1))

    # -- representation round-trips ----------------------------------------

    def _encode(self, parts: ParticleArrays) -> CMState:
        return CMState(
            xq=self.q.encode(parts.x),
            yq=self.q.encode(parts.y),
            uq=self.q.encode(parts.u),
            vq=self.q.encode(parts.v),
            wq=self.q.encode(parts.w),
            rotq=self.q.encode(parts.rot),
            perm=parts.perm.copy(),
            cell=parts.cell.copy(),
        )

    def _decode(self, state: CMState) -> ParticleArrays:
        return ParticleArrays(
            x=self.q.decode(state.xq),
            y=self.q.decode(state.yq),
            u=self.q.decode(state.uq),
            v=self.q.decode(state.vq),
            w=self.q.decode(state.wq),
            rot=self.q.decode(state.rotq),
            perm=state.perm,
            cell=state.cell,
        )

    @property
    def particles(self) -> ParticleArrays:
        """Decoded (float) view of the current fixed-point state."""
        return self._decode(self.state)

    def total_energy(self) -> float:
        """Total (translational + rotational) energy, decoded."""
        p = self.particles
        return p.total_energy()

    # -- quick & dirty randomness ---------------------------------------------

    def _qd_bits(self, words: np.ndarray, nbits: int, salt: int) -> np.ndarray:
        """Low-order-bit draws, salted by a counter so repeated reads of
        the same word within a step decorrelate."""
        salted = np.asarray(words, dtype=np.int64) + 0x9E37 * (
            salt + self.step_count
        )
        return quick_dirty_bits(salted & 0x7FFFFFFF, nbits, shift=1)

    # -- one time step -----------------------------------------------------

    def step(self, sample: bool = False) -> dict:
        """Advance one step; returns a small diagnostics dict."""
        cfg = self.config
        st = self.state
        geom = self._geometry(st.n)
        cost = CostModel(geom, self.ledger)

        # ---- 1+2) motion + boundaries -----------------------------------
        with self.ledger.phase("motion"):
            st.xq = self.q.add(st.xq, st.uq)
            st.yq = self.q.add(st.yq, st.vq)
            cost.elementwise(bits=32, nops=2)

            parts = self._decode(st).enable_scratch()
            parts, bstats = self.boundaries.apply_rebuilding(
                parts, self.reservoir, self.rng
            )
            st = self._encode(parts)
            cost.elementwise(bits=32, nops=14)  # predicates + reflections

        geom = self._geometry(st.n)
        cost = CostModel(geom, self.ledger)

        # ---- 3) selection of collision partners -------------------------
        with self.ledger.phase("sort"):
            # Cell index from fixed-point positions (integer part).
            ix = np.clip(st.xq >> self.q.frac_bits, 0, cfg.domain.nx - 1)
            iy = np.clip(st.yq >> self.q.frac_bits, 0, cfg.domain.ny - 1)
            st.cell = ix.astype(np.int64) * cfg.domain.ny + iy.astype(np.int64)
            cost.elementwise(bits=32, nops=4)

            # Quick-and-dirty sort-key mixing from position low bits.
            mix = self._qd_bits(st.xq ^ st.yq, 8, salt=1)
            keys = randomized_sort_keys(
                st.cell, scale=cfg.sort_scale, mix_bits=mix
            )
            cost.elementwise(bits=32, nops=3)
            key_bits = max(int(keys.max()).bit_length(), 1) if keys.size else 1
            res = sort_by_key(
                keys, geometry=geom, cost=cost, key_bits=key_bits,
                payload_bits=9 * 32,
            )
            order = res.order
            for col in ("xq", "yq", "uq", "vq", "wq", "rotq", "perm", "cell"):
                setattr(st, col, getattr(st, col)[order])
            sort_offchip = res.offchip_fraction

        with self.ledger.phase("selection"):
            pairs = even_odd_pairs(st.cell)
            counts = cell_populations(st.cell, cfg.domain.n_cells)
            cost.scan(bits=32, nscans=2)
            parts_view = self._decode(st)
            prob, _g = collision_probabilities(
                parts_view, pairs, cfg.freestream, cfg.model, counts,
                volume_fractions=self._vf_flat,
            )
            cost.elementwise(bits=32, nops=14)
            cost.pair_exchange(payload_bits=32)
            draws = self.rng.random(pairs.n_pairs)
            accept = draws < prob

        # ---- 4) collision in fixed point ---------------------------------
        with self.ledger.phase("collision"):
            n_coll = self._collide_fixed(st, pairs.first[accept],
                                         pairs.second[accept], cost)

        if cfg.reservoir_mix_rounds:
            self.reservoir.mix(self.rng, rounds=cfg.reservoir_mix_rounds)

        self.state = st
        self.step_count += 1
        self.ledger.end_step()
        if sample:
            self.sampler.accumulate(self.particles)
        return {
            "step": self.step_count,
            "n_flow": st.n,
            "n_reservoir": self.reservoir.size,
            "n_collisions": int(n_coll),
            "sort_offchip_fraction": float(sort_offchip),
            "total_energy": self.total_energy(),
        }

    def run(self, n_steps: int, sample: bool = False) -> dict:
        """Advance ``n_steps`` steps; returns the last step's dict."""
        if n_steps <= 0:
            raise ConfigurationError("n_steps must be positive")
        out = {}
        for _ in range(n_steps):
            out = self.step(sample=sample)
        return out

    # -- the fixed-point collision kernel ------------------------------------

    def _collide_fixed(
        self,
        st: CMState,
        first: np.ndarray,
        second: np.ndarray,
        cost: CostModel,
    ) -> int:
        """Eqs. (12)-(18) in Q8.23 with the configured halving mode."""
        a = np.asarray(first)
        b = np.asarray(second)
        n = a.shape[0]
        cost.pair_exchange(payload_bits=5 * 32)
        cost.elementwise(bits=32, nops=40)
        if n == 0:
            return 0
        k = 3 + st.rotq.shape[1]
        q = self.q
        mode = self.halve_mode

        cols_a = [st.uq[a], st.vq[a], st.wq[a]] + [
            st.rotq[a, j] for j in range(st.rotq.shape[1])
        ]
        cols_b = [st.uq[b], st.vq[b], st.wq[b]] + [
            st.rotq[b, j] for j in range(st.rotq.shape[1])
        ]

        means = np.empty((n, k), dtype=np.int32)
        halves = np.empty((n, k), dtype=np.int32)
        for j, (ca, cb) in enumerate(zip(cols_a, cols_b)):
            # The divisions by two of eqs. (12)-(15): the truncation
            # hazard.  Rounding bits come from the quick & dirty stream.
            rb_mean = self._qd_bits(st.xq[a], 1, salt=10 + 2 * j)
            rb_half = self._qd_bits(st.yq[b], 1, salt=11 + 2 * j)
            means[:, j] = q.halve(q.add(ca, cb), mode=mode, rand_bits=rb_mean)
            halves[:, j] = q.halve(q.sub(ca, cb), mode=mode, rand_bits=rb_half)

        # Permute by the first partner's permutation vector; random signs
        # from the quick & dirty stream.
        h_new = apply_permutation(halves, st.perm[a])
        sign_bits = np.empty((n, k), dtype=np.int32)
        for j in range(k):
            sign_bits[:, j] = self._qd_bits(st.uq[b], 1, salt=30 + j)
        h_new = np.where(sign_bits == 1, h_new, -h_new).astype(np.int32)

        # Reconstruct: mean +- permuted half-relative (adds, exact).
        st.uq[a] = q.add(means[:, 0], h_new[:, 0])
        st.uq[b] = q.sub(means[:, 0], h_new[:, 0])
        st.vq[a] = q.add(means[:, 1], h_new[:, 1])
        st.vq[b] = q.sub(means[:, 1], h_new[:, 1])
        st.wq[a] = q.add(means[:, 2], h_new[:, 2])
        st.wq[b] = q.sub(means[:, 2], h_new[:, 2])
        for j in range(st.rotq.shape[1]):
            st.rotq[a, j] = q.add(means[:, 3 + j], h_new[:, 3 + j])
            st.rotq[b, j] = q.sub(means[:, 3 + j], h_new[:, 3 + j])

        # One random transposition of each partner's permutation vector.
        ja = self._qd_bits(st.vq[a], 3, salt=50) % k
        jb = self._qd_bits(st.vq[b], 3, salt=51) % k
        _swap_with_first(st.perm, a, ja)
        _swap_with_first(st.perm, b, jb)
        return n

    # -- timing results ---------------------------------------------------------

    def phase_breakdown(
        self, timing_model: Optional[CM2TimingModel] = None
    ) -> PhaseBreakdown:
        """Microseconds/particle/step by phase via the calibrated model."""
        tm = timing_model or CM2TimingModel(machine=self.machine)
        return tm.per_particle_us(self.ledger, n_flow_particles=max(self.state.n, 1))


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
