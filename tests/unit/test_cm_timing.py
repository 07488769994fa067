"""Unit tests for the cost ledger and the calibrated timing model."""

import pytest

from repro.cm.machine import CM2
from repro.cm.timing import (
    CM2TimingModel,
    CostLedger,
    CostModel,
    PHASES,
    PhaseBreakdown,
    _structural_step_costs,
)
from repro.constants import (
    PAPER_CM2_US_PER_PARTICLE,
    PAPER_PHASE_FRACTIONS,
    PAPER_TOTAL_PARTICLES,
)
from repro.errors import MachineError


class TestCostLedger:
    def test_phase_scoping(self):
        led = CostLedger()
        with led.phase("sort"):
            led.charge("alu", 10.0)
        assert led.phase_total("sort") == 10.0
        assert led.phase_total("motion") == 0.0

    def test_explicit_phase(self):
        led = CostLedger()
        led.charge("scan", 5.0, phase="selection")
        assert led.phase_total("selection") == 5.0

    def test_charge_without_phase_raises(self):
        with pytest.raises(MachineError):
            CostLedger().charge("alu", 1.0)

    def test_unknown_phase_or_category(self):
        led = CostLedger()
        with pytest.raises(MachineError):
            led.charge("alu", 1.0, phase="warmup")
        with pytest.raises(MachineError):
            led.charge("gpu", 1.0, phase="sort")

    def test_negative_cost_rejected(self):
        led = CostLedger()
        with pytest.raises(MachineError):
            led.charge("alu", -1.0, phase="sort")

    def test_nested_phases_restore(self):
        led = CostLedger()
        with led.phase("sort"):
            with led.phase("collision"):
                led.charge("alu", 1.0)
            led.charge("alu", 2.0)
        assert led.phase_total("collision") == 1.0
        assert led.phase_total("sort") == 2.0


class TestCostModel:
    def test_elementwise_scales_with_vpr(self):
        m = CM2(n_processors=4)
        for vpr in (1, 4):
            led = CostLedger()
            cost = CostModel(m.geometry(4 * vpr), led)
            with led.phase("motion"):
                cost.elementwise(bits=32, nops=1)
            assert led.phase_total("motion") == 32 * vpr

    def test_pair_exchange_offchip_only_at_vpr1(self):
        m = CM2(n_processors=8)
        led1 = CostLedger()
        c1 = CostModel(m.geometry(8), led1)
        with led1.phase("collision"):
            f1 = c1.pair_exchange(payload_bits=32)
        led2 = CostLedger()
        c2 = CostModel(m.geometry(16), led2)
        with led2.phase("collision"):
            f2 = c2.pair_exchange(payload_bits=32)
        assert f1 == 1.0 and f2 == 0.0
        assert led1.summary()["costs"]["collision"]["route_off"] > 0
        assert led2.summary()["costs"]["collision"]["route_off"] == 0


class TestTimingModel:
    def test_anchor_reproduces_paper_numbers(self):
        tm = CM2TimingModel()
        pb = tm.predict_curve([PAPER_TOTAL_PARTICLES])[PAPER_TOTAL_PARTICLES]
        assert pb.total == pytest.approx(PAPER_CM2_US_PER_PARTICLE, rel=1e-6)
        for p in PHASES:
            assert pb.fractions()[p] == pytest.approx(
                PAPER_PHASE_FRACTIONS[p], rel=1e-6
            )

    def test_figure7_shape_monotone_decreasing(self):
        tm = CM2TimingModel()
        counts = [32 * 1024 * 2**i for i in range(5)]
        curve = tm.predict_curve(counts)
        totals = [curve[n].total for n in counts]
        assert all(a > b for a, b in zip(totals, totals[1:]))

    def test_figure7_biggest_drop_is_vpr1_to_2(self):
        tm = CM2TimingModel()
        counts = [32 * 1024 * 2**i for i in range(5)]
        totals = [tm.predict_curve([n])[n].total for n in counts]
        drops = [a - b for a, b in zip(totals, totals[1:])]
        assert drops[0] == max(drops)

    def test_figure7_magnitude_close_to_paper(self):
        # Paper figure 7: ~10.5 us at 32k down to 7.2 us at 512k.
        tm = CM2TimingModel()
        t_32k = tm.predict_curve([32 * 1024])[32 * 1024].total
        assert 9.0 < t_32k < 12.0

    def test_ledger_conversion_requires_steps(self):
        tm = CM2TimingModel()
        with pytest.raises(MachineError):
            tm.per_particle_us(CostLedger(), 100)

    def test_structural_costs_cover_all_phases(self):
        raw = _structural_step_costs(CM2(), 64 * 1024)
        assert set(raw) == set(PHASES)
        assert all(v > 0 for v in raw.values())

    def test_scaled_machine_anchors_at_vpr16(self):
        m = CM2(n_processors=1024)
        tm = CM2TimingModel(machine=m)
        pb = tm.predict_curve([16 * 1024])[16 * 1024]
        assert pb.total == pytest.approx(PAPER_CM2_US_PER_PARTICLE, rel=1e-6)


class TestPhaseBreakdown:
    def test_fractions_sum_to_one(self):
        pb = PhaseBreakdown(
            us_per_particle={p: 1.0 for p in PHASES}
        )
        assert sum(pb.fractions().values()) == pytest.approx(1.0)

    def test_empty_total(self):
        pb = PhaseBreakdown(us_per_particle={p: 0.0 for p in PHASES})
        assert pb.total == 0.0
        assert all(v == 0.0 for v in pb.fractions().values())
