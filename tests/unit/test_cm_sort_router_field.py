"""Unit tests for the CM sort primitive."""

import numpy as np
import pytest

from repro.cm.machine import CM2
from repro.cm.sort import sort_by_key
from repro.cm.timing import CostLedger, CostModel
from repro.errors import MachineError


@pytest.fixture
def geom():
    return CM2(n_processors=4).geometry(16)


@pytest.fixture
def costed(geom):
    ledger = CostLedger()
    return geom, ledger, CostModel(geom, ledger)


class TestSort:
    def test_sorted_order(self, rng):
        keys = rng.integers(0, 50, size=200)
        res = sort_by_key(keys, key_bits=8)
        assert np.all(np.diff(keys[res.order]) >= 0)

    def test_stability(self):
        keys = np.array([2, 1, 2, 1])
        res = sort_by_key(keys, key_bits=2)
        # Equal keys keep original relative order.
        assert res.order.tolist() == [1, 3, 0, 2]

    def test_rank_is_inverse_of_order(self, rng):
        keys = rng.integers(0, 9, size=64)
        res = sort_by_key(keys, key_bits=4)
        assert np.array_equal(res.order[res.rank], np.arange(64))

    def test_offchip_measured(self, geom):
        # Reversing keys forces nearly everything across processors.
        keys = np.arange(16)[::-1].copy()
        res = sort_by_key(keys, geometry=geom, key_bits=5)
        assert res.offchip_fraction > 0.5

    def test_key_width_validated(self):
        with pytest.raises(MachineError):
            sort_by_key(np.array([300]), key_bits=8)

    def test_negative_keys_rejected(self):
        with pytest.raises(MachineError):
            sort_by_key(np.array([-1]), key_bits=8)

    def test_cost_charged_under_phase(self, costed):
        geom, ledger, cost = costed
        with ledger.phase("sort"):
            sort_by_key(np.arange(16)[::-1].copy(), cost=cost, key_bits=5)
        assert ledger.phase_total("sort") > 0
        assert ledger.summary()["costs"]["sort"]["route_off"] > 0
