"""Unit tests for the CM-2's sort: the scaled-key sort the CM kernels run
(``sort_by_cell(mix_bits=...)``) and what it charges."""

import numpy as np
import pytest

from repro.cm.machine import CM2
from repro.cm.timing import CostLedger, CostModel
from repro.core.cells import randomized_sort_keys
from repro.core.engine_cm import FixedPointKernels
from repro.core.particles import ParticleArrays
from repro.core.simulation import SimulationConfig
from repro.core.sortstep import sort_by_cell
from repro.errors import ConfigurationError
from repro.fixedpoint.qformat import Q8_23
from repro.geometry.domain import Domain


@pytest.fixture
def geom():
    return CM2(n_processors=4).geometry(16)


def population(cells) -> ParticleArrays:
    """A population whose ``x`` is its row number and ``cell`` ``cells``."""
    n = len(cells)
    zeros = np.zeros(n)
    return ParticleArrays(
        x=np.arange(n, dtype=np.float64), y=zeros.copy(), u=zeros.copy(),
        v=zeros.copy(), w=zeros.copy(), rot=np.zeros((n, 2)),
        perm=np.zeros((n, 5), dtype=np.int8),
        cell=np.asarray(cells, dtype=np.int64),
    )


def kernels_and_population(seed: int = 0):
    """CM kernels over a 16 x 4 grid and 64 rows on the 2**-23 grid."""
    cfg = SimulationConfig(domain=Domain(16, 4), wedge=None, seed=0)
    ledger = CostLedger()
    kernels = FixedPointKernels(
        cfg, CM2(n_processors=4), Q8_23, "stochastic", ledger, None
    )
    rng = np.random.default_rng(seed)
    parts = population(np.zeros(64))
    parts.x[:] = rng.uniform(0, 16, 64)
    parts.y[:] = rng.uniform(0, 4, 64)
    kernels.to_grid(parts)
    return cfg, kernels, ledger, parts


class TestSort:
    def test_sorted_order(self, rng):
        cells = rng.integers(0, 50, size=200)
        mix = rng.integers(0, 256, size=200)
        parts = population(cells)
        res = sort_by_cell(parts, scale=16, mix_bits=mix)
        keys = randomized_sort_keys(cells, scale=16, mix_bits=mix)
        assert np.all(np.diff(keys[res.order]) >= 0)
        assert np.array_equal(parts.x, res.order)  # the rows moved

    def test_stability(self):
        parts = population([2, 1, 2, 1])
        res = sort_by_cell(parts, scale=4, mix_bits=np.zeros(4, dtype=int))
        # Equal keys keep original relative order.
        assert res.order.tolist() == [1, 3, 0, 2]

    def test_rank_is_inverse_of_order(self, rng, geom):
        # The kernels measure the permutation's route from the order
        # (row order[r] -> slot r): the same sends as row i -> rank[i].
        parts = population(rng.integers(0, 9, size=16))
        order = sort_by_cell(
            parts, scale=4, mix_bits=rng.integers(0, 4, size=16)
        ).order
        rank = np.empty_like(order)
        rank[order] = np.arange(16)
        assert np.array_equal(order[rank], np.arange(16))
        assert geom.offchip_fraction(order, np.arange(16)) == (
            geom.offchip_fraction(np.arange(16), rank)
        )

    def test_offchip_measured(self, geom):
        # Reversing keys forces nearly everything across processors.
        parts = population(np.arange(16)[::-1])
        order = sort_by_cell(
            parts, scale=1, mix_bits=np.zeros(16, dtype=int)
        ).order
        assert geom.offchip_fraction(order, np.arange(16)) > 0.5

    def test_key_width_validated(self):
        # The radix ranking runs over the largest key's bits, no more.
        cfg, kernels, ledger, parts = kernels_and_population()
        mix = kernels._bits(
            Q8_23.encode(parts.x) ^ Q8_23.encode(parts.y), 8, 1, 0
        )
        keys = randomized_sort_keys(
            parts.cell, scale=cfg.sort_scale, mix_bits=mix
        )
        kernels.sort(parts, 0)
        ref = CostLedger()
        with ref.phase("sort"):
            CostModel(kernels.geometry(64), ref).sort_rank(
                key_bits=int(keys.max()).bit_length()
            )
        assert ledger.as_dict()["sort"]["scan"] == ref.as_dict()["sort"]["scan"]

    def test_negative_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            sort_by_cell(population([-1]), scale=4, mix_bits=np.zeros(1))

    def test_cost_charged_under_phase(self):
        _, kernels, ledger, parts = kernels_and_population(seed=1)
        counts = kernels.sort(parts, 0)
        assert counts.sum() == 64 and np.all(np.diff(parts.cell) >= 0)
        assert ledger.phase_total("sort") > 0
        assert ledger.summary()["costs"]["sort"]["route_off"] > 0
        assert ledger.total() == ledger.phase_total("sort")
