"""Unit tests for the processor-mapping comparison (paper's argument)."""

import numpy as np
import pytest

from repro.cm.mapping import compare_mappings, neighbour_exchange_events
from repro.errors import MachineError


class TestNeighbourEvents:
    def test_paper_counts(self):
        # "In two dimensions this implies eight distinct communication
        # events ... in three dimensions where a cell must communicate
        # with twenty-six neighbours."
        assert neighbour_exchange_events(2) == 8
        assert neighbour_exchange_events(3) == 26

    def test_one_dimension(self):
        assert neighbour_exchange_events(1) == 2

    def test_invalid(self):
        with pytest.raises(MachineError):
            neighbour_exchange_events(0)


class TestCompareMappings:
    def test_uniform_cells_are_balanced(self):
        pops = np.full((10, 10), 7)
        cmp = compare_mappings(pops)
        assert cmp.cell_mapping_compute_utilization == pytest.approx(1.0)
        assert cmp.compute_advantage == pytest.approx(1.0)

    def test_shock_like_imbalance(self):
        # Post-shock cells 3.7x denser: utilization drops accordingly.
        pops = np.full(100, 10)
        pops[:25] = 37
        cmp = compare_mappings(pops)
        expected_mean = (25 * 37 + 75 * 10) / 100
        assert cmp.cell_mapping_compute_utilization == pytest.approx(
            expected_mean / 37
        )
        assert cmp.compute_advantage > 2.0

    def test_particle_mapping_always_unit(self):
        pops = np.array([1, 100])
        assert compare_mappings(pops).particle_mapping_compute_utilization == 1.0

    def test_active_fraction_is_one_eighth_2d(self):
        cmp = compare_mappings(np.array([5, 5]), dimensions=2)
        assert cmp.cell_mapping_comm_active_fraction == pytest.approx(1 / 8)

    def test_migration_fraction(self):
        moved = np.array([True, False, False, True])
        cmp = compare_mappings(np.array([2, 2]), migrated=moved)
        assert cmp.migration_fraction == pytest.approx(0.5)

    def test_empty_snapshot_rejected(self):
        with pytest.raises(MachineError):
            compare_mappings(np.zeros(4, dtype=int))
        with pytest.raises(MachineError):
            compare_mappings(np.array([], dtype=int))

    def test_negative_population_rejected(self):
        with pytest.raises(MachineError):
            compare_mappings(np.array([3, -1]))
