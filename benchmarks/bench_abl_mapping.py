"""ABL3 -- the processor-mapping argument, quantified.

The paper's "Data Structure - Processor Mapping" section rejects the
cells-to-processors mapping on communication (8 serialized events in
2-D, 26 in 3-D, 1/8 of processors active) and load-balance grounds
(compute paced by the most crowded cell, memory sized for the densest).
This bench takes an actual converged wedge snapshot and computes those
numbers.
"""

import numpy as np

from repro.analysis.report import ExperimentRecord
from repro.cm.cellmapped import cell_mapped_motion_step
from repro.cm.mapping import compare_mappings, neighbour_exchange_events
from repro.core.cells import assign_cells, cell_populations


def test_abl_processor_mapping(benchmark, continuum_solution, emit):
    parts = continuum_solution.particles
    domain = continuum_solution.config.domain
    assign_cells(parts, domain)
    pops = cell_populations(parts.cell, domain.n_cells)

    # Migration traffic the cell mapping would route: particles whose
    # cell changes across one motion step.
    before = parts.cell.copy()
    x_next = parts.x + parts.u
    y_next = parts.y + parts.v
    after = domain.cell_index(
        np.clip(x_next, 0, domain.width - 1e-9),
        np.clip(y_next, 0, domain.height - 1e-9),
    )
    migrated = before != after

    cmp2d = benchmark(compare_mappings, pops, migrated, 2)

    rec = ExperimentRecord("ABL3", "cells-to-processors vs particles mapping")
    rec.add("2-D neighbour exchange events", 8, cmp2d.cell_mapping_comm_events, rel_tol=0)
    rec.add("3-D neighbour exchange events", 26, neighbour_exchange_events(3), rel_tol=0)
    rec.add(
        "active fraction per exchange event",
        1 / 8,
        cmp2d.cell_mapping_comm_active_fraction,
        rel_tol=1e-9,
    )
    rec.add(
        "cell-mapping compute utilization",
        None,
        cmp2d.cell_mapping_compute_utilization,
        note="mean/max cell population on the converged shock field",
    )
    rec.add(
        "particle-mapping compute utilization",
        1.0,
        cmp2d.particle_mapping_compute_utilization,
        rel_tol=1e-9,
    )
    rec.add(
        "compute advantage of particle mapping",
        None,
        cmp2d.compute_advantage,
        note="paced-by-densest-cell penalty avoided",
    )
    rec.add(
        "per-step cell migration fraction",
        None,
        cmp2d.migration_fraction,
        note="traffic the cell mapping would have to route",
    )

    # Execute the cell mapping's motion step (NEWS exchange + SIMD
    # pacing) on the same snapshot for measured, not argued, numbers.
    report = cell_mapped_motion_step(parts, domain)
    rec.add(
        "cell-mapped / particle-mapped motion cost",
        None,
        report.cost_ratio,
        note="serialized 8-event exchange + fullest-cell pacing",
    )
    rec.add(
        "cell-mapped memory slots per processor",
        None,
        float(report.memory_slots_per_processor),
        note="provisioned for the densest (post-shock) cell",
    )
    rec.add(
        "mean exchange-event utilization",
        None,
        report.mean_event_utilization,
        note="fraction of the SIMD machine doing useful sends",
    )
    emit(rec)

    # With a 3.7x shock and near-vacuum wake, the imbalance is large.
    assert cmp2d.compute_advantage > 2.0
    assert report.cost_ratio > 1.5
