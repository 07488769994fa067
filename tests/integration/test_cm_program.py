"""The CM-substrate program must agree exactly with the reference path.

Runs one sort-select-collide step through
:func:`repro.cm.program.collision_step_program` (fields + scans + sort
+ pair exchange) and through the core modules
(sort_by_cell/even_odd_pairs/select_collisions/collide_pairs) with the
*same pre-drawn random inputs*, and demands bitwise-identical particle
state -- proving the emulated machine hosts the entire algorithm.
"""

import numpy as np
import pytest

from repro.cm.machine import CM2
from repro.cm.program import ProgramInputs, collision_step_program
from repro.cm.timing import PHASES, CostLedger
from repro.core.cells import cell_populations, randomized_sort_keys
from repro.core.collision import collide_pairs
from repro.core.pairing import even_odd_pairs
from repro.core.particles import ParticleArrays
from repro.core.selection import select_collisions
from repro.errors import MachineError
from repro.physics.freestream import Freestream
from repro.physics.molecules import hard_sphere, maxwell_molecule
from repro.rng import make_rng
from tests.collision_words import ScriptedWords


N_CELLS = 12


def make_bath(seed, n, fs):
    rng = make_rng(seed)
    pop = ParticleArrays.from_freestream(rng, n, fs, (0, 1), (0, 1))
    pop.cell = rng.integers(0, N_CELLS, size=n).astype(np.int64)
    return pop, rng


def draw_inputs(rng, n, k=5, scale=8):
    return ProgramInputs(
        mix=rng.integers(0, scale, size=n),
        draws=rng.random(n // 2),
        signs=(rng.integers(0, 2, size=(n // 2, k)) * 2 - 1).astype(np.int8),
        transpositions=rng.integers(0, k, size=n),
    )


def reference_step(pop, fs, model, inputs, scale=8):
    """The same step through the core modules with identical inputs."""
    keys = randomized_sort_keys(pop.cell, scale=scale, mix_bits=inputs.mix)
    order = np.argsort(keys, kind="stable")
    pop.reorder_inplace(order)
    pairs = even_odd_pairs(pop.cell)
    counts = cell_populations(pop.cell, N_CELLS)
    sel = select_collisions(
        pop, pairs, fs, model, counts, draws=inputs.draws[: pairs.n_pairs]
    )
    a = pairs.first[sel.accept]
    b = pairs.second[sel.accept]
    collide_pairs(
        pop, a, b,
        rng=ScriptedWords(
            inputs.signs[sel.accept],
            inputs.transpositions[a],
            inputs.transpositions[b],
        ),
    )
    return sel.n_collisions


@pytest.mark.parametrize("model_factory", [maxwell_molecule, hard_sphere])
@pytest.mark.parametrize("lambda_mfp", [0.0, 1.0])
def test_program_matches_reference_bitwise(model_factory, lambda_mfp):
    fs = Freestream(
        mach=4.0, c_mp=0.14, lambda_mfp=lambda_mfp, density=500 / N_CELLS
    )
    model = model_factory()
    pop_a, rng = make_bath(3, 500, fs)
    pop_b = pop_a.copy()
    inputs = draw_inputs(rng, 500)

    geom = CM2(n_processors=64).geometry(500)
    n_cm = collision_step_program(
        pop_a, fs, model, N_CELLS, geom, inputs
    )
    n_ref = reference_step(pop_b, fs, model, inputs)

    assert n_cm == n_ref
    assert np.array_equal(pop_a.u, pop_b.u)
    assert np.array_equal(pop_a.v, pop_b.v)
    assert np.array_equal(pop_a.w, pop_b.w)
    assert np.array_equal(pop_a.rot, pop_b.rot)
    assert np.array_equal(pop_a.perm, pop_b.perm)
    assert np.array_equal(pop_a.cell, pop_b.cell)


def test_program_charges_all_phases():
    fs = Freestream(mach=4.0, c_mp=0.14, lambda_mfp=1.0, density=50.0)
    pop, rng = make_bath(5, 400, fs)
    inputs = draw_inputs(rng, 400)
    geom = CM2(n_processors=64).geometry(400)
    ledger = CostLedger()
    collision_step_program(
        pop, fs, maxwell_molecule(), N_CELLS, geom, inputs, ledger=ledger
    )
    for phase in ("sort", "selection", "collision"):
        assert ledger.phase_total(phase) > 0
    assert ledger.phase_total("motion") == 0  # motionless step


def test_program_geometry_must_match():
    fs = Freestream(mach=4.0, c_mp=0.14, lambda_mfp=1.0, density=50.0)
    pop, rng = make_bath(6, 100, fs)
    inputs = draw_inputs(rng, 100)
    geom = CM2(n_processors=64).geometry(99)
    with pytest.raises(MachineError):
        collision_step_program(
            pop, fs, maxwell_molecule(), N_CELLS, geom, inputs
        )


def test_program_tiny_population():
    fs = Freestream(mach=4.0, c_mp=0.14, lambda_mfp=1.0, density=50.0)
    pop, rng = make_bath(7, 1, fs)
    inputs = draw_inputs(rng, 1)
    geom = CM2(n_processors=4).geometry(1)
    assert collision_step_program(
        pop, fs, maxwell_molecule(), N_CELLS, geom, inputs
    ) == 0
