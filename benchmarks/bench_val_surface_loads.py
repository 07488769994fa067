"""VAL2 -- surface loads: the quantity the paper's motivation cares about.

The introduction motivates DSMC with vehicle design (NASP, AOTVs); the
designer's outputs are surface pressure and drag.  They fall out of the
boundary conditions (reflection impulses) and validate against the
attached-oblique-shock surface pressure ``p2`` and the wedge pressure
drag -- an end-to-end check through motion, boundaries, sort, selection
and collision at once.
"""

from repro.analysis.report import ExperimentRecord
from repro.core.surface import oblique_shock_surface_pressure_ratio


def test_val_surface_loads(benchmark, continuum_solution, emit):
    surface = continuum_solution.surface
    fs = continuum_solution.config.freestream

    def regenerate():
        return (
            surface.ramp_pressure(),
            surface.drag_coefficient(fs),
            surface.back_face_pressure(),
        )

    pressures, cd, base = benchmark(regenerate)

    p_inf = fs.density * fs.rt
    ratio_theory = oblique_shock_surface_pressure_ratio(
        fs.mach, continuum_solution.body.angle_deg, fs.gamma
    )
    interior = pressures[2:-2] / p_inf
    q = 0.5 * fs.density * fs.speed**2
    cp_theory = (ratio_theory - 1.0) * p_inf / q

    rec = ExperimentRecord("VAL2", "wedge surface pressure and drag")
    rec.add(
        "ramp pressure / p_inf",
        ratio_theory,
        float(interior.mean()),
        rel_tol=0.12,
        note="post-shock static pressure on the ramp (inviscid theory)",
    )
    rec.add(
        "ramp pressure uniformity (std/mean)",
        None,
        float(interior.std() / interior.mean()),
    )
    rec.add(
        "ramp Cp",
        cp_theory,
        float(
            (pressures[2:-2].mean() - p_inf) / q
        ),
        rel_tol=0.15,
    )
    rec.add(
        "base pressure / ramp pressure",
        None,
        float(base / pressures[2:-2].mean()),
        note="near-vacuum wake: small",
    )
    rec.add("drag coefficient (frontal area)", None, cd)
    emit(rec)

    assert abs(interior.mean() - ratio_theory) / ratio_theory < 0.12
    assert cd > 0.0
