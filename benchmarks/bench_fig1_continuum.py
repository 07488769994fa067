"""FIG1 -- Figure 1: density contours, near-continuum Mach 4 / 30-degree wedge.

Paper reads off the figure: shock angle exactly the theoretical 45
degrees, post-shock density 3.7x freestream (Rankine-Hugoniot), a
correct Prandtl-Meyer fan at the corner, and a shock thickness of 3 cell
widths.  The bench regenerates the field, extracts the same numbers, and
times the extraction pipeline.
"""

import math

from repro.analysis.report import ExperimentRecord
from repro.analysis.shock import (
    expansion_fan_samples,
    fit_shock_angle,
    post_shock_plateau,
    shock_thickness,
)
from repro.analysis.contour import render_ascii, save_field_npz
from repro.constants import (
    PAPER_DENSITY_RATIO,
    PAPER_SHOCK_ANGLE_DEG,
    PAPER_SHOCK_THICKNESS_CONTINUUM,
)
from repro.physics import theory

from benchmarks.common import OUT_DIR


def test_fig1_density_contours(benchmark, continuum_solution, emit):
    rho = continuum_solution.fields[0]
    wedge = continuum_solution.body

    # The timed artifact: the full figure-1 metrology pipeline.
    def regenerate():
        fit = fit_shock_angle(rho, wedge)
        plateau = post_shock_plateau(rho, wedge, fit)
        thick = shock_thickness(rho, wedge, fit, plateau=plateau)
        return fit, plateau, thick

    fit, plateau, thick = benchmark(regenerate)

    # Prandtl-Meyer fan check: sample the fan along the theoretical
    # characteristics for 10/20/30-degree turns from the post-shock
    # state.
    m2 = theory.post_oblique_shock_mach(4.0, math.radians(30.0))
    turns = (10.0, 20.0, 30.0)
    measured_fan, predicted_fan = expansion_fan_samples(
        rho, wedge, turns, mach_post_shock=m2, plateau=plateau
    )

    rec = ExperimentRecord("FIG1", "near-continuum density contours")
    rec.add("shock angle (deg)", PAPER_SHOCK_ANGLE_DEG, fit.angle_deg, rel_tol=0.07)
    rec.add(
        "post-shock density ratio", PAPER_DENSITY_RATIO, plateau, rel_tol=0.08
    )
    rec.add(
        "shock thickness (cells)",
        PAPER_SHOCK_THICKNESS_CONTINUUM,
        thick,
        rel_tol=0.5,
        note="resolution-limited; paper reads 3 off fig 1",
    )
    for t, meas, pred in zip(turns, measured_fan, predicted_fan):
        rec.add(
            f"PM fan density after {t:.0f} deg turn",
            pred,
            float(meas),
            rel_tol=0.3,
            note=f"from M2={m2:.2f} along the fan characteristic",
        )
    rec.add("freestream plateau", 1.0, float(rho[5:15, 40:60].mean()), rel_tol=0.05)
    emit(rec)

    OUT_DIR.mkdir(exist_ok=True)
    save_field_npz(str(OUT_DIR / "fig1_continuum.npz"), density_ratio=rho)
    (OUT_DIR / "fig1_contours.txt").write_text(render_ascii(rho))
    assert rec.metrics[0].agrees()
    assert rec.metrics[1].agrees()
