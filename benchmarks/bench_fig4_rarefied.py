"""FIG4 -- Figure 4: density contours, rarefied (Kn = 0.02) flow.

Same geometry and contour intervals as figure 1, but with the
freestream mean free path at 0.5 cell widths: "The shock width in this
solution is measured to be 5 cell widths.  As expected, the shock in the
rarefied flow is wider than in the near-continuum case."
"""

from repro.analysis.contour import render_ascii, save_field_npz
from repro.analysis.report import ExperimentRecord
from repro.analysis.shock import (
    fit_shock_angle,
    post_shock_plateau,
    shock_thickness,
)
from repro.constants import (
    PAPER_DENSITY_RATIO,
    PAPER_KNUDSEN,
    PAPER_REYNOLDS,
    PAPER_SHOCK_ANGLE_DEG,
    PAPER_SHOCK_THICKNESS_RAREFIED,
)

from benchmarks.common import OUT_DIR


def test_fig4_rarefied_contours(benchmark, rarefied_solution, continuum_solution, emit):
    rho = rarefied_solution.fields[0]
    wedge = rarefied_solution.body

    def regenerate():
        fit = fit_shock_angle(rho, wedge)
        plateau = post_shock_plateau(rho, wedge, fit)
        thick = shock_thickness(rho, wedge, fit, plateau=plateau)
        return fit, plateau, thick

    fit, plateau, thick = benchmark(regenerate)

    rho_cont = continuum_solution.fields[0]
    fit_c = fit_shock_angle(rho_cont, wedge)
    plateau_c = post_shock_plateau(rho_cont, wedge, fit_c)
    thick_cont = shock_thickness(rho_cont, wedge, fit_c, plateau=plateau_c)

    fs = rarefied_solution.config.freestream
    rec = ExperimentRecord("FIG4", "rarefied density contours (Kn = 0.02)")
    rec.add("Knudsen number", PAPER_KNUDSEN, fs.knudsen(wedge.base), rel_tol=1e-6)
    rec.add("Reynolds number", PAPER_REYNOLDS, fs.reynolds(wedge.base), rel_tol=0.05)
    rec.add("shock angle (deg)", PAPER_SHOCK_ANGLE_DEG, fit.angle_deg, rel_tol=0.08)
    rec.add(
        "post-shock density ratio", PAPER_DENSITY_RATIO, plateau, rel_tol=0.1
    )
    rec.add(
        "shock thickness (cells)",
        PAPER_SHOCK_THICKNESS_RAREFIED,
        thick,
        rel_tol=0.5,
        note="paper reads 5 off fig 4",
    )
    rec.add(
        "thickness ratio rarefied / continuum",
        PAPER_SHOCK_THICKNESS_RAREFIED / 3.0,
        thick / thick_cont,
        rel_tol=0.5,
        note="the rarefied shock must be wider",
    )
    emit(rec)

    OUT_DIR.mkdir(exist_ok=True)
    save_field_npz(str(OUT_DIR / "fig4_rarefied.npz"), density_ratio=rho)
    (OUT_DIR / "fig4_contours.txt").write_text(render_ascii(rho))
    assert thick > thick_cont  # the headline rarefaction effect
