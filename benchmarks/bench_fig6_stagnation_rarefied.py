"""FIG6 -- Figure 6: rarefied stagnation-region density surface.

"Comparing this with figure 3 provides a more visual understanding of
the effect flow rarefaction has made on the shock": at the same station
by the wedge face, the rarefied density rise through the shock is
visibly wider than the near-continuum one, while the plateau level at
the face still approaches the Rankine-Hugoniot value.
"""

import numpy as np

from repro.analysis.contour import save_field_npz
from repro.analysis.fields import stagnation_rise_profile, stagnation_window
from repro.analysis.report import ExperimentRecord
from repro.analysis.shock import vertical_rise_width
from repro.constants import PAPER_DENSITY_RATIO

from benchmarks.common import OUT_DIR


def test_fig6_rarefied_stagnation_surface(
    benchmark, rarefied_solution, continuum_solution, emit
):
    rho_rar = rarefied_solution.fields[0]
    rho_con = continuum_solution.fields[0]
    wedge = rarefied_solution.body
    # Stagnation station: 75% of the ramp chord.
    x_station = wedge.x_leading + 0.75 * wedge.base

    def regenerate():
        return (
            vertical_rise_width(rho_rar, wedge, x_station),
            vertical_rise_width(rho_con, wedge, x_station),
        )

    width_rar, width_con = benchmark(regenerate)

    prof_rar = stagnation_rise_profile(rho_rar, wedge, (1.0, 2.0, 3.0, 4.0))

    rec = ExperimentRecord("FIG6", "rarefied stagnation-region surface")
    rec.add(
        "peak density off the face",
        PAPER_DENSITY_RATIO,
        float(np.max(prof_rar)),
        rel_tol=0.3,
        note="the rise still approaches Rankine-Hugoniot",
    )
    rec.add(
        "shock rise width at stagnation station, rarefied (cells)",
        None,
        width_rar,
        note="fig 6's diffuse rise",
    )
    rec.add(
        "shock rise width at stagnation station, continuum (cells)",
        None,
        width_con,
        note="fig 3's sharper rise",
    )
    rec.add(
        "rise-width ratio (rarefied / continuum)",
        5.0 / 3.0,
        width_rar / width_con,
        rel_tol=0.5,
        note="paper reads 5 vs 3 cells off figs 4 and 1",
    )
    emit(rec)

    win = stagnation_window(wedge, rarefied_solution.config.domain)
    OUT_DIR.mkdir(exist_ok=True)
    save_field_npz(
        str(OUT_DIR / "fig6_stagnation.npz"),
        rarefied=win.extract(rho_rar),
        continuum=win.extract(rho_con),
    )
    # The visual point of fig 6 vs fig 3: the rarefied rise is wider.
    assert width_rar > width_con
