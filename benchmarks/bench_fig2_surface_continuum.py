"""FIG2 -- Figure 2: density surface, near-continuum: the wake shock.

"This figure clearly depicts the fully developed wake shock created
when the fluid which has expanded around the corner of the wedge meets
the bottom surface of the wind tunnel."  The bench regenerates the
density surface, verifies the wake recompression is present and strong,
and dumps the surface for inspection.
"""

from repro.analysis.contour import save_field_npz
from repro.analysis.fields import SurfaceSummary, wake_window
from repro.analysis.report import ExperimentRecord
from repro.analysis.shock import wake_floor_ridge, wake_recompression_factor
from repro.constants import PAPER_DENSITY_RATIO

from benchmarks.common import OUT_DIR


def test_fig2_density_surface_wake_shock(benchmark, continuum_solution, emit):
    rho = continuum_solution.fields[0]
    wedge, domain = continuum_solution.body, continuum_solution.config.domain

    def regenerate():
        win = wake_window(wedge, domain)
        summary = SurfaceSummary.of(win.extract(rho))
        ridge = wake_floor_ridge(rho, wedge, domain)
        factor = wake_recompression_factor(rho, wedge, domain)
        return summary, ridge, factor

    summary, ridge, factor = benchmark(regenerate)

    rec = ExperimentRecord("FIG2", "near-continuum density surface (wake shock)")
    rec.add(
        "wake floor ridge (floor / mid-height density)",
        None,
        ridge,
        note="> 1: recompression layer attached to the floor (wake shock)",
    )
    rec.add(
        "wake recompression development (peak/trough)",
        None,
        factor,
        note="growth of the floor-band density through the wake",
    )
    rec.add(
        "surface max (shock layer)",
        PAPER_DENSITY_RATIO,
        float(rho[25:45, 2:20].max()),
        rel_tol=0.35,
        note="peak of the density surface sits in the shock layer",
    )
    rec.add("wake window min", None, summary.minimum,
            note="expansion trough behind the base")
    emit(rec)

    OUT_DIR.mkdir(exist_ok=True)
    save_field_npz(str(OUT_DIR / "fig2_surface.npz"), density_ratio=rho)
    # The headline claim: the recompression layer is attached to the
    # floor (the developing wake shock of figure 2) and has grown a
    # strong density rise along the wake.
    assert ridge > 1.0
    assert factor > 2.0
