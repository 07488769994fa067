"""FIG5 -- Figure 5: rarefied density surface: the wake shock washes out.

"On looking at figure 5 it is at first surprising to notice there is no
longer a wake shock, however this is merely another manifestation of the
greater rarefaction ... the mean free path in this region is great
enough that the wake shock is completely washed out."

Discriminator: the wake recompression layer's attachment to the floor
(:func:`repro.analysis.shock.wake_floor_ridge`).  Near continuum the
far-wake density *decreases* with height (the recompressed layer hugs
the floor, ridge > 1); at Kn = 0.02 diffusion smears it (ridge <= 1).
"""

from repro.analysis.contour import save_field_npz
from repro.analysis.fields import SurfaceSummary, wake_window
from repro.analysis.report import ExperimentRecord
from repro.analysis.shock import wake_floor_ridge

from benchmarks.common import OUT_DIR


def test_fig5_rarefied_surface_no_wake_shock(
    benchmark, rarefied_solution, continuum_solution, emit
):
    rho_rar = rarefied_solution.fields[0]
    rho_con = continuum_solution.fields[0]
    wedge, domain = rarefied_solution.body, rarefied_solution.config.domain

    def regenerate():
        return (
            wake_floor_ridge(rho_rar, wedge, domain),
            wake_floor_ridge(rho_con, wedge, domain),
        )

    ridge_rar, ridge_con = benchmark(regenerate)

    win = wake_window(wedge, domain)
    summary = SurfaceSummary.of(win.extract(rho_rar))

    rec = ExperimentRecord("FIG5", "rarefied density surface (wake washed out)")
    rec.add(
        "wake floor ridge, rarefied",
        None,
        ridge_rar,
        note="paper: 'completely washed out' -> no floor-attached layer",
    )
    rec.add(
        "wake floor ridge, continuum (contrast)",
        None,
        ridge_con,
        note="same metric on the figure-2 solution",
    )
    rec.add(
        "washout margin (continuum - rarefied)",
        None,
        ridge_con - ridge_rar,
        note="> 0.1 demonstrates the rarefaction washout",
    )
    rec.add("wake surface roughness", None, summary.roughness)
    emit(rec)

    OUT_DIR.mkdir(exist_ok=True)
    save_field_npz(str(OUT_DIR / "fig5_surface.npz"), density_ratio=rho_rar)
    assert ridge_con > ridge_rar + 0.1
    assert ridge_rar < 1.0
