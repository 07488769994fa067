"""FIG3 -- Figure 3: density surface in the stagnation region (continuum).

The figure "is useful for studying the approach that the simulation
takes to the theoretical rise in density behind the shock", and its
jagged wedge edge exists because the paper's plotting package could not
honour fractional cell volumes.  The bench regenerates the stagnation
window both with and without the volume correction (reproducing the
jagged-edge artifact quantitatively) and checks the rise approaches the
Rankine-Hugoniot plateau.
"""

import numpy as np

from repro.analysis.contour import save_field_npz
from repro.analysis.fields import stagnation_rise_profile, stagnation_window
from repro.analysis.report import ExperimentRecord
from repro.constants import PAPER_DENSITY_RATIO

from benchmarks.common import OUT_DIR


def test_fig3_stagnation_surface(benchmark, continuum_solution, emit):
    run = continuum_solution
    rho = run.fields[0]
    rho_jagged = run.sampler.density_ratio(
        run.config.freestream.density, correct_volumes=False
    )

    def regenerate():
        win = stagnation_window(run.body, run.config.domain)
        return win.extract(rho), win.extract(rho_jagged)

    corrected, jagged = benchmark(regenerate)

    profile = stagnation_rise_profile(rho, run.body, offsets=(1.5, 3.0, 4.5))

    # Quantify the jagged edge: cut cells along the ramp read low
    # without the fractional-volume correction.
    vf = run.sampler.volume_fractions
    cut = (vf > 0.05) & (vf < 0.95)
    edge_error = float(
        np.abs(rho_jagged[cut] - rho[cut]).mean() / max(rho[cut].mean(), 1e-9)
    )

    rec = ExperimentRecord("FIG3", "stagnation-region density surface")
    rec.add(
        "density at 4.5 cells off the ramp",
        PAPER_DENSITY_RATIO,
        float(profile[2]),
        rel_tol=0.15,
        note="approach to the theoretical rise behind the shock",
    )
    rec.add(
        "rise monotone toward plateau",
        None,
        float(profile[1] - profile[0]) if profile[0] < profile[1] else 0.0,
        note="density grows away from the cut-cell band",
    )
    rec.add(
        "jagged-edge relative error (uncorrected volumes)",
        None,
        edge_error,
        note="the artifact the paper's plotting package produced",
    )
    emit(rec)

    OUT_DIR.mkdir(exist_ok=True)
    save_field_npz(
        str(OUT_DIR / "fig3_stagnation.npz"),
        corrected=corrected,
        jagged=jagged,
    )
    # The artifact must be real and material on cut cells.
    assert edge_error > 0.1
    # And the corrected field must rise to the R-H plateau.
    assert float(profile[-1]) > 0.8 * PAPER_DENSITY_RATIO
