"""ABL6 -- operator-splitting (time-step) convergence.

The whole method rests on decoupling motion and collision "for a small
discrete time step" (the paper's opening argument).  In the Baganoff
normalization the time step *is* the velocity scale: halving ``c_mp``
halves how far particles move (and how many collisions fire) per step,
i.e. it refines dt while holding the physics fixed.  If the splitting
error is under control, the converged shock metrics must be unchanged
(collision counts per unit *physical* time, not per step, stay fixed).
"""

from repro.analysis.report import ExperimentRecord
from repro.analysis.shock import fit_shock_angle, post_shock_plateau
from repro.scenarios import execute
from repro.scenarios.library import WEDGE

#: (velocity scale, steps multiplier): halving c_mp doubles the steps so
#: both runs cover the same physical time.
CASES = ((0.14, 1.0), (0.07, 2.0))


def _metrics(c_mp: float, step_factor: float):
    run = execute(WEDGE, {
        "nx": 49, "ny": 32, "density": 14.0, "lambda_mfp": 0.0,
        "c_mp": c_mp, "seed": 61,
        "transient": int(200 * step_factor),
        "average": int(220 * step_factor),
    })[0]
    rho = run.fields[0]
    fit = fit_shock_angle(rho, run.body)
    plateau = post_shock_plateau(rho, run.body, fit)
    return fit.angle_deg, plateau


def test_abl_timestep_convergence(benchmark, emit):
    coarse = _metrics(*CASES[0])
    fine = benchmark.pedantic(
        _metrics, args=CASES[1], rounds=1, iterations=1
    )

    rec = ExperimentRecord(
        "ABL6", "operator-splitting convergence (halved time step)"
    )
    rec.add("shock angle, nominal dt (deg)", 45.22, coarse[0], rel_tol=0.05)
    rec.add("shock angle, dt/2 (deg)", coarse[0], fine[0], rel_tol=0.04)
    rec.add("density ratio, nominal dt", 3.70, coarse[1], rel_tol=0.08)
    rec.add("density ratio, dt/2", coarse[1], fine[1], rel_tol=0.05)
    emit(rec)

    # Refinement changes nothing beyond statistics: the splitting error
    # at the production time step is already negligible.
    assert abs(fine[0] - coarse[0]) < 2.0
    assert abs(fine[1] - coarse[1]) / coarse[1] < 0.05
