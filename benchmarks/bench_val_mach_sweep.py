"""VAL1 -- "results from simulations at differing Mach numbers and wedge
angles indicate that this implementation is performing correctly."

The paper's closing validation sentence, made concrete: run half-scale
wedge solutions across (Mach, angle) pairs and check every shock angle
and density ratio against the theta-beta-M / Rankine-Hugoniot oracle.
"""

import math

from repro.analysis.report import ExperimentRecord
from repro.analysis.shock import fit_shock_angle, post_shock_plateau
from repro.physics import theory
from repro.scenarios import execute
from repro.scenarios.library import WEDGE

#: (Mach, wedge angle) pairs; all attached-shock conditions with shock
#: layers thick enough to measure on the half-scale grid (the shallow
#: M6 / 25-degree combination, for example, grows only ~0.2 cells of
#: layer per cell of ramp -- unmeasurable at this resolution).
CASES = ((3.0, 20.0), (4.0, 30.0), (5.0, 34.0))


def _solve(mach: float, angle: float):
    """The half-scale ``wedge`` scenario at one (Mach, angle) pair."""
    overrides = {
        "nx": 49, "ny": 32, "density": 14.0, "lambda_mfp": 0.0,
        "mach": mach, "angle": angle,
        # Keep the fastest stream under ~0.7 cells/step.
        "c_mp": min(0.14, 0.56 / mach / math.sqrt(0.7)),
        "seed": int(mach * 100 + angle),
        "transient": 260, "average": 260,
    }
    return execute(WEDGE, overrides)[0]


def test_val_mach_and_angle_sweep(benchmark, emit):
    rec = ExperimentRecord(
        "VAL1", "shock angle & density ratio across Mach / wedge angle"
    )
    solutions = {}
    for mach, angle in CASES[:-1]:
        solutions[(mach, angle)] = _solve(mach, angle)

    # Benchmark the last case's full solve (the timed workload).
    def last_case():
        return _solve(*CASES[-1])

    solutions[CASES[-1]] = benchmark.pedantic(last_case, rounds=1, iterations=1)

    all_ok = True
    for (mach, angle), run in solutions.items():
        rho = run.fields[0]
        beta = theory.shock_angle_deg(mach, angle)
        ratio = theory.oblique_shock_density_ratio(mach, math.radians(angle))
        fit = fit_shock_angle(rho, run.body, post_shock_ratio=ratio)
        plateau = post_shock_plateau(rho, run.body, fit)
        m_beta = rec.add(
            f"shock angle, M{mach:g} / {angle:g} deg wedge",
            beta,
            fit.angle_deg,
            rel_tol=0.08,
        )
        m_rho = rec.add(
            f"density ratio, M{mach:g} / {angle:g} deg wedge",
            ratio,
            plateau,
            rel_tol=0.1,
        )
        all_ok = all_ok and m_beta.agrees() and m_rho.agrees()
    emit(rec)
    assert all_ok
