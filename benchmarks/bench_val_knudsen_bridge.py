"""VAL3 -- the Knudsen bridge: surface pressure from continuum to
free-molecular.

The paper's two runs (lambda = 0 and lambda = 0.5) sit at the continuum
end of the transitional regime its introduction motivates (Kn > 0.1
vehicles).  Sweeping the mean free path across four decades bridges the
two exact limits this library carries:

* Kn -> 0: ramp pressure = oblique-shock p2 (9.2 p_inf at M4 / 30 deg);
* Kn -> inf: free-molecular specular flux (22.9 p_inf).

Each sweep point is the half-scale ``wedge`` scenario run as
``REPLICAS`` independent replicas (``execute(..., replicas=R)``), with
one seed per point fixed by its index (``13 + i``).  The gates:

* both anchors: the replica mean within 12 % of its limit;
* the bridge does not fall: for each consecutive step, the
  ``STEP_CONFIDENCE`` t-interval of the mean step
  (:func:`repro.core.sampling.ensemble_statistic` over the replicas'
  differences) must not lie wholly below zero.  A step the interval
  resolves must therefore rise; an unresolved step passes.  At this
  scale the first step (lambda 0 -> 0.5) is smaller than the
  per-replica spread and stays unresolved.

False-fail probability: if no true step is negative, each step's
interval lies wholly below zero with probability at most
``(1 - STEP_CONFIDENCE) / 2`` = 0.05 %, so the step gate false-fails
with probability at most 3 x 0.05 % = 0.15 %.  The anchor gates add
next to nothing: their replica means sit about 14 (continuum) and 9
(free-molecular) standard errors inside their tolerances.
"""

import math

from repro.analysis.report import ExperimentRecord
from repro.core.sampling import ensemble_statistic
from repro.core.surface import oblique_shock_surface_pressure_ratio
from repro.physics import theory
from repro.scenarios import execute
from repro.scenarios.library import WEDGE

#: Freestream mean free paths (cell widths): continuum-ish to
#: effectively collisionless (wedge base 12.5 => Kn 0.04 ... 8000).
SWEEP = (0.0, 0.5, 5.0, 1.0e5)

#: Independent replicas per sweep point.
REPLICAS = 4

#: Confidence of each step's t-interval.
STEP_CONFIDENCE = 0.999


def _pressures_at(i: int) -> list:
    """Ramp p / p_inf of each replica at sweep point ``i``."""
    runs = execute(
        WEDGE,
        {
            "nx": 49, "ny": 32, "density": 14.0,
            "lambda_mfp": SWEEP[i], "seed": 13 + i,
            "transient": 200, "average": 220,
        },
        replicas=REPLICAS,
    )
    return [run.ramp_pressure_ratio for run in runs]


def test_val_knudsen_bridge(benchmark, emit):
    pressures = [_pressures_at(i) for i in range(len(SWEEP) - 1)]
    pressures.append(
        benchmark.pedantic(
            _pressures_at, args=(len(SWEEP) - 1,), rounds=1, iterations=1
        )
    )
    means = [ensemble_statistic(p, STEP_CONFIDENCE) for p in pressures]
    steps = [
        ensemble_statistic(
            [b - a for a, b in zip(lo, hi)], STEP_CONFIDENCE
        )
        for lo, hi in zip(pressures, pressures[1:])
    ]

    continuum_anchor = oblique_shock_surface_pressure_ratio(4.0, 30.0, 1.4)
    fm_anchor = theory.free_molecular_specular_pressure_ratio(
        4.0, math.radians(30.0)
    )
    base = WEDGE.build_body(nx=49).base

    def ci(stat) -> str:
        return (
            f"{100 * STEP_CONFIDENCE:g}% CI [{stat.lo:.3g}, {stat.hi:.3g}]"
            f", n={stat.n}"
        )

    rec = ExperimentRecord(
        "VAL3", "ramp pressure across the Knudsen range (p / p_inf)"
    )
    rec.add(
        "continuum anchor (lambda = 0)",
        continuum_anchor,
        means[0].mean,
        rel_tol=0.12,
        note=f"oblique-shock p2; replica mean, {ci(means[0])}",
    )
    for lam, stat in zip(SWEEP[1:-1], means[1:-1]):
        rec.add(
            f"transitional, Kn = {lam / base:g}",
            None,
            stat.mean,
            note=f"replica mean, {ci(stat)}",
        )
    rec.add(
        "free-molecular anchor (Kn >> 1)",
        fm_anchor,
        means[-1].mean,
        rel_tol=0.12,
        note=f"doubled incident normal flux; replica mean, {ci(means[-1])}",
    )
    for a, b, stat in zip(SWEEP, SWEEP[1:], steps):
        verdict = (
            "rises" if stat.lo > 0
            else "falls" if stat.hi < 0
            else "unresolved"
        )
        rec.add(
            f"step Kn {a / base:g} -> {b / base:g}",
            None,
            stat.mean,
            note=f"{verdict}; {ci(stat)}",
        )
    emit(rec)

    assert rec.metrics[0].agrees()
    assert rec.metrics[len(SWEEP) - 1].agrees()
    falls = [(a, b) for a, b, s in zip(SWEEP, SWEEP[1:], steps) if s.hi < 0]
    assert not falls, (
        "pressure must not fall between continuum and free-molecular: "
        f"significantly negative steps {falls}, replica means "
        f"{[m.mean for m in means]}"
    )
