"""The shared scenario-validation harness (golden + closed-form).

Every registered scenario carries an acceptance contract in
``spec.validation``:

``checks``
    A list of observable checks.  Each has a ``name``, a ``kind``
    (how the number is measured from the run) and an ``expect``
    (where the reference value comes from):

    kinds
        * ``shock_angle`` -- least-squares fitted oblique-shock angle
          above the wedge ramp (degrees);
        * ``plateau_density_ratio`` -- mean density ratio in the shock
          layer;
        * ``ramp_pressure_ratio`` -- mean ramp surface pressure over
          the freestream static pressure;
        * ``band_mean`` -- mean density ratio over a rectangular cell
          band ``x = [lo, hi)``, ``y = [lo, hi)`` (field indices);
        * ``field_max`` -- peak density ratio anywhere in the field.

        Unsteady scenarios tag band checks with a ``window`` index;
        each window is a fresh time average, so the checks pin the
        *evolution* of the flow, not just its end state.

    expects
        * ``theory:shock_angle`` -- theta-beta-M oblique-shock angle;
        * ``theory:density_ratio`` -- Rankine-Hugoniot density ratio;
        * ``theory:surface_pressure`` -- oblique-shock ramp pressure;
        * ``theory:free_molecular_pressure`` -- exact collisionless
          specular-plate pressure;
        * ``const`` -- a literal reference (``value`` key);
        * ``golden`` -- the committed golden file carries the value
          and tolerance.

    Closed-form/const checks carry their own ``rel_tol``/``abs_tol``.

``golden``
    File name under ``repro/scenarios/golden/`` holding the golden
    observables for the ``expect = "golden"`` checks.  Golden values
    are the cross-seed mean at the scenario's validation scale and the
    tolerance is floored at 3x the worst cross-seed deviation, so a
    correct run at the pinned seed passes with margin while a physics
    regression beyond run-to-run noise fails (see
    :func:`regenerate_golden` and ``docs/scenarios.md``).

``overrides``
    Optional reduced-scale overrides (grid, density, schedule) applied
    for validation runs, keeping the CI matrix seconds-per-scenario.

Regenerate golden files after an intentional physics change with::

    PYTHONPATH=src python -m repro.scenarios <name> [--seeds N]
"""

from __future__ import annotations

import json
import math
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

import numpy as np

from repro.errors import ConfigurationError, ValidationError
from repro.geometry.wedge import Wedge
from repro.physics import theory
from repro.scenarios.spec import ScenarioSpec

#: Directory of committed golden-observable files (package data).
GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"

#: Tolerance floors for regenerated golden observables: never tighter
#: than 3% of the value (absolute floor 0.03), never tighter than 3x
#: the worst cross-seed deviation actually measured.
GOLDEN_REL_FLOOR = 0.03
GOLDEN_ABS_FLOOR = 0.03
GOLDEN_SPREAD_FACTOR = 3.0

CHECK_KINDS = (
    "shock_angle",
    "plateau_density_ratio",
    "ramp_pressure_ratio",
    "band_mean",
    "field_max",
)

THEORY_EXPECTS = (
    "theory:shock_angle",
    "theory:density_ratio",
    "theory:surface_pressure",
    "theory:free_molecular_pressure",
)


@dataclass(frozen=True)
class ScenarioRun:
    """Raw harvest of one scenario run: fields + surface integral."""

    spec: ScenarioSpec
    #: Time-averaged density-ratio fields, one per sampling window
    #: (steady scenarios have exactly one).
    fields: List[np.ndarray]
    #: Body object actually simulated (post-overrides).
    body: Any
    mach: float
    gamma: float
    #: Mean ramp pressure / freestream static pressure (wedge runs).
    ramp_pressure_ratio: Optional[float]


@dataclass(frozen=True)
class CheckResult:
    """One observable check's outcome."""

    name: str
    kind: str
    expect: str
    value: float
    expected: float
    tol: float
    tol_kind: str  # "rel" | "abs" | "ci"
    ok: bool


@dataclass(frozen=True)
class ValidationReport:
    """Every check of one scenario, plus the run parameters used."""

    scenario: str
    results: List[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def to_text(self) -> str:
        """Human-readable per-check report (printed by ``--validate``)."""
        lines = [f"scenario {self.scenario}: "
                 f"{'PASS' if self.ok else 'FAIL'}"]
        for r in self.results:
            mark = "ok " if r.ok else "FAIL"
            if r.tol_kind == "rel":
                tol = f"rel {r.tol:.3g}"
            elif r.tol_kind == "ci":
                tol = f"ci +/-{r.tol:.3g}"
            else:
                tol = f"abs {r.tol:.3g}"
            lines.append(
                f"  [{mark}] {r.name:<28s} {r.value:10.4f}  "
                f"expected {r.expected:10.4f}  ({r.expect}, {tol})"
            )
        return "\n".join(lines)


# -- running ------------------------------------------------------------


def run_scenario(
    spec: ScenarioSpec,
    overrides: Optional[Mapping] = None,
    seed: Optional[int] = None,
) -> ScenarioRun:
    """Run a scenario at validation scale and harvest its observables.

    ``spec.validation["overrides"]`` applies first (the reduced-scale
    validation configuration), then caller ``overrides``, then the
    ``seed`` override (used by the golden regenerator's seed sweep).
    """
    ov: Dict[str, Any] = dict(spec.validation.get("overrides", {}))
    if overrides:
        ov.update(overrides)
    if seed is not None:
        ov["seed"] = int(seed)
    sim = spec.build_simulation(overrides=ov)
    transient, average = spec.resolve_schedule(ov)
    fields: List[np.ndarray] = []
    if spec.unsteady is None:
        if transient > 0:
            sim.run(transient)
        sim.run(average, sample=True)
        fields.append(sim.density_ratio_field())
    else:
        # Impulsive start: no transient -- the windows *are* the
        # transient, each a fresh time average so the sequence shows
        # the flow establishing itself.
        for _ in range(int(spec.unsteady["windows"])):
            sim.sampler.reset()
            sim.run(int(spec.unsteady["window_steps"]), sample=True)
            fields.append(sim.density_ratio_field())
    ramp_ratio = None
    surface = sim.surface
    if surface is not None and surface._steps > 0:
        fs = sim.config.freestream
        p_inf = fs.density * fs.rt
        ramp_ratio = float(surface.ramp_pressure()[2:-2].mean() / p_inf)
    body = sim.config.wedge
    fs = sim.config.freestream
    sim.close()
    return ScenarioRun(
        spec=spec,
        fields=fields,
        body=body,
        mach=fs.mach,
        gamma=fs.gamma,
        ramp_pressure_ratio=ramp_ratio,
    )


# -- measuring ----------------------------------------------------------


def measure_check(run: ScenarioRun, check: Mapping[str, Any]) -> float:
    """Evaluate one check's observable on a finished run."""
    kind = check["kind"]
    if kind not in CHECK_KINDS:
        raise ConfigurationError(
            f"unknown check kind {kind!r}; expected one of {CHECK_KINDS}"
        )
    window = int(check.get("window", 0))
    if not 0 <= window < len(run.fields):
        raise ConfigurationError(
            f"check {check['name']!r}: window {window} out of range "
            f"(run produced {len(run.fields)} fields)"
        )
    rho = run.fields[window]
    if kind == "band_mean":
        try:
            x_lo, x_hi = (int(v) for v in check["x"])
            y_lo, y_hi = (int(v) for v in check["y"])
        except (KeyError, TypeError, ValueError):
            raise ConfigurationError(
                f"check {check['name']!r}: band_mean needs x = [lo, hi] "
                "and y = [lo, hi] integer cell ranges"
            ) from None
        band = rho[x_lo:x_hi, y_lo:y_hi]
        if band.size == 0:
            raise ConfigurationError(
                f"check {check['name']!r}: empty band "
                f"x=[{x_lo},{x_hi}) y=[{y_lo},{y_hi}) on a "
                f"{rho.shape} field"
            )
        return float(band.mean())
    if kind == "field_max":
        return float(rho.max())
    if kind == "ramp_pressure_ratio":
        if run.ramp_pressure_ratio is None:
            raise ConfigurationError(
                f"check {check['name']!r}: no surface sampler on this "
                "run (ramp_pressure_ratio needs a 2-D wedge scenario)"
            )
        return run.ramp_pressure_ratio
    # Shock metrology: wedge-only.
    if not isinstance(run.body, Wedge):
        raise ConfigurationError(
            f"check {check['name']!r}: {kind} requires wedge geometry"
        )
    from repro.analysis.shock import fit_shock_angle, post_shock_plateau

    fit = fit_shock_angle(rho, run.body)
    if kind == "shock_angle":
        return float(fit.angle_deg)
    return float(post_shock_plateau(rho, run.body, fit))


def measure_check_ensemble(
    runs: List[ScenarioRun],
    check: Mapping[str, Any],
    confidence: float = 0.95,
):
    """One check's observable over an ensemble of runs, as a t-CI.

    Applies :func:`measure_check` to each member and returns the
    :class:`repro.core.sampling.EnsembleStatistic` (mean, standard
    error, confidence interval) of the per-member values.  The members
    can be independent seed sweeps (:func:`validate_scenario` with
    ``ensemble=``) or the replicas of one batched
    :class:`repro.ensemble.EnsembleEngine` run via
    :func:`repro.ensemble.replica_scenario_runs`.
    """
    from repro.core.sampling import ensemble_statistic

    if not runs:
        raise ConfigurationError("measure_check_ensemble needs >= 1 run")
    values = [measure_check(run, check) for run in runs]
    return ensemble_statistic(values, confidence=confidence)


def expected_value(run: ScenarioRun, check: Mapping[str, Any]) -> float:
    """Closed-form / const reference value for a non-golden check."""
    expect = check["expect"]
    if expect == "const":
        return float(check["value"])
    body = run.body
    if expect == "theory:shock_angle":
        return float(theory.shock_angle_deg(run.mach, body.angle_deg))
    if expect == "theory:density_ratio":
        return float(
            theory.oblique_shock_density_ratio(
                run.mach, math.radians(body.angle_deg)
            )
        )
    if expect == "theory:surface_pressure":
        from repro.core.surface import oblique_shock_surface_pressure_ratio

        return float(
            oblique_shock_surface_pressure_ratio(
                run.mach, body.angle_deg, run.gamma
            )
        )
    if expect == "theory:free_molecular_pressure":
        return float(
            theory.free_molecular_specular_pressure_ratio(
                run.mach, body.angle, run.gamma
            )
        )
    raise ConfigurationError(
        f"check {check['name']!r}: unknown expect {expect!r}; valid: "
        f"{THEORY_EXPECTS + ('const', 'golden')}"
    )


# -- golden files -------------------------------------------------------


def golden_path(spec: ScenarioSpec) -> Optional[pathlib.Path]:
    """Path of the scenario's golden file (None when it has none)."""
    fname = spec.validation.get("golden")
    return None if fname is None else GOLDEN_DIR / fname


def load_golden(spec: ScenarioSpec) -> Dict[str, Any]:
    """Parse the scenario's committed golden file (errors if absent)."""
    path = golden_path(spec)
    if path is None:
        raise ConfigurationError(
            f"scenario {spec.name!r} declares no golden file but has "
            "golden-expecting checks"
        )
    if not path.exists():
        raise ConfigurationError(
            f"scenario {spec.name!r}: golden file {path.name} is missing; "
            "regenerate with: python -m repro.scenarios " + spec.name
        )
    return json.loads(path.read_text())


def validate_contract(spec: ScenarioSpec) -> None:
    """Statically verify the scenario's acceptance contract.

    Raises unless every check has a known kind, a resolvable expect,
    a tolerance, and -- for golden expects -- a committed golden entry.
    The registry-completeness test runs this over the whole library, so
    a scenario without validation fails CI, not review.
    """
    golden_names = None
    for check in spec.validation["checks"]:
        name = check.get("name")
        if check["kind"] not in CHECK_KINDS:
            raise ConfigurationError(
                f"scenario {spec.name!r} check {name!r}: unknown kind "
                f"{check['kind']!r}"
            )
        expect = check["expect"]
        if expect == "golden":
            if golden_names is None:
                golden_names = set(load_golden(spec)["observables"])
            if name not in golden_names:
                raise ConfigurationError(
                    f"scenario {spec.name!r} check {name!r}: not present "
                    f"in golden file {spec.validation['golden']!r}; "
                    "regenerate it"
                )
            continue
        if expect != "const" and expect not in THEORY_EXPECTS:
            raise ConfigurationError(
                f"scenario {spec.name!r} check {name!r}: unknown expect "
                f"{expect!r}"
            )
        if expect == "const" and "value" not in check:
            raise ConfigurationError(
                f"scenario {spec.name!r} check {name!r}: const expects "
                "need a 'value'"
            )
        if "rel_tol" not in check and "abs_tol" not in check:
            raise ConfigurationError(
                f"scenario {spec.name!r} check {name!r}: closed-form "
                "checks need rel_tol or abs_tol"
            )


# -- validating ---------------------------------------------------------


def validate_scenario(
    spec: ScenarioSpec,
    overrides: Optional[Mapping] = None,
    run: Optional[ScenarioRun] = None,
    ensemble: Optional[int] = None,
    confidence: float = 0.95,
) -> ValidationReport:
    """Run the scenario and check every observable against its reference.

    Returns the full report (pass/fail per check); raise-on-fail is the
    caller's choice via :meth:`ValidationReport.ok` or
    :func:`require_valid`.

    ``ensemble=R`` switches every check from a point estimate to an
    ensemble aggregation: the scenario runs R times at seeds
    ``spec.seed + 101 * k`` (the golden regenerator's seed scheme), each
    check's value becomes the cross-seed mean, and the check passes when
    the ``confidence`` t-interval *contains* the reference value
    (``tol_kind = "ci"``; the reported tolerance is the CI half-width).
    This gates on statistical consistency with the theory value rather
    than a fixed tolerance around one noisy realization.
    """
    validate_contract(spec)
    if ensemble is not None:
        if run is not None:
            raise ConfigurationError(
                "pass either run= or ensemble=, not both"
            )
        if ensemble < 2:
            raise ConfigurationError(
                "ensemble validation needs >= 2 members (a single run "
                "has no interval); use the point-estimate path instead"
            )
        runs = [
            run_scenario(
                spec, overrides=overrides, seed=spec.seed + 101 * k
            )
            for k in range(ensemble)
        ]
        golden = None
        results = []
        for check in spec.validation["checks"]:
            stat = measure_check_ensemble(
                runs, check, confidence=confidence
            )
            if check["expect"] == "golden":
                if golden is None:
                    golden = load_golden(spec)
                expected = float(
                    golden["observables"][check["name"]]["value"]
                )
            else:
                expected = expected_value(runs[0], check)
            results.append(
                CheckResult(
                    name=check["name"],
                    kind=check["kind"],
                    expect=check["expect"],
                    value=stat.mean,
                    expected=expected,
                    tol=(stat.hi - stat.lo) / 2.0,
                    tol_kind="ci",
                    ok=stat.contains(expected),
                )
            )
        return ValidationReport(scenario=spec.name, results=results)
    if run is None:
        run = run_scenario(spec, overrides=overrides)
    golden = None
    results = []
    for check in spec.validation["checks"]:
        value = measure_check(run, check)
        if check["expect"] == "golden":
            if golden is None:
                golden = load_golden(spec)
            entry = golden["observables"][check["name"]]
            expected = float(entry["value"])
            tol = float(entry["tol"])
            ok = abs(value - expected) <= tol
            tol_kind = "abs"
        elif "abs_tol" in check:
            expected = expected_value(run, check)
            tol = float(check["abs_tol"])
            ok = abs(value - expected) <= tol
            tol_kind = "abs"
        else:
            expected = expected_value(run, check)
            tol = float(check["rel_tol"])
            ok = abs(value - expected) <= tol * abs(expected)
            tol_kind = "rel"
        results.append(
            CheckResult(
                name=check["name"],
                kind=check["kind"],
                expect=check["expect"],
                value=value,
                expected=expected,
                tol=tol,
                tol_kind=tol_kind,
                ok=ok,
            )
        )
    return ValidationReport(scenario=spec.name, results=results)


def require_valid(
    spec: ScenarioSpec, overrides: Optional[Mapping] = None
) -> ValidationReport:
    """:func:`validate_scenario`, raising ``ValidationError`` on failure."""
    report = validate_scenario(spec, overrides=overrides)
    if not report.ok:
        raise ValidationError(report.to_text())
    return report


# -- golden regeneration ------------------------------------------------


def regenerate_golden(
    spec: ScenarioSpec,
    n_seeds: int = 3,
    write: bool = True,
) -> Dict[str, Any]:
    """Recompute a scenario's golden file from a cross-seed sweep.

    Runs the scenario at ``n_seeds`` seeds (the pinned seed plus
    deterministic alternates), records the cross-seed mean of every
    golden-expecting observable, and sets each tolerance to
    ``max(floors, 3x worst cross-seed deviation)`` -- wide enough that
    any correct seed passes with margin, tight enough that a physics
    change outside run-to-run noise fails.
    """
    golden_checks = [
        c for c in spec.validation["checks"] if c["expect"] == "golden"
    ]
    if not golden_checks:
        raise ConfigurationError(
            f"scenario {spec.name!r} has no golden-expecting checks"
        )
    if n_seeds < 2:
        raise ConfigurationError("n_seeds must be >= 2 to measure spread")
    seeds = [spec.seed + 101 * k for k in range(n_seeds)]
    samples: Dict[str, List[float]] = {c["name"]: [] for c in golden_checks}
    for seed in seeds:
        run = run_scenario(spec, seed=seed)
        for check in golden_checks:
            samples[check["name"]].append(measure_check(run, check))
    observables = {}
    for name, values in samples.items():
        arr = np.asarray(values)
        mean = float(arr.mean())
        spread = float(np.abs(arr - mean).max())
        tol = max(
            GOLDEN_ABS_FLOOR,
            GOLDEN_REL_FLOOR * abs(mean),
            GOLDEN_SPREAD_FACTOR * spread,
        )
        observables[name] = {
            "value": round(mean, 6),
            "tol": round(tol, 6),
            "spread": round(spread, 6),
        }
    blob = {
        "scenario": spec.name,
        "generator": f"python -m repro.scenarios {spec.name}",
        "seeds": seeds,
        "observables": observables,
    }
    if write:
        path = golden_path(spec)
        if path is None:
            raise ConfigurationError(
                f"scenario {spec.name!r} declares no validation.golden "
                "file name"
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(blob, indent=2) + "\n")
    return blob
